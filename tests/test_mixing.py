import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mixcuts import (
    InvalidSequence,
    LinearCut,
    MixingInstance,
    RiskOutOfRange,
    all_mixing_cuts,
    mix_star_cuts,
    quantile_lower_bounds,
    reduce_lower_bounds,
    separate_mixing,
)
from mixcuts.mixing import _column_cut

from conftest import random_weights
from helpers import (
    column,
    column_oracle,
    cut_matrix,
    is_submodular,
    mixing_cut,
    project,
)


def floor_point(inst, z_mask):
    """The componentwise-minimal y at a binary z (1 = scenario dropped)."""
    return tuple(
        max(
            inst.lower[j],
            max(
                (
                    inst.weights[i][j]
                    for i in range(inst.n)
                    if not z_mask & (1 << i)
                ),
                default=Fraction(0),
            ),
        )
        for j in range(inst.k)
    )


def test_column_oracle_offset_and_submodularity():
    rng = random.Random(11)
    for _ in range(10):
        w = random_weights(rng, 4, 2, lo=0, hi=9, dens=(1, 2))
        lower = [Fraction(rng.randint(0, 4)), Fraction(rng.randint(0, 4))]
        inst = MixingInstance(w, lower, 0)
        for j in range(2):
            f = column_oracle(inst, j)
            assert f.value(0) == lower[j]
            assert is_submodular(f)


def test_reduce_lower_bounds_examples():
    inst = MixingInstance([[6, 4]], [8, 1], 3)
    reduced, shift = reduce_lower_bounds(inst)
    assert reduced.weights[0] == (0, 3)
    assert reduced.lower == (0, 0)
    assert reduced.epsilon == 3
    assert shift == (8, 1)
    zero = MixingInstance([[6, 4]], None, 3)
    same, shift0 = reduce_lower_bounds(zero)
    assert same is zero and shift0 == (0, 0)


def test_reduce_preserves_feasibility_exhaustively():
    rng = random.Random(7)
    for _ in range(15):
        n, k = rng.randint(1, 4), rng.randint(1, 3)
        w = random_weights(rng, n, k, lo=0, hi=9)
        lower = [Fraction(rng.randint(0, 5)) for _ in range(k)]
        eps = Fraction(rng.randint(0, 6))
        inst = MixingInstance(w, lower, eps)
        reduced, shift = reduce_lower_bounds(inst)
        for mask in range(1 << n):
            orig_floor = floor_point(inst, mask)
            red_floor = floor_point(reduced, mask)
            assert tuple(a - s for a, s in zip(orig_floor, shift)) == red_floor
            # linking thresholds shift by sum(lower) exactly
            orig_need = eps + sum(lower)
            red_need = eps
            assert orig_need - sum(shift) == red_need


def test_quantile_example1_column1(example1_probs):
    bounds = quantile_lower_bounds(example1_probs, Fraction(1, 5))
    assert bounds[0] == 8
    assert bounds[1] == 3


def test_quantile_tiny_risk_gives_column_max(example1_probs):
    bounds = quantile_lower_bounds(example1_probs, Fraction(1, 100))
    assert bounds == (13, 4)


def test_quantile_risk_range(example1_probs, example1):
    with pytest.raises(RiskOutOfRange):
        quantile_lower_bounds(example1_probs, Fraction(1))
    with pytest.raises(RiskOutOfRange):
        quantile_lower_bounds(example1, Fraction(1, 5))  # no probabilities


def brute_quantile(inst, risk):
    out = []
    for j in range(inst.k):
        best = None
        for mask in range(1 << inst.n):
            p = sum(
                inst.probabilities[i]
                for i in range(inst.n)
                if mask & (1 << i)
            )
            if p > risk:
                continue
            value = max(
                (
                    inst.weights[i][j]
                    for i in range(inst.n)
                    if not mask & (1 << i)
                ),
                default=Fraction(0),
            )
            if best is None or value < best:
                best = value
        out.append(best)
    return tuple(out)


def test_quantile_matches_brute_force():
    rng = random.Random(303)
    for _ in range(20):
        n, k = rng.randint(2, 6), rng.randint(1, 2)
        w = random_weights(rng, n, k, lo=0, hi=9)
        raw = [rng.randint(1, 5) for _ in range(n)]
        total = sum(raw)
        probs = [Fraction(r, total) for r in raw]
        inst = MixingInstance(w, None, 0, probs)
        risk = Fraction(rng.randint(1, 9), 10)
        assert quantile_lower_bounds(inst, risk) == brute_quantile(inst, risk)


def same_cut(a, b):
    return (a.kind, a.y_coeffs, a.z_coeffs, a.rhs) == (b.kind, b.y_coeffs, b.z_coeffs, b.rhs)


def test_mixing_cut_paper_facets(example1):
    cut = mixing_cut(example1, 0, (2, 0, 1, 4, 3))
    assert cut.y_coeffs == (1, 0)
    assert cut.z_coeffs == (2, 2, 5, 1, 3)
    assert cut.rhs == 13
    assert same_cut(_column_cut(example1, 0, (2, 0, 1, 4, 3)), cut)
    cut2 = mixing_cut(example1, 1, (1, 3, 4))
    assert cut2.z_coeffs == (0, 2, 0, 1, 1)
    assert cut2.rhs == 4
    assert same_cut(_column_cut(example1, 1, (1, 3, 4)), cut2)


def test_mixing_cut_singleton_is_big_m_row(example1):
    cut = mixing_cut(example1, 0, (2,))
    assert cut.z_coeffs == (0, 0, 13, 0, 0)
    assert cut.rhs == 13
    assert same_cut(_column_cut(example1, 0, (2,)), cut)



def test_mixing_cut_rejects_non_monotone(example1):
    with pytest.raises(InvalidSequence):
        mixing_cut(example1, 0, (3, 2))  # values 1 < 13


def test_separate_mixing_examples(example1):
    y = (Fraction(12), Fraction(4))
    z = (Fraction(1), Fraction(1), Fraction(0), Fraction(1), Fraction(1))
    cuts = separate_mixing(example1, y, z)
    assert len(cuts) == 1
    cut = cuts[0]
    assert cut.y_coeffs == (1, 0)
    assert cut.z_coeffs[2] > 0  # touches the dropped scenario
    assert cut.violation(y, z) > 0
    # hull vertex: no scenario dropped, y at the column maxima
    assert separate_mixing(
        example1, (Fraction(13), Fraction(4)), (Fraction(0),) * 5
    ) == []


def test_separate_mixing_verdict_matches_family_brute_force():
    rng = random.Random(424)
    for trial in range(25):
        n, k = rng.randint(2, 5), rng.randint(1, 2)
        if trial % 2:
            # few distinct values: duplicate rows and ties throughout
            vals = [Fraction(rng.choice((0, 2, 2, 5, 9))) for _ in range(n * k)]
            w = [vals[i * k : (i + 1) * k] for i in range(n)]
        else:
            w = random_weights(rng, n, k, lo=0, hi=9)
        inst = MixingInstance(w, None, 0)
        y = tuple(Fraction(rng.randint(0, 12), 2) for _ in range(k))
        z = tuple(Fraction(rng.randint(0, 4), 4) for _ in range(n))
        cuts = separate_mixing(inst, y, z)
        separated_columns = {
            j for j in range(k) for c in cuts if c.y_coeffs[j] == 1
        }
        for j in range(k):
            worst = max(
                (c.violation(y, z) for c in mix_star_cuts(inst, j)),
                default=Fraction(0),
            )
            assert (worst > 0) == (j in separated_columns)
            for c in cuts:
                if c.y_coeffs[j] == 1:
                    assert c.violation(y, z) == worst  # greedy attains the max


WEIGHT_VALUES = (0, 1, Fraction(3, 2), 3, 7)
LOWER_VALUES = (0, 1, Fraction(5, 2), 8)  # 8 lies above every weight
Z_VALUES = (0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))


@st.composite
def column_points(draw):
    """Weights, lower bounds and a point (y, z) with n <= 6 and k <= 3; y_j
    ranges from below lower_j to above the column maximum."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    value = st.sampled_from(WEIGHT_VALUES)
    w = [[draw(value) for _ in range(k)] for _ in range(n)]
    lower = [draw(st.sampled_from(LOWER_VALUES)) for _ in range(k)]
    z = [draw(st.sampled_from(Z_VALUES)) for _ in range(n)]
    y = [l + Fraction(draw(st.integers(-2, 16)), 2) for l in lower]
    return w, lower, y, z


@given(case=column_points())
@example(
    # Nonzero lower bound 4 under values 3 and 5, an all-zero column, a
    # column whose maximum 7 lies below its lower bound 8 with y under it,
    # ties in z, and z at 0 and at 1.
    case=(
        [[3, 0, 1], [5, 0, 7], [5, 0, 0], [1, 0, 3]],
        [4, 0, 8],
        [4, 0, Fraction(15, 2)],
        [0, Fraction(1, 2), Fraction(1, 2), 1],
    )
)
def test_separate_mixing_attains_the_most_violated_column_inequality(case):
    w, lower, y, z = case
    inst = MixingInstance(w, lower, 0)
    y, z = tuple(map(Fraction, y)), tuple(map(Fraction, z))
    found = separate_mixing(inst, y, z)
    cuts = {next(j for j, a in enumerate(cut.y_coeffs) if a): cut for cut in found}
    assert len(cuts) == len(found)  # at most one cut per column
    for j in range(inst.k):
        worst = max(
            [inst.lower[j] - y[j]]  # the bound row y_j >= lower_j
            + [c.violation(y, z) for c in all_mixing_cuts(inst, j)]
        )
        if worst > 0:
            assert cuts[j].violation(y, z) == worst
        else:
            assert j not in cuts


def test_mix_cut_validity_at_all_binary_points():
    rng = random.Random(171)
    for _ in range(10):
        n, k = rng.randint(2, 6), rng.randint(1, 2)
        w = random_weights(rng, n, k, lo=0, hi=9)
        lower = [Fraction(rng.randint(0, 3)) for _ in range(k)]
        inst = MixingInstance(w, lower, 0)
        cuts = [c for j in range(k) for c in all_mixing_cuts(inst, j)]
        for mask in range(1 << n):
            z = tuple(
                Fraction(1 if mask & (1 << i) else 0) for i in range(n)
            )
            y = floor_point(inst, mask)
            for cut in cuts:
                assert cut.violation(y, z) <= 0


def test_every_greedy_vertex_is_a_star_cut_and_back(example1):
    # direction 1: every permutation's vertex translates into the starred family
    for j in range(example1.k):
        family = {c.canonical_key() for c in mix_star_cuts(example1, j)}
        f = column_oracle(example1, j)
        for perm in itertools.permutations(range(5)):
            pi = [Fraction(0)] * 5
            mask = 0
            prev = f.value(0)
            for i in perm:
                mask |= 1 << i
                cur = f.value(mask)
                pi[i] = cur - prev
                prev = cur
            y = [Fraction(0)] * 2
            y[j] = Fraction(1)
            cut = LinearCut(y, pi, example1.lower[j] + sum(pi))
            assert cut.canonical_key() in family
    # direction 2: every maximal chain arises from some permutation
    for j in range(example1.k):
        col = column(example1, j)
        f = column_oracle(example1, j)
        by_value = {}
        for i, wv in enumerate(col):
            by_value.setdefault(wv, []).append(i)
        values = sorted(by_value, reverse=True)
        for reps in itertools.product(*[by_value[v] for v in values]):
            chain = list(reps)  # one representative per distinct value
            perm = list(reversed(chain)) + [
                i for i in range(5) if i not in chain
            ]
            pi = [Fraction(0)] * 5
            mask = 0
            prev = f.value(0)
            for i in perm:
                mask |= 1 << i
                cur = f.value(mask)
                pi[i] = cur - prev
                prev = cur
            target = mixing_cut(example1, j, chain)
            y = [Fraction(0)] * 2
            y[j] = Fraction(1)
            translated = LinearCut(y, pi, example1.lower[j] + sum(pi))
            assert translated == target


def test_subchain_cuts_implied_by_star_family(example1):
    # points satisfying every starred cut also satisfy every sub-chain cut
    rng = random.Random(88)
    star = [c for j in range(2) for c in mix_star_cuts(example1, j)]
    full = [c for j in range(2) for c in all_mixing_cuts(example1, j)]
    for s in range(40):
        z = tuple(Fraction(rng.randint(0, 4), 4) for _ in range(5))
        y, z = project(cut_matrix(example1, star), z, s % 2)
        for cut in full:
            assert cut.violation(y, z) <= 0
