import random
from fractions import Fraction
from itertools import takewhile

import pytest

from mixcuts import (
    CutKind,
    EpsilonViolated,
    LinearCut,
    LowerBoundsNotReduced,
    MixingInstance,
    SequenceTheta,
    aggregated_cut,
    check_validity,
    separate_aggregated,
    sequences,
)
from mixcuts import aggregated
from mixcuts.aggregated import HullDiagnosis, _linking_sequence, count_sequences, fold, walk
from mixcuts.core import integer_point
from mixcuts.hull import diagnose, v_representation
from mixcuts.submodular import greedy_vertex, max_sum_oracle

from conftest import random_weights
from helpers import (
    column,
    complement,
    decompose,
    dominates_linking,
    fraction_aggregated_cut,
    fraction_vertices,
    l_theta,
    mixing_cut,
    row_sum,
    telescope,
)

THETA_213 = SequenceTheta((1, 0, 2))  # paper's {2 -> 1 -> 3}


def gain_reference(inst, theta):
    """The row of a sequence by the chain definition, over D: the chains of
    ``decompose`` telescoped and summed, and D * L(Theta)."""
    scale = inst.scaled[0]
    columns = [column(inst, j) for j in range(inst.k)]
    z, rhs = telescope(decompose(inst, theta), columns, inst.n)
    return [scale * c for c in z], scale * rhs, scale * l_theta(inst, theta)


def test_decompose_example1(example1):
    assert decompose(example1, THETA_213) == ((2,), (1, 0, 2))
    # Index 2 heads both chains; 1 and 0 gain 4 - 3 and 3 - 2 in column 1.
    assert fold(example1, THETA_213.indices) == ([13, 4], [1, 1, 15, 0, 0], 9)
    assert gain_reference(example1, THETA_213) == ([1, 1, 15, 0, 0], 17, 9)


def test_decompose_singleton(example1):
    assert decompose(example1, SequenceTheta((3,))) == ((3,), (3,))
    # A single index gains its whole row, and L is its row sum.
    row = list(example1.weights[3])
    assert fold(example1, (3,)) == (row, [0, 0, 0, sum(row), 0], sum(row))


def definitional_subsequence(inst, theta, j):
    idx = theta.indices
    out = []
    for t, i in enumerate(idx):
        later = [inst.weights[q][j] for q in idx[t + 1 :]]
        if inst.weights[i][j] >= max(later, default=Fraction(0)):
            out.append(i)
    return tuple(out)


def gain_case(rng):
    """A reduced instance and one sequence over it, with what it covers:
    small values (many ties), sometimes fractional weights, an all-zero row
    or column, and epsilon drawn from 0, a random value, every row sum and
    beyond."""
    n, k = rng.randint(1, 8), rng.randint(1, 3)
    dens = rng.choice([(1,), (1, 2, 3)])
    weights = random_weights(rng, n, k, lo=0, hi=rng.choice((2, 6)), dens=dens)
    if rng.random() < 0.25:
        weights[rng.randrange(n)] = [Fraction(0)] * k
    if rng.random() < 0.25:
        zero = rng.randrange(k)
        for row in weights:
            row[zero] = Fraction(0)
    top = max(sum(row) for row in weights)
    eps = rng.choice([Fraction(0), Fraction(rng.randint(1, 8), rng.choice(dens)), top, top + 1])
    inst = MixingInstance(weights, None, eps)
    theta = SequenceTheta(rng.sample(range(n), rng.randint(1, n)))
    columns = [[row[j] for row in weights] for j in range(k)]
    values = [w for row in weights for w in row]
    covers = {
        "tie": any(
            inst.weights[a][j] == inst.weights[b][j] > 0
            for a, b in zip(theta.indices, theta.indices[1:])
            for j in range(k)
        ),
        "zero row": any(not any(weights[i]) for i in theta.indices),
        "zero column": any(not any(col) for col in columns),
        "eps 0": eps == 0,
        "eps above every row sum": eps >= top and any(values),
        "fractional": any(w.denominator > 1 for w in values),
    }
    return inst, theta, covers


def test_decompose_matches_definition_randomly():
    """fold's gains are the telescoped chains of the definition, its L is
    l_theta, and the capped row is the reference aggregated cut."""
    rng = random.Random(52)
    seen = dict.fromkeys(
        ("tie", "zero row", "zero column", "eps 0", "eps above every row sum", "fractional"), 0
    )
    for _ in range(2000):
        inst, theta, covers = gain_case(rng)
        decomp = decompose(inst, theta)
        heads, z, l = fold(inst, theta.indices)
        assert gain_reference(inst, theta) == (z, sum(heads), l)
        scale = inst.scaled[0]
        assert heads == [scale * max(column(inst, j)[i] for i in theta.indices) for j in range(inst.k)]
        got, want = aggregated_cut(inst, theta), fraction_aggregated_cut(inst, theta)
        assert (got.kind, got.z_coeffs, got.rhs) == (want.kind, want.z_coeffs, want.rhs)
        for j in range(inst.k):
            assert decomp[j] == definitional_subsequence(inst, theta, j)
            # the last element always closes the chain, values nonincreasing
            assert decomp[j][-1] == theta.last
            vals = [inst.weights[i][j] for i in decomp[j]]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
        for key, hit in covers.items():
            seen[key] += hit
    assert min(seen.values()) >= 100, seen


def test_l_theta_examples(example1):
    assert l_theta(example1, THETA_213) == 9
    assert l_theta(example1, SequenceTheta((1, 2))) == 8
    assert l_theta(example1, SequenceTheta((2,))) == row_sum(example1, 2) == 15
    # example1 has integer weights, so its scaled L is L itself
    assert [fold(example1, t)[2] for t in ((1, 0, 2), (1, 2), (2,))] == [9, 8, 15]


def test_aggregated_cut_examples(example1, example2):
    cut = aggregated_cut(example1, THETA_213)
    assert cut == LinearCut((1, 1), (1, 1, 8, 0, 0), 17)
    assert cut.kind is CutKind.AMIX_STAR
    cut2 = aggregated_cut(example2, THETA_213)
    assert cut2 == LinearCut((1, 1), (1, 1, 6, 0, 0), 17)
    cut3 = aggregated_cut(example2, SequenceTheta((2, 1, 0)))
    assert cut3 == LinearCut((1, 1), (2, 1, 5, 0, 0), 17)


def test_aggregated_cut_requires_reduced_instance():
    inst = MixingInstance([[3, 2]], [1, 0], 1)
    with pytest.raises(LowerBoundsNotReduced):
        aggregated_cut(inst, SequenceTheta((0,)))


def test_dominates_linking_examples(example1, example2):
    assert dominates_linking(example1, THETA_213)
    assert not dominates_linking(example2, SequenceTheta((1, 2)))
    zero = MixingInstance(example1.weights, None, 0)
    for theta in takewhile(lambda t: len(t.indices) <= 2, sequences(range(5))):
        assert dominates_linking(zero, theta)


def test_check_validity_examples(example1):
    for theta in takewhile(lambda t: len(t.indices) <= 3, sequences(range(5))):
        assert check_validity(example1, aggregated_cut(example1, theta))
    too_strong = LinearCut((1, 0), (0, 0, 0, 0, 0), 14)
    assert not check_validity(example1, too_strong)
    linking = LinearCut((1, 1), (0, 0, 0, 0, 0), 7, CutKind.LINKING)
    assert check_validity(example1, linking)


def test_validity_rejects_unbounded_direction(example1):
    bad = LinearCut((-1, 0), (0, 0, 0, 0, 0), -100)
    assert not check_validity(example1, bad)


def test_aggregated_dominates_summed_mixing():
    rng = random.Random(63)
    for _ in range(25):
        n, k = rng.randint(2, 6), rng.randint(1, 3)
        inst = MixingInstance(random_weights(rng, n, k, lo=0, hi=9), None,
                              Fraction(rng.randint(0, 12)))
        size = rng.randint(1, min(n, 4))
        theta = SequenceTheta(rng.sample(range(n), size))
        agg = aggregated_cut(inst, theta)
        summed = [Fraction(0)] * n
        rhs = Fraction(0)
        for j, chain in enumerate(decompose(inst, theta)):
            cut = mixing_cut(inst, j, chain)
            for i in range(n):
                summed[i] += cut.z_coeffs[i]
            rhs += cut.rhs
        cap = min(inst.epsilon, l_theta(inst, theta))
        summed[theta.last] -= cap
        assert tuple(summed) == agg.z_coeffs
        assert rhs == agg.rhs
        assert cap >= 0


def suffix_gain(inst, seq, t, j):
    later = [inst.weights[q][j] for q in seq[t + 1 :]]
    gap = inst.weights[seq[t]][j] - max(later, default=Fraction(0))
    return max(gap, Fraction(0))


def test_l_theta_bounds_and_deletion_relations():
    # The relations the validity induction rests on: the last row bounds the
    # constant from above, and deleting an interior element only raises the
    # telescoped coefficients of the surviving positions.  (Monotonicity of
    # the constant itself under arbitrary subsequences does not hold.)
    rng = random.Random(74)
    inst = MixingInstance(random_weights(rng, 6, 2, lo=0, hi=9), None, 5)
    for theta in takewhile(lambda t: len(t.indices) <= 4, sequences(range(6))):
        idx = theta.indices
        assert l_theta(inst, theta) <= row_sum(inst, idx[-1])
        for p in range(len(idx) - 1):
            sub = idx[:p] + idx[p + 1 :]
            for t, i in enumerate(idx):
                if t == p:
                    continue
                t_sub = t if t < p else t - 1
                for j in range(inst.k):
                    assert suffix_gain(inst, sub, t_sub, j) >= suffix_gain(
                        inst, idx, t, j
                    )


def test_l_theta_not_monotone_counterexample():
    # dropping the tail can shrink the constant; the validity theorem holds
    # regardless (see the exhaustive validity suites)
    inst = MixingInstance([[9, 5], [4, 3], [1, 7], [7, 5], [8, 8], [2, 7]], None, 5)
    assert l_theta(inst, SequenceTheta((0, 2, 4))) == 8
    assert l_theta(inst, SequenceTheta((0, 2))) == 6


def test_sequence_restriction_soundness():
    # points satisfying the relaxation rows: if every cut over the free
    # indices holds, every cut holds
    rng = random.Random(85)
    for _ in range(10):
        n, k = rng.randint(2, 5), rng.randint(1, 2)
        inst = MixingInstance(random_weights(rng, n, k, lo=0, hi=9), None,
                              Fraction(rng.randint(0, 8)))
        ones = rng.sample(range(n), rng.randint(1, n - 1)) if n > 1 else []
        z = [
            Fraction(1) if i in ones else Fraction(rng.randint(0, 3), 4)
            for i in range(n)
        ]
        y = [
            max(
                (inst.weights[i][j] * (1 - z[i]) for i in range(n)),
                default=Fraction(0),
            )
            for j in range(k)
        ]
        deficit = inst.epsilon - sum(y)
        if deficit > 0:
            y[0] += deficit
        free = [i for i in range(n) if z[i] < 1]
        restricted_ok = all(
            aggregated_cut(inst, theta).violation(y, z) <= 0
            for theta in sequences(free)
        ) if free else True
        all_ok = all(
            aggregated_cut(inst, theta).violation(y, z) <= 0
            for theta in sequences(range(n))
        )
        assert not restricted_ok or all_ok


def test_separate_aggregated_example1(example1):
    y = (Fraction(8), Fraction(8))
    z = (Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(1))
    cut = separate_aggregated(example1, y, z)
    assert cut is not None
    assert cut.kind is CutKind.AMIX_STAR
    assert cut.rhs - cut.lhs(y, z) == 1
    paper = {
        LinearCut((1, 1), (1, 1, 8, 0, 0), 17),
        LinearCut((1, 1), (0, 2, 8, 0, 0), 17),
        LinearCut((1, 1), (0, 3, 7, 0, 0), 17),
        LinearCut((1, 1), (2, 3, 5, 0, 0), 17),
        LinearCut((1, 1), (4, 1, 5, 0, 0), 17),
    }
    assert cut in paper


def test_separate_aggregated_vertex_gives_nothing(example1):
    vrep = v_representation(example1)
    y, z = fraction_vertices(vrep).points[5]
    assert separate_aggregated(example1, y, complement(z)) is None


def test_separate_aggregated_epsilon_precondition(example1):
    with pytest.raises(EpsilonViolated):
        separate_aggregated(example1, (Fraction(1), Fraction(1)), (Fraction(0),) * 5)


def test_separate_aggregated_regimes_agree_on_example2(example2):
    # the linking oracle is not submodular here, so the enumeration regime
    # runs; its verdict and best violation must match unrestricted search
    rng = random.Random(96)
    assert not diagnose(example2).g_submodular
    for _ in range(12):
        z = [Fraction(rng.randint(0, 4), 4) for _ in range(5)]
        y = [
            max(
                (example2.weights[i][j] * (1 - z[i]) for i in range(5)),
                default=Fraction(0),
            )
            for j in range(2)
        ]
        shortfall = example2.epsilon - sum(y)
        if shortfall > 0:
            y[1] += shortfall
        # weaken y a little so violations can appear
        y[0] = y[0] * Fraction(rng.randint(2, 4), 4)
        if sum(y) < example2.epsilon:
            y[1] += example2.epsilon - sum(y)
        got = separate_aggregated(example2, y, z)
        best = max(
            (aggregated_cut(example2, theta).violation(y, z)
             for theta in sequences(range(5))),
            default=Fraction(0),
        )
        if best > 0:
            assert got is not None
            assert got.violation(y, z) == best
        else:
            assert got is None


def greedy_draw(rng):
    """A random instance with zero weights, an occasional zero column, ties
    from few distinct values, and epsilon 0, at or above every row sum, or
    in between."""
    n, k = rng.randint(2, 5), rng.randint(1, 3)
    hi, den = rng.choice([2, 3, 6, 12]), rng.choice([1, 1, 2])
    w = [
        [Fraction(rng.randint(0, hi), den) if rng.random() > 0.25 else Fraction(0)
         for _ in range(k)]
        for _ in range(n)
    ]
    if k > 1 and rng.random() < 0.2:
        j = rng.randrange(k)
        for row in w:
            row[j] = Fraction(0)
    top = max(sum(row) for row in w)
    draw = rng.random()
    if draw < 0.2:
        eps = Fraction(0)
    elif draw < 0.4:
        eps = top + rng.randint(0, 3)
    else:
        eps = Fraction(rng.randint(0, 4 * int(top) + 1), 4) if top else Fraction(0)
    return MixingInstance(w, None, eps)


def greedy_sequence(inst, z):
    """The sequence the greedy pass documents, by the definition: indices by
    1 - z descending, ties by ascending index; an index is kept when it
    raises max(epsilon, sum of the running column maxima); kept indices in
    reverse."""
    heads, value, kept = [Fraction(0)] * inst.k, inst.epsilon, []
    for i in sorted(range(inst.n), key=lambda i: (z[i], i)):
        heads = [max(h, w) for h, w in zip(heads, inst.weights[i])]
        if max(inst.epsilon, sum(heads)) > value:
            kept.append(i)
        value = max(inst.epsilon, sum(heads))
    return SequenceTheta(reversed(kept))


def test_separate_aggregated_greedy_matches_enumeration():
    # Submodular regime: the single greedy call must attain the max violation
    # over the entire sequence family, and return the cut of the documented
    # greedy order (ties in 1 - z by ascending index), so that its output is
    # the same on every run.
    rng = random.Random(108)
    kept = hits = 0
    seen = {"zero weight": 0, "zero column": 0, "tie": 0, "eps 0": 0, "eps high": 0}
    while kept < 300:
        inst = greedy_draw(rng)
        diag = diagnose(inst)
        if not diag.sufficient:
            continue
        assert diag.g_submodular
        kept += 1
        n, k = inst.n, inst.k
        columns = [column(inst, j) for j in range(k)]
        seen["zero weight"] += any(0 in col for col in columns)
        seen["zero column"] += any(not any(col) for col in columns)
        seen["tie"] += any(len(set(col)) < n for col in columns)
        seen["eps 0"] += inst.epsilon == 0
        seen["eps high"] += inst.epsilon >= max(row_sum(inst, i) for i in range(n))
        z = [Fraction(rng.randint(0, 4), 4) for _ in range(n)]
        y = [
            max(
                (inst.weights[i][j] * (1 - z[i]) for i in range(n)),
                default=Fraction(0),
            )
            * Fraction(rng.randint(2, 4), 4)
            for j in range(k)
        ]
        if sum(y) < inst.epsilon:
            y[0] += inst.epsilon - sum(y)
        got = separate_aggregated(inst, y, z)
        best = max(
            (
                aggregated_cut(inst, theta).violation(y, z)
                for theta in sequences(range(n))
            ),
            default=Fraction(0),
        )
        if best > 0:
            assert got is not None and got.violation(y, z) == best
            want = aggregated_cut(inst, greedy_sequence(inst, z))
            assert (got.canonical_key(), got.kind) == (want.canonical_key(), want.kind)
            hits += 1
        else:
            assert got is None
    assert hits > 100 and min(seen.values()) > 10, (hits, seen)


def test_count_sequences():
    assert count_sequences(3) == 3 + 6 + 6
    assert count_sequences(5) == 5 + 20 + 60 + 120 + 120
    assert sum(1 for _ in sequences(range(4))) == count_sequences(4)


def test_linking_greedy_on_the_raisers_equals_the_greedy_on_every_index():
    """On greedy draws and slacks with many ties, the linking greedy run on
    the raisers alone has the support and order of the greedy on all n
    indices, submodular or not."""
    rng = random.Random(109)
    seen = {"skipped": 0, "all raise": 0, "stopped early": 0, "empty": 0}
    for _ in range(400):
        inst = greedy_draw(rng)
        slack = [rng.randint(0, 4) for _ in range(inst.n)]
        _, weights, eps, _ = inst.scaled
        full = greedy_vertex(max_sum_oracle(weights, [0] * inst.k, eps), slack)
        want = [i for i in reversed(full.permutation) if full.pi[i]]
        assert _linking_sequence(inst, slack) == want
        # The raisers in the greedy order, by the definition.
        tops, raisers = [0] * inst.k, []
        for i in full.permutation:
            if any(v > t for v, t in zip(weights[i], tops)):
                raisers.append(i)
            tops = [max(v, t) for v, t in zip(weights[i], tops)]
        seen["skipped"] += len(raisers) < inst.n
        seen["all raise"] += len(raisers) == inst.n
        # Indices after the last raiser, which the pass never looks at.
        seen["stopped early"] += bool(raisers) and raisers[-1] != full.permutation[-1]
        seen["empty"] += not want
    assert min(seen.values()) >= 20, seen


def enumeration_draw(rng: random.Random) -> MixingInstance:
    """A small instance with ties from few distinct values, zero weights,
    an occasional zero column, fractional entries, and epsilon anywhere
    from 0 to above every row sum."""
    n, k = rng.randint(2, 6), rng.randint(1, 3)
    values = rng.choice([(0, 2, 2, 5), (0, 1, 3, 3, 6), (0, 4, 4), (1, 2, 3, 4)])
    den = rng.choice((1, 1, 2))
    w = [[Fraction(rng.choice(values), den) for _ in range(k)] for _ in range(n)]
    if k > 1 and rng.random() < 0.2:
        j = rng.randrange(k)
        for row in w:
            row[j] = Fraction(0)
    top = max(sum(row) for row in w)
    draw = rng.random()
    if draw < 0.1:
        eps = Fraction(0)
    elif draw < 0.25:
        eps = top + rng.randint(0, 2)
    else:
        eps = Fraction(rng.randint(1, 4 * int(top) + 4), 4)
    return MixingInstance(w, None, eps)


def enumeration_point(rng: random.Random, inst: MixingInstance, loose: bool):
    """z with ties and entries at 0 and 1, and y on the big-M rows (many
    violated and tied cuts) or, when ``loose``, below them, usually so far
    that the ground is every index; sum(y) meets epsilon."""
    n, k = inst.n, inst.k
    z = [Fraction(rng.choice((0, 1, 1, 1, 2, 2, 3, 3, 3)), 3) for _ in range(n)]
    y = [max(inst.weights[i][j] * (1 - z[i]) for i in range(n)) for j in range(k)]
    if loose:
        y = [v * Fraction(rng.choice((1, 2, 3)), 4) for v in y]
        y[0] -= Fraction(rng.randint(0, 4), 2)
    y[-1] += max(Fraction(0), inst.epsilon - sum(y))
    return y, z


def exhaustive_best(inst: MixingInstance, y, z):
    """Whether the point satisfies the big-M rows, the enumeration branch's
    ground (the indices below 1 if so, else every index) and the best
    sequence over every sequence of it: the largest gap, ties to the
    smallest sequence; None when no cut is violated."""
    big_m = all(
        y[j] >= inst.weights[i][j] * (1 - z[i]) for i in range(inst.n) for j in range(inst.k)
    )
    ground = [i for i in range(inst.n) if not big_m or z[i] < 1]
    point = integer_point(inst, y, z)
    best = min(
        ((-gap, theta) for theta, _, gap in walk(inst, ground, point) if gap > 0),
        default=None,
    )
    return big_m, ground, None if best is None else best[1]


NOT_SUBMODULAR = HullDiagnosis(frozenset(), True, True, True, False)


def test_enumeration_prunes_by_the_best_gap_and_returns_the_exhaustive_best(monkeypatch):
    """600 draws: 500 insufficient instances, and 100 with epsilon = 0
    (always submodular, so the enumeration branch is forced by a diagnosis
    that says otherwise).  The branch must return the cut of the exhaustive
    best sequence over its ground, gap first and then the smallest
    sequence, and its pruned walk must visit fewer nodes in total than the
    full walk."""
    rng = random.Random(4343)
    calls = []
    prepend = aggregated._prepend

    def counting(*args):
        calls.append(None)
        return prepend(*args)

    monkeypatch.setattr(aggregated, "_prepend", counting)
    pruned = full = 0
    seen = dict.fromkeys(
        ("insufficient", "eps 0", "big-M", "every index", "found", "none", "tie"), 0
    )
    while seen["insufficient"] < 500 or seen["eps 0"] < 100:
        inst = enumeration_draw(rng)
        forced = inst.epsilon == 0
        if forced:
            if seen["eps 0"] >= 100:
                continue
            monkeypatch.setattr(aggregated, "diagnose", lambda _: NOT_SUBMODULAR)
        elif diagnose(inst).g_submodular or seen["insufficient"] >= 500:
            continue
        y, z = enumeration_point(rng, inst, loose=rng.random() < 0.5)
        calls.clear()
        big_m, ground, best = exhaustive_best(inst, y, z)
        full += len(calls)
        calls.clear()
        got = separate_aggregated(inst, y, z)
        monkeypatch.setattr(aggregated, "diagnose", diagnose)
        if best is None:
            assert got is None
            pruned += len(calls)
            seen["none"] += 1
        else:
            want = aggregated_cut(inst, SequenceTheta(best))
            assert (got.kind, got.y_coeffs, got.z_coeffs, got.rhs) == (
                want.kind, want.y_coeffs, want.z_coeffs, want.rhs
            )
            pruned += len(calls) - len(best)  # the fold of the sequence kept
            seen["found"] += 1
            point = integer_point(inst, y, z)
            gaps = [gap for _, _, gap in walk(inst, ground, point)]
            seen["tie"] += gaps.count(max(gaps)) > 1
        seen["eps 0" if forced else "insufficient"] += 1
        seen["big-M" if big_m else "every index"] += 1
    assert min(seen.values()) >= 50, seen
    assert pruned < full, (pruned, full)
