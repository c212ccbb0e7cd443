"""The prepend walker against the per-sequence path it replaces.

The oracle is the plain loop over ``sequences()`` with ``aggregated_cut``,
``decompose`` and ``l_theta`` evaluated afresh for every sequence.  Instances
are seeded and small (n <= 6) and cover tied values, all-zero columns,
fractional weights, epsilon = 0, epsilon at or above every row sum, and
depth limits.
"""

import math
import random
from fractions import Fraction

import pytest

from mixcuts import (
    CutKind,
    LinearCut,
    MixingInstance,
    SequenceTheta,
    aggregated_cut,
    certify_witness,
    decompose,
    diagnose,
    hull_cut_family,
    l_theta,
    separate_aggregated,
    sequences,
    witness,
)
from mixcuts.aggregated import integer_view, walk
from mixcuts.mixing import mix_star_cuts

from conftest import random_insufficient_instance


def random_case(rng: random.Random, n: int) -> MixingInstance:
    """Small values (many ties), sometimes an all-zero column or fractional
    entries, and epsilon drawn from the edge cases."""
    k = rng.randint(1, 3)
    dens = rng.choice([(1,), (1, 2, 3)])
    weights = [
        [Fraction(rng.randint(0, 4), rng.choice(dens)) for _ in range(k)]
        for _ in range(n)
    ]
    if rng.random() < 0.25:
        zero = rng.randrange(k)
        for row in weights:
            row[zero] = Fraction(0)
    top = max(sum(row) for row in weights)
    eps = rng.choice(
        [Fraction(0), Fraction(rng.randint(0, 8), rng.choice(dens)), top, top + 1]
    )
    return MixingInstance(weights, None, eps)


def random_point(rng: random.Random, inst: MixingInstance):
    """A point in the unit box for z with sum(y) >= epsilon."""
    z = [Fraction(rng.choice((0, 1, 1, 2, 2)), 2) for _ in range(inst.n)]
    y = [Fraction(rng.randint(0, 8), rng.choice((1, 2))) for _ in range(inst.k)]
    y[-1] += max(Fraction(0), inst.epsilon - sum(y))
    return y, z


CASES = [(seed, n) for n in range(1, 7) for seed in range(8 if n < 6 else 3)]


@pytest.mark.parametrize("seed,n", CASES)
def test_walk_matches_per_sequence_path_at_every_node(seed, n):
    rng = random.Random(1000 * n + seed)
    inst = random_case(rng, n)
    scale = integer_view(inst)[0]
    y, z = random_point(rng, inst)
    p = math.lcm(*(v.denominator for v in y + z))
    ground = sorted(rng.sample(range(n), rng.randint(1, n)))
    depth = rng.choice([None, 1, 2, len(ground)])
    expected = {theta.indices for theta in sequences(ground, depth)}
    visited = set()
    for theta, chains, l, gap in walk(inst, ground, depth, point=(y, z)):
        seq = SequenceTheta(theta)
        assert chains == decompose(inst, seq).per_column
        assert l == scale * l_theta(inst, seq)
        assert gap == scale * p * aggregated_cut(inst, seq).violation(y, z)
        visited.add(theta)
    assert visited == expected

    starred = {
        theta
        for theta in expected
        if aggregated_cut(inst, SequenceTheta(theta)).kind is CutKind.AMIX_STAR
    }
    assert {t for t, _, _, _ in walk(inst, ground, depth, starred=True)} == starred


def reference_hull_family(inst: MixingInstance, max_length=None):
    """The family as the per-sequence loop built it."""
    outside = sorted(set(range(inst.n)) - diagnose(inst).i_bar)
    candidates = [c for j in range(inst.k) for c in mix_star_cuts(inst, j)]
    for theta in sequences(outside, max_length):
        cut = aggregated_cut(inst, theta)
        if cut.kind is CutKind.AMIX_STAR:
            candidates.append(cut)
    if inst.epsilon > 0:
        candidates.append(
            LinearCut([1] * inst.k, [0] * inst.n, inst.epsilon, CutKind.LINKING)
        )
    cuts, seen = [], set()
    for cut in candidates:
        if cut.canonical_key() not in seen:
            seen.add(cut.canonical_key())
            cuts.append(cut)
    return cuts


@pytest.mark.parametrize("seed,n", CASES)
def test_starred_family_identical_in_content_and_order(seed, n):
    rng = random.Random(2000 * n + seed)
    inst = random_case(rng, n)
    for depth in (None, 1, 2):
        got = hull_cut_family(inst, depth)
        want = reference_hull_family(inst, depth)
        assert [(c.kind, c.y_coeffs, c.z_coeffs, c.rhs) for c in got] == [
            (c.kind, c.y_coeffs, c.z_coeffs, c.rhs) for c in want
        ]


def reference_aggregated_message(inst: MixingInstance, point) -> str:
    for theta in sequences(range(inst.n)):
        cut = aggregated_cut(inst, theta)
        if not cut.satisfied_by(*point):
            return f"FAIL: aggregated cut violated for {theta.indices}: {cut}"
    return "ok: all aggregated cuts hold"


def test_certify_reports_a_violated_cut_exactly_when_one_exists():
    rng = random.Random(77)
    violated = held = 0
    for trial in range(40):
        n = rng.randint(1, 5)
        if trial % 4 == 0 and n >= 3:
            inst = random_insufficient_instance(rng, n, 2, rng.choice(("lw", "c1")))
            point = witness(inst)[0]
        else:
            inst = random_case(rng, n)
            point = random_point(rng, inst)
        expected = reference_aggregated_message(inst, point)
        assert certify_witness(inst, point)[2] == expected
        if expected.startswith("FAIL"):
            violated += 1
        else:
            held += 1
    assert violated and held


def reference_separation(inst: MixingInstance, y, z):
    """Largest violation over every sequence of the separation ground set,
    ties broken by the lexicographically smallest sequence."""
    if all(
        y[j] >= inst.weights[i][j] * (1 - z[i])
        for i in range(inst.n)
        for j in range(inst.k)
    ):
        ground = [i for i in range(inst.n) if z[i] < 1]
    else:
        ground = list(range(inst.n))
    best = None
    for theta in sequences(ground):
        cut = aggregated_cut(inst, theta)
        gap = cut.violation(y, z)
        if gap > 0 and (
            best is None or gap > best[0] or (gap == best[0] and theta.indices < best[1])
        ):
            best = (gap, theta.indices, cut)
    return best[2] if best else None


def test_enumeration_separation_returns_the_same_cut_and_tie_break():
    rng = random.Random(4242)
    compared = found = 0
    while compared < 60:
        inst = random_case(rng, rng.randint(2, 6))
        if diagnose(inst).g_submodular:
            continue  # the greedy branch does not enumerate
        y, z = random_point(rng, inst)
        if rng.random() < 0.5:  # tight relaxation rows make many ties
            y = [
                max(inst.weights[i][j] * (1 - z[i]) for i in range(inst.n))
                for j in range(inst.k)
            ]
            y[-1] += max(Fraction(0), inst.epsilon - sum(y))
        got = separate_aggregated(inst, y, z)
        want = reference_separation(inst, y, z)
        if want is None:
            assert got is None
        else:
            found += 1
            assert (got.kind, got.z_coeffs, got.rhs) == (want.kind, want.z_coeffs, want.rhs)
        compared += 1
    assert found
