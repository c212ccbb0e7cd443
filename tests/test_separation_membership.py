"""Separation against the membership LP on the joint hull.

On sufficient instances the mixing and aggregated families, with the
linking row and the bounds, describe the hull, so ``separate`` returns a
cut exactly where the membership LP puts the point outside.  On any
instance every returned cut is valid, so a point with a returned cut is
outside.  The cuts are assembled from their integer rows
(``MixingInstance.row_cut``); the LP reads the point alone, so this checks
the assembled cuts' values end to end.

With nonzero lower bounds l the set is the zero-bound set shifted by l in
y, so an instance lifted by l (every column raised by its bound) has a cut
at (y + l, z) exactly where its reduced instance's hull leaves out (y, z).
Permuting the scenarios permutes the cuts' z coefficients, and scaling the
weights, epsilon, the bounds and y by t scales every violation by t.

The points lie near the hull's floor: z on a grid of quarters, thirds or
halves, and each y_j its big-M floor max_i w_ij (1 - z_i) plus up to a
quarter of the column maximum, so both verdicts are common.
"""

import random
from fractions import Fraction

from mixcuts import (
    LinearCut,
    MixingInstance,
    check_validity,
    diagnose,
    membership,
    reduce_lower_bounds,
    separate,
    v_representation,
)
from mixcuts.core import indicator_target, integer_point

from conftest import random_instance, random_sufficient_instance

POINTS_PER_INSTANCE = 10


def near_floor_point(rng: random.Random, inst: MixingInstance):
    q = rng.choice([2, 3, 4])
    z = [Fraction(rng.randint(0, q), q) for _ in range(inst.n)]
    y = [
        max(row[j] * (1 - v) for row, v in zip(inst.weights, z))
        + max(row[j] for row in inst.weights) * Fraction(rng.randint(0, q), 4 * q)
        for j in range(inst.k)
    ]
    return y, z


def lifted(inst: MixingInstance, lower) -> MixingInstance:
    """``inst`` (zero lower bounds) with every column raised by its bound in
    ``lower``: reducing the bounds away gives ``inst`` back."""
    rows = [[w + b for w, b in zip(row, lower)] for row in inst.weights]
    return MixingInstance(rows, lower, inst.epsilon)


def random_lower(rng: random.Random, k: int) -> list[Fraction]:
    return [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(k)]


def violations(found) -> list[Fraction]:
    return sorted(gap for gap, _ in found)


def verdicts(inst: MixingInstance, rng: random.Random, lower=None):
    """(separated cuts, outside by the LP) at seeded points of one instance;
    with ``lower``, the cuts are those of the instance lifted by it at
    (y + lower, z), and the LP runs on the lift's reduced instance."""
    lift = inst if lower is None else lifted(inst, lower)
    reduced, shift = reduce_lower_bounds(lift)
    assert reduced == inst
    vrep = v_representation(reduced)
    for _ in range(POINTS_PER_INSTANCE):
        y, z = near_floor_point(rng, inst)
        target = indicator_target(integer_point(reduced, y, z))
        y = [v + b for v, b in zip(y, shift)]
        found = separate(lift, y, z)
        assert all(gap > 0 and cut.violation(y, z) == gap for gap, cut in found)
        yield found, not membership(vrep, *target).inside


def test_separation_decides_membership_on_sufficient_instances():
    rng = random.Random(1600)
    sides = [0, 0]
    for _ in range(100):
        n, k = rng.randint(2, 5), rng.randint(1, 3)
        inst = random_sufficient_instance(rng, n, k, with_low_rows=rng.random() < 0.3)
        for found, outside in verdicts(inst, rng):
            assert bool(found) == outside
            sides[outside] += 1
    assert sum(sides) == 1000 and min(sides) >= 1000 / 3


def test_every_separated_cut_means_outside_on_random_weights():
    rng = random.Random(1601)
    separated = zeros = 0
    for _ in range(100):
        n, k = rng.randint(2, 5), rng.randint(1, 3)
        inst = random_instance(rng, n, k, dens=(1, 2))
        zeros += any(not w for row in inst.weights for w in row)
        for found, outside in verdicts(inst, rng):
            assert outside or not found
            separated += bool(found)
    assert zeros >= 10 and separated >= 1000 / 3


def test_separation_decides_membership_above_lower_bounds():
    rng = random.Random(1602)
    sides = [0, 0]
    for _ in range(100):
        n, k = rng.randint(2, 5), rng.randint(1, 3)
        inst = random_sufficient_instance(rng, n, k, with_low_rows=rng.random() < 0.3)
        for found, outside in verdicts(inst, rng, random_lower(rng, k)):
            assert bool(found) == outside
            sides[outside] += 1
    assert sum(sides) == 1000 and min(sides) >= 1000 / 3


def test_separation_commutes_with_permuting_and_scaling_the_scenarios():
    """On lifted sufficient instances: row t of the permuted instance is row
    ``perm[t]``, so each of its cuts, its z coefficients put back in place
    and shifted to the reduced instance, is a valid cut there; the sorted
    violations agree.  Scaling the weights, epsilon,
    the bounds and y by t scales each sorted violation by t.  The diagnosis
    keeps its verdict under both, its low rows permuted with the rows."""
    rng = random.Random(1603)
    moved = 0
    for _ in range(60):
        n, k = rng.randint(2, 5), rng.randint(1, 3)
        inst = random_sufficient_instance(rng, n, k, with_low_rows=rng.random() < 0.3)
        lower = random_lower(rng, k)
        perm = rng.sample(range(n), n)
        t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        permuted = MixingInstance([inst.weights[i] for i in perm], None, inst.epsilon)
        scaled = MixingInstance(
            [[t * w for w in row] for row in inst.weights], None, t * inst.epsilon
        )
        lift = lifted(inst, lower)
        lift_p, lift_t = lifted(permuted, lower), lifted(scaled, [t * b for b in lower])
        vrep = v_representation(inst)
        for _ in range(POINTS_PER_INSTANCE):
            y, z = near_floor_point(rng, inst)
            y = [v + b for v, b in zip(y, lower)]
            found = separate(lift, y, z)
            found_p = separate(lift_p, y, [z[i] for i in perm])
            assert violations(found_p) == violations(found)
            for _, cut in found_p:
                back = [None] * n
                for row, i in enumerate(perm):
                    back[i] = cut.z_coeffs[row]
                shift = sum(a * b for a, b in zip(cut.y_coeffs, lower))
                reduced_cut = LinearCut(cut.y_coeffs, back, cut.rhs - shift, cut.kind)
                assert check_validity(inst, reduced_cut, vrep)
                moved += back != list(cut.z_coeffs)
            found_t = separate(lift_t, [t * v for v in y], z)
            assert violations(found_t) == [t * v for v in violations(found)]
        want = diagnose(inst)
        got_p = diagnose(reduce_lower_bounds(lift_p)[0])
        got_t = diagnose(reduce_lower_bounds(lift_t)[0])
        assert got_t == want
        assert got_t.l_w_eps == (None if want.l_w_eps is None else t * want.l_w_eps)
        assert {perm[i] for i in got_p.i_bar} == want.i_bar
        verdict = (want.c1_ok, want.c2_ok, want.negligible, want.g_submodular)
        assert (got_p.c1_ok, got_p.c2_ok, got_p.negligible, got_p.g_submodular) == verdict
    assert moved >= 100
