"""Separation against the membership LP on the joint hull.

On sufficient instances the mixing and aggregated families, with the
linking row and the bounds, describe the hull, so ``separate`` returns a
cut exactly where the membership LP puts the point outside.  On any
instance every returned cut is valid, so a point with a returned cut is
outside.  The cuts are assembled from their integer rows
(``MixingInstance.row_cut``); the LP reads the point alone, so this checks
the assembled cuts' values end to end.

The points lie near the hull's floor: z on a grid of quarters, thirds or
halves, and each y_j its big-M floor max_i w_ij (1 - z_i) plus up to a
quarter of the column maximum, so both verdicts are common.
"""

import random
from fractions import Fraction

from mixcuts import MixingInstance, membership, separate, v_representation
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


def verdicts(inst: MixingInstance, rng: random.Random):
    """(separated cuts, outside by the LP) at seeded points of one instance."""
    vrep = v_representation(inst)
    for _ in range(POINTS_PER_INSTANCE):
        y, z = near_floor_point(rng, inst)
        target = indicator_target(integer_point(inst, y, z))
        found = separate(inst, y, z)
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
