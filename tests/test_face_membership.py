"""Membership on the target's face against the LP over every column.

``vertices.membership`` drops the rows where the target's indicator z is 0
and every column with a nonzero z there, and lifts the Farkas vector of the
smaller LP back to the dropped rows.  Here its verdict is compared with the
``Fraction`` LP over the whole vertex list, each "outside" plane is checked
at every point and ray of the full list and at the target, and every field
is compared with the ``Fraction`` twin that restricts and lifts the same
way, the inside certificate in lowest terms.  The points mix entries at 0, at 1 and in between, and include the
witness points of all three failure cases.
"""

import random
from fractions import Fraction

from mixcuts import (
    MixingInstance,
    diagnose,
    hull_with_bounds,
    v_representation,
    witness,
)

from conftest import random_band_data, random_insufficient_instance
from helpers import (
    complement,
    fraction_hull_with_bounds,
    fraction_membership,
    fraction_vertices,
    full_fraction_membership,
    in_lowest_terms,
    membership_at,
    vertex_list,
)

DENS = (1, 2, 3, 4)


def face_instance(rng: random.Random, n: int, k: int) -> MixingInstance:
    """Fractional weights and epsilon, some zeros and ties."""
    values = [Fraction(rng.randint(0, 10), rng.choice(DENS)) for _ in range(5)]
    weights = [
        [
            rng.choice(values)
            if rng.random() < 0.3
            else Fraction(rng.randint(0, 10), rng.choice(DENS))
            for _ in range(k)
        ]
        for _ in range(n)
    ]
    eps = Fraction(rng.randint(0, 6 * k), rng.choice(DENS))
    return MixingInstance(weights, None, eps)


def face_point(rng: random.Random, vrep):
    """A point (y, z), z in the indicator view, whose entries are 0, 1 or in
    between: a convex combination of points on one face, its y lowered or
    raised a little, or a z drawn entry by entry with a y drawn near the
    hull's floors."""
    n, k = vrep.n, vrep.k
    points = fraction_vertices(vrep).points
    if rng.random() < 0.6:
        zeros = {i for i in range(n) if rng.random() < 0.4}
        face = [p for p in points if not any(p[1][i] for i in zeros)]
        chosen = [rng.choice(face) for _ in range(rng.randint(1, 3))]
        weights = [Fraction(rng.randint(1, 4)) for _ in chosen]
        total = sum(weights)
        y = [sum(w * p[0][j] for w, p in zip(weights, chosen)) / total for j in range(k)]
        z = [sum(w * p[1][i] for w, p in zip(weights, chosen)) / total for i in range(n)]
        shift = Fraction(rng.randint(-3, 2), rng.choice(DENS))
        y[rng.randrange(k)] += shift
        return tuple(y), tuple(z)
    z = tuple(
        rng.choice((Fraction(0), Fraction(1), Fraction(rng.randint(1, 3), 4)))
        for _ in range(n)
    )
    y = tuple(Fraction(rng.randint(0, 24), rng.choice(DENS)) for _ in range(k))
    return y, z


def witness_points(rng: random.Random):
    """Witness points of every failure case, z in the indicator view."""
    for case in ("lw", "c1", "c2"):
        for _ in range(12):
            n, k = rng.randint(3, 6), rng.randint(2, 3)
            inst = random_insufficient_instance(rng, n, k, case)
            (y, z), _ = witness(inst, diagnose(inst))
            yield case, inst, tuple(y), complement(z)


def clipped_point(rng: random.Random, vrep):
    """A point near the band-clipped hull ``vrep``, z in its orientation:
    the midpoint of two of its points, y lowered a little."""
    (y1, z1), (y2, z2) = rng.choice(vrep.points), rng.choice(vrep.points)
    z = tuple(Fraction(a + b, 2) for a, b in zip(z1, z2))
    y = tuple(
        Fraction(a + b, 2 * vrep.den) - Fraction(rng.randint(0, 3), 2)
        for a, b in zip(y1, y2)
    )
    return y, z


def hand_built(rng: random.Random):
    """A vertex list of a few random points with 0/1 z and the unit rays,
    and a point with z entries at 0, 1/2 and 1."""
    n, k = rng.randint(1, 5), rng.randint(1, 3)
    points = [
        (
            tuple(Fraction(rng.randint(0, 9), rng.choice(DENS)) for _ in range(k)),
            tuple(rng.randint(0, 1) for _ in range(n)),
        )
        for _ in range(rng.randint(2, 10))
    ]
    rays = [(tuple(int(j == d) for j in range(k)), (0,) * n) for d in range(k)]
    z = tuple(rng.choice((Fraction(0), Fraction(1, 2), Fraction(1))) for _ in range(n))
    y = tuple(Fraction(rng.randint(0, 9), 2) for _ in range(k))
    return vertex_list(points, rays), y, z


def phi(plane, y, z):
    return sum(a * v for a, v in zip(plane.y_coeffs, y)) + sum(
        b * v for b, v in zip(plane.z_coeffs, z)
    )


def check_against_full_lp(vrep, y, z, seen) -> None:
    """The verdict of the full LP, every field of the Fraction twin, and an
    "outside" plane that holds on the whole list and cuts off the point;
    counts what was seen."""
    got = membership_at(vrep, y, z)
    assert got.inside == full_fraction_membership(vrep, y, z).inside, (vrep, y, z)
    assert in_lowest_terms(got) == fraction_membership(vrep, y, z), (vrep, y, z)
    dropped = [i for i, v in enumerate(z) if v == 0]
    seen["dropped"] += bool(dropped)
    seen["fractional"] += any(0 < v < 1 for v in z)
    if got.inside:
        seen["inside"] += 1
        return
    seen["outside"] += 1
    plane = got.hyperplane
    seen["lifted"] += any(plane.z_coeffs[i] for i in dropped)
    full = fraction_vertices(vrep)
    for py, pz in full.points:
        assert phi(plane, py, pz) <= plane.bound, (vrep, y, z, py, pz)
    for ry, rz in full.rays:
        assert phi(plane, ry, rz) <= 0, (vrep, y, z, ry)
    assert phi(plane, y, z) > plane.bound, (vrep, y, z)


def counter():
    return dict.fromkeys(("inside", "outside", "dropped", "fractional", "lifted"), 0)


def test_face_membership_equals_the_full_lp_on_the_hull_vertex_list():
    """On the hull's own vertex list the face plane needs no lift: a point
    whose z has more rows active lies, in y, in the region of the same z
    with the rows of the face's zeros taken out, so the Farkas vector of
    the face already holds on every dropped column."""
    rng = random.Random(1818)
    cases = [(case, inst, y, z) for case, inst, y, z in witness_points(rng)]
    while len(cases) < 320:
        inst = face_instance(rng, rng.randint(1, 6), rng.randint(1, 3))
        vrep = v_representation(inst)
        cases += [("random", inst) + face_point(rng, vrep) for _ in range(4)]

    seen = counter()
    witnesses = dict.fromkeys(("lw", "c1", "c2"), 0)
    for case, inst, y, z in cases:
        vrep = v_representation(inst)
        check_against_full_lp(vrep, y, z, seen)
        if case in witnesses:
            assert not membership_at(vrep, y, z).inside, (case, inst)
            witnesses[case] += 1
    assert len(cases) >= 300
    assert all(count >= 10 for count in witnesses.values()), witnesses
    assert seen["inside"] >= 60 and seen["outside"] >= 60, seen
    assert seen["dropped"] >= 150 and seen["fractional"] >= 150, seen
    assert seen["lifted"] == 0, seen


def test_face_membership_lifts_the_plane_on_other_vertex_lists():
    """On the band-clipped hull and on vertex lists built by hand the face
    plane can fail on a dropped column, and the lift must mend it: with the
    dropped rows' multipliers left at 0 the check against the full matrix
    raises on these cases."""
    rng = random.Random(1819)
    seen = counter()
    for _ in range(120):
        data = random_band_data(rng, rng.randint(2, 6))
        hull_with_bounds(data)  # raises InternalInvariant where the band fails
        ref = fraction_hull_with_bounds(data)
        assert ref.band_ok
        clipped = vertex_list(*ref.clipped)
        check_against_full_lp(clipped, *clipped_point(rng, clipped), seen)
    for _ in range(150):
        check_against_full_lp(*hand_built(rng), seen)
    assert seen["inside"] >= 30 and seen["outside"] >= 100, seen
    assert seen["lifted"] >= 50, seen
