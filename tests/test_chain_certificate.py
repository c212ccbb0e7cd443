"""The chain certificate against the membership LP: wherever
``vertices.decompose`` proves a point inside the hull, the LP agrees and the
multipliers solve the point/ray system exactly; on sufficient instances it
proves every closure check, so ``check_sufficiency`` runs no LP there; it
gives no verdict on witness points or on vertex lists of another shape, and
a corrupted cached column makes it raise.  ``decompose`` and ``membership``
take an integer target; the tests reach them at Fraction points through
``helpers.chain_certificate`` and ``helpers.membership_at``."""

import random
from fractions import Fraction

import pytest

from mixcuts import (
    InternalInvariant,
    MixingInstance,
    TwoSidedData,
    VRepresentation,
    check_sufficiency,
    decompose,
    diagnose,
    hull_with_bounds,
    membership,
    reduce_lower_bounds,
    v_representation,
    witness,
)
from mixcuts import hull
from mixcuts.vertices import MembershipResult, certify_chain

from conftest import random_insufficient_instance
from helpers import (
    chain_certificate,
    complement,
    fraction_hull_with_bounds,
    fraction_vertices,
    membership_at,
    multipliers,
    vertex_list,
)

DENS = (1, 2, 3, 4)


def chain_instance(rng: random.Random, index: int) -> MixingInstance:
    """A reduced instance with n <= 5, k <= 3 and fractional weights; by
    ``index``, some draw their entries from a pool of three values (ties),
    some have an all-zero column, some have epsilon = 0, and every fourth is
    lifted (lower bounds, some entries below them) and then reduced."""
    n, k = rng.randint(1, 5), rng.randint(1, 3)
    pool = [Fraction(rng.randint(0, 12), rng.choice(DENS)) for _ in range(3)]

    def entry():
        if index % 3 == 1:
            return rng.choice(pool)
        return Fraction(rng.randint(0, 12), rng.choice(DENS))

    rows = [[entry() for _ in range(k)] for _ in range(n)]
    if index % 5 == 2:
        zero = rng.randrange(k)
        for row in rows:
            row[zero] = Fraction(0)
    lower = None
    if index % 4 == 3:
        lower = [Fraction(rng.randint(1, 3), rng.choice(DENS)) for _ in range(k)]
        rows = [
            [
                low * Fraction(rng.randint(0, 2), 3) if rng.random() < 0.25 else w + low
                for w, low in zip(row, lower)
            ]
            for row in rows
        ]
    eps = Fraction(0)
    if index % 6:
        eps = min(sum(row) for row in rows) * Fraction(rng.randint(0, 8), 8)
    reduced, _ = reduce_lower_bounds(MixingInstance(rows, lower, eps))
    return reduced


def assert_certificate(vrep: VRepresentation, y, z, result) -> None:
    """The LP calls (y, z) inside, and the chain's multipliers are a convex
    combination of the points plus nonnegative ray multiples equal to it."""
    assert result.inside and result.hyperplane is None
    assert membership_at(vrep, y, z).inside
    coeffs, ray_coeffs = multipliers(vrep, result.certificate)
    assert len(coeffs) == len(vrep.points) and len(ray_coeffs) == len(vrep.rays)
    assert all(c >= 0 for c in coeffs + ray_coeffs)
    assert sum(coeffs) == 1
    points, rays = fraction_vertices(vrep)
    columns = list(zip(coeffs, points)) + list(zip(ray_coeffs, rays))
    for j in range(vrep.k):
        assert sum(c * py[j] for c, (py, _) in columns) == y[j]
    for i in range(vrep.n):
        assert sum(c * pz[i] for c, (_, pz) in columns) == z[i]


def test_chain_certifies_every_closure_check(monkeypatch):
    counts = {"certified": 0, "lp": 0}

    def checked(entry):
        # An integer entry check_sufficiency calls (certify_chain on a
        # sample's kept chain, decompose at a vertex), with each certificate
        # read back as Fractions and checked against the LP.
        def call(vrep, target, den, *chain):
            result = entry(vrep, target, den, *chain)
            if result is not None:
                point = [Fraction(v, den) for v in target]
                y, z = point[vrep.n + 1 :], point[: vrep.n]
                assert_certificate(vrep, y, z, MembershipResult(True, result, None))
                counts["certified"] += 1
            return result

        return call

    def counted_membership(vrep, target, den):
        counts["lp"] += 1
        return membership(vrep, target, den)

    monkeypatch.setattr(hull, "decompose", checked(decompose))
    monkeypatch.setattr(hull, "certify_chain", checked(certify_chain))
    monkeypatch.setattr(hull, "membership", counted_membership)
    rng = random.Random(15001)
    samples = 8
    checked = sufficient = vertex_checks = 0
    for index in range(240):
        inst = chain_instance(rng, index)
        if not diagnose(inst).sufficient:
            continue
        report = check_sufficiency(inst, samples=samples, seed=index)
        assert report.ok and report.branch == "closure"
        sufficient += 1
        checked += report.samples_checked
        vertex_checks += report.samples_checked - samples
        # Every projected sample and every basis vertex has a chain
        # certificate, so a fallback to the LP shows in either count.
        assert counts == {"certified": checked, "lp": 0}
    assert sufficient >= 200
    assert vertex_checks >= 100


def test_chain_certificates_hold_wherever_given():
    # Combinations of listed points and rays (inside), and the same pushed
    # out of the hull: y lowered, or z moved outside the unit box.
    rng = random.Random(15002)
    outcomes = set()
    for index in range(200):
        vrep = v_representation(chain_instance(rng, index))
        points = fraction_vertices(vrep).points
        picks = rng.sample(points, min(len(points), rng.randint(1, 3)))
        weights = [Fraction(rng.randint(1, 4), rng.choice(DENS)) for _ in picks]
        total = sum(weights)
        y = [sum(w * py[j] for w, (py, _) in zip(weights, picks)) / total
             for j in range(vrep.k)]
        z = [sum(w * pz[i] for w, (_, pz) in zip(weights, picks)) / total
             for i in range(vrep.n)]
        y[rng.randrange(vrep.k)] += Fraction(rng.randint(0, 3), rng.choice(DENS))
        kind = index % 3
        if kind == 1:
            y[rng.randrange(vrep.k)] -= Fraction(rng.randint(1, 20), rng.choice(DENS))
        elif kind == 2:
            z[rng.randrange(vrep.n)] = rng.choice((Fraction(-1, 2), Fraction(3, 2)))
        result = chain_certificate(vrep, y, z)
        if result is not None:
            assert_certificate(vrep, y, z, result)
        outcomes.add((kind, result is not None))
    assert {(0, True), (1, False), (2, False)} <= outcomes


def test_chain_never_certifies_a_point_the_lp_puts_outside():
    """Seeded points with z ties, zeros and ones, and y around the hull's
    lower boundary: wherever the chain gives a certificate, the LP agrees
    the point is inside."""
    rng = random.Random(15004)
    levels = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
    outcomes = {"certified": 0, "inside by the LP only": 0, "outside": 0}
    for index in range(150):
        inst = chain_instance(rng, index)
        vrep = v_representation(inst)
        top = max([w for row in inst.weights for w in row] + [inst.epsilon, 1])
        pool = rng.sample(levels, rng.randint(1, 3))  # few values: ties
        for _ in range(6):
            z = tuple(rng.choice(pool) for _ in range(inst.n))
            y = tuple(top * Fraction(rng.randint(0, 8), 8) for _ in range(inst.k))
            certificate = chain_certificate(vrep, y, z)
            inside = membership_at(vrep, y, z).inside
            assert inside or certificate is None, (inst, y, z)
            if certificate is not None:
                assert_certificate(vrep, y, z, certificate)
                outcomes["certified"] += 1
            else:
                outcomes["inside by the LP only" if inside else "outside"] += 1
    assert outcomes["certified"] >= 300 and outcomes["outside"] >= 400, outcomes


def witness_instances():
    rng = random.Random(15003)
    for case in ("lw", "c1", "c2"):
        for n, k in ((3, 2), (4, 2), (4, 3), (5, 3)):
            yield random_insufficient_instance(rng, n, k, case)


def test_witness_points_get_no_chain_certificate(example2, example3, example4):
    instances = [example2, example3, example4, *witness_instances()]
    for inst in instances:
        (y, z), _ = witness(inst)
        vrep = v_representation(inst)
        assert not membership_at(vrep, y, complement(z)).inside
        assert chain_certificate(vrep, y, complement(z)) is None


@pytest.mark.parametrize("row", ["z", "convexity", "y"])
@pytest.mark.parametrize("delta", [1, -1])
def test_corrupted_common_matrix_raises(row, delta):
    # At z = 0 the chain is the empty mask alone, and y = (eps, 0) is its
    # point for column 0, so the certificate uses that point's column only.
    # The checker reads the common matrix by its columns' nonzero entries
    # (``VRepresentation.columns``); the entry of that column in the row is
    # changed by delta, or added where it was zero.
    inst = MixingInstance([[3, 1], [1, 4], [2, 2]], None, Fraction(7, 2))
    vrep = v_representation(inst)
    y, z = (Fraction(7, 2), Fraction(0)), (0, 0, 0)
    column = fraction_vertices(vrep).points.index((y, z))
    coeffs, _ = multipliers(vrep, chain_certificate(vrep, y, z).certificate)
    assert coeffs[column] == 1
    index = {"z": 0, "convexity": vrep.n, "y": vrep.n + 1}[row]
    entries = dict(vrep.columns[column])
    entries[index] = entries.get(index, 0) + delta
    corrupted = list(vrep.columns)
    corrupted[column] = tuple(sorted(entries.items()))
    vrep.__dict__["columns"] = tuple(corrupted)
    with pytest.raises(InternalInvariant):
        chain_certificate(vrep, y, z)


def test_vertex_lists_of_another_shape_get_no_verdict():
    inst = MixingInstance([[3, 1], [1, 4], [2, 2]], None, Fraction(7, 2))
    vrep = v_representation(inst)
    y, z = (Fraction(2), Fraction(2)), (0, 0, 0)
    assert chain_certificate(vrep, y, z) is not None
    # The empty mask's points (7/2, 0) and (1/2, 7/2) share no floor and
    # deficit: (1/2, 0) and 3 would put the second at (1/2, 3).
    points, rays = fraction_vertices(vrep)
    shifted = list(points)
    second = shifted.index(((Fraction(0), Fraction(7, 2)), (0, 0, 0)))
    shifted[second] = ((Fraction(1, 2), Fraction(7, 2)), (0, 0, 0))
    moved = vertex_list(shifted, rays)
    assert membership_at(moved, y, z).inside
    assert chain_certificate(moved, y, z) is None
    # A ray that is not a unit y direction.
    slanted = vertex_list(
        points, (((Fraction(1), Fraction(1)), (0, 0, 0)),) + rays[1:]
    )
    assert membership_at(slanted, y, z).inside
    assert chain_certificate(slanted, y, z) is None


def test_band_hull_gets_no_chain_verdict():
    data = TwoSidedData((8, 6, 13, 1, 4), (3, 4, 2, 1, 1), 13)
    hull_with_bounds(data)  # raises InternalInvariant where the band fails
    ref = fraction_hull_with_bounds(data)
    assert ref.band_ok
    clipped = vertex_list(*ref.clipped)
    points = fraction_vertices(clipped).points
    for y, z in points[:: max(1, len(points) // 20)]:
        assert membership_at(clipped, y, z).inside
        assert chain_certificate(clipped, y, z) is None
