import itertools
import random
from fractions import Fraction

import pytest

from mixcuts import (
    GroundSetTooLarge,
    LinearCut,
    LowerBoundsNotReduced,
    MixingInstance,
    aggregated_cut,
    check_sufficiency,
    diagnose,
    hull_cut_family,
    membership,
    sequences,
    v_representation,
)
from mixcuts.core import CutKind, DimensionMismatch, complement
from mixcuts.hull import (
    BASIS_ENUMERATION_WORK,
    _cut_polyhedron_vertices,
)

from conftest import random_instance, random_sufficient_instance
from helpers import (
    column_oracle,
    cut_matrix,
    fraction_vertices,
    is_submodular,
    l_theta,
    linking_oracle,
    project,
    vertex_points,
)


def test_diagnose_example1(example1):
    d = diagnose(example1)
    assert d.i_bar == frozenset({3, 4})
    assert d.negligible and d.c1_ok and d.c2_ok
    assert d.l_w_eps == 8
    assert d.g_submodular and d.sufficient


def test_diagnose_example2(example2):
    d = diagnose(example2)
    assert d.i_bar == frozenset({3, 4})
    assert d.negligible
    assert d.l_w_eps == 8
    assert not d.g_submodular and not d.sufficient


def test_diagnose_example3_c1(example3):
    d = diagnose(example3)
    assert d.i_bar == frozenset({3, 4})
    assert not d.c1_ok
    assert not d.negligible and not d.sufficient


def test_diagnose_example4_c2(example4):
    d = diagnose(example4)
    assert d.i_bar == frozenset({3, 4})
    assert d.c1_ok and not d.c2_ok
    assert not d.negligible and not d.sufficient


def test_diagnose_requires_reduced():
    with pytest.raises(LowerBoundsNotReduced):
        diagnose(MixingInstance([[1]], [1], 0))


def test_diagnose_all_rows_low():
    inst = MixingInstance([[1, 1], [2, 0]], None, 5)
    d = diagnose(inst)
    assert d.i_bar == frozenset({0, 1})
    assert d.l_w_eps is None
    assert d.negligible == d.sufficient == (sum(
        max(inst.weights[i][j] for i in range(2)) for j in range(2)
    ) <= 5)


def test_diagnose_matches_brute_force_submodularity():
    rng = random.Random(15)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(2, 6), rng.randint(1, 3),
                               dens=(1, 2))
        assert diagnose(inst).g_submodular == is_submodular(linking_oracle(inst))


def test_negligible_rows_never_change_the_oracle(example1):
    g = linking_oracle(example1)
    d = diagnose(example1)
    low = d.i_bar
    for mask in range(1 << 5):
        stripped = mask & ~sum(1 << i for i in low)
        assert g.value(mask) == g.value(stripped)


def test_pairwise_constant_is_min_over_sequences(example1, example2):
    for inst in (example1, example2):
        d = diagnose(inst)
        outside = sorted(set(range(5)) - d.i_bar)
        best = min(l_theta(inst, theta) for theta in sequences(outside))
        assert best == d.l_w_eps


def test_greedy_vertices_translate_to_star_family(example1):
    # every permutation vertex of the linking oracle must be the linking
    # constraint or a starred aggregated cut over rows outside the low set
    g = linking_oracle(example1)
    d = diagnose(example1)
    family = {
        aggregated_cut(example1, theta).canonical_key()
        for theta in sequences(sorted(set(range(5)) - d.i_bar))
        if aggregated_cut(example1, theta).kind is CutKind.AMIX_STAR
    }
    for perm in itertools.permutations(range(5)):
        pi = [Fraction(0)] * 5
        mask = 0
        prev = g.value(0)
        for i in perm:
            mask |= 1 << i
            cur = g.value(mask)
            pi[i] = cur - prev
            prev = cur
        cut = LinearCut((1, 1), pi, example1.epsilon + sum(pi))
        assert cut.canonical_key() in family
        assert all(pi[i] == 0 for i in d.i_bar)


def test_greedy_vertices_all_linking_when_every_row_low():
    inst = MixingInstance([[1, 1], [0, 2]], None, 4)
    d = diagnose(inst)
    assert d.i_bar == frozenset({0, 1}) and d.sufficient
    g = linking_oracle(inst)
    linking = LinearCut((1, 1), (0, 0), 4, CutKind.LINKING)
    for perm in itertools.permutations(range(2)):
        pi = [Fraction(0)] * 2
        mask = 0
        prev = g.value(0)
        for i in perm:
            mask |= 1 << i
            cur = g.value(mask)
            pi[i] = cur - prev
            prev = cur
        cut = LinearCut((1, 1), pi, inst.epsilon + sum(pi))
        assert cut == linking


def test_weak_independence_identity(example1):
    # min of alpha . y over the hull at fixed binary z equals
    # alpha_min * g + sum (alpha_j - alpha_min) f_j when g is submodular
    rng = random.Random(21)
    vrep = v_representation(example1)
    by_z = {}
    for y, z in fraction_vertices(vrep).points:
        by_z.setdefault(z, []).append(y)
    g = linking_oracle(example1)
    oracles = [column_oracle(example1, j) for j in range(2)]
    for _ in range(10):
        alpha = [Fraction(rng.randint(0, 6), rng.randint(1, 2)) for _ in range(2)]
        amin = min(alpha)
        for z, ys in by_z.items():
            mask = sum(1 << i for i, zi in enumerate(z) if zi)
            lp_floor = min(
                sum(a * v for a, v in zip(alpha, y)) for y in ys
            )
            formula = amin * g.value(mask) + sum(
                (alpha[j] - amin) * oracles[j].value(mask) for j in range(2)
            )
            assert lp_floor == formula


def test_v_representation_examples(example1):
    vrep = v_representation(example1)
    points = fraction_vertices(vrep).points
    by_z = {z: y for y, z in points if sum(y) > example1.epsilon}
    assert by_z[(0, 1, 1, 0, 0)] == (13, 4)
    zero_points = [(y, z) for y, z in points if z == (0,) * 5]
    assert len(zero_points) == 2
    assert {tuple(y) for y, _ in zero_points} == {
        (Fraction(7), Fraction(0)),
        (Fraction(0), Fraction(7)),
    }
    s_count = sum(1 for y, z in points if sum(y) > example1.epsilon)
    assert len(vrep.points) == s_count + 2 * (32 - s_count)
    assert len(vrep.rays) == 2
    # every point either floors above the threshold or sits exactly on it
    floors = {}
    for y, z in points:
        floors.setdefault(z, []).append(y)
    for z, ys in floors.items():
        mask = sum(1 << i for i, zi in enumerate(z) if zi)
        floor_total = sum(
            max(
                (example1.weights[i][j] for i in range(5) if mask & (1 << i)),
                default=Fraction(0),
            )
            for j in range(2)
        )
        for y in ys:
            if floor_total > example1.epsilon:
                assert sum(y) == floor_total
            else:
                assert sum(y) == example1.epsilon


def test_duplicate_rows_tolerated():
    # exact duplicates and value ties must flow through the whole pipeline
    inst = MixingInstance([[5, 2], [5, 2], [3, 4], [3, 1]], None, 4)
    d = diagnose(inst)
    assert d.i_bar == frozenset({3})
    vrep = v_representation(inst)
    fam = hull_cut_family(inst)
    assert len({c.canonical_key() for c in fam}) == len(fam)
    for cut in fam:
        for y, z in fraction_vertices(vrep).points:
            assert cut.lhs(y, tuple(1 - zi for zi in z)) >= cut.rhs
    report = check_sufficiency(inst, samples=20)
    assert report.ok


def test_insufficient_instances_have_closure_vertices_outside():
    # the other face of the main equivalence: when the diagnosis says the
    # families are insufficient, the cut polyhedron must own a vertex beyond
    # the hull (machine check of the implication the witnesses certify)
    rng = random.Random(58)
    found = 0
    for case in ("lw", "c2"):
        from conftest import random_insufficient_instance

        inst = random_insufficient_instance(rng, 3, 2, case)
        cuts = hull_cut_family(inst)
        vertices = vertex_points(
            _cut_polyhedron_vertices(cut_matrix(inst, cuts), 2_000_000), inst.k
        )
        assert vertices is not None
        vrep = v_representation(inst)
        outside = [
            (y, z)
            for y, z in vertices
            if not membership(vrep, y, complement(z)).inside
        ]
        assert outside, (inst, len(vertices))
        found += len(outside)
    assert found


def test_v_representation_guards():
    with pytest.raises(LowerBoundsNotReduced):
        v_representation(MixingInstance([[1]], [1], 0))
    big = MixingInstance([[1]] * 21, None, 0)
    with pytest.raises(GroundSetTooLarge):
        v_representation(big)


def test_membership_certificates(example1):
    vrep = v_representation(example1)
    points = fraction_vertices(vrep).points
    y, z = points[11]
    res = membership(vrep, y, z)
    assert res.inside
    assert sum(res.coefficients) == 1
    # average of two vertices is inside
    (y1, z1), (y2, z2) = points[0], points[30]
    mid_y = tuple((a + b) / 2 for a, b in zip(y1, y2))
    mid_z = tuple(Fraction(a + b, 2) for a, b in zip(z1, z2))
    assert membership(vrep, mid_y, mid_z).inside
    # far outside: below every linking value
    res = membership(vrep, (Fraction(0), Fraction(0)), mid_z)
    assert not res.inside
    plane = res.hyperplane
    phi = sum(a * v for a, v in zip(plane.y_coeffs, (Fraction(0), Fraction(0))))
    phi += sum(a * v for a, v in zip(plane.z_coeffs, mid_z))
    assert phi > plane.bound
    with pytest.raises(DimensionMismatch):
        membership(vrep, (Fraction(0),), mid_z)


def test_membership_example2_witness_outside(example2):
    from mixcuts import witness

    vrep = v_representation(example2)
    (y, z), case = witness(example2)
    assert case == "pair-minimum"
    res = membership(vrep, y, complement(z))
    assert not res.inside


def test_check_sufficiency_example1(example1):
    report = check_sufficiency(example1, samples=25)
    assert report.branch == "closure"
    assert report.ok and not report.failures
    assert report.samples_checked == 25
    published = {
        LinearCut((1, 1), (1, 1, 8, 0, 0), 17),
        LinearCut((1, 1), (0, 2, 8, 0, 0), 17),
        LinearCut((1, 1), (0, 3, 7, 0, 0), 17),
        LinearCut((1, 1), (2, 3, 5, 0, 0), 17),
        LinearCut((1, 1), (4, 1, 5, 0, 0), 17),
    }
    assert published <= set(report.cuts)
    again = check_sufficiency(example1, samples=25)
    assert report.to_json() == again.to_json()


def test_closure_checks_each_sample_and_every_cut_polyhedron_vertex():
    # the count is exactly the projected samples plus the exact vertices of
    # the cut polyhedron: no point whose membership is known in advance
    rng = random.Random(5)
    covered = 0
    while covered < 10:
        n, k = rng.randint(2, 3), rng.randint(1, 2)
        inst = random_sufficient_instance(rng, n, k, with_low_rows=n == 3)
        cuts = hull_cut_family(inst)
        vertices = _cut_polyhedron_vertices(
            cut_matrix(inst, cuts), BASIS_ENUMERATION_WORK
        )
        if vertices is None:
            continue
        report = check_sufficiency(inst, samples=10)
        assert report.ok, (inst, report.failures[:3])
        assert report.samples_checked == 10 + len(vertices)
        covered += 1


def test_check_sufficiency_witness_branches(example2, example3, example4):
    for inst, case in (
        (example2, "pair-minimum"),
        (example3, "dominance"),
        (example4, "peak-sum"),
    ):
        report = check_sufficiency(inst)
        assert report.branch == "witness"
        assert report.witness_case == case
        assert report.ok, report.witness_assertions


def test_cut_polyhedron_vertices_all_inside():
    rng = random.Random(33)
    inst = random_sufficient_instance(rng, 3, 2)
    cuts = hull_cut_family(inst)
    vertices = vertex_points(
        _cut_polyhedron_vertices(cut_matrix(inst, cuts), 40_000), inst.k
    )
    assert vertices  # small case: enumeration must run and find vertices
    vrep = v_representation(inst)
    for y, z in vertices:
        assert membership(vrep, y, complement(z)).inside


def test_projection_points_satisfy_all_cuts(example1):
    rng = random.Random(44)
    cuts = hull_cut_family(example1)
    for s in range(30):
        z = tuple(Fraction(rng.randint(0, 4), 4) for _ in range(5))
        y, z = project(cut_matrix(example1, cuts), z, s % 2)
        for cut in cuts:
            assert cut.satisfied_by(y, z)
