"""The closure check in integers against its Fraction oracle: membership on
the vertex list's cached matrices, the box-point sampler, projection and
the double-description vertex list on the cut family's integer matrix
(against the oracle's basis enumeration), cut validity on the
common-denominator matrix, and the integer certificate checks, which must
reject a tampered certificate or support or a corrupted cached row."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mixcuts import (
    InternalInvariant,
    LinearCut,
    MixingInstance,
    check_sufficiency,
    check_validity,
    hull_cut_family,
    membership,
    v_representation,
)
from mixcuts import hull, vertices
from mixcuts.exactlp import solve_feasibility, verify_farkas, verify_feasible
from mixcuts.hull import (
    BASIS_ENUMERATION_WORK,
    _BOX_SCALE,
    _cut_matrix,
    _cut_polyhedron_vertices,
    _draws,
    family_rows,
    project_to_cut_polyhedron,
)

from conftest import random_insufficient_instance, random_sufficient_instance
from helpers import (
    chain_certificate,
    columns_of,
    complement,
    cut_matrix,
    fraction_box_point,
    fraction_cut_polyhedron_vertices,
    fraction_membership,
    fraction_projection,
    fraction_rows,
    fraction_solve_feasibility,
    fraction_vertices,
    in_lowest_terms,
    membership_at,
    project,
    scale_rows,
    support,
    target,
    vertex_points,
)

DENS = (1, 2, 3, 4, 5, 6)


def kernel_instance(rng: random.Random, n=None, k=None) -> MixingInstance:
    """n <= 4, k <= 3 (drawn unless given), mixed denominators; some with a
    column of zeros, some with value ties or duplicate rows, some with
    epsilon = 0."""
    if n is None:
        n, k = rng.randint(1, 4), rng.randint(1, 3)
    values = [Fraction(rng.randint(0, 12), rng.choice(DENS)) for _ in range(4)]
    shape = rng.randrange(4)
    rows = []
    for i in range(n):
        if shape == 1:  # ties: few distinct values
            row = [rng.choice(values) for _ in range(k)]
        elif shape == 2 and i and rng.random() < 0.5:  # a duplicate row
            row = list(rows[-1])
        else:
            row = [Fraction(rng.randint(0, 12), rng.choice(DENS)) for _ in range(k)]
        rows.append(row)
    if shape == 3:  # an all-zero column
        zero = rng.randrange(k)
        for row in rows:
            row[zero] = Fraction(0)
    eps = Fraction(0) if rng.random() < 0.2 else Fraction(
        rng.randint(1, 30), rng.choice(DENS)
    )
    return MixingInstance(rows, None, eps)


def kernel_target(rng: random.Random, vrep):
    """A point that is a listed point, a mixed-denominator combination of
    points and rays (inside), or one pushed out of the hull: y lowered, a
    coordinate made negative, or z moved outside the unit box."""
    k, n = vrep.k, vrep.n
    kind = rng.randrange(5)
    points = fraction_vertices(vrep).points
    if kind == 0:
        y, z = rng.choice(points)
        return tuple(y), tuple(Fraction(v) for v in z), kind
    picks = rng.sample(points, min(len(points), rng.randint(1, 3)))
    weights = [Fraction(rng.randint(1, 4), rng.choice(DENS)) for _ in picks]
    total = sum(weights)
    y = [sum(w * p[0][j] for w, p in zip(weights, picks)) / total for j in range(k)]
    z = [sum(w * p[1][i] for w, p in zip(weights, picks)) / total for i in range(n)]
    if rng.random() < 0.5:
        ray = rng.randrange(k)
        y[ray] += Fraction(rng.randint(1, 5), rng.choice(DENS))
    if kind == 2:
        j = rng.randrange(k)
        y[j] -= Fraction(rng.randint(1, 20), rng.choice(DENS))
    elif kind == 3:
        y[rng.randrange(k)] = Fraction(-rng.randint(1, 5), rng.choice(DENS))
    elif kind == 4:
        i = rng.randrange(n)
        z[i] = rng.choice((Fraction(-1, 2), Fraction(3, 2), Fraction(-2, 3)))
    return tuple(y), tuple(z), kind


def test_kernel_equals_the_fraction_oracle_on_general_systems():
    # signed entries and right-hand sides, so rows are flipped, and both
    # constructed-feasible and random systems
    rng = random.Random(8079)
    verdicts = set()
    for _ in range(400):
        m, ncols = rng.randint(1, 5), rng.randint(1, 8)
        a = [
            [Fraction(rng.randint(-5, 5), rng.choice(DENS)) for _ in range(ncols)]
            for _ in range(m)
        ]
        if rng.random() < 0.5:
            x = [Fraction(rng.randint(0, 3), rng.choice(DENS)) for _ in range(ncols)]
            b = [sum(r * v for r, v in zip(row, x)) for row in a]
        else:
            b = [Fraction(rng.randint(-6, 6), rng.choice(DENS)) for _ in range(m)]
        rows, rhs, scales = scale_rows(a, b)
        got = solve_feasibility(rows, rhs)
        feasible, x, u = fraction_solve_feasibility(a, b)
        assert got.feasible == feasible
        if feasible:
            assert tuple(Fraction(v, got.den) for v in got.x) == x
        else:
            assert tuple(Fraction(s * v, got.den) for s, v in zip(scales, got.farkas)) == u
        verdicts.add(feasible)
    assert verdicts == {True, False}


def test_membership_equals_the_fraction_oracle_in_every_field():
    rng = random.Random(8080)
    inside = outside = zero_eps = zero_column = 0
    for _ in range(75):
        inst = kernel_instance(rng)
        vrep = v_representation(inst)
        zero_eps += inst.epsilon == 0
        zero_column += any(
            all(row[j] == 0 for row in inst.weights) for j in range(inst.k)
        )
        for _ in range(4):
            y, z, _ = kernel_target(rng, vrep)
            got = membership_at(vrep, y, z)
            assert in_lowest_terms(got) == fraction_membership(vrep, y, z), (inst, y, z)
            inside += got.inside
            outside += not got.inside
    assert inside + outside == 300
    assert inside >= 60 and outside >= 60 and zero_eps and zero_column


@pytest.mark.parametrize("m", [2, 6, 35])
def test_membership_is_unchanged_when_the_target_and_den_are_scaled(monkeypatch, m):
    """Each LP row is scaled by the denominator of its target entry in lowest
    terms, so the target and ``den`` times m give the same LP, pivots and
    answer, in every field."""
    systems = []

    def recorded(a_rows, b):
        systems.append((a_rows, b))
        return solve_feasibility(a_rows, b)

    monkeypatch.setattr(vertices, "solve_feasibility", recorded)
    rng = random.Random(8087)
    verdicts = set()
    for _ in range(40):
        vrep = v_representation(kernel_instance(rng))
        for _ in range(4):
            y, z, _ = kernel_target(rng, vrep)
            point, den = target(y, z)
            got = membership(vrep, point, den)
            scaled = membership(vrep, [m * v for v in point], m * den)
            assert scaled == got, (vrep, y, z)
            assert systems[-1] == systems[-2]
            verdicts.add(got.inside)
    assert verdicts == {True, False}


def test_cached_matrices_equal_the_scaled_fraction_rows():
    """``lp_matrix`` is each Fraction row times the lcm of its own
    denominators, and ``common_matrix`` is every row times their common lcm
    and one positive integer, the instance's D over that lcm; D is larger
    where no coordinate needs all of its factors."""
    rng = random.Random(8086)
    below = 0
    for _ in range(200):
        inst = kernel_instance(rng)
        vrep = v_representation(inst)
        rows = fraction_rows(fraction_vertices(vrep))
        scales = tuple(math.lcm(*(v.denominator for v in row)) for row in rows)
        scaled = tuple(tuple(int(v * s) for v in row) for row, s in zip(rows, scales))
        assert vrep.lp_matrix == (scaled, scales)
        common = math.lcm(*scales)
        den, matrix = vrep.common_matrix
        factor, rest = divmod(den, common)
        assert den == inst.scaled[0] and rest == 0 and factor >= 1
        assert matrix == tuple(
            tuple(int(v * common) * factor for v in row) for row in rows
        )
        # the column view the certificates are checked against
        assert list(vrep.columns) == columns_of(matrix)
        below += common < den
    assert below


def closure_instances(rng, count, max_n=4):
    for _ in range(count):
        yield random_sufficient_instance(
            rng, rng.randint(2, max_n), rng.randint(1, 3), rng.random() < 0.3
        )


def test_projection_equals_the_fraction_oracle():
    rng = random.Random(8081)
    for inst in closure_instances(rng, 40):
        cuts = hull_cut_family(inst)
        family = cut_matrix(inst, cuts)
        for s in range(10):
            z = tuple(
                Fraction(rng.randint(0, d), d)
                for d in (rng.choice(DENS) for _ in range(inst.n))
            )
            got = project(family, z, s % inst.k)
            assert got == fraction_projection(inst, cuts, z, s % inst.k)


def test_integer_samples_equal_the_fraction_draws_and_projection():
    """The integer sample stream of a seed draws the points the Fraction
    sampler draws from its own ``random.Random(seed)``, and the integer
    projection on the family's own matrix lifts them to the reference's y."""
    rng = random.Random(8084)
    for seed, inst in enumerate(closure_instances(rng, 40, max_n=5)):
        cuts = hull_cut_family(inst)
        family = _cut_matrix(inst, family_rows(inst))
        theirs = random.Random(seed)
        den = family.denominator * _BOX_SCALE
        for s, (z, _, _) in enumerate(_draws(inst.n, 12, seed)):
            want_z = fraction_box_point(theirs, inst.n)
            assert tuple(Fraction(v, _BOX_SCALE) for v in z) == want_z
            y = project_to_cut_polyhedron(family, z, _BOX_SCALE, s % inst.k)
            want_y, _ = fraction_projection(inst, cuts, want_z, s % inst.k)
            assert tuple(Fraction(v, den) for v in y) == want_y
        assert s == 11


def test_family_matrix_is_the_fraction_cut_matrix_over_the_instance_denominator():
    """``check_sufficiency`` takes its matrix from the family's integer rows;
    it is the matrix read off the family's cuts, times a positive integer."""
    rng = random.Random(8083)
    for inst in closure_instances(rng, 40):
        got = _cut_matrix(inst, family_rows(inst))
        want = cut_matrix(inst, hull_cut_family(inst))
        factor, rest = divmod(got.denominator, want.denominator)
        assert rest == 0 and got.denominator == inst.scaled[0]
        assert (got.k, got.n, got.shapes) == (want.k, want.n, want.shapes)
        assert got.rows == tuple(tuple(factor * v for v in row) for row in want.rows)
        assert got.rhs == tuple(factor * v for v in want.rhs)


def test_cut_polyhedron_vertices_equal_the_fraction_oracle_in_order():
    """The oracle's vertices, sorted into the library's order (ascending
    lowest-terms ``(numerators, denominator)``), under the same work gate."""
    rng = random.Random(8082)
    compared = 0
    for inst in closure_instances(rng, 30, max_n=3):
        cuts = hull_cut_family(inst)
        got = vertex_points(
            _cut_polyhedron_vertices(cut_matrix(inst, cuts), BASIS_ENUMERATION_WORK),
            inst.k,
        )
        want = fraction_cut_polyhedron_vertices(inst, cuts, BASIS_ENUMERATION_WORK)
        assert got == in_library_order(want, inst.k)
        compared += got is not None
    assert compared >= 10


def test_closure_failures_read_as_the_fraction_reference_writes_them(monkeypatch):
    """On insufficient instances passed off as sufficient, every sample and
    vertex the LP puts outside the hull is reported, in order, with the
    text the Fraction sampler, projection and membership LP give."""
    rng = random.Random(8086)
    failed = 0
    for case in ("lw", "c2"):
        inst = random_insufficient_instance(rng, 3, 2, case)
        claimed = SimpleNamespace(sufficient=True, i_bar=hull.diagnose(inst).i_bar)
        monkeypatch.setattr(hull, "diagnose", lambda _: claimed)
        monkeypatch.setattr(hull, "BASIS_ENUMERATION_WORK", 10**6)
        report = check_sufficiency(inst, samples=12, seed=7)
        monkeypatch.undo()
        cuts = hull_cut_family(inst)
        vrep = v_representation(inst)
        draws = random.Random(7)
        want = []
        for s in range(12):
            y, z = fraction_projection(inst, cuts, fraction_box_point(draws, 3), s % 2)
            if not fraction_membership(vrep, y, complement(z)).inside:
                want.append(f"projected sample {s} outside hull: y={y} z={z}")
        family = _cut_matrix(inst, family_rows(inst))
        for y, z in vertex_points(_cut_polyhedron_vertices(family, 10**6), 2):
            if not fraction_membership(vrep, y, complement(z)).inside:
                want.append(f"cut-polyhedron vertex outside hull: {y} {z}")
        assert report.failures == tuple(want) and not report.ok
        failed += len(want)
    assert failed >= 4


def lowest_terms(vertices):
    """Fraction vertices ``(y, z)`` as ``(numerators, denominator)`` in
    lowest terms with a positive denominator."""
    out = []
    for y, z in vertices:
        den = math.lcm(*(v.denominator for v in y + z))
        out.append((tuple(v.numerator * (den // v.denominator) for v in y + z), den))
    return out


def in_library_order(vertices, k):
    """Fraction vertices sorted into the order ``_cut_polyhedron_vertices``
    documents, read back as ``(y, z)``; None stays None."""
    if vertices is None:
        return None
    return vertex_points(sorted(lowest_terms(vertices)), k)


def enumeration_cases(rng):
    """``(label, inst, cuts, work bound)``: hull families with some cuts
    repeated at random places, with one z column zeroed in every cut, and
    cuts at k = 3 and at n = 4 under a bound above the default."""
    for _ in range(8):
        inst = random_sufficient_instance(rng, rng.randint(2, 3), rng.randint(1, 2))
        cuts = hull_cut_family(inst)
        for cut in rng.sample(cuts, min(3, len(cuts))):
            cuts.insert(rng.randrange(len(cuts) + 1), cut)
        yield "duplicates", inst, cuts, BASIS_ENUMERATION_WORK
    for _ in range(8):
        inst = random_sufficient_instance(rng, rng.randint(2, 3), rng.randint(1, 2))
        i = rng.randrange(inst.n)
        cuts = [
            LinearCut(
                cut.y_coeffs,
                [0 if t == i else b for t, b in enumerate(cut.z_coeffs)],
                cut.rhs,
                cut.kind,
            )
            for cut in hull_cut_family(inst)
        ]
        yield "zero column", inst, cuts, BASIS_ENUMERATION_WORK
    # The Fraction oracle solves every basis, so the larger cells keep only
    # the first few cuts of their family.
    for n in (1, 2, 3):
        inst = random_sufficient_instance(rng, n, 3)
        yield "k = 3", inst, hull_cut_family(inst)[:5], 10_000
    for k, count in ((1, 6), (2, 3)):
        inst = random_sufficient_instance(rng, 4, k, rng.random() < 0.5)
        yield "n = 4", inst, hull_cut_family(inst)[:count], 10_000


def test_depth_first_basis_enumeration_equals_the_fraction_oracle():
    """The vertices the oracle's basis enumeration finds, each in lowest
    terms, in the library's order, on repeated cuts, a zero z column and
    k = 3 or n = 4: every ray is read in lowest terms, or duplicates and
    vertices would differ."""
    rng = random.Random(8085)
    compared = set()
    for label, inst, cuts, bound in enumeration_cases(rng):
        got = _cut_polyhedron_vertices(cut_matrix(inst, cuts), bound)
        want = fraction_cut_polyhedron_vertices(inst, cuts, bound)
        assert (got is None) == (want is None), label
        if got is not None:
            assert got == sorted(lowest_terms(want)), label
            compared.add(label)
    assert compared == {"duplicates", "zero column", "k = 3", "n = 4"}


# The Fraction oracle solves every basis at about 0.1 ms each, so each
# differential case drops random cuts until its system has at most this many.
ORACLE_BASES = 240


def differential_instance(rng: random.Random, index: int):
    """``(label, inst)`` with n <= 4 and k <= 3, by ``index``: sufficient
    (some with a low row), insufficient by each condition, kernel draws
    (zero weights, ties, duplicate rows, a zero column), epsilon = 0, and
    epsilon at or above every row sum.  One in sixteen has any size; the
    others keep n + k <= 4, where more of a hull family fits the oracle,
    and an insufficient one takes the least size its condition allows."""
    kind, large = index % 6, index % 16 == 0
    while True:
        n, k = rng.randint(1, 4), rng.randint(1, 3)
        if large or n + k <= 4:
            break
    if kind == 0:
        n = max(n, 2)
        return "sufficient", random_sufficient_instance(rng, n, k, n == 3)
    if kind == 1:
        case = ("lw", "c1", "c2")[index // 6 % 3]
        n = 3 if case == "c2" else 2
        return case, random_insufficient_instance(rng, n, 2, case)
    inst = kernel_instance(rng, n, k)
    if kind == 2:
        return "kernel", inst
    weights = [list(row) for row in inst.weights]
    if kind == 3:
        return "epsilon = 0", MixingInstance(weights, None, 0)
    top = max(sum(row) for row in weights) + Fraction(rng.randint(0, 3), 2)
    return "epsilon >= row sums", MixingInstance(weights, None, top)


def differential_cases(rng: random.Random, count: int):
    """``(label, inst, cuts, bound)``: the hull family of each differential
    instance, cut down at random to at most ``ORACLE_BASES`` bases or to one
    cut, and its number of bases.  Every other one then repeats one or two
    of the kept cuts at random places (counted in the bound): the zero sets
    of repeated rows grow without their rank, where only the combinatorial
    adjacency test keeps a non-adjacent pair apart."""
    for index in range(count):
        label, inst = differential_instance(rng, index)
        cuts = hull_cut_family(inst)
        repeats = index % 2 * rng.randint(1, 2)
        box, d = inst.k + 2 * inst.n, inst.k + inst.n
        while len(cuts) > 1 and math.comb(len(cuts) + repeats + box, d) > ORACLE_BASES:
            cuts.pop(rng.randrange(len(cuts)))
        for _ in range(repeats):
            cuts.insert(rng.randrange(len(cuts) + 1), rng.choice(cuts))
        if repeats:
            label += ", repeated cuts"
        yield label, inst, cuts, math.comb(len(cuts) + box, d)


def test_double_description_equals_the_fraction_oracle():
    """Every vertex of the oracle's basis enumeration and no other, each
    once, in lowest terms and in ascending ``(numerators, denominator)``
    order, on 312 systems: an adjacency test that let a non-adjacent pair
    through, or a ray left unreduced, would change the list."""
    rng = random.Random(8087)
    labels = set()
    vertices = cut_rows = 0
    for label, inst, cuts, bound in differential_cases(rng, 312):
        got = _cut_polyhedron_vertices(cut_matrix(inst, cuts), bound)
        want = fraction_cut_polyhedron_vertices(inst, cuts, bound)
        assert got == sorted(set(lowest_terms(want))), (label, inst, cuts)
        assert len(set(got)) == len(got)
        labels.add(label.split(",")[0])
        vertices += len(got)
        cut_rows += len(cuts)
    assert labels == {
        "sufficient", "lw", "c1", "c2", "kernel", "epsilon = 0", "epsilon >= row sums"
    }
    assert vertices >= 1500 and cut_rows >= 1000


def example_certificates(inst, y, z):
    """The common-denominator system membership checks against, and the
    result of the LP over a row-scaled copy (each row times its rhs's
    denominator) with the row scales."""
    vrep = v_representation(inst)
    target = [Fraction(v) for v in z] + [Fraction(1)] + [Fraction(v) for v in y]
    rows, row_scales = vrep.lp_matrix
    a_rows, b, scales = [], [], []
    for row, row_scale, t in zip(rows, row_scales, target):
        scale = row_scale * t.denominator
        a_rows.append([v * t.denominator for v in row])
        b.append(t.numerator * row_scale)
        scales.append(scale)
    result = solve_feasibility(a_rows, b)
    den, common = vrep.common_matrix
    target_den = 1
    for t in target:
        target_den *= t.denominator
    rhs = [t.numerator * (target_den // t.denominator) for t in target]
    return common, den, target_den, rhs, result, scales


def test_tampered_x_fails_the_integer_check():
    inst = MixingInstance([[3, 1], [1, 4], [2, 2]], None, Fraction(7, 2))
    points = fraction_vertices(v_representation(inst)).points
    (y1, z1), (y2, z2) = points[2], points[-1]
    y = ((y1[0] + 2 * y2[0]) / 3 + Fraction(1, 5), (y1[1] + 2 * y2[1]) / 3)
    z = tuple(Fraction(a + 2 * b, 3) for a, b in zip(z1, z2))
    common, den, target_den, rhs, result, _ = example_certificates(inst, y, z)
    assert result.feasible
    x = [target_den * v for v in result.x]
    # the vertex list's own columns, which are those of its common matrix
    columns = v_representation(inst).columns
    assert list(columns) == columns_of(common)
    assert verify_feasible(columns, rhs, support(x), den * result.den)
    for j in range(len(x)):
        for step in (1, -1):
            tampered = list(x)
            tampered[j] += step
            # a zero entry left in the support is rejected as well
            for entries in (support(tampered), list(enumerate(tampered))):
                assert not verify_feasible(columns, rhs, entries, den * result.den)


TAMPERS = {
    # the sums over the support no longer hold
    "entry + 1": lambda columns, support: [(support[0][0], support[0][1] + 1)]
    + support[1:],
    # the sums still hold, only the sign check rejects it
    "negative entry": lambda columns, support: support + [(support[0][0], -1)]
    + [(support[0][0], 1)],
    # a column one past the matrix's last (the name is the row length's)
    "column past the rows": lambda columns, support: support + [(len(columns), 1)],
}


@pytest.mark.parametrize("entry", ["decompose", "membership"])
@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_tampered_support_raises(monkeypatch, entry, tamper):
    """Both certificates reach the checker as a support; a tampered one
    fails it, and the entry point raises."""
    inst = MixingInstance([[3, 1], [1, 4], [2, 2]], None, Fraction(7, 2))
    vrep = v_representation(inst)
    y, z = (Fraction(2), Fraction(2)), (0, 0, 0)
    check = chain_certificate if entry == "decompose" else membership_at
    assert check(vrep, y, z).inside

    def tampered(columns, rhs, support, den):
        return verify_feasible(columns, rhs, TAMPERS[tamper](columns, list(support)), den)

    monkeypatch.setattr(vertices, "verify_feasible", tampered)
    with pytest.raises(InternalInvariant):
        check(vrep, y, z)


def test_tampered_farkas_vector_fails_the_integer_check():
    inst = MixingInstance([[3, 1], [1, 4], [2, 2]], None, Fraction(7, 2))
    y, z = (Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 3), 0)
    common, _, _, rhs, result, scales = example_certificates(inst, y, z)
    assert not result.feasible
    u = [s * v for s, v in zip(scales, result.farkas)]
    assert verify_farkas(common, rhs, u)
    # the LP's own vector, not mapped back through the row scales
    assert list(result.farkas) != u
    big = 1 + max(abs(v) for v in u) * max(abs(v) for row in common for v in row)
    for i in range(len(u)):
        tampered = list(u)
        tampered[i] += big  # every row has a positive entry somewhere
        assert not verify_farkas(common, rhs, tampered)
        if rhs[i] > 0:
            tampered[i] = u[i] - big * (1 + sum(abs(v) for v in rhs))
            assert not verify_farkas(common, rhs, tampered)
    assert not verify_farkas(common, rhs, [-v for v in u])


@pytest.mark.parametrize("delta", [1, -1])
def test_corrupted_cached_lp_row_raises(delta):
    # (eps * e_1, z = 0) is an extreme point listed once, so every answer the
    # corrupted LP can give uses its column and fails the check against the
    # common-denominator matrix
    inst = MixingInstance([[3, 1], [1, 4], [2, 2]], None, Fraction(7, 2))
    vrep = v_representation(inst)
    y, z = (Fraction(7, 2), Fraction(0)), (0, 0, 0)
    column = fraction_vertices(vrep).points.index((y, z))
    assert membership_at(vrep, y, z).inside
    rows, scales = vrep.lp_matrix
    corrupted = [list(row) for row in rows]
    corrupted[vrep.n + 1][column] += delta
    vrep.__dict__["lp_matrix"] = (tuple(map(tuple, corrupted)), scales)
    with pytest.raises(InternalInvariant):
        membership_at(vrep, y, z)


def test_check_validity_equals_evaluation_at_every_point():
    rng = random.Random(8083)
    verdicts = set()
    for _ in range(40):
        inst = kernel_instance(rng)
        vrep = v_representation(inst)
        points = fraction_vertices(vrep).points
        for _ in range(5):
            cut = LinearCut(
                [Fraction(rng.randint(0, 4), rng.choice(DENS)) for _ in range(inst.k)],
                [Fraction(rng.randint(-3, 9), rng.choice(DENS)) for _ in range(inst.n)],
                Fraction(rng.randint(0, 30), rng.choice(DENS)),
            )
            want = all(
                cut.lhs(y, tuple(1 - v for v in z)) >= cut.rhs for y, z in points
            )
            assert check_validity(inst, cut, vrep) == want, (inst, cut)
            verdicts.add(want)
    assert verdicts == {True, False}
