"""Helpers that only the tests use: canonical cuts, the brute-force
submodularity check, weighted oracle combinations, the linking-dominance
test of one sequence, polymatroid separation and the mixing separation
built on it, and the ``Fraction`` closure-check oracle (membership
LP, projection and basis enumeration as they were before the integer
kernel)."""

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from mixcuts import (
    CutKind,
    DimensionMismatch,
    InternalInvariant,
    DomainError,
    GroundSetTooLarge,
    LinearCut,
    LowerBoundsNotReduced,
    MixingInstance,
    SequenceTheta,
    column_oracle,
    complement,
    greedy_vertex,
    l_theta,
    parse_rational,
)
from mixcuts.submodular import SetFunctionOracle
from mixcuts.vertices import MembershipResult, SeparatingHyperplane, VRepresentation

BRUTE_FORCE_BOUND = 16


def canonicalize(cut: LinearCut) -> LinearCut:
    """Scale a cut to coprime integer coefficients; direction is preserved.

    Idempotent, and the scaling factor is a positive rational, so the feasible
    half-space is exactly unchanged.  Raises ``AllZeroCut`` on the zero
    inequality.
    """
    ints = cut.canonical_key()
    k = cut.k
    return LinearCut(
        [Fraction(v) for v in ints[:k]],
        [Fraction(v) for v in ints[k : k + cut.n]],
        Fraction(ints[-1]),
        cut.kind,
    )


def dominates_linking(inst: MixingInstance, theta: SequenceTheta) -> bool:
    """Whether the sequence's aggregated cut implies sum_j y_j >= epsilon
    over the unit box (exactly when epsilon <= L(Theta))."""
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("reduce lower bounds first")
    return inst.epsilon <= l_theta(inst, theta)


def is_submodular(f: SetFunctionOracle) -> bool:
    """Brute-force submodularity check via the adjacent-exchange condition.

    f(S+i) - f(S) >= f(S+i+j) - f(S+j) for all S and i, j not in S; this is
    equivalent to the pairwise definition but costs O(2^n n^2) evaluations
    instead of O(4^n).
    """
    n = f.ground_size
    if n > BRUTE_FORCE_BOUND:
        raise GroundSetTooLarge(
            f"ground set {n} exceeds brute-force bound {BRUTE_FORCE_BOUND}"
        )
    for mask in range(1 << n):
        outside = [i for i in range(n) if not mask & (1 << i)]
        for a in range(len(outside)):
            i = outside[a]
            gain_i = f.value(mask | 1 << i) - f.value(mask)
            for b in range(a + 1, len(outside)):
                j = outside[b]
                with_j = mask | 1 << j
                if gain_i < f.value(with_j | 1 << i) - f.value(with_j):
                    return False
    return True


def weighted_combination(
    fs: Sequence[SetFunctionOracle], weights: Sequence[Fraction]
) -> SetFunctionOracle:
    """The oracle S -> sum_j c_j f_j(S) for nonnegative weights c."""
    if len(fs) != len(weights):
        raise DimensionMismatch("one weight per oracle required")
    if not fs:
        raise DimensionMismatch("need at least one oracle")
    n = fs[0].ground_size
    if any(f.ground_size != n for f in fs):
        raise DimensionMismatch("oracles must share a ground set")
    coeffs = [parse_rational(c) for c in weights]
    if any(c < 0 for c in coeffs):
        raise DomainError("weights must be nonnegative")
    pairs = [(c, f) for c, f in zip(coeffs, fs) if c != 0]

    def combined(mask: int) -> Fraction:
        return sum((c * f.value(mask) for c, f in pairs), Fraction(0))

    return SetFunctionOracle(n, combined, name="weighted-combination")


def separate_polymatroid(
    f: SetFunctionOracle, y_bar: Fraction, z_bar: Sequence[Fraction]
) -> Optional[LinearCut]:
    """Most violated epigraph inequality y >= pi . z + f({}), or None.

    Returns None exactly when (y_bar, z_bar) lies in the convex hull of the
    epigraph of f, because the greedy vertex maximizes pi . z_bar.
    """
    z = [parse_rational(v) for v in z_bar]
    if any(v < 0 or v > 1 for v in z):
        raise DomainError(f"point outside [0,1]^{f.ground_size}: {z}")
    vertex = greedy_vertex(f, z)
    offset = f.value(0)
    bound = sum((p * v for p, v in zip(vertex.pi, z)), offset)
    if parse_rational(y_bar) >= bound:
        return None
    return LinearCut(
        (Fraction(1),),
        tuple(-p for p in vertex.pi),
        offset,
        CutKind.POLYMATROID,
    )


def round_trip_mixing(
    inst: MixingInstance, y_bar: Sequence[Fraction], z_bar: Sequence[Fraction]
) -> list[LinearCut]:
    """Mixing separation through polymatroid separation: each column's
    epigraph cut y_j >= pi.(1 - z) + lower_j over the complemented point,
    rewritten as y_j + pi.z >= lower_j + sum(pi)."""
    y = [parse_rational(v) for v in y_bar]
    z = [parse_rational(v) for v in z_bar]
    if len(y) != inst.k or len(z) != inst.n:
        raise DimensionMismatch("point dimensions disagree with instance")
    if any(v < 0 or v > 1 for v in z):
        raise DomainError("z outside the unit box")
    cuts = []
    for j in range(inst.k):
        raw = separate_polymatroid(column_oracle(inst, j), y[j], complement(z))
        if raw is None:
            continue
        pi = tuple(-b for b in raw.z_coeffs)
        e_j = [Fraction(0)] * inst.k
        e_j[j] = Fraction(1)
        cuts.append(
            LinearCut(e_j, pi, inst.lower[j] + sum(pi, Fraction(0)), CutKind.MIX_STAR)
        )
    return cuts


# ---------------------------------------------------------------------------
# The Fraction oracle for the closure check.  ``fraction_solve_feasibility``
# is the phase-1 simplex with its own integer tableau and a Fraction front
# end that scales each row by the lcm of its denominators; it shares no code
# with ``mixcuts.exactlp``, so a change to the library kernel that alters a
# pivot, x or the Farkas vector shows as a difference.
# ---------------------------------------------------------------------------


def scale_rows(
    a_rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> tuple[list[list[int]], list[int], list[int]]:
    """Clear denominators row by row (positive scaling keeps the system intact)."""
    int_rows: list[list[int]] = []
    int_b: list[int] = []
    scales: list[int] = []
    for row, rhs in zip(a_rows, b):
        rhs = Fraction(rhs)
        scale = math.lcm(*(Fraction(v).denominator for v in row), rhs.denominator)
        int_rows.append([int(v * scale) for v in row])
        int_b.append(int(rhs * scale))
        scales.append(scale)
    return int_rows, int_b, scales


def fraction_solve_feasibility(a_rows, b):
    """``(feasible, x, farkas)`` for {x >= 0 : Ax = b} over the rationals,
    with Bland's rule on the row-scaled integer tableau."""
    m = len(a_rows)
    ncols = len(a_rows[0]) if m else 0
    rows, rhs, scales = scale_rows(a_rows, b)
    sign = [1] * m
    for i in range(m):
        if rhs[i] < 0:
            sign[i] = -1
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    width = ncols + m + 1
    tab = []
    for i in range(m):
        row = rows[i] + [0] * m + [rhs[i]]
        row[ncols + i] = 1
        tab.append(row)
    cost = [0] * width
    for j in range(ncols):
        cost[j] = -sum(tab[i][j] for i in range(m))
    cost[width - 1] = -sum(rhs)
    basis = list(range(ncols, ncols + m))
    den = 1
    while True:
        enter = next((j for j in range(ncols) if cost[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        best_num = best_den = 0
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                num = tab[i][width - 1]
                if leave < 0 or num * best_den < best_num * coef or (
                    num * best_den == best_num * coef and basis[i] < basis[leave]
                ):
                    leave, best_num, best_den = i, num, coef
        if leave < 0:
            raise InternalInvariant("phase-1 objective unbounded")
        pivot = tab[leave][enter]
        prow = tab[leave]
        for i in range(m + 1):
            row = cost if i == m else tab[i]
            if row is prow:
                continue
            factor = row[enter]
            for j in range(width):
                q, r = divmod(row[j] * pivot - factor * prow[j], den)
                if r:
                    raise InternalInvariant("integer pivot division not exact")
                row[j] = q
        den = pivot
        basis[leave] = enter
    if cost[width - 1] == 0:
        x = [Fraction(0)] * ncols
        for i, var in enumerate(basis):
            if var < ncols:
                x[var] = Fraction(tab[i][width - 1], den)
        return True, tuple(x), None
    farkas = tuple(
        Fraction(sign[i] * scales[i]) * (1 - Fraction(cost[ncols + i], den))
        for i in range(m)
    )
    return False, None, farkas


def fraction_verify_feasible(a_rows, b, x) -> bool:
    """Whether x >= 0 and Ax = b, in Fractions."""
    return all(v >= 0 for v in x) and all(
        sum((a * v for a, v in zip(row, x)), Fraction(0)) == rhs
        for row, rhs in zip(a_rows, b)
    )


def fraction_verify_farkas(a_rows, b, u) -> bool:
    """Whether u.A <= 0 in every column and u.b > 0, in Fractions."""
    ncols = len(a_rows[0]) if a_rows else 0
    return all(
        sum((u[i] * a_rows[i][j] for i in range(len(a_rows))), Fraction(0)) <= 0
        for j in range(ncols)
    ) and sum((ui * bi for ui, bi in zip(u, b)), Fraction(0)) > 0


def fraction_membership(
    vrep: VRepresentation, y: Sequence[Fraction], z: Sequence[Fraction]
) -> MembershipResult:
    """The membership LP built in Fractions, solved and checked by the oracle."""
    n = vrep.n
    npts = len(vrep.points)
    columns = vrep.points + vrep.rays
    a_rows = [[Fraction(cz[i]) for _, cz in columns] for i in range(n)]
    a_rows.append([Fraction(1)] * npts + [Fraction(0)] * len(vrep.rays))
    a_rows += [[Fraction(cy[j]) for cy, _ in columns] for j in range(vrep.k)]
    b = [Fraction(v) for v in z] + [Fraction(1)] + [Fraction(v) for v in y]
    feasible, x, u = fraction_solve_feasibility(a_rows, b)
    if feasible:
        if not fraction_verify_feasible(a_rows, b, x):
            raise InternalInvariant("oracle membership certificate failed")
        return MembershipResult(True, x[:npts], x[npts:], None)
    if not fraction_verify_farkas(a_rows, b, u):
        raise InternalInvariant("oracle separating hyperplane failed")
    plane = SeparatingHyperplane(tuple(u[n + 1 :]), tuple(u[:n]), -u[n])
    return MembershipResult(False, None, None, plane)


def fraction_projection(
    inst: MixingInstance,
    cuts: Sequence[LinearCut],
    z: Sequence[Fraction],
    deficit_column: int = 0,
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The cheapest y over z satisfying every cut, in Fractions."""
    z = tuple(Fraction(v) for v in z)
    y = [Fraction(0)] * inst.k
    total_floor = Fraction(0)
    for cut in cuts:
        support = [j for j, a in enumerate(cut.y_coeffs) if a != 0]
        need = cut.rhs - sum((b * v for b, v in zip(cut.z_coeffs, z)), Fraction(0))
        if len(support) == 1 and cut.y_coeffs[support[0]] == 1:
            y[support[0]] = max(y[support[0]], need)
        elif all(a == 1 for a in cut.y_coeffs):
            total_floor = max(total_floor, need)
        else:
            raise InternalInvariant(f"unexpected cut shape {cut.y_coeffs}")
    shortfall = total_floor - sum(y, Fraction(0))
    if shortfall > 0:
        y[deficit_column] += shortfall
    return tuple(y), z


def fraction_cut_polyhedron_vertices(
    inst: MixingInstance, cuts: Sequence[LinearCut], work_bound: int
) -> Optional[list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]]:
    """Vertices of the cuts plus y >= 0, 0 <= z <= 1 by basis enumeration in
    Fractions, or None over the work bound."""
    d = inst.k + inst.n
    rows = [(tuple(c.y_coeffs) + tuple(c.z_coeffs), c.rhs) for c in cuts]

    def unit(j, value):
        return tuple(Fraction(value if i == j else 0) for i in range(d))

    rows += [(unit(j, 1), Fraction(0)) for j in range(inst.k)]
    for i in range(inst.n):
        rows += [(unit(inst.k + i, 1), Fraction(0)), (unit(inst.k + i, -1), Fraction(-1))]
    if math.comb(len(rows), d) > work_bound:
        return None
    vertices = []
    seen = set()
    for combo in itertools.combinations(rows, d):
        solution = fraction_solve_square(combo)
        if solution is None:
            continue
        if all(
            sum((c * v for c, v in zip(coeff, solution)), Fraction(0)) >= rhs
            for coeff, rhs in rows
        ) and solution not in seen:
            seen.add(solution)
            vertices.append((solution[: inst.k], solution[inst.k :]))
    return vertices


def fraction_solve_square(rows) -> Optional[tuple[Fraction, ...]]:
    """Gauss-Jordan in Fractions; None when the square system is singular."""
    d = len(rows)
    mat = [list(coeff) + [rhs] for coeff, rhs in rows]
    for col in range(d):
        pivot = next((r for r in range(col, d) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [v * inv for v in mat[col]]
        for r in range(d):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return tuple(mat[r][d] for r in range(d))
