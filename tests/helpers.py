"""Helpers that only the tests use, among them the ``Fraction`` references
that the library's integer code is compared against.

- Canonical cuts, the brute-force submodularity check, weighted oracle
  combinations and the linking-dominance test of one sequence.
- The cut builders as the paper defines them: per-column suffix-maxima
  chains and their telescoped sum, L(Theta), the mixing cut of one chain,
  the aggregated cut of one sequence, and the chain loop of the mixing and
  hull families with deduplication on canonical forms.
- The ``Fraction`` column and linking oracles, polymatroid separation and
  the mixing separation built on it, and the ``Fraction`` greedy separation
  of the aggregated family.
- The ``Fraction`` closure-check oracle: membership LP (on the target's
  face, as the library solves it, and over every column), box-point draws,
  projection and basis enumeration as they were before the integer kernel,
  and the cut matrix of any list of cuts, read off their ``Fraction``
  coefficients.
- ``Fraction`` front ends of the closure check's integer entries: the
  projection, the basis vertices, the chain certificate and the membership
  LP; a point's complement 1 - z, which the library no longer offers; an
  inside certificate read as ``Fraction`` multipliers, or in lowest
  terms.
- The closure check as it ran one sample at a time, before its draws were
  kept and its starred rows read as columns: the reference that
  ``check_sufficiency`` is compared against field by field.
- The column view of a row-form integer system, the form
  ``exactlp.verify_feasible`` reads.
- The ``Fraction`` vertex list and band hull: floors, deficits, the band
  check and the clipping in ``Fraction`` arithmetic; a vertex list's points
  read as ``Fraction``s, and a vertex list built by hand from them.
- The ``Fraction`` witness points: the three closed forms and their
  dispatch, each written out on its own.
- An instance's column and row sum, which the library no longer offers.
- The point check and scaling as two passes over ``Fraction``s, the
  reference for ``core.integer_point``; the check alone was
  ``core.check_point``.
- The instance constructor as it was before it read integer ratios: every
  entry parsed to a ``Fraction``, the integer view computed from them.
"""

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from mixcuts import (
    CutKind,
    DimensionMismatch,
    InternalInvariant,
    InvalidSequence,
    DomainError,
    GroundSetTooLarge,
    LinearCut,
    LowerBoundsNotReduced,
    MixingInstance,
    ParseError,
    PolymatroidVertex,
    SequenceTheta,
    TwoSidedData,
    diagnose,
    greedy_vertex,
    max_sum_oracle,
    parse_rational,
    sequences,
    to_mixing,
)
from mixcuts.core import ValidationError, _fracs
from mixcuts import hull
from mixcuts.hull import CutMatrix, hull_cut_family, project_to_cut_polyhedron
from mixcuts.submodular import SetFunctionOracle
from mixcuts.vertices import (
    MembershipResult,
    SeparatingHyperplane,
    VRepresentation,
    decompose as chain_decompose,
    membership,
    v_representation,
)

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


# ---------------------------------------------------------------------------
# The Fraction reference for the cut builders.  Chains and L(Theta) follow
# their definitions as suffix quantities of the whole sequence, and each cut
# is built from them in Fractions; nothing here shares code with the
# library's prepend step or its column builder.
# ---------------------------------------------------------------------------


def column(inst: MixingInstance, j: int) -> tuple[Fraction, ...]:
    """Column j of the instance's weights: every row's value in it."""
    return tuple(row[j] for row in inst.weights)


def row_sum(inst: MixingInstance, i: int) -> Fraction:
    """The sum of row i of the instance's weights."""
    return sum(inst.weights[i], Fraction(0))


def decompose(inst: MixingInstance, theta: SequenceTheta) -> tuple[tuple[int, ...], ...]:
    """Per-column suffix-maxima subsequences of a sequence, by one
    right-to-left scan per column: an index stays if its column value is >=
    every value after it in the sequence; the last index always stays."""
    theta.validate_for(inst.n)
    per_column = []
    for j in range(inst.k):
        col = column(inst, j)
        suffix_max = Fraction(0)
        kept: list[int] = []
        for i in reversed(theta.indices):
            if col[i] >= suffix_max:
                kept.append(i)
            if col[i] > suffix_max:
                suffix_max = col[i]
        per_column.append(tuple(reversed(kept)))
    return tuple(per_column)


def telescope(
    chains: Sequence[Sequence[int]], columns: Sequence[Sequence[Fraction]], n: int
) -> tuple[list[Fraction], Fraction]:
    """Each column's chain telescoped on that column's values, summed over
    the columns: index i's coefficient is, over every chain through it, its
    value minus the next value in the chain (0 after the last), and the
    right-hand side is the sum of the chain heads' values.  ``columns[j][i]``
    is index i's value in column j."""
    coeffs = [Fraction(0)] * n
    rhs = Fraction(0)
    for chain, col in zip(chains, columns):
        values = [Fraction(col[i]) for i in chain] + [Fraction(0)]
        for s, i in enumerate(chain):
            coeffs[i] += values[s] - values[s + 1]
        rhs += values[0]
    return coeffs, rhs


def l_theta(inst: MixingInstance, theta: SequenceTheta) -> Fraction:
    """Aggregation constant of a sequence: the smallest over positions t of
    sum_j min(w[i_t][j], best value after t in column j); the last position
    has nothing after it and contributes its full row sum."""
    theta.validate_for(inst.n)
    idx = theta.indices
    best = row_sum(inst, idx[-1])
    suffix_max = list(inst.weights[idx[-1]])
    for t in range(len(idx) - 2, -1, -1):
        row = inst.weights[idx[t]]
        term = sum((min(row[j], suffix_max[j]) for j in range(inst.k)), Fraction(0))
        best = min(best, term)
        suffix_max = [max(a, b) for a, b in zip(row, suffix_max)]
    return best


def mixing_cut(inst: MixingInstance, j: int, chain: Sequence[int]) -> LinearCut:
    """Telescoped inequality of a nonempty chain of column j, checked to be
    nonincreasing and at or above lower_j; starred when the chain head
    attains the column maximum."""
    chain = tuple(chain)
    if not chain:
        raise InvalidSequence("mixing chain must be nonempty")
    if not 0 <= j < inst.k:
        raise InvalidSequence(f"column {j} out of range")
    if any(not 0 <= i < inst.n for i in chain):
        raise InvalidSequence(f"chain {chain} exceeds ground set")
    col = column(inst, j)
    values = [col[i] for i in chain] + [inst.lower[j]]
    if any(a < b for a, b in zip(values, values[1:])):
        raise InvalidSequence(f"column {j} values not nonincreasing: {values}")
    coeffs = [Fraction(0)] * inst.n
    for s, i in enumerate(chain):
        coeffs[i] += values[s] - values[s + 1]
    y = [Fraction(0)] * inst.k
    y[j] = Fraction(1)
    kind = CutKind.MIX_STAR if values[0] == max(column(inst, j)) else CutKind.MIX
    return LinearCut(y, coeffs, values[0], kind)


def fraction_aggregated_cut(inst: MixingInstance, theta: SequenceTheta) -> LinearCut:
    """The per-column mixing cuts of the sequence's chains summed, minus
    min(epsilon, L(Theta)) on its last index; starred when every chain head
    attains its column maximum and epsilon <= L(Theta)."""
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("reduce lower bounds before aggregating")
    coeffs = [Fraction(0)] * inst.n
    rhs = Fraction(0)
    star = True
    for j, chain in enumerate(decompose(inst, theta)):
        cut = mixing_cut(inst, j, chain)
        coeffs = [a + b for a, b in zip(coeffs, cut.z_coeffs)]
        rhs += cut.rhs
        star = star and cut.kind is CutKind.MIX_STAR
    l = l_theta(inst, theta)
    coeffs[theta.last] -= min(inst.epsilon, l)
    kind = CutKind.AMIX_STAR if star and inst.epsilon <= l else CutKind.AMIX
    return LinearCut([Fraction(1)] * inst.k, coeffs, rhs, kind)


def dedup_canonical(cuts) -> list[LinearCut]:
    """The cuts with each canonical form kept at its first occurrence."""
    seen = set()
    kept = []
    for cut in cuts:
        if cut.canonical_key() not in seen:
            seen.add(cut.canonical_key())
            kept.append(cut)
    return kept


def fraction_chain_cuts(
    inst: MixingInstance, j: int, star_only: bool, max_chains: Optional[int] = None
) -> list[LinearCut]:
    """The mixing family of a column by the chain loop: chains of distinct
    values at or above lower_j, one representative index per value, headed
    by each index in turn from the largest value down (only the largest with
    ``star_only``), the tail patterns in ``itertools.product`` order; the
    first ``max_chains`` chains, deduplicated on canonical forms."""
    col = column(inst, j)
    values = sorted({w for w in col if w >= inst.lower[j]}, reverse=True)
    groups = [[i for i, w in enumerate(col) if w == v] for v in values]
    cuts = []
    for start, head_group in enumerate(groups[:1] if star_only else groups):
        for head in head_group:
            options = [[None] + g for g in groups[start + 1 :]]
            for pattern in itertools.product(*options):
                if len(cuts) == max_chains:
                    return dedup_canonical(cuts)
                chain = (head,) + tuple(i for i in pattern if i is not None)
                cuts.append(mixing_cut(inst, j, chain))
    return dedup_canonical(cuts)


def fraction_hull_cut_family(inst: MixingInstance) -> list[LinearCut]:
    """Starred mixing cuts of every column, the starred aggregated cuts over
    sequences avoiding the low rows in :func:`sequences` order, and the
    linking row when epsilon > 0, deduplicated on canonical forms."""
    outside = sorted(set(range(inst.n)) - diagnose(inst).i_bar)
    candidates = [c for j in range(inst.k) for c in fraction_chain_cuts(inst, j, True)]
    for theta in sequences(outside):
        cut = fraction_aggregated_cut(inst, theta)
        if cut.kind is CutKind.AMIX_STAR:
            candidates.append(cut)
    if inst.epsilon > 0:
        candidates.append(
            LinearCut([1] * inst.k, [0] * inst.n, inst.epsilon, CutKind.LINKING)
        )
    return dedup_canonical(candidates)


def cut_matrix(inst: MixingInstance, cuts: Sequence[LinearCut]) -> CutMatrix:
    """The cuts over the least common denominator of their coefficients;
    raises ``InternalInvariant`` on a cut of neither shape."""
    shapes = []
    for cut in cuts:
        support = [j for j, a in enumerate(cut.y_coeffs) if a != 0]
        if len(support) == 1 and cut.y_coeffs[support[0]] == 1:
            shapes.append(support[0])
        elif all(a == 1 for a in cut.y_coeffs):
            shapes.append(-1)
        else:
            raise InternalInvariant(f"unexpected cut shape {cut.y_coeffs}")
    entries = [cut.y_coeffs + cut.z_coeffs + (cut.rhs,) for cut in cuts]
    scale = math.lcm(*(v.denominator for row in entries for v in row))
    scaled = [
        tuple(v.numerator * (scale // v.denominator) for v in row) for row in entries
    ]
    return CutMatrix(
        inst.k,
        inst.n,
        scale,
        tuple(row[:-1] for row in scaled),
        tuple(row[-1] for row in scaled),
        tuple(shapes),
    )


def dominates_linking(inst: MixingInstance, theta: SequenceTheta) -> bool:
    """Whether the sequence's aggregated cut implies sum_j y_j >= epsilon
    over the unit box (exactly when epsilon <= L(Theta))."""
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("reduce lower bounds first")
    return inst.epsilon <= l_theta(inst, theta)


def memoized(f: SetFunctionOracle) -> SetFunctionOracle:
    """The oracle f with a memo: the brute-force checks and the
    permutation sweeps ask for the same masks many times, which the
    library's greedy never does."""
    return SetFunctionOracle(f.ground_size, functools.cache(f._func), f.name)


def column_oracle(inst: MixingInstance, j: int) -> SetFunctionOracle:
    """Oracle z -> max(lower_j, max_i w[i][j] z_i) over indicator bitmasks."""
    return memoized(
        max_sum_oracle(
            [(w,) for w in column(inst, j)], (inst.lower[j],), Fraction(0), f"column-{j}"
        )
    )


def linking_oracle(inst: MixingInstance) -> SetFunctionOracle:
    """Oracle z -> max(epsilon, sum_j column_max_j(z)) over indicator bitmasks."""
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("linking oracle requires zero lower bounds")
    return memoized(max_sum_oracle(inst.weights, inst.lower, inst.epsilon, "linking"))


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


def fraction_greedy_vertex(
    f: SetFunctionOracle, objective: Sequence[Fraction]
) -> PolymatroidVertex:
    """The greedy vertex in ``Fraction`` with its own order, independent of
    the library's: objective descending, ties by ascending index."""
    n = f.ground_size
    order = sorted(range(n), key=lambda i: (-objective[i], i))
    pi = [Fraction(0)] * n
    mask = 0
    prev = f.value(0)
    for i in order:
        mask |= 1 << i
        cur = f.value(mask)
        pi[i] = cur - prev
        prev = cur
    return PolymatroidVertex(tuple(pi), tuple(order))


def fraction_greedy_aggregated(
    inst: MixingInstance, y_bar: Sequence[Fraction], z_bar: Sequence[Fraction]
) -> Optional[LinearCut]:
    """The greedy branch of aggregated separation in ``Fraction``: the
    linking oracle's greedy vertex against 1 - z, its support latest first
    as the sequence, and that sequence's cut when the point violates it.
    Exact over the family when ``diagnose(inst).g_submodular``."""
    y = [parse_rational(v) for v in y_bar]
    z = [parse_rational(v) for v in z_bar]
    vertex = fraction_greedy_vertex(linking_oracle(inst), complement(z))
    support = [i for i in range(inst.n) if vertex.pi[i] != 0]
    if not support:
        return None
    order = {i: t for t, i in enumerate(vertex.permutation)}
    theta = SequenceTheta(sorted(support, key=lambda i: -order[i]))
    cut = fraction_aggregated_cut(inst, theta)
    return cut if cut.violation(y, z) > 0 else None


# ---------------------------------------------------------------------------
# The Fraction oracle for the closure check.  ``fraction_solve_feasibility``
# is the phase-1 simplex with its own integer tableau and a Fraction front
# end that scales each row by the lcm of its denominators; it shares no code
# with ``mixcuts.exactlp``, so a change to the library kernel that alters a
# pivot, x or the Farkas vector shows as a difference.
# ---------------------------------------------------------------------------


def support(x: Sequence[int]) -> list[tuple[int, int]]:
    """The nonzero entries of a dense x as ``(column, value)`` pairs, the
    form ``exactlp.verify_feasible`` reads."""
    return [(j, v) for j, v in enumerate(x) if v]


def columns_of(rows: Sequence[Sequence[int]]) -> list[tuple[tuple[int, int], ...]]:
    """The columns of an integer system given by rows, each as its nonzero
    ``(row, value)`` entries in row order."""
    return [tuple((i, v) for i, v in enumerate(col) if v) for col in zip(*rows)]


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
    """The membership LP built in Fractions on the target's face, solved and
    checked by the oracle, as ``vertices.membership`` solves it: the rows
    where the target's z is 0 and the columns with a nonzero z there are
    dropped, each kept row is scaled by the lcm of its full row's
    denominators, a feasible x gets zeros on the dropped columns, and a
    Farkas vector gets -max(0, u.A_j) over the dropped columns j with a
    nonzero entry in each dropped row.  Both certificates are checked
    against the full system; x is returned in the support form, in lowest
    terms (:func:`support_form`)."""
    n = vrep.n
    a_rows = fraction_rows(fraction_vertices(vrep))
    b = [Fraction(v) for v in z] + [Fraction(1)] + [Fraction(v) for v in y]
    ncols = len(a_rows[0])
    dropped = [i for i in range(n) if b[i] == 0]
    kept = [r for r in range(len(a_rows)) if r not in dropped]
    columns = [j for j in range(ncols) if all(a_rows[i][j] == 0 for i in dropped)]
    scales = [math.lcm(*(v.denominator for v in a_rows[r])) for r in kept]
    face = [[a_rows[r][j] * s for j in columns] for r, s in zip(kept, scales)]
    feasible, x, u = fraction_solve_feasibility(
        face, [b[r] * s for r, s in zip(kept, scales)]
    )
    if feasible:
        full_x = [Fraction(0)] * ncols
        for j, v in zip(columns, x):
            full_x[j] = v
        if not fraction_verify_feasible(a_rows, b, full_x):
            raise InternalInvariant("oracle membership certificate failed")
        return MembershipResult(True, support_form(full_x), None)
    full_u = [Fraction(0)] * len(a_rows)
    for r, s, v in zip(kept, scales, u):
        full_u[r] = s * v
    for i in dropped:
        full_u[i] = -max(
            [Fraction(0)]
            + [
                sum((full_u[r] * a_rows[r][j] for r in kept), Fraction(0))
                for j in range(ncols)
                if a_rows[i][j]
            ]
        )
    return farkas_result(a_rows, b, full_u, n)


def full_fraction_membership(
    vrep: VRepresentation, y: Sequence[Fraction], z: Sequence[Fraction]
) -> MembershipResult:
    """The membership LP built in Fractions over every column of the vertex
    list, solved and checked by the oracle; x is returned in the support
    form, in lowest terms (:func:`support_form`)."""
    n = vrep.n
    a_rows = fraction_rows(fraction_vertices(vrep))
    b = [Fraction(v) for v in z] + [Fraction(1)] + [Fraction(v) for v in y]
    feasible, x, u = fraction_solve_feasibility(a_rows, b)
    if feasible:
        if not fraction_verify_feasible(a_rows, b, x):
            raise InternalInvariant("oracle membership certificate failed")
        return MembershipResult(True, support_form(x), None)
    return farkas_result(a_rows, b, u, n)


def farkas_result(a_rows, b, u, n: int) -> MembershipResult:
    """The "outside" answer of a Farkas vector u of the full system, checked."""
    if not fraction_verify_farkas(a_rows, b, u):
        raise InternalInvariant("oracle separating hyperplane failed")
    plane = SeparatingHyperplane(tuple(u[n + 1 :]), tuple(u[:n]), -u[n])
    return MembershipResult(False, None, plane)


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
        if solution is None or solution in seen:
            continue
        if all(
            sum((c * v for c, v in zip(coeff, solution)), Fraction(0)) >= rhs
            for coeff, rhs in rows
        ):
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


def fraction_box_point(rng, n: int) -> tuple[Fraction, ...]:
    """A point of the unit box drawn as the closure check drew it in
    ``Fraction``s: per coordinate ``rng.choice`` of a denominator d from
    (2, 3, 4, 5), then ``rng.randint(0, d)`` for the numerator."""
    dens = (2, 3, 4, 5)
    return tuple(
        Fraction(rng.randint(0, d), d) for d in (rng.choice(dens) for _ in range(n))
    )


# ---------------------------------------------------------------------------
# Fraction front ends of the closure check's integer entries: each scales a
# Fraction point to integers over the lcm of its denominators, calls the
# library, and reads the answer back as Fractions.
# ---------------------------------------------------------------------------


def project(
    family: CutMatrix, z: Sequence[Fraction], deficit_column: int = 0
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """``hull.project_to_cut_polyhedron`` at a Fraction z, as ``(y, z)``."""
    z = tuple(Fraction(v) for v in z)
    z_den = math.lcm(*(v.denominator for v in z))
    scaled = [v.numerator * (z_den // v.denominator) for v in z]
    y = project_to_cut_polyhedron(family, scaled, z_den, deficit_column)
    return tuple(Fraction(v, family.denominator * z_den) for v in y), z


def vertex_points(vertices, k: int):
    """Basis vertices ``(numerators, denominator)`` as ``(y, z)`` pairs of
    Fractions; None stays None."""
    if vertices is None:
        return None
    points = [tuple(Fraction(v, den) for v in num) for num, den in vertices]
    return [(point[:k], point[k:]) for point in points]


def complement(z: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Map z to 1 - z componentwise (the switch between the two variable
    views)."""
    return tuple(Fraction(1) - parse_rational(v) for v in z)


def target(y: Sequence[Fraction], z: Sequence[Fraction]) -> tuple[list[int], int]:
    """A Fraction point (y, z), z in the indicator view, as the integer
    target (z, 1, y) over the lcm of its denominators, the form
    ``vertices.membership`` and ``vertices.decompose`` take."""
    point = [Fraction(v) for v in z] + [Fraction(1)] + [Fraction(v) for v in y]
    den = math.lcm(*(t.denominator for t in point))
    return [t.numerator * (den // t.denominator) for t in point], den


def membership_at(
    vrep: VRepresentation, y: Sequence[Fraction], z: Sequence[Fraction]
) -> MembershipResult:
    """``vertices.membership`` at a Fraction point (y, z), z in the
    indicator view."""
    return membership(vrep, *target(y, z))


def chain_certificate(
    vrep: VRepresentation, y: Sequence[Fraction], z: Sequence[Fraction]
) -> Optional[MembershipResult]:
    """``vertices.decompose`` at a Fraction point (y, z), z in the indicator
    view, as the ``MembershipResult`` the LP gives, or None."""
    certificate = chain_decompose(vrep, *target(y, z))
    return None if certificate is None else MembershipResult(True, certificate, None)


def multipliers(
    vrep: VRepresentation, certificate
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """An inside certificate ``(support, x_den)`` read as Fractions: the
    multiplier of every point, then of every ray; a column the support
    lists twice is rejected."""
    support, x_den = certificate
    x = [Fraction(0)] * (len(vrep.points) + len(vrep.rays))
    for j, v in support:
        if x[j]:
            raise InternalInvariant(f"column {j} listed twice")
        x[j] = Fraction(v, x_den)
    npts = len(vrep.points)
    return tuple(x[:npts]), tuple(x[npts:])


def support_form(x: Sequence[Fraction]) -> tuple[list[tuple[int, int]], int]:
    """Fraction multipliers as an inside certificate ``(support, x_den)`` in
    lowest terms: x_den the lcm of their denominators, and the
    ``(column, numerator)`` pairs of the nonzero ones in column order."""
    x_den = math.lcm(*(v.denominator for v in x))
    support = [(j, v.numerator * (x_den // v.denominator)) for j, v in enumerate(x) if v]
    return support, x_den


def in_lowest_terms(result: MembershipResult) -> MembershipResult:
    """A membership result with its inside certificate divided by the gcd
    of its denominator and numerators, the form of :func:`support_form`."""
    if result.certificate is None:
        return result
    support, x_den = result.certificate
    g = math.gcd(x_den, *(v for _, v in support))
    reduced = [(j, v // g) for j, v in support]
    return MembershipResult(True, (reduced, x_den // g), None)


def per_sample_check_sufficiency(
    inst: MixingInstance,
    samples: int = 50,
    seed: int = 20240,
) -> "hull.SufficiencyReport":
    """The closure branch of ``hull.check_sufficiency`` (the instance must
    read as sufficient to ``hull.diagnose``) as it ran before the sample
    streams were kept: every box point drawn afresh from
    ``random.Random(seed)``, projected on the family's matrix with every
    row read as a row, complemented and certified by ``decompose``, with
    the membership LP where the chain proves nothing."""
    diag = hull.diagnose(inst)
    assert diag.sufficient
    vrep = v_representation(inst)
    rows = hull.family_rows(inst)
    full = hull._cut_matrix(inst, rows)
    family = CutMatrix(full.k, full.n, full.denominator, full.rows, full.rhs, full.shapes)
    n, k, box = inst.n, inst.k, hull._BOX_SCALE

    def inside(target, den):
        if chain_decompose(vrep, target, den) is not None:
            return True
        return membership(vrep, target, den).inside

    def read(values, den):
        return tuple(Fraction(v, den) for v in values)

    rng = random.Random(seed)
    scale = family.denominator
    sample_den = scale * box
    failures = []
    checked = 0
    for s in range(samples):
        z = [int(v * box) for v in fraction_box_point(rng, n)]
        y = project_to_cut_polyhedron(family, z, box, s % k)
        if not inside([sample_den - scale * v for v in z] + [sample_den] + y, sample_den):
            failures.append(
                f"projected sample {s} outside hull: "
                f"y={read(y, sample_den)} z={read(z, box)}"
            )
        checked += 1
    vertices = hull._cut_polyhedron_vertices(family, hull.BASIS_ENUMERATION_WORK)
    for num, den in vertices or ():
        y, z = num[:k], num[k:]
        if not inside([den - v for v in z] + [den] + list(y), den):
            failures.append(f"cut-polyhedron vertex outside hull: {read(y, den)} {read(z, den)}")
        checked += 1
    return hull.SufficiencyReport(
        diag, "closure", checked, tuple(failures), None, None, (), None,
        not failures, inst, tuple(rows.items()),
    )


# ---------------------------------------------------------------------------
# The Fraction reference for the vertex list and the band hull, as they were
# before the integer vertex enumerator: every coordinate, complement, band
# check and clipped point is a Fraction.
# ---------------------------------------------------------------------------


class FractionVertices(NamedTuple):
    """A vertex list's points and rays as ``(y, z)`` pairs, y in Fractions."""

    points: tuple
    rays: tuple


def fraction_vertices(vrep: VRepresentation) -> FractionVertices:
    """The points and rays of a vertex list with y read as Fractions over its
    denominator: the one way the tests read a vertex list's coordinates."""

    def read(columns):
        return tuple((tuple(Fraction(v, vrep.den) for v in y), z) for y, z in columns)

    return FractionVertices(read(vrep.points), read(vrep.rays))


def vertex_list(points, rays) -> VRepresentation:
    """A vertex list built by hand from ``(y, z)`` pairs with y in Fractions:
    y over the lcm of every denominator, and no enumerator record, so
    ``decompose`` gives it no verdict."""
    columns = [(tuple(map(Fraction, y)), tuple(z)) for y, z in (*points, *rays)]
    den = math.lcm(*(v.denominator for y, _ in columns for v in y))
    ints = tuple(
        (tuple(v.numerator * (den // v.denominator) for v in y), z) for y, z in columns
    )
    return VRepresentation(den, ints[: len(points)], ints[len(points) :])


def fraction_rows(vertices: FractionVertices) -> list[list[Fraction]]:
    """The membership LP's constraint rows in Fractions, one column per
    point, then one per ray: n z rows, the convexity row, k y rows."""
    points, rays = vertices
    columns = points + rays
    n, k = len(points[0][1]), len(points[0][0])
    rows = [[Fraction(cz[i]) for _, cz in columns] for i in range(n)]
    rows.append([Fraction(1)] * len(points) + [Fraction(0)] * len(rays))
    return rows + [[Fraction(cy[j]) for cy, _ in columns] for j in range(k)]


def fraction_v_representation(inst: MixingInstance) -> FractionVertices:
    """Per binary z in mask order (z_i is bit i), the componentwise maximum
    of the active rows, kept when its sum exceeds epsilon and otherwise
    raised by the deficit in one column at a time; the unit y rays."""
    n, k = inst.n, inst.k
    points = []
    for mask in range(1 << n):
        z = tuple((mask >> i) & 1 for i in range(n))
        floor = [
            max([inst.weights[i][j] for i in range(n) if z[i]], default=Fraction(0))
            for j in range(k)
        ]
        deficit = inst.epsilon - sum(floor, Fraction(0))
        if deficit < 0:
            points.append((tuple(floor), z))
        else:
            for d in range(k):
                y = list(floor)
                y[d] += deficit
                points.append((tuple(y), z))
    rays = tuple(
        (tuple(Fraction(1 if j == d else 0) for j in range(k)), (0,) * n)
        for d in range(k)
    )
    return FractionVertices(tuple(points), rays)


class FractionBandedHull(NamedTuple):
    """The band hull as the Fraction reference builds it."""

    instance: MixingInstance
    band_ok: bool
    extreme_points: tuple
    clipped: FractionVertices
    cuts: tuple


def fraction_hull_with_bounds(data: TwoSidedData) -> FractionBandedHull:
    """``twosided.hull_with_bounds`` on the ``Fraction`` vertex list:
    complement z, check the band at every extreme point, clip along the
    unit rays to the band planes (``clipped`` is a :class:`FractionVertices`),
    then append the band rows and the z bounds to the library's hull family
    (``test_walk`` holds that family to :func:`fraction_hull_cut_family`)."""
    inst = to_mixing(data)
    ua = data.u_a
    points = tuple(
        (y, tuple(1 - zi for zi in z))
        for y, z in fraction_v_representation(inst).points
    )
    band_ok = all(-ua <= y[0] - y[1] <= ua for y, _ in points)
    clipped_points = list(points)
    for y, z in points:
        gap_upper = ua - (y[0] - y[1])
        if gap_upper > 0:
            clipped_points.append(((y[0] + gap_upper, y[1]), z))
        gap_lower = ua + (y[0] - y[1])
        if gap_lower > 0:
            clipped_points.append(((y[0], y[1] + gap_lower), z))
    clipped = FractionVertices(
        tuple(clipped_points),
        (((Fraction(1), Fraction(1)), tuple(0 for _ in range(data.n))),),
    )

    cuts = hull_cut_family(inst)
    zero = [Fraction(0)] * data.n
    cuts.append(LinearCut((Fraction(-1), Fraction(1)), zero, -ua, CutKind.BOUND_UPPER))
    cuts.append(LinearCut((Fraction(1), Fraction(-1)), zero, -ua, CutKind.BOUND_LOWER))
    for i in range(data.n):
        unit = [Fraction(0)] * data.n
        unit[i] = Fraction(1)
        cuts.append(LinearCut((0, 0), unit, 0, CutKind.BOUND_LOWER))
        cuts.append(LinearCut((0, 0), [-v for v in unit], -1, CutKind.BOUND_UPPER))
    return FractionBandedHull(inst, band_ok, points, clipped, tuple(cuts))


# ---------------------------------------------------------------------------
# The Fraction reference for the witness points: the three closed forms, each
# written out on its own in Fractions, and the dispatch that works out the
# pair minima itself.  Nothing here shares code with the library's builder.
# ---------------------------------------------------------------------------

WitnessPoint = tuple[tuple[Fraction, ...], tuple[Fraction, ...]]


def fraction_column_peaks(inst: MixingInstance, subset: Sequence[int]) -> list[Fraction]:
    return [max(inst.weights[i][j] for i in subset) for j in range(inst.k)]


def fraction_minimal_U(inst: MixingInstance) -> tuple[int, ...]:
    """Greedy deletion over the low rows, ascending, keeping the peak sum
    above epsilon."""
    u = sorted(diagnose(inst).i_bar)

    def exceeds(subset: list[int]) -> bool:
        return bool(subset) and sum(fraction_column_peaks(inst, subset)) > inst.epsilon

    for i in list(u):
        trial = [v for v in u if v != i]
        if exceeds(trial):
            u = trial
    return tuple(u)


def fraction_witness_c2(inst: MixingInstance, u: Sequence[int]) -> WitnessPoint:
    """Weight 1/|U| on U; y at (|U|-1)/|U| of the peaks, the last
    coordinate absorbing the deficit so that sum(y) = epsilon."""
    u = sorted(set(u))
    size = len(u)
    z = tuple(Fraction(1, size) if i in u else Fraction(1) for i in range(inst.n))
    y = [Fraction(size - 1, size) * v for v in fraction_column_peaks(inst, u)]
    y[-1] += inst.epsilon - sum(y, Fraction(0))
    return tuple(y), z


def fraction_witness_c1(inst: MixingInstance, p: int, q: int) -> WitnessPoint:
    """Half weight on p and q; y at half the pair's maxima, the last
    coordinate raised by half of epsilon + rowsum(p) - sum of the maxima."""
    pair_max = fraction_column_peaks(inst, (p, q))
    z = tuple(Fraction(1, 2) if i in (p, q) else Fraction(1) for i in range(inst.n))
    y = [v / 2 for v in pair_max]
    y[-1] += (inst.epsilon + row_sum(inst, p) - sum(pair_max, Fraction(0))) / 2
    return tuple(y), z


def fraction_witness_lw(inst: MixingInstance, p: int, q: int) -> WitnessPoint:
    """Half weight on p and q; y at half the pair's maxima, the last
    coordinate raised by half the sum of the pair's minima."""
    pair_max = fraction_column_peaks(inst, (p, q))
    pair_min = sum(
        (min(inst.weights[p][j], inst.weights[q][j]) for j in range(inst.k)),
        Fraction(0),
    )
    z = tuple(Fraction(1, 2) if i in (p, q) else Fraction(1) for i in range(inst.n))
    y = [v / 2 for v in pair_max]
    y[-1] += pair_min / 2
    return tuple(y), z


def fraction_witness(inst: MixingInstance) -> tuple[WitnessPoint, str]:
    """The witness of the first failing condition (peak-sum, dominance,
    pair-minimum), with the lexicographically first subset or pair."""
    diag = diagnose(inst)
    assert not diag.sufficient
    if not diag.c2_ok:
        return fraction_witness_c2(inst, fraction_minimal_U(inst)), "peak-sum"
    outside = sorted(set(range(inst.n)) - diag.i_bar)
    if not diag.c1_ok:
        for p in outside:
            for q in sorted(diag.i_bar):
                if any(inst.weights[q][j] > inst.weights[p][j] for j in range(inst.k)):
                    return fraction_witness_c1(inst, p, q), "dominance"
    for p, q in itertools.combinations(outside, 2):
        pair_min = sum(
            (min(inst.weights[p][j], inst.weights[q][j]) for j in range(inst.k)),
            Fraction(0),
        )
        if pair_min == diag.l_w_eps:
            return fraction_witness_lw(inst, p, q), "pair-minimum"
    raise AssertionError("no attaining pair")


def scale_point(
    y: Sequence[Fraction], z: Sequence[Fraction]
) -> tuple[int, list[int], list[int]]:
    """Common denominator p of a point (y, z), with both scaled by p:
    ``(p, y, z)`` in integers."""
    p = math.lcm(*(v.denominator for v in y), *(v.denominator for v in z))
    return (
        p,
        [v.numerator * (p // v.denominator) for v in y],
        [v.numerator * (p // v.denominator) for v in z],
    )


def check_point(
    inst: MixingInstance, y_bar, z_bar
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """A point (y, z) parsed to Fractions and checked: y, then z, each a
    list or tuple of rationals, then the dimensions, then z in the unit
    box."""

    def fracs(values) -> tuple[Fraction, ...]:
        if not isinstance(values, (list, tuple)):
            raise ParseError(f"not a list of rationals: {values!r}")
        return tuple(parse_rational(v) for v in values)

    y, z = fracs(y_bar), fracs(z_bar)
    if len(y) != inst.k or len(z) != inst.n:
        raise DimensionMismatch("point dimensions disagree with instance")
    if any(v.numerator < 0 or v.numerator > v.denominator for v in z):
        raise DomainError("z outside the unit box")
    return y, z


def two_pass_point(inst: MixingInstance, y_bar, z_bar) -> tuple[int, list[int], list[int]]:
    """A point parsed and checked by :func:`check_point`, then scaled by
    :func:`scale_point`: what ``core.integer_point`` does in one pass."""
    return scale_point(*check_point(inst, y_bar, z_bar))


@dataclass(frozen=True)
class FractionInstance:
    """``MixingInstance`` as its constructor was written over ``Fraction``s:
    the reference of the integer constructor.  Its fields, ``scaled``,
    hash and repr (but for the class name) are what the library's must be,
    and it raises the same errors in the same order."""

    weights: tuple[tuple[Fraction, ...], ...]
    lower: tuple[Fraction, ...]
    epsilon: Fraction
    probabilities: Optional[tuple[Fraction, ...]] = None

    def __init__(self, weights, lower=None, epsilon=0, probabilities=None) -> None:
        rows = tuple(_fracs(row) for row in weights)
        if not rows:
            raise ValidationError("instance needs at least one scenario row")
        k = len(rows[0])
        if k == 0:
            raise ValidationError("instance needs at least one column")
        if any(len(row) != k for row in rows):
            raise ValidationError("ragged coefficient matrix")
        if any(w < 0 for row in rows for w in row):
            raise ValidationError("negative coefficient entry")
        low = _fracs(lower) if lower is not None else tuple(Fraction(0) for _ in range(k))
        if len(low) != k:
            raise ValidationError(f"lower bound vector has length {len(low)}, expected {k}")
        if any(l < 0 for l in low):
            raise ValidationError("negative lower bound")
        eps = parse_rational(epsilon)
        if eps < 0:
            raise ValidationError("negative epsilon")
        probs = None
        if probabilities is not None:
            probs = _fracs(probabilities)
            if len(probs) != len(rows):
                raise ValidationError(f"{len(probs)} probabilities for {len(rows)} scenarios")
            if any(p < 0 for p in probs):
                raise ValidationError("negative probability")
            if sum(probs) != 1:
                raise ValidationError("probabilities do not sum to 1 exactly")
        object.__setattr__(self, "weights", rows)
        object.__setattr__(self, "lower", low)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "probabilities", probs)

    @functools.cached_property
    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...], int, tuple[int, ...]]:
        scale = math.lcm(
            self.epsilon.denominator,
            *(w.denominator for row in self.weights for w in row),
            *(l.denominator for l in self.lower),
        )
        weights = tuple(
            tuple(w.numerator * (scale // w.denominator) for w in row) for row in self.weights
        )
        eps = self.epsilon.numerator * (scale // self.epsilon.denominator)
        lower = tuple(l.numerator * (scale // l.denominator) for l in self.lower)
        return scale, weights, eps, lower
