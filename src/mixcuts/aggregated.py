"""Aggregated mixing cuts: one index sequence drives every column at once.

A sequence Theta induces one chain per column (its suffix-maxima
subsequence); summing the per-column chain inequalities and subtracting
min(epsilon, L(Theta)) on the last index of Theta yields a cut that is
strictly stronger than the plain sum.  L(Theta) is the smallest, over
positions t, total of columnwise minima between the value at t and the best
value appearing later in the sequence (the final position contributes its
full row sum).

Chains, column heads and L(Theta) are all suffix quantities, so
:func:`walk` enumerates sequences depth first by *prepending* indices: the
new first index joins the chain of every column whose head it reaches, and
its own term, the sum of columnwise minima against the old heads, can only
lower L.  Each node costs O(k) integer operations on the instance scaled by
one common denominator.  Because prepending never raises L, a subtree whose
L has fallen below epsilon holds no starred cut and is skipped whole.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .core import (
    CutKind,
    DimensionMismatch,
    DomainError,
    EpsilonViolated,
    GroundSetTooLarge,
    LinearCut,
    LowerBoundsNotReduced,
    MixingInstance,
    SequenceTheta,
    complement,
    parse_rational,
)
from .submodular import greedy_vertex

VALIDITY_BOUND = 20
SEPARATION_SEQUENCE_BOUND = 2_000_000


@dataclass(frozen=True)
class SubsequenceDecomposition:
    """Per-column suffix-maxima subsequences of one sequence."""

    theta: SequenceTheta
    per_column: tuple[tuple[int, ...], ...]


def decompose(inst: MixingInstance, theta: SequenceTheta) -> SubsequenceDecomposition:
    """Single right-to-left scan per column keeping the running suffix max.

    An index stays if its column value is >= every value appearing after it
    in the sequence; the last element always stays.
    """
    theta.validate_for(inst.n)
    per_column = []
    for j in range(inst.k):
        col = inst.column(j)
        suffix_max = Fraction(0)
        kept: list[int] = []
        for i in reversed(theta.indices):
            if col[i] >= suffix_max:
                kept.append(i)
            if col[i] > suffix_max:
                suffix_max = col[i]
        per_column.append(tuple(reversed(kept)))
    return SubsequenceDecomposition(theta, tuple(per_column))


def l_theta(inst: MixingInstance, theta: SequenceTheta) -> Fraction:
    """Aggregation constant of a sequence.

    Position t contributes sum_j min(w[i_t][j], best value after t in column
    j); the last position has nothing after it and contributes its full row
    sum.
    """
    theta.validate_for(inst.n)
    idx = theta.indices
    best = inst.row_sum(idx[-1])
    suffix_max = [inst.weights[idx[-1]][j] for j in range(inst.k)]
    for t in range(len(idx) - 2, -1, -1):
        row = inst.weights[idx[t]]
        term = sum(
            (min(row[j], suffix_max[j]) for j in range(inst.k)), Fraction(0)
        )
        if term < best:
            best = term
        for j in range(inst.k):
            if row[j] > suffix_max[j]:
                suffix_max[j] = row[j]
    return best


def aggregated_cut(inst: MixingInstance, theta: SequenceTheta) -> LinearCut:
    """Summed per-column chains minus min(epsilon, L(Theta)) on the last index.

    Starred when every per-column chain head attains the global column
    maximum and epsilon <= L(Theta).
    """
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("reduce lower bounds before aggregating")
    decomp = decompose(inst, theta)
    coeffs = [Fraction(0)] * inst.n
    rhs = Fraction(0)
    star = True
    for j, chain in enumerate(decomp.per_column):
        col = inst.column(j)
        values = [col[i] for i in chain] + [Fraction(0)]
        for s, i in enumerate(chain):
            coeffs[i] += values[s] - values[s + 1]
        rhs += values[0]
        if values[0] != inst.column_max(j):
            star = False
    cap = min(inst.epsilon, l_theta(inst, theta))
    if cap != inst.epsilon:
        star = False
    coeffs[theta.last] -= cap
    y = [Fraction(1)] * inst.k
    kind = CutKind.AMIX_STAR if star else CutKind.AMIX
    return LinearCut(y, coeffs, rhs, kind)


def dominates_linking(inst: MixingInstance, theta: SequenceTheta) -> bool:
    """Whether the sequence's aggregated cut implies sum_j y_j >= epsilon
    over the unit box (exactly when epsilon <= L(Theta))."""
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("reduce lower bounds first")
    return inst.epsilon <= l_theta(inst, theta)


def sequences(
    indices: Sequence[int], max_length: Optional[int] = None
) -> Iterator[SequenceTheta]:
    """All ordered sequences of distinct indices, shortest first."""
    top = len(indices) if max_length is None else min(max_length, len(indices))
    for length in range(1, top + 1):
        for perm in itertools.permutations(indices, length):
            yield SequenceTheta(perm)


def count_sequences(ground: int, max_length: Optional[int] = None) -> int:
    top = ground if max_length is None else min(max_length, ground)
    total = 0
    term = 1
    for length in range(1, top + 1):
        term *= ground - length + 1
        total += term
    return total


def integer_view(
    inst: MixingInstance,
) -> tuple[int, tuple[tuple[int, ...], ...], int]:
    """Common denominator D of the weights and epsilon, with both scaled by D."""
    scale = math.lcm(
        inst.epsilon.denominator, *(w.denominator for row in inst.weights for w in row)
    )
    weights = tuple(
        tuple(w.numerator * (scale // w.denominator) for w in row)
        for row in inst.weights
    )
    eps = inst.epsilon.numerator * (scale // inst.epsilon.denominator)
    return scale, weights, eps


Node = tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int, int]


def walk(
    inst: MixingInstance,
    ground: Sequence[int],
    max_length: Optional[int] = None,
    starred: bool = False,
    point: Optional[tuple[Sequence[Fraction], Sequence[Fraction]]] = None,
) -> Iterator[Node]:
    """Every sequence of distinct indices from ``ground``, depth first by
    prepending, as ``(theta, chains, l, gap)``.

    ``chains`` equals ``decompose(inst, theta).per_column`` and ``l`` equals
    ``D * l_theta(inst, theta)`` for the common denominator D of
    :func:`integer_view`.  With a point (y, z), ``gap`` is the violation of
    ``aggregated_cut(inst, theta)`` at it times D times the common
    denominator of the point, so it is positive exactly when the cut is
    violated and orders sequences by violation; without one it is 0.

    ``starred`` yields only sequences whose cut is starred (every chain head
    at its column maximum and epsilon <= L) and skips each subtree whose L
    fell below epsilon.  The walk keeps one frame per depth level.
    """
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("reduce lower bounds before aggregating")
    scale, weights, eps = integer_view(inst)
    k = inst.k
    peaks = [max(row[j] for row in weights) for j in range(k)]
    top = len(ground) if max_length is None else min(max_length, len(ground))
    if top < 1:
        return
    if point is None:
        slack = at_one = [0] * inst.n
        base = 0
    else:
        y = [Fraction(v) for v in point[0]]
        z = [Fraction(v) for v in point[1]]
        p = math.lcm(*(v.denominator for v in y + z))
        at_one = [v.numerator * (p // v.denominator) for v in z]  # p * z_i
        slack = [p - v for v in at_one]  # p * (1 - z_i)
        base = scale * sum(v.numerator * (p // v.denominator) for v in y)
    # Frame: (theta, heads, chains, l, acc, remaining candidates); acc is
    # sum over theta of (new coefficient of i) * p * (1 - z_i).
    stack = [((), [0] * k, [()] * k, None, 0, iter(ground))]
    while stack:
        theta, heads, chains, low, acc, candidates = stack[-1]
        for i in candidates:
            if i in theta:
                continue
            row = weights[i]
            gain = 0  # coefficient of i: what it adds to the heads
            term = 0  # sum_j min(w_ij, head_j): i's own term of L
            new_heads = list(heads)
            new_chains = list(chains)
            for j in range(k):
                v = row[j]
                h = heads[j]
                if v >= h:
                    gain += v - h
                    term += h
                    new_heads[j] = v
                    new_chains[j] = (i,) + chains[j]
                else:
                    term += v
            if low is None:
                l = gain  # a single index contributes its full row sum
            else:
                l = term if term < low else low
            if starred and l < eps:
                continue
            new_theta = (i,) + theta
            new_acc = acc + gain * slack[i]
            if not starred or new_heads == peaks:
                cap = eps if eps < l else l
                gap = new_acc + cap * at_one[new_theta[-1]] - base
                yield new_theta, tuple(new_chains), l, gap
            if len(new_theta) < top:
                stack.append(
                    (new_theta, new_heads, new_chains, l, new_acc, iter(ground))
                )
                break
        else:
            stack.pop()


def starred_sequences(
    inst: MixingInstance, ground: Sequence[int], max_length: Optional[int] = None
) -> list[SequenceTheta]:
    """One sequence per distinct chain tuple among the starred sequences over
    ``ground``: the first one that :func:`sequences` meets, in the order it
    meets them."""
    first: dict[tuple[tuple[int, ...], ...], tuple[int, tuple[int, ...]]] = {}
    for theta, chains, _, _ in walk(inst, sorted(ground), max_length, starred=True):
        rank = (len(theta), theta)
        known = first.get(chains)
        if known is None or rank < known:
            first[chains] = rank
    return [SequenceTheta(theta) for _, theta in sorted(first.values())]


def check_validity(inst: MixingInstance, cut: LinearCut, vrep=None) -> bool:
    """Evaluate a cut at every extreme point and ray of the set's hull.

    Sufficient for linear cuts.  Works over the scenario-indicator view of the
    vertices (complemented from the epigraph view) with everything scaled to
    integers, so the check is exact and fast.  Pass a precomputed vertex
    representation to amortize enumeration over many cuts.
    """
    from .hull import v_representation  # local import to avoid a cycle

    if inst.n > VALIDITY_BOUND:
        raise GroundSetTooLarge(f"validity check limited to n <= {VALIDITY_BOUND}")
    if cut.k != inst.k or cut.n != inst.n:
        raise DimensionMismatch("cut dimensions disagree with instance")
    # Rays (e_j, 0): the cut must not be violated in any unbounded direction.
    if any(a < 0 for a in cut.y_coeffs):
        return False
    if vrep is None:
        vrep = v_representation(inst)
    key = cut.canonical_key()
    alpha = key[: inst.k]
    beta = key[inst.k : inst.k + inst.n]
    gamma = key[-1]
    beta_total = sum(beta)
    scale = math.lcm(*(coord.denominator for y, _ in vrep.points for coord in y))
    gamma_scaled = gamma * scale
    for y, z in vrep.points:
        lhs = beta_total * scale
        for b, zi in zip(beta, z):
            if zi:
                lhs -= b * scale
        for a, yi in zip(alpha, y):
            if a:
                lhs += a * int(yi * scale)
        if lhs < gamma_scaled:
            return False
    return True


def separate_aggregated(
    inst: MixingInstance,
    y_bar: Sequence[Fraction],
    z_bar: Sequence[Fraction],
    max_sequences: int = SEPARATION_SEQUENCE_BOUND,
) -> Optional[LinearCut]:
    """Most violated aggregated cut at (y_bar, z_bar), or None.

    When the linking oracle is submodular this runs one greedy separation and
    is exact over the whole family.  Otherwise it enumerates sequences over
    {i : z_bar_i < 1} — sequences touching an index at 1 are dominated by a
    subsequence avoiding it, so the verdict is still exact — and returns the
    most violated cut found (ties: lexicographically smallest sequence).
    """
    from .hull import diagnose, linking_oracle  # local import to avoid a cycle

    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("reduce lower bounds first")
    y = [parse_rational(v) for v in y_bar]
    z = [parse_rational(v) for v in z_bar]
    if len(y) != inst.k or len(z) != inst.n:
        raise DimensionMismatch("point dimensions disagree with instance")
    if any(v < 0 or v > 1 for v in z):
        raise DomainError("z outside the unit box")
    y_total = sum(y, Fraction(0))
    if y_total < inst.epsilon:
        raise EpsilonViolated(
            f"sum(y) = {y_total} < epsilon = {inst.epsilon}; the aggregated family "
            "presumes the linking constraint"
        )

    if diagnose(inst).g_submodular:
        g = linking_oracle(inst)
        vertex = greedy_vertex(g, complement(z))
        support = [i for i in range(inst.n) if vertex.pi[i] != 0]
        if not support:
            return None  # only the linking constraint itself, already satisfied
        order = {i: t for t, i in enumerate(vertex.permutation)}
        theta = SequenceTheta(sorted(support, key=lambda i: -order[i]))
        cut = aggregated_cut(inst, theta)
        return cut if cut.violation(y, z) > 0 else None

    # The restriction to indices below 1 is exact for points satisfying the
    # big-M rows (a sequence touching an index at 1 is dominated by the
    # subsequence without it); otherwise search the full ground set.
    relaxation_ok = all(
        y[j] >= inst.weights[i][j] * (1 - z[i])
        for i in range(inst.n)
        for j in range(inst.k)
    )
    if relaxation_ok:
        ground = [i for i in range(inst.n) if z[i] < 1]
    else:
        ground = list(range(inst.n))
    if not ground:
        return None
    if count_sequences(len(ground)) > max_sequences:
        raise GroundSetTooLarge(
            f"{len(ground)} free indices need more than {max_sequences} sequences"
        )
    best: Optional[tuple[int, tuple[int, ...]]] = None
    for theta, _, _, gap in walk(inst, ground, point=(y, z)):
        if gap > 0 and (
            best is None or gap > best[0] or (gap == best[0] and theta < best[1])
        ):
            best = (gap, theta)
    return aggregated_cut(inst, SequenceTheta(best[1])) if best else None
