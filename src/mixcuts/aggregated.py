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

The linking oracle z -> max(epsilon, sum_j column_max_j(z)) decides how the
family is separated: when it is submodular (:func:`diagnose` reads this off
the coefficient matrix and epsilon) one greedy pass finds the most violated
cut, and the mixing and aggregated families describe the hull.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .core import (
    CutKind,
    EpsilonViolated,
    GroundSetTooLarge,
    LinearCut,
    LowerBoundsNotReduced,
    MixingInstance,
    SequenceTheta,
    ValidationError,
    check_point,
    complement,
)
from .mixing import reduce_lower_bounds, separate_mixing
from .submodular import SetFunctionOracle, greedy_vertex, max_sum_oracle

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


def _chain_sum_cut(
    inst: MixingInstance,
    chains: Sequence[tuple[int, ...]],
    last: int,
    cap: Fraction,
) -> LinearCut:
    """Summed per-column chains minus ``cap`` on the index ``last``.

    Starred when every chain head attains its column maximum and the cap is
    epsilon.
    """
    coeffs = [Fraction(0)] * inst.n
    rhs = Fraction(0)
    star = cap == inst.epsilon
    for j, chain in enumerate(chains):
        col = inst.column(j)
        values = [col[i] for i in chain] + [Fraction(0)]
        for s, i in enumerate(chain):
            coeffs[i] += values[s] - values[s + 1]
        rhs += values[0]
        if values[0] != max(col):
            star = False
    coeffs[last] -= cap
    y = [Fraction(1)] * inst.k
    kind = CutKind.AMIX_STAR if star else CutKind.AMIX
    return LinearCut(y, coeffs, rhs, kind)


def aggregated_cut(inst: MixingInstance, theta: SequenceTheta) -> LinearCut:
    """Summed per-column chains minus min(epsilon, L(Theta)) on the last index.

    Starred when every per-column chain head attains the global column
    maximum and epsilon <= L(Theta).
    """
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("reduce lower bounds before aggregating")
    chains = decompose(inst, theta).per_column
    cap = min(inst.epsilon, l_theta(inst, theta))
    return _chain_sum_cut(inst, chains, theta.last, cap)


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
    ``inst.scaled``.  With a point (y, z), ``gap`` is the violation of
    ``aggregated_cut(inst, theta)`` at it times D times the common
    denominator of the point, so it is positive exactly when the cut is
    violated and orders sequences by violation; without one it is 0.

    ``starred`` yields only sequences whose cut is starred (every chain head
    at its column maximum and epsilon <= L) and skips each subtree whose L
    fell below epsilon.  The walk keeps one frame per depth level.
    """
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("reduce lower bounds before aggregating")
    scale, weights, eps = inst.scaled
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


def starred_cuts(
    inst: MixingInstance, ground: Sequence[int], max_length: Optional[int] = None
) -> list[LinearCut]:
    """One starred aggregated cut per distinct chain tuple among the starred
    sequences over ``ground``, built from the walker node of the first
    sequence that :func:`sequences` meets, in the order it meets them.

    A starred node has epsilon <= L, so its cap is epsilon.
    """
    first: dict[tuple[tuple[int, ...], ...], tuple[int, tuple[int, ...]]] = {}
    for theta, chains, _, _ in walk(inst, sorted(ground), max_length, starred=True):
        rank = (len(theta), theta)
        known = first.get(chains)
        if known is None or rank < known:
            first[chains] = rank
    kept = sorted((rank, chains) for chains, rank in first.items())
    return [
        _chain_sum_cut(inst, chains, theta[-1], inst.epsilon)
        for (_, theta), chains in kept
    ]


def linking_cut(inst: MixingInstance) -> LinearCut:
    """The linking constraint sum_j (y_j - lower_j) >= epsilon, written as
    sum_j y_j >= epsilon + sum_j lower_j."""
    return LinearCut(
        [Fraction(1)] * inst.k,
        [Fraction(0)] * inst.n,
        inst.epsilon + sum(inst.lower, Fraction(0)),
        CutKind.LINKING,
    )


def linking_oracle(inst: MixingInstance) -> SetFunctionOracle:
    """Oracle z -> max(epsilon, sum_j column_max_j(z)) over indicator bitmasks."""
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("linking oracle requires zero lower bounds")
    return max_sum_oracle(inst.weights, inst.lower, inst.epsilon, "linking")


@dataclass(frozen=True)
class HullDiagnosis:
    """Verdict of the hull-sufficiency conditions for one instance.

    ``l_w_eps`` is None when no row lies outside the low set.
    """

    i_bar: frozenset[int]
    c1_ok: bool
    c2_ok: bool
    negligible: bool
    l_w_eps: Optional[Fraction]
    g_submodular: bool

    @property
    def sufficient(self) -> bool:
        """The mixing and aggregated families describe the hull exactly when
        the linking oracle is submodular."""
        return self.g_submodular


def diagnose(inst: MixingInstance) -> HullDiagnosis:
    """Compute the index set of low rows, its negligibility, the pairwise
    minimum constant, and the resulting submodularity/sufficiency verdict.

    The verdict depends on the instance alone, so it is computed once and
    kept on the instance, the way ``functools.cached_property`` keeps a
    value: a second call returns the same object.
    """
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("diagnose requires zero lower bounds")
    cached = inst.__dict__.get("_diagnosis")
    if cached is None:
        cached = inst.__dict__["_diagnosis"] = _diagnosis(inst)
    return cached


def _diagnosis(inst: MixingInstance) -> HullDiagnosis:
    """The body of :func:`diagnose`, in integers on ``inst.scaled``."""
    scale, w, eps = inst.scaled
    sums = [sum(row) for row in w]
    i_bar = frozenset(i for i, s in enumerate(sums) if s <= eps)
    outside = [i for i in range(inst.n) if i not in i_bar]

    if i_bar:
        peaks = [max(w[i][j] for i in i_bar) for j in range(inst.k)]
        c1_ok = all(p <= v for i in outside for p, v in zip(peaks, w[i]))
        c2_ok = sum(peaks) <= eps
    else:
        c1_ok = c2_ok = True
    negligible = c1_ok and c2_ok

    if not outside:
        pair_min = None
    elif len(outside) == 1:
        pair_min = sums[outside[0]]
    else:
        pair_min = min(
            sum(map(min, w[p], w[q])) for p, q in itertools.combinations(outside, 2)
        )

    g_submodular = negligible and (pair_min is None or eps <= pair_min)
    l_w_eps = None if pair_min is None else Fraction(pair_min, scale)
    return HullDiagnosis(i_bar, c1_ok, c2_ok, negligible, l_w_eps, g_submodular)


def separate_aggregated(
    inst: MixingInstance,
    y_bar: Sequence[Fraction],
    z_bar: Sequence[Fraction],
) -> Optional[LinearCut]:
    """Most violated aggregated cut at (y_bar, z_bar), or None.

    When the linking oracle is submodular this runs one greedy separation and
    is exact over the whole family.  Otherwise it enumerates sequences over
    {i : z_bar_i < 1} — sequences touching an index at 1 are dominated by a
    subsequence avoiding it, so the verdict is still exact — and returns the
    most violated cut found (ties: lexicographically smallest sequence).
    """
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("reduce lower bounds first")
    y, z = check_point(inst, y_bar, z_bar)
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
    if count_sequences(len(ground)) > SEPARATION_SEQUENCE_BOUND:
        raise GroundSetTooLarge(
            f"{len(ground)} free indices need more than "
            f"{SEPARATION_SEQUENCE_BOUND} sequences"
        )
    best: Optional[tuple[int, tuple[int, ...]]] = None
    for theta, _, _, gap in walk(inst, ground, point=(y, z)):
        if gap > 0 and (
            best is None or gap > best[0] or (gap == best[0] and theta < best[1])
        ):
            best = (gap, theta)
    return aggregated_cut(inst, SequenceTheta(best[1])) if best else None


def separate(
    inst: MixingInstance,
    y_bar: Sequence[Fraction],
    z_bar: Sequence[Fraction],
    families: Sequence[str] = ("mix", "amix"),
) -> list[tuple[Fraction, LinearCut]]:
    """Violated cuts of the chosen families at (y_bar, z_bar), each with its
    violation: the most violated mixing cut per column (family "mix"), then
    the linking row or the most violated aggregated cut (family "amix").

    The point is checked before any family runs.  Mixing cuts are separated
    on the instance as given, whose column oracles carry the lower bounds.
    A violated linking row takes precedence over the aggregated family, which
    presumes it; otherwise the aggregated family is separated on the reduced
    instance at y - lower, and the cut found, alpha.(y - lower) + beta.z >=
    gamma, is returned with right-hand side gamma + alpha.lower.
    """
    unknown = set(families) - {"mix", "amix"}
    if unknown:
        raise ValidationError(f"unknown families {sorted(unknown)}")
    y, z = check_point(inst, y_bar, z_bar)
    found = []
    if "mix" in families:
        found += [(cut.violation(y, z), cut) for cut in separate_mixing(inst, y, z)]
    if "amix" in families:
        linking = linking_cut(inst)
        gap = linking.violation(y, z)
        if gap > 0:
            found.append((gap, linking))
        else:
            reduced, shift = reduce_lower_bounds(inst)
            cut = separate_aggregated(reduced, [v - s for v, s in zip(y, shift)], z)
            if cut is not None:
                lift = sum((a * s for a, s in zip(cut.y_coeffs, shift)), Fraction(0))
                cut = LinearCut(cut.y_coeffs, cut.z_coeffs, cut.rhs + lift, cut.kind)
                found.append((cut.violation(y, z), cut))
    return found
