"""Aggregated mixing cuts: one index sequence drives every column at once.

A sequence Theta induces one chain per column (its suffix-maxima
subsequence); summing the per-column chain inequalities and subtracting
min(epsilon, L(Theta)) on the last index of Theta yields a cut that is
strictly stronger than the plain sum.  L(Theta) is the smallest, over
positions t, total of columnwise minima between the value at t and the best
value appearing later in the sequence (the final position contributes its
full row sum).

Column heads and L(Theta) are suffix quantities, so every aggregated row is
built by *prepending* indices, one step, :func:`_prepend`: the new first
index raises the head of every column it reaches, and its coefficient in
the cut is its gain, the total it adds to the heads (the per-column chains
telescope to it), while its own term, the sum of columnwise minima against
the old heads, can only lower L.  The right-hand side is the sum of the
heads.  Each step costs O(k) integer operations on the instance scaled by
one common denominator.  :func:`fold` runs the step over one given
sequence, for :func:`aggregated_cut` and both branches of separation;
:func:`walk` enumerates sequences depth first on it, keeping per node only
its heads, L, the point's running sum and its unused free indices, and
can skip every subtree that cannot reach a floor the caller raises to the
best gap found.  The starred family has its own
depth-first loop (:func:`starred_rows`) on the same step: because
prepending never raises L, a subtree whose L has fallen below epsilon holds
no starred cut and is skipped whole, and below the root only an index that
raises some column head is prepended.

The linking oracle z -> max(epsilon, sum_j column_max_j(z)) decides how the
family is separated: when it is submodular (:func:`diagnose` reads this off
the coefficient matrix and epsilon) one greedy pass, on the indices that
raise a column maximum, finds the most violated cut, and the mixing and
aggregated families describe the hull.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Generator, Iterator, Optional, Sequence

from .core import (
    CutKind,
    EpsilonViolated,
    LinearCut,
    LowerBoundsNotReduced,
    MixingInstance,
    SequenceTheta,
    ValidationError,
    check_work,
    integer_point,
    unscale,
)
from .mixing import column_raisers, reduce_lower_bounds, separate_mixing
from .submodular import greedy_vertex, max_sum_oracle


def total_cut(
    inst: MixingInstance, z: Sequence[int], rhs: int, kind: CutKind
) -> LinearCut:
    """The cut ``sum_j y_j + z . z >= rhs`` of an integer row over D."""
    return inst.row_cut((inst.scaled[0],) * inst.k, z, rhs, kind)


def _chain_sum_cut(
    inst: MixingInstance, z: Sequence[int], rhs: int, last: int, cap: int
) -> LinearCut:
    """The cut ``sum_j y_j + z . z >= rhs`` of a sequence's integer row over
    D, as :func:`fold` gives it, with ``cap / D`` taken off the coefficient
    of its last index.  Starred when the cap is epsilon and every column
    head attains its column maximum (heads never exceed the maxima, so
    exactly when the right-hand side is their sum)."""
    z = list(z)
    z[last] -= cap
    star = cap == inst.scaled[2] and rhs == sum(inst.peaks)
    return total_cut(inst, z, rhs, CutKind.AMIX_STAR if star else CutKind.AMIX)


def aggregated_cut(inst: MixingInstance, theta: SequenceTheta) -> LinearCut:
    """Summed per-column chains minus min(epsilon, L(Theta)) on the last index.

    Starred when every per-column chain head attains the global column
    maximum and epsilon <= L(Theta).
    """
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("reduce lower bounds before aggregating")
    theta.validate_for(inst.n)
    heads, z, l = fold(inst, theta.indices)
    return _chain_sum_cut(inst, z, sum(heads), theta.last, min(inst.scaled[2], l))


def sequences(indices: Sequence[int]) -> Iterator[SequenceTheta]:
    """All ordered sequences of distinct indices, shortest first."""
    for length in range(1, len(indices) + 1):
        for perm in itertools.permutations(indices, length):
            yield SequenceTheta(perm)


def count_sequences(ground: int) -> int:
    """The number of nonempty sequences of distinct indices from a ground
    set of this size."""
    return sum(math.perm(ground, length) for length in range(1, ground + 1))


def _prepend(
    row: Sequence[int], heads: Sequence[int], low: Optional[int]
) -> tuple[list[int], int, int]:
    """Prepend an index, whose scaled row is ``row``, to a sequence given by
    its column heads and its scaled L (None for the empty sequence).

    Returns the new heads, the index's gain (what it adds to the heads,
    which is its coefficient in the sequence's cut before the cap) and the
    new L.
    """
    gain = 0
    term = 0  # sum_j min(w_ij, head_j): the index's own term of L
    new_heads = list(heads)
    for j, v in enumerate(row):
        h = heads[j]
        if v >= h:
            gain += v - h
            term += h
            new_heads[j] = v
        else:
            term += v
    if low is None:
        return new_heads, gain, gain  # a single index: L is its full row sum
    return new_heads, gain, term if term < low else low


def fold(
    inst: MixingInstance, theta: Sequence[int]
) -> tuple[list[int], list[int], int]:
    """The heads, gains and scaled L of a nonempty sequence, as
    :func:`_prepend` builds them from its indices, last index first, on
    ``inst.scaled``: ``z[i]`` is index i's gain (0 off the sequence), and
    ``(z, sum(heads))`` is the sequence's cut row before the cap."""
    weights = inst.scaled[1]
    heads = [0] * inst.k
    z = [0] * inst.n
    l = None
    for i in reversed(theta):
        heads, z[i], l = _prepend(weights[i], heads, l)
    return heads, z, l  # type: ignore[return-value]


def _gap(acc: int, l: int, eps: int, tail: int, base: int) -> int:
    """Scaled violation of a sequence's cut: ``acc`` is the sum over its
    indices of gain times p * (1 - z_i), ``l`` its scaled L, ``tail`` = p *
    z of its last index and ``base`` = D * p * sum(y)."""
    cap = eps if eps < l else l
    return acc + cap * tail - base


def _free_tables(
    weights: Sequence[Sequence[int]], free: Sequence[int], slack: Sequence[int]
) -> tuple[list[list[int]], list[int]]:
    """Tables over the subsets of the indices ``free``, each subset a
    bitmask over their positions there: ``tops[j][mask]`` is the largest
    column-j value of its rows and ``widest[mask]`` its largest p * (1 -
    z_i), both 0 for the empty subset.  The subsets with position t are
    those below it with t added, so each entry costs one comparison."""
    tops: list[list[int]] = [[0] for _ in weights[0]]
    widest = [0]
    for i in free:
        for col, v in zip(tops, weights[i]):
            col += [t if t > v else v for t in col]
        s = slack[i]
        widest += [w if w > s else s for w in widest]
    return tops, widest


def _subtree_bound(
    tops: Sequence[Sequence[int]],
    widest: Sequence[int],
    rest: int,
    heads: Sequence[int],
) -> int:
    """An upper bound on how far the gap of a sequence S + theta, for any
    nonempty prefix S of unused indices, exceeds ``max(gap, acc - base)``
    of theta itself (in :func:`_gap`'s terms); ``rest`` is the set of
    unused indices with p * (1 - z_i) > 0 in the tables of
    :func:`_free_tables`, and ``heads`` are theta's column heads.

    S + theta keeps the last index, so ``tail``, and its L is at most that
    of theta and at least 0, so ``cap * tail`` is at most the larger of 0
    and its value at theta.  Its acc adds, for each index of S, its gain
    times p * (1 - z_i); an index with z_i >= 1 adds nothing.  In column j
    an index gains only where it joins the chain, and the gains along the
    chain telescope, so the unused free indices gain at most
    ``tops[j][rest] - head_j`` together; each unit is weighted by at most
    ``widest[rest]``.  The bound is that weight times the sum over the
    columns; it is 0 when no free index is left.
    """
    rise = 0
    for col, head in zip(tops, heads):
        top = col[rest]
        if top > head:
            rise += top - head
    return rise * widest[rest]


def walk(
    inst: MixingInstance,
    ground: Sequence[int],
    point: tuple[int, Sequence[int], Sequence[int]],
    violated: bool = False,
) -> Generator[tuple[tuple[int, ...], int, int], Optional[int], None]:
    """Every sequence of distinct indices from ``ground``, of every length
    up to ``len(ground)``, depth first by prepending, as ``(theta, l,
    gap)``.  The walk has no depth cap: a caller counts its sequences
    (``count_sequences``) against the work budget before it starts.

    ``l`` is D * L(Theta) for the common denominator D of ``inst.scaled``,
    as :func:`fold` gives it; each node keeps only its heads, L, acc
    (:func:`_gap`) and its unused free indices, and :func:`fold` rebuilds
    the row of a sequence kept.  The point (y, z) comes checked and scaled,
    as ``core.integer_point`` gives it: ``(p, p * y, p * z)`` in integers.
    ``gap`` is the violation of ``aggregated_cut(inst, theta)`` at it
    times D times p, so it is positive exactly when the cut is violated
    and orders sequences by violation.

    ``violated`` yields only the sequences whose gap reaches a floor, at
    first 1 (every violated sequence), and skips each subtree in which no
    gap reaches it, by the bound of :func:`_subtree_bound` read from the
    tables of :func:`_free_tables`, built once per walk.  A caller after
    the most violated sequence raises the floor to the best gap so far by
    sending it (``nodes.send(gap)``, answered with None); the walk then
    skips every subtree whose bound is below it, and never one whose bound
    equals it, so no sequence that ties the best is lost.  Only sequences
    below the floor are skipped, so the first or the most violated
    sequence found is the one the full walk finds.  The starred family has
    its own loop, :func:`_starred_nodes`.

    The walk keeps one frame per depth level.
    """
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("reduce lower bounds before aggregating")
    scale, weights, eps, _ = inst.scaled
    k = inst.k
    p, y_p, at_one = point  # at_one[i] = p * z_i
    slack = [p - v for v in at_one]  # p * (1 - z_i)
    base = scale * sum(y_p)
    # The indices with p * (1 - z_i) > 0, whose tables the bound reads; the
    # full walk reads no bound.
    free = [i for i in ground if slack[i] > 0] if violated else []
    bits = [0] * inst.n  # an index's bit in the bitmasks over ``free``
    for t, i in enumerate(free):
        bits[i] = 1 << t
    tops, widest = _free_tables(weights, free, slack)
    floor = 1
    # Frame: (theta, heads, l, acc, unused free indices, remaining candidates).
    stack = [((), [0] * k, None, 0, len(widest) - 1, iter(ground))]
    while stack:
        theta, heads, low, acc, rest, candidates = stack[-1]
        for i in candidates:
            if i in theta:
                continue
            new_heads, gain, l = _prepend(weights[i], heads, low)
            new_acc = acc + gain * slack[i]
            new_theta = (i,) + theta
            new_rest = rest & ~bits[i]
            descend = len(new_theta) < len(ground)
            gap = _gap(new_acc, l, eps, at_one[new_theta[-1]], base)
            if not violated:
                yield new_theta, l, gap
            else:
                if gap >= floor:
                    sent = yield new_theta, l, gap
                    if sent is not None:
                        floor = sent
                        yield None  # the answer to send(); next() resumes here
                descend = descend and (
                    _subtree_bound(tops, widest, new_rest, new_heads)
                    + max(gap, new_acc - base)
                    >= floor
                )
            if descend:
                stack.append((new_theta, new_heads, l, new_acc, new_rest, iter(ground)))
                break
        else:
            stack.pop()


def _starred_nodes(
    inst: MixingInstance, ground: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The sequences that :func:`starred_rows` ranks, as ``(theta, z)``
    with z their cuts' z coefficients over D: every starred sequence over
    ``ground`` in which each index before the last raises some column head
    above the maximum after it, depth first by prepending.  An index
    already in the sequence never exceeds a head, so it is never a
    candidate below the root.  An index's coefficient is the gain
    :func:`_prepend` gives it, and the last index also owes epsilon.
    """
    _, weights, eps, _ = inst.scaled
    k = inst.k
    peaks = list(inst.peaks)
    # above[j][h]: the ground positions, as bits, whose column-j value is
    # more than h, for every head h column j can have.  The candidates
    # below a node are the OR of above[j][head_j] over the columns.
    above = [
        {
            h: sum(1 << p for p, i in enumerate(ground) if weights[i][j] > h)
            for h in {0, *(weights[i][j] for i in ground)}
        }
        for j in range(k)
    ]
    coeffs = [0] * inst.n
    seq: list[int] = []  # the sequence, last index first
    # Frame: [heads, L, candidate positions left]; the root's L is None.
    stack = [[[0] * k, None, (1 << len(ground)) - 1]]
    while stack:
        frame = stack[-1]
        heads, low, candidates = frame
        if not candidates:
            stack.pop()
            if seq:
                coeffs[seq.pop()] = 0
            continue
        bit = candidates & -candidates
        frame[2] = candidates ^ bit
        i = ground[bit.bit_length() - 1]
        new_heads, gain, l = _prepend(weights[i], heads, low)
        if low is None:
            gain -= eps  # the last index owes epsilon
        if l < eps:
            continue
        coeffs[i] = gain
        seq.append(i)
        if new_heads == peaks:
            yield tuple(reversed(seq)), tuple(coeffs)
        below = 0
        for j, h in enumerate(new_heads):
            below |= above[j][h]
        if below and len(seq) < len(ground):  # no sequence outgrows the ground
            stack.append([new_heads, l, below])
        else:
            coeffs[seq.pop()] = 0


def starred_rows(
    inst: MixingInstance, ground: Sequence[int]
) -> list[tuple[tuple[int, ...], int]]:
    """The starred aggregated cuts over ``ground`` as distinct integer rows
    ``(z, rhs)`` over D (the y coefficients are all 1), over sequences of
    every length.  Each row is ranked by the first sequence that
    :func:`sequences` meets with it (shorter first, then lexicographic),
    and the rows come in that order.

    A starred cut has epsilon <= L, so its cap is epsilon, and its heads
    are the column maxima, so every right-hand side is their sum.  The
    sequences are those :func:`_starred_nodes` visits: it skips each
    subtree whose L fell below epsilon, since prepending never raises L,
    and each subtree under a prepend that raises no head, except at the
    root.  Skipping the latter loses no row that comes first.  Let i raise
    no head when prepended to Theta, and let S be any prefix put in front
    of (i, Theta).  Then S + (i, Theta) and S + Theta have the same heads
    at every index of S, so every index of S has the same gain in both.
    The gain of i is 0, and the last index and the right-hand side, the
    sum of the final heads, do not change.  L only gains i's term, so
    L(S + Theta) >= L(S + (i, Theta)).
    Hence whenever S + (i, Theta) is starred, so is S + Theta, with the
    identical row, and it is shorter, so it ranks earlier.  The earliest
    sequence of each starred row therefore lies in no skipped subtree.
    """
    first: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    for theta, z in _starred_nodes(inst, sorted(ground)):
        rank = (len(theta), theta)
        known = first.get(z)
        if known is None or rank < known:
            first[z] = rank
    rhs = sum(inst.peaks)
    return [(z, rhs) for z in sorted(first, key=first.__getitem__)]


def linking_cut(inst: MixingInstance) -> LinearCut:
    """The linking constraint sum_j (y_j - lower_j) >= epsilon, written as
    sum_j y_j >= epsilon + sum_j lower_j."""
    _, _, eps, lower = inst.scaled
    return total_cut(inst, (0,) * inst.n, eps + sum(lower), CutKind.LINKING)


@dataclass(frozen=True)
class HullDiagnosis:
    """Verdict of the hull-sufficiency conditions for one instance.

    ``l_w_eps``, the least columnwise-minimum sum over pairs of ``rows``
    (the rows outside the low set, over the denominator ``scale``; one
    row's sum when it is alone, None when there is none), is computed the
    first time it is read.
    """

    i_bar: frozenset[int]
    c1_ok: bool
    c2_ok: bool
    negligible: bool
    g_submodular: bool
    rows: tuple[tuple[int, ...], ...] = field(default=(), repr=False, compare=False)
    scale: int = field(default=1, repr=False, compare=False)

    @property
    def sufficient(self) -> bool:
        """The mixing and aggregated families describe the hull exactly when
        the linking oracle is submodular."""
        return self.g_submodular

    @cached_property
    def l_w_eps(self) -> Optional[Fraction]:
        rows = self.rows
        if len(rows) < 2:
            return Fraction(sum(rows[0]), self.scale) if rows else None
        floor, best = _pair_floor(rows), None
        for total in _pair_sums(rows):
            if best is None or total < best:
                best = total
            if best <= floor:  # no pair sum is below the floor
                break
        return Fraction(best, self.scale)


def _pair_floor(rows: Sequence[Sequence[int]]) -> int:
    """The sum of the column minima of two or more rows, a lower bound on
    every pair sum.  It is also each row's own bound sum_j min(w_pj,
    column_min_j), since no entry is below its column minimum."""
    return sum(map(min, *rows))


def _pair_sums(rows: Sequence[Sequence[int]]) -> Iterator[int]:
    """sum_j min(w_pj, w_qj) over the pairs p < q of the rows, in
    ``itertools.combinations`` order."""
    return (sum(map(min, p, q)) for p, q in itertools.combinations(rows, 2))


def diagnose(inst: MixingInstance) -> HullDiagnosis:
    """Compute the index set of low rows, its negligibility and the
    resulting submodularity/sufficiency verdict; the pairwise minimum
    constant is computed when read.

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
    scale, w, eps, _ = inst.scaled
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

    # Submodular exactly when negligible and no pair sum is below epsilon.
    rows = tuple(w[i] for i in outside)
    g_submodular = negligible and (
        len(rows) < 2
        or _pair_floor(rows) >= eps
        or all(total >= eps for total in _pair_sums(rows))
    )
    return HullDiagnosis(i_bar, c1_ok, c2_ok, negligible, g_submodular, rows, scale)


def relaxation_holds(
    inst: MixingInstance, point: tuple[int, Sequence[int], Sequence[int]]
) -> bool:
    """Whether a point, checked and scaled as ``core.integer_point`` gives
    it, satisfies the relaxation rows, in integers on ``inst.scaled``: z in
    the unit box, which the check has made sure of, the linking row sum(y)
    >= epsilon and every big-M row y_j >= w_ij (1 - z_i).  With z in the
    box the big-M rows also give y >= 0."""
    p, y, z = point
    scale, weights, eps, _ = inst.scaled
    return (
        sum(y) * scale >= eps * p
        and all(
            y[j] * scale >= v * (p - s)
            for row, s in zip(weights, z)
            for j, v in enumerate(row)
        )
    )


def _linking_sequence(inst: MixingInstance, slack: Sequence[int]) -> list[int]:
    """The support of the greedy vertex of the linking oracle z ->
    max(epsilon, sum_j column_max_j(z)) against the objective ``slack`` =
    p * (1 - z), latest first: the sequence of the most violated cut when
    the oracle is submodular.

    The greedy takes the indices by slack descending, ties by ascending
    index.  An index that raises no running column maximum in that order
    (:func:`mixing.column_raisers`, from 0) leaves the oracle's value as it
    is, so its entry is 0; the greedy runs on the raisers alone, given in
    that order (its stable sort keeps it), and its nested sets have the
    same column maxima as on every index.
    """
    _, weights, eps, _ = inst.scaled
    order = sorted(range(inst.n), key=slack.__getitem__, reverse=True)
    raised = set().union(*column_raisers(weights, order, [0] * inst.k, inst.peaks))
    raisers = [i for i in order if i in raised]
    g = max_sum_oracle([weights[i] for i in raisers], [0] * inst.k, eps, "linking")
    vertex = greedy_vertex(g, [slack[i] for i in raisers])
    return [raisers[t] for t in reversed(vertex.permutation) if vertex.pi[t]]


def separate_aggregated(
    inst: MixingInstance,
    y_bar: Sequence[Fraction],
    z_bar: Sequence[Fraction],
) -> Optional[LinearCut]:
    """Most violated aggregated cut at (y_bar, z_bar), or None.

    When the linking oracle z -> max(epsilon, sum_j column_max_j(z)) is
    submodular this runs one greedy separation and is exact over the whole
    family: the greedy vertex's support, latest first, is the sequence of
    the most violated cut.  Otherwise it enumerates sequences, over
    {i : z_bar_i < 1} when the point satisfies the big-M rows and over every
    index when it does not, and returns the most violated cut found (ties:
    lexicographically smallest sequence).  The restriction is not exact: an
    index at 1 in the middle of a sequence can raise L, so a sequence
    through it can be violated when no sequence over the free indices is
    (``tests/test_walk.py`` keeps such a point).

    Both branches run in integers on the instance scaled by D and the point
    parsed and scaled by p in one pass (``core.integer_point``), with the
    prepend step.  The greedy runs on the indices that can gain
    (:func:`_linking_sequence`); the enumeration skips each subtree whose
    bound is below the best gap found so far (:func:`walk`).  The sequence
    returned is folded once (:func:`fold`) for its row, and only its cut is
    built.
    """
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("reduce lower bounds first")
    p, y_p, z_p = integer_point(inst, y_bar, z_bar)
    scale, _, eps, _ = inst.scaled
    y_total = sum(y_p)  # p * sum(y)
    if y_total * scale < eps * p:
        raise EpsilonViolated(
            f"sum(y) = {Fraction(y_total, p)} < epsilon = {inst.epsilon}; the "
            "aggregated family presumes the linking constraint"
        )
    slack = [p - v for v in z_p]  # p * (1 - z_i)

    if diagnose(inst).g_submodular:
        theta = _linking_sequence(inst, slack)
        if not theta:
            return None  # only the linking constraint itself, already satisfied
        heads, gains, l = fold(inst, theta)
        acc = sum(gains[i] * slack[i] for i in theta)
        if _gap(acc, l, eps, z_p[theta[-1]], scale * y_total) <= 0:
            return None
        return _chain_sum_cut(inst, gains, sum(heads), theta[-1], min(eps, l))

    # Points satisfying the big-M rows are searched over the indices below 1
    # only (not exact, see the docstring); others over the full ground set.
    if relaxation_holds(inst, (p, y_p, z_p)):
        ground = [i for i, s in enumerate(slack) if s > 0]
    else:
        ground = list(range(inst.n))
    if not ground:
        return None
    # Candidates in the greedy's order, slack descending and ties by index:
    # its sequence, often the best or near it, comes early and raises the
    # walk's floor.
    ground.sort(key=slack.__getitem__, reverse=True)
    check_work(count_sequences(len(ground)), f"sequences of {len(ground)} indices")
    best: Optional[tuple[int, ...]] = None
    best_gap = 0
    # The walk yields only gaps at its floor or above, so after the first
    # sequence a gap not above the best ties it.
    nodes = walk(inst, ground, (p, y_p, z_p), violated=True)
    for theta, _, gap in nodes:
        if gap > best_gap:
            best, best_gap = theta, gap
            nodes.send(gap)  # skip each subtree that cannot reach this gap
        elif theta < best:  # type: ignore[operator]
            best = theta
    if best is None:
        return None
    heads, gains, l = fold(inst, best)
    return _chain_sum_cut(inst, gains, sum(heads), best[-1], min(eps, l))


def separate(
    inst: MixingInstance,
    y_bar: Sequence[Fraction],
    z_bar: Sequence[Fraction],
    families: Sequence[str] = ("mix", "amix"),
) -> list[tuple[Fraction, LinearCut]]:
    """Violated cuts of the chosen families at (y_bar, z_bar), each with its
    violation: the most violated mixing cut per column (family "mix"), then
    the linking row or the most violated aggregated cut (family "amix").

    The point is checked before any family runs, and an empty choice of
    families is an error, not an empty answer.  Mixing cuts are separated on
    the instance as given, whose column passes start at the lower bounds.
    A violated linking row takes precedence over the aggregated family, which
    presumes it; otherwise the aggregated family is separated on the reduced
    instance at y - lower, and the cut found, alpha.(y - lower) + beta.z >=
    gamma, is returned with right-hand side gamma + alpha.lower.
    """
    unknown = set(families) - {"mix", "amix"}
    if unknown:
        raise ValidationError(f"unknown families {sorted(unknown)}")
    p, y_p, z_p = integer_point(inst, y_bar, z_bar)
    y, z = unscale(y_p, p), unscale(z_p, p)
    if not families:
        raise ValidationError("no cut family chosen: name mix, amix or both")
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
            if cut is not None and not inst.lower_is_zero:
                # Its row over D (the reduced instance's denominator divides
                # D), with sum(lower) added to the right-hand side.
                scale, _, _, lower = inst.scaled
                z_row = [v.numerator * (scale // v.denominator) for v in cut.z_coeffs]
                rhs = cut.rhs.numerator * (scale // cut.rhs.denominator) + sum(lower)
                cut = total_cut(inst, z_row, rhs, cut.kind)
            if cut is not None:
                found.append((cut.violation(y, z), cut))
    return found
