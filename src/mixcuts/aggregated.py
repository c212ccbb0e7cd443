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
one common denominator.  The prepend step :func:`_prepend` computes chains
and L for the walk, and :func:`fold` runs it over one given sequence, for
:func:`aggregated_cut` and the greedy separation.  The starred family has
its own depth-first loop (:func:`starred_rows`): because prepending never
raises L, a subtree whose L has fallen below epsilon holds no starred cut
and is skipped whole, and below the root only an index that raises some
column head is prepended.  An index's coefficient is its gain when it is
prepended, so that loop builds each row as it walks and keeps no chains.

The linking oracle z -> max(epsilon, sum_j column_max_j(z)) decides how the
family is separated: when it is submodular (:func:`diagnose` reads this off
the coefficient matrix and epsilon) one greedy pass finds the most violated
cut, and the mixing and aggregated families describe the hull.
"""

from __future__ import annotations

import itertools
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
    scale_point,
    unscale,
)
from .mixing import reduce_lower_bounds, separate_mixing
from .submodular import greedy_vertex, max_sum_oracle

SEPARATION_SEQUENCE_BOUND = 2_000_000


def _chain_sum_row(
    inst: MixingInstance,
    chains: Sequence[tuple[int, ...]],
    last: int,
    cap: int,
) -> tuple[list[int], int]:
    """Summed per-column chains minus ``cap / D`` on the index ``last``, as
    the z coefficients and right-hand side over the common denominator D of
    ``inst.scaled`` (the y coefficients are all 1)."""
    weights = inst.scaled[1]
    coeffs = [0] * inst.n
    rhs = 0
    for j, chain in enumerate(chains):
        values = [weights[i][j] for i in chain] + [0]
        for s, i in enumerate(chain):
            coeffs[i] += values[s] - values[s + 1]
        rhs += values[0]
    coeffs[last] -= cap
    return coeffs, rhs


def total_cut(
    inst: MixingInstance, z: Sequence[int], rhs: int, kind: CutKind
) -> LinearCut:
    """The cut ``sum_j y_j + z . z >= rhs`` of an integer row over D."""
    scale = inst.scaled[0]
    return LinearCut(
        [Fraction(1)] * inst.k,
        unscale(z, scale),
        Fraction(rhs, scale),
        kind,
    )


def _chain_sum_cut(
    inst: MixingInstance,
    chains: Sequence[tuple[int, ...]],
    last: int,
    cap: int,
) -> LinearCut:
    """The cut of :func:`_chain_sum_row`, starred when the cap is epsilon and
    every chain head attains its column maximum (heads never exceed the
    maxima, so exactly when the right-hand side is their sum)."""
    z, rhs = _chain_sum_row(inst, chains, last, cap)
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
    _, chains, l, _ = fold(inst, theta.indices)
    return _chain_sum_cut(inst, chains, theta.last, min(inst.scaled[2], l))


def sequences(
    indices: Sequence[int], max_length: Optional[int] = None
) -> Iterator[SequenceTheta]:
    """All ordered sequences of distinct indices, shortest first."""
    top = len(indices) if max_length is None else min(max_length, len(indices))
    for length in range(1, top + 1):
        for perm in itertools.permutations(indices, length):
            yield SequenceTheta(perm)


def count_sequences(ground: int) -> int:
    """The number of nonempty sequences of distinct indices from a ground
    set of this size."""
    total = 0
    term = 1
    for length in range(1, ground + 1):
        term *= ground - length + 1
        total += term
    return total


Node = tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int, int]


def _prepend(
    i: int,
    row: Sequence[int],
    heads: Sequence[int],
    chains: Sequence[tuple[int, ...]],
    low: Optional[int],
    acc: int,
    slack: int,
) -> tuple[list[int], list[tuple[int, ...]], int, int]:
    """Prepend index ``i``, whose scaled row is ``row``, to a sequence.

    The sequence is given by its column heads and chains, its scaled L
    (None for the empty sequence) and ``acc``, the sum over its indices of
    coefficient times p * (1 - z_i); ``slack`` is p * (1 - z_i) of the new
    index.  Returns the new heads, chains, L and acc.
    """
    gain = 0  # coefficient of i: what it adds to the heads
    term = 0  # sum_j min(w_ij, head_j): i's own term of L
    new_heads = list(heads)
    new_chains = list(chains)
    for j, v in enumerate(row):
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
    return new_heads, new_chains, l, acc + gain * slack


def fold(
    inst: MixingInstance,
    theta: Sequence[int],
    slack: Optional[Sequence[int]] = None,
) -> tuple[list[int], list[tuple[int, ...]], int, int]:
    """The heads, chains, scaled L and acc of a nonempty sequence, as
    :func:`_prepend` builds them from its indices, last index first, on
    ``inst.scaled``; ``slack`` gives p * (1 - z_i) per index (0 without
    one)."""
    weights = inst.scaled[1]
    node = [0] * inst.k, [()] * inst.k, None, 0
    for i in reversed(theta):
        node = _prepend(i, weights[i], *node, 0 if slack is None else slack[i])
    return node  # type: ignore[return-value]


def _gap(acc: int, l: int, eps: int, tail: int, base: int) -> int:
    """Scaled violation of a sequence's cut: ``acc`` and L as kept by
    :func:`_prepend`, ``tail`` = p * z of its last index and ``base`` = D *
    p * sum(y)."""
    cap = eps if eps < l else l
    return acc + cap * tail - base


def _subtree_bound(
    weights: Sequence[Sequence[int]],
    free: Sequence[int],
    theta: Sequence[int],
    heads: Sequence[int],
    slack: Sequence[int],
) -> int:
    """An upper bound on how far the gap of a sequence S + theta, for any
    nonempty prefix S of unused indices, exceeds ``max(gap, acc - base)``
    of theta itself (in :func:`_gap`'s terms); ``free`` are the indices
    with p * (1 - z_i) > 0.

    S + theta keeps the last index, so ``tail``, and its L is at most that
    of theta and at least 0, so ``cap * tail`` is at most the larger of 0
    and its value at theta.  Its acc adds, for each index of S, its gain
    times p * (1 - z_i); an index with z_i >= 1 adds nothing.  In column j
    an index gains only where it joins the chain, and the gains along the
    chain telescope, so the unused free indices gain at most m_j - head_j
    together, m_j the largest of their column values; each unit is weighted
    by at most their largest p * (1 - z_i).  The bound is that weight times
    the sum over the columns; it is 0 when no free index is left.
    """
    rest = [f for f in free if f not in theta]
    if not rest:
        return 0
    rise = 0
    for j, head in enumerate(heads):
        top = max(weights[f][j] for f in rest)
        if top > head:
            rise += top - head
    return rise * max(slack[f] for f in rest)


def walk(
    inst: MixingInstance,
    ground: Sequence[int],
    point: Optional[tuple[int, Sequence[int], Sequence[int]]] = None,
    violated: bool = False,
) -> Iterator[Node]:
    """Every sequence of distinct indices from ``ground``, of every length
    up to ``len(ground)``, depth first by prepending, as ``(theta, chains,
    l, gap)``.  The walk has no depth cap: a caller bounds its work by the
    size of ``ground`` before it starts (``count_sequences``).

    ``chains`` and ``l`` are the per-column chains and D * L(Theta) for the
    common denominator D of ``inst.scaled``, as :func:`fold` gives them.
    A point (y, z) comes checked and scaled, as ``core.scale_point`` gives
    it: ``(p, p * y, p * z)`` in integers.  With one, ``gap`` is the
    violation of ``aggregated_cut(inst, theta)`` at it times D times p, so
    it is positive exactly when the cut is violated and orders sequences by
    violation; without one it is 0.

    ``violated`` (with a point) yields only the sequences whose cut is
    violated at the point, and skips each subtree that holds none by the
    bound of :func:`_subtree_bound`.  Only sequences that are not violated
    are skipped, so the first or the most violated sequence found is the
    one the full walk finds.  The starred family has its own loop,
    :func:`_starred_nodes`.

    The walk keeps one frame per depth level.
    """
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("reduce lower bounds before aggregating")
    scale, weights, eps, _ = inst.scaled
    k = inst.k
    if point is None:
        slack = at_one = [0] * inst.n
        base = 0
    else:
        p, y_p, at_one = point  # at_one[i] = p * z_i
        slack = [p - v for v in at_one]  # p * (1 - z_i)
        base = scale * sum(y_p)
    free = [i for i in ground if slack[i] > 0]
    # Frame: (theta, heads, chains, l, acc, remaining candidates).
    stack = [((), [0] * k, [()] * k, None, 0, iter(ground))]
    while stack:
        theta, heads, chains, low, acc, candidates = stack[-1]
        for i in candidates:
            if i in theta:
                continue
            new_heads, new_chains, l, new_acc = _prepend(
                i, weights[i], heads, chains, low, acc, slack[i]
            )
            new_theta = (i,) + theta
            descend = len(new_theta) < len(ground)
            gap = _gap(new_acc, l, eps, at_one[new_theta[-1]], base)
            if gap > 0 or not violated:
                yield new_theta, tuple(new_chains), l, gap
            if violated:
                descend = descend and (
                    _subtree_bound(weights, free, new_theta, new_heads, slack)
                    + max(gap, new_acc - base)
                    > 0
                )
            if descend:
                stack.append(
                    (new_theta, new_heads, new_chains, l, new_acc, iter(ground))
                )
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
    candidate below the root.  An index's coefficient is its gain, fixed
    when it is prepended, and the last index also owes epsilon.
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
        gain = 0  # coefficient of i: what it adds to the heads
        term = 0  # sum_j min(w_ij, head_j): i's own term of L
        new_heads = heads[:]
        for j, v in enumerate(weights[i]):
            h = heads[j]
            if v >= h:
                gain += v - h
                term += h
                new_heads[j] = v
            else:
                term += v
        if low is None:
            l, gain = gain, gain - eps  # the last index: its row sum, owes epsilon
        else:
            l = term if term < low else low
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
    at every index of S, and so the same chains apart from i.  The index i
    joins a chain only at a tie with the head of Theta, where its
    coefficient is 0; the last index and the right-hand side do not
    change.  L only gains i's term, so L(S + Theta) >= L(S + (i, Theta)).
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
    return LinearCut(
        [Fraction(1)] * inst.k,
        [Fraction(0)] * inst.n,
        inst.epsilon + sum(inst.lower, Fraction(0)),
        CutKind.LINKING,
    )


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
    scaled by p, with the walker's prepend step; a cut is built only for
    the sequence returned.
    """
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("reduce lower bounds first")
    y, z = check_point(inst, y_bar, z_bar)
    p, y_p, z_p = scale_point(y, z)
    scale, weights, eps, _ = inst.scaled
    y_total = sum(y_p)  # p * sum(y)
    if y_total * scale < eps * p:
        raise EpsilonViolated(
            f"sum(y) = {Fraction(y_total, p)} < epsilon = {inst.epsilon}; the "
            "aggregated family presumes the linking constraint"
        )
    slack = [p - v for v in z_p]  # p * (1 - z_i)

    if diagnose(inst).g_submodular:
        g = max_sum_oracle(weights, [0] * inst.k, eps, "linking")
        vertex = greedy_vertex(g, slack)
        theta = [i for i in reversed(vertex.permutation) if vertex.pi[i]]
        if not theta:
            return None  # only the linking constraint itself, already satisfied
        _, chains, l, acc = fold(inst, theta, slack)
        if _gap(acc, l, eps, z_p[theta[-1]], scale * y_total) <= 0:
            return None
        return _chain_sum_cut(inst, chains, theta[-1], min(eps, l))

    # Points satisfying the big-M rows are searched over the indices below 1
    # only (not exact, see the docstring); others over the full ground set.
    relaxation_ok = all(
        y_p[j] * scale >= row[j] * s
        for row, s in zip(weights, slack)
        for j in range(inst.k)
    )
    if relaxation_ok:
        ground = [i for i, s in enumerate(slack) if s > 0]
    else:
        ground = list(range(inst.n))
    if not ground:
        return None
    if count_sequences(len(ground)) > SEPARATION_SEQUENCE_BOUND:
        raise GroundSetTooLarge(
            f"{len(ground)} free indices need more than "
            f"{SEPARATION_SEQUENCE_BOUND} sequences"
        )
    best: Optional[Node] = None
    for node in walk(inst, ground, point=(p, y_p, z_p)):
        theta, _, _, gap = node
        if gap > 0 and (
            best is None or gap > best[3] or (gap == best[3] and theta < best[0])
        ):
            best = node
    if best is None:
        return None
    theta, chains, l, _ = best
    return _chain_sum_cut(inst, chains, theta[-1], min(eps, l))


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
    y, z = check_point(inst, y_bar, z_bar)
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
            if cut is not None:
                lift = sum((a * s for a, s in zip(cut.y_coeffs, shift)), Fraction(0))
                cut = LinearCut(cut.y_coeffs, cut.z_coeffs, cut.rhs + lift, cut.kind)
                found.append((cut.violation(y, z), cut))
    return found
