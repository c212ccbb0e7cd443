"""Per-column machinery: lower-bound reduction, quantile bounds, mixing cuts.

The mixing inequality of a chain of scenario indices with nonincreasing
column values telescopes their differences; the starred form starts the
chain at the column maximum and, together with the variable bounds, yields
the full hull of the linking-free set.  Separation sorts the complemented
variables once and makes one running-maximum pass per column over that
order, the closed form of the greedy vertex of the column function, all in
integers on the instance's and the point's integer views.  One builder
writes every mixing cut from its chain as an integer row over the
instance's common denominator, for the enumerated chains of a column and
the chain of a violated column pass alike; a cut is assembled
(``MixingInstance.row_cut``) only from a row that is returned.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .core import (
    CutKind,
    LinearCut,
    MixingInstance,
    RiskOutOfRange,
    check_work,
    integer_point,
    parse_rational,
)


def reduce_lower_bounds(
    inst: MixingInstance,
) -> tuple[MixingInstance, tuple[Fraction, ...]]:
    """Shift lower bounds to zero: entries become (w - lower_j)+, same epsilon.

    A cut alpha.y + beta.z >= gamma on the reduced instance is valid for the
    original one as alpha.(y - lower) + beta.z >= gamma, i.e. with right-hand
    side gamma + alpha.lower.
    """
    shift = inst.lower
    if inst.lower_is_zero:
        return inst, shift
    reduced = [
        [max(Fraction(0), w - shift[j]) for j, w in enumerate(row)]
        for row in inst.weights
    ]
    return (
        MixingInstance(reduced, None, inst.epsilon, inst.probabilities),
        shift,
    )


def quantile_lower_bounds(inst: MixingInstance, risk: Fraction) -> tuple[Fraction, ...]:
    """Largest per-column bounds implied by the scenario-probability budget.

    For each column, scenarios are sorted by value descending; the bound is
    the value at the first position where the cumulative probability of the
    strictly-better-ranked scenarios is still within the risk budget but
    including it exceeds the budget.  Ties on the budget boundary keep the
    weak inequality on the already-accumulated mass.
    """
    if inst.probabilities is None:
        raise RiskOutOfRange("instance has no scenario probabilities")
    risk = parse_rational(risk)
    if not Fraction(0) < risk < Fraction(1):
        raise RiskOutOfRange(f"risk {risk} outside (0, 1)")
    bounds = []
    for j in range(inst.k):
        order = sorted(range(inst.n), key=lambda i: (-inst.weights[i][j], i))
        acc = Fraction(0)
        value = inst.weights[order[-1]][j]
        for i in order:
            acc += inst.probabilities[i]
            if acc > risk:
                value = inst.weights[i][j]
                break
        bounds.append(value)
    return tuple(bounds)


ColumnRow = tuple[tuple[int, ...], int]


def _column_row(inst: MixingInstance, j: int, chain: Sequence[int]) -> ColumnRow:
    """Telescoped inequality of a chain of column j with nonincreasing values
    down to lower_j, as an integer row ``(z, head)`` over D = ``inst.scaled``:
    y_j plus each member's drop to the next (the last one's to lower_j)
    times its z is at least the head.  The empty chain gives y_j >=
    lower_j."""
    _, weights, _, lower = inst.scaled
    coeffs = [0] * inst.n
    head = lower[j]
    for i in reversed(chain):
        coeffs[i] = weights[i][j] - head
        head = weights[i][j]
    return tuple(coeffs), head


def _row_cut(inst: MixingInstance, j: int, row: ColumnRow) -> LinearCut:
    """The cut ``y_j + z . z >= head`` of an integer row of column j over D;
    starred when the head reaches the column maximum."""
    z, head = row
    y = [0] * inst.k
    y[j] = inst.scaled[0]
    kind = CutKind.MIX_STAR if head >= inst.peaks[j] else CutKind.MIX
    return inst.row_cut(tuple(y), z, head, kind)


def _column_cut(inst: MixingInstance, j: int, chain: Sequence[int]) -> LinearCut:
    """The mixing cut of a chain of column j (see :func:`_column_row`)."""
    return _row_cut(inst, j, _column_row(inst, j, chain))


def column_raisers(
    weights: Sequence[Sequence[int]],
    order: Sequence[int],
    floors: Sequence[int],
    peaks: Sequence[int],
) -> list[list[int]]:
    """The running-maximum pass of every column over the indices in
    ``order``: per column, the indices that raise its maximum, which starts
    at the column's floor, in that order.  A column's pass stops at its
    peak, above which no index can raise it."""
    raised = []
    for j, (top, peak) in enumerate(zip(floors, peaks)):
        chain = []
        if top < peak:
            for i in order:
                w = weights[i][j]
                if w > top:
                    top = w
                    chain.append(i)
                    if w == peak:
                        break
        raised.append(chain)
    return raised


def separate_mixing(
    inst: MixingInstance,
    y_bar: Sequence[Fraction],
    z_bar: Sequence[Fraction],
) -> list[LinearCut]:
    """Most violated mixing cut per column at (y_bar, z_bar), greedy-exact.

    The greedy vertex pi of the column function z -> max(lower_j, max_i
    w[i][j] z_i) against the complemented point gives the column's most
    violated inequality y_j >= lower_j + pi.(1 - z), written y_j + pi.z >=
    lower_j + sum(pi); a column contributes nothing exactly when its
    coordinate satisfies all of the column's mixing inequalities.  For this
    max function the greedy telescopes into a running maximum: over the
    indices sorted by 1 - z descending (ties by ascending index), pi_i is
    how far w[i][j] raises the maximum so far, which starts at lower_j.  The
    indices that raise it, latest first, are the chain of the cut, headed at
    the column maximum when that exceeds lower_j.

    Everything runs in integers: the weights scaled by the instance's common
    denominator D, the point parsed and scaled in one pass
    (``core.integer_point``), one sort of p * (1 - z) for the point's common
    denominator p shared by every column, and the test y_j >= lower_j +
    pi.(1 - z) times D * p.  A column's pass (:func:`column_raisers`)
    stops at its maximum, above which no index can raise it.  Only a
    violated column's cut is built, over D.
    """
    return violated_mixing_cuts(inst, integer_point(inst, y_bar, z_bar))


def violated_mixing_cuts(
    inst: MixingInstance, point: tuple[int, Sequence[int], Sequence[int]]
) -> list[LinearCut]:
    """The integer stage of :func:`separate_mixing`, on a point already
    checked and scaled as ``core.integer_point`` gives it: ``(p, p * y, p
    * z)``."""
    p, y_p, z_p = point
    slack = [p - v for v in z_p]  # p * (1 - z_i)
    # Slack descending, ties by ascending index: a stable sort keeps equal
    # values in index order, also when reversed.
    order = sorted(range(inst.n), key=slack.__getitem__, reverse=True)
    scale, weights, _, lower = inst.scaled
    cuts = []
    for j, chain in enumerate(column_raisers(weights, order, lower, inst.peaks)):
        top = lower[j]
        bound = top * p
        for i in chain:
            w = weights[i][j]
            bound += (w - top) * slack[i]
            top = w
        if y_p[j] * scale < bound:
            chain.reverse()  # latest first: values decreasing
            cuts.append(_column_cut(inst, j, chain))
    return cuts


# ---------------------------------------------------------------------------
# Cut family enumeration.  Distinct canonical chains are value-subsets of a
# column (each represented by one attaining index): equal-value chain members
# other than the last carry a zero coefficient, so only the representative
# choice matters.  Chains are built nonincreasing and at or above lower_j, so
# none is checked again.  Rows are deduplicated before any cut is built.
# ---------------------------------------------------------------------------


def _chain_rows(inst: MixingInstance, j: int, star_only: bool) -> tuple[ColumnRow, ...]:
    """Distinct integer rows of the chains of a column, in the order their
    first chain comes; with ``star_only`` only chains headed at the column
    maximum.  The chains are counted against the work budget before the
    first is built."""
    _, weights, _, lower = inst.scaled
    by_value: dict[int, list[int]] = {}
    for i, row in enumerate(weights):
        if row[j] >= lower[j]:
            by_value.setdefault(row[j], []).append(i)
    groups = [by_value[v] for v in sorted(by_value, reverse=True)]
    # A chain takes one index from its head's group and at most one from
    # each later group: sum_s |g_s| * prod_{t > s} (1 + |g_t|) chains, which
    # telescopes to prod_t (1 + |g_t|) - 1; starred, s = 0 only.
    tail = math.prod(1 + len(g) for g in groups[1:])
    first = len(groups[0]) if groups else 0
    count = first * tail if star_only else (1 + first) * tail - 1
    check_work(count, f"{'starred chains' if star_only else 'chains'} of column {j}")
    chains = (
        (head,) + tuple(i for i in pattern if i is not None)
        for start, head_group in enumerate(groups[:1] if star_only else groups)
        for head in head_group
        for pattern in itertools.product(
            *[[None] + g for g in groups[start + 1 :]]  # type: ignore[list-item]
        )
    )
    # Over one D, equal rows are exactly equal cuts; the first of each is kept.
    return tuple(dict.fromkeys(_column_row(inst, j, chain) for chain in chains))


def star_rows(inst: MixingInstance, j: int) -> tuple[ColumnRow, ...]:
    """The distinct starred mixing rows of column j over D, computed once per
    instance and column and kept on the instance (the hull family reads
    them as rows and, through :func:`mix_star_cuts`, as cuts)."""
    memo = inst.__dict__.setdefault("_star_rows", {})
    rows = memo.get(j)
    if rows is None:
        rows = memo[j] = _chain_rows(inst, j, star_only=True)
    return rows


def mix_star_cuts(inst: MixingInstance, j: int) -> list[LinearCut]:
    """All distinct starred mixing cuts of a column (deduplicated)."""
    return [_row_cut(inst, j, row) for row in star_rows(inst, j)]


def all_mixing_cuts(inst: MixingInstance, j: int) -> list[LinearCut]:
    """All distinct mixing cuts of a column, starred or not (deduplicated)."""
    return [_row_cut(inst, j, row) for row in _chain_rows(inst, j, star_only=False)]
