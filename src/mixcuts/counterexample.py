"""Explicit points proving the cut families miss part of the hull.

When the sufficiency conditions fail there is a fractional point that
satisfies every mixing and aggregated mixing inequality yet lies outside the
convex hull.  In each of the three failure cases the point puts equal
fractional weight on a set U of rows, and one builder, :func:`_point`,
makes it from U and the total of y, in integers on ``inst.scaled``;
:func:`witness` finds the failing case and names U and that total once.
:func:`certify_witness` replays the full argument executably (cut sweeps
plus the exact membership LP).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from .aggregated import (
    HullDiagnosis,
    aggregated_cut,
    count_sequences,
    diagnose,
    relaxation_holds,
    walk,
)
from .core import (
    LowerBoundsNotReduced,
    MixingInstance,
    PreconditionFailed,
    SequenceTheta,
    check_work,
    indicator_target,
    integer_point,
)
from .mixing import violated_mixing_cuts
from .vertices import MembershipResult, membership, v_representation

Point = tuple[tuple[Fraction, ...], tuple[Fraction, ...]]


def _times(value: Fraction, scale: int) -> int:
    """``value * scale`` for a value whose denominator divides ``scale``."""
    return value.numerator * (scale // value.denominator)


def _peaks(weights: Sequence[Sequence[int]], subset: Sequence[int]) -> list[int]:
    """The column maxima of the scaled weights over the subset's rows."""
    return list(map(max, zip(*(weights[i] for i in subset))))


def _point(inst: MixingInstance, u: Sequence[int], total: int) -> Point:
    """The witness on the rows U: z_i = 1/|U| on U and 1 elsewhere, and y
    at (|U|-1)/|U| of the column peaks over U, its last column topped up so
    that sum(y) is ``total / (|U| * D)``, D the denominator of
    ``inst.scaled``.  Only the point returned is made of Fractions."""
    scale, weights, _, _ = inst.scaled
    size = len(u)
    y = [(size - 1) * peak for peak in _peaks(weights, u)]
    y[-1] += total - sum(y)
    z = tuple(Fraction(1, size) if i in u else Fraction(1) for i in range(inst.n))
    return tuple(Fraction(v, size * scale) for v in y), z


def witness(
    inst: MixingInstance, diag: Optional[HullDiagnosis] = None
) -> tuple[Point, str]:
    """Build the witness for whichever condition fails, with a deterministic
    choice of subset/pair (smallest in lexicographic order).  Each case
    names its rows once and hands them, with the total of y, to
    :func:`_point`:

    - peak-sum: U is the low-row set cut down by one ascending deletion
      pass, and sum(y) is the linking threshold exactly;
    - dominance: the first row p outside the low set that some row q inside
      it beats in a column, and sum(y) = (epsilon + rowsum(p)) / 2;
    - pair-minimum: the first pair outside the low set whose columnwise
      minima sum to the diagnosis's ``l_w_eps``, and sum(y) = (rowsum(p) +
      rowsum(q)) / 2, half the sum of the pair's columnwise maxima and
      minima.

    The pair-minimum point cannot be certified when the pair's columnwise
    minima are 0 in every column but the last.  Then y = (w_p + w_q) / 2,
    and the point is the midpoint of the two hull points with y = w_p,
    z_p = 0 and y = w_q, z_q = 0 (every other z at 1), so it lies inside
    the hull.
    """
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("witness constructions require zero lower bounds")
    if diag is None:
        diag = diagnose(inst)
    if diag.sufficient:
        raise PreconditionFailed("instance is sufficient; no witness exists")
    scale, weights, eps, _ = inst.scaled
    if not diag.c2_ok:
        # The peak sum only grows with the subset, so an index kept against
        # a superset of the final U stays kept: one pass leaves U minimal.
        u = sorted(diag.i_bar)
        for i in list(u):
            trial = [v for v in u if v != i]
            if trial and sum(_peaks(weights, trial)) > eps:
                u = trial
        return _point(inst, u, len(u) * eps), "peak-sum"
    outside = [i for i in range(inst.n) if i not in diag.i_bar]
    if not diag.c1_ok:
        for p in outside:
            for q in sorted(diag.i_bar):
                if any(a > b for a, b in zip(weights[q], weights[p])):
                    return _point(inst, (p, q), eps + sum(weights[p])), "dominance"
        raise PreconditionFailed("no violating pair found")  # pragma: no cover
    l_w_eps = _times(diag.l_w_eps, scale)
    for p, q in itertools.combinations(outside, 2):
        if sum(map(min, weights[p], weights[q])) == l_w_eps:
            total = sum(weights[p]) + sum(weights[q])
            return _point(inst, (p, q), total), "pair-minimum"
    raise PreconditionFailed("no attaining pair found")  # pragma: no cover


def check_certify_work(inst: MixingInstance) -> None:
    """Refuse up front a certification whose aggregated sweep could visit
    every sequence of the n indices, when they are more than the work
    budget."""
    check_work(count_sequences(inst.n), f"sequences of {inst.n} indices to certify")


def certify_witness(
    inst: MixingInstance,
    point: Point,
    verdict: Optional[MembershipResult] = None,
    scaled: Optional[tuple[int, list[int], list[int]]] = None,
) -> list[str]:
    """Replay the witness argument, returning one message per assertion:
    the point satisfies the relaxed constraint rows, every mixing cut,
    every aggregated mixing cut, and still lies outside the hull.

    The aggregated sweep walks only the subtrees of the sequence tree that
    can hold a violated cut (``walk(..., violated=True)``): a subtree is
    skipped when a bound on the violation of every sequence in it, from
    the unused indices with z_i < 1, is at most 0.  No skipped sequence is
    violated, so the first violated sequence reported is the one the walk
    over every sequence reports.  Walking only {i : z_i < 1} would not do:
    an index at 1 in the middle of a sequence can raise L, so the only
    violated sequences can go through it, even where every relaxation row
    holds (``tests/test_walk.py`` keeps such a point).

    The point is checked and scaled once, by ``core.integer_point``, for
    every check; pass ``scaled``, what that gives for it, when it is
    already known.  Pass the point's membership verdict when it is already
    known; otherwise the membership LP is solved here, on the target of the
    scaled point (:func:`mixcuts.core.indicator_target`).
    """
    check_certify_work(inst)
    if scaled is None:
        scaled = integer_point(inst, *point)
    messages = [
        "ok: relaxation rows hold"
        if relaxation_holds(inst, scaled)
        else "FAIL: relaxation row violated"
    ]

    # Greedy separation is exact per column: it returns nothing exactly when
    # every mixing cut, starred or not, holds at a point of the unit box.
    bad_mix = violated_mixing_cuts(inst, scaled)
    messages.append(
        f"FAIL: mixing cut violated: {bad_mix[0]}"
        if bad_mix
        else "ok: all mixing cuts hold"
    )

    # The report names the first violated sequence in shortest-first
    # lexicographic order.
    bad_agg = min(
        (
            (len(theta), theta)
            for theta, _, _ in walk(inst, range(inst.n), scaled, violated=True)
        ),
        default=None,
    )
    if bad_agg is None:
        messages.append("ok: all aggregated cuts hold")
    else:
        cut = aggregated_cut(inst, SequenceTheta(bad_agg[1]))
        messages.append(f"FAIL: aggregated cut violated for {bad_agg[1]}: {cut}")

    if verdict is None:
        verdict = membership(v_representation(inst), *indicator_target(scaled))
    messages.append(
        "ok: membership LP certifies the point outside the hull"
        if not verdict.inside
        else "FAIL: point is inside the hull"
    )
    return messages
