"""Explicit points proving the cut families miss part of the hull.

When the sufficiency conditions fail there is a fractional point that
satisfies every mixing and aggregated mixing inequality yet lies outside the
convex hull.  In each of the three failure cases the point puts equal
fractional weight on a set U of rows, and one builder, :func:`_point`,
makes it from U and the total of y, in integers on ``inst.scaled``; the
three constructors check their case and name U and that total.
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


def _require_reduced(inst: MixingInstance) -> None:
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("witness constructions require zero lower bounds")


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


def find_minimal_U(inst: MixingInstance) -> tuple[int, ...]:
    """Inclusion-minimal subset of the low rows whose columnwise peaks still
    exceed the linking threshold (greedy deletion, ascending index order)."""
    _require_reduced(inst)
    diag = diagnose(inst)
    if diag.c2_ok:
        raise PreconditionFailed("peak condition holds; no violating subset exists")
    _, weights, eps, _ = inst.scaled
    u = sorted(diag.i_bar)

    def exceeds(subset: list[int]) -> bool:
        return bool(subset) and sum(_peaks(weights, subset)) > eps

    # One ascending pass: the peak sum only grows with the subset, so an
    # index kept against a superset of the final U stays kept.
    for i in list(u):
        trial = [v for v in u if v != i]
        if exceeds(trial):
            u = trial
    for i in u:  # minimality audit: every single deletion must fail
        if exceeds([v for v in u if v != i]):
            raise PreconditionFailed(f"deletion of {i} should have been taken")
    return tuple(u)


def witness_c2(inst: MixingInstance, u: Sequence[int]) -> Point:
    """Point for a violated peak-sum condition: :func:`_point` on U with
    sum(y) equal to the linking threshold exactly."""
    _require_reduced(inst)
    u = sorted(set(u))
    if len(u) < 2:
        raise PreconditionFailed("violating subset must have at least two rows")
    _, weights, eps, _ = inst.scaled
    if sum(_peaks(weights, u)) <= eps:
        raise PreconditionFailed("subset does not violate the peak-sum condition")
    return _point(inst, u, len(u) * eps)


def witness_c1(inst: MixingInstance, p: int, q: int) -> Point:
    """Point for a violated dominance condition at rows p (outside the low
    set) and q (inside, beating p somewhere): :func:`_point` on {p, q} with
    sum(y) = (epsilon + rowsum(p)) / 2."""
    _require_reduced(inst)
    diag = diagnose(inst)
    if p in diag.i_bar or q not in diag.i_bar:
        raise PreconditionFailed("need p outside and q inside the low-row set")
    _, weights, eps, _ = inst.scaled
    if all(a <= b for a, b in zip(weights[q], weights[p])):
        raise PreconditionFailed(f"row {q} never beats row {p}")
    return _point(inst, (p, q), eps + sum(weights[p]))


def witness_lw(inst: MixingInstance, p: int, q: int) -> Point:
    """Point for a linking threshold above the pairwise minimum constant,
    built from the attaining pair outside the low-row set: :func:`_point`
    on {p, q} with sum(y) = (rowsum(p) + rowsum(q)) / 2, which is half the
    sum of the pair's columnwise maxima and minima.

    It cannot be certified when the pair's columnwise minima are 0 in every
    column but the last.  Then y = (w_p + w_q) / 2, and the point is the
    midpoint of the two hull points with y = w_p, z_p = 0 and y = w_q,
    z_q = 0 (every other z at 1), so it lies inside the hull.
    """
    _require_reduced(inst)
    diag = diagnose(inst)
    if p == q or p in diag.i_bar or q in diag.i_bar:
        raise PreconditionFailed("need two distinct rows outside the low-row set")
    scale, weights, eps, _ = inst.scaled
    pair_min = sum(map(min, weights[p], weights[q]))
    if diag.l_w_eps is None or not (pair_min == _times(diag.l_w_eps, scale) < eps):
        raise PreconditionFailed("pair does not attain a constant below epsilon")
    return _point(inst, (p, q), sum(weights[p]) + sum(weights[q]))


def witness(
    inst: MixingInstance, diag: Optional[HullDiagnosis] = None
) -> tuple[Point, str]:
    """Build the witness for whichever condition fails, with a deterministic
    choice of subset/pair (smallest in lexicographic order); the attaining
    pair of the pair-minimum case is the first whose minimum is the
    diagnosis's ``l_w_eps``."""
    if diag is None:
        diag = diagnose(inst)
    if diag.sufficient:
        raise PreconditionFailed("instance is sufficient; no witness exists")
    if not diag.c2_ok:
        return witness_c2(inst, find_minimal_U(inst)), "peak-sum"
    scale, weights, _, _ = inst.scaled
    outside = [i for i in range(inst.n) if i not in diag.i_bar]
    if not diag.c1_ok:
        for p in outside:
            for q in sorted(diag.i_bar):
                if any(a > b for a, b in zip(weights[q], weights[p])):
                    return witness_c1(inst, p, q), "dominance"
        raise PreconditionFailed("no violating pair found")  # pragma: no cover
    l_w_eps = _times(diag.l_w_eps, scale)
    for p, q in itertools.combinations(outside, 2):
        if sum(map(min, weights[p], weights[q])) == l_w_eps:
            return witness_lw(inst, p, q), "pair-minimum"
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
