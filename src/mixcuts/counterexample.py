"""Explicit points proving the cut families miss part of the hull.

When the sufficiency conditions fail there is a fractional point that
satisfies every mixing and aggregated mixing inequality yet lies outside the
convex hull.  The three constructors below build that point for the three
failure cases; :func:`certify_witness` replays the full argument
executably (cut sweeps plus the exact membership LP).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .aggregated import HullDiagnosis, aggregated_cut, diagnose, walk
from .core import (
    GroundSetTooLarge,
    LowerBoundsNotReduced,
    MixingInstance,
    PreconditionFailed,
    SequenceTheta,
    complement,
    scale_point,
)
from .mixing import separate_mixing
from .vertices import MembershipResult, membership, v_representation

CERTIFY_BOUND = 7

Point = tuple[tuple[Fraction, ...], tuple[Fraction, ...]]


def _require_reduced(inst: MixingInstance) -> None:
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("witness constructions require zero lower bounds")


def _column_peaks(inst: MixingInstance, subset: Sequence[int]) -> list[Fraction]:
    return [
        max(inst.weights[i][j] for i in subset) for j in range(inst.k)
    ]


def find_minimal_U(inst: MixingInstance) -> tuple[int, ...]:
    """Inclusion-minimal subset of the low rows whose columnwise peaks still
    exceed the linking threshold (greedy deletion, ascending index order)."""
    _require_reduced(inst)
    diag = diagnose(inst)
    if diag.c2_ok:
        raise PreconditionFailed("peak condition holds; no violating subset exists")
    u = sorted(diag.i_bar)
    eps = inst.epsilon

    def exceeds(subset: list[int]) -> bool:
        if not subset:
            return False
        return sum(_column_peaks(inst, subset), Fraction(0)) > eps

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
    """Point for a violated peak-sum condition: equal fractional weight
    1/|U| on U, ones elsewhere; y sits at (|U|-1)/|U| of the column peaks
    with the last coordinate absorbing the deficit so sum(y) equals the
    linking threshold exactly."""
    _require_reduced(inst)
    u = sorted(set(u))
    if len(u) < 2:
        raise PreconditionFailed("violating subset must have at least two rows")
    peaks = _column_peaks(inst, u)
    if sum(peaks, Fraction(0)) <= inst.epsilon:
        raise PreconditionFailed("subset does not violate the peak-sum condition")
    size = len(u)
    frac = Fraction(size - 1, size)
    z = tuple(
        Fraction(1, size) if i in u else Fraction(1) for i in range(inst.n)
    )
    y = [frac * peaks[j] for j in range(inst.k)]
    y[-1] += inst.epsilon - sum(y, Fraction(0))
    return tuple(y), z


def witness_c1(inst: MixingInstance, p: int, q: int) -> Point:
    """Point for a violated dominance condition at rows p (outside the low
    set) and q (inside, beating p somewhere): half weight on p and q, ones
    elsewhere."""
    _require_reduced(inst)
    diag = diagnose(inst)
    if p in diag.i_bar or q not in diag.i_bar:
        raise PreconditionFailed("need p outside and q inside the low-row set")
    if all(inst.weights[q][j] <= inst.weights[p][j] for j in range(inst.k)):
        raise PreconditionFailed(f"row {q} never beats row {p}")
    pair_max = [max(inst.weights[p][j], inst.weights[q][j]) for j in range(inst.k)]
    z = tuple(
        Fraction(1, 2) if i in (p, q) else Fraction(1) for i in range(inst.n)
    )
    y = [Fraction(1, 2) * v for v in pair_max]
    y[-1] += Fraction(1, 2) * (
        inst.epsilon + inst.row_sum(p) - sum(pair_max, Fraction(0))
    )
    return tuple(y), z


def witness_lw(inst: MixingInstance, p: int, q: int) -> Point:
    """Point for a linking threshold above the pairwise minimum constant,
    built from the attaining pair outside the low-row set."""
    _require_reduced(inst)
    diag = diagnose(inst)
    if p == q or p in diag.i_bar or q in diag.i_bar:
        raise PreconditionFailed("need two distinct rows outside the low-row set")
    pair_min = sum(
        (min(inst.weights[p][j], inst.weights[q][j]) for j in range(inst.k)),
        Fraction(0),
    )
    if not (diag.l_w_eps is not None and pair_min == diag.l_w_eps < inst.epsilon):
        raise PreconditionFailed("pair does not attain a constant below epsilon")
    pair_max = [max(inst.weights[p][j], inst.weights[q][j]) for j in range(inst.k)]
    z = tuple(
        Fraction(1, 2) if i in (p, q) else Fraction(1) for i in range(inst.n)
    )
    y = [Fraction(1, 2) * v for v in pair_max]
    y[-1] += Fraction(1, 2) * pair_min
    return tuple(y), z


def witness(
    inst: MixingInstance, diag: Optional[HullDiagnosis] = None
) -> tuple[Point, str]:
    """Build the witness for whichever condition fails, with a deterministic
    choice of subset/pair (smallest in lexicographic order)."""
    if diag is None:
        diag = diagnose(inst)
    if diag.sufficient:
        raise PreconditionFailed("instance is sufficient; no witness exists")
    if not diag.c2_ok:
        return witness_c2(inst, find_minimal_U(inst)), "peak-sum"
    if not diag.c1_ok:
        outside = sorted(set(range(inst.n)) - diag.i_bar)
        inside = sorted(diag.i_bar)
        for p in outside:
            for q in inside:
                if any(
                    inst.weights[q][j] > inst.weights[p][j] for j in range(inst.k)
                ):
                    return witness_c1(inst, p, q), "dominance"
        raise PreconditionFailed("no violating pair found")  # pragma: no cover
    outside = sorted(set(range(inst.n)) - diag.i_bar)
    for p_i in range(len(outside)):
        for q_i in range(p_i + 1, len(outside)):
            p, q = outside[p_i], outside[q_i]
            pair_min = sum(
                (
                    min(inst.weights[p][j], inst.weights[q][j])
                    for j in range(inst.k)
                ),
                Fraction(0),
            )
            if pair_min == diag.l_w_eps:
                return witness_lw(inst, p, q), "pair-minimum"
    raise PreconditionFailed("no attaining pair found")  # pragma: no cover


def certify_witness(
    inst: MixingInstance,
    point: Point,
    verdict: Optional[MembershipResult] = None,
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

    Pass the point's membership verdict when it is already known; otherwise
    the membership LP is solved here.
    """
    if inst.n > CERTIFY_BOUND:
        raise GroundSetTooLarge(
            f"exhaustive certification limited to n <= {CERTIFY_BOUND}"
        )
    y, z = point
    messages = []

    relax_ok = (
        all(v >= 0 for v in y)
        and all(0 <= v <= 1 for v in z)
        and sum(y, Fraction(0)) >= inst.epsilon
        and all(
            y[j] >= inst.weights[i][j] * (1 - z[i])
            for i in range(inst.n)
            for j in range(inst.k)
        )
    )
    messages.append(
        "ok: relaxation rows hold" if relax_ok else "FAIL: relaxation row violated"
    )

    # Greedy separation is exact per column: it returns nothing exactly when
    # every mixing cut, starred or not, holds at a point of the unit box.
    bad_mix = separate_mixing(inst, y, z)
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
            for theta, _, _ in walk(
                inst, range(inst.n), point=scale_point(y, z), violated=True
            )
        ),
        default=None,
    )
    if bad_agg is None:
        messages.append("ok: all aggregated cuts hold")
    else:
        cut = aggregated_cut(inst, SequenceTheta(bad_agg[1]))
        messages.append(f"FAIL: aggregated cut violated for {bad_agg[1]}: {cut}")

    if verdict is None:
        verdict = membership(v_representation(inst), y, complement(z))
    messages.append(
        "ok: membership LP certifies the point outside the hull"
        if not verdict.inside
        else "FAIL: point is inside the hull"
    )
    return messages
