"""Two-sided scenario data as a two-column mixing set with a band constraint.

The substitution y_1 = y_c + y_a, y_2 = y_c - y_a + u_a turns the paired
rows into a two-column instance with linking threshold u_a whose linking
oracle is always submodular, so the aggregated cuts describe that hull; the
band |y_1 - y_2| <= u_a can then be added without creating fractional
vertices, which recovers the full description of the original set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .aggregated import aggregated_cut, diagnose, fold
from .core import (
    ConditionViolated,
    CutKind,
    DimensionMismatch,
    InternalInvariant,
    LinearCut,
    MixingInstance,
    ParseError,
    RationalLike,
    SequenceTheta,
    parse_count,
    parse_rational,
)
from .hull import Row, family_rows, hull_cut_family
from .vertices import mask_floors


@dataclass(frozen=True)
class TwoSidedData:
    """Per-scenario sums and differences plus the upper bound u_a."""

    w: tuple[Fraction, ...]
    v: tuple[Fraction, ...]
    u_a: Fraction

    def __init__(
        self,
        w: Sequence[RationalLike],
        v: Sequence[RationalLike],
        u_a: RationalLike,
    ) -> None:
        wv = tuple(parse_rational(x) for x in w)
        vv = tuple(parse_rational(x) for x in v)
        ua = parse_rational(u_a)
        if len(wv) != len(vv):
            raise DimensionMismatch("w and v must have the same length")
        if not wv:
            raise DimensionMismatch("need at least one scenario")
        for i, (wi, vi) in enumerate(zip(wv, vv)):
            if not wi >= vi >= 0:
                raise ConditionViolated(
                    f"scenario {i}: need w >= v >= 0, got w={wi}, v={vi}"
                )
            if wi > ua:
                raise ConditionViolated(
                    f"scenario {i}: w={wi} exceeds the bound u_a={ua}"
                )
        object.__setattr__(self, "w", wv)
        object.__setattr__(self, "v", vv)
        object.__setattr__(self, "u_a", ua)

    @property
    def n(self) -> int:
        return len(self.w)


def loads_twosided(text: str) -> TwoSidedData:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("two-sided document must be a JSON object")
    try:
        w = doc["w"]
        v = doc["v"]
        ua = doc["u_a"]
    except KeyError as exc:
        raise ParseError(f"missing field: {exc}") from exc
    if not isinstance(w, list) or not isinstance(v, list):
        raise ParseError("w and v must be lists")
    n = doc.get("n")
    if n is not None and not parse_count(n) == len(w) == len(v):
        raise DimensionMismatch("w/v length disagrees with declared n")
    return TwoSidedData(w, v, ua)


def to_mixing(data: TwoSidedData) -> MixingInstance:
    """Column 1 carries w, column 2 carries v + u_a, threshold u_a.

    The derived facts (the low-row set is exactly the all-zero scenarios,
    the pairwise minimum constant is at least u_a, the linking oracle is
    submodular) are re-checked and must hold for admissible data.  The
    instance depends on the data alone, so it is built and checked once and
    kept on the data, the way ``diagnose`` keeps its verdict on an instance:
    a second call returns the same object.
    """
    cached = data.__dict__.get("_mixing")
    if cached is None:
        cached = data.__dict__["_mixing"] = _mixing(data)
    return cached


def _mixing(data: TwoSidedData) -> MixingInstance:
    """The body of :func:`to_mixing`."""
    rows = [[wi, vi + data.u_a] for wi, vi in zip(data.w, data.v)]
    inst = MixingInstance(rows, None, data.u_a)
    diag = diagnose(inst)
    expected_low = frozenset(
        i for i in range(data.n) if data.w[i] == 0 and data.v[i] == 0
    )
    if diag.i_bar != expected_low:
        raise InternalInvariant("low-row set disagrees with the zero scenarios")
    if diag.l_w_eps is not None and diag.l_w_eps < data.u_a:
        raise InternalInvariant("pairwise minimum constant fell below the bound")
    if not diag.g_submodular:
        raise InternalInvariant("linking oracle unexpectedly not submodular")
    return inst


def generalized_cut(
    data: TwoSidedData, theta: SequenceTheta
) -> tuple[LinearCut, LinearCut]:
    """The aggregated cut of the transformed instance, plus its form in the
    original variables (y_c, y_a).

    The original form is 2*y_c + (w gains) + (v gains) >= w-head + v-head:
    the row that :func:`fold` builds for the sequence on the plain instance
    with columns w and v, whose coefficients are the gains of the w and v
    chains; it is not capped.  It equals the transformed cut under the
    substitution identity y_1 + y_2 = 2*y_c + u_a, which is verified
    coefficientwise here.  Both cuts are assembled on the transformed
    instance, whose denominator D the plain instance's divides (v_i is
    (v_i + u_a) - u_a), so they share their coefficients' Fractions.
    """
    inst = to_mixing(data)
    theta.validate_for(data.n)
    primed = aggregated_cut(inst, theta)

    plain = MixingInstance(list(zip(data.w, data.v)))
    heads, z, _ = fold(plain, theta.indices)
    scale = inst.scaled[0]
    t = scale // plain.scaled[0]
    original = inst.row_cut(
        (2 * scale, 0), [v * t for v in z], sum(heads) * t, primed.kind
    )

    # Substitution audit: identical z coefficients, right-hand sides offset
    # by exactly u_a (the constant injected by y_1 + y_2 = 2 y_c + u_a).
    if tuple(primed.z_coeffs) != tuple(original.z_coeffs):
        raise InternalInvariant("z coefficients changed under the substitution")
    if primed.rhs - original.rhs != data.u_a:
        raise InternalInvariant("right-hand sides are not offset by u_a")
    return primed, original


@dataclass(frozen=True)
class BandedHullReport:
    """The band-clipped hull of two-sided data, kept in integers.

    The certified description is the whole hull family, kept as the
    distinct integer rows that :func:`family_rows` gives (``family_rows``:
    sequences of every length), plus the two band rows and the 2n z bounds;
    :attr:`cut_count` counts it, and :attr:`cuts` builds it as
    ``LinearCut``s on first read.  ``point_count`` counts the hull's
    extreme points, read off its per-mask floors (:func:`mask_floors`)
    without building them.
    """

    instance: MixingInstance
    band_ok: bool
    point_count: int
    family_rows: tuple[Row, ...]

    @property
    def cut_count(self) -> int:
        return len(self.family_rows) + 2 + 2 * self.instance.n

    @cached_property
    def cuts(self) -> tuple[LinearCut, ...]:
        """The description as cuts: the hull family (one cut per row of
        ``family_rows``), the band u_a >= y_1 - y_2 >= -u_a and the z
        bounds."""
        n, ua = self.instance.n, self.instance.epsilon
        cuts = hull_cut_family(self.instance)
        zero = [Fraction(0)] * n
        cuts.append(LinearCut((Fraction(-1), Fraction(1)), zero, -ua, CutKind.BOUND_UPPER))
        cuts.append(LinearCut((Fraction(1), Fraction(-1)), zero, -ua, CutKind.BOUND_LOWER))
        for i in range(n):
            low = [Fraction(0)] * n
            low[i] = Fraction(1)
            cuts.append(LinearCut((0, 0), low, 0, CutKind.BOUND_LOWER))
            high = [Fraction(0)] * n
            high[i] = Fraction(-1)
            cuts.append(LinearCut((0, 0), high, -1, CutKind.BOUND_UPPER))
        return tuple(cuts)


def hull_with_bounds(data: TwoSidedData) -> BandedHullReport:
    """Intersect the linking-set hull with the band u_a >= y_1 - y_2 >= -u_a.

    Every extreme point already satisfies the band (checked at every one);
    clipping therefore only adds points where a unit ray leaving an extreme
    point meets a band plane, whose z parts stay integral, and the library
    builds none of them (the tests build the clipped list from a
    ``Fraction`` reference of the vertex list to certify the description
    against it).  The certified
    description is the full linking-set family of :func:`family_rows`, plus
    the band and the z bounds.  The family is exponential in the number of
    non-zero scenarios, so data with more sequences over them than
    ``core.WORK_BUDGET`` is refused with ``GroundSetTooLarge`` before the
    hull is looked at.

    The band check and the family run in integers over D.  The extreme
    points are counted and checked from the per-mask floors of
    :func:`mask_floors`, the enumeration ``vertices.v_representation``
    builds its points from: a floor whose sum exceeds the threshold is one point,
    and any other floor f is the two points f + deficit * e_d, whose
    |y_1 - y_2| is at most |f_1 - f_2| + deficit.  The report keeps the
    count and the family's distinct rows, and builds the ``LinearCut``s
    only when they are read, so a caller that counts them (``mixcuts
    twosided``) builds none of them.
    """
    inst = to_mixing(data)
    rows = tuple(family_rows(inst))
    # The band width u_a is the linking threshold, so D * u_a is the scaled
    # epsilon.
    band = inst.scaled[2]
    count = 0
    widest = 0  # the largest |y_1 - y_2| over the extreme points
    for f1, f2 in mask_floors(inst):
        deficit = band - f1 - f2
        if deficit < 0:
            count += 1
            widest = max(widest, abs(f1 - f2))
        else:
            count += 2
            widest = max(widest, abs(f1 - f2) + deficit)
    band_ok = widest <= band
    if not band_ok:
        raise InternalInvariant("an extreme point violates the band")
    return BandedHullReport(inst, band_ok, count, rows)
