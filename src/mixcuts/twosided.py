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
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .aggregated import aggregated_cut, count_sequences, diagnose, fold
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
    parse_rational,
)
from .hull import hull_cut_family
from .vertices import VRepresentation, v_representation

BAND_SEQUENCE_BOUND = 5_000


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
    if n is not None and (len(w) != int(n) or len(v) != int(n)):
        raise DimensionMismatch("w/v length disagrees with declared n")
    return TwoSidedData(w, v, ua)


def to_mixing(data: TwoSidedData) -> MixingInstance:
    """Column 1 carries w, column 2 carries v + u_a, threshold u_a.

    The derived facts (the low-row set is exactly the all-zero scenarios,
    the pairwise minimum constant is at least u_a, the linking oracle is
    submodular) are re-checked and must hold for admissible data.
    """
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

    The original form is 2*y_c + (w-chain) + (v-chain) >= w-head + v-head
    with both chains telescoping to zero; it equals the transformed cut under
    the substitution identity y_1 + y_2 = 2*y_c + u_a, which is verified
    coefficientwise here.
    """
    inst = to_mixing(data)
    theta.validate_for(data.n)
    primed = aggregated_cut(inst, theta)

    coeffs = [Fraction(0)] * data.n
    series = (data.w, data.v)
    rhs = Fraction(0)
    for j, chain in enumerate(fold(inst, theta.indices)[1]):
        vals = [series[j][i] for i in chain] + [Fraction(0)]
        for s, i in enumerate(chain):
            coeffs[i] += vals[s] - vals[s + 1]
        rhs += vals[0]
    original = LinearCut(
        (Fraction(2), Fraction(0)), coeffs, rhs, primed.kind
    )

    # Substitution audit: identical z coefficients, right-hand sides offset
    # by exactly u_a (the constant injected by y_1 + y_2 = 2 y_c + u_a).
    if tuple(primed.z_coeffs) != tuple(original.z_coeffs):
        raise InternalInvariant("z coefficients changed under the substitution")
    if primed.rhs - original.rhs != data.u_a:
        raise InternalInvariant("right-hand sides are not offset by u_a")
    return primed, original


def fractions_over(scale: int) -> Callable[[Iterable[int]], tuple[Fraction, ...]]:
    """A function taking integers over the denominator ``scale`` to a tuple
    of Fractions; it makes each distinct integer a Fraction once and keeps
    it for the next call."""
    cache: dict[int, Fraction] = {}

    def exact(values: Iterable[int]) -> tuple[Fraction, ...]:
        out = []
        for v in values:
            f = cache.get(v)
            if f is None:
                f = cache[v] = Fraction(v, scale)
            out.append(f)
        return tuple(out)

    return exact


@dataclass(frozen=True)
class BandedHullReport:
    instance: MixingInstance
    band_ok: bool
    extreme_points: tuple[tuple[tuple[Fraction, ...], tuple[int, ...]], ...]
    clipped: VRepresentation
    cuts: tuple[LinearCut, ...]


def hull_with_bounds(data: TwoSidedData) -> BandedHullReport:
    """Intersect the linking-set hull with the band u_a >= y_1 - y_2 >= -u_a.

    Every extreme point already satisfies the band (asserted exhaustively);
    clipping therefore only adds points where a unit ray leaving an extreme
    point meets a band plane, whose z parts stay integral.  The certified
    description is the linking-set family plus the band and the z bounds;
    the aggregated part of the family is enumerated up to the longest
    sequence length whose sequence count stays within
    ``BAND_SEQUENCE_BOUND`` (it is exponential in n).
    """
    inst = to_mixing(data)
    # Everything is an integer over D, and each distinct coordinate of an
    # extreme point becomes a Fraction once.  The band width u_a is the
    # linking threshold, so D * u_a is the scaled epsilon.
    scale, _, band, _ = inst.scaled

    # Work in the original indicator orientation: complement the z parts.
    points = [
        (y, tuple(1 - zi for zi in z)) for y, z in v_representation(inst).points
    ]
    band_ok = all(-band <= y[0] - y[1] <= band for y, _ in points)
    if not band_ok:
        raise InternalInvariant("an extreme point violates the band")

    exact = fractions_over(scale)
    extreme_points = tuple((exact(y), z) for y, z in points)
    clipped_points = list(points)
    for y, z in points:
        gap_upper = band - (y[0] - y[1])  # room along +e_1 to the upper plane
        if gap_upper > 0:
            clipped_points.append(((band + y[1], y[1]), z))
        gap_lower = band + (y[0] - y[1])  # room along +e_2 to the lower plane
        if gap_lower > 0:
            clipped_points.append(((y[0], band + y[0]), z))
    for _, z in clipped_points:
        if any(zi not in (0, 1) for zi in z):
            raise InternalInvariant("clipping created a fractional z")
    clipped = VRepresentation(
        scale, tuple(clipped_points), (((scale, scale), (0,) * data.n),)
    )

    outside = sum(1 for wi, vi in zip(data.w, data.v) if wi != 0 or vi != 0)
    max_len = outside
    while max_len > 1 and count_sequences(outside, max_len) > BAND_SEQUENCE_BOUND:
        max_len -= 1
    cuts = hull_cut_family(inst, max_len)
    cuts.append(
        LinearCut(
            (Fraction(-1), Fraction(1)),
            [Fraction(0)] * data.n,
            -data.u_a,
            CutKind.BOUND_UPPER,
        )
    )
    cuts.append(
        LinearCut(
            (Fraction(1), Fraction(-1)),
            [Fraction(0)] * data.n,
            -data.u_a,
            CutKind.BOUND_LOWER,
        )
    )
    for i in range(data.n):
        low = [Fraction(0)] * data.n
        low[i] = Fraction(1)
        cuts.append(LinearCut((0, 0), low, 0, CutKind.BOUND_LOWER))
        high = [Fraction(0)] * data.n
        high[i] = Fraction(-1)
        cuts.append(LinearCut((0, 0), high, -1, CutKind.BOUND_UPPER))
    return BandedHullReport(inst, band_ok, extreme_points, clipped, tuple(cuts))

