"""The hull as a vertex list: extreme points, exact membership, cut validity.

Everything here works on instances with zero lower bounds, in the
indicator-epigraph view (z_i = 1 keeps scenario i's row active; callers
complement z for the original variables).  The extreme points are explicit,
so a point is certified inside by a chain certificate first: z sorted in
descending order gives one nested chain of masks (Edmonds' greedy), and
the convex combination over their floors and deficits is built in closed
form (:func:`decompose`).  Where the chain proves nothing, membership is
one feasibility LP (:func:`membership`), the only source of an "outside"
verdict.  Every certificate is re-checked in integers before it is
returned, and a linear cut is valid exactly when it holds at every extreme
point and along every ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .core import (
    DimensionMismatch,
    DomainError,
    GroundSetTooLarge,
    InternalInvariant,
    LinearCut,
    LowerBoundsNotReduced,
    MixingInstance,
)
from .exactlp import solve_feasibility, verify_farkas, verify_feasible

ENUMERATION_BOUND = 20

_ZERO = Fraction(0)


@dataclass(frozen=True)
class VRepresentation:
    """Extreme points and rays of the hull in the indicator-epigraph view
    (z_i = 1 means scenario i is active; callers complement for the
    original variables).

    The membership LP's constraint matrix has one column per point, then one
    per ray, and the rows: n z rows, the convexity row, k y rows.  It is
    built in integers once per vertex list, in two scalings (see
    :attr:`lp_matrix` and :attr:`common_matrix`).
    """

    points: tuple[tuple[tuple[Fraction, ...], tuple[int, ...]], ...]
    rays: tuple[tuple[tuple[Fraction, ...], tuple[int, ...]], ...]

    @property
    def k(self) -> int:
        return len(self.points[0][0])

    @property
    def n(self) -> int:
        return len(self.points[0][1])

    @cached_property
    def lp_matrix(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """``(rows, scales)``: each row of the constraint matrix times
        ``scales[i]``, the lcm of that row's own denominators (1 for the
        0/1 z rows and the convexity row)."""
        rational = self._rational_rows()
        scales = tuple(math.lcm(*(v.denominator for v in row)) for row in rational)
        return _scaled(rational, scales), scales

    @cached_property
    def common_matrix(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(D, rows)``: the constraint matrix times one common denominator
        D of every coordinate.  The certificates are checked against it, so
        it is built from the coordinates, not from :attr:`lp_matrix`."""
        rational = self._rational_rows()
        common = math.lcm(*(v.denominator for row in rational for v in row))
        return common, _scaled(rational, [common] * len(rational))

    @cached_property
    def chain_index(
        self,
    ) -> Optional[tuple[tuple[int, ...], dict[int, Optional[_MaskEntry]]]]:
        """``(rays, masks)`` read from :attr:`common_matrix` for
        :func:`decompose`, or None when a ray is not a unit y direction or
        some direction has no ray.

        ``rays[d]`` is the column of the ray e_d.  ``masks`` maps each
        binary z (as a bitmask, bit i for z_i) to a :class:`_MaskEntry`, or
        to None when that z's points are neither one floor point nor k
        points, point d being floor + deficit * e_d.  A z with an entry
        that is not 0 or 1 maps nowhere.
        """
        den, rows = self.common_matrix
        n, k, npts = self.n, self.k, len(self.points)
        columns = list(zip(*rows))
        units = {}
        for c in range(npts, len(columns)):
            col = columns[c]
            ys = col[n + 1 :]
            if any(col[:n]) or sorted(ys) != [0] * (k - 1) + [den]:
                return None
            units.setdefault(ys.index(den), c)
        if len(units) < k:
            return None
        groups: dict[int, list[int]] = {}
        for c in range(npts):
            zs = columns[c][:n]
            if all(v in (0, den) for v in zs):
                mask = sum(1 << i for i, v in enumerate(zs) if v)
                groups.setdefault(mask, []).append(c)
        return tuple(units[d] for d in range(k)), {
            mask: _mask_entry([columns[c][n + 1 :] for c in cols], cols)
            for mask, cols in groups.items()
        }

    def _rational_rows(self) -> list[list]:
        columns = self.points + self.rays
        rows = [[cz[i] for _, cz in columns] for i in range(self.n)]
        rows.append([1] * len(self.points) + [0] * len(self.rays))
        return rows + [[cy[j] for cy, _ in columns] for j in range(self.k)]


class _MaskEntry(NamedTuple):
    """One mask's points, over the denominator D of ``common_matrix``:
    point d is ``floor + deficit * e_d`` at ``columns[d]``.  A single floor
    point has deficit 0 and stands at every ``columns[d]``."""

    floor: tuple[int, ...]
    deficit: int
    columns: tuple[int, ...]


def _mask_entry(ys: list[tuple[int, ...]], cols: list[int]) -> Optional[_MaskEntry]:
    """The :class:`_MaskEntry` of one mask's points (y parts ``ys`` at
    ``cols``), or None when they are not of either form."""
    k = len(ys[0])
    if len(ys) == 1:
        return _MaskEntry(ys[0], 0, (cols[0],) * k)
    if len(ys) != k:
        return None
    floor = tuple(map(min, *ys))
    deficit = ys[0][0] - floor[0]
    for d, y in enumerate(ys):
        point = list(floor)
        point[d] += deficit
        if tuple(point) != y:
            return None
    return _MaskEntry(floor, deficit, tuple(cols))


def _scaled(rows, scales) -> tuple[tuple[int, ...], ...]:
    """Each rational row times its scale, a multiple of its denominators."""
    return tuple(
        tuple(v.numerator * (scale // v.denominator) for v in row)
        for row, scale in zip(rows, scales)
    )


def integer_vertices(
    inst: MixingInstance,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every extreme point of the hull as ``(y, z)`` with y in integers over
    the common denominator D of ``inst.scaled``: per binary z (in mask
    order) either the componentwise floor of the active rows, when its sum
    already exceeds the linking threshold, or one point per column absorbing
    the deficit."""
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("vertex enumeration requires zero lower bounds")
    if inst.n > ENUMERATION_BOUND:
        raise GroundSetTooLarge(
            f"vertex enumeration limited to n <= {ENUMERATION_BOUND}"
        )
    n, k = inst.n, inst.k
    _, weights, eps, _ = inst.scaled
    floors = [(0,) * k]  # floors[mask]: the componentwise max of its rows
    points = []
    for mask in range(1 << n):
        if mask:
            low = mask & -mask
            floors.append(
                tuple(map(max, floors[mask ^ low], weights[low.bit_length() - 1]))
            )
        floor = floors[mask]
        z = tuple((mask >> i) & 1 for i in range(n))
        deficit = eps - sum(floor)
        if deficit < 0:
            points.append((floor, z))
        else:
            for d in range(k):
                y = list(floor)
                y[d] += deficit
                points.append((tuple(y), z))
    return points


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


def v_representation(inst: MixingInstance) -> VRepresentation:
    """The extreme points of :func:`integer_vertices`, each distinct
    coordinate made a Fraction once; rays are the unit y directions."""
    points = integer_vertices(inst)
    exact = fractions_over(inst.scaled[0])
    rays = tuple(
        (
            tuple(Fraction(1 if j == d else 0) for j in range(inst.k)),
            tuple(0 for _ in range(inst.n)),
        )
        for d in range(inst.k)
    )
    return VRepresentation(tuple((exact(y), z) for y, z in points), rays)


@dataclass(frozen=True)
class SeparatingHyperplane:
    """Functional phi(y, z) = y_coeffs.y + z_coeffs.z with phi <= bound on the
    hull and phi(point) > bound."""

    y_coeffs: tuple[Fraction, ...]
    z_coeffs: tuple[Fraction, ...]
    bound: Fraction


@dataclass(frozen=True)
class MembershipResult:
    inside: bool
    # Convex multipliers per vrep point and ray multipliers, when inside.
    coefficients: Optional[tuple[Fraction, ...]]
    ray_coefficients: Optional[tuple[Fraction, ...]]
    hyperplane: Optional[SeparatingHyperplane]


def membership(
    vrep: VRepresentation,
    y: Sequence[Fraction],
    z: Sequence[Fraction],
) -> MembershipResult:
    """Exact test for (y, z) in conv(points) + cone(rays), with certificate.

    Solves the feasibility LP "convex combination of points plus nonnegative
    ray multiples equals the target" by the integer simplex on the vertex
    list's row-scaled matrix; only the right-hand side is built here.  An
    infeasible outcome converts the Farkas vector into a strictly separating
    hyperplane.  Both certificates are re-checked in integers against the
    common-denominator matrix before returning.
    """
    k, n = vrep.k, vrep.n
    if len(y) != k or len(z) != n:
        raise DimensionMismatch("point dimensions disagree with representation")
    npts = len(vrep.points)
    target = [Fraction(v) for v in z] + [Fraction(1)] + [Fraction(v) for v in y]
    # Each LP row is scaled by the lcm of its own and its rhs's denominators.
    rows, row_scales = vrep.lp_matrix
    a_rows = []
    b = []
    scales = []
    for row, row_scale, t in zip(rows, row_scales, target):
        scale = math.lcm(row_scale, t.denominator)
        factor = scale // row_scale
        a_rows.append(row if factor == 1 else [v * factor for v in row])
        b.append(t.numerator * (scale // t.denominator))
        scales.append(scale)
    result = solve_feasibility(a_rows, b)

    # The target over one common denominator L, for the checks.
    den, common = vrep.common_matrix
    target_den = math.lcm(*(t.denominator for t in target))
    target_int = [t.numerator * (target_den // t.denominator) for t in target]
    if result.feasible:
        # (common / den) x = target_int / target_den, in integers.
        x = result.x
        if not verify_feasible(
            common, target_int, [target_den * v for v in x], den * result.den
        ):
            raise InternalInvariant("membership certificate failed verification")
        x = tuple(Fraction(v, result.den) if v else _ZERO for v in x)
        return MembershipResult(True, x[:npts], x[npts:], None)

    # The LP's Farkas vector, mapped back through the row scales, proves the
    # unscaled system infeasible: u.A <= 0 on every column and u.b > 0 say
    # exactly that phi <= bound on every point, phi does not grow along a
    # ray, and phi(target) > bound.
    u = [scale * v for scale, v in zip(scales, result.farkas)]
    if not verify_farkas(common, target_int, u):
        raise InternalInvariant("separating hyperplane failed verification")
    u = [Fraction(v, result.den) for v in u]
    return MembershipResult(
        False, None, None, SeparatingHyperplane(tuple(u[n + 1 :]), tuple(u[:n]), -u[n])
    )


def decompose(
    vrep: VRepresentation,
    target: Sequence[int],
    den: int,
) -> Optional[tuple[list[int], int]]:
    """A proof that a point is in conv(points) + cone(rays) by one chain, or
    None when the chain proves nothing (the point may still be inside).

    The point comes as one integer target (z, 1, y) over ``den`` > 0, the
    layout of the membership LP's rows, so ``target[n]`` is ``den``.  The
    proof is the multipliers of the points, then of the rays, as integers
    over one denominator: ``(x, x_den)``.

    z sorted in descending order (ties by ascending index) gives the nested
    masks S_0 = {} < S_1 < ... < S_n, S_t holding the t largest entries,
    with weights lambda_t = z_(t) - z_(t+1) (z_(0) = 1, z_(n+1) = 0); they
    sum to 1 and their masks average to z.  Mask S_t contributes its floor
    and owes its deficit; the point is inside when the slack y - sum
    lambda_t floor_t is nonnegative and covers sum lambda_t deficit_t.  The
    deficit is filled into the columns in index order, every mask spreading
    its points by that one fill, and what is left goes on the rays.  All of
    this is integer over the vertex list's D and ``den``, and the
    multipliers are re-checked against the common-denominator matrix as
    :func:`membership` re-checks its own; no ``Fraction`` is made.
    """
    k, n = vrep.k, vrep.n
    if len(target) != n + 1 + k:
        raise DimensionMismatch("point dimensions disagree with representation")
    if den <= 0 or target[n] != den:
        raise DomainError("the target's convexity entry must be its denominator")
    index = vrep.chain_index
    if index is None:
        return None
    rays, masks = index
    common_den, common = vrep.common_matrix
    z = target[:n]
    if min(z) < 0 or max(z) > den:
        return None  # z is outside the unit box
    order = sorted(range(n), key=z.__getitem__, reverse=True)
    levels = [den] + [z[i] for i in order] + [0]

    # Units of 1 / (den * D) from here on: slack, deficits and the fill.
    slack = [v * common_den for v in target[n + 1 :]]
    owed = 0
    chain = []
    mask = 0
    for t, weight in enumerate(a - b for a, b in zip(levels, levels[1:])):
        if weight:
            entry = masks.get(mask)
            if entry is None:
                return None
            chain.append((weight, entry))
            slack = [s - weight * f for s, f in zip(slack, entry.floor)]
            owed += weight * entry.deficit
        if t < n:
            mask |= 1 << order[t]
    if any(s < 0 for s in slack) or sum(slack) < owed:
        return None
    fill, rest = [], owed
    for s in slack:
        fill.append(min(s, rest))
        rest -= fill[-1]

    # Point (t, d) carries lambda_t * fill_d / owed and ray d the rest of
    # slack_d; with nothing owed, each mask's weight sits on its first point.
    # Every multiplier is kept times den, the scale of the check below.
    x = [0] * (len(vrep.points) + len(vrep.rays))
    unit = common_den * den
    for weight, entry in chain:
        if owed:
            for c, f in zip(entry.columns, fill):
                x[c] += weight * f * unit
        else:
            x[entry.columns[0]] += weight * unit
    spread = owed or 1
    for c, s, f in zip(rays, slack, fill):
        x[c] += (s - f) * spread * den
    # x / (den * x_den) are the multipliers, and x = den * (x_den * them).
    x_den = unit * spread
    if not verify_feasible(common, target, x, common_den * x_den):
        raise InternalInvariant("chain certificate failed verification")
    return x, den * x_den


def check_validity(inst: MixingInstance, cut: LinearCut, vrep=None) -> bool:
    """Evaluate a cut at every extreme point and ray of the set's hull.

    Sufficient for linear cuts.  Works over the scenario-indicator view of the
    vertices (complemented from the epigraph view) on the vertex list's
    common-denominator matrix, so the check is exact and in integers.  Pass a
    precomputed vertex representation to amortize enumeration and scaling
    over many cuts.
    """
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
    # D * (alpha.y + beta.(1 - z)) at every point, one matrix row at a time.
    den, rows = vrep.common_matrix
    lhs = [sum(beta) * den] * len(vrep.points)
    for b, row in zip(beta, rows[: inst.n]):
        if b:
            lhs = [v - b * r for v, r in zip(lhs, row)]
    for a, row in zip(alpha, rows[inst.n + 1 :]):
        if a:
            lhs = [v + a * r for v, r in zip(lhs, row)]
    bound = gamma * den
    return all(v >= bound for v in lhs)
