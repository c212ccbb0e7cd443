"""The hull as a vertex list: extreme points, exact membership, cut validity.

Everything here works on instances with zero lower bounds, in the
indicator-epigraph view (z_i = 1 keeps scenario i's row active; callers
complement z for the original variables).  The extreme points are explicit,
so membership is one feasibility LP whose certificate is re-checked before
it is returned, and a linear cut is valid exactly when it holds at every
extreme point and along every ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    DimensionMismatch,
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

    def _rational_rows(self) -> list[list]:
        columns = self.points + self.rays
        rows = [[cz[i] for _, cz in columns] for i in range(self.n)]
        rows.append([1] * len(self.points) + [0] * len(self.rays))
        return rows + [[cy[j] for cy, _ in columns] for j in range(self.k)]


def _scaled(rows, scales) -> tuple[tuple[int, ...], ...]:
    """Each rational row times its scale, a multiple of its denominators."""
    return tuple(
        tuple(v.numerator * (scale // v.denominator) for v in row)
        for row, scale in zip(rows, scales)
    )


def v_representation(inst: MixingInstance) -> VRepresentation:
    """Enumerate all extreme points: per binary z either the componentwise
    floor (when its coordinate sum already exceeds the linking threshold) or
    one point per column absorbing the deficit; rays are the unit y
    directions."""
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("vertex enumeration requires zero lower bounds")
    if inst.n > ENUMERATION_BOUND:
        raise GroundSetTooLarge(
            f"vertex enumeration limited to n <= {ENUMERATION_BOUND}"
        )
    n, k = inst.n, inst.k
    eps = inst.epsilon
    points = []
    for mask in range(1 << n):
        floor = [Fraction(0)] * k
        for i in range(n):
            if mask & (1 << i):
                row = inst.weights[i]
                for j in range(k):
                    if row[j] > floor[j]:
                        floor[j] = row[j]
        z = tuple(1 if mask & (1 << i) else 0 for i in range(n))
        deficit = eps - sum(floor, Fraction(0))
        if deficit < 0:
            points.append((tuple(floor), z))
        else:
            for d in range(k):
                y = list(floor)
                y[d] += deficit
                points.append((tuple(y), z))
    rays = tuple(
        (
            tuple(Fraction(1 if j == d else 0) for j in range(k)),
            tuple(0 for _ in range(n)),
        )
        for d in range(k)
    )
    return VRepresentation(tuple(points), rays)


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
