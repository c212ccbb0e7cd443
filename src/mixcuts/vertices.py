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
VALIDITY_BOUND = 20


@dataclass(frozen=True)
class VRepresentation:
    """Extreme points and rays of the hull in the indicator-epigraph view
    (z_i = 1 means scenario i is active; callers complement for the
    original variables)."""

    points: tuple[tuple[tuple[Fraction, ...], tuple[int, ...]], ...]
    rays: tuple[tuple[tuple[Fraction, ...], tuple[int, ...]], ...]

    @property
    def k(self) -> int:
        return len(self.points[0][0])

    @property
    def n(self) -> int:
        return len(self.points[0][1])


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
    ray multiples equals the target" by a rational simplex; an infeasible
    outcome converts the Farkas vector into a strictly separating hyperplane.
    Both certificates are re-verified before returning.
    """
    k, n = vrep.k, vrep.n
    if len(y) != k or len(z) != n:
        raise DimensionMismatch("point dimensions disagree with representation")
    # Columns: one convex multiplier per point, one nonnegative multiplier per
    # ray.  Rows: n equalities for z, one convexity row, k equalities for y.
    npts = len(vrep.points)
    a_rows: list[list[Fraction]] = []
    b: list[Fraction] = []
    for i in range(n):
        a_rows.append(
            [Fraction(pz[i]) for _, pz in vrep.points]
            + [Fraction(rz[i]) for _, rz in vrep.rays]
        )
        b.append(Fraction(z[i]))
    a_rows.append([Fraction(1)] * npts + [Fraction(0)] * len(vrep.rays))
    b.append(Fraction(1))
    for j in range(k):
        row = [py[j] for py, _ in vrep.points]
        row += [ry[j] for ry, _ in vrep.rays]
        a_rows.append(row)
        b.append(Fraction(y[j]))

    result = solve_feasibility(a_rows, b)
    if result.feasible:
        if not verify_feasible(a_rows, b, result.x):
            raise InternalInvariant("membership certificate failed verification")
        return MembershipResult(True, result.x[:npts], result.x[npts:], None)

    # u.A <= 0 on every column and u.b > 0 say exactly that phi <= bound on
    # every point, phi does not grow along a ray, and phi(target) > bound.
    u = result.farkas
    if not verify_farkas(a_rows, b, u):
        raise InternalInvariant("separating hyperplane failed verification")
    return MembershipResult(
        False, None, None, SeparatingHyperplane(tuple(u[n + 1 :]), tuple(u[:n]), -u[n])
    )


def check_validity(inst: MixingInstance, cut: LinearCut, vrep=None) -> bool:
    """Evaluate a cut at every extreme point and ray of the set's hull.

    Sufficient for linear cuts.  Works over the scenario-indicator view of the
    vertices (complemented from the epigraph view) with everything scaled to
    integers, so the check is exact and fast.  Pass a precomputed vertex
    representation to amortize enumeration over many cuts.
    """
    if inst.n > VALIDITY_BOUND:
        raise GroundSetTooLarge(f"validity check limited to n <= {VALIDITY_BOUND}")
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
    beta_total = sum(beta)
    scale = math.lcm(*(coord.denominator for y, _ in vrep.points for coord in y))
    gamma_scaled = gamma * scale
    for y, z in vrep.points:
        lhs = beta_total * scale
        for b, zi in zip(beta, z):
            if zi:
                lhs -= b * scale
        for a, yi in zip(alpha, y):
            if a:
                lhs += a * int(yi * scale)
        if lhs < gamma_scaled:
            return False
    return True
