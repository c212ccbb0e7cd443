"""The hull as a vertex list: extreme points, exact membership, cut validity.

Everything here works on instances with zero lower bounds, in the
indicator-epigraph view (z_i = 1 keeps scenario i's row active; callers
complement z for the original variables).  The extreme points are explicit
and listed in integers over one denominator, each binary z's floor and
deficit recorded as they are enumerated, so a point is certified inside by
a chain certificate first: z sorted in descending order gives one nested
chain of masks (Edmonds' greedy), and the convex combination over their
floors and deficits is built in closed form (:func:`decompose`).  Where
the chain proves nothing, membership is one feasibility LP on the
target's face of the hull (:func:`membership`), the only source of an
"outside" verdict.  Every
certificate is re-checked in integers before it is returned, and a linear
cut is valid exactly when it holds at every extreme point and along every
ray.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .core import (
    DimensionMismatch,
    DomainError,
    Frozen,
    InternalInvariant,
    LinearCut,
    LowerBoundsNotReduced,
    MixingInstance,
    check_work,
)
from .exactlp import solve_feasibility, verify_farkas, verify_feasible


class VRepresentation(Frozen):
    """Extreme points and rays of the hull in the indicator-epigraph view
    (z_i = 1 means scenario i is active; callers complement for the
    original variables), each ``(y, z)`` with y in integers over the one
    denominator ``den`` > 0 and z in integers.

    The membership LP's constraint matrix has one column per point, then one
    per ray, and the rows: n z rows, the convexity row, k y rows.  It is
    cached in integers once per vertex list, in two scalings by rows (see
    :attr:`lp_matrix` and :attr:`common_matrix`) and by columns for the
    certificate checks (:attr:`columns`).

    ``masks`` is the enumerator's record for :func:`decompose`: for each
    binary z (as a bitmask, bit i for z_i), ``(floor, deficit, columns)``
    with point d being ``floor + deficit * e_d`` (y over ``den``) at
    ``columns[d]``; a single floor point has deficit 0 and stands at every
    ``columns[d]``.  The ray of y direction d stands at column
    ``len(points) + d``.  A list built by hand has no record and gets no
    chain verdict.
    """

    _fields = ("den", "points", "rays", "masks")

    def __init__(
        self,
        den: int,
        points: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
        rays: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
        masks: Optional[tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...]] = None,
    ) -> None:
        self.__dict__.update(den=den, points=points, rays=rays, masks=masks)

    @property
    def k(self) -> int:
        return len(self.points[0][0])

    @property
    def n(self) -> int:
        return len(self.points[0][1])

    @cached_property
    def lp_matrix(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """``(rows, scales)``: each row of :attr:`common_matrix` divided by
        g, the gcd of ``den`` and its entries, so ``scales[i]`` = den / g is
        the lcm of that row's own denominators (1 for the 0/1 z rows and
        the convexity row)."""
        den, common = self.common_matrix
        rows, scales = [], []
        for row in common:
            g = math.gcd(den, *row)
            rows.append(row if g == 1 else tuple(v // g for v in row))
            scales.append(den // g)
        return tuple(rows), tuple(scales)

    @cached_property
    def common_matrix(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(den, rows)``: the constraint matrix times ``den``, the points'
        and rays' own integers, for the LP's face, the Farkas check and
        :func:`check_validity`."""
        den = self.den
        columns = self.points + self.rays
        rows = [tuple(v * den for v in row) for row in zip(*(z for _, z in columns))]
        rows.append((den,) * len(self.points) + (0,) * len(self.rays))
        rows += zip(*(y for y, _ in columns))
        return den, tuple(rows)

    @cached_property
    def columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The columns of :attr:`common_matrix`, read straight off the points
        and rays: each column's nonzero entries as ``(row, value)`` pairs in
        row order.  Every certificate of an inside verdict is checked
        against them."""
        den, n, npts = self.den, self.n, len(self.points)
        return tuple(
            (
                *((i, v * den) for i, v in enumerate(z) if v),
                *(((n, den),) if c < npts else ()),
                *((n + 1 + j, v) for j, v in enumerate(y) if v),
            )
            for c, (y, z) in enumerate(self.points + self.rays)
        )


def mask_floors(inst: MixingInstance) -> list[tuple[int, ...]]:
    """Per binary z, as a bitmask in mask order (bit i for z_i), the floor
    of the hull's points at that z: the componentwise max of the active
    rows, y over the common denominator D of ``inst.scaled``.  The list
    doubles once per row: the masks with bit i set, after those without it,
    are the masks below 2^i with row i folded into their floors.  The
    hull's points at z are the floor alone, when its sum exceeds the
    linking threshold, or one point per column absorbing the deficit
    (:func:`v_representation`).  The 2^n masks are counted against the
    work budget before the list starts."""
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("vertex enumeration requires zero lower bounds")
    check_work(1 << inst.n, f"masks of {inst.n} rows")
    floors = [(0,) * inst.k]
    for row in inst.scaled[1]:
        floors += [tuple(map(max, floor, row)) for floor in floors]
    return floors


def v_representation(inst: MixingInstance) -> VRepresentation:
    """Every extreme point of the hull, y over the common denominator D of
    ``inst.scaled``: per binary z (in mask order) either the componentwise
    floor of the active rows (:func:`mask_floors`), when its sum already
    exceeds the linking threshold, or one point per column absorbing the
    deficit; the rays are the unit y directions.  The z list doubles the
    way the floors do, each new z one already listed with bit i set, and
    each z's floor, deficit and columns are recorded as they are
    enumerated."""
    floors = mask_floors(inst)
    n, k = inst.n, inst.k
    den, _, eps, _ = inst.scaled
    zs = [(0,) * n]
    for i in range(n):
        zs += [z[:i] + (1,) + z[i + 1 :] for z in zs]
    points = []
    masks = []
    for floor, z in zip(floors, zs):
        deficit = eps - sum(floor)
        start = len(points)
        if deficit < 0:
            points.append((floor, z))
            masks.append((floor, 0, (start,) * k))
        else:
            for d in range(k):
                y = list(floor)
                y[d] += deficit
                points.append((tuple(y), z))
            masks.append((floor, deficit, tuple(range(start, start + k))))
    rays = tuple(
        (tuple(den if j == d else 0 for j in range(k)), (0,) * n) for d in range(k)
    )
    return VRepresentation(den, tuple(points), rays, tuple(masks))


class SeparatingHyperplane(NamedTuple):
    """Functional phi(y, z) = y_coeffs.y + z_coeffs.z with phi <= bound on the
    hull and phi(point) > bound."""

    y_coeffs: tuple[Fraction, ...]
    z_coeffs: tuple[Fraction, ...]
    bound: Fraction


class MembershipResult(NamedTuple):
    inside: bool
    # When inside, the multipliers as :func:`decompose` gives them.
    certificate: Optional[tuple[list[tuple[int, int]], int]]
    hyperplane: Optional[SeparatingHyperplane]


def _check_target(vrep: VRepresentation, target: Sequence[int], den: int) -> None:
    """Refuse a target that is not (z, 1, y) over ``den`` > 0 for the list."""
    if len(target) != vrep.n + 1 + vrep.k:
        raise DimensionMismatch("point dimensions disagree with representation")
    if den <= 0 or target[vrep.n] != den:
        raise DomainError("the target's convexity entry must be its denominator")


def membership(
    vrep: VRepresentation,
    target: Sequence[int],
    den: int,
) -> MembershipResult:
    """Exact test for a point in conv(points) + cone(rays), with certificate.

    It takes and gives the forms of :func:`decompose`: the target (z, 1, y)
    over ``den`` > 0, and an inside verdict's multipliers as ``(support,
    x_den)``; an outside verdict carries a strictly separating hyperplane.

    Solves the feasibility LP "convex combination of points plus nonnegative
    ray multiples equals the target" by the integer simplex on the target's
    face of the hull.  Every column's z is nonnegative, so where the target
    has z_i = 0 a solution puts no weight on a column with z_i > 0: those
    columns and the rows z_i = 0 are dropped before the LP, and each kept
    row of the vertex list's row-scaled matrix is rescaled only by its
    target entry's denominator in lowest terms, so the LP does not depend
    on ``den``.  A feasible x is the support.  An infeasible outcome gives
    a Farkas vector on the kept rows, which is lifted to the dropped rows:
    row i gets the multiplier -max(0, u.A_j) over the dropped columns j
    with z_ij > 0, so u.A <= 0 holds on every column, and u.b is unchanged
    because b_i = 0; the lifted vector is the hyperplane.  On the list of
    :func:`v_representation` the lift is always 0 (a point whose z has
    more rows active lies, in y, in the region of the point without them);
    on a list built by hand, such as the band-clipped hull, it can be
    positive.  Both certificates are re-checked in integers against the
    full common-denominator matrix before returning, the support by its
    columns (:attr:`VRepresentation.columns`).
    """
    _check_target(vrep, target, den)
    n = vrep.n
    common_den, common = vrep.common_matrix
    # The face: rows where the target's z is 0, and the columns they keep.
    dropped = [i for i in range(n) if not target[i]]
    kept_rows = [r for r in range(len(common)) if r >= n or target[r]]
    if dropped:
        hits = map(any, zip(*(common[i] for i in dropped)))
        columns = [j for j, hit in enumerate(hits) if not hit]
    else:
        columns = range(len(common[0]))
    # Each LP row is scaled by the lcm of its own and its rhs's denominators.
    rows, row_scales = vrep.lp_matrix
    a_rows, b, scales = [], [], []
    for r in kept_rows:
        t, row_scale = target[r], row_scales[r]
        scale = math.lcm(row_scale, den // math.gcd(t, den))
        factor = scale // row_scale
        row = rows[r]
        a_rows.append([row[j] * factor for j in columns])
        b.append(t * scale // den)
        scales.append(scale)
    result = solve_feasibility(a_rows, b)

    if result.feasible:
        # (common / common_den) x = target / den, in integers.
        support = [(j, v) for j, v in zip(columns, result.x) if v]
        if not verify_feasible(
            vrep.columns, target, [(j, den * v) for j, v in support],
            common_den * result.den,
        ):
            raise InternalInvariant("membership certificate failed verification")
        return MembershipResult(True, (support, result.den), None)

    # The LP's Farkas vector, mapped back through the row scales, proves the
    # face system infeasible: u.A <= 0 on every kept column and u.b > 0.
    # Times common_den it is an integer vector on the rows of ``common`` with
    # the same plane, so each dropped row's multiplier is an integer there.
    u = [0] * len(common)
    for r, scale, v in zip(kept_rows, scales, result.farkas):
        u[r] = scale * v
    lift = [0] * len(common[0])
    for r in kept_rows:
        if u[r]:
            lift = [s + u[r] * v for s, v in zip(lift, common[r])]
    u = [v * common_den for v in u]
    for i in dropped:
        u[i] = -max([0] + [s for s, v in zip(lift, common[i]) if v])
    # Lifted this way, u.A <= 0 on every column, u.b > 0, and phi <= bound
    # on every point, phi does not grow along a ray, and phi(target) > bound.
    if not verify_farkas(common, target, u):
        raise InternalInvariant("separating hyperplane failed verification")
    u = [Fraction(v, common_den * result.den) for v in u]
    return MembershipResult(
        False, None, SeparatingHyperplane(tuple(u[n + 1 :]), tuple(u[:n]), -u[n])
    )


def decompose(
    vrep: VRepresentation,
    target: Sequence[int],
    den: int,
) -> Optional[tuple[list[tuple[int, int]], int]]:
    """A proof that a point is in conv(points) + cone(rays) by one chain, or
    None when the chain proves nothing (the point may still be inside).

    The point comes as one integer target (z, 1, y) over ``den`` > 0, the
    layout of the membership LP's rows, so ``target[n]`` is ``den``.  The
    proof is the support of the multipliers as integers over one
    denominator: ``(support, x_den)``, with ``support`` the ``(column,
    numerator)`` pairs of the nonzero ones, column c < len(points) for
    point c and len(points) + d for the ray of y direction d.  Every other
    multiplier is 0.  :func:`membership` takes and gives the same forms.

    It is :func:`certify_chain` on the :func:`chain_links` of z; a list
    without the enumerator's record (:attr:`VRepresentation.masks`) and a z
    outside the unit box get None.
    """
    _check_target(vrep, target, den)
    z = target[: vrep.n]
    if vrep.masks is None or min(z) < 0 or max(z) > den:
        return None
    return certify_chain(vrep, target, den, chain_links(z, den))


def chain_links(z: Sequence[int], top: int) -> list[tuple[int, int]]:
    """The chain of a z in [0, top]^n, integers over ``top``: z sorted in
    descending order (ties by ascending index) gives the nested masks S_0 =
    {} < ... < S_n, S_t (bit i for z_i) holding the t largest entries, with
    weights z_(t) - z_(t+1) over ``top`` (z_(0) = top, z_(n+1) = 0) that sum
    to 1 and average the masks to z: the ``(weight, mask)`` links of
    nonzero weight."""
    links, mask, level = [], 0, top
    for i in sorted(range(len(z)), key=z.__getitem__, reverse=True):
        if level > z[i]:
            links.append((level - z[i], mask))
        level = z[i]
        mask |= 1 << i
    if level:
        links.append((level, mask))
    return links


def certify_chain(
    vrep: VRepresentation,
    target: Sequence[int],
    den: int,
    links: Sequence[tuple[int, int]],
    scale: int = 1,
) -> Optional[tuple[list[tuple[int, int]], int]]:
    """The chain certificate of :func:`decompose` for the target (z, 1, y)
    over ``den`` on the chain of its z, on a vertex list with the
    enumerator's record: ``links`` are :func:`chain_links` of z over ``den
    / scale``, so each weight times ``scale`` is lambda_t over ``den``.
    None when the chain proves nothing.

    Mask S_t contributes its floor and owes its deficit, as
    :attr:`VRepresentation.masks` records them; the point is inside when
    the slack y - sum lambda_t floor_t is nonnegative and covers sum
    lambda_t deficit_t.  The deficit is filled into the columns in index
    order, every mask spreading its points by that one fill, and what is
    left goes on the rays.  All of this is integer over the vertex list's D
    and ``den``.  The support, at most one column per point of the chain's
    masks and per ray, is re-checked by the checker :func:`membership` uses
    for its own, which reads only the support's columns
    (:attr:`VRepresentation.columns`); no ``Fraction`` is made.
    """
    masks, common_den = vrep.masks, vrep.den
    # Units of 1 / (den * D) from here on: slack, deficits and the fill.
    slack = [v * common_den for v in target[vrep.n + 1 :]]
    owed = 0
    chain = []
    for weight, mask in links:
        weight *= scale
        floor, deficit, columns = masks[mask]
        chain.append((weight, columns))
        slack = [s - weight * f for s, f in zip(slack, floor)]
        owed += weight * deficit
    if any(s < 0 for s in slack) or sum(slack) < owed:
        return None
    fill, rest = [], owed
    for s in slack:
        fill.append(min(s, rest))
        rest -= fill[-1]

    # Point (t, d) carries lambda_t * fill_d / owed and ray d the rest of
    # slack_d; with nothing owed, or a mask with one point, the mask's
    # weight sits on its first column.  Every multiplier is kept times den,
    # the scale of the check below, and only the nonzero ones are listed.
    npts = len(vrep.points)
    unit = common_den * den
    spread = owed or 1
    support = []
    for weight, columns in chain:
        if owed and columns[0] != columns[-1]:
            support += [(c, weight * f * unit) for c, f in zip(columns, fill) if f]
        else:
            support.append((columns[0], weight * spread * unit))
    for d, (s, f) in enumerate(zip(slack, fill)):
        if s > f:
            support.append((npts + d, (s - f) * spread * den))
    # The multipliers are (v / (den * x_den)), v = den * (x_den * them).
    x_den = unit * spread
    if not verify_feasible(vrep.columns, target, support, common_den * x_den):
        raise InternalInvariant("chain certificate failed verification")
    return support, den * x_den


def check_validity(inst: MixingInstance, cut: LinearCut, vrep=None) -> bool:
    """Evaluate a cut at every extreme point and ray of the set's hull.

    Sufficient for linear cuts.  Works over the scenario-indicator view of the
    vertices (complemented from the epigraph view) on the vertex list's
    common-denominator matrix, so the check is exact and in integers.  Pass a
    precomputed vertex representation to amortize enumeration and scaling
    over many cuts; a list of another (k, n) is refused.
    """
    if cut.k != inst.k or cut.n != inst.n:
        raise DimensionMismatch("cut dimensions disagree with instance")
    if vrep is not None and (vrep.k, vrep.n) != (inst.k, inst.n):
        raise DimensionMismatch("vertex list dimensions disagree with instance")
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
