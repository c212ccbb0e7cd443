"""Hull diagnostics, vertex enumeration, exact membership and closure checks.

Everything here works on instances with zero lower bounds.  The diagnosis
decides, from the coefficient matrix and the linking threshold alone,
whether the mixing and aggregated mixing families describe the convex hull;
the remaining operations certify that verdict point by point: an explicit
vertex/ray representation, an exact LP membership test with certificates,
and a closure check that either confirms sampled cut-feasible points are
inside the hull or produces a witness point outside it.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import counterexample as _witness_mod
from .aggregated import aggregated_cut, count_sequences, starred_sequences
from .core import (
    CutKind,
    DimensionMismatch,
    GroundSetTooLarge,
    InternalInvariant,
    LinearCut,
    LowerBoundsNotReduced,
    MixingInstance,
    complement,
    format_rational,
)
from .exactlp import solve_feasibility
from .mixing import mix_star_cuts
from .submodular import SetFunctionOracle

ENUMERATION_BOUND = 20
BASIS_ENUMERATION_WORK = 3_000
FAMILY_SEQUENCE_BOUND = 150_000


def linking_oracle(inst: MixingInstance) -> SetFunctionOracle:
    """Oracle z -> max(epsilon, sum_j column_max_j(z)) over indicator bitmasks."""
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("linking oracle requires zero lower bounds")
    eps = inst.epsilon
    rows = inst.weights
    k = inst.k

    def value(mask: int) -> Fraction:
        best = [Fraction(0)] * k
        for i, row in enumerate(rows):
            if mask & (1 << i):
                for j in range(k):
                    if row[j] > best[j]:
                        best[j] = row[j]
        total = sum(best, Fraction(0))
        return total if total > eps else eps

    return SetFunctionOracle(inst.n, value, name="linking")


@dataclass(frozen=True)
class HullDiagnosis:
    """Verdict of the hull-sufficiency conditions for one instance."""

    i_bar: frozenset[int]
    c1_ok: bool
    c2_ok: bool
    negligible: bool
    l_w_eps: Union[Fraction, float]  # +inf sentinel only ever compared, never added
    g_submodular: bool
    sufficient: bool


def diagnose(inst: MixingInstance) -> HullDiagnosis:
    """Compute the index set of low rows, its negligibility, the pairwise
    minimum constant, and the resulting submodularity/sufficiency verdict."""
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("diagnose requires zero lower bounds")
    eps = inst.epsilon
    n, k = inst.n, inst.k
    i_bar = frozenset(i for i in range(n) if inst.row_sum(i) <= eps)
    outside = [i for i in range(n) if i not in i_bar]

    if i_bar:
        peaks = [max(inst.weights[i][j] for i in i_bar) for j in range(k)]
        c1_ok = all(
            peaks[j] <= inst.weights[i][j] for i in outside for j in range(k)
        )
        c2_ok = sum(peaks, Fraction(0)) <= eps
    else:
        c1_ok = c2_ok = True
    negligible = c1_ok and c2_ok

    l_w_eps: Union[Fraction, float]
    if not outside:
        l_w_eps = math.inf
    elif len(outside) == 1:
        l_w_eps = inst.row_sum(outside[0])
    else:
        l_w_eps = min(
            sum(
                (min(inst.weights[p][j], inst.weights[q][j]) for j in range(k)),
                Fraction(0),
            )
            for p, q in itertools.combinations(outside, 2)
        )

    g_submodular = negligible and eps <= l_w_eps
    return HullDiagnosis(
        i_bar, c1_ok, c2_ok, negligible, l_w_eps, g_submodular, g_submodular
    )


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
        lam = result.x[:npts]
        mu = result.x[npts:]
        recon_y = [
            sum((l * py[j] for l, (py, _) in zip(lam, vrep.points)), Fraction(0))
            + sum((m * ry[j] for m, (ry, _) in zip(mu, vrep.rays)), Fraction(0))
            for j in range(k)
        ]
        recon_z = [
            sum((l * pz[i] for l, (_, pz) in zip(lam, vrep.points)), Fraction(0))
            + sum((m * rz[i] for m, (_, rz) in zip(mu, vrep.rays)), Fraction(0))
            for i in range(n)
        ]
        if (
            any(l < 0 for l in result.x)
            or sum(lam, Fraction(0)) != 1
            or recon_y != list(y)
            or recon_z != list(z)
        ):
            raise InternalInvariant("membership certificate failed verification")
        return MembershipResult(True, lam, mu, None)

    u = result.farkas
    u_z = u[:n]
    u_conv = u[n]
    u_y = u[n + 1 :]
    plane = SeparatingHyperplane(tuple(u_y), tuple(u_z), -u_conv)
    # Verify: phi <= bound on every generator, phi unbounded-safe on rays,
    # and phi(target) strictly beyond the bound.
    for py, pz in vrep.points:
        phi = sum((a * v for a, v in zip(plane.y_coeffs, py)), Fraction(0))
        phi += sum((a * Fraction(v) for a, v in zip(plane.z_coeffs, pz)), Fraction(0))
        if phi > plane.bound:
            raise InternalInvariant("separating hyperplane fails on a vertex")
    for ry, rz in vrep.rays:
        drift = sum((a * v for a, v in zip(plane.y_coeffs, ry)), Fraction(0))
        drift += sum((a * v for a, v in zip(plane.z_coeffs, rz)), Fraction(0))
        if drift > 0:
            raise InternalInvariant("separating hyperplane increases along a ray")
    phi_target = sum((a * Fraction(v) for a, v in zip(plane.y_coeffs, y)), Fraction(0))
    phi_target += sum(
        (a * Fraction(v) for a, v in zip(plane.z_coeffs, z)), Fraction(0)
    )
    if phi_target <= plane.bound:
        raise InternalInvariant("separating hyperplane does not separate")
    return MembershipResult(False, None, None, plane)


# ---------------------------------------------------------------------------
# Closure check: the hull family on one side, the membership LP on the other.
# ---------------------------------------------------------------------------


def hull_cut_family(
    inst: MixingInstance, max_length: Optional[int] = None
) -> list[LinearCut]:
    """Starred mixing cuts for every column plus starred aggregated cuts over
    sequences avoiding the low rows (up to ``max_length`` long), plus the
    linking constraint."""
    diag = diagnose(inst)
    cuts: list[LinearCut] = []
    seen = set()
    for j in range(inst.k):
        for cut in mix_star_cuts(inst, j):
            key = cut.canonical_key()
            if key not in seen:
                seen.add(key)
                cuts.append(cut)
    outside = sorted(set(range(inst.n)) - diag.i_bar)
    if count_sequences(len(outside), max_length) > FAMILY_SEQUENCE_BOUND:
        raise GroundSetTooLarge(
            f"{len(outside)} rows outside the low set need too many sequences"
        )
    for theta in starred_sequences(inst, outside, max_length):
        cut = aggregated_cut(inst, theta)
        key = cut.canonical_key()
        if key not in seen:
            seen.add(key)
            cuts.append(cut)
    linking = LinearCut(
        [Fraction(1)] * inst.k, [Fraction(0)] * inst.n, inst.epsilon, CutKind.LINKING
    )
    if inst.epsilon > 0 and linking.canonical_key() not in seen:
        cuts.append(linking)
    return cuts


def project_to_cut_polyhedron(
    inst: MixingInstance,
    cuts: Sequence[LinearCut],
    z: Sequence[Fraction],
    deficit_column: int = 0,
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Lift a z in the unit box to the cheapest y satisfying all cuts.

    Per-column cuts set a floor per coordinate; cuts touching all of y (the
    linking constraint and aggregated cuts) may force a higher total, and the
    shortfall is added to one designated coordinate.  The result satisfies
    every cut and is tight somewhere, which is where closure failures show.
    """
    z = tuple(Fraction(v) for v in z)
    y = [Fraction(0)] * inst.k
    total_floor = Fraction(0)
    for cut in cuts:
        support = [j for j, a in enumerate(cut.y_coeffs) if a != 0]
        need = cut.rhs - sum(
            (b * v for b, v in zip(cut.z_coeffs, z)), Fraction(0)
        )
        if len(support) == 1 and cut.y_coeffs[support[0]] == 1:
            j = support[0]
            if need > y[j]:
                y[j] = need
        elif all(cut.y_coeffs[j] == 1 for j in range(inst.k)):
            if need > total_floor:
                total_floor = need
        else:  # pragma: no cover - family above only emits the two shapes
            raise InternalInvariant(f"unexpected cut shape {cut.y_coeffs}")
    shortfall = total_floor - sum(y, Fraction(0))
    if shortfall > 0:
        y[deficit_column] += shortfall
    return tuple(y), z


def _random_box_point(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    dens = (2, 3, 4, 5)
    return tuple(
        Fraction(rng.randint(0, d), d) for d in (rng.choice(dens) for _ in range(n))
    )


def _cut_polyhedron_vertices(
    inst: MixingInstance, cuts: Sequence[LinearCut], work_bound: int
) -> Optional[list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]]:
    """All vertices of the cut system by exhaustive basis enumeration, or
    None when that would exceed the work bound.

    The system is every cut plus the box rows 0 <= z <= 1 and y >= 0 in
    dimension d = k + n; a vertex is a feasible intersection of d of them
    with full rank.
    """
    d = inst.k + inst.n
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for cut in cuts:
        rows.append((tuple(cut.y_coeffs) + tuple(cut.z_coeffs), cut.rhs))
    for j in range(inst.k):
        coeff = [Fraction(0)] * d
        coeff[j] = Fraction(1)
        rows.append((tuple(coeff), Fraction(0)))
    for i in range(inst.n):
        coeff = [Fraction(0)] * d
        coeff[inst.k + i] = Fraction(1)
        rows.append((tuple(coeff), Fraction(0)))
        coeff2 = [Fraction(0)] * d
        coeff2[inst.k + i] = Fraction(-1)
        rows.append((tuple(coeff2), Fraction(-1)))
    if math.comb(len(rows), d) > work_bound:
        return None
    vertices = []
    seen = set()
    for combo in itertools.combinations(range(len(rows)), d):
        solution = _solve_square([rows[i] for i in combo])
        if solution is None:
            continue
        if all(
            sum((c * v for c, v in zip(coeff, solution)), Fraction(0)) >= rhs
            for coeff, rhs in rows
        ):
            if solution not in seen:
                seen.add(solution)
                vertices.append((solution[: inst.k], solution[inst.k :]))
    return vertices


def _solve_square(
    rows: list[tuple[tuple[Fraction, ...], Fraction]]
) -> Optional[tuple[Fraction, ...]]:
    d = len(rows)
    mat = [list(coeff) + [rhs] for coeff, rhs in rows]
    for col in range(d):
        pivot = next((r for r in range(col, d) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [v * inv for v in mat[col]]
        for r in range(d):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return tuple(mat[r][d] for r in range(d))


@dataclass(frozen=True)
class SufficiencyReport:
    diagnosis: HullDiagnosis
    branch: str  # "closure" or "witness"
    cuts: tuple[LinearCut, ...]
    samples_checked: int
    failures: tuple[str, ...]
    witness: Optional[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]
    witness_case: Optional[str]
    witness_assertions: tuple[str, ...] = field(default_factory=tuple)
    witness_plane: Optional[SeparatingHyperplane] = None
    ok: bool = True

    @property
    def cut_count(self) -> int:
        return len(self.cuts)

    def to_json(self) -> str:
        doc = {
            "sufficient": self.diagnosis.sufficient,
            "i_bar": sorted(i + 1 for i in self.diagnosis.i_bar),
            "c1": self.diagnosis.c1_ok,
            "c2": self.diagnosis.c2_ok,
            "l_w_eps": "inf"
            if self.diagnosis.l_w_eps == math.inf
            else format_rational(self.diagnosis.l_w_eps),
            "branch": self.branch,
            "cuts": [str(c) for c in self.cuts],
            "samples_checked": self.samples_checked,
            "failures": list(self.failures),
            "ok": self.ok,
        }
        if self.witness is not None:
            doc["witness"] = {
                "y": [format_rational(v) for v in self.witness[0]],
                "z": [format_rational(v) for v in self.witness[1]],
                "case": self.witness_case,
                "assertions": list(self.witness_assertions),
            }
            if self.witness_plane is not None:
                plane = self.witness_plane
                doc["witness"]["separating_plane"] = {
                    "y_coeffs": [format_rational(v) for v in plane.y_coeffs],
                    "z_coeffs": [format_rational(v) for v in plane.z_coeffs],
                    "bound": format_rational(plane.bound),
                }
        return json.dumps(doc, indent=2)


def check_sufficiency(
    inst: MixingInstance,
    samples: int = 50,
    seed: int = 20240,
    basis_work_bound: int = BASIS_ENUMERATION_WORK,
    midpoint_cap: int = 800,
) -> SufficiencyReport:
    """Certify the diagnosis empirically.

    Sufficient instances: sample points of the cut polyhedron (seeded
    rejection/projection, vertex-pair midpoints, and its exact vertices when
    basis enumeration is affordable) and confirm each is inside the hull by
    the membership LP.  Insufficient instances: build the explicit witness
    point for the failing condition and certify that it satisfies every
    mixing and aggregated mixing cut yet lies outside the hull.
    """
    diag = diagnose(inst)
    vrep = v_representation(inst)
    failures: list[str] = []

    if diag.sufficient:
        cuts = hull_cut_family(inst)
        rng = random.Random(seed)
        checked = 0
        for s in range(samples):
            z = _random_box_point(rng, inst.n)
            y, z = project_to_cut_polyhedron(inst, cuts, z, s % inst.k)
            if not membership(vrep, y, complement(z)).inside:
                failures.append(f"projected sample {s} outside hull: y={y} z={z}")
            checked += 1
        pts = vrep.points
        pairs = itertools.combinations(range(len(pts)), 2)
        for a, b in itertools.islice(pairs, midpoint_cap):
            mid_y = tuple((u + v) / 2 for u, v in zip(pts[a][0], pts[b][0]))
            mid_z = tuple(
                Fraction(u + v, 2) for u, v in zip(pts[a][1], pts[b][1])
            )
            if not membership(vrep, mid_y, mid_z).inside:
                failures.append(f"midpoint of vertices {a},{b} outside hull")
            checked += 1
        vertices = _cut_polyhedron_vertices(inst, cuts, basis_work_bound)
        if vertices is not None:
            for y, z in vertices:
                if not membership(vrep, y, complement(z)).inside:
                    failures.append(f"cut-polyhedron vertex outside hull: {y} {z}")
                checked += 1
        return SufficiencyReport(
            diag, "closure", tuple(cuts), checked, tuple(failures), None, None,
            tuple(), None, not failures,
        )

    point, case = _witness_mod.witness(inst, diag)
    verdict = membership(vrep, point[0], complement(point[1]))
    assertions = _witness_mod.certify_witness(inst, point, verdict=verdict)
    ok = all(msg.startswith("ok") for msg in assertions)
    return SufficiencyReport(
        diag, "witness", tuple(), 0, tuple(failures), point, case,
        tuple(assertions), verdict.hyperplane, ok,
    )
