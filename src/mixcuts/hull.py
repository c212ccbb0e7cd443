"""Closure checks: the hull family on one side, the membership LP on the other.

Everything here works on instances with zero lower bounds.  The diagnosis
(:func:`mixcuts.aggregated.diagnose`) decides from the coefficient matrix and
the linking threshold alone whether the mixing and aggregated mixing
families describe the convex hull; :func:`check_sufficiency` certifies that
verdict point by point.  It either confirms that sampled cut-feasible points
lie inside the hull over the explicit vertex list of :mod:`mixcuts.vertices`
(chain certificate first, membership LP where it fails), or builds a witness
point outside it.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .aggregated import (
    HullDiagnosis,
    count_sequences,
    diagnose,
    starred_rows,
    total_cut,
)
from .core import (
    CutKind,
    GroundSetTooLarge,
    LinearCut,
    MixingInstance,
    complement,
    format_rational,
)
from .counterexample import certify_witness, witness
from .mixing import mix_star_cuts, star_rows
from .vertices import SeparatingHyperplane, decompose, membership, v_representation

BASIS_ENUMERATION_WORK = 3_000
FAMILY_SEQUENCE_BOUND = 150_000


Row = tuple[int, tuple[int, ...], int]


def _family_rows(inst: MixingInstance, max_length: Optional[int]) -> dict[Row, CutKind]:
    """The hull family as distinct integer rows ``(shape, z, rhs)`` over the
    common denominator D of ``inst.scaled``, each with its kind, in the order
    of first occurrence: the starred mixing rows of every column, the
    starred aggregated rows over sequences avoiding the low rows (up to
    ``max_length`` long), and the linking row.

    ``shape`` is the column j of a row ``y_j + ... >= ...`` and -1 for a row
    ``sum_j y_j + ... >= ...``; with one column both read y_0, so both are 0.
    Over one D two rows are equal exactly when their cuts are.
    """
    outside = sorted(set(range(inst.n)) - diagnose(inst).i_bar)
    if count_sequences(len(outside), max_length) > FAMILY_SEQUENCE_BOUND:
        raise GroundSetTooLarge(
            f"{len(outside)} rows outside the low set need too many sequences"
        )
    total = -1 if inst.k > 1 else 0
    rows = {
        (j, z, rhs): CutKind.MIX_STAR
        for j in range(inst.k)
        for z, rhs in star_rows(inst, j)
    }
    for z, rhs in starred_rows(inst, outside, max_length):
        rows.setdefault((total, tuple(z), rhs), CutKind.AMIX_STAR)
    eps = inst.scaled[2]
    if eps > 0:
        rows.setdefault((total, (0,) * inst.n, eps), CutKind.LINKING)
    return rows


def _family_cuts(inst: MixingInstance, rows: dict[Row, CutKind]) -> list[LinearCut]:
    """One cut per row of :func:`_family_rows`.  Its starred mixing rows come
    first and are all kept, so they are the cuts of :func:`mix_star_cuts`;
    every other row reads ``sum_j y_j``."""
    cuts = [cut for j in range(inst.k) for cut in mix_star_cuts(inst, j)]
    for (_, z, rhs), kind in itertools.islice(rows.items(), len(cuts), None):
        cuts.append(total_cut(inst, z, rhs, kind))
    return cuts


def hull_cut_family(
    inst: MixingInstance, max_length: Optional[int] = None
) -> list[LinearCut]:
    """Starred mixing cuts for every column plus starred aggregated cuts over
    sequences avoiding the low rows (up to ``max_length`` long), plus the
    linking constraint, without duplicates.  The family is built and
    deduplicated in integers; a cut is made only for each distinct row."""
    return _family_cuts(inst, _family_rows(inst, max_length))


class CutMatrix(NamedTuple):
    """A cut family ``y_coeffs . y + z_coeffs . z >= rhs`` as one integer
    matrix over a common denominator, each cut tagged with its shape.

    ``shapes[r]`` is the column j when cut r reads ``y_j + ... >= ...`` (a
    floor on one coordinate) and -1 when every y coefficient is 1 (a floor
    on the total; with one column both shapes are 0).  ``rows[r]`` holds the y then the z coefficients and
    ``rhs[r]`` the right-hand side, all times the common ``denominator``.
    """

    k: int
    n: int
    denominator: int
    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    shapes: tuple[int, ...]


def _cut_matrix(inst: MixingInstance, rows: dict[Row, CutKind]) -> CutMatrix:
    """The rows of :func:`_family_rows` as one matrix over their D."""
    scale, k = inst.scaled[0], inst.k
    units = [tuple(scale if c == j else 0 for c in range(k)) for j in range(k)]
    units.append((scale,) * k)  # shape -1: every y coefficient 1
    return CutMatrix(
        k,
        inst.n,
        scale,
        tuple(units[shape] + z for shape, z, _ in rows),
        tuple(rhs for _, _, rhs in rows),
        tuple(shape for shape, _, _ in rows),
    )


def project_to_cut_polyhedron(
    family: CutMatrix,
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
    k = family.k
    # Everything below is scaled by the cut matrix's denominator times the
    # common denominator Z of z, so each cut's need is one integer.
    z_den = math.lcm(*(v.denominator for v in z))
    z_int = [v.numerator * (z_den // v.denominator) for v in z]
    y = [0] * k
    total_floor = 0
    for row, rhs, shape in zip(family.rows, family.rhs, family.shapes):
        need = rhs * z_den - sum(b * v for b, v in zip(row[k:], z_int) if v)
        if shape < 0:
            if need > total_floor:
                total_floor = need
        elif need > y[shape]:
            y[shape] = need
    shortfall = total_floor - sum(y)
    if shortfall > 0:
        y[deficit_column] += shortfall
    den = family.denominator * z_den
    return tuple(Fraction(v, den) for v in y), z


def _random_box_point(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    dens = (2, 3, 4, 5)
    return tuple(
        Fraction(rng.randint(0, d), d) for d in (rng.choice(dens) for _ in range(n))
    )


def _cut_polyhedron_vertices(
    family: CutMatrix, work_bound: int
) -> Optional[list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]]:
    """All vertices of the cut system by exhaustive basis enumeration, or
    None when that would exceed the work bound.

    The system is every cut plus the box rows 0 <= z <= 1 and y >= 0 in
    dimension d = k + n; a vertex is a feasible intersection of d of them
    with full rank.  Each square system is solved by fraction-free
    Gauss-Jordan elimination and checked against every row in integers.
    """
    k, d = family.k, family.k + family.n
    rows = list(zip(family.rows, family.rhs))
    for j in range(k):
        rows.append((_unit(d, j, 1), 0))
    for i in range(family.n):
        rows.append((_unit(d, k + i, 1), 0))
        rows.append((_unit(d, k + i, -1), -1))
    if math.comb(len(rows), d) > work_bound:
        return None
    vertices = []
    seen = set()
    for combo in itertools.combinations(rows, d):
        solution = _solve_square(combo)
        if solution is None:
            continue
        num, den = solution
        if all(
            sum(c * v for c, v in zip(coeff, num)) >= rhs * den for coeff, rhs in rows
        ) and solution not in seen:
            seen.add(solution)
            point = tuple(Fraction(v, den) for v in num)
            vertices.append((point[:k], point[k:]))
    return vertices


def _unit(d: int, j: int, value: int) -> tuple[int, ...]:
    return tuple(value if i == j else 0 for i in range(d))


def _solve_square(
    rows: Sequence[tuple[tuple[int, ...], int]]
) -> Optional[tuple[tuple[int, ...], int]]:
    """The unique solution of a square integer system as (numerators,
    denominator) in lowest terms with a positive denominator, or None when
    the system is singular.

    Fraction-free Gauss-Jordan: each update divides by the previous pivot,
    which is exact, so the last pivot is the common denominator.
    """
    d = len(rows)
    mat = [list(coeff) + [rhs] for coeff, rhs in rows]
    prev = 1
    for col in range(d):
        pivot = next((r for r in range(col, d) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        prow = mat[col]
        p = prow[col]
        for r in range(d):
            if r != col:
                f = mat[r][col]
                mat[r] = [(a * p - f * b) // prev for a, b in zip(mat[r], prow)]
        prev = p
    if prev < 0:
        prev = -prev
        num = [-mat[r][d] for r in range(d)]
    else:
        num = [mat[r][d] for r in range(d)]
    g = math.gcd(prev, *num)
    return tuple(v // g for v in num), prev // g


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
            if self.diagnosis.l_w_eps is None
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
) -> SufficiencyReport:
    """Certify the diagnosis empirically.

    Sufficient instances: sample points of the cut polyhedron (seeded
    projections of random box points, and its exact vertices when basis
    enumeration is affordable) and confirm each is inside the hull: by the
    chain certificate of :func:`mixcuts.vertices.decompose` first, and by
    the membership LP where the chain proves nothing, so a point is counted
    outside only on the LP's verdict.  Insufficient instances: build the
    explicit witness point for the failing condition and certify that it
    satisfies every mixing and aggregated mixing cut yet lies outside the
    hull, by the membership LP.
    """
    diag = diagnose(inst)
    vrep = v_representation(inst)
    failures: list[str] = []

    if diag.sufficient:
        rows = _family_rows(inst, None)
        cuts = _family_cuts(inst, rows)
        family = _cut_matrix(inst, rows)
        rng = random.Random(seed)
        checked = 0
        for s in range(samples):
            z = _random_box_point(rng, inst.n)
            y, z = project_to_cut_polyhedron(family, z, s % inst.k)
            zc = complement(z)
            if not (decompose(vrep, y, zc) or membership(vrep, y, zc)).inside:
                failures.append(f"projected sample {s} outside hull: y={y} z={z}")
            checked += 1
        vertices = _cut_polyhedron_vertices(family, basis_work_bound)
        if vertices is not None:
            for y, z in vertices:
                zc = complement(z)
                if not (decompose(vrep, y, zc) or membership(vrep, y, zc)).inside:
                    failures.append(f"cut-polyhedron vertex outside hull: {y} {z}")
                checked += 1
        return SufficiencyReport(
            diag, "closure", tuple(cuts), checked, tuple(failures), None, None,
            tuple(), None, not failures,
        )

    point, case = witness(inst, diag)
    verdict = membership(vrep, point[0], complement(point[1]))
    assertions = certify_witness(inst, point, verdict=verdict)
    ok = all(msg.startswith("ok") for msg in assertions)
    return SufficiencyReport(
        diag, "witness", tuple(), 0, tuple(failures), point, case,
        tuple(assertions), verdict.hyperplane, ok,
    )
