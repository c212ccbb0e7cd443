"""Closure checks: the hull family on one side, the membership LP on the other.

Everything here works on instances with zero lower bounds.  The diagnosis
(:func:`mixcuts.aggregated.diagnose`) decides from the coefficient matrix and
the linking threshold alone whether the mixing and aggregated mixing
families describe the convex hull; :func:`check_sufficiency` certifies that
verdict point by point.  It either confirms that sampled cut-feasible points
lie inside the hull over the explicit vertex list of :mod:`mixcuts.vertices`
(chain certificate first, membership LP where it fails), or builds a witness
point outside it.

The closure branch runs in integers from the drawn or enumerated point to
the re-checked certificate: box points are numerators over one denominator,
projected on the family's integer matrix, complemented and handed to the
chain certificate as one integer target; the cut polyhedron's vertices come
from a depth-first basis enumeration that keeps each prefix fraction-free.
A ``Fraction`` is made only for the membership LP or a failure message.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
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
from .vertices import (
    SeparatingHyperplane,
    VRepresentation,
    decompose,
    membership,
    v_representation,
)

BASIS_ENUMERATION_WORK = 3_000
FAMILY_SEQUENCE_BOUND = 150_000


Row = tuple[int, tuple[int, ...], int]


def family_rows(inst: MixingInstance) -> dict[Row, CutKind]:
    """The hull family as distinct integer rows ``(shape, z, rhs)`` over the
    common denominator D of ``inst.scaled``, each with its kind, in the order
    of first occurrence: the starred mixing rows of every column, the
    starred aggregated rows over sequences of every length avoiding the low
    rows, and the linking row.

    ``shape`` is the column j of a row ``y_j + ... >= ...`` and -1 for a row
    ``sum_j y_j + ... >= ...``; with one column both read y_0, so both are 0.
    Over one D two rows are equal exactly when their cuts are.

    Raises ``GroundSetTooLarge`` before the walk when the rows outside the
    low set have more than ``FAMILY_SEQUENCE_BOUND`` sequences.
    """
    outside = sorted(set(range(inst.n)) - diagnose(inst).i_bar)
    count = count_sequences(len(outside))
    if count > FAMILY_SEQUENCE_BOUND:
        raise GroundSetTooLarge(
            f"{len(outside)} rows outside the low set have {count} sequences, "
            f"more than FAMILY_SEQUENCE_BOUND = {FAMILY_SEQUENCE_BOUND}"
        )
    total = -1 if inst.k > 1 else 0
    rows = {
        (j, z, rhs): CutKind.MIX_STAR
        for j in range(inst.k)
        for z, rhs in star_rows(inst, j)
    }
    for z, rhs in starred_rows(inst, outside):
        rows.setdefault((total, tuple(z), rhs), CutKind.AMIX_STAR)
    eps = inst.scaled[2]
    if eps > 0:
        rows.setdefault((total, (0,) * inst.n, eps), CutKind.LINKING)
    return rows


def _family_cuts(inst: MixingInstance, rows: dict[Row, CutKind]) -> list[LinearCut]:
    """One cut per row of :func:`family_rows`.  Its starred mixing rows come
    first and are all kept, so they are the cuts of :func:`mix_star_cuts`;
    every other row reads ``sum_j y_j``."""
    cuts = [cut for j in range(inst.k) for cut in mix_star_cuts(inst, j)]
    for (_, z, rhs), kind in itertools.islice(rows.items(), len(cuts), None):
        cuts.append(total_cut(inst, z, rhs, kind))
    return cuts


def hull_cut_family(inst: MixingInstance) -> list[LinearCut]:
    """Starred mixing cuts for every column plus starred aggregated cuts over
    sequences avoiding the low rows, plus the linking constraint, without
    duplicates.  The family is built and deduplicated in integers; a cut is
    made only for each distinct row."""
    return _family_cuts(inst, family_rows(inst))


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
    """The rows of :func:`family_rows` as one matrix over their D."""
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
    z: Sequence[int],
    z_den: int,
    deficit_column: int = 0,
) -> list[int]:
    """Lift a z in the unit box, given as integers over ``z_den``, to the
    cheapest y satisfying all cuts, as integers over ``family.denominator *
    z_den``.

    Per-column cuts set a floor per coordinate; cuts touching all of y (the
    linking constraint and aggregated cuts) may force a higher total, and the
    shortfall is added to one designated coordinate.  The result satisfies
    every cut and is tight somewhere, which is where closure failures show.
    """
    k = family.k
    point = [0] * k + list(z)  # the y coefficients meet zeros
    y = [0] * k
    total_floor = 0
    for row, rhs, shape in zip(family.rows, family.rhs, family.shapes):
        need = rhs * z_den - sum(map(mul, row, point))
        if shape < 0:
            if need > total_floor:
                total_floor = need
        elif need > y[shape]:
            y[shape] = need
    shortfall = total_floor - sum(y)
    if shortfall > 0:
        y[deficit_column] += shortfall
    return y


_BOX_DENOMINATORS = (2, 3, 4, 5)
_BOX_SCALE = math.lcm(*_BOX_DENOMINATORS)


def _random_box_point(rng: random.Random, n: int) -> list[int]:
    """A point of the unit box as integers over ``_BOX_SCALE``: per
    coordinate a denominator d drawn from ``_BOX_DENOMINATORS``, then a
    numerator in 0..d."""
    z = []
    for _ in range(n):
        d = rng.choice(_BOX_DENOMINATORS)
        z.append(rng.randint(0, d) * (_BOX_SCALE // d))
    return z


def _cut_polyhedron_vertices(
    family: CutMatrix, work_bound: int
) -> Optional[list[tuple[tuple[int, ...], int]]]:
    """All vertices of the cut system as ``(numerators, denominator)`` in
    lowest terms with a positive denominator, in the order in which
    ``itertools.combinations`` meets their first basis, or None when that
    would exceed the work bound.

    The system is every cut plus the box rows 0 <= z <= 1 and y >= 0 in
    dimension d = k + n; a vertex is a feasible intersection of d of them
    with full rank.  The bases are walked depth first in lexicographic
    order, each prefix kept fraction-free in reduced row echelon form
    (:func:`_add_row`).  A row whose coefficients depend on the prefix ends
    that branch, since every basis completing it is singular.  A prefix of
    d - 1 rows leaves a line (:func:`_line`), and each last row meets it in
    at most one point, read in lowest terms (:func:`_meet`).  A point is
    checked against every row in integers, the row that last failed a
    check first.
    """
    k, d = family.k, family.k + family.n
    rows = [row + (rhs,) for row, rhs in zip(family.rows, family.rhs)]
    for j in range(k):
        rows.append(_unit(d, j, 1) + (0,))
    for i in range(family.n):
        rows.append(_unit(d, k + i, 1) + (0,))
        rows.append(_unit(d, k + i, -1) + (-1,))
    m = len(rows)
    if math.comb(m, d) > work_bound:
        return None
    vertices: list[tuple[tuple[int, ...], int]] = []
    seen = set()
    checks = list(rows)

    def feasible(num: tuple[int, ...], den: int) -> bool:
        for q, row in enumerate(checks):
            if sum(map(mul, row, num)) < row[d] * den:
                if q:
                    checks.insert(0, checks.pop(q))
                return False
        return True

    def extend(start: int, echelon: list[tuple[int, list[int]]]) -> None:
        stop = m - d + len(echelon) + 1  # room is left for the other rows
        if len(echelon) + 1 < d:
            for i in range(start, stop):
                grown = _add_row(echelon, rows[i], d)
                if grown is not None:
                    extend(i + 1, grown)
            return
        line = _line(echelon, d)
        for i in range(start, stop):
            solution = _meet(line, rows[i])
            if solution is not None and solution not in seen and feasible(*solution):
                seen.add(solution)
                vertices.append(solution)

    extend(0, [])
    return vertices


def _add_row(
    echelon: list[tuple[int, list[int]]], row: Sequence[int], d: int
) -> Optional[list[tuple[int, list[int]]]]:
    """The reduced row echelon form of a prefix's rows plus one more, or
    None when the new row's first d coefficients depend on the prefix's.

    ``echelon`` holds ``(pivot, row)`` pairs, each row zero in every other
    pivot column.  The new row is reduced against them, its first nonzero
    coefficient becomes its pivot and is cleared from the others; every row
    changed is divided by the gcd of its entries.
    """
    for p, other in echelon:
        f = row[p]
        if f:
            c = other[p]
            row = [c * a - f * b for a, b in zip(row, other)]
    pivot = next((j for j in range(d) if row[j]), None)
    if pivot is None:
        return None
    row = _primitive(row)
    f = row[pivot]
    grown = []
    for p, other in echelon:
        e = other[pivot]
        if e:
            other = _primitive([f * a - e * b for a, b in zip(other, row)])
        grown.append((p, other))
    grown.append((pivot, row))
    return grown


def _line(
    echelon: list[tuple[int, list[int]]], d: int
) -> tuple[int, list[int], list[int]]:
    """The solutions of d - 1 independent rows in reduced row echelon form,
    as ``(scale, base, direction)``: the line x(t) = (base + t * direction)
    / scale.

    The one column q without a pivot carries t itself; the row with pivot p
    reads c * x_p + g * t = b, so x_p = (b - g * t) / c.
    """
    pivots = {p for p, _ in echelon}
    q = next(j for j in range(d) if j not in pivots)
    scale = math.lcm(*(row[p] for p, row in echelon))
    base, direction = [0] * d, [0] * d
    direction[q] = scale
    for p, row in echelon:
        w = scale // row[p]
        base[p] = w * row[d]
        direction[p] = -w * row[q]
    return scale, base, direction


def _meet(
    line: tuple[int, list[int], list[int]], row: Sequence[int]
) -> Optional[tuple[tuple[int, ...], int]]:
    """Where a row ``a . x = a_d`` meets the line of :func:`_line`, as
    ``(numerators, denominator)`` in lowest terms with a positive
    denominator, or None when its coefficients depend on the line's rows
    (a . direction = 0).

    The row holds at t = N / M with M = a . direction and N = a_d * scale -
    a . base, which is the point (M * base + N * direction) / (scale * M).
    """
    scale, base, direction = line
    slope = sum(map(mul, row, direction))
    if not slope:
        return None
    at = row[-1] * scale - sum(map(mul, row, base))
    den = scale * slope
    if den < 0:
        den, slope, at = -den, -slope, -at
    num = [slope * b + at * e for b, e in zip(base, direction)]
    g = math.gcd(den, *num)
    return tuple(v // g for v in num), den // g


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (not all zero)."""
    g = math.gcd(*row)
    return row if g == 1 else [v // g for v in row]


def _unit(d: int, j: int, value: int) -> tuple[int, ...]:
    return tuple(value if i == j else 0 for i in range(d))


def _inside(vrep: VRepresentation, target: list[int], den: int) -> bool:
    """Whether the point with target (z, 1, y) over ``den``, z in the
    indicator view, lies in the hull: by the chain certificate, and by the
    membership LP where the chain proves nothing."""
    if decompose(vrep, target, den) is not None:
        return True
    n = vrep.n
    point = _fractions(target, den)
    return membership(vrep, point[n + 1 :], point[:n]).inside


def _fractions(values: Sequence[int], den: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(v, den) for v in values)


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
    outside only on the LP's verdict.  Every point stays in integers from
    its draw or its basis to the chain certificate; a ``Fraction`` is made
    only for the LP or for a failure message.  Insufficient instances:
    build the explicit witness point for the failing condition and certify
    that it satisfies every mixing and aggregated mixing cut yet lies
    outside the hull, by the membership LP.
    """
    diag = diagnose(inst)
    vrep = v_representation(inst)
    failures: list[str] = []

    if diag.sufficient:
        rows = family_rows(inst)
        cuts = _family_cuts(inst, rows)
        family = _cut_matrix(inst, rows)
        rng = random.Random(seed)
        k = inst.k
        # A sample's y is over D * Z, so its z is scaled by D to share it.
        scale = family.denominator
        sample_den = scale * _BOX_SCALE
        checked = 0
        for s in range(samples):
            z = _random_box_point(rng, inst.n)
            y = project_to_cut_polyhedron(family, z, _BOX_SCALE, s % k)
            target = [sample_den - scale * v for v in z] + [sample_den] + y
            if not _inside(vrep, target, sample_den):
                failures.append(
                    f"projected sample {s} outside hull: "
                    f"y={_fractions(y, sample_den)} z={_fractions(z, _BOX_SCALE)}"
                )
            checked += 1
        vertices = _cut_polyhedron_vertices(family, basis_work_bound)
        if vertices is not None:
            for num, den in vertices:
                y, z = num[:k], num[k:]
                if not _inside(vrep, [den - v for v in z] + [den] + list(y), den):
                    failures.append(
                        "cut-polyhedron vertex outside hull: "
                        f"{_fractions(y, den)} {_fractions(z, den)}"
                    )
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
