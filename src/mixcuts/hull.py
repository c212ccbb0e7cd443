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
drawn, complemented and sorted into their chains once per (n, samples,
seed), projected on the family's integer matrix (a column's starred mixing
rows by one running-minimum pass, every other cut by its nonzero z terms)
and handed with their chains to the chain certificate; the cut
polyhedron's vertices come from an integer double-description pass on its
homogenised cone, gcd-reduced rays with bitmask zero sets and the
combinatorial adjacency test, once the number of bases shows they are few
enough.  The membership LP takes the same integer target; a ``Fraction``
is made only for a failure message, and the report prints the family's
cuts from its integer rows.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .aggregated import (
    HullDiagnosis,
    count_sequences,
    diagnose,
    starred_rows,
    total_cut,
)
from .core import (
    CutKind,
    LinearCut,
    MixingInstance,
    ValidationError,
    check_work,
    cut_text,
    format_rational,
    indicator_target,
    integer_point,
)
from .counterexample import certify_witness, check_certify_work, witness
from .mixing import mix_star_cuts, star_rows
from .vertices import (
    SeparatingHyperplane,
    certify_chain,
    chain_links,
    decompose,
    membership,
    v_representation,
)

# The closure check lists the cut polyhedron's vertices only when its
# system has at most this many bases: every vertex solves one, so the count
# bounds the vertices before the double description starts.
BASIS_ENUMERATION_WORK = 3_000


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

    The sequences of the rows outside the low set are counted against the
    work budget before the walk.
    """
    outside = sorted(set(range(inst.n)) - diagnose(inst).i_bar)
    check_work(
        count_sequences(len(outside)),
        f"sequences of the {len(outside)} rows outside the low set",
    )
    total = -1 if inst.k > 1 else 0
    rows = {
        (j, z, rhs): CutKind.MIX_STAR
        for j in range(inst.k)
        for z, rhs in star_rows(inst, j)
    }
    for z, rhs in starred_rows(inst, outside):
        rows.setdefault((total, z, rhs), CutKind.AMIX_STAR)
    eps = inst.scaled[2]
    if eps > 0:
        rows.setdefault((total, (0,) * inst.n, eps), CutKind.LINKING)
    return rows


def hull_cut_family(inst: MixingInstance) -> list[LinearCut]:
    """Starred mixing cuts for every column plus starred aggregated cuts over
    sequences avoiding the low rows, plus the linking constraint, without
    duplicates.  The family is built and deduplicated in integers
    (:func:`family_rows`); a cut is made only for each distinct row.  Its
    starred mixing rows come first and are all kept, so they are the cuts
    of :func:`mix_star_cuts`; every other row reads ``sum_j y_j``."""
    rows = tuple(family_rows(inst).items())
    cuts = [cut for j in range(inst.k) for cut in mix_star_cuts(inst, j)]
    for (_, z, rhs), kind in rows[len(cuts) :]:
        cuts.append(total_cut(inst, z, rhs, kind))
    return cuts


@dataclass(frozen=True)
class CutMatrix:
    """A cut family ``y_coeffs . y + z_coeffs . z >= rhs`` as one integer
    matrix over a common denominator, each cut tagged with its shape.

    ``shapes[r]`` is the column j when cut r reads ``y_j + ... >= ...`` (a
    floor on one coordinate) and -1 when every y coefficient is 1 (a floor
    on the total; with one column both shapes are 0).  ``rows[r]`` holds the
    y then the z coefficients and ``rhs[r]`` the right-hand side, all times
    the common ``denominator``.

    When the first ``starred`` rows are the starred mixing rows of every
    column, ``stars[j]`` lists column j's ``(i, drop)`` pairs by w_ij
    descending, drop being w_ij less the next value (the last: less 0), and
    the projection reads them in place of those rows.  ``terms`` holds each
    later row as ``(z terms, rhs, shape)``, its nonzero z coefficients as
    ``(i, coefficient)`` pairs, read off ``rows`` once.
    """

    k: int
    n: int
    denominator: int
    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    shapes: tuple[int, ...]
    starred: int = 0
    stars: tuple[tuple[tuple[int, int], ...], ...] = ()
    terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k, r = self.k, self.starred
        terms = tuple(
            (tuple((i, c) for i, c in enumerate(row[k:]) if c), rhs, shape)
            for row, rhs, shape in zip(self.rows[r:], self.rhs[r:], self.shapes[r:])
        )
        object.__setattr__(self, "terms", terms)


def _cut_matrix(inst: MixingInstance, rows: dict[Row, CutKind]) -> CutMatrix:
    """The rows of :func:`family_rows` as one matrix over their D, its
    leading starred mixing rows read as each column's values (the lower
    bounds are zero)."""
    scale, weights, _, _ = inst.scaled
    k = inst.k
    units = [tuple(scale if c == j else 0 for c in range(k)) for j in range(k)]
    units.append((scale,) * k)  # shape -1: every y coefficient 1
    stars = []
    for j in range(k):
        order = sorted(range(inst.n), key=lambda i: -weights[i][j])
        values = [weights[i][j] for i in order] + [0]
        stars.append(
            tuple((i, values[t] - values[t + 1]) for t, i in enumerate(order))
        )
    return CutMatrix(
        k,
        inst.n,
        scale,
        tuple(units[shape] + z for shape, z, _ in rows),
        tuple(rhs for _, _, rhs in rows),
        tuple(shape for shape, _, _ in rows),
        sum(kind is CutKind.MIX_STAR for kind in rows.values()),
        tuple(stars),
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
    A column's starred mixing rows (:attr:`CutMatrix.stars`) give their
    maximum by one running-minimum pass of z in descending value order, the
    maximum over every chain headed at the column's peak; every other cut
    reads only its nonzero z terms (:attr:`CutMatrix.terms`).
    """
    y = [0] * family.k
    for j, pairs in enumerate(family.stars):
        least = z_den
        for i, drop in pairs:
            if z[i] < least:
                least = z[i]
            y[j] += drop * (z_den - least)
    total_floor = 0
    for terms, rhs, shape in family.terms:
        need = rhs * z_den
        for i, c in terms:
            need -= c * z[i]
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


# The streams of at most this many samples are kept, the last few read
# (:func:`_kept_draws`); a longer one is drawn afresh as it is read.
_KEPT_SAMPLES = 256


def _draws(n: int, samples: int, seed: int):
    """The sample stream of ``random.Random(seed)``, all over
    ``_BOX_SCALE``: per sample a point z of the unit box (per coordinate a
    denominator d drawn from ``_BOX_DENOMINATORS``, then a numerator in
    0..d), its complement 1 - z (the indicator view) and the
    :func:`~mixcuts.vertices.chain_links` of that complement.  None of it
    depends on the instance."""
    rng = random.Random(seed)
    for _ in range(samples):
        dens = (rng.choice(_BOX_DENOMINATORS) for _ in range(n))
        z = tuple(rng.randint(0, d) * (_BOX_SCALE // d) for d in dens)
        c = tuple(_BOX_SCALE - v for v in z)
        yield z, c, tuple(chain_links(c, _BOX_SCALE))


@lru_cache(maxsize=8)
def _kept_draws(n: int, samples: int, seed: int) -> tuple:
    return tuple(_draws(n, samples, seed))


def _cut_polyhedron_vertices(
    family: CutMatrix, work_bound: int
) -> Optional[list[tuple[tuple[int, ...], int]]]:
    """All vertices of the cut system as ``(numerators, denominator)`` in
    lowest terms with a positive denominator, in ascending order of those
    tuples, or None when the system has more than ``work_bound`` bases.

    The system is every cut plus the box rows 0 <= z <= 1 and y >= 0 in
    dimension d = k + n.  Every vertex solves a basis, d of the system's m
    rows, so C(m, d) bounds the vertex count before any work starts.  The
    vertices come from the double-description method (Motzkin et al. 1953)
    on the homogenised cone {(x, t) >= 0 : A x >= b t}.  It starts from the
    orthant's unit rays and adds the rows z <= t, then the cuts, one at a
    time: the rays a row holds on stay, and every pair of a ray it holds
    strictly on and one it cuts off that is adjacent gives the ray where
    their segment meets the row's hyperplane.  Each ray is kept in integers
    divided by the gcd of its entries, with its zero set (the bounds and
    rows it is tight on) as an int bitmask.  Two rays are adjacent when no
    other ray's zero set holds all of their common zeros (Fukuda and Prodon
    1996).  The final rays with t > 0 are the vertices, read off as
    ``(x, t)``.
    """
    k, n = family.k, family.n
    d = k + n
    if math.comb(len(family.rows) + k + 2 * n, d) > work_bound:
        return None
    # Bits 0..d are the bounds on the coordinates of (y, z, t); each row
    # added takes the next bit.
    rows = [tuple(-(c == k + i) for c in range(d)) + (1,) for i in range(n)]
    rows += [row + (-rhs,) for row, rhs in zip(family.rows, family.rhs)]
    rays = [tuple(int(c == j) for c in range(d + 1)) for j in range(d + 1)]
    zeros = [((1 << d + 1) - 1) ^ (1 << j) for j in range(d + 1)]
    # The rows tight on a 2-face of the cone have rank d - 1.
    least = d - 1
    for bit, row in enumerate(rows, d + 1):
        tight = 1 << bit
        values = [sum(map(mul, row, ray)) for ray in rays]
        minus = [r for r, v in enumerate(values) if v < 0]
        plus = [r for r, v in enumerate(values) if v > 0] if minus else []
        met, met_zeros = [], []
        for p in plus:
            zp, vp, ray_p = zeros[p], values[p], rays[p]
            for q in minus:
                zq = zeros[q]
                common = zp & zq
                if common.bit_count() < least:
                    continue
                # Distinct extreme rays have distinct zero sets, so only p
                # and q have zero sets equal to theirs.
                for other in zeros:
                    if other & common == common and other != zp and other != zq:
                        break
                else:
                    vq = values[q]
                    ray = [vp * b - vq * a for a, b in zip(ray_p, rays[q])]
                    g = math.gcd(*ray)
                    met.append(tuple(v // g for v in ray))
                    met_zeros.append(common | tight)
        kept = [r for r, v in enumerate(values) if v >= 0]
        rays = [rays[r] for r in kept] + met
        zeros = [zeros[r] | (0 if values[r] else tight) for r in kept] + met_zeros
    return sorted((ray[:d], ray[d]) for ray in rays if ray[d])


def _fractions(values: Sequence[int], den: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(v, den) for v in values)


@dataclass(frozen=True)
class SufficiencyReport:
    """The outcome of :func:`check_sufficiency`.

    The closure branch keeps the hull family as the distinct integer rows
    of :func:`family_rows` with their kinds (``family_rows``, over the
    denominator D of ``instance.scaled``); :meth:`to_json` prints each row
    divided by the gcd of its entries, which is the cut's canonical form
    (the cut of the same row in :func:`hull_cut_family`).  The witness
    branch keeps no rows.
    """

    diagnosis: HullDiagnosis
    branch: str  # "closure" or "witness"
    samples_checked: int
    failures: tuple[str, ...]
    witness: Optional[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]
    witness_case: Optional[str]
    witness_assertions: tuple[str, ...] = field(default_factory=tuple)
    witness_plane: Optional[SeparatingHyperplane] = None
    ok: bool = True
    instance: Optional[MixingInstance] = None
    family_rows: tuple[tuple[Row, CutKind], ...] = ()

    def _cut_texts(self) -> list[str]:
        """``str(cut)`` of the cut of every row of ``family_rows``, read
        off the integer rows: the y coefficients are D on the row's column,
        or on every column for a row of shape -1."""
        if not self.family_rows:
            return []
        k, scale = self.instance.k, self.instance.scaled[0]
        texts = []
        for (shape, z, rhs), kind in self.family_rows:
            g = math.gcd(scale, rhs, *z)
            y = [scale // g if shape in (j, -1) else 0 for j in range(k)]
            texts.append(cut_text(y, [v // g for v in z], rhs // g, kind))
        return texts

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
            "cuts": self._cut_texts(),
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
    """Certify the diagnosis empirically; ``samples`` must be at least 1.

    Sufficient instances: sample points of the cut polyhedron (seeded
    projections of random box points, and every vertex when its system has
    at most ``basis_work_bound`` bases, listed by the double description of
    :func:`_cut_polyhedron_vertices`) and confirm each is inside the hull:
    by the chain certificate first, and by the membership LP where the
    chain proves nothing, so a point is counted outside only on the LP's
    verdict.  The box points and their chains depend only on (n, samples,
    seed), so a short stream is drawn and sorted once for the next checks of
    its size (:func:`_kept_draws`) and each sample's certificate is built on
    its chain (:func:`mixcuts.vertices.certify_chain`); a vertex's is
    :func:`mixcuts.vertices.decompose`, and the LP takes the same integer
    target.  Every point stays in integers from its draw or its ray to the
    re-checked certificate; a ``Fraction`` is made only for a failure
    message, and no ``LinearCut`` is made.  Insufficient instances: build
    the explicit witness point for the failing condition and certify that
    it satisfies every mixing and aggregated mixing cut yet lies outside
    the hull, by the membership LP.
    """
    if samples < 1:
        raise ValidationError(f"samples must be at least 1, got {samples}")
    diag = diagnose(inst)
    failures: list[str] = []

    if diag.sufficient:
        vrep = v_representation(inst)
        rows = family_rows(inst)
        family = _cut_matrix(inst, rows)
        k = inst.k

        def inside(target: list[int], den: int, proof) -> bool:
            # The chain certificate, else the membership LP's verdict.
            return proof is not None or membership(vrep, target, den).inside

        # A sample's y is over D * Z, so its z is scaled by D to share it.
        scale = family.denominator
        sample_den = scale * _BOX_SCALE
        draws = _draws if samples > _KEPT_SAMPLES else _kept_draws
        for s, (z, c, links) in enumerate(draws(inst.n, samples, seed)):
            y = project_to_cut_polyhedron(family, z, _BOX_SCALE, s % k)
            target = [scale * v for v in c] + [sample_den] + y
            proof = certify_chain(vrep, target, sample_den, links, scale)
            if not inside(target, sample_den, proof):
                failures.append(
                    f"projected sample {s} outside hull: "
                    f"y={_fractions(y, sample_den)} z={_fractions(z, _BOX_SCALE)}"
                )
        vertices = _cut_polyhedron_vertices(family, basis_work_bound) or ()
        for num, den in vertices:
            y, z = num[:k], num[k:]
            target = [den - v for v in z] + [den] + list(y)
            if not inside(target, den, decompose(vrep, target, den)):
                failures.append(
                    "cut-polyhedron vertex outside hull: "
                    f"{_fractions(y, den)} {_fractions(z, den)}"
                )
        return SufficiencyReport(
            diag, "closure", samples + len(vertices), tuple(failures), None, None,
            tuple(), None, not failures, inst, tuple(rows.items()),
        )

    check_certify_work(inst)  # before the vertex list and the LP
    point, case = witness(inst, diag)
    scaled = integer_point(inst, *point)
    verdict = membership(v_representation(inst), *indicator_target(scaled))
    assertions = certify_witness(inst, point, verdict=verdict, scaled=scaled)
    ok = all(msg.startswith("ok") for msg in assertions)
    return SufficiencyReport(
        diag, "witness", 0, tuple(failures), point, case, tuple(assertions),
        verdict.hyperplane, ok,
    )
