import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import takewhile
from pathlib import Path

import pytest

from mixcuts import (
    ConditionViolated,
    CutKind,
    LinearCut,
    SequenceTheta,
    TwoSidedData,
    VRepresentation,
    diagnose,
    format_rational,
    generalized_cut,
    hull_with_bounds,
    sequences,
    to_mixing,
    v_representation,
)
from mixcuts import twosided
from mixcuts.cli import main
from mixcuts.hull import family_rows
from mixcuts.mixing import mix_star_cuts
from mixcuts.twosided import loads_twosided

from conftest import fixture_path, random_band_data, random_twosided
from helpers import (
    column,
    decompose,
    fraction_aggregated_cut,
    fraction_hull_with_bounds,
    fraction_v_representation,
    fraction_vertices,
    membership_at,
    telescope,
    vertex_list,
)


DEMO = TwoSidedData(
    (8, 6, 13, 1, 4), (3, 4, 2, 1, 1), 13
)


def test_to_mixing_columns():
    inst = to_mixing(DEMO)
    assert inst.k == 2
    assert column(inst, 0) == (8, 6, 13, 1, 4)
    assert column(inst, 1) == (16, 17, 15, 14, 14)
    assert inst.epsilon == 13
    assert diagnose(inst).g_submodular


def test_to_mixing_degenerate_all_zero():
    data = TwoSidedData((0, 0, 0), (0, 0, 0), 5)
    inst = to_mixing(data)
    d = diagnose(inst)
    assert d.i_bar == frozenset({0, 1, 2})
    assert d.sufficient


def test_condition_rejects_bad_rows():
    with pytest.raises(ConditionViolated):
        TwoSidedData((3,), (4,), 10)  # w < v
    with pytest.raises(ConditionViolated):
        TwoSidedData((3,), (-1,), 10)  # v < 0
    with pytest.raises(ConditionViolated):
        TwoSidedData((11,), (1,), 10)  # w > u_a


def test_loads_twosided():
    data = loads_twosided(
        '{"n": 2, "w": ["3", "2"], "v": ["1", "0"], "u_a": "4"}'
    )
    assert data.w == (3, 2) and data.u_a == 4


def test_generalized_cut_substitution_identity():
    rng = random.Random(1009)
    theta = SequenceTheta((1, 0, 2))
    primed, original = generalized_cut(DEMO, theta)
    ua = DEMO.u_a
    for _ in range(1000):
        yc = Fraction(rng.randint(-20, 40), rng.randint(1, 3))
        ya = Fraction(rng.randint(-20, 40), rng.randint(1, 3))
        z = [Fraction(rng.randint(-4, 8), rng.randint(1, 3)) for _ in range(5)]
        lhs_primed = primed.lhs((yc + ya, yc - ya + ua), z) - primed.rhs
        lhs_original = original.lhs((yc, ya), z) - original.rhs
        assert lhs_primed == lhs_original


def test_generalized_cut_singleton():
    for i in range(DEMO.n):
        primed, original = generalized_cut(DEMO, SequenceTheta((i,)))
        assert original.y_coeffs == (2, 0)
        assert original.rhs == DEMO.w[i] + DEMO.v[i]
        # at z_i = 0 the cut reads 2 y_c >= w_i + v_i
        assert original.z_coeffs[i] == DEMO.w[i] + DEMO.v[i]
        assert all(
            original.z_coeffs[t] == 0 for t in range(DEMO.n) if t != i
        )


def test_generalized_equals_aggregated_after_substitution():
    rng = random.Random(88)
    for _ in range(20):
        data = random_twosided(rng, rng.randint(2, 6))
        size = rng.randint(1, min(4, data.n))
        theta = SequenceTheta(rng.sample(range(data.n), size))
        primed, original = generalized_cut(data, theta)
        assert primed.z_coeffs == original.z_coeffs
        assert primed.rhs - original.rhs == data.u_a


def test_generalized_original_form_is_the_telescoped_w_and_v_chains():
    """The original form is 2*y_c plus the sequence's w and v chains, each
    telescoped on its own values, in Fractions.  The chains come from their
    definition (``decompose`` on the transformed instance, whose second
    column v + u_a orders the indices as v does)."""
    rng = random.Random(8080)
    seen = dict.fromkeys(("fractional", "zero scenario", "flat v", "long"), 0)
    for _ in range(320):
        n = rng.randint(1, 8)
        data = random_band_data(rng, n)
        theta = SequenceTheta(rng.sample(range(n), rng.randint(1, min(4, n))))
        primed, original = generalized_cut(data, theta)
        inst = to_mixing(data)
        z, rhs = telescope(decompose(inst, theta), (data.w, data.v), n)
        assert original.y_coeffs == (2, 0)
        assert original.z_coeffs == tuple(z)
        assert original.rhs == rhs
        assert original.kind is primed.kind
        want = fraction_aggregated_cut(inst, theta)
        assert (primed.kind, primed.z_coeffs, primed.rhs) == (want.kind, want.z_coeffs, want.rhs)
        seen["fractional"] += any(x.denominator > 1 for x in data.w + data.v)
        seen["zero scenario"] += any(not data.w[i] and not data.v[i] for i in theta.indices)
        seen["flat v"] += not any(data.v)
        seen["long"] += len(theta) == 4
    assert min(seen.values()) >= 40, seen


def test_hull_with_bounds_band_and_membership():
    report = hull_with_bounds(DEMO)
    ref = fraction_hull_with_bounds(DEMO)
    assert ref.band_ok
    points = ref.extreme_points
    assert report.point_count == len(points)
    ua = DEMO.u_a
    for y, z in points:
        assert -ua <= y[0] - y[1] <= ua
        assert all(zi in (0, 1) for zi in z)
    # Every clipped point and the ray satisfy the report's description.
    for y, z in ref.clipped.points:
        assert all(cut.lhs(y, z) >= cut.rhs for cut in report.cuts), (y, z)
    for y, z in ref.clipped.rays:
        assert all(cut.lhs(y, z) - cut.lhs((0, 0), z) >= 0 for cut in report.cuts)
    # a couple of cut-and-band feasible points are inside the clipped hull
    clipped = vertex_list(*ref.clipped)
    rng = random.Random(3)
    for _ in range(5):
        a, b = rng.sample(range(len(points)), 2)
        (y1, z1), (y2, z2) = points[a], points[b]
        y = tuple((u + v) / 2 for u, v in zip(y1, y2))
        z = tuple(Fraction(u + v, 2) for u, v in zip(z1, z2))
        assert membership_at(clipped, y, z).inside
        # pushing along the shared ray stays inside
        lifted = (y[0] + 3, y[1] + 3)
        assert membership_at(clipped, lifted, z).inside
        # far outside the band is rejected
        assert not membership_at(clipped, (y[0] + 5 * ua, y[1]), z).inside


def test_hull_with_bounds_degenerate_v_zero():
    data = TwoSidedData((5, 3), (0, 0), 6)
    report = hull_with_bounds(data)
    ref = fraction_hull_with_bounds(data)
    assert ref.band_ok and report.point_count == len(ref.extreme_points)
    tight = {tuple(y) for y, z in ref.clipped.points if z == (1, 1)}
    assert (Fraction(6), Fraction(0)) in tight
    assert (Fraction(0), Fraction(6)) in tight


def cut_fields(cuts):
    return [(c.kind, c.y_coeffs, c.z_coeffs, c.rhs) for c in cuts]


BAND_CASES = [(seed, n) for n in range(2, 9) for seed in range(16 if n < 8 else 6)]


@pytest.mark.parametrize("seed,n", BAND_CASES)
def test_band_hull_matches_the_fraction_reference(seed, n):
    data = random_band_data(random.Random(100 * n + seed), n)
    got = hull_with_bounds(data)
    want = fraction_hull_with_bounds(data)
    assert got.point_count == len(want.extreme_points)
    assert cut_fields(got.cuts) == cut_fields(want.cuts)
    assert got.cut_count == len(want.cuts)
    assert want.band_ok
    vrep = fraction_vertices(v_representation(got.instance))
    assert vrep == fraction_v_representation(got.instance)


def rank(vectors) -> int:
    """The rank of a list of Fraction vectors, by exact elimination."""
    rows = [list(v) for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


# Eight non-zero scenarios, drawn the way the benchmark draws two-sided data.
# A cap of 5,000 sequences once kept only the sequences of length 4 or less
# here, and so only 153 of the family's 175 rows.
EIGHT = TwoSidedData((9, 8, 4, 5, 12, 8, 8, 5), (6, 6, 0, 4, 8, 7, 6, 4), 12)


def test_band_hull_keeps_every_facet_of_long_sequences():
    """The band hull's family is the whole hull family, and the rows that
    only sequences longer than 4 give are facets of the clipped hull: valid
    at every clipped point and ray, and tight at k + n affinely independent
    ones of a full-dimensional hull."""
    report = hull_with_bounds(EIGHT)
    inst = to_mixing(EIGHT)
    assert report.family_rows == tuple(family_rows(inst))
    assert len(report.family_rows) == 175

    outside = [i for i in range(EIGHT.n) if EIGHT.w[i] or EIGHT.v[i]]
    assert len(outside) == 8
    short = {cut.canonical_key() for j in range(inst.k) for cut in mix_star_cuts(inst, j)}
    for theta in takewhile(lambda t: len(t.indices) <= 4, sequences(outside)):
        cut = fraction_aggregated_cut(inst, theta)
        if cut.kind is CutKind.AMIX_STAR:
            short.add(cut.canonical_key())
    family = report.cuts[: len(report.family_rows)]
    long_only = [
        cut
        for cut in family
        if cut.kind is not CutKind.LINKING and cut.canonical_key() not in short
    ]
    assert len(long_only) == 175 - 153

    clipped = fraction_hull_with_bounds(EIGHT).clipped
    homogeneous = [(Fraction(1), *y, *z) for y, z in clipped.points] + [
        (Fraction(0), *y, *z) for y, z in clipped.rays
    ]
    dim = inst.k + inst.n
    assert rank(homogeneous) == dim + 1  # the clipped hull is full-dimensional
    for cut in long_only:
        slack = [cut.lhs(y, z) - cut.rhs for y, z in clipped.points]
        along = [cut.lhs(y, z) for y, z in clipped.rays]
        assert min(slack) == 0 and min(along) >= 0, cut
        tight = [h for h, s in zip(homogeneous, slack + along) if s == 0]
        assert rank(tight) == dim, cut


def test_band_cases_cover_the_degenerate_draws():
    draws = [random_band_data(random.Random(100 * n + seed), n) for seed, n in BAND_CASES]
    assert len(draws) >= 100
    assert sum(all(vi == 0 for vi in d.v) for d in draws) >= 10
    assert sum(any(wi == vi == 0 for wi, vi in zip(d.w, d.v)) for d in draws) >= 10
    assert sum(d.u_a.denominator > 1 or any(x.denominator > 1 for x in d.w) for d in draws) >= 10


def run_twosided(path) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["twosided", str(path)])
    return code, out.getvalue().splitlines()


def count_calls(monkeypatch, owner, name) -> list:
    """Count the calls of ``owner.name`` from here on; the list grows by one
    per call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_twosided_command_counts_the_band_hull_without_building_cuts(
    monkeypatch, tmp_path
):
    """``mixcuts twosided`` prints the counts of the description from the
    report's integer data: it constructs no LinearCut and no vertex list,
    and converts the data to a mixing instance once."""
    golden = Path(__file__).resolve().parent / "golden" / "twosided_demo.twosided.txt"
    expected_demo = golden.read_text(encoding="utf-8").splitlines()[1:]
    cases = [(fixture_path("twosided_demo.json"), expected_demo)]
    for n in range(5, 9):
        for seed in range(3):
            data = random_band_data(random.Random(7000 + 10 * n + seed), n)
            path = tmp_path / f"band-{n}-{seed}.json"
            doc = {
                "w": [format_rational(v) for v in data.w],
                "v": [format_rational(v) for v in data.v],
                "u_a": format_rational(data.u_a),
            }
            path.write_text(json.dumps(doc), encoding="utf-8")
            want = fraction_hull_with_bounds(data)
            expected = [
                f"instance: n={n}, k=2, eps={format_rational(data.u_a)}; "
                "g_submodular=yes",
                "band_ok=yes",
                f"extreme_points={len(want.extreme_points)}",
                f"cuts={len(want.cuts)}",
            ]
            cases.append((path, expected))
    for path, expected in cases:
        with monkeypatch.context() as patch:
            built = count_calls(patch, LinearCut, "__init__")
            listed = count_calls(patch, VRepresentation, "__init__")
            converted = count_calls(patch, twosided, "_mixing")
            code, lines = run_twosided(path)
        assert code == 0
        assert lines == expected, path
        assert not built, f"{len(built)} LinearCuts built for {path}"
        assert not listed, f"{len(listed)} vertex lists built for {path}"
        assert len(converted) == 1


def test_band_report_reads_its_cuts_and_points_after_the_fact():
    """The cuts are built on first read, once, and agree with the counts
    the command prints; the point count is the hull's vertex count."""
    report = hull_with_bounds(DEMO)
    assert "cuts" not in report.__dict__
    assert len(report.cuts) == report.cut_count == 61
    assert report.cuts is report.cuts
    assert len(v_representation(report.instance).points) == report.point_count == 33
    # The family part of the cuts is one cut per integer row.
    assert len(report.cuts) - 2 - 2 * DEMO.n == len(report.family_rows)


def test_to_mixing_keeps_the_instance_on_the_data():
    data = TwoSidedData((8, 6, 13, 1, 4), (3, 4, 2, 1, 1), 13)
    assert to_mixing(data) is to_mixing(data)
    assert hull_with_bounds(data).instance is to_mixing(data)
    assert data == DEMO
