import random
from fractions import Fraction

import pytest

from mixcuts import (
    ConditionViolated,
    SequenceTheta,
    TwoSidedData,
    diagnose,
    generalized_cut,
    hull_with_bounds,
    membership,
    to_mixing,
    v_representation,
)
from mixcuts.twosided import loads_twosided

from conftest import random_twosided
from helpers import (
    fraction_hull_with_bounds,
    fraction_v_representation,
    fraction_vertices,
)


def banded_membership(report, y, z):
    """Membership in the band-clipped hull (original indicator orientation)."""
    return membership(report.clipped, y, z)


DEMO = TwoSidedData(
    (8, 6, 13, 1, 4), (3, 4, 2, 1, 1), 13
)


def test_to_mixing_columns():
    inst = to_mixing(DEMO)
    assert inst.k == 2
    assert inst.column(0) == (8, 6, 13, 1, 4)
    assert inst.column(1) == (16, 17, 15, 14, 14)
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


def test_hull_with_bounds_band_and_membership():
    report = hull_with_bounds(DEMO)
    assert report.band_ok
    ua = DEMO.u_a
    for y, z in report.extreme_points:
        assert -ua <= y[0] - y[1] <= ua
        assert all(zi in (0, 1) for zi in z)
    # a couple of cut-and-band feasible points are inside the clipped hull
    rng = random.Random(3)
    for _ in range(5):
        a, b = rng.sample(range(len(report.extreme_points)), 2)
        (y1, z1), (y2, z2) = report.extreme_points[a], report.extreme_points[b]
        y = tuple((u + v) / 2 for u, v in zip(y1, y2))
        z = tuple(Fraction(u + v, 2) for u, v in zip(z1, z2))
        assert banded_membership(report, y, z).inside
        # pushing along the shared ray stays inside
        lifted = (y[0] + 3, y[1] + 3)
        assert banded_membership(report, lifted, z).inside
        # far outside the band is rejected
        assert not banded_membership(report, (y[0] + 5 * ua, y[1]), z).inside


def test_hull_with_bounds_degenerate_v_zero():
    data = TwoSidedData((5, 3), (0, 0), 6)
    report = hull_with_bounds(data)
    tight = {
        tuple(y) for y, z in fraction_vertices(report.clipped).points if z == (1, 1)
    }
    assert (Fraction(6), Fraction(0)) in tight
    assert (Fraction(0), Fraction(6)) in tight


def random_band_data(rng: random.Random, n: int) -> TwoSidedData:
    """Two-sided data with fractional entries, ties and all-zero scenarios;
    one draw in four has v = 0 throughout."""
    dens = rng.choice([(1,), (1, 2, 3)])
    flat = rng.random() < 0.25
    v = [
        Fraction(0) if flat else Fraction(rng.randint(0, 6), rng.choice(dens))
        for _ in range(n)
    ]
    w = [vi + Fraction(rng.randint(0, 5), rng.choice(dens)) for vi in v]
    if rng.random() < 0.3:
        i = rng.randrange(n)
        w[i] = v[i] = Fraction(0)
    ua = max(w) + Fraction(rng.randint(0, 4), rng.choice(dens))
    return TwoSidedData(w, v, ua if ua else Fraction(1))


def cut_fields(cuts):
    return [(c.kind, c.y_coeffs, c.z_coeffs, c.rhs) for c in cuts]


BAND_CASES = [(seed, n) for n in range(2, 9) for seed in range(16 if n < 8 else 6)]


@pytest.mark.parametrize("seed,n", BAND_CASES)
def test_band_hull_matches_the_fraction_reference(seed, n):
    data = random_band_data(random.Random(100 * n + seed), n)
    got = hull_with_bounds(data)
    want = fraction_hull_with_bounds(data)
    assert got.extreme_points == want.extreme_points
    clipped = fraction_vertices(got.clipped)
    assert clipped.points == want.clipped.points
    assert clipped.rays == want.clipped.rays
    assert cut_fields(got.cuts) == cut_fields(want.cuts)
    assert got.band_ok and want.band_ok
    vrep = fraction_vertices(v_representation(got.instance))
    assert vrep == fraction_v_representation(got.instance)


def test_band_cases_cover_the_degenerate_draws():
    draws = [random_band_data(random.Random(100 * n + seed), n) for seed, n in BAND_CASES]
    assert len(draws) >= 100
    assert sum(all(vi == 0 for vi in d.v) for d in draws) >= 10
    assert sum(any(wi == vi == 0 for wi, vi in zip(d.w, d.v)) for d in draws) >= 10
    assert sum(d.u_a.denominator > 1 or any(x.denominator > 1 for x in d.w) for d in draws) >= 10
