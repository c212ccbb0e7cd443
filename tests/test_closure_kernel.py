"""The closure check's sample kernel against the per-sample path it
replaced.  The draws of a stream depend only on (n, samples, seed) and are
kept; each sample's certificate is built on its kept chain; a column's
starred mixing rows are read by one running-minimum pass.  Every
certificate equals the one ``decompose`` builds on a fresh draw,
``check_sufficiency`` equals the per-sample reference field by field, the
kept streams are bounded, and planted faults in a chain, the vertex list or
a support are caught."""

import dataclasses
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mixcuts import (
    InternalInvariant,
    MixingInstance,
    check_sufficiency,
    decompose,
    diagnose,
    reduce_lower_bounds,
    v_representation,
)
from mixcuts import hull, vertices
from mixcuts.exactlp import verify_feasible
from mixcuts.hull import (
    _BOX_SCALE,
    _KEPT_SAMPLES,
    CutMatrix,
    _cut_matrix,
    _draws,
    _kept_draws,
    family_rows,
    project_to_cut_polyhedron,
)
from mixcuts.vertices import VRepresentation, certify_chain

from conftest import random_insufficient_instance, random_sufficient_instance
from helpers import fraction_box_point, per_sample_check_sufficiency

DENS = (1, 2, 3, 4)
SAMPLES = 10


def kernel_instance(rng: random.Random, index: int) -> MixingInstance:
    """A reduced instance with n <= 6 and k <= 3: by ``index``, entries
    drawn from a pool of three values (ties), an all-zero column, a low row
    (from ``random_sufficient_instance``), or lower bounds lifted (some
    entries below them) and then reduced; zero entries occur throughout."""
    n, k = rng.randint(1, 6), rng.randint(1, 3)
    if index % 7 == 3:
        return random_sufficient_instance(rng, max(n, 3), k, with_low_rows=True)
    pool = [Fraction(rng.randint(0, 12), rng.choice(DENS)) for _ in range(3)]

    def entry():
        if index % 3 == 1:
            return rng.choice(pool)
        return Fraction(rng.randint(0, 12), rng.choice(DENS))

    rows = [[entry() for _ in range(k)] for _ in range(n)]
    if index % 5 == 2:
        zero = rng.randrange(k)
        for row in rows:
            row[zero] = Fraction(0)
    lower = None
    if index % 4 == 3:
        lower = [Fraction(rng.randint(1, 3), rng.choice(DENS)) for _ in range(k)]
        rows = [
            [
                low * Fraction(rng.randint(0, 2), 3) if rng.random() < 0.25 else w + low
                for w, low in zip(row, lower)
            ]
            for row in rows
        ]
    eps = Fraction(0)
    if index % 6:
        eps = min(sum(row) for row in rows) * Fraction(rng.randint(0, 8), 8)
    reduced, _ = reduce_lower_bounds(MixingInstance(rows, lower, eps))
    return reduced


def sufficient_instances(count: int, seed: int = 16001):
    rng = random.Random(seed)
    found = index = 0
    while found < count:
        inst = kernel_instance(rng, index)
        index += 1
        if diagnose(inst).sufficient:
            found += 1
            yield inst


def rows_only(family: CutMatrix) -> CutMatrix:
    """The same matrix with its starred rows read as rows."""
    return CutMatrix(
        family.k, family.n, family.denominator, family.rows, family.rhs, family.shapes
    )


def mismatches(inst, seed, draws=None, vrep=None) -> int:
    """The samples of the stream (n, SAMPLES, seed) whose certificate on
    the kept chain (``draws``, the kept stream unless given; ``vrep``, the
    instance's vertex list unless given) differs from ``decompose`` at the
    sample drawn afresh from ``random.Random(seed)``; a projection that
    differs from the one reading every row also counts."""
    truth = v_representation(inst)
    vrep = vrep or truth
    family = _cut_matrix(inst, family_rows(inst))
    every_row = rows_only(family)
    scale = family.denominator
    den = scale * _BOX_SCALE
    fresh = random.Random(seed)
    draws = draws or _kept_draws(inst.n, SAMPLES, seed)
    count = 0
    for s, (z, c, links) in enumerate(draws):
        want_z = [int(v * _BOX_SCALE) for v in fraction_box_point(fresh, inst.n)]
        y = project_to_cut_polyhedron(family, z, _BOX_SCALE, s % inst.k)
        want_y = project_to_cut_polyhedron(every_row, want_z, _BOX_SCALE, s % inst.k)
        target = [den - scale * v for v in want_z] + [den] + want_y
        want = decompose(truth, target, den)
        assert want is not None  # the chain proves every closure sample
        got = certify_chain(vrep, [scale * v for v in c] + [den] + y, den, links, scale)
        count += (list(z), y, got) != (want_z, want_y, want)
    return count


def test_kept_chain_certificates_equal_decompose_on_fresh_draws():
    certified = 0
    for seed, inst in enumerate(sufficient_instances(300)):
        assert mismatches(inst, seed) == 0
        certified += 1
    assert certified == 300


def test_check_sufficiency_equals_the_per_sample_reference(monkeypatch):
    """Field by field, on sufficient instances (with their basis vertices)
    and on insufficient ones passed off as sufficient, whose failures are
    compared message by message."""
    for seed, inst in enumerate(sufficient_instances(60, seed=16002)):
        got = check_sufficiency(inst, samples=12, seed=seed)
        want = per_sample_check_sufficiency(inst, samples=12, seed=seed)
        for f in dataclasses.fields(got):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
        assert got.to_json() == want.to_json()
    rng = random.Random(16003)
    failed = 0
    for case in ("lw", "c1", "c2"):
        for n, k in ((3, 2), (4, 2), (4, 3)):
            inst = random_insufficient_instance(rng, n, k, case)
            claimed = SimpleNamespace(sufficient=True, i_bar=diagnose(inst).i_bar)
            monkeypatch.setattr(hull, "diagnose", lambda _: claimed)
            got = check_sufficiency(inst, samples=20, seed=n, basis_work_bound=10**6)
            want = per_sample_check_sufficiency(inst, 20, n, basis_work_bound=10**6)
            monkeypatch.undo()
            for f in dataclasses.fields(got):
                assert getattr(got, f.name) == getattr(want, f.name), f.name
            failed += len(got.failures)
    assert failed >= 10


def reference_links(c, top):
    """The chain ``decompose`` walks: indices by c descending, ties by
    index, with each nonzero level drop and the mask of the indices before
    it."""
    order = sorted(range(len(c)), key=lambda i: (-c[i], i))
    levels = [top] + [c[i] for i in order] + [0]
    links = []
    for t in range(len(c) + 1):
        if levels[t] > levels[t + 1]:
            links.append((levels[t] - levels[t + 1], sum(1 << i for i in order[:t])))
    return tuple(links)


@pytest.mark.parametrize(
    "n, samples, seed",
    [(1, 1, 0), (3, 50, 20240), (5, 50, 20240), (6, _KEPT_SAMPLES, 7), (4, 17, 123)],
)
def test_a_kept_stream_equals_a_fresh_draw(n, samples, seed):
    kept = _kept_draws(n, samples, seed)
    assert _kept_draws(n, samples, seed) is kept
    assert kept == tuple(_draws(n, samples, seed))
    fresh = random.Random(seed)
    assert len(kept) == samples
    for z, c, links in kept:
        assert z == tuple(int(v * _BOX_SCALE) for v in fraction_box_point(fresh, n))
        assert c == tuple(_BOX_SCALE - v for v in z)
        assert links == reference_links(c, _BOX_SCALE)


def test_kept_streams_are_few_and_short(example1):
    _kept_draws.cache_clear()
    long = check_sufficiency(example1, samples=_KEPT_SAMPLES + 1)
    assert _kept_draws.cache_info().currsize == 0
    want = per_sample_check_sufficiency(example1, samples=_KEPT_SAMPLES + 1)
    assert long == want
    check_sufficiency(example1, samples=_KEPT_SAMPLES)
    assert _kept_draws.cache_info().currsize == 1
    for seed in range(20):
        check_sufficiency(example1, samples=3, seed=seed)
    info = _kept_draws.cache_info()
    assert info.maxsize is not None and info.currsize == info.maxsize <= 8


def planted(inst, seed, plant):
    """The kept stream of (n, SAMPLES, seed) with ``plant`` applied to the
    links of its first sample."""
    draws = list(_kept_draws(inst.n, SAMPLES, seed))
    z, c, links = draws[0]
    draws[0] = (z, c, plant(list(links)))
    return draws


def caught(check) -> bool:
    try:
        return check() > 0
    except InternalInvariant:
        return True


def weight_off_by_one(links):
    weight, mask = links[0]
    return tuple([(weight + 1, mask)] + links[1:])


def wrong_mask(links):
    weight, mask = links[-1]
    return tuple(links[:-1] + [(weight, mask ^ 1)])


@pytest.mark.parametrize("plant", [weight_off_by_one, wrong_mask])
def test_a_planted_chain_fault_is_caught(plant):
    for seed, inst in enumerate(sufficient_instances(40, seed=16004)):
        assert mismatches(inst, seed) == 0
        assert caught(lambda: mismatches(inst, seed, draws=planted(inst, seed, plant)))


def test_a_moved_point_of_the_vertex_list_is_caught():
    moved = 0
    for seed, inst in enumerate(sufficient_instances(40, seed=16005)):
        vrep = v_representation(inst)
        z, c, links = _kept_draws(inst.n, SAMPLES, seed)[0]
        family = _cut_matrix(inst, family_rows(inst))
        scale = family.denominator
        den = scale * _BOX_SCALE
        y = project_to_cut_polyhedron(family, z, _BOX_SCALE, 0)
        target = [scale * v for v in c] + [den] + y
        support, _ = certify_chain(vrep, target, den, links, scale)
        point = next(j for j, _ in support if j < len(vrep.points))
        points = list(vrep.points)
        py, pz = points[point]
        points[point] = ((py[0] + 1,) + py[1:], pz)
        shifted = VRepresentation(vrep.den, tuple(points), vrep.rays, vrep.masks)
        assert caught(lambda: mismatches(inst, seed, vrep=shifted))
        moved += 1
    assert moved == 40


def test_a_support_entry_plus_one_is_caught(monkeypatch, example1):
    def tampered(columns, rhs, support, den):
        (j, v), *rest = support
        return verify_feasible(columns, rhs, [(j, v + 1)] + rest, den)

    monkeypatch.setattr(vertices, "verify_feasible", tampered)
    for inst in (example1, *sufficient_instances(10, seed=16006)):
        with pytest.raises(InternalInvariant):
            check_sufficiency(inst, samples=5)
