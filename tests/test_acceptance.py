"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Everything is exact (no tolerances) and seeded (reproducible).
"""

import itertools
import random
import time
from fractions import Fraction

from mixcuts import (
    CutKind,
    LinearCut,
    MixingInstance,
    SequenceTheta,
    aggregated_cut,
    all_mixing_cuts,
    certify_witness,
    check_sufficiency,
    check_validity,
    diagnose,
    generalized_cut,
    greedy_vertex,
    hull_with_bounds,
    mix_star_cuts,
    quantile_lower_bounds,
    sequences,
    to_mixing,
    v_representation,
    witness,
)

from conftest import (
    random_insufficient_instance,
    random_instance,
    random_sufficient_instance,
    random_twosided,
    random_weights,
)
from helpers import (
    column_oracle,
    fraction_hull_with_bounds,
    is_submodular,
    linking_oracle,
)

PAPER_AMIX_CUTS = [
    LinearCut((1, 1), (1, 1, 8, 0, 0), 17),
    LinearCut((1, 1), (0, 2, 8, 0, 0), 17),
    LinearCut((1, 1), (0, 3, 7, 0, 0), 17),
    LinearCut((1, 1), (2, 3, 5, 0, 0), 17),
    LinearCut((1, 1), (4, 1, 5, 0, 0), 17),
]
PAPER_MIX_FACETS = [
    LinearCut((1, 0), (2, 2, 5, 1, 3), 13),
    LinearCut((0, 1), (0, 2, 0, 1, 1), 4),
]


def test_criterion_1_example1_cut_family(example1):
    start = time.monotonic()
    family = set()
    for j in range(example1.k):
        for cut in mix_star_cuts(example1, j):
            family.add(cut.canonical_key())
    outside = sorted(set(range(5)) - diagnose(example1).i_bar)
    for theta in sequences(outside):
        cut = aggregated_cut(example1, theta)
        if cut.kind is CutKind.AMIX_STAR:
            family.add(cut.canonical_key())
    for cut in PAPER_AMIX_CUTS + PAPER_MIX_FACETS:
        assert cut.canonical_key() in family, f"missing {cut}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(
        f"\nPASS criterion 1: all 7 published inequalities generated "
        f"({len(family)} cuts, {elapsed:.2f}s)"
    )


def test_criterion_2_diagnosis_examples(example1, example2, example3, example4):
    timings = []
    start = time.monotonic()
    d1 = diagnose(example1)
    timings.append(time.monotonic() - start)
    assert d1.i_bar == frozenset({3, 4})
    assert d1.negligible and d1.l_w_eps == 8 and d1.sufficient

    start = time.monotonic()
    d2 = diagnose(example2)
    timings.append(time.monotonic() - start)
    assert not d2.sufficient and d2.negligible and d2.l_w_eps == 8
    assert example2.epsilon == 9 > d2.l_w_eps

    start = time.monotonic()
    d3 = diagnose(example3)
    timings.append(time.monotonic() - start)
    assert not d3.c1_ok and not d3.sufficient

    start = time.monotonic()
    d4 = diagnose(example4)
    timings.append(time.monotonic() - start)
    assert d4.c1_ok and not d4.c2_ok and not d4.sufficient

    assert all(t < 1.0 for t in timings)
    print(
        f"\nPASS criterion 2: diagnoses of the four worked examples exact "
        f"(max {max(timings)*1000:.0f}ms)"
    )


def test_criterion_3_submodularity_cross_check(example1, example2):
    rng = random.Random(1003)
    agree = 0
    for trial in range(500):
        n = rng.randint(2, 8)
        k = rng.randint(1, 3)
        inst = random_instance(rng, n, k, dens=(1, 2, 3))
        verdict = diagnose(inst).g_submodular
        brute = is_submodular(linking_oracle(inst))
        assert verdict == brute, (inst, verdict, brute)
        agree += 1
    assert diagnose(example1).g_submodular
    assert is_submodular(linking_oracle(example1))
    assert not diagnose(example2).g_submodular
    g2 = linking_oracle(example2)
    assert g2.value([1]) + g2.value([2]) == 25
    assert g2.value(0) + g2.value([1, 2]) == 26
    assert not is_submodular(g2)
    print(f"\nPASS criterion 3: diagnosis matches brute force on {agree}+2 instances")


def test_criterion_4_greedy_optimality():
    rng = random.Random(1004)
    checked = 0
    for trial in range(200):
        n = rng.randint(3, 6)
        k = rng.randint(1, 3)
        if trial % 2:
            inst = MixingInstance(random_weights(rng, n, k, lo=0, hi=9), None, 0)
            oracle = column_oracle(inst, rng.randrange(k))
        else:
            inst = random_sufficient_instance(rng, n, k)
            oracle = linking_oracle(inst)
        objective = [
            Fraction(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(n)
        ]
        value = sum(
            p * o for p, o in zip(greedy_vertex(oracle, objective).pi, objective)
        )
        best = None
        for perm in itertools.permutations(range(n)):
            pi = [Fraction(0)] * n
            mask = 0
            prev = oracle.value(0)
            for i in perm:
                mask |= 1 << i
                cur = oracle.value(mask)
                pi[i] = cur - prev
                prev = cur
            cand = sum(p * o for p, o in zip(pi, objective))
            if best is None or cand > best:
                best = cand
        assert value == best
        checked += 1
    print(f"\nPASS criterion 4: greedy equals brute-force max on {checked} oracles")


def test_criterion_5_validity_exhaustive():
    rng = random.Random(1005)
    sizes = [2, 3, 4, 5, 6, 7, 8, 9, 10, 4] * 10
    cuts_checked = 0
    for n in sizes:
        k = rng.randint(1, 3)
        inst = random_instance(rng, n, k, max_eps=25)
        vrep = v_representation(inst)
        cuts = []
        for j in range(k):
            cuts.extend(all_mixing_cuts(inst, j)[:30])
        max_len = 3 if n <= 6 else 2
        thetas = list(itertools.takewhile(lambda t: len(t.indices) <= 2, sequences(range(n))))
        rng.shuffle(thetas)
        for theta in thetas[:25]:
            cuts.append(aggregated_cut(inst, theta))
        for _ in range(15):
            size = rng.randint(1, min(n, max_len + 1))
            theta = SequenceTheta(rng.sample(range(n), size))
            cuts.append(aggregated_cut(inst, theta))
        for cut in cuts:
            assert check_validity(inst, cut, vrep=vrep), (inst, cut)
            cuts_checked += 1
    print(
        f"\nPASS criterion 5: {cuts_checked} generated cuts valid on every "
        f"vertex of {len(sizes)} instances"
    )


def test_criterion_6_witness_suite(example2, example3, example4):
    start = time.monotonic()
    rng = random.Random(1006)
    cases = ["lw"] * 34 + ["c1"] * 33 + ["c2"] * 33
    instances = [example2, example3, example4]
    for case in cases:
        n = rng.randint(3, 6)
        instances.append(random_insufficient_instance(rng, n, rng.randint(2, 3), case))
    outside_count = 0
    for inst in instances:
        point, case = witness(inst)
        messages = certify_witness(inst, point)
        assert all(m.startswith("ok") for m in messages), (inst, case, messages)
        outside_count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 6: {outside_count} witnesses satisfy every cut and "
        f"sit outside the hull ({elapsed:.1f}s)"
    )


def test_criterion_7_sufficiency_closure():
    rng = random.Random(1007)
    total_samples = 0
    for trial in range(100):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        inst = random_sufficient_instance(
            rng, n, k, with_low_rows=(trial % 5 == 0 and n >= 3)
        )
        report = check_sufficiency(
            inst,
            samples=200,
            seed=20240 + trial,
            basis_work_bound=0,
        )
        assert report.branch == "closure"
        assert report.ok, (inst, report.failures[:3])
        assert report.samples_checked >= 200
        total_samples += report.samples_checked
    print(
        f"\nPASS criterion 7: {total_samples} cut-feasible sampled points all "
        f"inside the hull over 100 instances"
    )


def test_criterion_8_twosided_pipeline():
    rng = random.Random(1008)
    for trial in range(100):
        n = rng.randint(2, 8)
        data = random_twosided(rng, n)
        inst = to_mixing(data)
        assert diagnose(inst).g_submodular
        size = rng.randint(1, min(4, n))
        theta = SequenceTheta(rng.sample(range(n), size))
        primed, original = generalized_cut(data, theta)
        assert primed.z_coeffs == original.z_coeffs
        assert primed.rhs - original.rhs == data.u_a
        assert original.y_coeffs == (2, 0) and primed.y_coeffs == (1, 1)
        report = hull_with_bounds(data)
        assert report.band_ok
        ref = fraction_hull_with_bounds(data)
        assert report.point_count == len(ref.extreme_points)
        for y, z in ref.extreme_points:
            assert -data.u_a <= y[0] - y[1] <= data.u_a
    print(
        "\nPASS criterion 8: 100 two-sided instances: submodular linking "
        "oracle, matching cut forms, band holds at every vertex"
    )


def test_criterion_9_quantile_oracle():
    rng = random.Random(1009)
    for trial in range(100):
        n = rng.randint(2, 10)
        k = rng.randint(1, 2)
        w = random_weights(rng, n, k, lo=0, hi=12)
        raw = [rng.randint(1, 6) for _ in range(n)]
        total = sum(raw)
        probs = [Fraction(r, total) for r in raw]
        inst = MixingInstance(w, None, 0, probs)
        risk = Fraction(rng.randint(1, 19), 20)
        fast = quantile_lower_bounds(inst, risk)
        for j in range(k):
            best = None
            for mask in range(1 << n):
                p = sum(probs[i] for i in range(n) if mask & (1 << i))
                if p > risk:
                    continue
                value = max(
                    (w[i][j] for i in range(n) if not mask & (1 << i)),
                    default=Fraction(0),
                )
                if best is None or value < best:
                    best = value
            assert fast[j] == best
    print("\nPASS criterion 9: sort-rule quantiles equal brute force on 100 instances")
