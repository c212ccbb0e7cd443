import collections
import random
import sys
from fractions import Fraction

import pytest

from mixcuts import (
    MixingInstance,
    PreconditionFailed,
    certify_witness,
    diagnose,
    witness,
)
from mixcuts import counterexample
from mixcuts.cli import main
from mixcuts.core import integer_point

from conftest import fixture_path, random_insufficient_instance
from helpers import fraction_witness, row_sum


def low_rows(z):
    """U, the rows a witness puts below 1."""
    return tuple(i for i, v in enumerate(z) if v < 1)


def test_find_minimal_u_example4(example4):
    (_, z), case = witness(example4)
    assert case == "peak-sum"
    assert low_rows(z) == (3, 4)


def test_witness_c2_example4(example4):
    (y, z), _ = witness(example4)
    assert z == (1, 1, 1, Fraction(1, 2), Fraction(1, 2))
    assert y == (3, 4)
    assert sum(y) == example4.epsilon


def test_find_minimal_u_minimality_random():
    """U exceeds the threshold and loses that on any single deletion, on
    planted two-row failures and on random draws whose low-row set has
    rows to spare."""
    rng = random.Random(61)
    insts = [
        random_insufficient_instance(rng, rng.randint(3, 6), 2, "c2")
        for _ in range(15)
    ]
    while len(insts) < 115:
        n, k = rng.randint(3, 7), rng.randint(2, 3)
        weights = [[rng.randint(0, 4) for _ in range(k)] for _ in range(n)]
        inst = MixingInstance(weights, None, rng.randint(1, 6))
        if not diagnose(inst).c2_ok:
            insts.append(inst)
    shrunk = 0
    for inst in insts:
        (_, z), case = witness(inst)
        assert case == "peak-sum"
        u = low_rows(z)
        assert len(u) >= 2
        peaks = lambda sub: sum(
            max(inst.weights[i][j] for i in sub) for j in range(inst.k)
        )
        assert peaks(u) > inst.epsilon
        for drop in u:
            sub = [i for i in u if i != drop]
            if sub:
                assert peaks(sub) <= inst.epsilon
        shrunk += len(u) < len(diagnose(inst).i_bar)
    assert shrunk >= 50


def test_witness_c1_example3(example3):
    (y, z), case = witness(example3)
    assert case == "dominance"
    assert z == (1, 1, Fraction(1, 2), Fraction(1, 2), 1)
    assert y == (Fraction(13, 2), Fraction(9, 2))
    # the total strictly exceeds the linking threshold
    assert sum(y) == Fraction(example3.epsilon + row_sum(example3, 2), 2)
    assert sum(y) > example3.epsilon


def test_witness_lw_example2(example2):
    (y, z), case = witness(example2)
    assert case == "pair-minimum"
    assert z == (1, Fraction(1, 2), Fraction(1, 2), 1, 1)
    assert y == (Fraction(13, 2), 6)
    assert sum(y) == Fraction(row_sum(example2, 1) + row_sum(example2, 2), 2)
    assert sum(y) == Fraction(25, 2)


def test_witness_takes_the_diagnosis_it_is_given(
    monkeypatch, example2, example3, example4
):
    """Given the diagnosis, the builder diagnoses nothing again, in each of
    the three cases."""
    insts = (example4, example3, example2)
    cases = [(inst, diagnose(inst), witness(inst)) for inst in insts]
    assert [want[1] for _, _, want in cases] == [
        "peak-sum", "dominance", "pair-minimum"
    ]
    calls = []
    monkeypatch.setattr(counterexample, "diagnose", calls.append)
    for inst, diag, want in cases:
        assert witness(inst, diag) == want
    assert calls == []


def test_witness_dispatch_priority(example2, example3, example4):
    assert witness(example2)[1] == "pair-minimum"
    assert witness(example3)[1] == "dominance"
    assert witness(example4)[1] == "peak-sum"


def test_witness_requires_insufficiency(example1):
    with pytest.raises(PreconditionFailed):
        witness(example1)


def test_certify_witness_examples(example2, example3, example4):
    for inst in (example2, example3, example4):
        point, _ = witness(inst)
        messages = certify_witness(inst, point)
        assert all(m.startswith("ok") for m in messages), messages


def test_two_vertex_obstruction_arithmetic(example2, example3, example4):
    # each witness's y total falls strictly below the only candidate convex
    # combination of the two binary points it pins down
    (y, z), _ = witness(example4)
    u = low_rows(z)
    peaks = sum(max(example4.weights[i][j] for i in u) for j in range(2))
    lam = Fraction(1, len(u))
    assert sum(y) < lam * example4.epsilon + (1 - lam) * peaks

    (y3, z3), _ = witness(example3)
    assert low_rows(z3) == (2, 3)
    pair_max3 = sum(
        max(example3.weights[2][j], example3.weights[3][j]) for j in range(2)
    )
    assert sum(y3) < Fraction(example3.epsilon + pair_max3, 2)

    (y2, z2), _ = witness(example2)
    assert low_rows(z2) == (1, 2)
    pair_max2 = sum(
        max(example2.weights[1][j], example2.weights[2][j]) for j in range(2)
    )
    assert sum(y2) < Fraction(example2.epsilon + pair_max2, 2)


def test_witnesses_outside_on_random_instances():
    rng = random.Random(407)
    for case in ("lw", "c1", "c2"):
        for _ in range(4):
            inst = random_insufficient_instance(rng, rng.randint(3, 5), 2, case)
            point, got_case = witness(inst)
            messages = certify_witness(inst, point)
            assert all(m.startswith("ok") for m in messages), (case, messages)


WEIGHT_POOL = (0, 0, Fraction(1, 2), 1, 1, 2, 3, Fraction(7, 3))


def test_witness_matches_the_fraction_reference():
    """On seeded draws with zero weights, ties, k = 1 and fractional
    epsilon, every insufficient instance gets the reference's point and
    case; every draw with k = 1 is sufficient (an outside row beats epsilon
    alone, so no condition can fail) and gets no witness."""
    rng = random.Random(24)
    cases = collections.Counter()
    drawn = collections.Counter()
    for _ in range(1500):
        n, k = rng.randint(2, 6), rng.randint(1, 3)
        weights = [[rng.choice(WEIGHT_POOL) for _ in range(k)] for _ in range(n)]
        top = max(1, int(max(sum(row) for row in weights)))
        eps = Fraction(rng.randint(0, 3 * top), rng.choice((1, 2, 3)))
        inst = MixingInstance(weights, None, eps)
        if k == 1:
            drawn["k=1"] += 1
            with pytest.raises(PreconditionFailed):
                witness(inst)
            continue
        if diagnose(inst).sufficient:
            continue
        got = witness(inst)
        assert got == fraction_witness(inst), inst
        cases[got[1]] += 1
        drawn["zero weight"] += any(v == 0 for row in weights for v in row)
        drawn["fractional epsilon"] += eps.denominator > 1
        drawn["tie"] += any(len(set(col)) < n for col in zip(*weights))
    assert sum(cases.values()) >= 300
    assert min(cases[c] for c in ("peak-sum", "dominance", "pair-minimum")) >= 50
    assert min(drawn.values()) >= 50, drawn


def test_verify_scales_the_witness_once(monkeypatch, capsys):
    """A witness ``verify`` checks and scales its point once: the membership
    target, the relaxation rows and both cut sweeps read the same integers."""
    calls = []

    def counting(*args):
        calls.append(args)
        return integer_point(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("mixcuts") and getattr(module, "integer_point", None) is integer_point:
            monkeypatch.setattr(module, "integer_point", counting)
    assert main(["verify", fixture_path("example2.json")]) == 0
    assert '"branch": "witness"' in capsys.readouterr().out
    assert len(calls) == 1
