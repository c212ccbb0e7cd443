"""Work that depends only on the instance is done once per instance: the
integer view, the diagnosis, and the oracles' column maxima along the
greedy's nested sets."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from mixcuts import (
    MixingInstance,
    diagnose,
    loads_instance,
    max_sum_oracle,
    separate_mixing,
    serialize_instance,
)
from mixcuts import aggregated
from mixcuts.cli import main

from conftest import fixture_path
from helpers import column_oracle, linking_oracle, row_sum

VALUES = (0, Fraction(1, 2), 1, 2, 3)  # few values, so ties are common


def from_scratch(rows, floors, eps, mask):
    best = list(floors)
    for i, row in enumerate(rows):
        if mask >> i & 1:
            best = [max(b, v) for b, v in zip(best, row)]
    return max(eps, sum(best, Fraction(0)))


def mask_walk(rng, n, steps):
    """Masks that mix supersets, subsets, repeats and unrelated masks of the
    previous one, and the greedy's chain of nested sets."""
    full = (1 << n) - 1
    mask = 0
    order = list(range(n))
    rng.shuffle(order)
    for i in order:
        mask |= 1 << i
        yield mask
    for _ in range(steps):
        move = rng.randrange(5)
        if move == 0:
            mask |= rng.randint(0, full)
        elif move == 1:
            mask &= rng.randint(0, full)
        elif move == 2:
            mask = rng.randint(0, full)
        elif move == 3:
            mask = 0
        yield mask


def random_rows(rng, n, k):
    rows = [[Fraction(rng.choice(VALUES)) for _ in range(k)] for _ in range(n)]
    for j in range(k):
        if rng.random() < 0.2:  # an all-zero column
            for row in rows:
                row[j] = Fraction(0)
    return rows


@pytest.mark.parametrize("seed", range(40))
def test_max_sum_oracle_matches_from_scratch(seed):
    rng = random.Random(seed)
    n, k = rng.randint(1, 7), rng.randint(1, 4)
    rows = random_rows(rng, n, k)
    floors = [Fraction(rng.choice(VALUES)) for _ in range(k)]
    eps = Fraction(rng.choice((0, 0, 1, 3, 7)))
    # The raw evaluation and the oracle see every mask, repeats included,
    # supersets of the last mask and others.
    raw = max_sum_oracle(rows, floors, eps)._func
    oracle = max_sum_oracle(rows, floors, eps)
    for mask in mask_walk(rng, n, 60):
        expected = from_scratch(rows, floors, eps, mask)
        assert raw(mask) == expected
        assert oracle.value(mask) == expected


@pytest.mark.parametrize("seed", range(20))
def test_column_and_linking_oracles_match_their_definitions(seed):
    rng = random.Random(100 + seed)
    n, k = rng.randint(1, 7), rng.randint(1, 4)
    rows = random_rows(rng, n, k)
    lower = [Fraction(rng.choice(VALUES)) for _ in range(k)]
    eps = Fraction(rng.choice((0, 2, 5)))
    lifted = MixingInstance(rows, lower, eps)
    reduced = MixingInstance(rows, None, eps)
    masks = list(mask_walk(rng, n, 40))
    for j in range(k):
        col = [(row[j],) for row in rows]
        raw = column_oracle(lifted, j)._func
        for mask in masks:
            assert raw(mask) == from_scratch(col, [lower[j]], 0, mask)
    raw = linking_oracle(reduced)._func
    for mask in masks:
        assert raw(mask) == from_scratch(rows, [0] * k, eps, mask)


def fraction_diagnosis(inst):
    """The diagnosis computed in ``Fraction`` straight from its definition,
    as (i_bar, c1, c2, negligible, l_w_eps, g_submodular) with None for an
    empty pair set."""
    eps, n, k, w = inst.epsilon, inst.n, inst.k, inst.weights
    i_bar = frozenset(i for i in range(n) if row_sum(inst, i) <= eps)
    outside = [i for i in range(n) if i not in i_bar]
    if i_bar:
        peaks = [max(w[i][j] for i in i_bar) for j in range(k)]
        c1 = all(peaks[j] <= w[i][j] for i in outside for j in range(k))
        c2 = sum(peaks, Fraction(0)) <= eps
    else:
        c1 = c2 = True
    if not outside:
        l_w = math.inf
    elif len(outside) == 1:
        l_w = row_sum(inst, outside[0])
    else:
        l_w = min(
            sum((min(w[p][j], w[q][j]) for j in range(k)), Fraction(0))
            for p, q in itertools.combinations(outside, 2)
        )
    sub = c1 and c2 and eps <= l_w
    return i_bar, c1, c2, c1 and c2, None if l_w == math.inf else l_w, sub


def diagnosis_case(rng, case):
    n, k = rng.randint(1, 6), rng.randint(1, 4)
    dens = (1, 2, 3, 5, 7)
    rows = [
        [Fraction(rng.randint(0, 4), rng.choice(dens)) for _ in range(k)]
        for _ in range(n)
    ]
    sums = sorted(sum(row, Fraction(0)) for row in rows)
    if case == 0:
        eps = Fraction(0)
    elif case == 1:  # every row low: no pair, l_w_eps is None
        eps = sums[-1] + Fraction(rng.randint(0, 3), rng.choice(dens))
    elif case == 2:  # exactly one row outside the low set, when sums allow it
        eps = sums[-2] if n > 1 and sums[-2] < sums[-1] else sums[-1] - Fraction(1, 11)
    elif case == 3:  # ties: a repeated row
        rows.append(list(rng.choice(rows)))
        eps = Fraction(rng.randint(0, 6), rng.choice(dens))
    else:
        eps = Fraction(rng.randint(0, 8), rng.choice(dens))
    return MixingInstance(rows, None, max(eps, Fraction(0)))


def test_integer_diagnosis_matches_the_fraction_definition():
    rng = random.Random(2024)
    seen = set()
    for t in range(300):
        inst = diagnosis_case(rng, t % 5)
        d = diagnose(inst)
        got = (d.i_bar, d.c1_ok, d.c2_ok, d.negligible, d.l_w_eps, d.g_submodular)
        assert got == fraction_diagnosis(inst)
        assert d.l_w_eps is None or type(d.l_w_eps) is Fraction
        outside = inst.n - len(d.i_bar)
        seen.add(("outside", min(outside, 2)))
        seen.add(("eps0", inst.epsilon == 0))
        seen.add(("sufficient", d.sufficient))
    assert seen == {
        ("outside", 0), ("outside", 1), ("outside", 2),
        ("eps0", True), ("eps0", False),
        ("sufficient", True), ("sufficient", False),
    }


def test_diagnosis_and_integer_view_are_kept_on_the_instance(example1):
    text = serialize_instance(MixingInstance([[1, "1/2"], ["2/3", 3]], None, "5/4"))
    inst = loads_instance(text)
    before = (hash(inst), repr(inst))
    d = diagnose(inst)
    assert diagnose(inst) is d
    assert inst.scaled is inst.scaled
    assert inst.scaled == (12, ((12, 6), (8, 36)), 15, (0, 0))
    fresh = loads_instance(text)
    assert inst == fresh and fresh == inst
    assert (hash(inst), repr(inst)) == before == (hash(fresh), repr(fresh))
    assert {inst: 1}[fresh] == 1
    assert diagnose(fresh) == d and diagnose(fresh) is not d
    assert diagnose(example1) is diagnose(example1)


@pytest.mark.parametrize("name", ["example1.json", "example2.json"])
def test_verify_runs_the_diagnosis_body_once(monkeypatch, capsys, name):
    calls = []
    body = aggregated._diagnosis

    def counted(inst):
        calls.append(inst)
        return body(inst)

    monkeypatch.setattr(aggregated, "_diagnosis", counted)
    assert main(["verify", fixture_path(name)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_cuts_carry_no_dict_and_share_one_zero(example1):
    y = (Fraction(3), Fraction(2))
    z = (Fraction(1, 2), Fraction(1, 3), 0, 1, 1)
    cuts = separate_mixing(example1, y, z)
    assert cuts
    zeros = {id(c) for cut in cuts for c in cut.y_coeffs + cut.z_coeffs if c == 0}
    assert len(zeros) == 1
    assert not hasattr(cuts[0], "__dict__")
