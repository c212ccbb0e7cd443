"""The diagnosis settles submodularity by a threshold test and computes the
pairwise minimum constant ``l_w_eps`` only when it is read, by a search
that stops once a pair reaches the floor (the sum of the column minima of
the rows outside the low set, below which no pair sum can lie).

On seeded matrices with zeros, ties and 0, 1, 2 or more rows outside the
low set, both are compared with brute force over every pair, and the pair
sums each one takes are counted against what the floor allows: none when
the floor settles the threshold, and up to the first pair below epsilon,
or up to the first pair at the floor, otherwise."""

import itertools
import random
from fractions import Fraction

from mixcuts import MixingInstance, aggregated, diagnose


def brute(inst):
    """(rows outside the low set, their floor, every pair sum in the
    search's order, l_w_eps as an integer over D or None) by definition."""
    _, w, eps, _ = inst.scaled
    rows = [row for row in w if sum(row) > eps]
    floor = sum(map(min, *rows)) if len(rows) > 1 else None
    sums = [sum(min(a, b) for a, b in zip(p, q)) for p, q in itertools.combinations(rows, 2)]
    if not rows:
        least = None
    elif len(rows) == 1:
        least = sum(rows[0])
    else:
        least = min(sums)
    return rows, floor, sums, least


def taken_until(sums, stop) -> int:
    """How many pair sums a search that stops at the first one meeting
    ``stop`` takes."""
    return next((t + 1 for t, total in enumerate(sums) if stop(total)), len(sums))


def draw(rng):
    """A matrix with zeros and repeated rows, and an epsilon that puts 0,
    1, 2 or more rows outside the low set, often at the floor, at the
    least pair sum or one unit of D beside it."""
    n, k = rng.randint(1, 7), rng.randint(1, 4)
    den = rng.choice([1, 1, 1, 2, 3])
    rows = [[Fraction(rng.choice([0, 0, 1, 2, 3, 4, 5, 6]), den) for _ in range(k)] for _ in range(n)]
    for _ in range(rng.randint(0, 2)):
        rows.append(list(rng.choice(rows)))
    rng.shuffle(rows)
    sums = sorted(sum(row) for row in rows)
    pair_sums = [sum(map(min, p, q)) for p, q in itertools.combinations(rows, 2)]
    floor = sum(map(min, *rows)) if len(rows) > 1 else sums[0]
    unit = Fraction(1, den)
    choice = rng.randrange(7)
    if choice == 0:
        eps = floor
    elif choice == 1 and pair_sums:
        eps = min(pair_sums) + rng.choice([-unit, 0, unit])
    elif choice == 2:
        eps = sums[-1]  # nothing outside
    elif choice == 3 and len(sums) > 1:
        eps = sums[-2]  # at most one outside
    elif choice == 4 and pair_sums:
        eps = rng.choice(pair_sums)
    else:
        eps = Fraction(rng.randint(0, 12), den)
    return MixingInstance(rows, None, max(eps, Fraction(0)))


def test_threshold_and_pruned_pair_minimum_match_brute_force(monkeypatch):
    taken = []
    pair_sums = aggregated._pair_sums

    def counted(rows):
        for total in pair_sums(rows):
            taken.append(total)
            yield total

    monkeypatch.setattr(aggregated, "_pair_sums", counted)
    rng = random.Random(31)
    seen = set()
    for _ in range(1500):
        inst = draw(rng)
        scale, _, eps, _ = inst.scaled
        rows, floor, sums, least = brute(inst)
        taken.clear()
        d = diagnose(inst)
        pair_ok = least is None or eps <= least
        assert d.g_submodular == (d.negligible and pair_ok)
        if d.negligible and len(rows) > 1:
            want = 0 if floor >= eps else taken_until(sums, lambda t: t < eps)
            assert len(taken) == want
        else:
            assert taken == []
        taken.clear()
        assert d.l_w_eps == (None if least is None else Fraction(least, scale))
        assert len(taken) == (taken_until(sums, lambda t: t <= floor) if len(rows) > 1 else 0)
        seen.add(("outside", min(len(rows), 3)))
        if d.negligible and len(rows) > 1:
            seen.add(("verdict", pair_ok))
            seen.add(("floor settles", floor >= eps))
            seen.add(("floor is epsilon", floor == eps))
            seen.add(("least is epsilon", least == eps))
            seen.add(("floor reached", least == floor))
            seen.add(("zero floor", floor == 0))
    assert seen == {
        *(("outside", m) for m in range(4)),
        *((name, flag) for flag in (True, False) for name in (
            "verdict", "floor settles", "floor is epsilon", "least is epsilon",
            "floor reached", "zero floor",
        )),
    }


def test_the_pair_minimum_is_computed_only_when_read(example1):
    inst = MixingInstance(example1.weights, None, example1.epsilon)
    d = diagnose(inst)
    assert "l_w_eps" not in d.__dict__
    assert d.l_w_eps == 8 and d.__dict__["l_w_eps"] is d.l_w_eps
