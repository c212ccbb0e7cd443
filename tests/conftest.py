import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from mixcuts import MixingInstance, TwoSidedData, diagnose, load_instance

from helpers import row_sum

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Property tests draw the same examples on every run and have no deadline,
# so a slow or loaded machine cannot fail them.
settings.register_profile("mixcuts", derandomize=True, deadline=None)
settings.load_profile("mixcuts")


@pytest.fixture(scope="session")
def example1():
    return load_instance(str(FIXTURES / "example1.json"))


@pytest.fixture(scope="session")
def example2():
    return load_instance(str(FIXTURES / "example2.json"))


@pytest.fixture(scope="session")
def example3():
    return load_instance(str(FIXTURES / "example3.json"))


@pytest.fixture(scope="session")
def example4():
    return load_instance(str(FIXTURES / "example4.json"))


@pytest.fixture(scope="session")
def example1_probs():
    return load_instance(str(FIXTURES / "example1_probs.json"))


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


# ---------------------------------------------------------------------------
# Random instance generators (all deterministic given the caller's rng).
# ---------------------------------------------------------------------------


def random_weights(rng: random.Random, n: int, k: int, lo=1, hi=12, dens=(1,)):
    return [
        [Fraction(rng.randint(lo, hi), rng.choice(dens)) for _ in range(k)]
        for _ in range(n)
    ]


def random_instance(rng: random.Random, n: int, k: int, dens=(1,), max_eps=20):
    w = random_weights(rng, n, k, lo=0, hi=12, dens=dens)
    eps = Fraction(rng.randint(0, max_eps), rng.choice(dens))
    return MixingInstance(w, None, eps)


def pair_minimum(inst: MixingInstance) -> Fraction:
    best = None
    for p in range(inst.n):
        for q in range(p + 1, inst.n):
            total = sum(
                (
                    min(inst.weights[p][j], inst.weights[q][j])
                    for j in range(inst.k)
                ),
                Fraction(0),
            )
            if best is None or total < best:
                best = total
    return best if best is not None else row_sum(inst, 0)


def random_sufficient_instance(
    rng: random.Random, n: int, k: int, with_low_rows=False
) -> MixingInstance:
    """Instance whose cut families describe the hull, by construction + audit.

    With ``with_low_rows`` the last row is dominated columnwise and epsilon is
    placed at or above its sum, so the low-row set is genuinely nonempty.
    """
    while True:
        if with_low_rows and n >= 3:
            base = random_weights(rng, n - 1, k, lo=3, hi=12)
            mins = [min(row[j] for row in base) for j in range(k)]
            crafted = [m * Fraction(1, 3) for m in mins]
            low_sum = sum(crafted, Fraction(0))
            outside = MixingInstance(base, None, 0)
            rowmin = min(row_sum(outside, i) for i in range(n - 1))
            pm = pair_minimum(outside) if n - 1 >= 2 else rowmin
            hi = min(pm, rowmin)
            if not low_sum < hi:
                continue
            eps = low_sum + (hi - low_sum) * Fraction(rng.randint(0, 3), 4)
            if eps >= rowmin:
                continue
            inst = MixingInstance(base + [crafted], None, eps)
            d = diagnose(inst)
            if d.sufficient and d.i_bar:
                return inst
            continue
        w = random_weights(rng, n, k, lo=1, hi=12)
        inst0 = MixingInstance(w, None, 0)
        rowmin = min(row_sum(inst0, i) for i in range(n))
        pm = pair_minimum(inst0) if n >= 2 else rowmin
        cap = min(pm, rowmin)
        eps = cap * Fraction(rng.randint(0, 4), 4)
        if eps >= rowmin:
            eps = max(Fraction(0), rowmin - Fraction(1, 2))
        inst = MixingInstance(w, None, eps)
        if diagnose(inst).sufficient:
            return inst


def random_insufficient_instance(
    rng: random.Random, n: int, k: int, case: str
) -> MixingInstance:
    """Instance failing one named sufficiency condition (audited)."""
    assert case in ("lw", "c1", "c2")
    while True:
        if case == "lw":
            w = random_weights(rng, n, k, lo=1, hi=12)
            inst0 = MixingInstance(w, None, 0)
            rowmin = min(row_sum(inst0, i) for i in range(n))
            pm = pair_minimum(inst0)
            if not pm < rowmin:
                continue
            eps = pm + (rowmin - pm) * Fraction(1, 2)
            inst = MixingInstance(w, None, eps)
            d = diagnose(inst)
            if not d.sufficient and d.negligible:
                return inst
        elif case == "c1":
            # strictly positive entries: the witness construction's tightness
            # argument needs the coupling minima to be nonzero
            if k < 2:
                raise ValueError("dominance failures need k >= 2")
            w = random_weights(rng, n - 1, k, lo=3, hi=12)
            inst0 = MixingInstance(w, None, 0)
            eps = min(row_sum(inst0, i) for i in range(n - 1)) - Fraction(1)
            col = rng.randrange(k)
            peak = min(row[col] for row in w) + Fraction(1)
            low = [Fraction(1)] * k
            low[col] = peak
            if sum(low) > eps:
                continue
            inst = MixingInstance(w + [low], None, eps)
            d = diagnose(inst)
            if not d.c1_ok and d.c2_ok:
                return inst
        else:
            if k < 2:
                raise ValueError("peak-sum failures need k >= 2")
            w = random_weights(rng, n - 2, k, lo=5, hi=12)
            a = Fraction(rng.randint(3, 5))
            b = Fraction(rng.randint(3, 5))
            row1 = [Fraction(1)] * k
            row2 = [Fraction(1)] * k
            row1[0] = a
            row2[1] = b
            eps = max(sum(row1), sum(row2)) + Fraction(rng.randint(0, 1))
            if sum(row1[j] if row1[j] > row2[j] else row2[j] for j in range(k)) <= eps:
                continue
            inst0 = MixingInstance(w, None, 0)
            if min(row_sum(inst0, i) for i in range(n - 2)) <= eps:
                continue
            inst = MixingInstance(w + [row1, row2], None, eps)
            d = diagnose(inst)
            if not d.c2_ok:
                return inst


def random_twosided(rng: random.Random, n: int):
    from mixcuts import TwoSidedData

    v = [Fraction(rng.randint(0, 8)) for _ in range(n)]
    w = [vi + Fraction(rng.randint(0, 6)) for vi in v]
    ua = max(w) + Fraction(rng.randint(0, 5))
    if ua == 0:
        ua = Fraction(1)
    return TwoSidedData(w, v, ua)


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
