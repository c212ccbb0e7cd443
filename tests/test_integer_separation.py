"""Integer greedy separation against the ``Fraction`` greedy it replaced.

On seeded (instance, point) pairs, ``separate_mixing`` must equal mixing
separation through polymatroid separation (``helpers.round_trip_mixing``),
and ``separate_aggregated`` on the reduced instance must equal the
``Fraction`` greedy branch (``helpers.fraction_greedy_aggregated``: linking
oracle, greedy vertex, ``aggregated_cut`` and its violation), in kind,
coefficients and right-hand side.  The pairs have ties in z, z at 0 and 1,
mixed denominators in y and z, nonzero lower bounds, a column whose maximum
lies below its lower bound, epsilon = 0 and all-zero columns, and each pair
is also moved onto the cuts it yields, where nothing is violated.  Mixing
separation is also compared at the sizes of the separate benchmark's greedy
cells (n up to 64, k up to 5).  The one-pass point parse
(``core.integer_point``) is compared with the check and the scaling it
replaced (``helpers.two_pass_point``), on valid and malformed points.
"""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from mixcuts import (
    LinearCut,
    MixcutsError,
    MixingInstance,
    diagnose,
    reduce_lower_bounds,
    separate_aggregated,
    separate_mixing,
)

from mixcuts.core import integer_point

from helpers import column, fraction_greedy_aggregated, round_trip_mixing, two_pass_point

PAIRS = 400
Z_POOL = (0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4))


def random_pair(rng: random.Random, trial: int, size=None):
    """A seeded instance with lower bounds and a point (y, z) in its space,
    of the given ``(n, k)`` or of a random small size."""
    n, k = size or (rng.randint(2, 6), rng.randint(1, 3))
    if trial % 3 == 0:
        values = [Fraction(rng.choice((0, 3, 3, 7))) for _ in range(n * k)]
    else:
        values = [
            Fraction(rng.randint(0, 24), rng.choice((1, 2, 3))) for _ in range(n * k)
        ]
    w = [values[i * k : (i + 1) * k] for i in range(n)]
    if trial % 5 == 0:
        for row in w:
            row[-1] = Fraction(0)  # an all-zero column
    lower = [Fraction(rng.randint(0, 6), rng.choice((1, 2))) for _ in range(k)]
    if trial % 4 == 1:
        j = rng.randrange(k)
        lower[j] = max(row[j] for row in w) + rng.randint(1, 3)  # max below lower
    eps = Fraction(0) if trial % 3 == 1 else Fraction(rng.randint(0, 12), rng.choice((1, 2)))
    inst = MixingInstance(w, lower, eps)
    pool = rng.sample(Z_POOL, 3)  # three values over n >= 2 entries: ties
    z = tuple(Fraction(rng.choice(pool)) for _ in range(n))
    if trial % 2:
        base = inst.lower  # anywhere above the lower bounds
    else:  # near the big-M relaxation, where the families cut most
        base = [
            max([inst.lower[j]] + [row[j] * (1 - v) for row, v in zip(w, z)])
            for j in range(k)
        ]
    top = 28 if trial % 2 else 2
    y = [b + Fraction(rng.randint(0, top), rng.choice((1, 2, 5))) for b in base]
    y[-1] += max(Fraction(0), sum(inst.lower) + eps - sum(y))  # linking row holds
    return inst, tuple(y), z


def as_tuple(cut):
    return None if cut is None else (cut.kind, cut.y_coeffs, cut.z_coeffs, cut.rhs)


def on_cuts(y, z, cuts: list[LinearCut]):
    """y raised just enough that every cut holds with equality (each cut has
    one y coefficient 1 where it raises y; aggregated cuts raise y_0)."""
    y = list(y)
    for cut in cuts:
        j = next(j for j, a in enumerate(cut.y_coeffs) if a)
        y[j] += cut.violation(y, z)
    return tuple(y)


def test_pairs_cover_every_case():
    rng = random.Random(11)
    seen = set()
    for trial in range(PAIRS):
        inst, y, z = random_pair(rng, trial)
        cols = [column(inst, j) for j in range(inst.k)]
        seen |= {"lower" for l in inst.lower if l}
        seen |= {"below" for c, l in zip(cols, inst.lower) if max(c) < l}
        seen |= {"zero-column" for c in cols if not any(c)}
        seen |= {"eps=0" for _ in [0] if inst.epsilon == 0}
        seen |= {"tie" for _ in [0] if len(set(z)) < len(z)}
        seen |= {f"z={v}" for v in z if v in (0, 1)}
        dens = {v.denominator for v in y + z}
        seen |= {"mixed" for _ in [0] if len(dens) > 1}
    assert seen == {
        "lower", "below", "zero-column", "eps=0", "tie", "z=0", "z=1", "mixed"
    }


def test_separate_mixing_equals_the_fraction_round_trip():
    rng = random.Random(11)
    separated = on_cut = 0
    for trial in range(PAIRS):
        inst, y, z = random_pair(rng, trial)
        expected = round_trip_mixing(inst, y, z)
        got = separate_mixing(inst, y, z)
        assert [as_tuple(c) for c in got] == [as_tuple(c) for c in expected]
        separated += len(expected)
        if expected:
            y_on = on_cuts(y, z, expected)
            assert round_trip_mixing(inst, y_on, z) == []
            assert separate_mixing(inst, y_on, z) == []
            on_cut += 1
    assert separated >= PAIRS // 2 and on_cut >= 100


@pytest.mark.parametrize("n, k", [(n, k) for n in (16, 32, 64) for k in (2, 3, 5)])
def test_separate_mixing_equals_the_fraction_round_trip_at_workload_sizes(n, k):
    # The sizes of the greedy cells of the separate benchmark; z takes three
    # values, so the slack ties throughout.
    rng = random.Random(1000 * n + k)
    separated = 0
    for trial in range(12):
        inst, y, z = random_pair(rng, trial, (n, k))
        expected = round_trip_mixing(inst, y, z)
        got = separate_mixing(inst, y, z)
        assert [as_tuple(c) for c in got] == [as_tuple(c) for c in expected]
        separated += len(expected)
    assert separated >= 6


def test_separate_aggregated_equals_the_fraction_greedy_branch():
    rng = random.Random(11)
    compared = separated = 0
    for trial in range(PAIRS):
        inst, y, z = random_pair(rng, trial)
        reduced, shift = reduce_lower_bounds(inst)
        if not diagnose(reduced).g_submodular:
            continue
        y = tuple(v - s for v, s in zip(y, shift))
        expected = fraction_greedy_aggregated(reduced, y, z)
        assert as_tuple(separate_aggregated(reduced, y, z)) == as_tuple(expected)
        compared += 1
        if expected is not None:
            y_on = on_cuts(y, z, [expected])
            assert fraction_greedy_aggregated(reduced, y_on, z) is None
            assert separate_aggregated(reduced, y_on, z) is None
            separated += 1
    assert compared >= 300 and separated >= 100


@pytest.mark.parametrize(
    "z, pi",
    [
        # Tied z: the lower index comes first and takes the gain over the
        # floor 1; the other index adds what is left above it.
        ((Fraction(1, 2), Fraction(1, 2)), (2, 2)),
        ((Fraction(1, 3), Fraction(1, 2)), (2, 2)),
        ((Fraction(1, 2), Fraction(1, 3)), (0, 4)),
    ],
)
def test_mixing_tie_break_by_ascending_index(z, pi):
    inst = MixingInstance([[3], [5]], [1], 0)
    (cut,) = separate_mixing(inst, (Fraction(1),), z)
    assert cut.z_coeffs == pi and cut.rhs == 1 + sum(pi)


def as_entry(rng: random.Random, value: Fraction):
    """One point entry written as a Fraction, an int when it is whole, an
    'a/b' string, or a decimal string when it has one."""
    forms = [value, f"{value.numerator}/{value.denominator}"]
    if value.denominator == 1:
        forms.append(value.numerator)
    if value.denominator in (1, 2, 4, 5):
        forms.append(str(Decimal(value.numerator) / value.denominator))
    return rng.choice(forms)


def test_point_pass_equals_the_check_then_the_scaling():
    rng = random.Random(31)
    seen = {"Fraction": 0, "int": 0, "a/b": 0, "decimal": 0, "tuple": 0, "list": 0}
    for trial in range(PAIRS):
        inst, y, z = random_pair(rng, trial)
        y = [as_entry(rng, v) for v in y]
        z = [as_entry(rng, v) for v in z]
        for v in y + z:
            if isinstance(v, str):
                seen["a/b" if "/" in v else "decimal"] += 1
            else:
                seen[type(v).__name__] += 1
        wrap = tuple if trial % 2 else list
        seen[wrap.__name__] += 1
        y, z = wrap(y), wrap(z)
        assert integer_point(inst, y, z) == two_pass_point(inst, y, z)
    assert min(seen.values()) >= 50, seen


def malformed_points(inst: MixingInstance):
    """Points of the instance's space with one or two faults each, the
    faults in every order of precedence: entries that do not parse, a y or
    z that is not a list, wrong lengths, and z outside the unit box."""
    y, z = [Fraction(1)] * inst.k, [Fraction(1, 2)] * inst.n
    bad_entries = (True, False, None, 0.5, "1/0", "abc", [1])
    for bad in bad_entries:
        yield [bad] + y[1:], z
        yield y, z[:-1] + [bad]
        yield [bad] + y[1:], [Fraction(3)] + z[1:]  # y fails before z's box
        yield y[:-1] + [bad], z + [bad]  # y fails before z
        yield y + [1], [bad] * inst.n  # z fails before the lengths
    for not_list in (None, 3, "1 2", {0: 1}, iter(y)):
        yield not_list, z
        yield y, not_list
        yield not_list, not_list
    yield y + [0], z
    yield y[:-1], z
    yield y, z + [0]
    yield y + [0], [2] * inst.n  # the lengths fail before the box
    for out in (Fraction(-1, 3), -1, Fraction(4, 3), "3/2", "1.5", 2):
        yield y, z[:-1] + [out]


@pytest.mark.parametrize("n, k", [(1, 1), (3, 2), (5, 3)])
def test_point_pass_raises_what_the_check_raises(n, k):
    inst = MixingInstance([[1] * k] * n, None, 0)
    raised = set()
    for y, z in malformed_points(inst):
        with pytest.raises(MixcutsError) as want:
            two_pass_point(inst, y, z)
        with pytest.raises(MixcutsError) as got:
            integer_point(inst, y, z)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
        raised.add(type(got.value).__name__)
    assert raised == {"ParseError", "DimensionMismatch", "DomainError"}
