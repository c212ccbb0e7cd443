"""The instance constructor reads every entry once as an integer ratio and
builds the ``Fraction`` matrix only when it is read.  It is compared here
with the ``Fraction`` constructor it replaced (``helpers.FractionInstance``):
the same fields, the same integer view, the same equality, hash and repr
before and after the matrix is read, and the same exception class and
message, on well-formed and malformed entries alike.  Also: the dimension
fields of the instance and two-sided documents take integers and integer
strings only."""

import json
import random
from fractions import Fraction

import pytest

from helpers import FractionInstance
from mixcuts import MixingInstance, ParseError, loads_instance
from mixcuts.twosided import loads_twosided
from mixcuts.core import MixcutsError

# Entries of every kind the documents and the library's callers pass:
# ints, Fractions, digit strings the fast path reads, and strings, numbers
# and objects that only ``parse_rational`` reads or refuses.
GOOD = [
    0, 1, 7, 12, Fraction(3, 4), Fraction(0), Fraction(10, 4),
    "0", "3", "007", "4/6", "0/5", "12/4", "3/7", "0.25", "1.5", "2e1",
    " 3", "+3", "1_000", "٣", "3 ",
]
BAD = ["²", "3/4/5", "1/0", "0/0", "", "/2", "3/", "x", True, False, None, 1.5, [1]]
NEGATIVE = [-1, Fraction(-1, 2), "-3", "-1/2", "-0.5"]


def build(cls, args):
    """``cls(*args)``, or the class and message of the library error it
    raised."""
    try:
        return cls(*args)
    except MixcutsError as exc:
        return type(exc), str(exc)


def entry(rng, bad=0.0, negative=0.0):
    draw = rng.random()
    if draw < bad:
        return rng.choice(BAD)
    if draw < bad + negative:
        return rng.choice(NEGATIVE)
    return rng.choice(GOOD)


def draw_args(rng):
    n, k = rng.randint(0, 3), rng.randint(0, 3)
    bad, negative = rng.choice([(0, 0), (0, 0), (0.08, 0), (0, 0.08), (0.05, 0.05)])
    rows = [[entry(rng, bad, negative) for _ in range(k)] for _ in range(n)]
    if rows and rng.random() < 0.15:  # ragged, and maybe a bad entry as well
        rows[rng.randrange(n)].append(entry(rng, bad=0.5))
    if rows and rng.random() < 0.05:
        rows[0] = tuple(rows[0]) if rng.random() < 0.5 else "12"
    lower = None
    if rng.random() < 0.5:
        lower = [entry(rng, bad / 2, 2 * negative) for _ in range(k + (rng.random() < 0.1))]
    elif rng.random() < 0.1:
        lower = rng.choice([5, "0", (0,) * k])
    epsilon = entry(rng, bad / 2, 2 * negative)
    probabilities = None
    if rng.random() < 0.3:
        probabilities = rng.choice(
            [
                [Fraction(1, max(n, 1))] * n,
                [f"1/{max(n, 1)}"] * n,
                ["1/2", "0.5"] + ["0"] * max(n - 2, 0),
                [2, -1] + [0] * max(n - 2, 0),
                ["1/3"] * n,
                [True] * n,
                "1",
            ]
        )
    return rows, lower, epsilon, probabilities


def library_repr(ref: FractionInstance) -> str:
    return repr(ref).replace("FractionInstance(", "MixingInstance(", 1)


def test_constructor_matches_the_fraction_constructor():
    rng = random.Random(3131)
    seen = set()
    built = []
    for _ in range(3000):
        args = draw_args(rng)
        ref = build(FractionInstance, args)
        got = build(MixingInstance, args)
        if isinstance(ref, tuple):
            assert got == ref, args
            seen.add(ref[0].__name__)
            continue
        assert isinstance(got, MixingInstance), (args, got)
        seen.add("built")
        # The Fraction matrix is not built by the constructor, and reading
        # repr, hash or equality gives the same answers before and after.
        assert "weights" not in got.__dict__
        assert got.scaled == ref.scaled
        assert (got.n, got.k) == (len(ref.weights), len(ref.weights[0]))
        assert got.lower_is_zero == all(v == 0 for v in ref.lower)
        before = (repr(got), hash(got))
        fresh = MixingInstance(*args)
        assert hash(fresh) == hash(ref) == before[1]
        assert (got.weights, got.lower, got.epsilon, got.probabilities) == (
            ref.weights, ref.lower, ref.epsilon, ref.probabilities,
        )
        assert all(type(v) is Fraction for row in got.weights for v in row)
        assert all(type(v) is Fraction for v in got.lower + (got.epsilon,))
        assert before == (repr(got), hash(got)) == (library_repr(ref), hash(ref))
        assert repr(MixingInstance(*args)) == before[0]
        assert got == fresh and fresh == got
        built.append((got, ref))
    assert seen == {"built", "ParseError", "ValidationError"}
    # Equality across different inputs agrees with the reference's.
    for (a, ra), (b, rb) in zip(built, built[1:] + built[:1]):
        assert (a == b) == (ra == rb)
        assert (a == b) <= (hash(a) == hash(b))
    same = MixingInstance([["4/6", "007"]], None, "0.25"), MixingInstance([[Fraction(2, 3), 7]], [0, 0], Fraction(1, 4))
    assert same[0] == same[1] and hash(same[0]) == hash(same[1])
    assert repr(same[0]) == repr(same[1])


@pytest.mark.parametrize("text", GOOD + BAD + NEGATIVE, ids=repr)
def test_every_entry_reads_as_the_fraction_constructor_reads_it(text):
    cases = [
        ([[text]],),
        ([[1, text], [text, 2]],),
        ([[1]], None, text),
        ([[1, 2]], [text, 0]),
        ([[1], [2]], None, 0, [text, "1/2"]),
    ]
    for args in cases:
        got, ref = build(MixingInstance, args), build(FractionInstance, args)
        if isinstance(ref, tuple):
            assert got == ref
        else:
            assert (got.scaled, got.weights, repr(got)) == (ref.scaled, ref.weights, library_repr(ref))


def test_long_digit_strings_take_the_parser():
    digits = "9" * 700
    for text in (digits, f"1/{digits}", "7" * 640, "1/" + "3" * 638):
        got, ref = build(MixingInstance, ([[text]],)), build(FractionInstance, ([[text]],))
        assert got == ref if isinstance(ref, tuple) else got.scaled == ref.scaled


def instance_doc(n, k):
    return json.dumps({"n": n, "k": k, "W": [["1", "2"], ["3", "4"]], "epsilon": "1"})


@pytest.mark.parametrize("n, k", [(2.9, 2), (True, 2), (2, 2.0), (2, True), (2.0, 2), (2, None), (2, [2]), ("2.0", 2), (2, "two")])
def test_instance_dimensions_refuse_bools_and_non_integers(n, k):
    with pytest.raises(ParseError):
        loads_instance(instance_doc(n, k))


@pytest.mark.parametrize("n, k", [(2, 2), ("2", 2), (2, "2"), (" 2", "+2")])
def test_instance_dimensions_take_integers_and_integer_strings(n, k):
    assert loads_instance(instance_doc(n, k)).scaled[1] == ((1, 2), (3, 4))


@pytest.mark.parametrize("n", [2.9, 2.0, True, False, "two", [2]])
def test_twosided_dimension_refuses_bools_and_non_integers(n):
    for v in (["1", "0"], ["1"]):  # before the lengths are compared
        doc = {"n": n, "w": ["3", "2"], "v": v, "u_a": "4"}
        with pytest.raises(ParseError):
            loads_twosided(json.dumps(doc))


@pytest.mark.parametrize("n", [2, "2", None])
def test_twosided_dimension_takes_integers_and_integer_strings(n):
    doc = {"w": ["3", "2"], "v": ["1", "0"], "u_a": "4"}
    if n is not None:
        doc["n"] = n
    assert loads_twosided(json.dumps(doc)).n == 2
