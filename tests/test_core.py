import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixcuts import (
    AllZeroCut,
    CutKind,
    LinearCut,
    MixingInstance,
    ParseError,
    SequenceTheta,
    ValidationError,
    loads_instance,
    parse_rational,
    serialize_instance,
)
from mixcuts.core import ONE, ZERO, InvalidSequence, loads_point, DimensionMismatch

from helpers import canonicalize

rationals = st.fractions(max_denominator=50)


def test_parse_rational_forms():
    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(3) == Fraction(3)
    with pytest.raises(ParseError):
        parse_rational("abc")
    with pytest.raises(ParseError):
        parse_rational("1/0")


@given(a=rationals, b=rationals, c=rationals)
def test_rational_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    # exact comparison is a total order
    assert (a < b) + (a == b) + (a > b) == 1


def test_canonicalize_gcd_scaling():
    cut = LinearCut((2, 2), (2, 2, 16, 0, 0), 34, CutKind.AMIX)
    canon = canonicalize(cut)
    assert canon.y_coeffs == (1, 1)
    assert canon.z_coeffs == (1, 1, 8, 0, 0)
    assert canon.rhs == 17
    assert canon.kind is CutKind.AMIX


def test_canonicalize_never_flips_sign():
    # -y >= -1 is a different half-space than y >= 1; scaling is positive only.
    cut = LinearCut((-1,), (0,), -1)
    canon = canonicalize(cut)
    assert canon.y_coeffs == (-1,)
    assert canon.rhs == -1


def test_canonicalize_idempotent_fuzz():
    rng = random.Random(12345)
    for _ in range(1000):
        k = rng.randint(1, 3)
        n = rng.randint(1, 5)
        y = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k)]
        z = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        rhs = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
        if not any(y) and not any(z) and not rhs:
            rhs = Fraction(1)
        cut = LinearCut(y, z, rhs)
        once = canonicalize(cut)
        assert canonicalize(once) == once
        assert once.canonical_key() == cut.canonical_key()


def fraction_canonical_key(cut: LinearCut) -> tuple[int, ...]:
    """The canonical key as first defined: each entry times the lcm of the
    denominators as a ``Fraction``, then divided by the gcd."""
    entries = list(cut.y_coeffs) + list(cut.z_coeffs) + [cut.rhs]
    scale = math.lcm(*(e.denominator for e in entries))
    ints = [int(e * scale) for e in entries]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


def test_canonical_key_equals_the_fraction_definition():
    rng = random.Random(12346)
    seen = {"negative": 0, "zero": 0, "large": 0}
    for _ in range(2000):
        k, n = rng.randint(1, 3), rng.randint(1, 5)

        def entry():
            draw = rng.random()
            if draw < 0.25:
                return Fraction(0)
            if draw < 0.4:  # a large denominator: prime powers and a prime
                den = rng.choice((2**40, 3**25, 10**9 + 7))
                return Fraction(rng.randint(-(10**12), 10**12), den)
            return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

        cut = LinearCut(
            [entry() for _ in range(k)], [entry() for _ in range(n)], entry()
        )
        entries = cut.y_coeffs + cut.z_coeffs + (cut.rhs,)
        if not any(entries):
            continue
        assert cut.canonical_key() == fraction_canonical_key(cut)
        seen["negative"] += any(e < 0 for e in entries)
        seen["zero"] += any(e == 0 for e in entries)
        seen["large"] += max(e.denominator for e in entries) > 10**6
    assert min(seen.values()) >= 300, seen
    with pytest.raises(AllZeroCut):
        LinearCut([0, 0], [0, 0, 0], 0).canonical_key()


def test_zero_cut_rejected():
    with pytest.raises(AllZeroCut):
        canonicalize(LinearCut((0, 0), (0,), 0))


def test_cut_equality_scalar_multiples():
    cut = LinearCut((1, 0), (2, 2, 5, 1, 3), 13, CutKind.MIX_STAR)
    scaled = LinearCut(
        tuple(7 * a for a in cut.y_coeffs),
        tuple(7 * b for b in cut.z_coeffs),
        7 * cut.rhs,
        CutKind.MIX_STAR,
    )
    assert cut == scaled
    assert hash(cut) == hash(scaled)
    third = LinearCut((1, 0), (2, 2, 5, 1, 4), 13)
    assert cut != third
    # equivalence relation on a sample: symmetric + transitive
    frac = LinearCut(
        tuple(Fraction(a, 3) for a in cut.y_coeffs),
        tuple(Fraction(b, 3) for b in cut.z_coeffs),
        Fraction(cut.rhs, 3),
    )
    assert scaled == frac and frac == cut


def test_cut_violation_and_lhs():
    cut = LinearCut((1, 1), (1, 1, 8, 0, 0), 17)
    y = (Fraction(8), Fraction(8))
    z = (Fraction(0),) * 3 + (Fraction(1),) * 2
    assert cut.lhs(y, z) == 16
    assert cut.violation(y, z) == 1
    assert cut.violation(y, z) > 0


def test_cut_keeps_fraction_coefficients_and_shares_zero():
    half = Fraction(1, 2)
    cut = LinearCut((half, Fraction(0)), (0, "3/4", Fraction(0, 5)), half)
    assert cut.y_coeffs[0] is half and cut.rhs is half
    assert cut.y_coeffs[1] is ZERO
    assert cut.z_coeffs[0] is ZERO and cut.z_coeffs[2] is ZERO
    assert cut.z_coeffs[1] == Fraction(3, 4)


@pytest.mark.parametrize("bad", [True, False, 0.5, 2.0, "1/0", "abc", "", None])
def test_cut_rejects_non_rational_coefficients(bad):
    with pytest.raises(ParseError):
        LinearCut((1, bad), (0,), 1)
    with pytest.raises(ParseError):
        LinearCut((1,), (Fraction(1), bad), 1)
    with pytest.raises(ParseError):
        LinearCut((1,), (0,), bad)


def test_load_instance_example1(example1):
    assert example1.n == 5
    assert example1.k == 2
    assert example1.weights[0] == (8, 3)
    assert example1.weights[2] == (13, 2)
    assert example1.epsilon == 7
    assert example1.lower == (0, 0)


def test_load_instance_rejects_empty_and_bad_docs():
    with pytest.raises(ValidationError):
        loads_instance('{"n": 0, "k": 2, "W": []}')
    with pytest.raises(ValidationError):
        loads_instance('{"n": 1, "k": 2, "W": [["1"]]}')
    with pytest.raises(ParseError):
        loads_instance("not json at all")
    with pytest.raises(ValidationError):
        loads_instance(
            '{"n": 1, "k": 1, "W": [["1"]], "epsilon": "-1"}'
        )
    with pytest.raises(ValidationError):
        loads_instance('{"n": 1, "k": 1, "W": [["1"]], "lower": ["-2"]}')
    with pytest.raises(ValidationError):
        loads_instance(
            '{"n": 2, "k": 1, "W": [["1"], ["2"]], "probabilities": ["1/2", "1/3"]}'
        )


def test_instance_roundtrip_exact_thirds():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        w = [
            [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3))) for _ in range(k)]
            for _ in range(n)
        ]
        inst = MixingInstance(w, None, Fraction(rng.randint(0, 9), 3))
        assert loads_instance(serialize_instance(inst)) == inst
    inst = loads_instance('{"n": 1, "k": 1, "W": [["1/3"]]}')
    assert inst.weights[0][0] == Fraction(1, 3)
    assert loads_instance(serialize_instance(inst)) == inst


def test_loads_point_dimensions():
    y, z = loads_point('{"y": ["1"], "z": ["0", "1"]}', 1, 2)
    assert y == (1,) and z == (0, 1)
    with pytest.raises(DimensionMismatch):
        loads_point('{"y": ["1"], "z": ["0"]}', 1, 2)
    with pytest.raises(ParseError):
        loads_point('{"y": ["1"]}', 1, 2)


def test_sequence_theta_validation():
    theta = SequenceTheta((2, 0, 1))
    assert theta.last == 1
    assert len(theta) == 3
    with pytest.raises(InvalidSequence):
        SequenceTheta(())
    with pytest.raises(InvalidSequence):
        SequenceTheta((1, 1))
    with pytest.raises(InvalidSequence):
        SequenceTheta((0, 2)).validate_for(2)
    assert SequenceTheta(i for i in (1, 0)).indices == (1, 0)
    for bad in ([1.9, 0], [True, 0], [0, False], ["2", 0], [Fraction(1), 0], [None]):
        with pytest.raises(InvalidSequence):
            SequenceTheta(bad)


def random_row(rng: random.Random, inst: MixingInstance):
    """A row over the instance's D with zeros, units, repeats and signs."""
    scale = inst.scaled[0]
    pool = [0, 0, scale, -scale, 2 * scale] + [rng.randint(-12, 12) for _ in range(3)]
    y = tuple(rng.choice(pool) for _ in range(inst.k))
    return y, [rng.choice(pool) for _ in range(inst.n)], rng.choice(pool)


def test_row_cut_equals_the_parsed_cut():
    """The assembly point fills a cut from an integer row over D; the
    parser, given the same values, must build the same cut."""
    rng = random.Random(4300)
    checked = 0
    for _ in range(200):
        n, k, den = rng.randint(1, 6), rng.randint(1, 3), rng.choice([1, 2, 6, 12])
        weights = [[Fraction(rng.randint(0, 9), den) for _ in range(k)] for _ in range(n)]
        inst = MixingInstance(weights, None, Fraction(rng.randint(0, 9), den))
        scale = inst.scaled[0]
        objects = {}
        for _ in range(5):
            y, z, rhs = random_row(rng, inst)
            if not any(y) and not any(z) and not rhs:
                continue  # the all-zero cut has no canonical form
            kind = rng.choice(list(CutKind))
            got = inst.row_cut(y, z, rhs, kind)
            want = LinearCut(
                [Fraction(v, scale) for v in y],
                [Fraction(v, scale) for v in z],
                Fraction(rhs, scale),
                kind,
            )
            assert type(got) is LinearCut and not hasattr(got, "__dict__")
            assert type(got.y_coeffs) is tuple and type(got.z_coeffs) is tuple
            assert (got.y_coeffs, got.z_coeffs, got.rhs, got.kind) == (
                want.y_coeffs, want.z_coeffs, want.rhs, want.kind
            )
            assert got == want and str(got) == str(want) and hash(got) == hash(want)
            assert got.canonical_key() == want.canonical_key()
            values = got.y_coeffs + got.z_coeffs + (got.rhs,)
            assert all(type(v) is Fraction for v in values)
            assert all(v is ZERO for v in values if v == 0)
            assert all(v is ONE for v in values if v == 1)
            for v in values:  # equal values of one instance: one object
                assert objects.setdefault(v, v) is v
            assert inst.row_cut(y, z, rhs, kind).y_coeffs is got.y_coeffs
            checked += 1
    assert checked > 900


def test_row_cut_values_are_each_instances_own():
    halves = MixingInstance([[Fraction(1, 2)]], None, 0)
    thirds = MixingInstance([[Fraction(1, 3)]], None, 0)
    assert halves.scaled[0] == 2 and thirds.scaled[0] == 3
    a = halves.row_cut((2,), [1], 3, CutKind.MIX)
    b = thirds.row_cut((3,), [1], 3, CutKind.MIX)
    assert (a.z_coeffs, a.rhs) == ((Fraction(1, 2),), Fraction(3, 2))
    assert (b.z_coeffs, b.rhs) == ((Fraction(1, 3),), ONE)
    assert a.y_coeffs == b.y_coeffs == (ONE,) and a.y_coeffs[0] is ONE
    assert halves.row_cut((2,), [1], 1, CutKind.MIX).z_coeffs[0] is a.z_coeffs[0]
    assert thirds.row_cut((3,), [1], 1, CutKind.MIX).z_coeffs[0] is b.z_coeffs[0]
