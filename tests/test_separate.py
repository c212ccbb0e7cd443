"""The separation entry point against its parts.

``separate_mixing`` is compared with mixing separation through polymatroid
separation (``helpers.round_trip_mixing``), and ``separate`` on an instance
with lower bounds with ``separate`` on its reduced instance, on seeded
(instance, point) pairs: nonzero lower bounds, a column whose maximum lies
below its lower bound, ties, all-zero columns and z entries at 0 and 1.
"""

import random
from fractions import Fraction

import pytest

from mixcuts import (
    DimensionMismatch,
    DomainError,
    LinearCut,
    MixingInstance,
    ValidationError,
    reduce_lower_bounds,
    separate,
    separate_mixing,
)

from helpers import column, round_trip_mixing

PAIRS = 240
Z_VALUES = tuple(Fraction(v, 6) for v in (0, 0, 1, 2, 3, 4, 6, 6))


def random_pair(rng: random.Random, trial: int):
    """A seeded instance with lower bounds and a point (y, z) in its space."""
    n, k = rng.randint(2, 5), rng.randint(1, 3)
    if trial % 3 == 0:
        values = [Fraction(rng.choice((0, 3, 3, 7))) for _ in range(n * k)]  # ties
    else:
        values = [Fraction(rng.randint(0, 24), rng.choice((1, 2))) for _ in range(n * k)]
    w = [values[i * k : (i + 1) * k] for i in range(n)]
    if trial % 5 == 0:
        for row in w:
            row[0] = Fraction(0)  # an all-zero column
    lower = [Fraction(rng.randint(0, 6)) for _ in range(k)]
    if trial % 4 == 1:
        j = rng.randrange(k)
        lower[j] = max(row[j] for row in w) + rng.randint(1, 3)  # max below lower
    inst = MixingInstance(w, lower, Fraction(rng.randint(0, 18)))
    z = tuple(rng.choice(Z_VALUES) for _ in range(n))
    y = tuple(
        inst.lower[j] + Fraction(rng.randint(0, 2 * 14), 2) for j in range(k)
    )
    return inst, y, z


def as_tuple(cut: LinearCut):
    return cut.kind, cut.y_coeffs, cut.z_coeffs, cut.rhs


def test_pairs_cover_every_case():
    rng = random.Random(3)
    seen = set()
    for trial in range(PAIRS):
        inst, y, z = random_pair(rng, trial)
        cols = [column(inst, j) for j in range(inst.k)]
        seen |= {"lower" for l in inst.lower if l}
        seen |= {"below" for c, l in zip(cols, inst.lower) if max(c) < l}
        seen |= {"zero-column" for c in cols if not any(c)}
        seen |= {"tie" for c in cols if len(set(c)) < len(c)}
        seen |= {f"z={v}" for v in z if v in (0, 1)}
    assert seen == {"lower", "below", "zero-column", "tie", "z=0", "z=1"}


def test_separate_mixing_matches_round_trip_with_one_cut_each(monkeypatch):
    built = []
    init = LinearCut.__init__
    row_cut = MixingInstance.row_cut

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_row_cut(self, *args, **kwargs):
        cut = row_cut(self, *args, **kwargs)
        built.append(cut)
        return cut

    rng = random.Random(3)
    separated = 0
    for trial in range(PAIRS):
        inst, y, z = random_pair(rng, trial)
        expected = round_trip_mixing(inst, y, z)
        monkeypatch.setattr(LinearCut, "__init__", counting)
        monkeypatch.setattr(MixingInstance, "row_cut", counting_row_cut)
        cuts = separate_mixing(inst, y, z)
        monkeypatch.undo()
        assert [as_tuple(c) for c in cuts] == [as_tuple(c) for c in expected]
        assert list(map(id, built)) == list(map(id, cuts))  # one cut each
        assert all(c.violation(y, z) > 0 for c in cuts)
        separated += bool(cuts)
        built.clear()
    assert 0 < separated < PAIRS


def lift(cut: LinearCut, lower) -> LinearCut:
    """The reduced instance's cut alpha.(y - lower) + beta.z >= gamma in the
    variables of the instance with lower bounds."""
    rhs = cut.rhs + sum((a * l for a, l in zip(cut.y_coeffs, lower)), Fraction(0))
    return LinearCut(cut.y_coeffs, cut.z_coeffs, rhs, cut.kind)


def test_separate_with_lower_bounds_is_the_lifted_reduced_separation():
    rng = random.Random(3)
    kinds = set()
    for trial in range(PAIRS):
        inst, y, z = random_pair(rng, trial)
        reduced, shift = reduce_lower_bounds(inst)
        y_reduced = tuple(v - s for v, s in zip(y, shift))
        got = separate(inst, y, z)
        expected = [(v, lift(c, shift)) for v, c in separate(reduced, y_reduced, z)]
        assert [(v, as_tuple(c)) for v, c in got] == [
            (v, as_tuple(c)) for v, c in expected
        ]
        assert all(v == c.violation(y, z) > 0 for v, c in got)
        kinds |= {c.kind.value for _, c in got}
    assert kinds == {"Mix*", "AMix", "AMix*", "Linking"}


def test_separate_families_select_and_keep_the_linking_precedence(example1):
    y, z = (Fraction(8), Fraction(8)), (Fraction(0),) * 3 + (Fraction(1),) * 2
    both = separate(example1, y, z)
    mix = separate(example1, y, z, families=("mix",))
    amix = separate(example1, y, z, families=("amix",))
    assert both == mix + amix and mix and amix
    low = (Fraction(1), Fraction(1))
    assert [c.kind.value for _, c in separate(example1, low, z, ("amix",))] == [
        "Linking"
    ]


@pytest.mark.parametrize("families", [(), ("mix",), ("amix",), ("mix", "amix")])
def test_separate_checks_the_point_whatever_the_families(example1, families):
    y = (Fraction(8), Fraction(8))
    with pytest.raises(DomainError):
        separate(example1, y, (Fraction(2),) + (Fraction(0),) * 4, families)
    with pytest.raises(DimensionMismatch):
        separate(example1, y, (Fraction(0),) * 4, families)


def test_separate_rejects_unknown_families(example1):
    with pytest.raises(ValidationError):
        separate(example1, (8, 8), (0,) * 5, ("mix", "gomory"))
