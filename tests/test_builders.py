"""One integer builder per cut family against the ``Fraction`` chain loop.

The library builds mixing cuts with one integer column builder and
aggregated cuts from the prepend step's chains and L(Theta), and
deduplicates both families on their coefficients.  The reference in
``helpers`` builds every cut in Fractions from the definitions and
deduplicates on canonical forms.  On seeded instances with nonzero lower
bounds, tied values, all-zero columns and fractional weights, both give the
same cuts, kinds included, in the same order.
"""

import random
from fractions import Fraction

import pytest

from mixcuts import (
    LinearCut,
    MixingInstance,
    aggregated_cut,
    all_mixing_cuts,
    hull_cut_family,
    mix_star_cuts,
    reduce_lower_bounds,
    sequences,
)

from helpers import fraction_aggregated_cut, fraction_chain_cuts, fraction_hull_cut_family


def random_case(rng: random.Random) -> MixingInstance:
    n, k = rng.randint(1, 5), rng.randint(1, 3)
    dens = rng.choice([(1,), (1, 2, 3)])

    def value(top):
        return Fraction(rng.randint(0, top), rng.choice(dens))

    weights = [[value(4) for _ in range(k)] for _ in range(n)]
    if rng.random() < 0.25:
        zero = rng.randrange(k)
        for row in weights:
            row[zero] = Fraction(0)
    lower = None if rng.random() < 0.25 else [value(3) for _ in range(k)]
    return MixingInstance(weights, lower, value(8))


def fields(cuts):
    return [(c.kind, c.y_coeffs, c.z_coeffs, c.rhs) for c in cuts]


@pytest.mark.parametrize("seed", range(30))
def test_builders_match_the_fraction_chain_loop(seed):
    rng = random.Random(5000 + seed)
    inst = random_case(rng)
    for j in range(inst.k):
        want = fraction_chain_cuts(inst, j, star_only=True)
        assert fields(mix_star_cuts(inst, j)) == fields(want)
        got = fields(all_mixing_cuts(inst, j))
        assert got == fields(fraction_chain_cuts(inst, j, False))
        # The first m chains, deduplicated, start the deduplicated family.
        for max_chains in (1, 2, 5):
            want = fields(fraction_chain_cuts(inst, j, False, max_chains))
            assert got[: len(want)] == want

    reduced, _ = reduce_lower_bounds(inst)
    want = fraction_hull_cut_family(reduced)
    assert fields(hull_cut_family(reduced)) == fields(want)
    for theta in sequences(range(reduced.n)):
        want = fraction_aggregated_cut(reduced, theta)
        assert fields([aggregated_cut(reduced, theta)]) == fields([want])


def family_case(rng: random.Random) -> MixingInstance:
    """A reduced instance with n <= 6: small values (many ties), sometimes
    an all-zero column or fractional weights, epsilon from 0 to 100."""
    n, k = rng.randint(1, 6), rng.randint(1, 3)
    dens = rng.choice([(1,), (1, 2, 3)])
    weights = [
        [Fraction(rng.randint(0, 4), rng.choice(dens)) for _ in range(k)]
        for _ in range(n)
    ]
    if rng.random() < 0.25:
        zero = rng.randrange(k)
        for row in weights:
            row[zero] = Fraction(0)
    top = max(sum(row) for row in weights)
    eps = rng.choice(
        [
            Fraction(0),
            Fraction(rng.randint(0, 8), rng.choice(dens)),
            top,
            top + 1,
            Fraction(rng.randint(0, 100)),
        ]
    )
    return MixingInstance(weights, None, eps)


@pytest.mark.parametrize("block", range(6))
def test_hull_family_matches_the_fraction_reference(block):
    """240 seeded instances: the walker's pruning and the integer dedup
    keep the reference's cuts, kinds and order."""
    rng = random.Random(7100 + block)
    for _ in range(40):
        inst = family_case(rng)
        want = fraction_hull_cut_family(inst)
        assert fields(hull_cut_family(inst)) == fields(want)


def test_hull_family_builds_one_cut_per_member_and_hashes_no_fraction(monkeypatch):
    built = []
    init = LinearCut.__init__
    row_cut = MixingInstance.row_cut
    hashed = []
    fraction_hash = Fraction.__hash__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_row_cut(self, *args, **kwargs):
        cut = row_cut(self, *args, **kwargs)
        built.append(cut)
        return cut

    def counting_hash(self):
        hashed.append(self)
        return fraction_hash(self)

    rng = random.Random(7200)
    for _ in range(40):
        inst = family_case(rng)
        monkeypatch.setattr(LinearCut, "__init__", counting)
        monkeypatch.setattr(MixingInstance, "row_cut", counting_row_cut)
        monkeypatch.setattr(Fraction, "__hash__", counting_hash)
        cuts = hull_cut_family(inst)
        monkeypatch.undo()
        assert list(map(id, built)) == list(map(id, cuts))  # one cut each
        assert hashed == []
        assert fields(cuts) == fields(fraction_hull_cut_family(inst))
        built.clear()
