"""The prepend walker and the builders on it against the ``Fraction``
references in ``helpers``.

The references evaluate every sequence afresh: ``decompose``, ``l_theta``
and ``fraction_aggregated_cut`` from their definitions, and the hull family
by the per-sequence loop with deduplication on canonical forms.  Instances
are seeded and small (n <= 6) and cover tied values, all-zero columns,
fractional weights, epsilon = 0, and epsilon at or above every row sum.
"""

import math
import random
from fractions import Fraction

import pytest

from mixcuts import (
    CutKind,
    MixingInstance,
    SequenceTheta,
    aggregated_cut,
    certify_witness,
    diagnose,
    hull_cut_family,
    separate_aggregated,
    sequences,
    witness,
)
from mixcuts.aggregated import _starred_nodes, fold, starred_rows, walk

from conftest import random_insufficient_instance
from helpers import (
    column,
    decompose,
    fraction_aggregated_cut,
    fraction_hull_cut_family,
    l_theta,
    scale_point,
    telescope,
)


def random_case(rng: random.Random, n: int) -> MixingInstance:
    """Small values (many ties), sometimes an all-zero column or fractional
    entries, and epsilon drawn from the edge cases."""
    k = rng.randint(1, 3)
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
        [Fraction(0), Fraction(rng.randint(0, 8), rng.choice(dens)), top, top + 1]
    )
    return MixingInstance(weights, None, eps)


def random_point(rng: random.Random, inst: MixingInstance):
    """A point in the unit box for z with sum(y) >= epsilon."""
    z = [Fraction(rng.choice((0, 1, 1, 2, 2)), 2) for _ in range(inst.n)]
    y = [Fraction(rng.randint(0, 8), rng.choice((1, 2))) for _ in range(inst.k)]
    y[-1] += max(Fraction(0), inst.epsilon - sum(y))
    return y, z


def raises_a_head(inst: MixingInstance, theta, t: int) -> bool:
    """Whether w[theta_t][j] > max over s > t of w[theta_s][j] for some j."""
    later = theta[t + 1 :]
    return any(
        inst.weights[theta[t]][j] > max(inst.weights[i][j] for i in later)
        for j in range(inst.k)
    )


CASES = [(seed, n) for n in range(1, 7) for seed in range(8 if n < 6 else 3)]


@pytest.mark.parametrize("seed,n", CASES)
def test_walk_matches_per_sequence_path_at_every_node(seed, n):
    rng = random.Random(1000 * n + seed)
    inst = random_case(rng, n)
    scale = inst.scaled[0]
    y, z = random_point(rng, inst)
    p = math.lcm(*(v.denominator for v in y + z))
    ground = sorted(rng.sample(range(n), rng.randint(1, n)))
    expected = {theta.indices for theta in sequences(ground)}
    visited = set()
    columns = [column(inst, j) for j in range(inst.k)]
    for theta, l, gap in walk(inst, ground, point=scale_point(y, z)):
        seq = SequenceTheta(theta)
        # The gains are the telescoped chains of the definition.
        heads, gains, folded_l = fold(inst, theta)
        want_z, want_rhs = telescope(decompose(inst, seq), columns, n)
        assert gains == [scale * c for c in want_z]
        assert sum(heads) == scale * want_rhs
        assert l == folded_l == scale * l_theta(inst, seq)
        want = fraction_aggregated_cut(inst, seq)
        assert gap == scale * p * want.violation(y, z)
        got = aggregated_cut(inst, seq)
        assert (got.kind, got.z_coeffs, got.rhs) == (want.kind, want.z_coeffs, want.rhs)
        visited.add(theta)
    assert visited == expected

    # The starred loop yields the starred sequences in which every index
    # before the last raises some column head above the maximum after it,
    # each once, with its cut's z coefficients over D.
    starred = {
        theta
        for theta in expected
        if fraction_aggregated_cut(inst, SequenceTheta(theta)).kind is CutKind.AMIX_STAR
        and all(raises_a_head(inst, theta, t) for t in range(len(theta) - 1))
    }
    nodes = list(_starred_nodes(inst, ground))
    assert {theta for theta, _ in nodes} == starred
    assert len(nodes) == len(starred)
    for theta, z in nodes:
        want = fraction_aggregated_cut(inst, SequenceTheta(theta))
        assert z == tuple(scale * c for c in want.z_coeffs)


@pytest.mark.parametrize("seed,n", CASES)
def test_starred_family_identical_in_content_and_order(seed, n):
    rng = random.Random(2000 * n + seed)
    inst = random_case(rng, n)
    got = hull_cut_family(inst)
    want = fraction_hull_cut_family(inst)
    assert [(c.kind, c.y_coeffs, c.z_coeffs, c.rhs) for c in got] == [
        (c.kind, c.y_coeffs, c.z_coeffs, c.rhs) for c in want
    ]


def reference_starred_rows(inst: MixingInstance, ground) -> tuple[list, int]:
    """The starred aggregated cuts over ``ground`` as rows ``(z, rhs)`` over
    D, each sequence evaluated afresh in the order of ``sequences`` (shorter
    first, then lexicographic): each distinct row at its first sequence;
    and the number of starred sequences.  A sequence is starred only when
    it reaches every column maximum and epsilon is at most L, which is at
    most its last index's row sum; the cut is built only when both hold."""
    scale = inst.scaled[0]
    columns = list(zip(*inst.weights))
    rows = {}
    starred = 0
    for theta in sequences(sorted(ground)):
        if sum(inst.weights[theta.last]) < inst.epsilon or any(
            max(col[i] for i in theta.indices) < max(col) for col in columns
        ):
            continue  # L below epsilon or a head below its maximum: not starred
        cut = fraction_aggregated_cut(inst, theta)
        if cut.kind is CutKind.AMIX_STAR:
            starred += 1
            rows.setdefault((tuple(scale * c for c in cut.z_coeffs), scale * cut.rhs), None)
    return list(rows), starred


def test_starred_rows_equal_the_per_sequence_reference():
    """2,000 draws with n <= 7 and k <= 3 over a ground of at most 5 rows
    (the reference evaluates every sequence in Fractions): ties, zero
    columns and rows, fractional weights, epsilon = 0 and epsilon at or
    above every row sum.  Content and order must both match."""
    rng = random.Random(2222)
    seen = dict.fromkeys(
        ("rows", "none", "repeated", "zero row", "eps 0", "eps top", "fractional"), 0
    )
    for _ in range(2000):
        n = rng.randint(1, 7)
        inst = random_case(rng, n)
        weights = [list(row) for row in inst.weights]
        if rng.random() < 0.2:
            weights[rng.randrange(n)] = [Fraction(0)] * inst.k
            inst = MixingInstance(weights, None, inst.epsilon)
        size = 5 if rng.random() < 0.04 else rng.choice((1, 2, 2, 3, 3, 3, 3, 4, 4))
        ground = rng.sample(range(n), min(n, size))
        want, starred = reference_starred_rows(inst, ground)
        assert starred_rows(inst, ground) == want
        seen["rows" if want else "none"] += 1
        seen["repeated"] += starred > len(want)  # a row of several sequences
        seen["zero row"] += any(not any(row) for row in weights)
        seen["eps 0"] += inst.epsilon == 0
        seen["eps top"] += inst.epsilon >= max(sum(row) for row in weights)
        seen["fractional"] += any(v.denominator > 1 for row in weights for v in row)
    assert min(seen.values()) >= 100, seen


def reference_aggregated_message(inst: MixingInstance, point) -> str:
    for theta in sequences(range(inst.n)):
        cut = fraction_aggregated_cut(inst, theta)
        if cut.violation(*point) > 0:
            return f"FAIL: aggregated cut violated for {theta.indices}: {cut}"
    return "ok: all aggregated cuts hold"


def test_certify_reports_a_violated_cut_exactly_when_one_exists():
    rng = random.Random(77)
    violated = held = 0
    for trial in range(40):
        n = rng.randint(1, 5)
        if trial % 4 == 0 and n >= 3:
            inst = random_insufficient_instance(rng, n, 2, rng.choice(("lw", "c1")))
            point = witness(inst)[0]
        else:
            inst = random_case(rng, n)
            point = random_point(rng, inst)
        expected = reference_aggregated_message(inst, point)
        assert certify_witness(inst, point)[2] == expected
        if expected.startswith("FAIL"):
            violated += 1
        else:
            held += 1
    assert violated and held


def walk_point(rng: random.Random, inst: MixingInstance, kind: str):
    """A point of one of four kinds: ``"box"`` (:func:`random_point`),
    ``"tight"`` (y on the big-M rows, so many cuts are violated or tied),
    ``"witness"`` (a witness of an insufficient instance, where every
    aggregated cut holds) and ``"loose"`` (a relaxation row fails: y below a
    big-M row or below epsilon in sum, or z outside the unit box)."""
    if kind == "box":
        return random_point(rng, inst)
    if kind == "witness":
        return witness(inst)[0]
    y, z = random_point(rng, inst)
    if kind == "tight":
        y = [
            max(inst.weights[i][j] * (1 - z[i]) for i in range(inst.n))
            for j in range(inst.k)
        ]
        y[-1] += max(Fraction(0), inst.epsilon - sum(y))
        return y, z
    if rng.random() < 0.5:
        for i in rng.sample(range(inst.n), min(2, inst.n)):
            z[i] = rng.choice((Fraction(-1), Fraction(-1, 2), Fraction(3, 2)))
    y = [v - Fraction(rng.randint(0, 6), 2) for v in y]
    return y, z


def relaxation_holds(inst: MixingInstance, y, z) -> bool:
    return (
        all(v >= 0 for v in y)
        and all(0 <= v <= 1 for v in z)
        and sum(y) >= inst.epsilon
        and all(
            y[j] >= inst.weights[i][j] * (1 - z[i])
            for i in range(inst.n)
            for j in range(inst.k)
        )
    )


def test_violated_walk_yields_every_violated_sequence_and_no_other():
    rng = random.Random(5151)
    seen = {"violated": 0, "held": 0, "relaxed": 0, "loose": 0, "witness": 0}
    for trial in range(400):
        kind = ("box", "tight", "loose", "witness")[trial % 4]
        n = rng.randint(3 if kind == "witness" else 1, 5)
        if kind == "witness":
            inst = random_insufficient_instance(rng, n, 2, rng.choice(("lw", "c1", "c2")))
        else:
            inst = random_case(rng, n)
        point = walk_point(rng, inst, kind)
        scaled = scale_point(*point)
        full = [node for node in walk(inst, range(n), point=scaled) if node[2] > 0]
        assert list(walk(inst, range(n), point=scaled, violated=True)) == full
        if all(0 <= v <= 1 for v in point[1]):  # certification needs z in the box
            message = "ok: all aggregated cuts hold"
            if full:
                first = min((len(t), t) for t, *_ in full)[1]
                cut = aggregated_cut(inst, SequenceTheta(first))
                message = f"FAIL: aggregated cut violated for {first}: {cut}"
            assert certify_witness(inst, point)[2] == message
        seen["violated" if full else "held"] += 1
        seen["relaxed" if relaxation_holds(inst, *point) else "loose"] += 1
        seen["witness"] += kind == "witness"
    assert min(seen.values()) >= 50, seen


def test_certify_finds_a_violated_cut_through_an_index_at_one():
    """An index at z_i = 1 in the middle of a sequence raises L: no sequence
    over {i : z_i < 1} is violated at this point, which satisfies every
    relaxation row, but the one through index 3 is."""
    inst = MixingInstance(
        [["4/3", 3, 2], ["1/3", "1/3", 0], [4, 0, 1], [4, "2/3", 3]], None, 4
    )
    y = (Fraction(11, 6), Fraction(5, 2), Fraction(1))
    z = (Fraction(1, 2), Fraction(1, 2), Fraction(2, 3), Fraction(1))
    assert relaxation_holds(inst, y, z)
    assert not any(
        gap > 0 for *_, gap in walk(inst, [0, 1, 2], point=scale_point(y, z))
    )
    messages = certify_witness(inst, (y, z))
    assert messages[2] == reference_aggregated_message(inst, (y, z))
    assert messages[2].startswith("FAIL: aggregated cut violated for (0, 3, 2)")


def reference_separation(inst: MixingInstance, y, z):
    """Largest violation over every sequence of the separation ground set,
    ties broken by the lexicographically smallest sequence."""
    if all(
        y[j] >= inst.weights[i][j] * (1 - z[i])
        for i in range(inst.n)
        for j in range(inst.k)
    ):
        ground = [i for i in range(inst.n) if z[i] < 1]
    else:
        ground = list(range(inst.n))
    best = None
    for theta in sequences(ground):
        cut = fraction_aggregated_cut(inst, theta)
        gap = cut.violation(y, z)
        if gap > 0 and (
            best is None or gap > best[0] or (gap == best[0] and theta.indices < best[1])
        ):
            best = (gap, theta.indices, cut)
    return best[2] if best else None


def test_enumeration_separation_returns_the_same_cut_and_tie_break():
    rng = random.Random(4242)
    compared = found = 0
    while compared < 60:
        inst = random_case(rng, rng.randint(2, 6))
        if diagnose(inst).g_submodular:
            continue  # the greedy branch does not enumerate
        y, z = random_point(rng, inst)
        if rng.random() < 0.5:  # tight relaxation rows make many ties
            y = [
                max(inst.weights[i][j] * (1 - z[i]) for i in range(inst.n))
                for j in range(inst.k)
            ]
            y[-1] += max(Fraction(0), inst.epsilon - sum(y))
        got = separate_aggregated(inst, y, z)
        want = reference_separation(inst, y, z)
        if want is None:
            assert got is None
        else:
            found += 1
            assert (got.kind, got.z_coeffs, got.rhs) == (want.kind, want.z_coeffs, want.rhs)
        compared += 1
    assert found
