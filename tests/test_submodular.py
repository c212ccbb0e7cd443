import itertools
import random
from fractions import Fraction

import pytest

from mixcuts import (
    DomainError,
    GroundSetTooLarge,
    greedy_vertex,
    membership,
)
from mixcuts.submodular import SetFunctionOracle

from conftest import random_sufficient_instance
from helpers import (
    column_oracle,
    is_submodular,
    linking_oracle,
    separate_polymatroid,
    vertex_list,
    weighted_combination,
)


def tabulate(ground_size, values):
    """Oracle backed by an explicit table indexed by bitmask."""
    table = list(values)
    assert len(table) == 1 << ground_size
    return SetFunctionOracle(ground_size, lambda m: table[m], name="table")


def pairwise_submodular(f):
    """The textbook definition, as an independent oracle for the local test."""
    n = f.ground_size
    for a in range(1 << n):
        for b in range(1 << n):
            if f.value(a) + f.value(b) < f.value(a | b) + f.value(a & b):
                return False
    return True


def test_linking_oracle_example2_not_submodular(example2):
    g = linking_oracle(example2)
    # scenarios 2 and 3 (1-based): 10 + 15 < 9 + 17
    assert g.value([1]) == 10
    assert g.value([2]) == 15
    assert g.value(0) == 9
    assert g.value([1, 2]) == 17
    assert g.value([1]) + g.value([2]) == 25
    assert g.value(0) + g.value([1, 2]) == 26
    assert not is_submodular(g)


def test_linking_oracle_example1_submodular(example1):
    assert is_submodular(linking_oracle(example1))


def test_column_oracles_always_submodular(example1):
    for j in range(example1.k):
        assert is_submodular(column_oracle(example1, j))


def test_constant_oracle_submodular():
    f = SetFunctionOracle(4, lambda m: Fraction(3))
    assert is_submodular(f)


def test_local_test_matches_pairwise_definition():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 4)
        table = [Fraction(rng.randint(0, 6)) for _ in range(1 << n)]
        f = tabulate(n, table)
        assert is_submodular(f) == pairwise_submodular(tabulate(n, table))


def test_ground_set_bound():
    f = SetFunctionOracle(17, lambda m: Fraction(0))
    with pytest.raises(GroundSetTooLarge):
        is_submodular(f)


def test_greedy_vertex_example1_identity(example1):
    f1 = column_oracle(example1, 0)
    vertex = greedy_vertex(f1, [Fraction(1)] * 5)
    assert vertex.permutation == (0, 1, 2, 3, 4)
    assert vertex.pi == (8, 0, 5, 0, 0)
    zero = greedy_vertex(f1, [Fraction(0)] * 5)
    assert zero.permutation == (0, 1, 2, 3, 4)


def test_greedy_telescoping_prefixes(example1):
    f = linking_oracle(example1)
    rng = random.Random(5)
    for _ in range(20):
        obj = [Fraction(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(5)]
        v = greedy_vertex(f, obj)
        mask = 0
        acc = Fraction(0)
        for i in v.permutation:
            mask |= 1 << i
            acc += v.pi[i]
            assert acc == f.value(mask) - f.value(0)


def test_greedy_vertex_feasible_in_polymatroid(example1):
    f = linking_oracle(example1)
    v = greedy_vertex(f, [Fraction(1, 2), Fraction(1), Fraction(0), Fraction(1, 3), Fraction(1)])
    f0 = f.value(0)
    for mask in range(1 << 5):
        total = sum(v.pi[i] for i in range(5) if mask & (1 << i))
        assert total <= f.value(mask) - f0


def test_greedy_optimality_brute_force():
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(3, 5)
        k = rng.randint(1, 3)
        inst = random_sufficient_instance(rng, n, k)
        f = linking_oracle(inst)
        obj = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n)]
        value = sum(
            p * o for p, o in zip(greedy_vertex(f, obj).pi, obj)
        )
        best = max(
            sum(
                p * o
                for p, o in zip(_vertex_of_permutation(f, perm), obj)
            )
            for perm in itertools.permutations(range(n))
        )
        assert value == best


def _vertex_of_permutation(f, perm):
    pi = [Fraction(0)] * f.ground_size
    mask = 0
    prev = f.value(0)
    for i in perm:
        mask |= 1 << i
        cur = f.value(mask)
        pi[i] = cur - prev
        prev = cur
    return pi


def test_separate_polymatroid_examples(example1):
    f1 = column_oracle(example1, 0)
    # the all-ones complemented point of the origin: violated by 13
    cut = separate_polymatroid(f1, Fraction(0), [Fraction(1)] * 5)
    assert cut is not None
    lhs = cut.lhs((Fraction(0),), [Fraction(1)] * 5)
    assert cut.rhs - lhs == 13
    # top vertex feasible
    assert separate_polymatroid(f1, Fraction(13), [Fraction(1)] * 5) is None
    with pytest.raises(DomainError):
        separate_polymatroid(f1, Fraction(0), [Fraction(2)] + [Fraction(0)] * 4)


def test_separation_decision_matches_epigraph_hull():
    rng = random.Random(909)
    for _ in range(12):
        n = rng.randint(2, 4)
        inst = random_sufficient_instance(rng, n, rng.randint(1, 2))
        f = linking_oracle(inst)
        # epigraph hull: points (f(z), z) for binary z, ray (1, 0)
        points = tuple(
            (
                (f.value(mask),),
                tuple(1 if mask & (1 << i) else 0 for i in range(n)),
            )
            for mask in range(1 << n)
        )
        vrep = vertex_list(points, (((Fraction(1),), tuple(0 for _ in range(n))),))
        for _ in range(8):
            z = [Fraction(rng.randint(0, 3), 3) for _ in range(n)]
            y = Fraction(rng.randint(0, 30), 2)
            cut = separate_polymatroid(f, y, z)
            inside = membership(vrep, (y,), z).inside
            assert (cut is None) == inside
            if cut is not None:
                assert cut.violation((y,), z) > 0


def test_weighted_combination(example1):
    f1 = column_oracle(example1, 0)
    f2 = column_oracle(example1, 1)
    zero = weighted_combination([f1, f2], [Fraction(0), Fraction(0)])
    assert zero.value([0, 2, 4]) == 0
    combo = weighted_combination([f1, f2], [Fraction(2), Fraction(3)])
    assert combo.value([0]) == 2 * 8 + 3 * 3 == 25


def test_weighted_combination_matches_lp_floor(example1):
    # alpha = (1, 1): the floor of y_1 + y_2 over the relaxed set at fixed z
    # is the linking oracle, matched on every subset.
    g = linking_oracle(example1)
    f_alpha = weighted_combination(
        [linking_oracle(example1), column_oracle(example1, 0), column_oracle(example1, 1)],
        [Fraction(1), Fraction(0), Fraction(0)],
    )
    for mask in range(1 << 5):
        floor = max(
            example1.epsilon,
            sum(
                (
                    column_oracle(example1, j).value(mask)
                    for j in range(2)
                ),
                Fraction(0),
            ),
        )
        assert f_alpha.value(mask) == g.value(mask) == floor
