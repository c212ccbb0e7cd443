import random
from fractions import Fraction

import pytest

from mixcuts import (
    CutKind,
    EpsilonViolated,
    LinearCut,
    LowerBoundsNotReduced,
    MixingInstance,
    SequenceTheta,
    aggregated_cut,
    check_validity,
    separate_aggregated,
    sequences,
)
from mixcuts.aggregated import count_sequences, fold
from mixcuts.core import complement
from mixcuts.hull import diagnose, v_representation

from conftest import random_weights
from helpers import (
    decompose,
    dominates_linking,
    fraction_vertices,
    l_theta,
    mixing_cut,
)

THETA_213 = SequenceTheta((1, 0, 2))  # paper's {2 -> 1 -> 3}


def test_decompose_example1(example1):
    assert decompose(example1, THETA_213) == ((2,), (1, 0, 2))
    assert fold(example1, THETA_213.indices)[1] == [(2,), (1, 0, 2)]


def test_decompose_singleton(example1):
    assert decompose(example1, SequenceTheta((3,))) == ((3,), (3,))
    assert fold(example1, (3,))[1] == [(3,), (3,)]


def definitional_subsequence(inst, theta, j):
    idx = theta.indices
    out = []
    for t, i in enumerate(idx):
        later = [inst.weights[q][j] for q in idx[t + 1 :]]
        if inst.weights[i][j] >= max(later, default=Fraction(0)):
            out.append(i)
    return tuple(out)


def test_decompose_matches_definition_randomly():
    rng = random.Random(52)
    for _ in range(30):
        n, k = rng.randint(2, 8), rng.randint(1, 3)
        inst = MixingInstance(random_weights(rng, n, k, lo=0, hi=6), None, 0)
        size = rng.randint(1, n)
        theta = SequenceTheta(rng.sample(range(n), size))
        decomp = decompose(inst, theta)
        assert list(decomp) == fold(inst, theta.indices)[1]
        for j in range(k):
            assert decomp[j] == definitional_subsequence(inst, theta, j)
            # the last element always closes the chain, values nonincreasing
            assert decomp[j][-1] == theta.last
            vals = [inst.weights[i][j] for i in decomp[j]]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_l_theta_examples(example1):
    assert l_theta(example1, THETA_213) == 9
    assert l_theta(example1, SequenceTheta((1, 2))) == 8
    assert l_theta(example1, SequenceTheta((2,))) == example1.row_sum(2) == 15
    # example1 has integer weights, so its scaled L is L itself
    assert [fold(example1, t)[2] for t in ((1, 0, 2), (1, 2), (2,))] == [9, 8, 15]


def test_aggregated_cut_examples(example1, example2):
    cut = aggregated_cut(example1, THETA_213)
    assert cut == LinearCut((1, 1), (1, 1, 8, 0, 0), 17)
    assert cut.kind is CutKind.AMIX_STAR
    cut2 = aggregated_cut(example2, THETA_213)
    assert cut2 == LinearCut((1, 1), (1, 1, 6, 0, 0), 17)
    cut3 = aggregated_cut(example2, SequenceTheta((2, 1, 0)))
    assert cut3 == LinearCut((1, 1), (2, 1, 5, 0, 0), 17)


def test_aggregated_cut_requires_reduced_instance():
    inst = MixingInstance([[3, 2]], [1, 0], 1)
    with pytest.raises(LowerBoundsNotReduced):
        aggregated_cut(inst, SequenceTheta((0,)))


def test_dominates_linking_examples(example1, example2):
    assert dominates_linking(example1, THETA_213)
    assert not dominates_linking(example2, SequenceTheta((1, 2)))
    zero = MixingInstance(example1.weights, None, 0)
    for theta in sequences(range(5), max_length=2):
        assert dominates_linking(zero, theta)


def test_check_validity_examples(example1):
    for theta in sequences(range(5), max_length=3):
        assert check_validity(example1, aggregated_cut(example1, theta))
    too_strong = LinearCut((1, 0), (0, 0, 0, 0, 0), 14)
    assert not check_validity(example1, too_strong)
    linking = LinearCut((1, 1), (0, 0, 0, 0, 0), 7, CutKind.LINKING)
    assert check_validity(example1, linking)


def test_validity_rejects_unbounded_direction(example1):
    bad = LinearCut((-1, 0), (0, 0, 0, 0, 0), -100)
    assert not check_validity(example1, bad)


def test_aggregated_dominates_summed_mixing():
    rng = random.Random(63)
    for _ in range(25):
        n, k = rng.randint(2, 6), rng.randint(1, 3)
        inst = MixingInstance(random_weights(rng, n, k, lo=0, hi=9), None,
                              Fraction(rng.randint(0, 12)))
        size = rng.randint(1, min(n, 4))
        theta = SequenceTheta(rng.sample(range(n), size))
        agg = aggregated_cut(inst, theta)
        summed = [Fraction(0)] * n
        rhs = Fraction(0)
        for j, chain in enumerate(decompose(inst, theta)):
            cut = mixing_cut(inst, j, chain)
            for i in range(n):
                summed[i] += cut.z_coeffs[i]
            rhs += cut.rhs
        cap = min(inst.epsilon, l_theta(inst, theta))
        summed[theta.last] -= cap
        assert tuple(summed) == agg.z_coeffs
        assert rhs == agg.rhs
        assert cap >= 0


def suffix_gain(inst, seq, t, j):
    later = [inst.weights[q][j] for q in seq[t + 1 :]]
    gap = inst.weights[seq[t]][j] - max(later, default=Fraction(0))
    return max(gap, Fraction(0))


def test_l_theta_bounds_and_deletion_relations():
    # The relations the validity induction rests on: the last row bounds the
    # constant from above, and deleting an interior element only raises the
    # telescoped coefficients of the surviving positions.  (Monotonicity of
    # the constant itself under arbitrary subsequences does not hold.)
    rng = random.Random(74)
    inst = MixingInstance(random_weights(rng, 6, 2, lo=0, hi=9), None, 5)
    for theta in sequences(range(6), max_length=4):
        idx = theta.indices
        assert l_theta(inst, theta) <= inst.row_sum(idx[-1])
        for p in range(len(idx) - 1):
            sub = idx[:p] + idx[p + 1 :]
            for t, i in enumerate(idx):
                if t == p:
                    continue
                t_sub = t if t < p else t - 1
                for j in range(inst.k):
                    assert suffix_gain(inst, sub, t_sub, j) >= suffix_gain(
                        inst, idx, t, j
                    )


def test_l_theta_not_monotone_counterexample():
    # dropping the tail can shrink the constant; the validity theorem holds
    # regardless (see the exhaustive validity suites)
    inst = MixingInstance([[9, 5], [4, 3], [1, 7], [7, 5], [8, 8], [2, 7]], None, 5)
    assert l_theta(inst, SequenceTheta((0, 2, 4))) == 8
    assert l_theta(inst, SequenceTheta((0, 2))) == 6


def test_sequence_restriction_soundness():
    # points satisfying the relaxation rows: if every cut over the free
    # indices holds, every cut holds
    rng = random.Random(85)
    for _ in range(10):
        n, k = rng.randint(2, 5), rng.randint(1, 2)
        inst = MixingInstance(random_weights(rng, n, k, lo=0, hi=9), None,
                              Fraction(rng.randint(0, 8)))
        ones = rng.sample(range(n), rng.randint(1, n - 1)) if n > 1 else []
        z = [
            Fraction(1) if i in ones else Fraction(rng.randint(0, 3), 4)
            for i in range(n)
        ]
        y = [
            max(
                (inst.weights[i][j] * (1 - z[i]) for i in range(n)),
                default=Fraction(0),
            )
            for j in range(k)
        ]
        deficit = inst.epsilon - sum(y)
        if deficit > 0:
            y[0] += deficit
        free = [i for i in range(n) if z[i] < 1]
        restricted_ok = all(
            aggregated_cut(inst, theta).satisfied_by(y, z)
            for theta in sequences(free)
        ) if free else True
        all_ok = all(
            aggregated_cut(inst, theta).satisfied_by(y, z)
            for theta in sequences(range(n))
        )
        assert not restricted_ok or all_ok


def test_separate_aggregated_example1(example1):
    y = (Fraction(8), Fraction(8))
    z = (Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(1))
    cut = separate_aggregated(example1, y, z)
    assert cut is not None
    assert cut.kind is CutKind.AMIX_STAR
    assert cut.rhs - cut.lhs(y, z) == 1
    paper = {
        LinearCut((1, 1), (1, 1, 8, 0, 0), 17),
        LinearCut((1, 1), (0, 2, 8, 0, 0), 17),
        LinearCut((1, 1), (0, 3, 7, 0, 0), 17),
        LinearCut((1, 1), (2, 3, 5, 0, 0), 17),
        LinearCut((1, 1), (4, 1, 5, 0, 0), 17),
    }
    assert cut in paper


def test_separate_aggregated_vertex_gives_nothing(example1):
    vrep = v_representation(example1)
    y, z = fraction_vertices(vrep).points[5]
    assert separate_aggregated(example1, y, complement(z)) is None


def test_separate_aggregated_epsilon_precondition(example1):
    with pytest.raises(EpsilonViolated):
        separate_aggregated(example1, (Fraction(1), Fraction(1)), (Fraction(0),) * 5)


def test_separate_aggregated_regimes_agree_on_example2(example2):
    # the linking oracle is not submodular here, so the enumeration regime
    # runs; its verdict and best violation must match unrestricted search
    rng = random.Random(96)
    assert not diagnose(example2).g_submodular
    for _ in range(12):
        z = [Fraction(rng.randint(0, 4), 4) for _ in range(5)]
        y = [
            max(
                (example2.weights[i][j] * (1 - z[i]) for i in range(5)),
                default=Fraction(0),
            )
            for j in range(2)
        ]
        shortfall = example2.epsilon - sum(y)
        if shortfall > 0:
            y[1] += shortfall
        # weaken y a little so violations can appear
        y[0] = y[0] * Fraction(rng.randint(2, 4), 4)
        if sum(y) < example2.epsilon:
            y[1] += example2.epsilon - sum(y)
        got = separate_aggregated(example2, y, z)
        best = max(
            (aggregated_cut(example2, theta).violation(y, z)
             for theta in sequences(range(5))),
            default=Fraction(0),
        )
        if best > 0:
            assert got is not None
            assert got.violation(y, z) == best
        else:
            assert got is None


def test_separate_aggregated_greedy_matches_enumeration():
    # submodular regime: the single greedy call must attain the max violation
    # over the entire sequence family
    from conftest import random_sufficient_instance

    rng = random.Random(107)
    hits = 0
    for _ in range(20):
        n, k = rng.randint(2, 5), rng.randint(1, 3)
        inst = random_sufficient_instance(rng, n, k)
        assert diagnose(inst).g_submodular
        z = [Fraction(rng.randint(0, 4), 4) for _ in range(n)]
        y = [
            max(
                (inst.weights[i][j] * (1 - z[i]) for i in range(n)),
                default=Fraction(0),
            )
            * Fraction(rng.randint(2, 4), 4)
            for j in range(k)
        ]
        if sum(y) < inst.epsilon:
            y[0] += inst.epsilon - sum(y)
        got = separate_aggregated(inst, y, z)
        best = max(
            (
                aggregated_cut(inst, theta).violation(y, z)
                for theta in sequences(range(n))
            ),
            default=Fraction(0),
        )
        if best > 0:
            assert got is not None and got.violation(y, z) == best
            hits += 1
        else:
            assert got is None
    assert hits  # the weakened points must have produced real separations


def test_count_sequences():
    assert count_sequences(3) == 3 + 6 + 6
    assert count_sequences(5, 2) == 5 + 20
    assert sum(1 for _ in sequences(range(4))) == count_sequences(4)
