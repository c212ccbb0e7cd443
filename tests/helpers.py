"""Helpers that only the tests use: canonical cuts, the brute-force
submodularity check, weighted oracle combinations and the linking-dominance
test of one sequence."""

from fractions import Fraction
from typing import Sequence

from mixcuts import (
    DimensionMismatch,
    DomainError,
    GroundSetTooLarge,
    LinearCut,
    LowerBoundsNotReduced,
    MixingInstance,
    SequenceTheta,
    l_theta,
    parse_rational,
)
from mixcuts.submodular import SetFunctionOracle

BRUTE_FORCE_BOUND = 16


def canonicalize(cut: LinearCut) -> LinearCut:
    """Scale a cut to coprime integer coefficients; direction is preserved.

    Idempotent, and the scaling factor is a positive rational, so the feasible
    half-space is exactly unchanged.  Raises ``AllZeroCut`` on the zero
    inequality.
    """
    ints = cut.canonical_key()
    k = cut.k
    return LinearCut(
        [Fraction(v) for v in ints[:k]],
        [Fraction(v) for v in ints[k : k + cut.n]],
        Fraction(ints[-1]),
        cut.kind,
    )


def dominates_linking(inst: MixingInstance, theta: SequenceTheta) -> bool:
    """Whether the sequence's aggregated cut implies sum_j y_j >= epsilon
    over the unit box (exactly when epsilon <= L(Theta))."""
    if not inst.lower_is_zero:
        raise LowerBoundsNotReduced("reduce lower bounds first")
    return inst.epsilon <= l_theta(inst, theta)


def is_submodular(f: SetFunctionOracle) -> bool:
    """Brute-force submodularity check via the adjacent-exchange condition.

    f(S+i) - f(S) >= f(S+i+j) - f(S+j) for all S and i, j not in S; this is
    equivalent to the pairwise definition but costs O(2^n n^2) evaluations
    instead of O(4^n).
    """
    n = f.ground_size
    if n > BRUTE_FORCE_BOUND:
        raise GroundSetTooLarge(
            f"ground set {n} exceeds brute-force bound {BRUTE_FORCE_BOUND}"
        )
    for mask in range(1 << n):
        outside = [i for i in range(n) if not mask & (1 << i)]
        for a in range(len(outside)):
            i = outside[a]
            gain_i = f.value(mask | 1 << i) - f.value(mask)
            for b in range(a + 1, len(outside)):
                j = outside[b]
                with_j = mask | 1 << j
                if gain_i < f.value(with_j | 1 << i) - f.value(with_j):
                    return False
    return True


def weighted_combination(
    fs: Sequence[SetFunctionOracle], weights: Sequence[Fraction]
) -> SetFunctionOracle:
    """The oracle S -> sum_j c_j f_j(S) for nonnegative weights c."""
    if len(fs) != len(weights):
        raise DimensionMismatch("one weight per oracle required")
    if not fs:
        raise DimensionMismatch("need at least one oracle")
    n = fs[0].ground_size
    if any(f.ground_size != n for f in fs):
        raise DimensionMismatch("oracles must share a ground set")
    coeffs = [parse_rational(c) for c in weights]
    if any(c < 0 for c in coeffs):
        raise DomainError("weights must be nonnegative")
    pairs = [(c, f) for c, f in zip(coeffs, fs) if c != 0]

    def combined(mask: int) -> Fraction:
        return sum((c * f.value(mask) for c, f in pairs), Fraction(0))

    return SetFunctionOracle(n, combined, name="weighted-combination")
