"""Set-function oracles, greedy extreme points and polymatroid separation.

Subsets of the ground set are bitmasks.  Oracles memoize their values, which
is safe because they are pure; all operations here are reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .core import (
    CutKind,
    DimensionMismatch,
    DomainError,
    GroundSetTooLarge,
    LinearCut,
    parse_rational,
)

SubsetLike = Union[int, Iterable[int]]

BRUTE_FORCE_BOUND = 16


def as_mask(subset: SubsetLike) -> int:
    if isinstance(subset, int):
        return subset
    mask = 0
    for i in subset:
        mask |= 1 << i
    return mask


class SetFunctionOracle:
    """A pure function from subsets of the ground set to exact rationals."""

    def __init__(self, ground_size: int, func: Callable[[int], Fraction], name: str = ""):
        self.ground_size = ground_size
        self._func = func
        self._memo: dict[int, Fraction] = {}
        self.name = name

    def value(self, subset: SubsetLike) -> Fraction:
        mask = as_mask(subset)
        cached = self._memo.get(mask)
        if cached is None:
            cached = self._memo[mask] = self._func(mask)
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SetFunctionOracle(n={self.ground_size}, name={self.name!r})"


@dataclass(frozen=True)
class PolymatroidVertex:
    """Greedy extreme point: pi[sigma(t)] telescopes the oracle's gains."""

    pi: tuple[Fraction, ...]
    permutation: tuple[int, ...]


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


def greedy_vertex(
    f: SetFunctionOracle, objective: Sequence[Fraction]
) -> PolymatroidVertex:
    """Maximize objective . pi over the extended polymatroid of f - f({}).

    Indices are sorted by objective value descending, ties by ascending index
    (deterministic, and any tie order yields a maximizer).  The caller is
    responsible for f being submodular; this is not re-verified here.
    """
    n = f.ground_size
    if len(objective) != n:
        raise DimensionMismatch(f"objective has length {len(objective)}, expected {n}")
    order = sorted(range(n), key=lambda i: (-objective[i], i))
    pi = [Fraction(0)] * n
    mask = 0
    prev = f.value(0)
    for i in order:
        mask |= 1 << i
        cur = f.value(mask)
        pi[i] = cur - prev
        prev = cur
    return PolymatroidVertex(tuple(pi), tuple(order))


def separate_polymatroid(
    f: SetFunctionOracle, y_bar: Fraction, z_bar: Sequence[Fraction]
) -> LinearCut | None:
    """Most violated epigraph inequality y >= pi . z + f({}), or None.

    Returns None exactly when (y_bar, z_bar) lies in the convex hull of the
    epigraph of f, because the greedy vertex maximizes pi . z_bar.  The sort
    costs O(n log n) comparisons; each of the n oracle evaluations here is
    O(nk) on first access (memoized), not O(1).
    """
    z = [parse_rational(v) for v in z_bar]
    if any(v < 0 or v > 1 for v in z):
        raise DomainError(f"point outside [0,1]^{f.ground_size}: {z}")
    vertex = greedy_vertex(f, z)
    offset = f.value(0)
    bound = sum((p * v for p, v in zip(vertex.pi, z)), offset)
    if parse_rational(y_bar) >= bound:
        return None
    return LinearCut(
        (Fraction(1),),
        tuple(-p for p in vertex.pi),
        offset,
        CutKind.POLYMATROID,
    )


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
