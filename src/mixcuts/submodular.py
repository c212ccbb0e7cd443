"""Set-function oracles and greedy extreme points of their polymatroids.

Subsets of the ground set are bitmasks.  Oracles memoize their values, which
is safe because they are pure; all operations here are reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .core import DimensionMismatch

SubsetLike = Union[int, Iterable[int]]


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


def max_sum_oracle(
    rows: Sequence[Sequence[Fraction]],
    floors: Sequence[Fraction],
    eps: Fraction,
    name: str = "",
) -> SetFunctionOracle:
    """Oracle S -> max(eps, sum_j max(floor_j, max_{i in S} rows[i][j])).

    Each evaluation remembers its mask and column maxima.  When the next mask
    is a superset of the last one only the new rows are folded in, so the
    greedy's nested sets cost O(k) each; any other mask starts again from the
    floors.
    """
    floors = tuple(floors)
    last = (0, floors)  # one tuple, so a reader never mixes two evaluations

    def value(mask: int) -> Fraction:
        nonlocal last
        seen, best = last
        if mask & seen == seen:
            new = mask ^ seen
        else:
            new, best = mask, floors
        best = list(best)
        while new:
            bit = new & -new
            new ^= bit
            for j, v in enumerate(rows[bit.bit_length() - 1]):
                if v > best[j]:
                    best[j] = v
        last = (mask, tuple(best))
        total = sum(best, Fraction(0))
        return total if total > eps else eps

    return SetFunctionOracle(len(rows), value, name=name)


@dataclass(frozen=True)
class PolymatroidVertex:
    """Greedy extreme point: pi[sigma(t)] telescopes the oracle's gains."""

    pi: tuple[Fraction, ...]
    permutation: tuple[int, ...]


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
