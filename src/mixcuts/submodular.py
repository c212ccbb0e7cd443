"""Set-function oracles and greedy extreme points of their polymatroids.

Subsets of the ground set are bitmasks.  Oracles are pure and keep no memo:
a greedy's nested sets never ask for a mask twice.  Nothing here fixes the
number type: oracles built on integers yield integer values
and vertices, oracles built on ``Fraction`` s yield ``Fraction`` s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .core import DimensionMismatch

SubsetLike = Union[int, Iterable[int]]
Exact = Union[int, Fraction]


def as_mask(subset: SubsetLike) -> int:
    if isinstance(subset, int):
        return subset
    mask = 0
    for i in subset:
        mask |= 1 << i
    return mask


class SetFunctionOracle:
    """A pure function from subsets of the ground set to exact numbers."""

    def __init__(self, ground_size: int, func: Callable[[int], Exact], name: str = ""):
        self.ground_size = ground_size
        self._func = func
        self.name = name

    def value(self, subset: SubsetLike) -> Exact:
        return self._func(as_mask(subset))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SetFunctionOracle(n={self.ground_size}, name={self.name!r})"


def max_sum_oracle(
    rows: Sequence[Sequence[Exact]],
    floors: Sequence[Exact],
    eps: Exact,
    name: str = "",
) -> SetFunctionOracle:
    """Oracle S -> max(eps, sum_j max(floor_j, max_{i in S} rows[i][j])).

    The oracle keeps the last mask and its column maxima, and updates them
    in place: when the next mask is a superset of the last one only the new
    rows are folded in, so the greedy's nested sets cost O(k) each; any
    other mask starts again from the floors.  One oracle serves one caller
    at a time.
    """
    floors = list(floors)
    state = [0, floors.copy()]  # the last mask and its column maxima

    def value(mask: int) -> Exact:
        seen, best = state
        if mask & seen == seen:
            new = mask ^ seen
        else:
            new = mask
            best = state[1] = floors.copy()
        state[0] = mask
        while new:
            bit = new & -new
            new ^= bit
            for j, v in enumerate(rows[bit.bit_length() - 1]):
                if v > best[j]:
                    best[j] = v
        total = sum(best)
        return total if total > eps else eps

    return SetFunctionOracle(len(rows), value, name=name)


@dataclass(frozen=True)
class PolymatroidVertex:
    """Greedy extreme point: pi[sigma(t)] telescopes the oracle's gains."""

    pi: tuple[Exact, ...]
    permutation: tuple[int, ...]


def greedy_vertex(
    f: SetFunctionOracle, objective: Sequence[Exact]
) -> PolymatroidVertex:
    """Maximize objective . pi over the extended polymatroid of f - f({}).

    Indices are sorted by objective value descending, ties by ascending index
    (deterministic, and any tie order yields a maximizer).  The caller is
    responsible for f being submodular; this is not re-verified here.
    """
    n = f.ground_size
    if len(objective) != n:
        raise DimensionMismatch(f"objective has length {len(objective)}, expected {n}")
    # A stable sort keeps equal values in index order, also when reversed.
    order = sorted(range(n), key=objective.__getitem__, reverse=True)
    pi = [0] * n  # every entry is set below, to a difference of oracle values
    mask = 0
    prev = f.value(0)
    for i in order:
        mask |= 1 << i
        cur = f.value(mask)
        pi[i] = cur - prev
        prev = cur
    return PolymatroidVertex(tuple(pi), tuple(order))
