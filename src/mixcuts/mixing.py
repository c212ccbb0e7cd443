"""Per-column machinery: lower-bound reduction, quantile bounds, mixing cuts.

The mixing inequality of a chain of scenario indices with nonincreasing
column values telescopes their differences; the starred form starts the
chain at the column maximum and, together with the variable bounds, yields
the full hull of the linking-free set.  Separation is one greedy vertex of
each column oracle against the complemented variables, all in integers on
the instance's and the point's integer views.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .core import (
    CutKind,
    InvalidSequence,
    LinearCut,
    MixingInstance,
    RiskOutOfRange,
    check_point,
    parse_rational,
    scale_point,
)
from .submodular import greedy_vertex, max_sum_oracle


@dataclass(frozen=True)
class MixingSequence:
    """Chain of scenario indices with nonincreasing values in one column."""

    j: int
    indices: tuple[int, ...]

    def __init__(self, j: int, indices: Iterable[int]):
        object.__setattr__(self, "j", int(j))
        object.__setattr__(self, "indices", tuple(int(i) for i in indices))
        if not self.indices:
            raise InvalidSequence("mixing sequence must be nonempty")

    def validate_for(self, inst: MixingInstance) -> None:
        if not 0 <= self.j < inst.k:
            raise InvalidSequence(f"column {self.j} out of range")
        if any(not 0 <= i < inst.n for i in self.indices):
            raise InvalidSequence(f"sequence {self.indices} exceeds ground set")
        col = inst.column(self.j)
        values = [col[i] for i in self.indices]
        if any(a < b for a, b in zip(values, values[1:])):
            raise InvalidSequence(f"column {self.j} values not nonincreasing: {values}")
        if values[-1] < inst.lower[self.j]:
            raise InvalidSequence(
                f"chain tail {values[-1]} below column lower bound {inst.lower[self.j]}"
            )


def reduce_lower_bounds(
    inst: MixingInstance,
) -> tuple[MixingInstance, tuple[Fraction, ...]]:
    """Shift lower bounds to zero: entries become (w - lower_j)+, same epsilon.

    A cut alpha.y + beta.z >= gamma on the reduced instance is valid for the
    original one as alpha.(y - lower) + beta.z >= gamma, i.e. with right-hand
    side gamma + alpha.lower.
    """
    shift = inst.lower
    if inst.lower_is_zero:
        return inst, shift
    reduced = [
        [max(Fraction(0), w - shift[j]) for j, w in enumerate(row)]
        for row in inst.weights
    ]
    return (
        MixingInstance(reduced, None, inst.epsilon, inst.probabilities),
        shift,
    )


def quantile_lower_bounds(inst: MixingInstance, risk: Fraction) -> tuple[Fraction, ...]:
    """Largest per-column bounds implied by the scenario-probability budget.

    For each column, scenarios are sorted by value descending; the bound is
    the value at the first position where the cumulative probability of the
    strictly-better-ranked scenarios is still within the risk budget but
    including it exceeds the budget.  Ties on the budget boundary keep the
    weak inequality on the already-accumulated mass.
    """
    if inst.probabilities is None:
        raise RiskOutOfRange("instance has no scenario probabilities")
    risk = parse_rational(risk)
    if not Fraction(0) < risk < Fraction(1):
        raise RiskOutOfRange(f"risk {risk} outside (0, 1)")
    bounds = []
    for j in range(inst.k):
        order = sorted(range(inst.n), key=lambda i: (-inst.weights[i][j], i))
        acc = Fraction(0)
        value = inst.weights[order[-1]][j]
        for i in order:
            acc += inst.probabilities[i]
            if acc > risk:
                value = inst.weights[i][j]
                break
        bounds.append(value)
    return tuple(bounds)


def mixing_cut(inst: MixingInstance, seq: MixingSequence) -> LinearCut:
    """Telescoped chain inequality for one column; starred when the chain
    head attains the column maximum."""
    seq.validate_for(inst)
    col = inst.column(seq.j)
    coeffs = [Fraction(0)] * inst.n
    values = [col[i] for i in seq.indices] + [inst.lower[seq.j]]
    for s, i in enumerate(seq.indices):
        coeffs[i] += values[s] - values[s + 1]
    y = [Fraction(0)] * inst.k
    y[seq.j] = Fraction(1)
    kind = CutKind.MIX_STAR if values[0] == inst.column_max(seq.j) else CutKind.MIX
    return LinearCut(y, coeffs, values[0], kind)


def separate_mixing(
    inst: MixingInstance,
    y_bar: Sequence[Fraction],
    z_bar: Sequence[Fraction],
) -> list[LinearCut]:
    """Most violated mixing cut per column at (y_bar, z_bar), greedy-exact.

    The greedy vertex pi of each column oracle z -> max(lower_j, max_i
    w[i][j] z_i) against the complemented point gives the column's most
    violated inequality y_j >= lower_j + pi.(1 - z), written y_j + pi.z >=
    lower_j + sum(pi); a column contributes nothing exactly when its
    coordinate satisfies all of the column's mixing inequalities.

    Everything runs in integers: the oracles on the instance scaled by its
    common denominator D, the greedies against p * (1 - z) for the point's
    common denominator p, and the test y_j >= lower_j + pi.(1 - z) times D
    * p.  Only a violated column's cut is built, over D.
    """
    y, z = check_point(inst, y_bar, z_bar)
    p, y_p, z_p = scale_point(y, z)
    slack = [p - v for v in z_p]  # p * (1 - z_i)
    scale, weights, _, lower = inst.scaled
    cuts = []
    for j in range(inst.k):
        oracle = max_sum_oracle(
            [(row[j],) for row in weights], (lower[j],), 0, f"column-{j}"
        )
        pi = greedy_vertex(oracle, slack).pi
        bound = lower[j] * p + sum(g * s for g, s in zip(pi, slack) if g)
        if y_p[j] * scale >= bound:
            continue
        e_j = [Fraction(0)] * inst.k
        e_j[j] = Fraction(1)
        coeffs = [Fraction(g, scale) for g in pi]
        rhs = Fraction(lower[j] + sum(pi), scale)
        cuts.append(LinearCut(e_j, coeffs, rhs, CutKind.MIX_STAR))
    return cuts


# ---------------------------------------------------------------------------
# Cut family enumeration.  Distinct canonical chains are value-subsets of a
# column (each represented by one attaining index): equal-value chain members
# other than the last carry a zero coefficient, so only the representative
# choice matters.
# ---------------------------------------------------------------------------


def _chain_cuts(
    inst: MixingInstance, j: int, star_only: bool, max_chains: Optional[int] = None
) -> list[LinearCut]:
    """Distinct mixing cuts of the first ``max_chains`` chains of a column;
    with ``star_only`` only chains headed at the column maximum."""
    col = inst.column(j)
    floor = inst.lower[j]
    by_value: dict[Fraction, list[int]] = {}
    for i, w in enumerate(col):
        if w >= floor:
            by_value.setdefault(w, []).append(i)
    groups = [by_value[v] for v in sorted(by_value, reverse=True)]
    chains = (
        (head,) + tuple(i for i in pattern if i is not None)
        for start, head_group in enumerate(groups[:1] if star_only else groups)
        for head in head_group
        for pattern in itertools.product(
            *[[None] + g for g in groups[start + 1 :]]  # type: ignore[list-item]
        )
    )
    seen = set()
    cuts = []
    for count, chain in enumerate(chains, 1):
        cut = mixing_cut(inst, MixingSequence(j, chain))
        key = cut.canonical_key()
        if key not in seen:
            seen.add(key)
            cuts.append(cut)
        if max_chains is not None and count >= max_chains:
            break
    return cuts


def mix_star_cuts(inst: MixingInstance, j: int) -> list[LinearCut]:
    """All distinct starred mixing cuts of a column (deduplicated)."""
    return _chain_cuts(inst, j, star_only=True)


def all_mixing_cuts(
    inst: MixingInstance, j: int, max_chains: Optional[int] = None
) -> list[LinearCut]:
    """All distinct mixing cuts of a column, starred or not (deduplicated)."""
    return _chain_cuts(inst, j, star_only=False, max_chains=max_chains)
