"""Exact feasibility LP: find x >= 0 with Ax = b, or a Farkas certificate.

Phase-1 simplex over the rationals with Bland's anti-cycling rule, so
termination is guaranteed.  The tableau is kept integer (each pivot divides
by the previous pivot value, which is exact), which is considerably faster
than Fraction arithmetic; answers are converted back to Fractions at the end.

Both outcomes are certified: a feasible result carries x with Ax = b checked
exactly, an infeasible result carries u with u.A <= 0 (columnwise) and
u.b > 0 checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import DimensionMismatch, InternalInvariant


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    x: Optional[tuple[Fraction, ...]]
    farkas: Optional[tuple[Fraction, ...]]


def _scale_rows(
    a_rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> tuple[list[list[int]], list[int], list[int]]:
    """Clear denominators row by row (positive scaling keeps the system intact)."""
    int_rows: list[list[int]] = []
    int_b: list[int] = []
    scales: list[int] = []
    for row, rhs in zip(a_rows, b):
        dens = [v.denominator for v in row] + [rhs.denominator]
        scale = math.lcm(*dens)
        int_rows.append([int(v * scale) for v in row])
        int_b.append(int(rhs * scale))
        scales.append(scale)
    return int_rows, int_b, scales


def solve_feasibility(
    a_rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> FeasibilityResult:
    """Decide whether {x >= 0 : Ax = b} is nonempty, with certificate."""
    m = len(a_rows)
    if len(b) != m:
        raise DimensionMismatch("rhs length disagrees with row count")
    ncols = len(a_rows[0]) if m else 0
    if any(len(r) != ncols for r in a_rows):
        raise DimensionMismatch("ragged constraint matrix")

    rows, rhs, scales = _scale_rows(a_rows, b)
    # Flip rows to rhs >= 0; remember signs to map the Farkas vector back.
    sign = [1] * m
    for i in range(m):
        if rhs[i] < 0:
            sign[i] = -1
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    # Tableau columns: [0..ncols) variables, [ncols..ncols+m) artificials, rhs.
    width = ncols + m + 1
    tab: list[list[int]] = []
    for i in range(m):
        row = rows[i] + [0] * m + [rhs[i]]
        row[ncols + i] = 1
        tab.append(row)
    # Phase-1 reduced cost row for basis = artificials: cost_j = -sum_i A[i][j].
    cost = [0] * width
    for j in range(ncols):
        cost[j] = -sum(tab[i][j] for i in range(m))
    cost[width - 1] = -sum(rhs)

    basis = list(range(ncols, ncols + m))
    den = 1  # tableau denominator: true value = tab[i][j] / den

    while True:
        # Bland: entering = smallest-index variable column with negative cost.
        enter = -1
        for j in range(ncols):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        # Ratio test, ties broken by smallest basis index (Bland).
        leave = -1
        best_num = best_den = 0
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                num = tab[i][width - 1]
                if leave < 0 or num * best_den < best_num * coef or (
                    num * best_den == best_num * coef and basis[i] < basis[leave]
                ):
                    leave, best_num, best_den = i, num, coef
        if leave < 0:
            raise InternalInvariant("phase-1 objective unbounded")
        pivot = tab[leave][enter]
        prow = tab[leave]
        # Integer pivoting: the pivot row is left as-is, every other row and
        # the cost row update by (row*pivot - row[enter]*prow)/den, which is
        # an exact division because all entries are minors of the input.
        for i in range(m + 1):
            row = cost if i == m else tab[i]
            if row is prow:
                continue
            factor = row[enter]
            if den == 1:
                for j in range(width):
                    row[j] = row[j] * pivot - factor * prow[j]
            else:
                for j in range(width):
                    t = row[j] * pivot - factor * prow[j]
                    q, r = divmod(t, den)
                    if r:
                        raise InternalInvariant("integer pivot division not exact")
                    row[j] = q
        den = pivot
        basis[leave] = enter

    objective = Fraction(-cost[width - 1], den)
    if objective == 0:
        x = [Fraction(0)] * ncols
        for i, var in enumerate(basis):
            if var < ncols:
                x[var] = Fraction(tab[i][width - 1], den)
        return FeasibilityResult(True, tuple(x), None)

    # Farkas vector from phase-1 multipliers: u_i = 1 - redcost(artificial_i),
    # mapped back through the per-row sign flips and denominators.
    farkas = tuple(
        Fraction(sign[i] * scales[i]) * (1 - Fraction(cost[ncols + i], den))
        for i in range(m)
    )
    return FeasibilityResult(False, None, farkas)


def verify_feasible(
    a_rows: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    x: Sequence[Fraction],
) -> bool:
    """Whether x >= 0 and Ax = b."""
    if any(v < 0 for v in x):
        return False
    # Zero entries add nothing, and a basic solution has at most len(b) others.
    support = [(j, v) for j, v in enumerate(x) if v]
    for row, rhs in zip(a_rows, b):
        if sum(row[j] * v for j, v in support) != rhs:
            return False
    return True


def verify_farkas(
    a_rows: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    u: Sequence[Fraction],
) -> bool:
    """Whether u.A <= 0 in every column and u.b > 0, which proves Ax = b has
    no solution x >= 0."""
    ncols = len(a_rows[0]) if a_rows else 0
    for j in range(ncols):
        if sum(u[i] * a_rows[i][j] for i in range(len(a_rows))) > 0:
            return False
    return sum(ui * bi for ui, bi in zip(u, b)) > 0
