"""Exact feasibility LP in integers: find x >= 0 with Ax = b, or a Farkas
certificate.

The system comes in as integer rows and an integer right-hand side; callers
clear their own denominators.  Phase-1 simplex with Bland's anti-cycling
rule, so termination is guaranteed.  The tableau stays integer by
fraction-free pivoting (Bareiss 1968): a row the pivot changes is divided by
earlier pivots, which is exact because each entry is a minor of the input,
and that exactness is checked on every updated row.  Each row keeps its own
denominator, so a row the pivot leaves alone is not rewritten.

Both outcomes carry an integer certificate: a feasible result is x / den with
x >= 0 and Ax = b, an infeasible one is u with u.A <= 0 in every column and
u.b > 0.  :func:`verify_feasible` (on the support of x, reading the system by
columns) and :func:`verify_farkas` (by rows) check a certificate against
any integer system, which need not be the one solved.
Nothing here uses ``Fraction``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .core import DimensionMismatch, InternalInvariant


class FeasibilityResult(NamedTuple):
    feasible: bool
    # Numerators of x over ``den`` (> 0), when feasible.
    x: Optional[tuple[int, ...]]
    # u with u.A <= 0 and u.b > 0 for the rows as given, when infeasible.
    farkas: Optional[tuple[int, ...]]
    den: int


def solve_feasibility(
    a_rows: Sequence[Sequence[int]], b: Sequence[int]
) -> FeasibilityResult:
    """Decide whether {x >= 0 : Ax = b} is nonempty, with certificate.

    The rows are read, never modified.
    """
    m = len(a_rows)
    if len(b) != m:
        raise DimensionMismatch("rhs length disagrees with row count")
    ncols = len(a_rows[0]) if m else 0
    if any(len(r) != ncols for r in a_rows):
        raise DimensionMismatch("ragged constraint matrix")

    # Tableau columns: [0..ncols) variables, [ncols..ncols+m) artificials, rhs.
    # Rows with a negative rhs are flipped; the signs map the Farkas vector back.
    width = ncols + m + 1
    sign = [-1 if rhs < 0 else 1 for rhs in b]
    tab: list[list[int]] = []
    for i, (row, rhs) in enumerate(zip(a_rows, b)):
        unit = [0] * m
        unit[i] = 1
        if sign[i] < 0:
            tab.append([-v for v in row] + unit + [-rhs])
        else:
            tab.append(list(row) + unit + [rhs])
    # Phase-1 reduced cost row for basis = artificials: cost_j = -sum_i A[i][j].
    cost = [-sum(col) for col in zip(*tab)] if m else [0] * width
    for i in range(ncols, ncols + m):
        cost[i] = 0

    basis = list(range(ncols, ncols + m))
    # Fraction-free pivoting with one denominator per row: row i stands for
    # tab[i] / dens[i], and tab[i] * den / dens[i] is the integer row that
    # pivoting every row over the common denominator den would hold.  A row
    # whose entering coefficient is zero keeps its integers, so only rows the
    # pivot changes are touched.  Every denominator is a pivot, so positive.
    # The cost row changes at every pivot (its entering entry is negative),
    # so it is always over den.
    dens = [1] * m
    den = 1

    while True:
        # Bland: entering = smallest-index variable column with negative cost.
        enter = -1
        for j in range(ncols):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        # Ratio test, ties broken by smallest basis index (Bland); a row's
        # ratio does not depend on its denominator.
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
        prow = tab[leave]
        pivot = prow[enter]
        prow_den = dens[leave]
        # The common denominator becomes the pivot over it.  Each changed row
        # becomes (row*pivot - row[enter]*prow) * den / (its den * prow_den),
        # the common-denominator row after the pivot; the division is exact
        # because every such entry is a minor.
        new_den = pivot * den // prow_den
        for i in range(m + 1):
            row = cost if i == m else tab[i]
            factor = row[enter]
            if row is prow or not factor:
                continue
            joint = (den if i == m else dens[i]) * prow_den
            g = math.gcd(den, joint)
            mul, div = den // g, joint // g
            new = [v * pivot - factor * p for v, p in zip(row, prow)]
            if div != 1:
                quotients = [v // div for v in new]
                if [q * div for q in quotients] != new:
                    raise InternalInvariant("integer pivot division not exact")
                new = quotients
            if mul != 1:
                new = [v * mul for v in new]
            if i == m:
                cost = new
            else:
                tab[i], dens[i] = new, new_den
        # The pivot row keeps its integers and stands for itself over its
        # own pivot.
        dens[leave] = pivot
        den = new_den
        basis[leave] = enter

    # Answers are read over the common denominator den.
    if cost[width - 1] == 0:
        x = [0] * ncols
        for i, var in enumerate(basis):
            if var < ncols:
                x[var] = tab[i][width - 1] * den // dens[i]
        return FeasibilityResult(True, tuple(x), None, den)

    # Farkas vector from the phase-1 multipliers: den * u_i = den -
    # den * redcost(artificial_i), mapped back through the row flips.
    farkas = tuple(sign[i] * (den - cost[ncols + i]) for i in range(m))
    return FeasibilityResult(False, None, farkas, den)


def verify_feasible(
    columns: Sequence[Sequence[tuple[int, int]]],
    b: Sequence[int],
    support: Sequence[tuple[int, int]],
    den: int,
) -> bool:
    """Whether x / den is nonnegative and solves Ax = b (den > 0), with A
    given by its columns: ``columns[j]`` lists column j's nonzero entries
    as ``(row, value)`` pairs, each row an index of b.  x is given by its
    support: ``(column, multiplier)`` pairs, each multiplier positive and
    each column one of A's; x is 0 elsewhere.  Only the support's columns
    are read."""
    if den <= 0:
        return False
    lhs = [0] * len(b)
    for j, v in support:
        if v <= 0 or not 0 <= j < len(columns):
            return False
        for i, a in columns[j]:
            lhs[i] += a * v
    return lhs == [rhs * den for rhs in b]


def verify_farkas(
    a_rows: Sequence[Sequence[int]], b: Sequence[int], u: Sequence[int]
) -> bool:
    """Whether u.A <= 0 in every column and u.b > 0, which proves Ax = b has
    no solution x >= 0."""
    if len(u) != len(a_rows):
        return False
    totals = [0] * (len(a_rows[0]) if a_rows else 0)
    for ui, row in zip(u, a_rows):
        if ui:
            totals = [t + ui * v for t, v in zip(totals, row)]
    return all(t <= 0 for t in totals) and sum(ui * bi for ui, bi in zip(u, b)) > 0
