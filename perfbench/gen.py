"""Seeded input generators for the benchmark workloads.

These are ports of the audited generators of the test suite, kept here so
that editing a test can never change what the benchmark measures.  They use
only ``random`` and ``fractions`` (no library code), so the inputs a seed
produces do not depend on the code under test.  Each instance is emitted as
the JSON document the library parses; sizes follow a fixed schedule so that
every seed runs the same mix of cells and the seed changes only the numbers.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction


def fmt(value) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def instance_doc(weights, epsilon, lower=None) -> str:
    k = len(weights[0])
    doc = {
        "n": len(weights),
        "k": k,
        "W": [[fmt(w) for w in row] for row in weights],
        "lower": [fmt(v) for v in (lower or [Fraction(0)] * k)],
        "epsilon": fmt(epsilon),
    }
    return json.dumps(doc)


def twosided_doc(w, v, u_a) -> str:
    return json.dumps(
        {"n": len(w), "w": [fmt(x) for x in w], "v": [fmt(x) for x in v], "u_a": fmt(u_a)}
    )


# ---------------------------------------------------------------------------
# The hull-sufficiency conditions, recomputed here only to audit generated
# instances (i_bar, C1, C2 and the pairwise minimum constant).
# ---------------------------------------------------------------------------


def row_sum(row):
    return sum(row)


def pair_minimum(weights, rows=None):
    rows = range(len(weights)) if rows is None else rows
    best = None
    for p, q in itertools.combinations(rows, 2):
        total = sum(min(a, b) for a, b in zip(weights[p], weights[q]))
        if best is None or total < best:
            best = total
    return best


def conditions(weights, eps):
    """(i_bar, c1_ok, c2_ok, sufficient) of an instance with zero lower bounds."""
    n, k = len(weights), len(weights[0])
    i_bar = [i for i in range(n) if row_sum(weights[i]) <= eps]
    outside = [i for i in range(n) if i not in i_bar]
    c1 = c2 = True
    if i_bar:
        peaks = [max(weights[i][j] for i in i_bar) for j in range(k)]
        c1 = all(peaks[j] <= weights[i][j] for i in outside for j in range(k))
        c2 = row_sum(peaks) <= eps
    if not outside:
        lw_ok = True
    elif len(outside) == 1:
        lw_ok = eps <= row_sum(weights[outside[0]])
    else:
        lw_ok = eps <= pair_minimum(weights, outside)
    return i_bar, c1, c2, c1 and c2 and lw_ok


def random_weights(rng: random.Random, n: int, k: int, lo: int, hi: int):
    # Plain ints: the audits above run several times faster than on Fractions.
    return [[rng.randint(lo, hi) for _ in range(k)] for _ in range(n)]


def sufficient_instance(rng: random.Random, n: int, k: int, low_row: bool = False):
    """(weights, eps) whose cut families describe the hull.

    With ``low_row`` the last row is dominated columnwise and epsilon sits at
    or above its sum, so the low-row set is nonempty.
    """
    while True:
        if low_row:
            base = random_weights(rng, n - 1, k, 3, 12)
            crafted = [Fraction(min(row[j] for row in base), 3) for j in range(k)]
            low_sum = row_sum(crafted)
            rowmin = min(row_sum(r) for r in base)
            pm = pair_minimum(base) if n - 1 >= 2 else rowmin
            hi = min(pm, rowmin)
            if not low_sum < hi:
                continue
            eps = low_sum + (hi - low_sum) * Fraction(rng.randint(0, 3), 4)
            if eps >= rowmin:
                continue
            weights = base + [crafted]
            i_bar, _, _, ok = conditions(weights, eps)
            if ok and i_bar:
                return weights, eps
            continue
        weights = random_weights(rng, n, k, 1, 12)
        rowmin = min(row_sum(r) for r in weights)
        pm = pair_minimum(weights) if n >= 2 else rowmin
        eps = min(pm, rowmin) * Fraction(rng.randint(0, 4), 4)
        if eps >= rowmin:
            eps = max(Fraction(0), rowmin - Fraction(1, 2))
        if conditions(weights, eps)[3]:
            return weights, eps


def insufficient_instance(rng: random.Random, n: int, k: int, case: str):
    """(weights, eps) failing one named condition: 'lw', 'c1' or 'c2'."""
    while True:
        if case == "lw":
            weights = random_weights(rng, n, k, 1, 12)
            rowmin = min(row_sum(r) for r in weights)
            pm = pair_minimum(weights)
            if not pm < rowmin:
                continue
            eps = pm + Fraction(rowmin - pm, 2)
            _, c1, c2, ok = conditions(weights, eps)
            if not ok and c1 and c2:
                return weights, eps
        elif case == "c1":
            base = random_weights(rng, n - 1, k, 3, 12)
            eps = min(row_sum(r) for r in base) - 1
            col = rng.randrange(k)
            low = [1] * k
            low[col] = min(row[col] for row in base) + 1
            if row_sum(low) > eps:
                continue
            weights = base + [low]
            _, c1, c2, _ = conditions(weights, eps)
            if not c1 and c2:
                return weights, eps
        else:
            base = random_weights(rng, n - 2, k, 5, 12)
            row1 = [1] * k
            row2 = [1] * k
            row1[0] = rng.randint(3, 5)
            row2[1] = rng.randint(3, 5)
            eps = max(row_sum(row1), row_sum(row2)) + rng.randint(0, 1)
            if row_sum([max(a, b) for a, b in zip(row1, row2)]) <= eps:
                continue
            if min(row_sum(r) for r in base) <= eps:
                continue
            weights = base + [row1, row2]
            if not conditions(weights, eps)[2]:
                return weights, eps


def twosided_data(rng: random.Random, n: int):
    v = [rng.randint(0, 8) for _ in range(n)]
    w = [vi + rng.randint(0, 6) for vi in v]
    u_a = max(w) + rng.randint(0, 5)
    return w, v, u_a or 1


DENOMINATORS = (2, 3, 4, 5)
COMMON = 60  # a multiple of every denominator above


def relaxation_point(weights, eps, z):
    """The LP-relaxation point at z: y_j = max_i w_ij (1 - z_i), with the
    last coordinate topped up to meet the linking row sum(y) >= eps.
    Integer weights and z with denominators dividing COMMON only."""
    slack = [int((1 - zi) * COMMON) for zi in z]
    y = [Fraction(max(row[j] * s for row, s in zip(weights, slack)), COMMON) for j in range(len(weights[0]))]
    deficit = eps - row_sum(y)
    if deficit > 0:
        y[-1] += deficit
    return tuple(y), tuple(z)


def fraction_in(rng: random.Random, lo: int) -> Fraction:
    den = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(lo, den - 1), den)
