import itertools
import random
from fractions import Fraction

from mixcuts.exactlp import solve_feasibility, verify_farkas, verify_feasible

from helpers import columns_of, fraction_verify_feasible, scale_rows, support


def solve_scaled(a_rows, b):
    """Clear the system's denominators row by row, then solve it; returns the
    integer system alongside the result."""
    rows, rhs, _ = scale_rows(a_rows, b)
    return rows, rhs, solve_feasibility(rows, rhs)


def brute_force_feasible(a_rows, b):
    """Feasibility by basic-solution enumeration (valid for any polyhedron
    {x >= 0 : Ax = b}: if nonempty it has a basic feasible solution)."""
    m = len(a_rows)
    ncols = len(a_rows[0]) if m else 0
    if all(v == 0 for v in b):
        return True
    for size in range(1, min(m, ncols) + 1):
        for cols in itertools.combinations(range(ncols), size):
            # least-squares-free exact solve: Gaussian elimination on the
            # m x size system, consistent + nonnegative => feasible
            mat = [[a_rows[i][c] for c in cols] + [b[i]] for i in range(m)]
            rank_cols = []
            r = 0
            for c in range(size):
                pivot = next((i for i in range(r, m) if mat[i][c] != 0), None)
                if pivot is None:
                    continue
                mat[r], mat[pivot] = mat[pivot], mat[r]
                inv = 1 / mat[r][c]
                mat[r] = [v * inv for v in mat[r]]
                for i in range(m):
                    if i != r and mat[i][c]:
                        f = mat[i][c]
                        mat[i] = [u - f * v for u, v in zip(mat[i], mat[r])]
                rank_cols.append(c)
                r += 1
            if any(all(v == 0 for v in row[:-1]) and row[-1] != 0 for row in mat):
                continue  # inconsistent
            x = [Fraction(0)] * size
            for idx, c in enumerate(rank_cols):
                x[c] = mat[idx][-1]
            if all(v >= 0 for v in x):
                full = [Fraction(0)] * ncols
                for idx, c in enumerate(cols):
                    full[c] = x[idx]
                if fraction_verify_feasible(a_rows, b, full):
                    return True
    return False


def test_constructed_feasible_systems():
    rng = random.Random(4242)
    for _ in range(60):
        m = rng.randint(1, 4)
        ncols = rng.randint(1, 6)
        a = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(m)
        ]
        x_star = [Fraction(rng.randint(0, 4), rng.randint(1, 2)) for _ in range(ncols)]
        b = [sum(row[j] * x_star[j] for j in range(ncols)) for row in a]
        rows, rhs, res = solve_scaled(a, b)
        assert res.feasible
        assert verify_feasible(columns_of(rows), rhs, support(res.x), res.den)
        x = [Fraction(v, res.den) for v in res.x]
        assert fraction_verify_feasible(a, b, x)


def test_random_systems_certified_and_cross_checked():
    rng = random.Random(777)
    feasible_seen = infeasible_seen = 0
    for _ in range(120):
        m = rng.randint(1, 3)
        ncols = rng.randint(1, 4)
        a = [
            [Fraction(rng.randint(-4, 4)) for _ in range(ncols)] for _ in range(m)
        ]
        b = [Fraction(rng.randint(-6, 6)) for _ in range(m)]
        rows, rhs, res = solve_scaled(a, b)
        if res.feasible:
            feasible_seen += 1
            assert verify_feasible(columns_of(rows), rhs, support(res.x), res.den)
        else:
            infeasible_seen += 1
            assert verify_farkas(rows, rhs, res.farkas)
        assert res.feasible == brute_force_feasible(a, b)
    assert feasible_seen and infeasible_seen


def test_edge_cases():
    res = solve_feasibility([[1]], [0])
    assert res.feasible and res.x == (0,)
    # no columns, nonzero rhs: infeasible with a trivial certificate
    res = solve_feasibility([[], []], [2, -3])
    assert not res.feasible
    assert verify_farkas([[], []], [2, -3], res.farkas)
    # x must be nonnegative: 1*x = -1 infeasible
    res = solve_feasibility([[1]], [-1])
    assert not res.feasible
    assert verify_farkas([[1]], [-1], res.farkas)


def test_farkas_checker_needs_a_positive_product_with_b():
    """u.b must be strictly positive: u = 0, and a nonzero u with u.A <= 0
    and u.b = 0, prove nothing and are rejected, next to a valid u."""
    rows, rhs = [[1, 0], [-1, 0]], [1, -1]
    assert not verify_farkas(rows, rhs, [0, 0])
    assert not verify_farkas(rows, rhs, [1, 1])  # u.A = 0, u.b = 0
    assert not verify_farkas([[1, 2]], [3], [0])
    # the same u proves x_0 = 1, -x_0 = 1 infeasible: u.A = 0, u.b = 2
    assert verify_farkas(rows, [1, 1], [1, 1])


def test_column_checker_equals_the_fraction_check():
    """The checker reads a system by its columns' nonzero entries: on
    random systems and candidate x, feasible or not, it agrees with the
    Fraction check of every row; a row no support column touches must have
    a zero right-hand side; x with a zero, negative or out-of-range entry
    and a nonpositive denominator are rejected."""
    rng = random.Random(4243)
    verdicts = set()
    for _ in range(300):
        m, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(ncols)] for _ in range(m)]
        x = [rng.choice((0, rng.randint(1, 3))) for _ in range(ncols)]
        den = rng.randint(1, 3)
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
        if rng.random() < 0.5:
            rhs = [b * den for b in rhs]
        if rng.random() < 0.3:
            rhs[rng.randrange(m)] += rng.choice((-1, 1)) * den
        got = verify_feasible(columns_of(rows), rhs, support(x), den)
        want = fraction_verify_feasible(rows, rhs, [Fraction(v, den) for v in x])
        assert got == want
        verdicts.add(got)
    assert verdicts == {True, False}
    rows, rhs = [[1, 0], [0, 2]], [3, 0]
    columns = columns_of(rows)
    assert columns == [((0, 1),), ((1, 2),)]
    assert verify_feasible(columns, rhs, [(0, 3)], 1)
    assert not verify_feasible(columns, [3, 1], [(0, 3)], 1)  # row 1 untouched
    assert not verify_feasible(columns, rhs, [(0, 3), (1, 0)], 1)
    assert not verify_feasible(columns, rhs, [(0, 4), (1, -1)], 1)
    assert not verify_feasible(columns, rhs, [(0, 3), (2, 1)], 1)
    assert not verify_feasible(columns, rhs, [(0, 3), (-1, 1)], 1)
    assert not verify_feasible(columns, rhs, [(0, 3)], 0)
