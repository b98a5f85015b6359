import random
from collections import Counter
from fractions import Fraction

from arbopack.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult, solve_lp


def reference_solve_lp(c, rows, events=None):
    """The dense Fraction tableau that solve_lp replaced: the test oracle.

    It re-derives the reduced costs from the basis on every iteration and
    normalizes the pivot row, so it shares no arithmetic with solve_lp.
    events, a Counter, counts drive-out pivots on a negative entry
    ("negative-drive-out") and artificials left basic on a zero row
    ("redundant-row").
    """
    n = len(c)
    c = [Fraction(v) for v in c]
    norm = []
    for coeffs, sense, rhs in rows:
        coeffs = [Fraction(v) for v in coeffs]
        rhs = Fraction(rhs)
        if rhs < 0:
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
        norm.append((coeffs, sense, rhs))

    m = len(norm)
    slack_cols, art_cols = {}, {}
    ncols = n
    for i, (_, sense, _) in enumerate(norm):
        if sense in ("<=", ">="):
            slack_cols[i] = ncols
            ncols += 1
    for i, (_, sense, _) in enumerate(norm):
        if sense in (">=", "="):
            art_cols[i] = ncols
            ncols += 1
    arts = set(art_cols.values())

    T = [[Fraction(0)] * (ncols + 1) for _ in range(m)]
    basis = [0] * m
    for i, (coeffs, sense, rhs) in enumerate(norm):
        T[i][:n] = coeffs
        T[i][-1] = rhs
        if sense == "<=":
            T[i][slack_cols[i]] = Fraction(1)
            basis[i] = slack_cols[i]
        else:
            if sense == ">=":
                T[i][slack_cols[i]] = Fraction(-1)
            T[i][art_cols[i]] = Fraction(1)
            basis[i] = art_cols[i]

    def pivot(row, col):
        inv = T[row][col]
        T[row] = [v / inv for v in T[row]]
        for i in range(m):
            if i != row and T[i][col] != 0:
                f = T[i][col]
                T[i] = [a - f * b for a, b in zip(T[i], T[row])]
        basis[row] = col

    def run_simplex(obj, allowed):
        while True:
            red = list(obj)
            for i in range(m):
                cb = obj[basis[i]]
                if cb != 0:
                    for j in range(ncols):
                        red[j] -= cb * T[i][j]
            col = next((j for j in sorted(allowed)
                        if j not in basis and red[j] < 0), None)
            if col is None:
                return OPTIMAL
            ratios = [(T[i][-1] / T[i][col], basis[i], i)
                      for i in range(m) if T[i][col] > 0]
            if not ratios:
                return UNBOUNDED
            pivot(min(ratios)[2], col)

    if arts:
        run_simplex([Fraction(int(j in arts)) for j in range(ncols)],
                    set(range(ncols)))
        if sum(T[i][-1] for i in range(m) if basis[i] in arts) != 0:
            return LpResult(INFEASIBLE)
        for i in range(m):
            if basis[i] in arts:
                col = next((j for j in range(ncols)
                            if j not in arts and T[i][j] != 0), None)
                if events is not None:
                    events["redundant-row" if col is None else
                           "negative-drive-out" if T[i][col] < 0 else
                           "positive-drive-out"] += 1
                if col is not None:
                    pivot(i, col)

    phase2 = c + [Fraction(0)] * (ncols - n)
    if run_simplex(phase2, set(range(ncols)) - arts) == UNBOUNDED:
        return LpResult(UNBOUNDED)
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][-1]
    return LpResult(OPTIMAL, x=x, objective=sum(c[j] * x[j] for j in range(n)))


def random_lp(rng):
    """A small LP with rational data, built to hit every simplex branch.

    Zero right-hand sides make degenerate ratio ties, some rows have a
    negative right-hand side, and scaled copies of earlier rows (mixed
    senses, rhs scaled too) leave artificials basic at the end of phase 1
    or force a drive-out pivot on a negative entry.
    """
    n = rng.randint(1, 5)

    def q():
        return Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 4)))

    c = [q() for _ in range(n)]
    rows = []
    for _ in range(rng.randint(0, 5)):
        coeffs = [q() if rng.random() < 0.7 else 0 for _ in range(n)]
        rhs = rng.choice((0, 0, 1, q(), rng.randint(-3, 3)))
        rows.append((coeffs, rng.choice(("<=", "<=", ">=", "=")), rhs))
    for _ in range(rng.choice((0, 0, 1, 2))):
        if rows:
            coeffs, sense, rhs = rng.choice(rows)
            k = Fraction(rng.choice((1, 2, -1, -3)), rng.choice((1, 2)))
            if k < 0:
                sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
            rows.append(([k * v for v in coeffs], sense, k * rhs))
    if rng.random() < 0.6:  # boxes keep most LPs bounded
        rows.extend(([int(i == j) for i in range(n)], "<=", rng.randint(0, 3))
                    for j in range(n))
    rng.shuffle(rows)
    return c, rows


def test_forced_variable():
    # min x subject to x <= 1 and x = 1
    res = solve_lp([1], [([1], "<=", 1), ([1], "=", 1)])
    assert res.status == OPTIMAL
    assert res.x == [Fraction(1)]
    assert res.objective == 1


def test_infeasible_rhs_exceeds_capacity():
    res = solve_lp([0, 0], [([1, 0], "<=", 1), ([0, 1], "<=", 1),
                            ([1, 1], ">=", 3)])
    assert res.status == INFEASIBLE


def test_two_variables_forced_to_upper_bound():
    res = solve_lp([1, 5], [([1, 0], "<=", 1), ([0, 1], "<=", 1),
                            ([1, 1], "=", 2)])
    assert res.status == OPTIMAL
    assert res.x == [Fraction(1), Fraction(1)]
    assert res.objective == 6


def test_unbounded():
    res = solve_lp([-1], [([0], "<=", 1)])
    assert res.status == UNBOUNDED


def test_exact_fractional_optimum():
    # min x+y with x+2y >= 1, 2x+y >= 1, boxes
    res = solve_lp([1, 1], [([1, 0], "<=", 1), ([0, 1], "<=", 1),
                            ([1, 2], ">=", 1), ([2, 1], ">=", 1)])
    assert res.status == OPTIMAL
    assert res.objective == Fraction(2, 3)
    assert res.x == [Fraction(1, 3), Fraction(1, 3)]


def test_negative_rhs_normalization():
    # -x <= -1 is x >= 1
    res = solve_lp([1], [([1], "<=", 2), ([-1], "<=", -1)])
    assert res.status == OPTIMAL
    assert res.x == [Fraction(1)]


def test_matches_the_fraction_tableau_on_random_lps():
    rng = random.Random(20121207)
    outcomes, events = Counter(), Counter()
    for _ in range(2000):
        c, rows = random_lp(rng)
        want = reference_solve_lp(c, rows, events)
        got = solve_lp(c, rows)
        assert got == want, (c, rows)
        outcomes[got.status] += 1
    assert min(outcomes[s] for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)) > 100
    assert events["negative-drive-out"] > 100
    assert events["positive-drive-out"] > 20
    assert events["redundant-row"] > 50
