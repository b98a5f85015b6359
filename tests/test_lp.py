import random
from collections import Counter
from fractions import Fraction

import pytest

from arbopack.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult, solve_lp


class _Reference:
    """The Fraction tableau of one reference solve, kept for ``start``."""

    def __init__(self, c, rows, T, basis, arts):
        self.c, self.rows, self.T, self.basis, self.arts = c, rows, T, basis, arts
        self.pivots = 0

    def pivot(self, row, col):
        T = self.T
        inv = T[row][col]
        T[row] = [v / inv for v in T[row]]
        for i in range(len(T)):
            if i != row and T[i][col] != 0:
                f = T[i][col]
                T[i] = [a - f * b for a, b in zip(T[i], T[row])]
        self.basis[row] = col
        self.pivots += 1

    def reduced(self, obj):
        red = list(obj)
        for i, b in enumerate(self.basis):
            cb = obj[b]
            if cb != 0:
                for j in range(len(red)):
                    red[j] -= cb * self.T[i][j]
        return red

    def run_simplex(self, obj, allowed):
        T, basis = self.T, self.basis
        while True:
            red = self.reduced(obj)
            col = next((j for j in sorted(allowed)
                        if j not in basis and red[j] < 0), None)
            if col is None:
                return OPTIMAL
            ratios = [(T[i][-1] / T[i][col], basis[i], i)
                      for i in range(len(T)) if T[i][col] > 0]
            if not ratios:
                return UNBOUNDED
            self.pivot(min(ratios)[2], col)

    def run_dual(self, obj, allowed):
        """Dual simplex: the negative basic variable of smallest index
        leaves; the allowed column of smallest ratio red_j / -T[r][j], then
        smallest index, enters."""
        T, basis = self.T, self.basis
        while True:
            neg = [(basis[i], i) for i in range(len(T)) if T[i][-1] < 0]
            if not neg:
                return OPTIMAL
            r = min(neg)[1]
            red = self.reduced(obj)
            ratios = [(red[j] / -T[r][j], j) for j in sorted(allowed)
                      if j not in basis and T[r][j] < 0]
            if not ratios:
                return INFEASIBLE
            self.pivot(r, min(ratios)[1])

    def result(self):
        n = len(self.c)
        x = [Fraction(0)] * n
        for i, b in enumerate(self.basis):
            if b < n:
                x[b] = self.T[i][-1]
        return LpResult(OPTIMAL, x=x,
                        objective=sum(self.c[j] * x[j] for j in range(n)),
                        pivots=self.pivots, tableau=self)


def reference_solve_lp(c, rows, events=None, start=None):
    """The dense Fraction tableau that solve_lp replaced: the test oracle.

    It re-derives the reduced costs from the basis on every iteration and
    normalizes the pivot row, so it shares no arithmetic with solve_lp.
    events, a Counter, counts drive-out pivots on a negative entry
    ("negative-drive-out") and artificials left basic on a zero row
    ("redundant-row").  With ``start`` (an optimal result of this
    function), the rows past those of ``start`` are appended to its
    tableau, each with a new basic slack, and the LP is re-solved by the
    dual simplex.
    """
    if start is not None:
        return _reference_resolve(c, rows, start.tableau)
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
    tab = _Reference(c, list(rows), T, basis, arts)

    if arts:
        tab.run_simplex([Fraction(int(j in arts)) for j in range(ncols)],
                        set(range(ncols)))
        if sum(T[i][-1] for i in range(m) if basis[i] in arts) != 0:
            return LpResult(INFEASIBLE, pivots=tab.pivots)
        for i in range(m):
            if basis[i] in arts:
                col = next((j for j in range(ncols)
                            if j not in arts and T[i][j] != 0), None)
                if events is not None:
                    events["redundant-row" if col is None else
                           "negative-drive-out" if T[i][col] < 0 else
                           "positive-drive-out"] += 1
                if col is not None:
                    tab.pivot(i, col)

    phase2 = c + [Fraction(0)] * (ncols - n)
    if tab.run_simplex(phase2, set(range(ncols)) - arts) == UNBOUNDED:
        return LpResult(UNBOUNDED, pivots=tab.pivots)
    return tab.result()


def _reference_resolve(c, rows, old):
    k = len(old.rows)
    assert [Fraction(v) for v in c] == old.c and list(rows[:k]) == old.rows
    ncols = len(old.T[0]) - 1 if old.T else len(c)
    added = rows[k:]
    T = [row[:-1] + [Fraction(0)] * len(added) + row[-1:] for row in old.T]
    basis = list(old.basis)
    for s, (coeffs, sense, rhs) in enumerate(added):
        assert sense in ("<=", ">=")
        sign = 1 if sense == "<=" else -1
        new = [Fraction(sign * v) for v in coeffs]
        new += [Fraction(0)] * (ncols + len(added) - len(new))
        new[ncols + s] = Fraction(1)
        new.append(Fraction(sign * rhs))
        for i, b in enumerate(basis):
            if new[b] != 0:
                f = new[b]
                new = [a - f * t for a, t in zip(new, T[i])]
        T.append(new)
        basis.append(ncols + s)
    tab = _Reference(old.c, list(rows), T, basis, old.arts)
    width = ncols + len(added)
    obj = old.c + [Fraction(0)] * (width - len(old.c))
    if tab.run_dual(obj, set(range(width)) - old.arts) == INFEASIBLE:
        return LpResult(INFEASIBLE, pivots=tab.pivots)
    return tab.result()


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


def _rank(vectors):
    """Rank of a list of Fraction vectors, by Gaussian elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def assert_basic_feasible(x, rows):
    """x >= 0 meets every row, and the rows tight at x with the bounds
    x_j = 0 span the space: x is a vertex."""
    n = len(x)
    assert all(v >= 0 for v in x)
    tight = []
    for coeffs, sense, rhs in rows:
        lhs = sum(Fraction(a) * v for a, v in zip(coeffs, x))
        assert {"<=": lhs <= rhs, ">=": lhs >= rhs, "=": lhs == rhs}[sense]
        if lhs == rhs:
            tight.append([Fraction(a) for a in coeffs])
    tight += [[Fraction(int(i == j)) for i in range(n)]
              for j in range(n) if x[j] == 0]
    assert _rank(tight) == n


def random_cut(rng, x):
    """An inequality that cuts x off about half the time; the random rhs
    shift makes some of them empty the feasible set."""
    coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
              for _ in x]
    value = sum(a * v for a, v in zip(coeffs, x))
    shift = Fraction(rng.choice((-6, -1, -1, 0, 1, 1, 6)), rng.choice((1, 2, 4)))
    return coeffs, rng.choice(("<=", ">=")), value + shift


def test_warm_start_matches_a_cold_solve_on_random_lps():
    # rows appended one at a time and re-solved from the previous result:
    # the status and the optimum are those of a cold solve of all the rows,
    # x is a vertex, and every pivot is the one the Fraction tableau's
    # dual simplex takes under the same rule
    rng = random.Random(1207)
    outcomes, chains = Counter(), 0
    dual_pivots = 0
    for _ in range(500):
        c, rows = random_lp(rng)
        got = solve_lp(c, rows)
        ref = reference_solve_lp(c, rows)
        chains += got.status == OPTIMAL
        while got.status == OPTIMAL and len(rows) < 16:
            rows = rows + [random_cut(rng, got.x)]
            cold = reference_solve_lp(c, rows)
            warm = solve_lp(c, rows, start=got)
            assert warm.status == cold.status, (c, rows)
            assert warm.objective == cold.objective, (c, rows)
            if warm.status == OPTIMAL:
                assert_basic_feasible(warm.x, rows)
            ref = reference_solve_lp(c, rows, start=ref)
            assert warm == ref, (c, rows)
            outcomes[warm.status] += 1
            dual_pivots += warm.pivots
            got = warm
    assert chains > 200
    assert outcomes[OPTIMAL] > 500 and outcomes[INFEASIBLE] > 150
    assert outcomes[UNBOUNDED] == 0
    assert dual_pivots > 300


def random_split_rows(rng, n):
    """Boxes on every column and one 0/1 equality per block of a random
    partition of the columns (empty blocks too), held to 0..|block|."""
    label = [rng.randrange(max(n // 2, 1)) for _ in range(n)]
    rows = [([int(i == j) for i in range(n)], "<=", 1) for j in range(n)]
    for b in range(max(n // 2, 1) + rng.randint(0, 1)):
        block = [j for j in range(n) if label[j] == b]
        rows.append(([int(label[i] == b) for i in range(n)], "=",
                     rng.randint(0, len(block))))
    rng.shuffle(rows)
    return rows


def test_split_rows_take_the_cheapest_columns_without_pivots():
    # the optimum of the Fraction tableau, at a 0/1 vertex that holds the
    # d cheapest columns of each block, ties to the lower index
    rng = random.Random(1985)
    for _ in range(300):
        n = rng.randint(0, 8)
        c = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
             for _ in range(n)]
        rows = random_split_rows(rng, n)
        res = solve_lp(c, rows)
        assert res.status == OPTIMAL and res.pivots == 0
        assert res.tableau is None
        assert res.objective == reference_solve_lp(c, rows).objective
        assert_basic_feasible(res.x, rows)
        for coeffs, sense, d in rows:
            if sense == "=":
                block = [j for j in range(n) if coeffs[j]]
                cheap = sorted(block, key=lambda j: (c[j], j))[:d]
                assert [j for j in block if res.x[j]] == sorted(cheap)


def test_rows_that_do_not_split_run_the_simplex():
    rng = random.Random(1986)
    spoilers = [
        lambda n: ([1] * n, ">=", 1),                          # a cut
        lambda n: ([int(j == 0) for j in range(n)], "<=", 2),  # a wider box
        lambda n: ([2] + [0] * (n - 1), "=", 2),               # coefficient 2
        lambda n: ([1] * n, "=", 1),                           # blocks overlap
    ]
    for spoil in spoilers:
        for _ in range(20):
            n = rng.randint(1, 6)
            c = [rng.randint(-3, 3) for _ in range(n)]
            rows = random_split_rows(rng, n) + [spoil(n)]
            assert solve_lp(c, rows) == reference_solve_lp(c, rows)
    # a block held to more than its size, to a negative sum, or to a
    # fraction
    for rhs in (3, -1, Fraction(1, 2)):
        rows = [([1, 0], "<=", 1), ([0, 1], "<=", 1), ([1, 1], "=", rhs)]
        res = solve_lp([1, 2], rows)
        assert res == reference_solve_lp([1, 2], rows)
        assert (res.status == INFEASIBLE) == (rhs != Fraction(1, 2))
    # a column that no equality holds
    rows = [([1, 0], "<=", 1), ([0, 1], "<=", 1), ([1, 0], "=", 1)]
    assert solve_lp([1, -1], rows) == reference_solve_lp([1, -1], rows)
    assert solve_lp([1, -1], rows).pivots > 0


def test_warm_start_rejects_a_bad_start():
    c = [1, 2]
    rows = [([1, 0], "<=", 1), ([0, 1], "<=", 1), ([1, 1], ">=", 1)]
    res = solve_lp(c, rows)
    assert res.status == OPTIMAL and res.pivots > 0
    cut = ([0, 1], ">=", Fraction(1, 2))
    split = rows[:2] + [([1, 1], "=", 1)]
    again = solve_lp(c, rows + [cut], start=res)
    assert again.status == OPTIMAL and again.objective == Fraction(3, 2)
    # the start can be re-used: solving from it does not change it
    assert solve_lp(c, rows + [cut], start=res) == again
    assert solve_lp(c, rows, start=res) == LpResult(
        OPTIMAL, x=res.x, objective=res.objective, pivots=0)
    bad = [
        ([2, 2], rows + [cut], res),                # other costs
        (c, [([1, 0], "<=", 2)] + rows[1:] + [cut], res),  # not a prefix
        (c, rows[:2], res),                         # fewer rows
        (c, rows + [([1, 1], "=", 1)], res),        # an equality appended
        (c, rows + [([1], ">=", 0)], res),          # a short row
        (c, rows + [cut], LpResult(OPTIMAL, x=res.x, objective=res.objective)),
        (c, rows + [cut], solve_lp(c, rows + [([1, 1], ">=", 3)])),
        (c, rows + [cut], solve_lp([-1], [([0], "<=", 1)])),
        # split rows are solved with no tableau to re-solve from
        (c, split + [cut], solve_lp(c, split)),
    ]
    for cost, more, start in bad:
        with pytest.raises(ValueError):
            solve_lp(cost, more, start=start)
