import random
from collections import Counter
from fractions import Fraction

import pytest

from arbopack.lp import INFEASIBLE, OPTIMAL, LpResult, solve_lp

UNBOUNDED = "unbounded"  # the reference's own outcome; solve_lp has none


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


def reference_solve_lp(c, rows, start=None):
    """A dense two-phase Fraction tableau under Bland's rule: the test
    oracle, for any rows.

    It re-derives the reduced costs from the basis on every iteration and
    normalizes the pivot row, so it shares no arithmetic with solve_lp.
    With ``start`` (an optimal result of this function or of
    ``reference_split_lp``), the rows past those of ``start`` are appended
    to its tableau, each with a new basic slack, and the LP is re-solved
    by the dual simplex.
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
                if col is not None:
                    tab.pivot(i, col)

    phase2 = c + [Fraction(0)] * (ncols - n)
    if tab.run_simplex(phase2, set(range(ncols)) - arts) == UNBOUNDED:
        return LpResult(UNBOUNDED, pivots=tab.pivots)
    return tab.result()


def reference_split_lp(c, rows):
    """The Fraction tableau of split rows at the basis solve_lp keeps.

    Per block: the d cheapest columns, ties to the lower index, have x
    basic; the marginal one (the d-th cheapest, or the cheapest when
    d = 0) has its slack basic too; every other column has its slack
    basic.  The tableau is found by Gauss-Jordan pivots into that basis on
    the rows as given (one slack per box, in row order); the rows of empty
    blocks are left all zero and dropped.
    """
    n = len(c)
    c = [Fraction(v) for v in c]
    slack = {}
    for coeffs, sense, _ in rows:
        if sense == "<=":
            slack[coeffs.index(1)] = n + len(slack)
    width = n + len(slack)
    T, basic = [], []
    for coeffs, sense, rhs in rows:
        row = [Fraction(v) for v in coeffs] + [Fraction(0)] * len(slack)
        if sense == "<=":
            row[slack[coeffs.index(1)]] = Fraction(1)
        T.append(row + [Fraction(rhs)])
        block = [j for j in range(n) if coeffs[j]]
        if sense == "=" and block:
            order = sorted(block, key=lambda j: (c[j], j))
            mu = order[max(rhs - 1, 0)]
            basic += [mu, slack[mu]]
            basic += [j if i < rhs else slack[j]
                      for i, j in enumerate(order) if j != mu]
    tab = _Reference(c, list(rows), T, [None] * len(T), set())
    for col in basic:
        tab.pivot(next(i for i, b in enumerate(tab.basis)
                       if b is None and T[i][col]), col)
    assert all(not any(row) for row, b in zip(T, tab.basis) if b is None)
    tab.T = [row for row, b in zip(T, tab.basis) if b is not None]
    tab.basis = [b for b in tab.basis if b is not None]
    tab.pivots = 0
    assert min(tab.reduced(c + [Fraction(0)] * (width - n)), default=0) >= 0
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


def random_split_rows(rng, n):
    """Boxes on every column and one 0/1 equality per block of a random
    partition of the columns (empty blocks too), held to 0..|block|."""
    label = [rng.randrange(max(n // 2, 1)) for _ in range(n)]
    rows = [([int(i == j) for i in range(n)], "<=", 1) for j in range(n)]
    for b in range(max(n // 2, 1) + rng.randint(0, 1)):
        block = [j for j in range(n) if label[j] == b]
        rows.append(([int(label[i] == b) for i in range(n)], "=",
                     rng.choice((0, len(block), rng.randint(0, len(block))))))
    rng.shuffle(rows)
    return rows


def random_costs(rng, n):
    """Rational costs with many ties."""
    return [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
            for _ in range(n)]


def random_cut(rng, x):
    """An inequality that cuts x off about half the time; the random rhs
    shift makes some of them empty the feasible set."""
    coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
              for _ in x]
    value = sum(a * v for a, v in zip(coeffs, x))
    shift = Fraction(rng.choice((-6, -1, -1, 0, 1, 1, 6)), rng.choice((1, 2, 4)))
    return coeffs, rng.choice(("<=", ">=")), value + shift


def split_lp_chains(seed, count):
    """(c, split, cuts, results) of random split LPs and 1-4 random cuts:
    results[i] solves the split rows plus the first i cuts, re-solved from
    results[i - 1], until one is infeasible."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 7)
        c = random_costs(rng, n)
        split = random_split_rows(rng, n)
        cuts, results = [], [solve_lp(c, split)]
        for _ in range(rng.randint(1, 4)):
            if results[-1].status != OPTIMAL:
                break
            cuts.append(random_cut(rng, results[-1].x))
            results.append(solve_lp(c, split + cuts, start=results[-1]))
        yield c, split, cuts, results


def test_forced_variable():
    # min x subject to x <= 1 and x = 1
    res = solve_lp([1], [([1], "<=", 1), ([1], "=", 1)])
    assert res.status == OPTIMAL
    assert res.x == [Fraction(1)]
    assert res.objective == 1


def test_infeasible_rhs_exceeds_capacity():
    # x + y = 1 within the boxes, then a cut asks for more than the boxes
    # hold
    rows = [([1, 0], "<=", 1), ([0, 1], "<=", 1), ([1, 1], "=", 1)]
    res = solve_lp([0, 0], rows)
    assert res.status == OPTIMAL
    res = solve_lp([0, 0], rows + [([1, 1], ">=", 3)], start=res)
    assert res.status == INFEASIBLE


def test_two_variables_forced_to_upper_bound():
    res = solve_lp([1, 5], [([1, 0], "<=", 1), ([0, 1], "<=", 1),
                            ([1, 1], "=", 2)])
    assert res.status == OPTIMAL
    assert res.x == [Fraction(1), Fraction(1)]
    assert res.objective == 6


def test_exact_fractional_optimum():
    # min x+y subject to x+y+z = 1, boxes, and the cuts x+2y >= 1 and
    # 2x+y >= 1 that reject the greedy point z = 1
    c = [1, 1, 0]
    rows = [([1, 0, 0], "<=", 1), ([0, 1, 0], "<=", 1), ([0, 0, 1], "<=", 1),
            ([1, 1, 1], "=", 1)]
    res = solve_lp(c, rows)
    assert res.x == [0, 0, 1] and res.objective == 0
    for cut in (([1, 2, 0], ">=", 1), ([2, 1, 0], ">=", 1)):
        rows = rows + [cut]
        res = solve_lp(c, rows, start=res)
        assert res.status == OPTIMAL and res.pivots > 0
    assert res.objective == Fraction(2, 3)
    assert res.x == [Fraction(1, 3)] * 3


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


def test_warm_start_matches_a_cold_solve_on_random_lps():
    # random split LPs (rational costs with ties, d = 0, d = block size,
    # empty blocks), each re-solved after 1-4 random cuts from the split
    # basis: the status and the optimum are those of a cold two-phase
    # solve of all the rows, x is a vertex, and the split basis is dual
    # feasible (reduced costs >= 0 in the tableau solve_lp writes)
    outcomes, pivots = Counter(), 0
    for c, split, cuts, results in split_lp_chains(1207, 900):
        assert results[0].status == OPTIMAL and results[0].pivots == 0
        again = solve_lp(c, split, start=results[0])
        assert again == results[0]
        assert min(again.tableau.R[:-1], default=0) >= 0
        for i, warm in enumerate(results[1:], 1):
            rows = split + cuts[:i]
            cold = reference_solve_lp(c, rows)
            assert (warm.status, warm.objective) == (
                cold.status, cold.objective), (c, rows)
            if warm.status == OPTIMAL:
                assert_basic_feasible(warm.x, rows)
            outcomes[warm.status] += 1
            pivots += warm.pivots
        # all the cuts at once, from the split basis
        once = solve_lp(c, split + cuts, start=results[0])
        assert (once.status, once.objective) == (
            results[-1].status, results[-1].objective)
    assert outcomes[OPTIMAL] > 800 and outcomes[INFEASIBLE] > 450
    assert pivots > 350


def test_matches_the_fraction_tableau_on_random_lps():
    # every re-solve after a cut equals the Fraction tableau's dual
    # simplex under the same rule from the same split basis: status, x,
    # objective and pivots
    outcomes = Counter()
    for c, split, cuts, results in split_lp_chains(20121207, 800):
        ref = reference_split_lp(c, split)
        assert results[0] == ref, (c, split)
        for i, warm in enumerate(results[1:], 1):
            ref = reference_solve_lp(c, split + cuts[:i], start=ref)
            assert warm == ref, (c, split + cuts[:i])
            outcomes[warm.status] += 1
    assert outcomes[OPTIMAL] > 700 and outcomes[INFEASIBLE] > 400


def test_split_rows_take_the_cheapest_columns_without_pivots():
    # the optimum of the Fraction tableau, at a 0/1 vertex that holds the
    # d cheapest columns of each block, ties to the lower index
    rng = random.Random(1985)
    for _ in range(300):
        n = rng.randint(0, 8)
        c = random_costs(rng, n)
        rows = random_split_rows(rng, n)
        res = solve_lp(c, rows)
        assert res.status == OPTIMAL and res.pivots == 0
        assert res.tableau.T is None  # written out by a re-solve only
        assert res.objective == reference_solve_lp(c, rows).objective
        assert_basic_feasible(res.x, rows)
        for coeffs, sense, d in rows:
            if sense == "=":
                block = [j for j in range(n) if coeffs[j]]
                cheap = sorted(block, key=lambda j: (c[j], j))[:d]
                assert [j for j in block if res.x[j]] == sorted(cheap)


def test_rows_that_do_not_split_need_a_start():
    rng = random.Random(1986)
    spoilers = [
        lambda n: ([1] * n, ">=", 1),                          # a cut
        lambda n: ([int(j == 0) for j in range(n)], "<=", 2),  # a wider box
        lambda n: ([int(j == 0) for j in range(n)], "<=", 1),  # a box again
        lambda n: ([2] + [0] * (n - 1), "=", 2),               # coefficient 2
        lambda n: ([1] * n, "=", 1),                           # blocks overlap
        lambda n: ([1] * (n + 1), "=", 1),                     # a long row
    ]
    for spoil in spoilers:
        for _ in range(20):
            n = rng.randint(1, 6)
            rows = random_split_rows(rng, n) + [spoil(n)]
            with pytest.raises(ValueError):
                solve_lp([rng.randint(-3, 3) for _ in range(n)], rows)
    boxes = [([1, 0], "<=", 1), ([0, 1], "<=", 1)]
    for rows in (boxes + [([1, 1], "=", Fraction(1, 2))],  # a fraction
                 boxes + [([1, 0], "=", 1)]):    # a column no equality holds
        with pytest.raises(ValueError):
            solve_lp([1, 2], rows)
    # a block held to more than its size or to a negative sum is split,
    # and infeasible
    for rhs in (3, -1):
        rows = boxes + [([1, 1], "=", rhs)]
        assert solve_lp([1, 2], rows) == LpResult(INFEASIBLE)
        assert reference_solve_lp([1, 2], rows).status == INFEASIBLE


def test_warm_start_rejects_a_bad_start():
    c = [1, 2]
    split = [([1, 0], "<=", 1), ([0, 1], "<=", 1), ([1, 1], "=", 1)]
    res = solve_lp(c, split)
    assert res.status == OPTIMAL and res.x == [1, 0]
    cut = ([0, 1], ">=", Fraction(1, 2))
    again = solve_lp(c, split + [cut], start=res)
    assert again.status == OPTIMAL and again.objective == Fraction(3, 2)
    assert again.pivots > 0
    # a start can be re-used: solving from it does not change it
    assert solve_lp(c, split + [cut], start=res) == again
    assert solve_lp(c, split, start=res) == res
    assert solve_lp(c, split + [cut], start=again) == LpResult(
        OPTIMAL, x=again.x, objective=again.objective, pivots=0)
    bad = [
        ([2, 2], split + [cut], res),                 # other costs
        (c, [([1, 0], "<=", 2)] + split[1:] + [cut], res),  # not a prefix
        (c, split[::-1] + [cut], res),                # the rows reordered
        (c, split[:2], res),                          # fewer rows
        (c, split + [([1, 1], "=", 1)], res),         # an equality appended
        (c, split + [([1], ">=", 0)], res),           # a short row
        (c, split + [([1, 0], ">=", 1)], again),      # another cut before
        (c, split + [cut], LpResult(OPTIMAL, x=res.x, objective=res.objective)),
        (c, split + [cut], solve_lp(c, split + [([1, 1], ">=", 3)], start=res)),
        # a start solved on other split rows
        (c, split + [cut], solve_lp(c, split[:2] + [([1, 1], "=", 2)])),
    ]
    for cost, more, start in bad:
        with pytest.raises(ValueError):
            solve_lp(cost, more, start=start)
    # a split row changed in place after the solve
    split[2][0][0] = 2
    with pytest.raises(ValueError):
        solve_lp(c, split + [cut], start=res)
