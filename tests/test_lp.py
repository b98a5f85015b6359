import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from arbopack.lp import INFEASIBLE, OPTIMAL, LpResult, solve_lp

UNBOUNDED = "unbounded"  # the reference's own outcome; solve_lp has none


class _Reference:
    """The dense Fraction tableau of one reference solve, kept for
    ``start``."""

    def __init__(self, c, rows, T, basis):
        self.c, self.rows, self.T, self.basis = c, rows, T, basis
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

    def run_dual(self, obj):
        """Dual simplex: the negative basic variable of smallest index
        leaves; the column of smallest ratio red_j / -T[r][j], then
        smallest index, enters."""
        T, basis = self.T, self.basis
        while True:
            neg = [(basis[i], i) for i in range(len(T)) if T[i][-1] < 0]
            if not neg:
                return OPTIMAL
            r = min(neg)[1]
            red = self.reduced(obj)
            ratios = [(red[j] / -T[r][j], j) for j in range(len(obj))
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


def dense(n, rows, sense):
    """Sparse rows (cols, rhs) written out as dense Fraction rows."""
    return [([Fraction(int(j in cols)) for j in range(n)], sense,
             Fraction(rhs)) for cols, rhs in rows]


def reference_cold_lp(c, blocks, cuts=()):
    """A dense two-phase Fraction tableau under Bland's rule: the test
    oracle, for the boxes 0 <= x <= 1, the equalities ``blocks`` and the
    cuts ``cuts``, all written out dense.

    It re-derives the reduced costs from the basis on every iteration and
    normalizes the pivot row, so it shares no arithmetic with solve_lp.
    """
    n = len(c)
    c = [Fraction(v) for v in c]
    boxes = dense(n, [((j,), 1) for j in range(n)], "<=")
    norm = []
    for coeffs, sense, rhs in boxes + dense(n, blocks, "=") + dense(
            n, cuts, ">="):
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
    tab = _Reference(c, None, T, basis)

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


def reference_solve_lp(c, rows, start=None):
    """solve_lp on a dense Fraction tableau with the same column layout.

    Without ``start``: the tableau of the split basis solve_lp keeps.  Per
    block: the d cheapest columns, ties to the lower index, have x basic;
    the marginal one (the d-th cheapest, or the cheapest when d = 0) has
    its slack basic too; every other column has its slack basic.  The
    tableau is found by Gauss-Jordan pivots into that basis on the boxes
    x_j + s_j = 1, in column order, and the equalities; the rows of empty
    blocks are left all zero and dropped.

    With ``start`` (an optimal result of this function), the cuts past the
    rows of ``start`` are appended to its tableau, each as -x(cols) + s =
    -rhs with a new basic slack s, and the LP is re-solved by the dual
    simplex.
    """
    if start is not None:
        return _reference_resolve(c, rows, start.tableau)
    n = len(c)
    c = [Fraction(v) for v in c]
    # box j is x_j + s_j = 1, s_j the column n + j
    T = [coeffs + coeffs + [rhs]
         for coeffs, _, rhs in dense(n, [((j,), 1) for j in range(n)], "<=")]
    T += [coeffs + [Fraction(0)] * n + [rhs]
          for coeffs, _, rhs in dense(n, rows, "=")]
    basic = []
    for cols, d in rows:
        if cols:
            order = sorted(cols, key=lambda j: (c[j], j))
            mu = order[max(d - 1, 0)]
            basic += [mu, n + mu]
            basic += [j if i < d else n + j
                      for i, j in enumerate(order) if j != mu]
    tab = _Reference(c, list(rows), T, [None] * len(T))
    for col in basic:
        tab.pivot(next(i for i, b in enumerate(tab.basis)
                       if b is None and T[i][col]), col)
    assert all(not any(row) for row, b in zip(T, tab.basis) if b is None)
    tab.T = [row for row, b in zip(T, tab.basis) if b is not None]
    tab.basis = [b for b in tab.basis if b is not None]
    tab.pivots = 0
    assert min(tab.reduced(c + [Fraction(0)] * n), default=0) >= 0
    return tab.result()


def _reference_resolve(c, rows, old):
    k = len(old.rows)
    assert [Fraction(v) for v in c] == old.c and list(rows[:k]) == old.rows
    ncols = len(old.T[0]) - 1 if old.T else 2 * len(c)
    added = rows[k:]
    T = [row[:-1] + [Fraction(0)] * len(added) + row[-1:] for row in old.T]
    basis = list(old.basis)
    for s, (cols, rhs) in enumerate(added):
        new = [Fraction(-int(j in cols)) for j in range(ncols + len(added))]
        new[ncols + s] = Fraction(1)
        new.append(Fraction(-rhs))
        for i, b in enumerate(basis):
            if new[b] != 0:
                f = new[b]
                new = [a - f * t for a, t in zip(new, T[i])]
        T.append(new)
        basis.append(ncols + s)
    tab = _Reference(old.c, list(rows), T, basis)
    obj = old.c + [Fraction(0)] * (ncols + len(added) - len(old.c))
    if tab.run_dual(obj) == INFEASIBLE:
        return LpResult(INFEASIBLE, pivots=tab.pivots)
    return tab.result()


def random_split_rows(rng, n):
    """One equality per block of a random partition of the columns (empty
    blocks too), held to 0..|block|, in random order."""
    label = [rng.randrange(max(n // 2, 1)) for _ in range(n)]
    rows = []
    for b in range(max(n // 2, 1) + rng.randint(0, 1)):
        block = tuple(j for j in range(n) if label[j] == b)
        rows.append((block, rng.choice((0, len(block),
                                        rng.randint(0, len(block))))))
    rng.shuffle(rows)
    return rows


def random_costs(rng, n):
    """Rational costs with many ties."""
    return [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
            for _ in range(n)]


def random_cut(rng, x):
    """A 0/1 cut x(cols) >= rhs with an integer rhs.  Half of them, where
    x leaves some pair x_i + x_j below 1, are such a pair held to 1: on
    pair blocks these make the LP relaxation of 2-SAT, whose optima are
    often fractional.  The others hold random columns and cut x off about
    half the time; their larger rhs shifts make some of them empty the
    feasible set."""
    pairs = [(i, j) for i, j in itertools.combinations(range(len(x)), 2)
             if x[i] + x[j] < 1]
    if pairs and rng.random() < 0.5:
        return rng.choice(pairs), 1
    cols = tuple(j for j in range(len(x)) if rng.random() < 0.5)
    rhs = math.floor(sum(x[j] for j in cols)) + rng.choice((0, 1, 1, 2))
    return cols, min(rhs, len(cols)) if rng.random() < 0.8 else rhs


def split_lp_chains(seed, count):
    """(c, split, cuts, results) of random split LPs and 1-4 random cuts:
    results[i] solves the split rows plus the first i cuts, re-solved from
    results[i - 1], until one is infeasible.  Half the split rows are
    random blocks, half hold pairs of columns to 1."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 7)
        c = random_costs(rng, n)
        if rng.random() < 0.5:
            split = random_split_rows(rng, n)
        else:
            split = [(tuple(range(j, min(j + 2, n))), 1)
                     for j in range(0, n, 2)]
            rng.shuffle(split)
        cuts, results = [], [solve_lp(c, split)]
        for _ in range(rng.randint(1, 4)):
            if results[-1].status != OPTIMAL:
                break
            cuts.append(random_cut(rng, results[-1].x))
            results.append(solve_lp(c, split + cuts, start=results[-1]))
        yield c, split, cuts, results


def test_forced_variable():
    # min x subject to x = 1
    res = solve_lp([1], [((0,), 1)])
    assert res.status == OPTIMAL
    assert res.x == [Fraction(1)]
    assert res.objective == 1


def test_infeasible_rhs_exceeds_capacity():
    # x + y = 1 within the boxes, then a cut asks for more than the boxes
    # hold
    rows = [((0, 1), 1)]
    res = solve_lp([0, 0], rows)
    assert res.status == OPTIMAL
    res = solve_lp([0, 0], rows + [((0, 1), 3)], start=res)
    assert res.status == INFEASIBLE


def test_two_variables_forced_to_upper_bound():
    res = solve_lp([1, 5], [((0, 1), 2)])
    assert res.status == OPTIMAL
    assert res.x == [Fraction(1), Fraction(1)]
    assert res.objective == 6


def test_exact_fractional_optimum():
    # blocks {0, 1} and {2, 3} each sum to 1, and the cuts x0 + x2,
    # x1 + x3, x0 + x3 and x1 + x2 >= 1 leave the one point x = 1/2
    c = [1, 2, 3, 5]
    rows = [((0, 1), 1), ((2, 3), 1)]
    res = solve_lp(c, rows)
    assert res.x == [1, 0, 1, 0] and res.objective == 4
    pivots = 0
    for cut in (((0, 2), 1), ((1, 3), 1), ((0, 3), 1), ((1, 2), 1)):
        rows = rows + [cut]
        res = solve_lp(c, rows, start=res)
        assert res.status == OPTIMAL
        pivots += res.pivots
    assert pivots > 0
    assert res.objective == Fraction(11, 2)
    assert res.x == [Fraction(1, 2)] * 4


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


def assert_basic_feasible(x, blocks, cuts=()):
    """0 <= x <= 1 meets every row, and the rows tight at x with the bounds
    tight at x span the space: x is a vertex."""
    n = len(x)
    assert all(0 <= v <= 1 for v in x)
    tight = [[Fraction(int(i == j)) for i in range(n)]
             for j in range(n) if x[j] in (0, 1)]
    for coeffs, sense, rhs in dense(n, blocks, "=") + dense(n, cuts, ">="):
        lhs = sum(a * v for a, v in zip(coeffs, x))
        assert lhs == rhs if sense == "=" else lhs >= rhs
        if lhs == rhs:
            tight.append(coeffs)
    assert _rank(tight) == n


def test_warm_start_matches_a_cold_solve_on_random_lps():
    # random split LPs (rational costs with ties, d = 0, d = block size,
    # empty blocks, pair blocks), each re-solved after 1-4 random cuts from
    # the split basis: the status and the optimum are those of a cold
    # two-phase solve of all the rows, x is a vertex, and the split basis
    # is dual feasible (reduced costs >= 0 in the tableau solve_lp writes)
    outcomes, pivots = Counter(), 0
    for c, split, cuts, results in split_lp_chains(1207, 900):
        assert results[0].status == OPTIMAL and results[0].pivots == 0
        again = solve_lp(c, split, start=results[0])
        assert again == results[0]
        assert min(again.tableau.R[:-1], default=0) >= 0
        for i, warm in enumerate(results[1:], 1):
            cold = reference_cold_lp(c, split, cuts[:i])
            assert (warm.status, warm.objective) == (
                cold.status, cold.objective), (c, split, cuts[:i])
            if warm.status == OPTIMAL:
                assert_basic_feasible(warm.x, split, cuts[:i])
                outcomes["fractional"] += any(v not in (0, 1) for v in warm.x)
            outcomes[warm.status] += 1
            pivots += warm.pivots
        # all the cuts at once, from the split basis
        once = solve_lp(c, split + cuts, start=results[0])
        assert (once.status, once.objective) == (
            results[-1].status, results[-1].objective)
    assert outcomes[OPTIMAL] > 1000 and outcomes[INFEASIBLE] > 450
    assert outcomes["fractional"] > 35 and pivots > 450


def test_matches_the_fraction_tableau_on_random_lps():
    # every re-solve after a cut equals the Fraction tableau's dual
    # simplex under the same rule from the same split basis: status, x,
    # objective and pivots
    outcomes = Counter()
    for c, split, cuts, results in split_lp_chains(20121207, 800):
        ref = reference_solve_lp(c, split)
        assert results[0] == ref, (c, split)
        for i, warm in enumerate(results[1:], 1):
            ref = reference_solve_lp(c, split + cuts[:i], start=ref)
            assert warm == ref, (c, split + cuts[:i])
            outcomes[warm.status] += 1
            # D > 1: a pivot on an entry other than +-1, exact by Sylvester
            outcomes["D > 1"] += warm.status == OPTIMAL and warm.tableau.D > 1
    assert outcomes[OPTIMAL] > 900 and outcomes[INFEASIBLE] > 400
    assert outcomes["D > 1"] > 35


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
        assert res.objective == reference_cold_lp(c, rows).objective
        assert_basic_feasible(res.x, rows)
        for block, d in rows:
            cheap = sorted(block, key=lambda j: (c[j], j))[:d]
            assert [j for j in block if res.x[j]] == sorted(cheap)


def test_rows_that_do_not_split_need_a_start():
    # a row that does not split the columns (one over all of them, a block
    # again, a block that overlaps another) is read past a start as a cut
    # x(cols) >= rhs, and solved as the cold solve of the split rows plus
    # that cut
    rng = random.Random(1986)
    spoilers = [
        lambda n: (tuple(range(n)), 1),                   # a cut on all
        lambda n: ((0,), 1),                              # a box again
        lambda n: (tuple(range(0, n, 2)), (n + 1) // 2),  # blocks overlap
        lambda n: (tuple(range(n)), n + 1),               # more than n
    ]
    outcomes = Counter()
    for spoil in spoilers:
        for _ in range(20):
            n = rng.randint(1, 6)
            c = [rng.randint(-3, 3) for _ in range(n)]
            split = random_split_rows(rng, n)
            res = solve_lp(c, split)
            cut = spoil(n)
            again = solve_lp(c, split + [cut], start=res)
            cold = reference_cold_lp(c, split, [cut])
            assert (again.status, again.objective) == (
                cold.status, cold.objective), (c, split, cut)
            outcomes[again.status] += 1
    assert outcomes[OPTIMAL] > 20 and outcomes[INFEASIBLE] > 20
    # a block held to more than its size or to a negative sum is
    # infeasible with no start
    for rhs in (3, -1):
        assert solve_lp([1, 2], [((0, 1), rhs)]) == LpResult(INFEASIBLE)
        assert reference_cold_lp([1, 2], [((0, 1), rhs)]).status == INFEASIBLE


def test_warm_start_rejects_a_bad_start():
    c = [1, 2, 3]
    split = [((0, 1), 1), ((2,), 1)]
    res = solve_lp(c, split)
    assert res.status == OPTIMAL and res.x == [1, 0, 1]
    cut = ((1,), 1)
    again = solve_lp(c, split + [cut], start=res)
    assert again.status == OPTIMAL and again.x == [0, 1, 1]
    assert again.objective == 5 and again.pivots > 0
    # a start can be re-used: solving from it does not change it
    assert solve_lp(c, split + [cut], start=res) == again
    assert solve_lp(c, split, start=res) == res
    assert solve_lp(c, split + [cut], start=again) == LpResult(
        OPTIMAL, x=again.x, objective=again.objective, pivots=0)
    bad = [
        ([2, 2, 2], split + [cut], res),              # other costs
        (c, [((0, 1), 2)] + split[1:] + [cut], res),  # not a prefix
        (c, split[::-1] + [cut], res),                # the rows reordered
        (c, split[:1], res),                          # fewer rows
        (c, split + [((0, 3), 1)], res),              # a column past n
        (c, split + [((-1,), 1)], res),               # a negative column
        (c, split + [((0,), 1)], again),              # another cut before
        (c, split + [cut], LpResult(OPTIMAL, x=res.x, objective=res.objective)),
        (c, split + [cut], solve_lp(c, split + [((0, 1), 3)], start=res)),
        # a start solved on other split rows
        (c, split + [cut], solve_lp(c, [((0, 1), 2), ((2,), 1)])),
    ]
    for cost, more, start in bad:
        with pytest.raises(ValueError):
            solve_lp(cost, more, start=start)
