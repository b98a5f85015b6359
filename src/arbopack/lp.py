"""Exact rational LP for the cutting-plane loop: the in-degree equalities
solved by a greedy choice, and dual-simplex re-solves after appended cuts.

Every column is boxed to [0, 1] by ``solve_lp`` itself.  Every row is
sparse, ``(cols, rhs)``: the ascending tuple of the columns whose
coefficient is 1, and an integer rhs.  Without a ``start``, the rows are
equalities x(cols) = d whose supports partition the columns.  The LP
splits by block, and its optimum is the d cheapest columns of each
block, ties to the lower index, found with no pivots.  A block held to a
sum below 0 or above its size makes it infeasible.  Each row appended
after a ``start`` is a cut x(cols) >= rhs.

The optimum keeps its basis.  The columns are the n structural ones, then
one box slack per column in column order, then one slack per cut.  In
each block the marginal column (the d-th cheapest, or the cheapest when
d = 0) has x and its slack basic; every other chosen column has x basic,
and every other unchosen column its slack.  An empty block's equality
0 = 0 has no basic variable and is dropped.  The basis is unimodular, so
its tableau has entries 0 and +-1 over D = 1, and it is dual feasible:
the reduced cost of an unchosen column is its cost minus the marginal
one, and that of a chosen column's slack is the marginal cost minus the
column's, both >= 0.

Re-solve (``solve_lp(c, rows, start=previous)``): a split optimum keeps
its rows with no tableau, so a run that needs no re-solve pays for none.
The first re-solve writes out the split basis's tableau from them, and
each later result keeps its own.  The tableau holds Python ints over one
common denominator D: the true entry is T/D, and each basic column holds
D in its row (integer-preserving elimination; Edmonds 1967, Bareiss
1968).  The reduced costs are one more row R (reduced cost = R/D), priced
on the costs scaled to ints by the lcm of their denominators.  Each
appended cut, written as -x(cols) + s = -rhs with a new basic slack s, is
eliminated against the tableau as D*row plus the rows of the basic
columns in cols, which needs no division and keeps D.  The basis stays
dual feasible, and dual-simplex pivots under the smallest-index rule
(Bland's rule on the dual, which terminates) restore primal feasibility or
find the cut that makes the LP infeasible.  The boxes keep every LP
bounded.  A pivot on (r, c), whose entry T[r][c] is negative, negates
row r first, which negates the whole new tableau and keeps D > 0; with
p = -T[r][c] every other row i, R included, becomes
(T_i*p - T_i[c]*T_r) // D, a division that is exact by Sylvester's
identity, and D becomes p.  Scaling one row or one variable by a
positive factor changes no ratio test, so the pivots are those of the
same rule on the unscaled rational tableau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpResult:
    status: str
    x: Optional[list] = None
    objective: Optional[Fraction] = None
    pivots: int = 0  # pivots of this solve
    # the optimal basis and its tableau, read by the next solve's ``start``
    tableau: Optional[object] = field(default=None, compare=False, repr=False)


class _Tableau:
    """T (rows, rhs last), the basis, D and the reduced-cost row R of the
    rows solved, with the costs scaled to ints.  A split optimum's tableau
    has no T, and ``_split_tableau`` writes T out from its rows when a
    re-solve starts there."""

    __slots__ = ("T", "basis", "D", "R", "n", "c", "cost", "cscale", "rows",
                 "pivots")

    def __init__(self, c: list, rows: tuple, T: Optional[list] = None,
                 basis: Sequence = (), D: int = 1):
        self.c, self.n, self.rows = c, len(c), rows
        self.cscale = math.lcm(*(v.denominator for v in c))
        self.cost = [v.numerator * (self.cscale // v.denominator) for v in c]
        self.T, self.basis, self.D = T, list(basis), D
        self.R: list = []
        self.pivots = 0

    def pivot(self, r: int, col: int) -> None:
        T, D = self.T, self.D
        # the dual simplex pivots on a negative entry: negate its row so
        # that D stays positive
        pr = T[r] = [-b for b in T[r]]
        p = pr[col]
        for i, row in enumerate(T):
            if i != r:
                f = row[col]
                if f:
                    T[i] = [(a * p - f * b) // D for a, b in zip(row, pr)]
                elif p != D:
                    T[i] = [a * p // D for a in row]
        R = self.R
        f = R[col]
        if f:
            self.R = [(a * p - f * b) // D for a, b in zip(R, pr)]
        elif p != D:
            self.R = [a * p // D for a in R]
        self.D = p
        self.basis[r] = col
        self.pivots += 1

    def price(self, obj: list) -> None:
        """R for the int cost vector obj (one entry per column)."""
        red = [v * self.D for v in obj] + [0]
        for row, b in zip(self.T, self.basis):
            if obj[b]:
                red = [v - obj[b] * t for v, t in zip(red, row)]
        self.R = red

    def dual(self) -> str:
        """Dual simplex from a dual-feasible basis, smallest-index rule."""
        T, basis = self.T, self.basis
        while True:
            # leaving: the negative basic variable of smallest index
            r = min((i for i, t in enumerate(T) if t[-1] < 0),
                    key=basis.__getitem__, default=None)
            if r is None:
                return OPTIMAL
            # entering: smallest ratio R_j / -T_r[j] over T_r[j] < 0, then
            # smallest column
            red, t = self.R, T[r]
            col = None
            for j in range(len(t) - 1):
                a = t[j]
                if a < 0 and (col is None or red[j] * t[col] > red[col] * a):
                    col = j
            if col is None:
                return INFEASIBLE
            self.pivot(r, col)

    def result(self) -> LpResult:
        x = [Fraction(0)] * self.n
        for row, b in zip(self.T, self.basis):
            if b < self.n:
                x[b] = Fraction(row[-1], self.D)
        # R's last entry is -c.x times cscale * D
        return LpResult(OPTIMAL, x=x,
                        objective=Fraction(-self.R[-1], self.D * self.cscale),
                        pivots=self.pivots, tableau=self)


def solve_lp(c: Sequence, rows: Sequence[tuple[tuple, int]],
             start: Optional[LpResult] = None) -> LpResult:
    """Minimize c.x subject to 0 <= x <= 1 and rows.

    c holds ints or Fractions.  A row is (cols, rhs), cols the ascending
    tuple of the columns whose coefficient is 1 and rhs an int.  Without
    ``start`` the rows are equalities x(cols) = rhs whose supports
    partition the columns (see the module docstring), which is not
    checked.

    ``start`` is an optimal result of an earlier solve with the same c
    whose rows are a prefix of ``rows``; each row past that prefix is a
    cut x(cols) >= rhs, and the LP is re-solved from the start's basis by
    dual-simplex pivots.  Any other ``start`` raises ``ValueError``.
    """
    if start is not None:
        return _resolve(c, rows, start)
    if any(not 0 <= d <= len(cols) for cols, d in rows):
        return LpResult(INFEASIBLE)
    tab = _Tableau(list(c), tuple(rows))
    x = [Fraction(0)] * tab.n
    one, total = Fraction(1), 0
    for cols, d in rows:  # cols ascend and sorted() is stable
        for j in sorted(cols, key=tab.cost.__getitem__)[:d]:
            x[j] = one
            total += tab.cost[j]
    return LpResult(OPTIMAL, x=x, objective=Fraction(total, tab.cscale),
                    tableau=tab)


def _split_tableau(split: _Tableau) -> _Tableau:
    """The tableau of the split basis (module docstring) of a split
    optimum's rows."""
    n, cost = split.n, split.cost
    T, basis = [], []
    for cols, d in split.rows:
        if not cols:
            continue
        order = sorted(cols, key=cost.__getitem__)
        mu = order[max(d - 1, 0)]
        # x_mu + x(unchosen) - s(chosen) = min(d, 1), the equality less the
        # chosen boxes; s_mu's row is box mu less that row
        xrow, srow = [0] * (2 * n + 1), [0] * (2 * n + 1)
        xrow[mu] = srow[n + mu] = 1
        xrow[-1] = min(d, 1)
        srow[-1] = 1 - xrow[-1]
        for i, j in enumerate(order):
            if j == mu:
                continue
            row = [0] * (2 * n + 1)
            row[j] = row[n + j] = row[-1] = 1
            T.append(row)
            if i < d:
                basis.append(j)
                xrow[n + j], srow[n + j] = -1, 1
            else:
                basis.append(n + j)
                xrow[j], srow[j] = 1, -1
        T += [xrow, srow]
        basis += [mu, n + mu]
    tab = _Tableau(split.c, split.rows, T, basis)
    tab.price(cost + [0] * n)
    return tab


def _resolve(c: Sequence, rows: Sequence, start: LpResult) -> LpResult:
    old = start.tableau
    if start.status != OPTIMAL or not isinstance(old, _Tableau):
        raise ValueError("start is not an optimal result of solve_lp: it "
                         "holds no basis")
    n, k = old.n, len(old.rows)
    if list(c) != old.c or tuple(rows[:k]) != old.rows:
        raise ValueError("start was solved for other costs or other rows "
                         "than a prefix of these")
    added = tuple(rows[k:])
    if not all(0 <= j < n for cols, _ in added for j in cols):
        raise ValueError("appended cuts must hold columns of 0..%d"
                         % (n - 1))
    if old.T is None:
        old = _split_tableau(old)
    D = old.D
    width = len(old.R) - 1  # columns before the new slacks
    grow = [0] * len(added)
    tab = _Tableau(old.c, old.rows + added,
                   [row[:-1] + grow + row[-1:] for row in old.T],
                   old.basis, D)
    tab.R = old.R[:-1] + grow + old.R[-1:]
    # x(cols) >= rhs as -x(cols) + s = -rhs, s its new basic slack
    basic = {b: row for row, b in zip(tab.T, tab.basis) if b < n}
    for s, (cols, rhs) in enumerate(added):
        new = [0] * (width + len(added) + 1)
        new[width + s], new[-1] = D, -D * rhs
        for j in cols:
            new[j] = -D
        for j in cols:
            if j in basic:
                new = [v + t for v, t in zip(new, basic[j])]
        tab.T.append(new)
        tab.basis.append(width + s)
    if tab.dual() == INFEASIBLE:
        return LpResult(INFEASIBLE, pivots=tab.pivots)
    return tab.result()
