"""Exact rational LP for the cutting-plane loop: split rows solved by a
greedy choice, and dual-simplex re-solves after appended inequality rows.

Split rows box every column to [0, 1], one row ``x_j <= 1`` per column,
and hold the blocks of a partition of the columns to integer sums by one
0/1 equality each.  Without a ``start``, ``solve_lp`` takes only these
rows.  The LP splits by block, and its optimum is the d cheapest columns
of each block held to d, ties to the lower index, found with no pivots.
A block held to a sum below 0 or above its size makes it infeasible.

The optimum keeps its basis.  The columns are the n structural ones, then
one slack per box, in row order.  In each block the marginal column (the
d-th cheapest, or the cheapest when d = 0) has x and its slack basic;
every other chosen column has x basic, and every other unchosen column
its slack.  An empty block's equality 0 = 0 has no basic variable and is
dropped.  The basis is unimodular, so its tableau has entries 0 and +-1
over D = 1, and it is dual feasible: the reduced cost of an unchosen
column is its cost minus the marginal one, and that of a chosen column's
slack is the marginal cost minus the column's, both >= 0.

Re-solve (``solve_lp(c, rows, start=previous)``): a split optimum keeps
its rows as given, with no copy and no tableau, so a run that needs no
re-solve pays for neither.  The first re-solve writes out the split
basis's tableau from them, and each later result keeps its own.  The
tableau holds Python ints over one common denominator D: the true
entry is T/D, and each basic column holds D in its row (integer-preserving
elimination; Edmonds 1967, Bareiss 1968).  The reduced costs are one more
row R (reduced cost = R/D), priced on the costs scaled to ints by the lcm
of their denominators.  Each appended inequality row, scaled to ints by
the lcm of its own denominators and written as ``<=`` with a new basic
slack, is eliminated against the tableau as D*row - sum of
row[basis_i]*T_i, which needs no division and keeps D.  The basis stays
dual feasible, and dual-simplex pivots under the smallest-index rule
(Bland's rule on the dual, which terminates) restore primal feasibility or
find the row that makes the LP infeasible.  The boxes keep every LP
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


def _exact(values) -> list:
    return [v if isinstance(v, (int, Fraction)) else Fraction(v)
            for v in values]


def _ints(values: list, scale: int) -> list:
    """values times scale, a common multiple of their denominators."""
    return [v.numerator * (scale // v.denominator) for v in values]


def _lcm(values) -> int:
    return math.lcm(*(v.denominator for v in values))


class _Tableau:
    """T (rows, rhs last), the basis, D and the reduced-cost row R of the
    rows solved.  A split optimum's tableau has no T: it keeps the rows as
    given, and ``_split_tableau`` writes T out from them when a re-solve
    starts there; a written tableau keeps a snapshot of its rows."""

    __slots__ = ("T", "basis", "D", "R", "n", "c", "cscale", "rows",
                 "pivots")

    def __init__(self, c: list, rows: tuple, T: Optional[list] = None,
                 basis: Sequence = (), D: int = 1):
        self.c, self.n, self.cscale, self.rows = c, len(c), _lcm(c), rows
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


def _snapshot(rows) -> tuple:
    return tuple((tuple(coeffs), sense, rhs) for coeffs, sense, rhs in rows)


def solve_lp(c: Sequence, rows: Sequence[tuple[Sequence, str, object]],
             start: Optional[LpResult] = None) -> LpResult:
    """Minimize c.x subject to rows (coeffs, sense, rhs) and x >= 0.

    sense is one of '<=', '>=', '='.  Without ``start`` the rows must be
    split rows (see the module docstring); any other rows raise
    ``ValueError``.

    ``start`` is an optimal result of an earlier solve with the same c
    whose rows are a prefix of ``rows``; the rows past that prefix must be
    inequalities, and the LP is re-solved from the start's basis by
    dual-simplex pivots.  Any other ``start`` raises ``ValueError``.
    """
    if start is not None:
        return _resolve(c, rows, start)
    c = _exact(c)
    split = _parse(rows, len(c))
    if split is None:
        raise ValueError("without a start, the rows must be split rows: a "
                         "box x_j <= 1 per column and 0/1 equalities that "
                         "partition the columns, with integer sums")
    blocks = split[1]
    if any(not 0 <= d <= len(support) for support, d in blocks):
        return LpResult(INFEASIBLE)
    tab = _Tableau(c, tuple(rows))
    cost = _ints(c, tab.cscale)
    x = [Fraction(0)] * len(c)
    one, total = Fraction(1), 0
    for support, d in blocks:  # support ascends and sorted() is stable
        for j in sorted(support, key=cost.__getitem__)[:d]:
            x[j] = one
            total += cost[j]
    return LpResult(OPTIMAL, x=x, objective=Fraction(total, tab.cscale),
                    tableau=tab)


def _parse(rows, n: int) -> Optional[tuple]:
    """(box, blocks) of split rows: the row of each column's box, and the
    ascending support and the sum of each equality; None for other rows."""
    box: list = [None] * n
    blocks = []
    for i, (coeffs, sense, rhs) in enumerate(rows):
        if len(coeffs) != n:
            return None
        nonzero = n - coeffs.count(0)
        if (sense == "<=" and rhs == 1 and nonzero == 1 and 1 in coeffs
                and box[coeffs.index(1)] is None):
            box[coeffs.index(1)] = i
        elif sense == "=" and coeffs.count(1) == nonzero and rhs == int(rhs):
            blocks.append(([j for j, a in enumerate(coeffs) if a], int(rhs)))
        else:
            return None
    if None in box or sorted(
            j for support, _ in blocks for j in support) != list(range(n)):
        return None
    return box, blocks


def _split_tableau(c: list, rows: tuple) -> _Tableau:
    """The tableau of the split basis (module docstring) of split rows."""
    split = _parse(rows, len(c))
    if split is None:
        raise ValueError("the split rows of start were changed in place")
    n = len(c)
    box, blocks = split
    slack = [0] * n  # column j's slack column, in the order of the boxes
    for s, j in enumerate(sorted(range(n), key=box.__getitem__)):
        slack[j] = n + s
    tab = _Tableau(c, _snapshot(rows))
    cost = _ints(c, tab.cscale)
    T, basis = [], []
    for support, d in blocks:
        if not support:
            continue
        order = sorted(support, key=cost.__getitem__)
        mu = order[max(d - 1, 0)]
        # x_mu + x(unchosen) - s(chosen) = min(d, 1), the equality less the
        # chosen boxes; s_mu's row is box mu less that row
        xrow, srow = [0] * (2 * n + 1), [0] * (2 * n + 1)
        xrow[mu] = srow[slack[mu]] = 1
        xrow[-1] = min(d, 1)
        srow[-1] = 1 - xrow[-1]
        for i, j in enumerate(order):
            if j == mu:
                continue
            row = [0] * (2 * n + 1)
            row[j] = row[slack[j]] = row[-1] = 1
            T.append(row)
            if i < d:
                basis.append(j)
                xrow[slack[j]], srow[slack[j]] = -1, 1
            else:
                basis.append(slack[j])
                xrow[j], srow[j] = 1, -1
        T += [xrow, srow]
        basis += [mu, slack[mu]]
    tab.T, tab.basis = T, basis
    tab.price(cost + [0] * n)
    return tab


def _resolve(c: Sequence, rows: Sequence, start: LpResult) -> LpResult:
    old = start.tableau
    if start.status != OPTIMAL or not isinstance(old, _Tableau):
        raise ValueError("start is not an optimal result of solve_lp: it "
                         "holds no basis")
    n, k = old.n, len(old.rows)
    head = tuple(rows[:k]) if old.T is None else _snapshot(rows[:k])
    if _exact(c) != old.c or len(rows) < k or head != old.rows:
        raise ValueError("start was solved for other costs or other rows "
                         "than a prefix of these")
    added = rows[k:]
    if any(sense not in ("<=", ">=") or len(coeffs) != n
           for coeffs, sense, _ in added):
        raise ValueError("appended rows must be inequalities over %d "
                         "variables" % n)
    if old.T is None:
        old = _split_tableau(old.c, head)
    D = old.D
    width = len(old.R) - 1  # columns before the new slacks
    grow = [0] * len(added)
    tab = _Tableau(old.c, old.rows + _snapshot(added),
                   [row[:-1] + grow + row[-1:] for row in old.T],
                   old.basis, D)
    tab.R = old.R[:-1] + grow + old.R[-1:]
    for s, (coeffs, sense, rhs) in enumerate(added):
        entries = _exact([*coeffs, rhs])
        if sense == ">=":
            entries = [-v for v in entries]
        a = _ints(entries, _lcm(entries))
        new = [D * v for v in a[:n]] + [0] * (width - n) + grow + [D * a[-1]]
        new[width + s] = D
        for row, b in zip(tab.T, tab.basis):
            if b < n and a[b]:
                new = [v - a[b] * t for v, t in zip(new, row)]
        tab.T.append(new)
        tab.basis.append(width + s)
    if tab.dual() == INFEASIBLE:
        return LpResult(INFEASIBLE, pivots=tab.pivots)
    return tab.result()
