"""Exact rational LP: dense two-phase simplex with Bland's rule, and
dual-simplex re-solves after appended inequality rows.

Small and deterministic: pivoting is Bland's rule (guaranteed
termination), and solutions returned are basic, i.e. vertices of the
feasible polyhedron.

The tableau holds Python ints over one common denominator D: the true
entry is T/D, and each basic column holds D in its row (integer-preserving
elimination; Edmonds 1967, Bareiss 1968).  Structural coefficients and
right-hand sides are scaled by the lcm of their denominators; slack and
artificial columns stay +-1, which scales every slack and artificial
variable alike and so changes no ratio test, reduced-cost sign or phase-1
outcome.  A pivot on (r, c) with p = T[r][c] maps every other row to
(T_i*p - T_i[c]*T_r) // D, a division that is exact by Sylvester's
identity, and sets D = p.  A negative p occurs when phase 1 drives a
basic artificial out on a zero row, and on every dual-simplex pivot; the
pivot row is negated first, which negates the whole new tableau and keeps
D > 0.

The reduced costs are one more tableau row R (reduced cost = R/D), built
once per phase as obj*D - sum of c_B*T_i with the costs scaled to ints,
and updated by every pivot like any other row.  Basic columns hold 0 in R.
After phase 1 the artificial columns, and the rows whose artificial stays
basic on a zero row, are dropped: phase 2 may not use them, and the basis
left has the same determinant.

Split rows: when the rows only box every column to [0, 1] and hold the
blocks of a partition of the columns to integer sums by one 0/1 equality
each, the LP splits by block, and its optimum is the d cheapest columns of
each block held to d, ties to the lower index.  That vertex is returned
with no tableau and no pivots.

Warm start (``solve_lp(c, rows, start=previous)``): the optimal tableau
of the previous solve is kept in its result.  Each appended inequality
row, scaled to ints by the lcm of its own denominators and written as
``<=`` with a new basic slack, is eliminated against it as
D*row - sum of row[basis_i]*T_i, which needs no division and keeps D.
The basis stays dual feasible, and dual-simplex pivots under the
smallest-index rule (Bland's rule on the dual, which terminates) restore
primal feasibility or find the row that makes the LP infeasible.  Scaling
one row or one variable by a positive factor changes no ratio test of
either simplex, so the pivots are those of the same rule on the unscaled
rational tableau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_FLIP = {"<=": ">=", ">=": "<=", "=": "="}


@dataclass(frozen=True)
class LpResult:
    status: str
    x: Optional[list] = None
    objective: Optional[Fraction] = None
    pivots: int = 0  # pivots of this solve, phase 1 and drive-outs included
    # the optimal tableau, read by the next solve's ``start``
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
    """T (rows, rhs last), the basis, D, and the reduced-cost row R."""

    __slots__ = ("T", "basis", "D", "R", "n", "c", "cscale", "rows", "pivots")

    def __init__(self, T: list, basis: list, D: int, n: int):
        self.T, self.basis, self.D, self.n = T, basis, D, n
        self.R: list = []
        self.c: list = []
        self.cscale = 1  # the phase-2 R is priced on c times cscale
        self.rows: tuple = ()
        self.pivots = 0

    def pivot(self, r: int, col: int) -> None:
        T, D = self.T, self.D
        pr = T[r]
        if pr[col] < 0:  # negate so that D stays positive
            pr = T[r] = [-b for b in pr]
        p = pr[col]
        for i, row in enumerate(T):
            if i != r:
                f = row[col]
                if f:
                    T[i] = [(a * p - f * b) // D for a, b in zip(row, pr)]
                elif p != D:
                    T[i] = [a * p // D for a in row]
        R = self.R
        if R:
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

    def primal(self, limit: int) -> str:
        """Bland's rule over the columns below limit."""
        T, basis = self.T, self.basis
        while True:
            red = self.R
            col = next((j for j in range(limit) if red[j] < 0), None)
            if col is None:
                return OPTIMAL
            # Bland: smallest ratio T_i[-1]/T_i[col], then smallest basis var
            row = None
            for i, t in enumerate(T):
                a = t[col]
                if a > 0:
                    if row is None:
                        row = i
                        continue
                    lhs, rhs = t[-1] * T[row][col], T[row][-1] * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                        row = i
            if row is None:
                return UNBOUNDED
            self.pivot(row, col)

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

    sense is one of '<=', '>=', '='.  Upper bounds on variables must be
    supplied as ordinary rows.

    Split rows (see the module docstring) are solved with no simplex,
    and their optimum keeps no tableau, so it cannot be a ``start``.

    ``start`` is an optimal result of an earlier simplex solve with the
    same c whose rows are a prefix of ``rows``; the rows past that prefix
    must be inequalities, and the LP is re-solved from the kept tableau by
    dual-simplex pivots.  Any other ``start`` raises ``ValueError``.
    """
    if start is not None:
        return _resolve(c, rows, start)
    n = len(c)
    c = _exact(c)
    split = _split(c, rows)
    if split is not None:
        return split
    norm: list[tuple[list, str]] = []
    for coeffs, sense, rhs in rows:
        entries = _exact([*coeffs, rhs])
        if entries[-1] < 0:  # keep rhs non-negative for phase 1
            entries = [-v for v in entries]
            sense = _FLIP[sense]
        norm.append((entries, sense))
    scale = _lcm(v for entries, _ in norm for v in entries)

    # columns: n structural, then one slack/surplus per inequality, then
    # one artificial per '>='/'=' row
    nslack = sum(1 for _, sense in norm if sense != "=")
    first_art = n + nslack
    ncols = first_art + sum(1 for _, sense in norm if sense != "<=")
    T: list[list[int]] = []
    basis: list[int] = []
    slack, art = n, first_art
    for entries, sense in norm:
        row = _ints(entries, scale)
        row[-1:-1] = [0] * (ncols - n)
        if sense == "<=":
            row[slack] = 1
            basis.append(slack)
        else:
            if sense == ">=":
                row[slack] = -1
            row[art] = 1
            basis.append(art)
            art += 1
        slack += sense != "="
        T.append(row)
    tab = _Tableau(T, basis, 1, n)

    if first_art < ncols:
        tab.price([0] * first_art + [1] * (ncols - first_art))
        tab.primal(ncols)
        if any(row[-1] for row, b in zip(tab.T, basis) if b >= first_art):
            return LpResult(INFEASIBLE, pivots=tab.pivots)
        tab.R = []
        # drive remaining artificials out of the basis where possible
        for i, row in enumerate(tab.T):
            if basis[i] >= first_art:
                col = next((j for j in range(first_art) if row[j] != 0), None)
                if col is not None:
                    tab.pivot(i, col)
        keep = [i for i, b in enumerate(basis) if b < first_art]
        tab.T = [tab.T[i][:first_art] + tab.T[i][-1:] for i in keep]
        tab.basis = [basis[i] for i in keep]

    tab.cscale = _lcm(c)
    tab.price(_ints(c, tab.cscale) + [0] * nslack)
    if tab.primal(first_art) == UNBOUNDED:
        return LpResult(UNBOUNDED, pivots=tab.pivots)
    tab.c, tab.rows = c, _snapshot(rows)
    return tab.result()


def _split(c: list, rows) -> Optional[LpResult]:
    """The optimum of split rows, or None for any other rows."""
    boxed = [False] * len(c)
    blocks = []
    for coeffs, sense, rhs in rows:
        nonzero = len(coeffs) - coeffs.count(0)
        if sense == "<=" and rhs == 1 and nonzero == 1 and 1 in coeffs:
            boxed[coeffs.index(1)] = True
        elif (sense == "=" and coeffs.count(1) == nonzero
              and 0 <= rhs <= nonzero and rhs == int(rhs)):
            blocks.append(([j for j, a in enumerate(coeffs) if a], int(rhs)))
        else:
            return None
    if not all(boxed) or sorted(
            j for support, _ in blocks for j in support) != list(range(len(c))):
        return None
    scale = _lcm(c)
    cost = _ints(c, scale)
    x = [Fraction(0)] * len(c)
    one = Fraction(1)
    chosen = []
    for support, d in blocks:  # support ascends and sorted() is stable
        chosen += sorted(support, key=cost.__getitem__)[:d]
    for j in chosen:
        x[j] = one
    return LpResult(OPTIMAL, x=x,
                    objective=Fraction(sum(cost[j] for j in chosen), scale))


def _resolve(c: Sequence, rows: Sequence, start: LpResult) -> LpResult:
    old = start.tableau
    if start.status != OPTIMAL or not isinstance(old, _Tableau):
        raise ValueError("start is not an optimal simplex result of "
                         "solve_lp: it holds no tableau")
    k = len(old.rows)
    if _exact(c) != old.c or len(rows) < k or _snapshot(rows[:k]) != old.rows:
        raise ValueError("start was solved for other costs or other rows "
                         "than a prefix of these")
    added = rows[k:]
    if any(sense not in ("<=", ">=") or len(coeffs) != old.n
           for coeffs, sense, _ in added):
        raise ValueError("appended rows must be inequalities over %d "
                         "variables" % old.n)
    n, D = old.n, old.D
    width = len(old.R) - 1  # columns before the new slacks
    grow = [0] * len(added)
    tab = _Tableau([row[:-1] + grow + row[-1:] for row in old.T],
                   list(old.basis), D, n)
    tab.R = old.R[:-1] + grow + old.R[-1:]
    tab.cscale = old.cscale
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
    tab.c, tab.rows = old.c, old.rows + _snapshot(added)
    return tab.result()
