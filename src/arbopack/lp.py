"""Exact rational LP: dense two-phase simplex with Bland's rule.

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
identity, and sets D = p.  A negative p occurs only when phase 1 drives a
basic artificial out on a zero row; the pivot row is negated first, which
negates the whole new tableau and keeps D > 0.

The reduced costs are one more tableau row R (reduced cost = R/D), built
once per phase as obj*D - sum of c_B*T_i with the costs scaled to ints,
and updated by every pivot like any other row.  Basic columns hold 0 in R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _exact(values) -> list:
    return [v if isinstance(v, int) else Fraction(v) for v in values]


def _ints(values: list, scale: int) -> list:
    """values times scale, a common multiple of their denominators."""
    return [v.numerator * (scale // v.denominator) for v in values]


def _lcm(values) -> int:
    return math.lcm(*(v.denominator for v in values))


def solve_lp(c: Sequence, rows: Sequence[tuple[Sequence, str, object]]) -> LpResult:
    """Minimize c.x subject to rows (coeffs, sense, rhs) and x >= 0.

    sense is one of '<=', '>=', '='.  Upper bounds on variables must be
    supplied as ordinary rows.
    """
    n = len(c)
    c = _exact(c)
    norm: list[tuple[list, str]] = []
    for coeffs, sense, rhs in rows:
        entries = _exact([*coeffs, rhs])
        if entries[-1] < 0:  # keep rhs non-negative for phase 1
            entries = [-v for v in entries]
            sense = _FLIP[sense]
        norm.append((entries, sense))
    scale = _lcm(v for entries, _ in norm for v in entries)

    m = len(norm)
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
    D = 1

    def pivot(r: int, col: int) -> None:
        nonlocal D
        pr = T[r]
        if pr[col] < 0:  # drive-out only: negate so that D stays positive
            pr = T[r] = [-b for b in pr]
        p = pr[col]
        for i, row in enumerate(T):
            if i != r:
                f = row[col]
                if f:
                    T[i] = [(a * p - f * b) // D for a, b in zip(row, pr)]
                elif p != D:
                    T[i] = [a * p // D for a in row]
        D = p
        basis[r] = col

    def run_simplex(obj: list, limit: int) -> str:
        """Bland's rule over the columns below limit; R rides as T[m]."""
        red = [v * D for v in obj] + [0]
        for i, b in enumerate(basis):
            if obj[b]:
                red = [v - obj[b] * t for v, t in zip(red, T[i])]
        T.append(red)
        try:
            while True:
                red = T[m]
                col = next((j for j in range(limit) if red[j] < 0), None)
                if col is None:
                    return OPTIMAL
                # Bland: smallest ratio T_i[-1]/T_i[col], then smallest basis var
                row = None
                for i in range(m):
                    a = T[i][col]
                    if a > 0:
                        if row is None:
                            row = i
                            continue
                        lhs, rhs = T[i][-1] * T[row][col], T[row][-1] * a
                        if lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                            row = i
                if row is None:
                    return UNBOUNDED
                pivot(row, col)
        finally:
            T.pop()

    if first_art < ncols:
        run_simplex([0] * first_art + [1] * (ncols - first_art), ncols)
        total = sum(T[i][-1] for i in range(m) if basis[i] >= first_art)
        if total != 0:
            return LpResult(INFEASIBLE)
        # drive remaining artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= first_art:
                col = next((j for j in range(first_art) if T[i][j] != 0), None)
                if col is not None:
                    pivot(i, col)

    status = run_simplex(_ints(c, _lcm(c)) + [0] * (ncols - n), first_art)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(T[i][-1], D)
    obj_val = sum(c[j] * x[j] for j in range(n))
    return LpResult(OPTIMAL, x=x, objective=obj_val)
