"""Submodular function minimization over the nonempty sets.

Every engine splits the nonempty sets by their smallest index
(``by_smallest_index``): run v minimizes over the sets whose smallest
index is v, the sink order of Hao and Orlin's minimum cut (J. Algorithms
1994).  Those sets are closed under union and intersection, so the
minimizers of a submodular function among them form a lattice, and the
run's smallest minimizer, the intersection of them all, is unique.  The
reported minimizer is that set for the first run, by smallest index,
that reaches the minimum; each engine reads it off the run itself.

Two engines:

* ``brute`` - exhaustive enumeration, exact, hard cap on the ground size.
  This is the reference oracle.  Run v walks the sets that hold v and
  larger indices only, depth first, and intersects (or unites) the sets
  that tie the least value met, starting over at each strict
  improvement.
* ``min-norm-point`` - Fujishige-Wolfe over the base polytope in exact
  arithmetic, so no tolerances exist.  It takes integer-valued objectives
  only, whose greedy vertices are integer vectors; a vertex with another
  entry raises ``ValueError``.  Wolfe keeps the Gram matrix of its point
  set across cycles, solves the affine minimization on it by Bareiss
  elimination, and holds the current point as an integer vector over one
  common denominator.  ``Fraction`` is used only in the line search.  Run
  v contracts v (``_pinned_min``) and minimizes on the free ground of the
  n - 1 - v indices above it; by Fujishige's theorem (1980) the entries
  of the min-norm point x* below 0 are the smallest minimizer there, and
  those at or below 0 the largest.

Objectives evaluate on sets of integer ground indices 0..n-1 and return
ints (``brute`` also takes Fractions).  Every objective the library
builds is integer-valued: separation hands over its cut objective scaled
by the common denominator of the LP point (``polytope.separate``).

The library's default engine, ``flow`` (``arbopack.flow``), is no
submodular minimizer, and ``minimize`` rejects it as unknown; but
``check_m_connected`` hands ``by_smallest_index`` one flow per run, whose
failed search is the run's smallest minimizer, so the rule is the same
code under every engine.  Outside ``check_m_connected`` the library
minimizes here once: the separation of a fractional LP point, with arc
weights that are the point times its common denominator, runs
``min-norm-point`` whatever the engine, and cuts with the largest
minimizer of the same run (``minimize``'s ``largest``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd
from operator import mul
from typing import AbstractSet, Callable

from .graphs import SizeLimitError

BRUTE_GROUND_LIMIT = 24
_MNP_ITER_CAP = 100000


class SfmSizeError(SizeLimitError):
    """The brute engine's ground-size cap was exceeded."""


@dataclass(frozen=True)
class SubmodularObjective:
    """Integer- or rational-valued set function assumed submodular."""

    n: int
    evaluate: Callable[[AbstractSet[int]], object]
    # the only family ``minimize`` takes; a field still, since callers
    # rebuild objectives as type(obj)(obj.n, evaluate, obj.family)
    family: tuple = ("nonempty",)


@dataclass(frozen=True)
class SfmResult:
    """The minimum of one ``by_smallest_index`` and the smallest minimizer
    of the first run that reaches it, or None where that run read none."""

    minimizer: frozenset | None
    value: object


def minimize(obj: SubmodularObjective, engine: str = "brute",
             largest: bool = False) -> SfmResult:
    """Minimize over the nonempty sets, split by smallest index
    (``by_smallest_index``), with that split's minimizer, or with
    ``largest`` the largest minimizer of the same run."""
    if obj.n <= 0:
        raise ValueError("empty ground set")
    if obj.family != ("nonempty",):
        raise ValueError("unknown family %r" % (obj.family,))
    if engine == "brute":
        return _minimize_brute(obj, largest)
    if engine == "min-norm-point":
        return by_smallest_index(obj.n, partial(_pinned_min, obj,
                                                largest=largest))
    raise ValueError("unknown engine %r" % engine)


def by_smallest_index(n: int, run) -> SfmResult:
    """Minimum over the nonempty subsets of 0..n-1, split by smallest index.

    ``run(v)`` returns the min over the sets whose smallest index is v and
    the smallest minimizer of that family; the minimizer may be ``None``
    where the value is above the minimum or the caller reads none (a flow
    that reaches its cap).  The first run with the least value wins.
    """
    if n <= 0:
        raise ValueError("empty ground set")
    best_val, best_set = run(0)
    for v in range(1, n):
        val, least = run(v)
        if val < best_val:
            best_val, best_set = val, least
    return SfmResult(best_set, best_val)


# -- brute engine -------------------------------------------------------------


def _minimize_brute(obj: SubmodularObjective, largest: bool) -> SfmResult:
    n = obj.n
    if n > BRUTE_GROUND_LIMIT:
        raise SfmSizeError(
            "brute engine capped at %d ground elements (got %d)"
            % (BRUTE_GROUND_LIMIT, n)
        )
    evaluate = obj.evaluate
    single = [frozenset((i,)) for i in range(n)]

    def run(v: int):
        best_set = single[v]
        best_val = evaluate(best_set)

        def walk(s: frozenset, lo: int) -> None:
            """Visit s + {j} for each j >= lo, each followed by its own
            extensions."""
            nonlocal best_val, best_set
            for j in range(lo, n):
                t = s | single[j]
                val = evaluate(t)
                if val < best_val:
                    best_val, best_set = val, t
                elif val == best_val:
                    best_set = best_set | t if largest else best_set & t
                if j < n - 1:
                    walk(t, j + 1)

        walk(best_set, v + 1)
        return best_val, best_set

    return by_smallest_index(n, run)


# -- min-norm-point engine -----------------------------------------------------


def _pinned_min(obj: SubmodularObjective, v: int, largest: bool = False):
    """Run v of ``min-norm-point``: the min over the sets whose smallest
    index is v, and their smallest minimizer, or their largest.

    Contraction: g(Y) = f(Y + v) - f({v}) on the free indices above v; g
    stays submodular and normalized, and {v} plus its smallest minimizer,
    the entries of Wolfe's min-norm point below 0 (with ``largest``, at
    or below 0: its largest), is the run's.
    """
    pin = frozenset((v,))
    free = range(v + 1, obj.n)
    base = obj.evaluate(pin)
    if not free:
        return base, pin

    def g(js: frozenset):
        return obj.evaluate(pin | {free[j] for j in js}) - base

    xn, _ = _wolfe_min_norm(len(free), g, pin, range(v))
    found = pin | {free[j] for j, a in enumerate(xn)
                   if a < 0 or largest and a == 0}
    return obj.evaluate(found), found


def _greedy_vertex(n: int, g, w) -> list:
    """Linear minimization over the base polytope of g (Edmonds' greedy).

    The entries are differences of g's own values, so an integer-valued g
    gives an integer vertex.
    """
    order = sorted(range(n), key=lambda i: (w[i], i))
    q = [0] * n
    prev = 0
    s: set = set()
    for i in order:
        s.add(i)
        cur = g(frozenset(s))
        q[i] = cur - prev
        prev = cur
    return q


def _dot(a, b):
    return sum(map(mul, a, b))


def _reduced(row: list) -> list:
    """The int list ``row`` divided by the gcd of its entries."""
    d = gcd(*row)
    return [a // d for a in row] if d > 1 else row


def _blend(un: list, ud, vn: list, vd, theta: Fraction):
    """(1 - theta) u + theta v for u = un/ud and v = vn/vd, over one denominator."""
    a, b = theta.numerator, theta.denominator
    cu, cv = (b - a) * vd, a * ud
    *nums, den = _reduced([cu * p + cv * q for p, q in zip(un, vn)]
                          + [b * ud * vd])
    return nums, den


def _solve_affine(G: list[list]):
    """Coefficients of the min-norm point in the affine hull of S.

    ``G`` is the integer Gram matrix of the points of S.  Solves the
    bordered normal equations [G 1; 1 0] (mu, lambda) = (0, 1) by
    fraction-free (Bareiss) Gauss-Jordan elimination: every row but the
    pivot row becomes (row * p - f * pivot_row) / p', p the pivot and p'
    the one before it, a division that is exact.  Each pivot row then
    reads p * mu[c] = rhs, p the last pivot; columns left of the pivot
    column are read no more and not updated.  Pivoting is in column order
    on the first nonzero entry.  Affinely dependent point sets get
    free coefficients fixed at 0 (any solution of the consistent system is
    a valid affine-minimizer representation).  Returns (numerators,
    denominator), denominator > 0.
    """
    m = len(G)
    A = [row + [1, 0] for row in G]
    A.append([1] * m + [0, 1])
    rows = m + 1
    r = 0
    prev = 1
    pivots = []
    for c in range(m + 1):  # the last column is the right-hand side
        piv = next((i for i in range(r, rows) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        p = A[r][c]
        tail = A[r][c:]
        for i in range(rows):
            if i != r:
                row = A[i]
                f = row[c]
                row[c:] = [(a * p - f * b) // prev
                           for a, b in zip(row[c:], tail)]
        prev = p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    mu = [0] * m
    for i, c in enumerate(pivots):
        if c < m:
            mu[c] = A[i][-1]
    if prev < 0:
        return [-a for a in mu], -prev
    return mu, prev


def _wolfe_min_norm(n: int, g, pinned=(), excluded=()):
    """Exact Wolfe algorithm: min-norm point x* of the base polytope of g.

    Returns a positive multiple of x* as (numerators, denominator),
    denominator > 0.  The minimal minimizer of g is {i : x*_i < 0} and
    the maximal one is {i : x*_i <= 0}.  Points of S are greedy vertices,
    integer vectors of an integer-valued g; a vertex with another entry
    raises ``ValueError``.  x is an integer vector over one denominator and
    the Gram matrix of S is kept across cycles, so ``Fraction`` appears
    only in the line search.  ``pinned`` and ``excluded``, the indices the
    run's family fixes, name the run in the tripwires and that error.
    """
    S: list = []

    def run(cycles: int) -> str:
        return ("free ground %d, pinned %s, excluded %s, major cycles %d, "
                "|S| %d" % (n, sorted(pinned), sorted(excluded), cycles,
                            len(S)))

    def tripwire(what: str, cycles: int) -> RuntimeError:
        return RuntimeError("min-norm-point %s (tripwire): %s"
                            % (what, run(cycles)))

    def vertex(w: list, cycles: int) -> list:
        q = _greedy_vertex(n, g, w)
        if any(type(a) is not int for a in q):
            raise ValueError("min-norm-point takes integer-valued objectives "
                             "only, and a greedy vertex is %s: %s"
                             % ([str(a) for a in q], run(cycles)))
        return q

    q = vertex([0] * n, 0)
    xn, xd = q, 1
    S.append(q)
    G = [[_dot(q, q)]]
    lamn, lamd = [1], 1

    for cycles in range(_MNP_ITER_CAP):
        q = vertex(xn, cycles)
        if _dot(xn, xn) <= xd * _dot(xn, q):
            return xn, xd
        if q in S:
            # x is the affine minimizer of S, so x.q == x.x for every q in S
            # and the test above has already returned
            raise tripwire("greedy vertex already in S", cycles)
        for row, s in zip(G, S):
            row.append(_dot(s, q))
        S.append(q)
        G.append([row[-1] for row in G] + [_dot(q, q)])
        lamn.append(0)
        # minor cycle
        while True:
            mun, mud = _solve_affine(G)
            yn = [_dot(mun, col) for col in zip(*S)]
            if all(a > 0 for a in mun):
                *xn, xd = _reduced(yn + [mud])
                lamn, lamd = mun, mud
                break
            theta = min(
                Fraction(lamn[i] * mud, lamn[i] * mud - mun[i] * lamd)
                for i in range(len(S)) if mun[i] <= 0
            )
            lamn, lamd = _blend(lamn, lamd, mun, mud, theta)
            xn, xd = _blend(xn, xd, yn, mud, theta)
            keep = [i for i in range(len(S)) if lamn[i] > 0]
            S = [S[i] for i in keep]
            G = [[G[i][j] for j in keep] for i in keep]
            lamn = [lamn[i] for i in keep]
    raise tripwire("failed to converge", _MNP_ITER_CAP)
