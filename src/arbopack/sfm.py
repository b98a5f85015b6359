"""Submodular function minimization over the nonempty sets.

Two engines:

* ``brute`` - exhaustive enumeration, exact, hard cap on the ground size.
  This is the reference oracle.  It walks the nonempty sets in the lex
  order of sorted index tuples, so the first minimum it meets is the
  lex-smallest minimizer.
* ``min-norm-point`` - Fujishige-Wolfe over the base polytope in exact
  arithmetic, so no tolerances exist.  It takes integer-valued objectives
  only, whose greedy vertices are integer vectors; a vertex with another
  entry raises ``ValueError``.  Wolfe keeps the Gram matrix of its point
  set across cycles, solves the affine minimization on it by Bareiss
  elimination, and holds the current point as an integer vector over one
  common denominator.  ``Fraction`` is used only in the line search.  The
  nonempty family is split by smallest index (``by_smallest_index``):
  run v pins v and excludes 0..v-1, on a free ground of n - 1 - v
  indices.  The lex-smallest minimizer starts at the first run that
  reaches the minimum; past that index it costs up to n - 2 more runs,
  so it is computed only when ``SfmResult.minimizer`` is read.

Objectives evaluate on sets of integer ground indices 0..n-1 and return
ints (``brute`` also takes Fractions).  A set handed to an objective may
be one that the lex-smallest minimizer's greedy grows in place, so an
objective reads it during the call and keeps no reference to it.  Every
objective the library builds is integer-valued: separation hands over
its cut objective scaled by the common denominator of the LP point
(``polytope.separate``).
Min-norm-point's pinned runs and the lex-smallest minimizer are handled
by contraction/deletion: pin a set I in and a set E out, minimize the
induced (still submodular) function on the rest.

The library's default engine, ``flow`` (``arbopack.flow``), is no
submodular minimizer, and ``minimize`` rejects it as unknown; but
``check_m_connected`` hands ``by_smallest_index`` one flow per pinned
minimization, so the split and the lex-smallest minimizer are the same
code under ``flow`` and ``min-norm-point``.  Outside ``check_m_connected``
the library minimizes here once: the separation of a fractional LP
point, with arc weights that are the point times its common denominator,
runs ``min-norm-point`` whatever the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd
from operator import mul
from typing import AbstractSet, Callable, Collection

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


class SfmResult:
    """Minimum value and the lex-smallest minimizer of one ``minimize``.

    Given ``find`` instead of a minimizer, the minimizer is computed by
    ``find()`` the first time it is read, so a caller that only needs the
    value never pays for it.
    """

    __slots__ = ("value", "_minimizer", "_find")

    def __init__(self, minimizer: frozenset | None, value,
                 find: Callable[[], frozenset] | None = None):
        self.value = value
        self._minimizer = minimizer
        self._find = find

    @property
    def minimizer(self) -> frozenset:
        if self._find is not None:
            self._minimizer = self._find()
            self._find = None
        return self._minimizer


def minimize(obj: SubmodularObjective, engine: str = "brute") -> SfmResult:
    """Minimize over the nonempty sets with deterministic tie-break.

    The reported minimizer is the lexicographically smallest one in the
    canonical index order (comparing sorted index tuples).
    """
    if obj.n <= 0:
        raise ValueError("empty ground set")
    if obj.family != ("nonempty",):
        raise ValueError("unknown family %r" % (obj.family,))
    if engine == "brute":
        return _minimize_brute(obj)
    if engine == "min-norm-point":
        return by_smallest_index(obj.n, partial(_pinned_min, obj), lambda: obj)
    raise ValueError("unknown engine %r" % engine)


# -- brute engine -------------------------------------------------------------


def _minimize_brute(obj: SubmodularObjective) -> SfmResult:
    n = obj.n
    if n > BRUTE_GROUND_LIMIT:
        raise SfmSizeError(
            "brute engine capped at %d ground elements (got %d)"
            % (BRUTE_GROUND_LIMIT, n)
        )
    evaluate = obj.evaluate
    single = [frozenset((i,)) for i in range(n)]
    best_val = best_set = None

    # Each set is followed by its extensions by larger indices, depth
    # first: that is the lex order of sorted index tuples, so the first
    # minimum met is the lex-smallest minimizer.
    def walk(s: frozenset, lo: int) -> None:
        """Visit s + {j} for each j >= lo, each followed by its own
        extensions."""
        nonlocal best_val, best_set
        for j in range(lo, n):
            t = s | single[j]
            v = evaluate(t)
            if best_val is None or v < best_val:
                best_val, best_set = v, t
            if j < n - 1:
                walk(t, j + 1)

    walk(frozenset(), 0)
    return SfmResult(best_set, best_val)


# -- split by smallest index --------------------------------------------------


def by_smallest_index(n: int, pinned_min, objective) -> SfmResult:
    """Minimum over the nonempty subsets of 0..n-1, and their lex-smallest
    minimizer.

    Run v is ``pinned_min({v}, range(v))``, the min over the sets whose
    smallest index is v (the sink order of Hao and Orlin's minimum cut,
    J. Algorithms 1994), and the value is the least run.
    ``pinned_min(include, exclude)`` is the min over the sets that hold
    ``include`` and miss ``exclude``, or any value above the minimum where
    that min is above it; it reads both during the call only.  The
    minimizer is found the first time it is read, by the greedy from the
    first run that reaches the value; only then is ``objective()``
    called, for the objective the greedy reads.
    """
    if n <= 0:
        raise ValueError("empty ground set")
    runs = [pinned_min(frozenset((v,)), range(v)) for v in range(n)]
    best_val = min(runs)
    return SfmResult(None, best_val, lambda: _canonical_minimizer(
        objective(), best_val, pinned_min, runs.index(best_val)))


def _canonical_minimizer(obj, best_val, pinned_min, first) -> frozenset:
    """Greedy lex-smallest nonempty minimizer via pinned sub-minimizations.

    ``first`` is its smallest index.  Scans the indices after it in
    canonical order; at each step prefers stopping at the current prefix
    (every other index out), then including the index, then skipping it.
    The prefix and the skipped indices are two sets grown in place and
    handed as they are to ``evaluate`` and ``pinned_min``, so a step
    copies neither.
    """
    chosen = {first}
    dropped = set(range(first))
    for i in range(first + 1, obj.n):
        if obj.evaluate(chosen) == best_val:
            break
        chosen.add(i)
        if pinned_min(chosen, dropped) != best_val:
            chosen.remove(i)
            dropped.add(i)
    return frozenset(chosen)


# -- min-norm-point engine -----------------------------------------------------


def _pinned_min(obj: SubmodularObjective, include: AbstractSet[int],
                exclude: Collection[int]):
    """Min of evaluate over {X : include ⊆ X, X ∩ exclude = ∅}.

    Contraction: g(Y) = f(Y ∪ I) - f(I) on the free indices; g stays
    submodular and normalized.  The value is read at the maximal minimizer
    of g, the set where Wolfe's min-norm point is <= 0.
    """
    free = [i for i in range(obj.n) if i not in include and i not in exclude]
    base = obj.evaluate(include)
    if not free:
        return base
    idx = {j: free[j] for j in range(len(free))}

    def g(js: frozenset):
        return obj.evaluate(include | {idx[j] for j in js}) - base

    xn, _ = _wolfe_min_norm(len(free), g, include, exclude)
    return g(frozenset(j for j in range(len(free)) if xn[j] <= 0)) + base


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
