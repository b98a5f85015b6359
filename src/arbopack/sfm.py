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
  entry raises ``ValueError``.  Wolfe keeps one fraction-free (Bareiss)
  factor of G + 11^T, G the Gram matrix of its point set, across cycles
  (``_AffineFactor``): a new point eliminates one row, a minor cycle that
  drops points re-eliminates the rows from the first dropped index on,
  and the affine minimizer's coefficients come by back-substitution.  The
  current point is an integer vector over one common denominator, and
  ``Fraction`` is used only in the line search.  Each greedy vertex reads
  the objective on the prefixes of its order in one call, the objective's
  ``prefixes`` where it has one.  Run v contracts v (``_pinned_min``) and
  minimizes on the free ground of the n - 1 - v indices above it; by
  Fujishige's theorem (1980) the entries of the min-norm point x* below 0
  are the smallest minimizer there, and those at or below 0 the largest,
  and the minimum is x*^-(free), the sum of the entries below 0.  Run v
  is handed the least value of runs 0..v-1, its bar, and stops once it
  proves its minimum is at least the bar: Wolfe's point x lies in the
  base polytope at every cycle, so g(Y) >= x(Y) >= x^-(free), the bound
  of Fujishige and Isotani's stopping gap (Pacific J. Optim. 2011).  A
  run whose minimum is at least the bar can neither go below an earlier
  run nor tie it first, so stopping it changes no result.

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
from typing import AbstractSet, Callable, Optional, Sequence

from .graphs import SizeLimitError

BRUTE_GROUND_LIMIT = 24
_MNP_ITER_CAP = 100000


class SfmSizeError(SizeLimitError):
    """The brute engine's ground-size cap was exceeded."""


@dataclass(frozen=True)
class SubmodularObjective:
    """Integer- or rational-valued set function assumed submodular.

    ``evaluate`` reads the set it is handed and keeps no reference to it:
    on an objective without ``prefixes``, ``min-norm-point`` hands it one
    set that it grows between calls.
    ``prefixes``, optional, gives in one call the values on a chain:
    ``prefixes(start, order)`` is the list of f(start + order[:1]), ...,
    f(start + order[:len(order)]), ``order`` holding distinct indices
    outside ``start``; ``min-norm-point`` reads each greedy vertex with
    one call, and without it evaluates every set of the chain.
    """

    n: int
    evaluate: Callable[[AbstractSet[int]], object]
    # the only family ``minimize`` takes; a field still, since callers
    # rebuild objectives as type(obj)(obj.n, evaluate, obj.family)
    family: tuple = ("nonempty",)
    prefixes: Optional[Callable[[AbstractSet[int], Sequence[int]], list]] = None


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

    ``run(v, bar)`` returns the min over the sets whose smallest index is
    v and the smallest minimizer of that family; the minimizer may be
    ``None`` where the value is above the minimum or the caller reads none
    (a flow that reaches its cap).  ``bar`` is the least value of runs
    0..v-1, None for run 0, and a run that has proved its min is at least
    the bar may return ``(bar, None)`` without finishing (min-norm-point
    does; the flow and brute runs ignore the bar).  The first run with the
    least value wins, and a run that returns the bar ties an earlier run,
    so it never wins.
    """
    if n <= 0:
        raise ValueError("empty ground set")
    best_val, best_set = run(0, None)
    for v in range(1, n):
        val, least = run(v, best_val)
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

    def run(v: int, bar):
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


def _pinned_min(obj: SubmodularObjective, v: int, bar,
                largest: bool = False):
    """Run v of ``min-norm-point``: the min over the sets whose smallest
    index is v, and their smallest minimizer, or their largest; or
    ``(bar, None)`` once the run has proved that min is at least ``bar``.

    Contraction: g(Y) = f(Y + v) - f({v}) on the free indices above v; g
    stays submodular and normalized, and {v} plus its smallest minimizer,
    the entries of Wolfe's min-norm point below 0 (with ``largest``, at
    or below 0: its largest), is the run's.  Each greedy vertex reads g
    on the prefixes of its order in one call of the objective's
    ``prefixes``, or, where it has none, by evaluating one live set that
    grows by one index per step.  The run's value is f({v}) + x*^-(free),
    which Wolfe checks against ``evaluate`` on the reported set.  Wolfe
    stops where f({v}) plus its bound on g reaches ``bar`` (passed on as
    bar - f({v})); then min f >= bar over the run's sets, so the run can
    neither go below an earlier run nor tie it first, and it reads no
    minimizer.
    """
    pin = frozenset((v,))
    shift = v + 1
    base = obj.evaluate(pin)
    if shift == obj.n:
        return base, pin
    prefixes = obj.prefixes or partial(_live_prefixes, obj.evaluate)

    def chain(order):
        return [a - base for a in prefixes(pin, [shift + j for j in order])]

    def found(xn) -> frozenset:
        return pin | {shift + j for j, a in enumerate(xn)
                      if a < 0 or largest and a == 0}

    def read(xn):
        return obj.evaluate(found(xn)) - base

    out = _wolfe_min_norm(obj.n - shift, chain, pin, range(v),
                          None if bar is None else bar - base, read)
    if out is None:
        return bar, None
    xn, xd = out
    return base + _negative(xn) // xd, found(xn)


def _live_prefixes(evaluate, start: AbstractSet[int], order) -> list:
    """f on start + order[:1], ..., start + order[:len(order)], each read
    by ``evaluate`` on one set that grows by one index per step."""
    s = set(start)
    out = []
    for i in order:
        s.add(i)
        out.append(evaluate(s))
    return out


def _greedy_vertex(n: int, chain, w) -> list:
    """Linear minimization over the base polytope of g (Edmonds' greedy).

    ``chain(order)`` gives g on the prefixes order[:1], ..., order[:n] of
    the order of increasing w (ties by index).  The entries are
    differences of g's own values, so an integer-valued g gives an integer
    vertex.
    """
    order = sorted(range(n), key=w.__getitem__)  # stable: ties by index
    q = [0] * n
    prev = 0
    for i, cur in zip(order, chain(order)):
        q[i] = cur - prev
        prev = cur
    return q


def _dot(a, b):
    return sum(map(mul, a, b))


def _negative(xn) -> int:
    """The sum of the entries of ``xn`` below 0."""
    return sum(a for a in xn if a < 0)


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


class _AffineFactor:
    """Fraction-free (Bareiss) factor of G' = G + 11^T, G the Gram matrix
    of Wolfe's point set S, with the right-hand side 1 eliminated along.

    The affine minimizer of S is sum mu_i s_i with G mu + lambda 1 = 0 and
    1^T mu = 1, so G' mu = (1 - lambda) 1 and mu is G'^-1 1 over its sum.
    z^T G' z = |sum z_i s_i|^2 + (sum z_i)^2 vanishes only on an affine
    dependence of S, so G' is positive definite while S is affinely
    independent, and every pivot, a leading principal minor, is positive;
    a pivot <= 0 shows S dependent.

    ``rows[i]`` is row i of G' after i elimination steps, from column i
    on: rows[i][0] is the pivot, rows[i][c - i] the entry in column c.  As
    G' is symmetric, the entry of row i in a new column m equals that of
    row m in column i after i steps, so appending a point eliminates its
    row alone and reads the new column off it.  ``rhs[i]`` is the
    right-hand side of row i after i steps.  Row i depends on the points
    0..i and the columns it holds, so dropping points from index f on
    keeps rows and rhs below f, cut to columns below f, and the points
    from f on are appended again.
    """

    def __init__(self):
        self.rows: list[list] = []
        self.rhs: list = []

    def append(self, new: list) -> int:
        """Add a point whose row of G' against S and itself is ``new``;
        returns its pivot."""
        m = len(self.rows)
        r = new[:]
        b = 1
        prev = 1
        for k, (row, bk) in enumerate(zip(self.rows, self.rhs)):
            p, f = row[0], r[k]
            row.append(f)
            r[k + 1:] = [(p * a - f * u) // prev
                         for a, u in zip(r[k + 1:], row[1:])]
            b = (p * b - f * bk) // prev
            prev = p
        self.rows.append([r[m]])
        self.rhs.append(b)
        return r[m]

    def cut(self, f: int) -> None:
        """Keep the points below index f."""
        del self.rows[f:], self.rhs[f:]
        for i, row in enumerate(self.rows):
            del row[f - i:]

    def solve(self):
        """mu as (numerators, denominator > 0): X = det G' * G'^-1 1 by
        fraction-free back-substitution, each division exact since
        det G' * G'^-1 is the adjugate, and mu = X / sum X."""
        m = len(self.rows)
        det = self.rows[-1][0]
        X = [0] * m
        for i in range(m - 1, -1, -1):
            row = self.rows[i]
            X[i] = (det * self.rhs[i]
                    - _dot(row[1:], X[i + 1:])) // row[0]
        return X, sum(X)


def _wolfe_min_norm(n: int, chain, pinned=(), excluded=(), bar=None,
                    read=None):
    """Exact Wolfe algorithm: min-norm point x* of the base polytope of g.

    Returns x* as (numerators, denominator), denominator > 0, or None
    where ``bar`` stops the run.  The minimal minimizer of g is
    {i : x*_i < 0} and the maximal one is {i : x*_i <= 0}.  Points of S
    are greedy vertices (``_greedy_vertex``, g read through ``chain``),
    integer vectors of an integer-valued g; a vertex with another entry
    raises ``ValueError``.  x is an integer vector over one denominator.
    The Gram matrix of S and its fraction-free factor (``_AffineFactor``)
    are kept across cycles: a new point adds one row, and a minor cycle
    that drops points re-factors from the first dropped index on, so
    ``Fraction`` appears only in the line search.  S stays affinely
    independent, and a pivot <= 0 that says otherwise is a tripwire.
    ``pinned`` and ``excluded``, the indices the run's family fixes, name
    the run in the tripwires and that error.

    With ``bar`` the run returns None at the top of the first major cycle
    where ceil(x^-(free)) >= bar.  There x = xn/xd is a convex combination
    of greedy vertices, so it lies in the base polytope and every
    g(Y) >= x(Y) >= x^-(free); g is integer-valued, so min g >= bar.
    ``read(xn)``, where given, is g read apart from ``chain`` on the set
    the caller reads off the converged point; by Fujishige's theorem it is
    x*^-(free), and a run where it is not trips.
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
        q = _greedy_vertex(n, chain, w)
        if any(type(a) is not int for a in q):
            raise ValueError("min-norm-point takes integer-valued objectives "
                             "only, and a greedy vertex is %s: %s"
                             % ([str(a) for a in q], run(cycles)))
        return q

    def factor_from(i: int, cycles: int) -> None:
        """Append the points of S from index i on to the factor."""
        for j in range(i, len(S)):
            if factor.append([a + 1 for a in G[j][:j + 1]]) <= 0:
                raise tripwire("affinely dependent point set", cycles)

    q = vertex([0] * n, 0)
    xn, xd = q, 1
    S.append(q)
    G = [[_dot(q, q)]]
    factor = _AffineFactor()
    factor_from(0, 0)
    lamn, lamd = [1], 1

    for cycles in range(_MNP_ITER_CAP):
        if bar is not None and -(-_negative(xn) // xd) >= bar:
            return None
        q = vertex(xn, cycles)
        if _dot(xn, xn) <= xd * _dot(xn, q):
            if read is not None and read(xn) * xd != _negative(xn):
                raise tripwire("minimizer value off x*^-(free)", cycles)
            return xn, xd
        if q in S:
            # x is the affine minimizer of S, so x.q == x.x for every q in S
            # and the test above has already returned
            raise tripwire("greedy vertex already in S", cycles)
        for row, s in zip(G, S):
            row.append(_dot(s, q))
        S.append(q)
        G.append([row[-1] for row in G] + [_dot(q, q)])
        factor_from(len(S) - 1, cycles)
        lamn.append(0)
        # minor cycle
        while True:
            mun, mud = factor.solve()
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
            first = next(i for i, a in enumerate(lamn) if a <= 0)
            keep = [i for i in range(len(S)) if lamn[i] > 0]
            S = [S[i] for i in keep]
            G = [[G[i][j] for j in keep] for i in keep]
            lamn = [lamn[i] for i in keep]
            factor.cut(first)
            factor_from(first, cycles)
    raise tripwire("failed to converge", _MNP_ITER_CAP)
