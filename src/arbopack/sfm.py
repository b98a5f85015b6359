"""Submodular function minimization over constrained set families.

Two engines:

* ``brute`` - exhaustive enumeration, exact, hard cap on the ground size.
  This is the reference oracle.
* ``min-norm-point`` - Fujishige-Wolfe over the base polytope with exact
  rational arithmetic throughout (greedy ordering, affine minimization and
  line search all in ``fractions.Fraction``), so no tolerances exist.

Objectives evaluate on frozensets of integer ground indices 0..n-1 and may
return ints or Fractions.  Families beyond "all" are handled by
contraction/deletion: pin a set I in and a set E out, minimize the induced
(still submodular) function on the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

BRUTE_GROUND_LIMIT = 24
_MNP_ITER_CAP = 100000


class SfmSizeError(RuntimeError):
    pass


class SfmContractError(RuntimeError):
    """Non-submodular objective detected in validation mode."""


@dataclass(frozen=True)
class SubmodularObjective:
    """Integer- or rational-valued set function assumed submodular."""

    n: int
    evaluate: Callable[[frozenset], object]
    family: tuple = ("nonempty",)  # ("all",) | ("nonempty",) | ("contains", v) | ("contains-excludes", v, u)


@dataclass(frozen=True)
class SfmResult:
    minimizer: frozenset
    value: object


def _family_pins(obj: SubmodularObjective) -> tuple[frozenset, frozenset] | None:
    """(include, exclude) pins, or None for the nonempty family."""
    fam = obj.family
    if fam[0] == "all":
        return frozenset(), frozenset()
    if fam[0] == "nonempty":
        return None
    if fam[0] == "contains":
        return frozenset({fam[1]}), frozenset()
    if fam[0] == "contains-excludes":
        v, u = fam[1], fam[2]
        if u == v:
            raise ValueError("contains-excludes needs distinct vertices")
        return frozenset({v}), frozenset({u})
    raise ValueError("unknown family %r" % (fam,))


def _lex_key(s: frozenset) -> tuple:
    return tuple(sorted(s))


def minimize(obj: SubmodularObjective, engine: str = "brute",
             validate: bool = False) -> SfmResult:
    """Minimize over the objective's family with deterministic tie-break.

    The reported minimizer is the lexicographically smallest one in the
    canonical index order (comparing sorted index tuples).
    """
    if obj.n <= 0:
        raise ValueError("empty ground set")
    if validate:
        _validate_submodular(obj)
    if engine == "brute":
        return _minimize_brute(obj)
    if engine == "min-norm-point":
        return _minimize_mnp(obj)
    raise ValueError("unknown engine %r" % engine)


# -- brute engine -------------------------------------------------------------


def _minimize_brute(obj: SubmodularObjective) -> SfmResult:
    n = obj.n
    if n > BRUTE_GROUND_LIMIT:
        raise SfmSizeError(
            "brute engine capped at %d ground elements (got %d)"
            % (BRUTE_GROUND_LIMIT, n)
        )
    pins = _family_pins(obj)
    include = frozenset() if pins is None else pins[0]
    exclude = frozenset() if pins is None else pins[1]
    best_val = None
    best_set = None
    # subsets in increasing bit-mask order, each one union of two halves
    half = n // 2
    low = _subsets(range(half))
    for high in _subsets(range(half, n)):
        for part in low:
            s = part | high
            if pins is None and not s:
                continue
            if not include <= s or s & exclude:
                continue
            v = obj.evaluate(s)
            if best_val is None or v < best_val or (
                v == best_val and _lex_key(s) < _lex_key(best_set)
            ):
                best_val, best_set = v, s
    return SfmResult(best_set, best_val)


def _subsets(items) -> list:
    """Every subset of ``items``, the i-th holding the items at the set bits of i."""
    out = [frozenset()]
    for x in items:
        out += [s | {x} for s in out]
    return out


# -- min-norm-point engine -----------------------------------------------------


def _minimize_mnp(obj: SubmodularObjective) -> SfmResult:
    pins = _family_pins(obj)
    if pins is None:
        # nonempty: the maximal minimizer of the unconstrained problem is
        # nonempty unless the empty set is the unique minimizer.
        val, mx = _pinned_min(obj, frozenset(), frozenset())
        if mx:
            best_val = val
        else:
            best_val = min(
                _pinned_min(obj, frozenset({v}), frozenset())[0]
                for v in range(obj.n)
            )
        include, exclude = frozenset(), frozenset()
        nonempty = True
    else:
        include, exclude = pins
        best_val, _ = _pinned_min(obj, include, exclude)
        nonempty = False
    mini = _canonical_minimizer(obj, best_val, include, exclude, nonempty)
    return SfmResult(mini, best_val)


def _canonical_minimizer(obj, best_val, include, exclude, nonempty) -> frozenset:
    """Greedy lex-smallest minimizer via pinned sub-minimizations.

    Scans indices in canonical order; at each step prefers stopping at the
    current prefix, then including the index, then skipping it.
    """
    chosen = set(include)
    dropped = set(exclude)
    for i in range(obj.n):
        if i in chosen or i in dropped:
            continue
        prefix = frozenset(chosen)
        if (prefix or not nonempty) and include <= prefix:
            if obj.evaluate(prefix) == best_val:
                # check the prefix itself is feasible as-is (everything else out)
                return prefix
        v, _ = _pinned_min(obj, frozenset(chosen | {i}), frozenset(dropped))
        if v == best_val:
            chosen.add(i)
        else:
            dropped.add(i)
    return frozenset(chosen)


def _pinned_min(obj: SubmodularObjective, include: frozenset,
                exclude: frozenset):
    """Min of evaluate over {X : include ⊆ X, X ∩ exclude = ∅}.

    Returns (value, maximal minimizer).  Contraction: g(Y) = f(Y ∪ I) - f(I)
    on the free indices; g stays submodular and normalized.
    """
    free = [i for i in range(obj.n) if i not in include and i not in exclude]
    base = obj.evaluate(include)
    if not free:
        return base, frozenset(include)
    idx = {j: free[j] for j in range(len(free))}

    def g(js: frozenset):
        return obj.evaluate(include | {idx[j] for j in js}) - base

    x = _wolfe_min_norm(len(free), g)
    maximal_j = frozenset(j for j in range(len(free)) if x[j] <= 0)
    val = g(maximal_j) + base
    return val, frozenset(include) | frozenset(idx[j] for j in maximal_j)


def _greedy_vertex(n: int, g, w) -> list:
    """Linear minimization over the base polytope of g (Edmonds' greedy)."""
    order = sorted(range(n), key=lambda i: (w[i], i))
    q = [Fraction(0)] * n
    prev = Fraction(0)
    s: set = set()
    for i in order:
        s.add(i)
        cur = Fraction(g(frozenset(s)))
        q[i] = cur - prev
        prev = cur
    return q


def _solve_affine(S: list[list]) -> list:
    """Coefficients of the min-norm point in the affine hull of the rows of S.

    Solves the bordered normal equations exactly; affinely dependent point
    sets get free coefficients fixed at 0 (any solution of the consistent
    system is a valid affine-minimizer representation).
    """
    m = len(S)
    A = [[sum(a * b for a, b in zip(S[i], S[j])) for j in range(m)] + [Fraction(1), Fraction(0)]
         for i in range(m)]
    A.append([Fraction(1)] * m + [Fraction(0), Fraction(1)])
    rows, cols = m + 1, m + 1  # last col is rhs
    r = 0
    pivots = []
    for c in range(cols):
        piv = next((i for i in range(r, rows) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = A[r][c]
        A[r] = [x / inv for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    sol = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        sol[c] = A[i][-1]
    return sol[:m]


def _wolfe_min_norm(n: int, g) -> list:
    """Exact Wolfe algorithm: min-norm point x* of the base polytope of g.

    The minimal minimizer of g is {i : x*_i < 0} and the maximal one is
    {i : x*_i <= 0}.
    """
    x = _greedy_vertex(n, g, [Fraction(0)] * n)
    S = [list(x)]
    lam = [Fraction(1)]
    for _ in range(_MNP_ITER_CAP):
        q = _greedy_vertex(n, g, x)
        xx = sum(a * a for a in x)
        xq = sum(a * b for a, b in zip(x, q))
        if xx <= xq:
            return x
        if q in S:
            return x  # no strict progress possible; x already optimal
        S.append(q)
        lam.append(Fraction(0))
        # minor cycle
        while True:
            mu = _solve_affine(S)
            y = [sum(mu[i] * S[i][j] for i in range(len(S))) for j in range(n)]
            if all(m > 0 for m in mu):
                x, lam = y, mu
                break
            theta = min(
                lam[i] / (lam[i] - mu[i]) for i in range(len(S)) if mu[i] <= 0
            )
            lam = [lam[i] + theta * (mu[i] - lam[i]) for i in range(len(S))]
            x = [a + theta * (b - a) for a, b in zip(x, y)]
            keep = [i for i in range(len(S)) if lam[i] > 0]
            S = [S[i] for i in keep]
            lam = [lam[i] for i in keep]
    raise RuntimeError("min-norm-point failed to converge (tripwire)")


# -- validation ----------------------------------------------------------------


def _validate_submodular(obj: SubmodularObjective, trials: int = 200, seed: int = 0) -> None:
    import random

    rng = random.Random(seed)
    ground = list(range(obj.n))
    for _ in range(trials):
        X = frozenset(v for v in ground if rng.random() < 0.5)
        Y = frozenset(v for v in ground if rng.random() < 0.5)
        lhs = obj.evaluate(X) + obj.evaluate(Y)
        rhs = obj.evaluate(X & Y) + obj.evaluate(X | Y)
        if lhs < rhs:
            raise SfmContractError(
                "submodularity violated at X=%r Y=%r" % (sorted(X), sorted(Y))
            )
