"""Matroid rank oracles.

Six concrete families (free, uniform, partition, graphic, linear over a
prime field, explicit-by-bases) plus two derived constructions over any
oracle: parallel extension and truncation.  Parallel extensions stay
flat: extending an extension yields one ``ParallelExtension`` over the
same root oracle, whose twin map sends every added element, a twin of a
twin included, straight to its root element, so a rank query costs one
call into the root oracle however many extensions were stacked.
``TwinIds`` holds the rule that names a twin.  Oracles are immutable
after construction; rank queries are memoized per oracle on a canonical
frozenset key.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence


class MatroidError(ValueError):
    """Invalid matroid construction or query outside the ground set."""


class Matroid:
    """Abstract rank oracle over an ordered ground set of string ids."""

    def __init__(self, ground: Sequence[str]):
        ground = tuple(ground)
        self._ground_set = frozenset(ground)
        if len(self._ground_set) != len(ground):
            raise MatroidError("duplicate ground elements: %r" % (ground,))
        self.ground = ground
        self._rank_cache: dict[frozenset, int] = {}

    # -- core queries ----------------------------------------------------

    def rank(self, elems: Iterable[str]) -> int:
        q = frozenset(elems)
        if not q <= self._ground_set:
            raise MatroidError(
                "elements %r not in ground set" % sorted(q - self._ground_set)
            )
        v = self._rank_cache.get(q)
        if v is None:
            v = self._rank(q)
            self._rank_cache[q] = v
        return v

    def _rank(self, q: frozenset) -> int:
        raise NotImplementedError

    def full_rank(self) -> int:
        return self.rank(self._ground_set)

    def is_base(self, elems: Iterable[str]) -> bool:
        q = frozenset(elems)
        return self.rank(q) == len(q) == self.full_rank()

    def span(self, elems: Iterable[str]) -> frozenset:
        """Closure of the given set: all elements whose addition keeps the rank."""
        q = frozenset(elems)
        rq = self.rank(q)
        return frozenset(
            s for s in self.ground if s in q or self.rank(q | {s}) == rq
        )

    # -- derived constructions -------------------------------------------

    def twin_map(self) -> tuple["Matroid", dict[str, str]]:
        """(root oracle, twin -> root element).

        The rank of Q is the root oracle's rank of Q with every twin
        replaced by its root element; an oracle that is no parallel
        extension is its own root and has no twins.
        """
        return self, {}

    def extend_parallel(self, s: str, new_id: str | None = None) -> tuple["Matroid", str]:
        """Add a fresh element parallel to ``s``; returns (new oracle, new id).

        The id defaults to ``TwinIds(ground).name(s)``: s followed by the
        fewest primes (') that make it unused.
        """
        if s not in self._ground_set:
            raise MatroidError("cannot extend parallel to unknown element %r" % s)
        if self.rank({s}) != 1:
            raise MatroidError("cannot extend parallel to the loop %r" % s)
        if new_id is None:
            new_id = TwinIds(self.ground).name(s)
        elif new_id in self._ground_set:
            raise MatroidError("new element id %r already in ground set" % new_id)
        root, twins = self.twin_map()
        return ParallelExtension(root, {**twins, new_id: twins.get(s, s)}), new_id

    def truncate(self, b: int) -> "Matroid":
        if b < 0:
            raise MatroidError("truncation bound must be non-negative")
        return Truncation(self, b)


class TwinIds:
    """The rule that names a twin: s followed by the fewest primes (')
    that make it unused among the ids taken so far.

    An id is a base (the id without its trailing primes) and a prime
    count.  Per base, ``_up`` maps each taken count c to a higher count,
    every count in between being taken: a union-find over the counts, so
    ``name`` finds the first free count above that of s in near-constant
    time and builds one string, where probing s', s'', ... in turn would
    build and hash one string per taken id.

    ``extend_parallel`` names its default id by this rule, and
    ``packing.ReductionState.names`` replays it over a reduction's
    steps.  Along a chain of twins of one stem the ids grow by one prime
    each, O(n^2) characters in all, so the reduction loop calls neither:
    a run's ids are built only when one of them is read.
    """

    def __init__(self, ids: Iterable[str] = ()):
        self._up: dict[str, dict[int, int]] = {}
        for e in ids:
            self.take(e)

    def take(self, e: str) -> None:
        base = e.rstrip("'")
        c = len(e) - len(base)
        self._up.setdefault(base, {})[c] = c + 1

    def name(self, s: str) -> str:
        """The id of a new twin of s; ``take`` marks it used."""
        base = s.rstrip("'")
        up = self._up.get(base, {})
        c = first = len(s) - len(base) + 1
        while c in up:  # path splitting: each count visited skips ahead
            nxt = up[c]
            up[c] = up.get(nxt, nxt)
            c = nxt
        return s + "'" * (c - first + 1)


class ParallelExtension(Matroid):
    """Root oracle plus twins: rank queries rewrite each twin to its root element."""

    def __init__(self, root: Matroid, twins: dict[str, str]):
        self.root = root
        self.twins = twins
        super().__init__(root.ground + tuple(twins))

    def twin_map(self) -> tuple[Matroid, dict[str, str]]:
        return self.root, self.twins

    def _rank(self, q: frozenset) -> int:
        twins = self.twins
        return self.root.rank({twins.get(e, e) for e in q})


class Truncation(Matroid):
    """Derivation layer: rank clamped at the bound."""

    def __init__(self, base: Matroid, bound: int):
        self.base = base
        self.bound = bound
        super().__init__(base.ground)

    def _rank(self, q: frozenset) -> int:
        return min(self.base.rank(q), self.bound)


# -- concrete families -----------------------------------------------------


class FreeMatroid(Matroid):
    def _rank(self, q: frozenset) -> int:
        return len(q)


class UniformMatroid(Matroid):
    def __init__(self, ground: Sequence[str], r: int):
        if r < 0:
            raise MatroidError("uniform rank must be non-negative")
        self.r = r
        super().__init__(ground)

    def _rank(self, q: frozenset) -> int:
        return min(len(q), self.r)


class PartitionMatroid(Matroid):
    """Blocks with per-block caps; rank(Q) = sum of min(|Q ∩ block|, cap)."""

    def __init__(self, blocks: Sequence[tuple[Sequence[str], int]]):
        ground: list[str] = []
        self.blocks: list[tuple[frozenset, int]] = []
        for elems, cap in blocks:
            if cap < 0:
                raise MatroidError("block cap must be non-negative")
            elems = tuple(elems)
            ground.extend(elems)
            self.blocks.append((frozenset(elems), cap))
        super().__init__(ground)  # raises on overlap via duplicate check

    def _rank(self, q: frozenset) -> int:
        return sum(min(len(q & blk), cap) for blk, cap in self.blocks)


class GraphicMatroid(Matroid):
    """Elements are edges of a reference graph; rank by spanning-forest size."""

    def __init__(self, edges: Sequence[tuple[str, object, object]]):
        # edges: (element-id, endpoint, endpoint); self-loops allowed (rank-0 loops)
        self.edges = {e: (u, v) for e, u, v in edges}
        super().__init__([e for e, _, _ in edges])

    def _rank(self, q: frozenset) -> int:
        parent: dict = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        r = 0
        for e in q:
            u, v = self.edges[e]
            for w in (u, v):
                if w not in parent:
                    parent[w] = w
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                r += 1
        return r


# Miller-Rabin with the first thirteen primes as bases decides primality
# for every n below this bound, psi_13 (Sorenson and Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; a MatroidError for n >= _MR_BOUND that
    no base divides, where the base set proves nothing."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_BOUND:
        raise MatroidError("field modulus %d is above the primality test's "
                           "bound %d" % (n, _MR_BOUND))
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class LinearMatroid(Matroid):
    """Column vectors over GF(p); rank by Gaussian elimination mod p."""

    def __init__(self, prime: int, columns: dict[str, Sequence[int]]):
        if not _is_prime(prime):
            raise MatroidError("field modulus %d is not prime" % prime)
        dims = {len(col) for col in columns.values()}
        if len(dims) > 1:
            raise MatroidError("columns have mismatched dimensions")
        self.prime = prime
        self.columns = {e: tuple(c % prime for c in col) for e, col in columns.items()}
        super().__init__(sorted(columns))

    def _rank(self, q: frozenset) -> int:
        p = self.prime
        rows = [list(col) for col in zip(*(self.columns[e] for e in sorted(q)))]
        if not rows:
            return 0
        rank = 0
        ncols = len(rows[0])
        for col in range(ncols):
            piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = pow(rows[rank][col], p - 2, p)
            rows[rank] = [(x * inv) % p for x in rows[rank]]
            for i in range(len(rows)):
                if i != rank and rows[i][col] % p:
                    f = rows[i][col]
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
            rank += 1
        return rank


class ExplicitMatroid(Matroid):
    """Given by the list of its bases; rank(Q) = max over bases of |Q ∩ B|."""

    def __init__(self, ground: Sequence[str], bases: Sequence[Iterable[str]],
                 validate_exchange: bool = False):
        super().__init__(ground)
        self.bases = [frozenset(b) for b in bases]
        if not self.bases:
            raise MatroidError("explicit matroid needs at least one base")
        sizes = {len(b) for b in self.bases}
        if len(sizes) != 1:
            raise MatroidError("listed bases have unequal sizes")
        for b in self.bases:
            if not b <= self._ground_set:
                raise MatroidError("base %r not within ground set" % sorted(b))
        if validate_exchange:
            self._check_exchange()

    def _check_exchange(self) -> None:
        # exponential; opt-in only
        for b1, b2 in itertools.permutations(self.bases, 2):
            for x in b1 - b2:
                if not any((b1 - {x}) | {y} in self.bases for y in b2 - b1):
                    raise MatroidError(
                        "base-exchange fails for %r, %r at %r"
                        % (sorted(b1), sorted(b2), x)
                    )

    def _rank(self, q: frozenset) -> int:
        return max(len(q & b) for b in self.bases)
