"""Rooted digraph/graph instances and desk-scale counting helpers.

One model, ``RootedInstance``, serves both sides; its links are the arcs
of a ``RootedDigraph`` or the edges of a ``RootedGraph``, and
``tree_vertices`` follows an arc from tail to head only.  Vertices, link
ids and root element ids are strings in I/O.  Parallel links are
first-class through their ids.  Instances are immutable after
construction.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

from .matroid import Matroid

MAX_PARTITION_VERTICES = 12


class InstanceError(ValueError):
    """Malformed instance or query, e.g. unknown ids or empty vertex sets."""


class SizeLimitError(RuntimeError):
    """An enumeration cap was exceeded; raise loudly rather than hang."""


class TheoremViolation(RuntimeError):
    """Tripwire: the algorithm reached a state the proof rules out."""


class RootedInstance:
    """(G, S, pi) plus a matroid oracle on S; links are (id, u, v) triples."""

    directed: bool
    link: str          # "arc" or "edge": the word in errors and JSON keys
    tree_failure: str  # verify_packing's reason for a tree that fails

    def __init__(self, vertices: Sequence[str],
                 links: Sequence[tuple[str, str, str]],
                 roots: Sequence[tuple[str, str]],
                 matroid: Matroid):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InstanceError("duplicate vertex ids")
        vset = set(self.vertices)
        self.links = tuple((a, u, v) for a, u, v in links)
        self.link_map = {a: (u, v) for a, u, v in self.links}
        if len(self.link_map) != len(self.links):
            raise InstanceError("duplicate %s ids" % self.link)
        for a, u, v in self.links:
            if u not in vset or v not in vset:
                raise InstanceError("%s %r has undeclared endpoint" % (self.link, a))
            if u == v:
                raise InstanceError("self-loop %s %r rejected" % (self.link, a))
        self.roots = tuple((e, v) for e, v in roots)
        self.matroid = matroid
        self.placement = dict(self.roots)
        if len(self.placement) != len(self.roots):
            raise InstanceError("duplicate root element ids")
        for e, v in self.roots:
            if v not in vset:
                raise InstanceError("root %r placed at unknown vertex %r" % (e, v))
        if set(self.placement) != set(matroid.ground):
            raise InstanceError("root elements do not match the matroid ground set")
        self._at_vertex: dict[str, frozenset] = {v: frozenset() for v in self.vertices}
        for e, v in self.roots:
            self._at_vertex[v] = self._at_vertex[v] | {e}

    @classmethod
    def with_links(cls, inst: "RootedInstance",
                   links: Iterable[tuple[str, str, str]]) -> "RootedInstance":
        """An instance of this class on ``inst``'s vertices, roots and
        matroid, with the given links, each one of ``inst``'s or one of
        them reversed.

        Nothing is validated again: the vertices, roots, placement, root
        sets and matroid are ``inst``'s own, and only ``links`` and
        ``link_map`` are built.  A support of a point or an orientation
        of a graph is built this way.
        """
        new = cls.__new__(cls)
        new.vertices, new.roots, new.matroid = (inst.vertices, inst.roots,
                                                inst.matroid)
        new.placement, new._at_vertex = inst.placement, inst._at_vertex
        new.links = tuple(links)
        new.link_map = {a: (u, v) for a, u, v in new.links}
        return new

    def elements_at(self, v: str) -> frozenset:
        """S_v: root elements placed at the vertex."""
        return self._at_vertex[v]

    def elements_in(self, X: Iterable[str]) -> frozenset:
        """S_X: root elements placed inside the vertex set."""
        out: frozenset = frozenset()
        for v in X:
            out |= self._at_vertex[v]
        return out


class RootedDigraph(RootedInstance):
    """Digraph with roots: (D, S, pi); its links are arcs (id, tail, head)."""

    directed, link, tree_failure = True, "arc", "not-an-arborescence"
    arcs = property(attrgetter("links"))
    arc_map = property(attrgetter("link_map"))


class RootedGraph(RootedInstance):
    """Undirected counterpart: (G, S, pi); its links are edges (id, u, v)."""

    directed, link, tree_failure = False, "edge", "not-a-tree"
    edges = property(attrgetter("links"))
    edge_map = property(attrgetter("link_map"))


class Partition:
    """Partition of the vertex set into disjoint nonempty blocks."""

    def __init__(self, blocks: Sequence[Iterable[str]], vertices: Sequence[str]):
        self.blocks = tuple(frozenset(b) for b in blocks)
        seen: set = set()
        for b in self.blocks:
            if not b:
                raise InstanceError("empty partition block")
            if b & seen:
                raise InstanceError("overlapping partition blocks")
            seen |= b
        if seen != set(vertices):
            raise InstanceError("partition does not cover the vertex set")

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)


# -- counting ---------------------------------------------------------------


def in_degree(inst: RootedDigraph, X: Iterable[str]) -> int:
    """Number of arcs entering X, with multiplicity."""
    xs = frozenset(X)
    if not xs:
        raise InstanceError("in-degree of the empty set is undefined here")
    if not xs <= set(inst.vertices):
        raise InstanceError("vertex set not within the instance")
    return sum(1 for _, t, h in inst.arcs if h in xs and t not in xs)


def entering_arcs(inst: RootedDigraph, X: Iterable[str]) -> list[str]:
    xs = frozenset(X)
    return [a for a, t, h in inst.arcs if h in xs and t not in xs]


def cross_edges(g: RootedInstance, partition: Partition) -> int:
    """Links with endpoints in distinct blocks, with multiplicity."""
    block_of = {}
    for i, b in enumerate(partition):
        for v in b:
            block_of[v] = i
    return sum(1 for _, u, v in g.links if block_of[u] != block_of[v])


def tree_vertices(ids: Iterable[str], inst: RootedInstance,
                  root: str) -> Optional[frozenset]:
    """The vertices of the tree the links grow from the root, else None.

    One link per vertex besides the root, each vertex reached from the
    root; an arc only from tail to head, so on a digraph the tree is an
    arborescence.  The root alone is the empty tree.
    """
    step: dict[str, list[str]] = {root: []}
    count = 0
    for a in ids:
        ends = inst.link_map.get(a)
        if ends is None:
            raise InstanceError("unknown %s id %r" % (inst.link, a))
        u, v = ends
        step.setdefault(u, []).append(v)
        if inst.directed:
            step.setdefault(v, [])
        else:
            step.setdefault(v, []).append(u)
        count += 1
    if count != len(step) - 1:
        return None
    seen = {root}
    stack = [root]
    while stack:
        for w in step[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen) if len(seen) == len(step) else None


def is_arborescence(arc_ids: Iterable[str], inst: RootedDigraph, root: str) -> bool:
    """True iff the arcs plus the isolated root form an arborescence rooted there."""
    return tree_vertices(arc_ids, inst, root) is not None


# -- enumeration helpers ------------------------------------------------------


def iter_partitions(vertices: Sequence[str], cap: int = MAX_PARTITION_VERTICES) -> Iterator[list[frozenset]]:
    """All set partitions in restricted-growth-string order; hard size cap."""
    n = len(vertices)
    if n > cap:
        raise SizeLimitError(
            "partition enumeration capped at %d vertices (got %d)" % (cap, n)
        )
    if n == 0:
        return
    rgs = [0] * n

    while True:
        nblocks = max(rgs) + 1
        blocks = [set() for _ in range(nblocks)]
        for i, b in enumerate(rgs):
            blocks[b].add(vertices[i])
        yield [frozenset(b) for b in blocks]
        # next restricted growth string
        i = n - 1
        while i > 0:
            if rgs[i] <= max(rgs[:i]):
                rgs[i] += 1
                for j in range(i + 1, n):
                    rgs[j] = 0
                break
            i -= 1
        else:
            return


def iter_subsets(items: Sequence, nonempty: bool = False) -> Iterator[frozenset]:
    """Subsets in canonical order: increasing size, then lexicographic."""
    import itertools

    for k in range(1 if nonempty else 0, len(items) + 1):
        for combo in itertools.combinations(items, k):
            yield frozenset(combo)
