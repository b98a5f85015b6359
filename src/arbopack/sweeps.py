"""Exhaustive desk-scale instance enumeration.

Generates every directed (or undirected) instance up to given sizes:
all arc multisets over ordered vertex pairs (parallels included), all root
placements, and a caller-chosen family of matroids per root count.  Used
by the equivalence sweeps that compare the constructive solver against the
exponential ground-truth oracle.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Sequence

from .graphs import RootedDigraph, RootedGraph
from .matroid import ExplicitMatroid, FreeMatroid, Matroid, UniformMatroid


def default_matroids(elements: Sequence[str]) -> list[Matroid]:
    """Free, uniform ranks 1..3, and one fixed explicit matroid (on 3 elements)."""
    out: list[Matroid] = [FreeMatroid(elements)]
    for r in (1, 2, 3):
        out.append(UniformMatroid(elements, r))
    if len(elements) == 3:
        e = list(elements)
        out.append(ExplicitMatroid(e, [[e[0], e[1]], [e[0], e[2]]]))
    return out


def iter_directed_instances(
    max_vertices: int = 3,
    max_arcs: int = 4,
    max_roots: int = 3,
    matroids: Callable[[Sequence[str]], list[Matroid]] = default_matroids,
) -> Iterator[RootedDigraph]:
    return _iter_instances(RootedDigraph, max_vertices, max_arcs, max_roots,
                           matroids)


def iter_undirected_instances(
    max_vertices: int = 4,
    max_edges: int = 5,
    max_roots: int = 2,
    matroids: Callable[[Sequence[str]], list[Matroid]] = default_matroids,
) -> Iterator[RootedGraph]:
    return _iter_instances(RootedGraph, max_vertices, max_edges, max_roots,
                           matroids)


def _iter_instances(cls, max_vertices, max_links, max_roots, matroids):
    """Every ``cls`` instance up to the sizes: by vertex count, link count,
    link multiset, root count, placement, then matroid.  Directed links
    run over ordered vertex pairs, undirected ones over unordered pairs;
    ids are a0, a1, ... or e0, e1, ...."""
    pairing = itertools.permutations if cls.directed else itertools.combinations
    for nv in range(1, max_vertices + 1):
        verts = ["v%d" % i for i in range(nv)]
        pairs = list(pairing(verts, 2))
        for nl in range(max_links + 1):
            for combo in itertools.combinations_with_replacement(pairs, nl):
                links = [("%s%d" % (cls.link[0], i), u, w)
                         for i, (u, w) in enumerate(combo)]
                for t in range(1, max_roots + 1):
                    elements = ["s%d" % i for i in range(t)]
                    for placement in itertools.product(verts, repeat=t):
                        roots = list(zip(elements, placement))
                        for m in matroids(elements):
                            yield cls(verts, links, roots, m)
