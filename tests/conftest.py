import itertools
import random

import pytest

from arbopack.graphs import RootedDigraph, RootedGraph
from arbopack.matroid import ExplicitMatroid, FreeMatroid, UniformMatroid


def digraph(vertices, arcs, roots, matroid):
    """arcs as 'a:u>v' strings, roots as 'element@vertex'."""
    parsed_arcs = []
    for spec in arcs:
        aid, rest = spec.split(":")
        t, h = rest.split(">")
        parsed_arcs.append((aid, t, h))
    parsed_roots = [tuple(r.split("@")) for r in roots]
    return RootedDigraph(vertices, parsed_arcs, parsed_roots, matroid)


def graph(vertices, edges, roots, matroid):
    parsed = []
    for spec in edges:
        eid, rest = spec.split(":")
        u, v = rest.split("-")
        parsed.append((eid, u, v))
    parsed_roots = [tuple(r.split("@")) for r in roots]
    return RootedGraph(vertices, parsed, parsed_roots, matroid)


def lean_matroids(elements):
    """Deduplicated family: uniform ranks >= |S| all coincide with free."""
    t = len(elements)
    out = [FreeMatroid(elements)]
    out.extend(UniformMatroid(elements, r) for r in range(1, t))
    return out


def random_digraph(rng: random.Random, max_v=4, max_arcs=5, max_roots=3,
                   kinds=("free", "uniform")):
    n = rng.randint(1, max_v)
    verts = ["v%d" % i for i in range(n)]
    m = rng.randint(0, max_arcs) if n > 1 else 0
    arcs = []
    for i in range(m):
        t, h = rng.sample(verts, 2)
        arcs.append(("a%d" % i, t, h))
    t = rng.randint(1, max_roots)
    elements = ["s%d" % i for i in range(t)]
    roots = [(e, rng.choice(verts)) for e in elements]
    kind = rng.choice(kinds)
    if kind == "free":
        matroid = FreeMatroid(elements)
    else:
        matroid = UniformMatroid(elements, rng.randint(1, t))
    return RootedDigraph(verts, arcs, roots, matroid)


@pytest.fixture
def fixed_explicit():
    return ExplicitMatroid(["s1", "s2", "s3"], [["s1", "s2"], ["s1", "s3"]])
