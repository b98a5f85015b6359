import itertools
import random

import pytest

from arbopack import sfm
from arbopack.connectivity import deficiency_objective
from arbopack.graphs import RootedDigraph, RootedGraph
from arbopack.matroid import (
    ExplicitMatroid,
    FreeMatroid,
    GraphicMatroid,
    LinearMatroid,
    PartitionMatroid,
    UniformMatroid,
)
from arbopack.orientation import Orientation, induced_digraph


def digraph(vertices, arcs, roots, matroid):
    """arcs as 'a:u>v' strings, roots as 'element@vertex'."""
    parsed_arcs = []
    for spec in arcs:
        aid, rest = spec.split(":")
        t, h = rest.split(">")
        parsed_arcs.append((aid, t, h))
    parsed_roots = [tuple(r.split("@")) for r in roots]
    return RootedDigraph(vertices, parsed_arcs, parsed_roots, matroid)


def primed_path():
    """A 12-vertex path with three parallel arcs per link and three roots
    at its start, whose ids already end in primes: the reduction twins a
    twin from the second vertex on, so its twin ids grow long."""
    verts = ["v%d" % i for i in range(12)]
    arcs = ["a%d_%d:%s>%s" % (i, c, verts[i], verts[i + 1])
            for i in range(11) for c in range(3)]
    return digraph(verts, arcs, ["s@v0", "s'@v0", "s'''@v0"],
                   FreeMatroid(["s", "s'", "s'''"]))


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


def planted_digraph(rng: random.Random, n: int, kind: str) -> RootedDigraph:
    """A random instance built around a packing, hence M-connected.

    The root elements fall into layers such that one element per layer is
    always a base; each layer's roots sit at distinct vertices and grow a
    random spanning branching, so every vertex is covered once per layer.
    Noise arcs go on top, and the arc order is shuffled.
    """
    if kind == "free":
        layers = [["s0"], ["s1"]]
        matroid = FreeMatroid(["s0", "s1"])
    elif kind == "uniform":
        layers = [["s0"], ["s1", "s2"]]
        matroid = UniformMatroid(["s0", "s1", "s2"], 2)
    elif kind == "partition":
        layers = [["s0", "s1"], ["s2"], ["s3"]]
        matroid = PartitionMatroid([(["s0", "s1"], 1), (["s2", "s3"], 2)])
    elif kind == "graphic":
        # s0 and s1 are parallel edges; either one with s2 spans the path
        layers = [["s0", "s1"], ["s2"]]
        matroid = GraphicMatroid([("s0", 0, 1), ("s1", 0, 1), ("s2", 1, 2)])
    else:
        # one vector from each layer is a basis of GF(3)^3
        layers = [["s0", "s1"], ["s2"], ["s3", "s4"]]
        matroid = LinearMatroid(3, {"s0": (1, 0, 0), "s1": (1, 1, 0),
                                    "s2": (0, 1, 0), "s3": (0, 0, 1),
                                    "s4": (1, 1, 1)})
    verts = ["v%d" % i for i in range(n)]
    pairs, roots = [], []
    for layer in layers:
        order = rng.sample(verts, n)
        roots += zip(layer, order)
        for j in range(len(layer), n):
            pairs.append((order[rng.randrange(j)], order[j]))
    pairs += [tuple(rng.sample(verts, 2)) for _ in range(rng.randint(0, 2))]
    rng.shuffle(pairs)
    arcs = [("a%d" % i, t, h) for i, (t, h) in enumerate(pairs)]
    return RootedDigraph(verts, arcs, sorted(roots), matroid)


def cut_copy(inst: RootedDigraph) -> RootedDigraph:
    """``inst`` without the arcs entering its first vertex whose roots are
    no base, so that vertex alone violates condition (2)."""
    m = inst.matroid
    v = next(w for w in inst.vertices
             if m.rank(inst.elements_at(w)) < m.full_rank())
    arcs = [a for a in inst.arcs if a[2] != v]
    return RootedDigraph(inst.vertices, arcs, inst.roots, m)


def planted_graph(rng: random.Random, n: int, kind: str) -> RootedGraph:
    """``planted_digraph`` with its arcs as edges, hence partition-connected."""
    d = planted_digraph(rng, n, kind)
    return RootedGraph(d.vertices, d.arcs, d.roots, d.matroid)


def cut_graph(g: RootedGraph) -> RootedGraph:
    """``g`` without the edges at its first vertex whose roots are no base,
    so that vertex and the rest are a violated partition."""
    m = g.matroid
    v = next(w for w in g.vertices if m.rank(g.elements_at(w)) < m.full_rank())
    edges = [e for e in g.edges if v not in e[1:]]
    return RootedGraph(g.vertices, edges, g.roots, m)


def greedy_gaps(g: RootedGraph, engine: str) -> dict:
    """The orientation greedy's final gaps m(v) - indeg(v), vertex -> int,
    against the all-forward orientation, by submodular minimization.

    With f the forward digraph's deficiency plus the current gaps, step i
    lowers gap(v_i) by the min of f over the sets that hold v_i: f({v_i})
    or the min over the nonempty Y of V - v_i of the contraction
    Y -> f(Y + v_i), minimized by ``engine``.
    """
    verts = g.vertices
    n = len(verts)
    forward = induced_digraph(g, Orientation({e: (u, v) for e, u, v in g.edges}))
    slack = deficiency_objective(forward).evaluate
    k = g.matroid.full_rank()
    gap = [k] * n  # m(v) = deg(v) + k, less the forward in-degree
    for _, u, _ in g.edges:
        gap[verts.index(u)] += 1
    for i in range(n):
        def f(X):
            return slack(X) + sum(gap[j] for j in X)

        least = f(frozenset({i}))
        rest = [j for j in range(n) if j != i]
        if rest:
            least = min(least, sfm.minimize(sfm.SubmodularObjective(
                n - 1, lambda Y: f(frozenset({i}).union(rest[j] for j in Y))),
                engine=engine).value)
        gap[i] -= least
    return dict(zip(verts, gap))


def in_degrees(g: RootedGraph, directions: dict) -> dict:
    """vertex -> the number of edges of g that ``directions`` (edge id ->
    (tail, head)) points into it."""
    out = dict.fromkeys(g.vertices, 0)
    for e, _, _ in g.edges:
        out[directions[e][1]] += 1
    return out


@pytest.fixture
def fixed_explicit():
    return ExplicitMatroid(["s1", "s2", "s3"], [["s1", "s2"], ["s1", "s3"]])
