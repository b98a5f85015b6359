import itertools
import random

import networkx as nx
import pytest

from conftest import digraph, graph, random_digraph
from arbopack.graphs import (
    InstanceError,
    Partition,
    RootedDigraph,
    RootedGraph,
    SizeLimitError,
    cross_edges,
    in_degree,
    is_arborescence,
    iter_partitions,
    tree_vertices,
)
from arbopack.matroid import FreeMatroid


def test_in_degree_counts_parallels():
    d = digraph(["a", "b"], ["a1:a>b", "a2:a>b"], ["s1@a"], FreeMatroid(["s1"]))
    assert in_degree(d, {"b"}) == 2


def test_in_degree_of_whole_vertex_set_is_zero():
    d = digraph(["a", "b"], ["a1:a>b"], ["s1@a"], FreeMatroid(["s1"]))
    assert in_degree(d, {"a", "b"}) == 0


def test_in_degree_empty_set_rejected():
    d = digraph(["a"], [], ["s1@a"], FreeMatroid(["s1"]))
    with pytest.raises(InstanceError):
        in_degree(d, set())


def test_in_degree_submodular_random_instances():
    rng = random.Random(7)
    for _ in range(60):
        d = random_digraph(rng, max_v=6, max_arcs=8)
        verts = list(d.vertices)
        subsets = [frozenset(c) for k in range(1, len(verts) + 1)
                   for c in itertools.combinations(verts, k)]

        def rho(x):
            return in_degree(d, x) if x else 0

        for x, y in itertools.product(subsets, repeat=2):
            assert rho(x) + rho(y) >= rho(x & y) + rho(x | y)


def test_is_arborescence_singleton():
    d = digraph(["a", "b"], ["a1:a>b"], ["s1@a"], FreeMatroid(["s1"]))
    assert is_arborescence(set(), d, "a")


def test_is_arborescence_out_star():
    d = digraph(["a", "b", "c"], ["a1:a>b", "a2:a>c"], ["s1@a"],
                FreeMatroid(["s1"]))
    assert is_arborescence({"a1", "a2"}, d, "a")


def test_is_arborescence_indegree_two_fails():
    d = digraph(["a", "b", "c"], ["a1:a>b", "a2:c>b"], ["s1@a"],
                FreeMatroid(["s1"]))
    assert not is_arborescence({"a1", "a2"}, d, "a")


def test_arborescence_arc_count_identity():
    rng = random.Random(3)
    for _ in range(80):
        d = random_digraph(rng, max_v=5, max_arcs=6)
        for k in range(len(d.arcs) + 1):
            for ids in itertools.combinations([a for a, _, _ in d.arcs], k):
                for root in d.vertices:
                    if is_arborescence(ids, d, root):
                        verts = {root}
                        for a in ids:
                            verts.update(d.arc_map[a])
                        assert len(ids) == len(verts) - 1


@pytest.mark.parametrize("cls", [RootedDigraph, RootedGraph])
def test_tree_vertices_matches_networkx(cls):
    # every link subset of small random multigraphs, from every root
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        verts = ["v%d" % i for i in range(n)]
        links = [("l%d" % i, *rng.sample(verts, 2))
                 for i in range(rng.randint(0, 6) if n > 1 else 0)]
        inst = cls(verts, links, [("s1", verts[0])], FreeMatroid(["s1"]))
        for k in range(len(links) + 1):
            for subset in itertools.combinations(links, k):
                ids = [a for a, _, _ in subset]
                for root in verts:
                    h = nx.MultiDiGraph() if inst.directed else nx.MultiGraph()
                    h.add_node(root)
                    h.add_edges_from((u, v, a) for a, u, v in subset)
                    if inst.directed:
                        tree = nx.is_arborescence(h) and h.in_degree(root) == 0
                    else:
                        tree = nx.is_tree(h)
                    got = tree_vertices(ids, inst, root)
                    assert (got is not None) == tree, (inst.links, ids, root)
                    if tree:
                        assert got == set(h.nodes)
                    if tree and ids:
                        assert tree_vertices(ids + ids[:1], inst, root) is None


def test_cross_edges():
    tri = graph(["a", "b", "c"], ["e1:a-b", "e2:b-c", "e3:c-a"], ["s1@a"],
                FreeMatroid(["s1"]))
    singles = Partition([{"a"}, {"b"}, {"c"}], tri.vertices)
    assert cross_edges(tri, singles) == 3
    whole = Partition([{"a", "b", "c"}], tri.vertices)
    assert cross_edges(tri, whole) == 0
    par = graph(["a", "b"], ["e1:a-b", "e2:a-b"], ["s1@a"], FreeMatroid(["s1"]))
    assert cross_edges(par, Partition([{"a"}, {"b"}], par.vertices)) == 2


def test_partition_validation():
    with pytest.raises(InstanceError):
        Partition([{"a"}, set()], ["a"])
    with pytest.raises(InstanceError):
        Partition([{"a"}, {"a"}], ["a"])
    with pytest.raises(InstanceError):
        Partition([{"a"}], ["a", "b"])


def test_iter_partitions_bell_numbers():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
    for n, count in bell.items():
        verts = ["v%d" % i for i in range(n)]
        assert sum(1 for _ in iter_partitions(verts)) == count


def test_iter_partitions_cap():
    with pytest.raises(SizeLimitError):
        next(iter_partitions(["v%d" % i for i in range(13)]))


def test_instance_rejects_self_loops_and_duplicates():
    with pytest.raises(InstanceError):
        RootedDigraph(["a"], [("a1", "a", "a")], [("s1", "a")],
                      FreeMatroid(["s1"]))
    with pytest.raises(InstanceError):
        RootedDigraph(["a", "b"], [("a1", "a", "b"), ("a1", "b", "a")],
                      [("s1", "a")], FreeMatroid(["s1"]))
    with pytest.raises(InstanceError):
        RootedDigraph(["a"], [], [("s1", "z")], FreeMatroid(["s1"]))
