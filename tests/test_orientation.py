import json
import random

import pytest

from conftest import (
    cut_graph,
    graph,
    greedy_gaps,
    in_degrees,
    lean_matroids,
    planted_graph,
)
from arbopack.cli import run_command
from arbopack.connectivity import (
    Certificate,
    check_m_connected,
    check_partition_connected,
    recheck_certificate,
)
from arbopack.instances import _generate_raw, emit_instance, parse_instance
from arbopack.matroid import FreeMatroid, UniformMatroid
from arbopack.orientation import (
    IdentityViolation,
    Orientation,
    TreePacking,
    decompose_edges,
    induced_digraph,
    orient_m_connected,
    pack_undirected,
    per_edge_set_diagnostic,
    verify_tree_packing,
)
from arbopack.packing import Tree, find_packing
from arbopack.sweeps import iter_undirected_instances


def orientation_exists_by_enumeration(g):
    """Independent oracle: try all 2^|E| orientations."""
    from arbopack.orientation import _orientation_from_bits

    for bits in range(1 << len(g.edges)):
        d = induced_digraph(g, _orientation_from_bits(g, bits))
        if check_m_connected(d).ok:
            return True
    return False


# -- orientation -------------------------------------------------------------------


def test_single_edge_oriented_away_from_root():
    g = graph(["a", "b"], ["e1:a-b"], ["s1@a"], FreeMatroid(["s1"]))
    out = orient_m_connected(g)
    assert isinstance(out, Orientation)
    assert out.directions["e1"] == ("a", "b")


def test_triangle_two_roots_certificate():
    g = graph(["a", "b", "c"], ["e1:a-b", "e2:b-c", "e3:c-a"],
              ["s1@a", "s2@a"], FreeMatroid(["s1", "s2"]))
    assert not orientation_exists_by_enumeration(g)
    out = orient_m_connected(g)
    assert isinstance(out, Certificate) and out.kind == "violated-partition"


def test_cycle_gets_directed_cycle():
    g = graph(["a", "b", "c"], ["e1:a-b", "e2:b-c", "e3:c-a"], ["s1@a"],
              FreeMatroid(["s1"]))
    out = orient_m_connected(g)
    assert isinstance(out, Orientation)
    assert check_m_connected(induced_digraph(g, out)).ok


def test_orientation_equivalence_random():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randint(1, 4)
        verts = ["v%d" % i for i in range(n)]
        m = rng.randint(0, 5) if n > 1 else 0
        edges = []
        for i in range(m):
            u, w = rng.sample(verts, 2)
            edges.append("e%d:%s-%s" % (i, u, w))
        t = rng.randint(1, 2)
        elems = ["s%d" % i for i in range(t)]
        roots = ["%s@%s" % (e, rng.choice(verts)) for e in elems]
        matroid = (FreeMatroid(elems) if rng.random() < 0.5
                   else UniformMatroid(elems, rng.randint(1, t)))
        g = graph(verts, edges, roots, matroid)
        exists = orientation_exists_by_enumeration(g)
        assert check_partition_connected(g).ok == exists
        out = orient_m_connected(g)
        assert isinstance(out, Orientation) == exists


@pytest.mark.parametrize("kind, n", [("free", 12), ("uniform", 14),
                                     ("partition", 16), ("graphic", 18),
                                     ("linear", 20)])
def test_flow_greedy_matches_min_norm_point(kind, n):
    # above the enumerator's cap: a planted graph and a cut copy of it,
    # against a greedy whose steps are min-norm-point minimizations
    g = planted_graph(random.Random(kind), n, kind)
    out = orient_m_connected(g)
    assert isinstance(out, Orientation)
    gaps = greedy_gaps(g, "min-norm-point")
    forward = in_degrees(g, {e: (u, v) for e, u, v in g.edges})
    assert in_degrees(g, out.directions) == {
        v: x + gaps[v] for v, x in forward.items()}
    cut = cut_graph(g)
    cert = orient_m_connected(cut)
    assert isinstance(cert, Certificate) and recheck_certificate(cut, cert)
    assert -sum(greedy_gaps(cut, "min-norm-point").values()) == cert.deficiency


def test_brute_engine_orients_above_its_cap(tmp_path, capsys):
    # the undirected commands ignore the engine, flows deciding the greedy's
    # steps and the check of a positive's orientation, so brute's 24-vertex
    # cap binds neither a positive nor a negative
    g = planted_graph(random.Random("free"), 30, "free")
    cut = cut_graph(g)
    path = tmp_path / "g.json"
    answers = []
    for inst in (g, cut):
        path.write_text(emit_instance(inst))
        code = run_command(["--engine", "brute", "pack-undirected", str(path)])
        answers.append((code, json.loads(capsys.readouterr().out)["payload"]))
    (code, packed), (cut_code, cert) = answers
    assert code == 0
    trees = tuple(Tree(t["root_element"], t["root_vertex"],
                       frozenset(t["edges"])) for t in packed["trees"])
    assert verify_tree_packing(g, TreePacking(trees)) is None
    assert cut_code == 2 and cert == orient_m_connected(cut).to_json()
    assert cert["deficiency"] == -2 and recheck_certificate(cut, Certificate(
        cert["kind"], partition=tuple(map(frozenset, cert["partition"])),
        deficiency=cert["deficiency"]))


def reverse_by_scan(edges: list, dirs: dict, sink: str,
                    surplus: set) -> str | None:
    """``_reverse_path``'s reversal into ``sink``, made on ``dirs`` in
    place, its search scanning every edge in the order of ``edges`` for
    the ones into the popped vertex; the vertex of ``surplus`` it starts
    from, or None if none reaches the sink."""
    prev = {sink: None}
    queue = [sink]
    for w in queue:
        for e, _, _ in edges:
            t, h = dirs[e]
            if h == w and t not in prev:
                prev[t] = e
                if t in surplus:
                    u = t
                    while u != sink:
                        dirs[prev[u]] = dirs[prev[u]][::-1]
                        u = dirs[prev[u]][0]
                    return t
                queue.append(t)
    return None


def test_reverse_path_takes_the_nearest_surplus_in_edge_order():
    # random orientations, sinks and surplus sets on multigraphs: each
    # reversal must flip the same shortest path, edge for edge, as a scan
    # of every edge, and a sink that no surplus vertex reaches trips
    from arbopack import flow
    from arbopack.graphs import RootedDigraph
    from arbopack.orientation import _reverse_path
    from arbopack.packing import TheoremViolation

    rng = random.Random(31)
    reversals = long = stuck = 0  # long: paths of two arcs or more
    for _ in range(300):
        verts = ["v%d" % i for i in range(rng.randint(2, 9))]
        edges = [("e%d" % j, *rng.sample(verts, 2))
                 for j in range(rng.randint(1, 20))]
        net = flow.Network(RootedDigraph(verts, edges, [("s", verts[0])],
                                         FreeMatroid(["s"])))
        dirs = {}
        for j, (e, u, v) in enumerate(edges):
            dirs[e] = (u, v)
            if rng.random() < 0.5:
                dirs[e] = (v, u)
                net.cap[2 * j], net.cap[2 * j + 1] = 0, 1
        for _ in range(5):
            sink = rng.randrange(len(verts))
            surplus = {i: 1 for i in range(len(verts))
                       if i != sink and rng.random() < 0.3}
            want = reverse_by_scan(edges, dirs, verts[sink],
                                   {verts[i] for i in surplus})
            if want is None:
                with pytest.raises(TheoremViolation, match="no path into"):
                    _reverse_path(net, sink, surplus)
                stuck += 1
            else:
                before = list(net.cap)
                assert verts[_reverse_path(net, sink, surplus)] == want
                reversals += 1
                long += sum(a != b for a, b in zip(net.cap, before)) > 2
            got = {e: (u, v) if net.cap[2 * j] else (v, u)
                   for j, (e, u, v) in enumerate(edges)}
            assert got == dirs, (edges, sink, surplus)
    assert reversals > 500 and long > 100 and stuck > 100


@pytest.mark.parametrize("n", [64, 128, 256])
def test_greedy_searches_grow_with_the_edges(monkeypatch, n):
    # scripts/bench_pack.py's noisy family (seed 7, t=2, 4n edges): each
    # step's flow routes its own vertex's cut and no earlier step's, so
    # the greedy runs at most 2|E| + (k + 1)n searches.  A greedy whose
    # flows also routed the negative gaps of the steps before them, as
    # demands, ran 3478, 11999 and 52222 here
    from arbopack import flow, orientation

    nets = []

    class Counted(flow.Network):
        def __init__(self, inst):
            super().__init__(inst)
            nets.append(self)

    monkeypatch.setattr(flow, "Network", Counted)
    g = parse_instance(_generate_raw(random.Random(7), n, 4 * n, 2, "free",
                                     False, False, True))[0]
    assert isinstance(orientation._orient(g), tuple)
    k = g.matroid.full_rank()
    assert len(nets) == 1
    assert nets[0]._stamp <= 2 * len(g.edges) + (k + 1) * n


def test_orientation_tripwires_name_step_engine_and_sizes(monkeypatch):
    from arbopack import orientation
    from arbopack.packing import TheoremViolation

    from arbopack.flow import Network

    d = induced_digraph(graph(["a", "b"], ["e1:a-b"], ["s1@a"],
                              FreeMatroid(["s1"])), Orientation({"e1": ("a", "b")}))
    with pytest.raises(TheoremViolation) as info:
        orientation._reverse_path(Network(d), 1, {})
    assert str(info.value) == (
        "orient_m_connected: no path into b from a vertex below its "
        "in-degree bound at greedy step 2 (tripwire): engine flow, "
        "vertices 2, edges 1")
    # a check that rejects every orientation trips the realized vector
    monkeypatch.setattr(orientation, "check_m_connected", lambda *a, **k:
                        Certificate("violated-set", vertex_set=frozenset("b"),
                                    deficiency=-1))
    g = graph(["a", "b"], ["e1:a-b"], ["s1@a"], FreeMatroid(["s1"]))
    with pytest.raises(TheoremViolation) as info:
        orient_m_connected(g)
    assert str(info.value) == (
        "orient_m_connected: the in-degree vector realized after 2 greedy "
        "steps and 0 path reversals is not M-connected (tripwire): engine "
        "flow, violated set ['b'], deficiency -1, vertices 2, edges 1")


def test_flow_orientation_on_a_sweep_sample():
    # the criterion-5 sweep, sampled: every positive is M-connected, and
    # every negative, the smallest tight set of each greedy step merged,
    # rechecks with the enumerator's deficiency
    sweep = list(iter_undirected_instances(max_vertices=4, max_edges=5,
                                           max_roots=2, matroids=lean_matroids))
    positives = negatives = 0
    for g in random.Random(5).sample(sweep, 2000):
        cert = check_partition_connected(g)
        out = orient_m_connected(g)
        assert isinstance(out, Orientation) == cert.ok, g
        if cert.ok:
            assert check_m_connected(induced_digraph(g, out)).ok, g
            positives += 1
        else:
            assert recheck_certificate(g, out), g
            assert out.deficiency == cert.deficiency, g
            negatives += 1
    assert positives > 100 and negatives > 100


# -- undirected packing ------------------------------------------------------------------


def test_path_graph_single_tree():
    g = graph(["a", "b", "c"], ["e1:a-b", "e2:b-c"], ["s1@a"],
              FreeMatroid(["s1"]))
    out = pack_undirected(g)
    assert isinstance(out, TreePacking)
    assert out.trees[0].arcs == {"e1", "e2"}


def test_two_parallel_edges_two_trees():
    g = graph(["a", "b"], ["e1:a-b", "e2:a-b"], ["s1@a", "s2@a"],
              FreeMatroid(["s1", "s2"]))
    out = pack_undirected(g)
    assert isinstance(out, TreePacking)
    assert {len(t.arcs) for t in out.trees} == {1}
    assert verify_tree_packing(g, out) is None


def test_disconnected_graph_certificate():
    g = graph(["a", "b"], [], ["s1@a"], FreeMatroid(["s1"]))
    out = pack_undirected(g)
    assert isinstance(out, Certificate) and out.kind == "violated-partition"


def test_round_trip_reorientation():
    # trees re-oriented away from their roots pack the chosen orientation
    rng = random.Random(61)
    packed = 0
    while packed < 20:
        n = rng.randint(2, 4)
        verts = ["v%d" % i for i in range(n)]
        m = rng.randint(n - 1, 5)
        edges = []
        for i in range(m):
            u, w = rng.sample(verts, 2)
            edges.append("e%d:%s-%s" % (i, u, w))
        g = graph(verts, edges, ["s0@%s" % rng.choice(verts)],
                  FreeMatroid(["s0"]))
        out = pack_undirected(g)
        if not isinstance(out, TreePacking):
            continue
        packed += 1
        # orient each tree away from its root by BFS and re-verify directed
        arcs = []
        for t in out.trees:
            adj = {}
            for e in t.arcs:
                u, w = g.edge_map[e]
                adj.setdefault(u, []).append((e, w))
                adj.setdefault(w, []).append((e, u))
            seen = {t.root_vertex}
            stack = [t.root_vertex]
            while stack:
                v = stack.pop()
                for e, w in adj.get(v, []):
                    if w not in seen:
                        seen.add(w)
                        arcs.append((e, v, w))
                        stack.append(w)
        from arbopack.graphs import RootedDigraph
        # unused edges get an arbitrary direction
        used = {a for a, _, _ in arcs}
        for e, u, w in g.edges:
            if e not in used:
                arcs.append((e, u, w))
        d = RootedDigraph(verts, arcs, g.roots, g.matroid)
        directed = find_packing(d)
        from arbopack.packing import Packing, verify_packing
        assert isinstance(directed, Packing)
        assert verify_packing(d, directed) is None


def test_pack_undirected_packs_two_spanning_trees_on_14_vertices():
    # two spanning trees on fresh edges plus spare ones; above the
    # enumerator's 12-vertex cap
    rng = random.Random(14)
    verts = ["v%d" % i for i in range(14)]
    edges, roots = [], []
    for s in ("s0", "s1"):
        order = verts[:]
        rng.shuffle(order)
        roots.append("%s@%s" % (s, order[0]))
        for j in range(1, len(order)):
            edges.append("e%d:%s-%s" % (len(edges), order[rng.randrange(j)],
                                        order[j]))
    for _ in range(4):
        u, w = rng.sample(verts, 2)
        edges.append("e%d:%s-%s" % (len(edges), u, w))
    g = graph(verts, edges, roots, FreeMatroid(["s0", "s1"]))
    out = pack_undirected(g)
    assert isinstance(out, TreePacking)
    assert verify_tree_packing(g, out) is None


# -- decomposition ------------------------------------------------------------------------


def test_decompose_identity_gate():
    g = graph(["a", "b"], ["e1:a-b"], ["s1@a", "s2@a"],
              FreeMatroid(["s1", "s2"]))
    with pytest.raises(IdentityViolation):
        decompose_edges(g)


def test_decompose_two_parallel_edges():
    g = graph(["a", "b"], ["e1:a-b", "e2:a-b"], ["s1@a", "s2@a"],
              FreeMatroid(["s1", "s2"]))
    out = decompose_edges(g)
    assert isinstance(out, TreePacking)
    assert out.arc_set() == {"e1", "e2"}


def test_decompose_tree_graph():
    g = graph(["a", "b", "c"], ["e1:a-b", "e2:b-c"], ["s1@b"],
              FreeMatroid(["s1"]))
    out = decompose_edges(g)
    assert isinstance(out, TreePacking)
    assert out.arc_set() == {"e1", "e2"}
    assert sum(len(t.arcs) for t in out.trees) == len(g.edges)


def test_per_edge_set_diagnostic():
    good = graph(["a", "b"], ["e1:a-b", "e2:a-b"], ["s1@a", "s2@a"],
                 FreeMatroid(["s1", "s2"]))
    assert per_edge_set_diagnostic(good) is None
    # overfull subgraph: three parallels but only rank 2 demanded
    bad = graph(["a", "b", "c"],
                ["e1:a-b", "e2:a-b", "e3:a-b", "e4:b-c"],
                ["s1@a", "s2@c"], FreeMatroid(["s1", "s2"]))
    assert per_edge_set_diagnostic(bad) is not None


def test_tree_verifier_tamper():
    g = graph(["a", "b"], ["e1:a-b", "e2:a-b"], ["s1@a", "s2@a"],
              FreeMatroid(["s1", "s2"]))
    p = TreePacking((Tree("s1", "a", frozenset({"e1"})),
                     Tree("s2", "a", frozenset({"e1"}))))
    f = verify_tree_packing(g, p)
    assert f is not None and f.reason == "duplicate-edge"
