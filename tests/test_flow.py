"""The flow engine against enumeration, min-norm-point and its tripwires."""

import itertools
import json
import random

import pytest

from conftest import cut_copy, cut_graph, planted_digraph, planted_graph
from arbopack import connectivity, flow, sfm
from arbopack.cli import run_command
from arbopack.connectivity import check_m_connected, recheck_certificate
from arbopack.graphs import RootedDigraph, in_degree
from arbopack.instances import emit_instance
from arbopack.matroid import (
    ExplicitMatroid,
    FreeMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
)
from arbopack.packing import Packing, Tree, verify_packing

KINDS = ("free", "uniform", "partition", "graphic", "linear", "explicit")


def random_matroid(rng: random.Random, elements: list, kind: str) -> Matroid:
    t = len(elements)
    if kind == "free":
        m = FreeMatroid(elements)
    elif kind == "uniform":
        m = UniformMatroid(elements, rng.randint(0, t))
    elif kind == "partition":
        blocks: dict = {}
        for e in elements:
            blocks.setdefault(rng.randrange(3), []).append(e)
        m = PartitionMatroid([(b, rng.randint(0, len(b)))
                              for b in blocks.values()])
    elif kind == "graphic":
        m = GraphicMatroid([(e, rng.randrange(4), rng.randrange(4))
                            for e in elements])
    elif kind == "linear":
        m = LinearMatroid(3, {e: [rng.randrange(3) for _ in range(3)]
                              for e in elements})
    else:  # the bases of a random graphic matroid, listed
        g = GraphicMatroid([(e, rng.randrange(4), rng.randrange(4))
                            for e in elements])
        m = ExplicitMatroid(elements, [
            b for b in itertools.combinations(elements, g.full_rank())
            if g.is_base(b)])
    if rng.random() < 0.2:
        m = m.truncate(rng.randint(0, m.full_rank()))
    return m


def with_twins(rng: random.Random, inst: RootedDigraph, count: int):
    """``inst`` with ``count`` parallel twins added, twins of twins too."""
    for _ in range(count):
        m = inst.matroid
        elems = [e for e, _ in inst.roots if m.rank({e}) == 1]
        if not elems:
            break
        m2, twin = m.extend_parallel(rng.choice(elems))
        inst = RootedDigraph(inst.vertices, inst.arcs,
                             inst.roots + ((twin, rng.choice(inst.vertices)),),
                             m2)
    return inst


def cuts(inst: RootedDigraph, sink, sources, supply=None) -> dict:
    """X -> in(X) + r(S_X) + supply(X), for every X holding the sink and
    no source; supply maps vertex indices to units, 0 where left out."""
    verts = inst.vertices
    supply = supply or {}
    rest = [v for v in verts if v != sink and v not in sources]
    out = {}
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            xs = frozenset((sink, *extra))
            out[xs] = (in_degree(inst, xs)
                       + inst.matroid.rank(inst.elements_in(xs))
                       + sum(supply.get(i, 0) for i, v in enumerate(verts)
                             if v in xs))
    return out


def enumerated(inst: RootedDigraph, sink, sources, cap) -> int:
    """min(cap, in(X) + r(S_X)) over every X holding the sink and no source."""
    return min(cap, *cuts(inst, sink, sources).values())


def random_instance(rng: random.Random) -> RootedDigraph:
    dense = rng.random() < 0.5
    n = rng.randint(4, 8) if dense else rng.randint(1, 8)
    verts = ["v%d" % i for i in range(n)]
    m = 0 if n == 1 else rng.randint(12, 24) if dense else rng.randint(0, 12)
    arcs = [("a%d" % i, *rng.sample(verts, 2)) for i in range(m)]
    elements = ["s%d" % i for i in range(rng.randint(1, 5))]
    inst = RootedDigraph(verts, arcs,
                         [(e, rng.choice(verts)) for e in elements],
                         random_matroid(rng, elements, rng.choice(KINDS)))
    return with_twins(rng, inst, rng.randint(0, 3))


def random_query(rng: random.Random, verts):
    """(sink, sources, cap, supply) by vertex name, drawn for one
    ``min_cut`` call; ``as_call`` gives the call's arguments."""
    sink = rng.choice(verts)
    rest = [v for v in verts if v != sink]
    sources = set()
    if rest and rng.random() < 0.6:
        sources = set(rng.sample(rest, rng.randint(1, len(rest))))
    cap = rng.randint(-1, 30)
    supply = None
    if rng.random() < 0.5:
        supply = {i: u for i, u in enumerate(rng.choice((0, 0, 1, 2, 5))
                                             for _ in verts) if u}
    return sink, sources, cap, supply


def as_call(inst: RootedDigraph, sink, sources, cap, supply=None):
    """The sink index and the supply of the ``min_cut`` call for
    ``sink`` and ``sources``: each source is supplied with the cap (at
    least one unit), which keeps it out of every set below the cap."""
    pos = {v: i for i, v in enumerate(inst.vertices)}
    fed = dict(supply or {})
    fed.update(dict.fromkeys((pos[v] for v in sources), max(cap, 1)))
    return pos[sink], fed


def test_flow_matches_enumeration():
    # below the cap the vertices the failed search reached must be the
    # smallest minimizer, the intersection of all minimizers, and those no
    # start reaches the largest, their union; each network answers several
    # draws, so every call, and every read of the largest minimizer, must
    # leave its residual capacities, and the caller's supply, as it found
    # them
    rng = random.Random(2024)
    below_cap = weighted = apart = 0
    for _ in range(1000):
        inst = random_instance(rng)
        net = flow.Network(inst)
        before = list(net.cap)
        for _ in range(3):
            sink, sources, cap, supply = query = \
                random_query(rng, inst.vertices)
            values = cuts(inst, sink, sources, supply)
            want = min(cap, *values.values())
            case = (inst.arcs, inst.roots, query)
            end, fed = as_call(inst, sink, sources, cap, supply)
            given = dict(fed)
            assert net.min_cut(end, cap, fed) == want, case
            assert net.cap == before, case
            assert fed == given, case
            if want < cap:
                minimizers = [xs for xs, v in values.items() if v == want]
                smallest = frozenset.intersection(*minimizers)
                largest = frozenset.union(*minimizers)
                assert frozenset(inst.vertices[i]
                                 for i in net.minimizer()) == smallest, case
                assert frozenset(inst.vertices[i] for i in
                                 net.largest_minimizer()) == largest, case
                assert net.cap == before, case
                below_cap += 1
                weighted += supply is not None
                apart += smallest != largest
            else:
                with pytest.raises(ValueError, match="reached its cap"):
                    net.minimizer()
                with pytest.raises(ValueError, match="reached its cap"):
                    net.largest_minimizer()
    assert below_cap > 1000 and weighted > 500 and apart > 300


def test_flow_reroutes_on_crossing_gadgets():
    # s->a->b->t is a shortest path that blocks b->t; the second unit needs
    # s->c->b, back along a->b, then a->d->t.  Random arc orders and noise
    # arcs decide whether the search takes the blocking path first.
    rng = random.Random(77)
    for _ in range(1000):
        verts = ["v%d" % i for i in range(rng.randint(6, 8))]
        s, a, b, c, d, t = rng.sample(verts, 6)
        pairs = [(s, a), (s, c), (a, b), (a, d), (c, b), (b, t), (d, t)]
        pairs += [tuple(rng.sample(verts, 2)) for _ in range(rng.randint(0, 3))]
        rng.shuffle(pairs)
        elements = ["s%d" % i for i in range(rng.randint(1, 4))]
        roots = [(e, s if rng.random() < 0.7 else rng.choice(verts))
                 for e in elements]
        inst = RootedDigraph(
            verts, [("a%d" % i, x, y) for i, (x, y) in enumerate(pairs)],
            roots, random_matroid(rng, elements, rng.choice(KINDS)))
        sources = {s} if rng.random() < 0.5 else set()
        end, fed = as_call(inst, t, sources, 40)
        assert flow.Network(inst).min_cut(end, 40, fed) == \
            enumerated(inst, t, sources, 40), (pairs, roots, sources)


def test_sink_supplied_with_the_cap_reaches_it():
    # the sink's own supply is taken first, each unit a path of no arcs; a
    # sink supplied with the cap or more reaches it on any network
    rng = random.Random(5)
    for _ in range(200):
        inst = random_instance(rng)
        net = flow.Network(inst)
        sink = rng.randrange(len(inst.vertices))
        cap = rng.randint(1, 12)
        supply = {sink: cap + rng.randint(0, 3)}
        assert net.min_cut(sink, cap, supply) == cap, (inst, sink, supply)
        with pytest.raises(ValueError, match="reached its cap"):
            net.minimizer()


def test_out_is_a_supply_of_the_cap():
    # the vertices kept out, as a range, a set or a tuple, give the value
    # and the smallest minimizer of a supply of the cap at each of them
    rng = random.Random(2410)
    below_cap = 0
    for _ in range(600):
        inst = random_instance(rng)
        net = flow.Network(inst)
        n = len(inst.vertices)
        for form in ("range", "set", "tuple"):
            sink = rng.randrange(n)
            cap = rng.randint(1, 30)
            if form == "range":
                out = range(rng.randint(0, n))
            else:
                out = rng.sample(range(n), rng.randint(0, n))
                out = set(out) if form == "set" else tuple(out)
            case = (inst.arcs, inst.roots, sink, cap, out)
            got = net.min_cut(sink, cap, out=out)
            want = net.min_cut(sink, cap, dict.fromkeys(out, cap))
            assert got == want, case
            if want < cap:
                smallest = net.minimizer()
                net.min_cut(sink, cap, out=out)
                assert net.minimizer() == smallest, case
                assert not smallest & set(out), case
                below_cap += 1
    assert below_cap > 300


def test_out_and_a_supply_are_not_taken_together():
    net = flow.Network(random_instance(random.Random(3)))
    with pytest.raises(ValueError, match="a supply or out, not both"):
        net.min_cut(0, 1, {1: 1}, out=(1,))


@pytest.mark.parametrize("engine", ["flow", "brute", "min-norm-point"])
def test_orientation_steps_call_no_sfm(tmp_path, capsys, monkeypatch, engine):
    # the undirected commands run flows alone, the greedy's steps and the
    # tripwire check of a positive's orientation, whatever the engine
    calls = []
    minimize = sfm.minimize

    def spy(obj, *args, **kwargs):
        calls.append(obj.n)
        return minimize(obj, *args, **kwargs)

    monkeypatch.setattr(sfm, "minimize", spy)
    g = planted_graph(random.Random(8), 8, "uniform")
    for graph, want in ((g, (0, 0, 0)), (cut_graph(g), (2, 2, 2))):
        path = write(tmp_path, "g.json", graph)
        codes = tuple(run(capsys, ["--engine", engine, cmd, path])[0]
                      for cmd in ("pack-undirected", "orient", "check"))
        assert codes == want
    assert calls == []


@pytest.mark.parametrize("kind", ["free", "uniform", "partition", "graphic",
                                  "linear"])
def test_flow_check_matches_min_norm_point(kind):
    # planted instances pass by construction, so min-norm-point confirms
    # that only at the smaller size; the cut copies are compared at both
    rng = random.Random(kind)
    for n in (10, 16):
        inst = planted_digraph(rng, n, kind)
        assert check_m_connected(inst, "flow").ok
        if n == 10:
            assert check_m_connected(inst, "min-norm-point").ok
        cut = cut_copy(inst)
        cert = check_m_connected(cut, "flow")
        assert cert == check_m_connected(cut, "min-norm-point")
        assert not cert.ok and recheck_certificate(cut, cert)


class Lying(Matroid):
    """Rank 1 on every singleton and on {a, b} and {b, c}, 2 on {a, c}:
    no matroid, so the exchange lemma may fail for it."""

    def _rank(self, q):
        if len(q) < 2:
            return len(q)
        return 2 if q == {"a", "c"} else 1


def test_dependent_augmentation_trips():
    # unit 1 is a at A; unit 2 starts at c, reaches A, swaps a for b and
    # ends at t, leaving {b, c}, which the lying oracle calls dependent
    inst = RootedDigraph(["t", "A", "B", "C"],
                         [("e1", "A", "t"), ("e2", "C", "A"), ("e3", "B", "t")],
                         [("a", "A"), ("b", "B"), ("c", "C")],
                         Lying(["a", "b", "c"]))
    net = flow.Network(inst)
    before = list(net.cap)
    with pytest.raises(flow.FlowViolation, match="augmentation 2"):
        net.min_cut(0, 2)
    # the two paths flipped e1, e2 and e3: all are restored
    assert net.cap == before
    assert issubclass(flow.FlowViolation, RuntimeError)



def test_dependent_augmentation_on_a_changed_network_reports_live_counts():
    # the network of test_dependent_augmentation_trips, built with one more
    # arc and one more vertex Z; the arc is removed, and a twin of a is
    # placed at Z, which no arc leaves, so the flows run as before
    inst = RootedDigraph(["t", "A", "B", "C", "Z"],
                         [("e1", "A", "t"), ("e2", "C", "A"), ("e3", "B", "t"),
                          ("e4", "t", "C")],
                         [("a", "A"), ("b", "B"), ("c", "C")],
                         Lying(["a", "b", "c"]))
    net = flow.Network(inst)
    net.remove_arc(3)
    net.add_twin(0, net.pos["Z"])
    with pytest.raises(flow.FlowViolation) as exc:
        net.min_cut(0, 2)
    assert str(exc.value).endswith(
        "augmentation 2 (tripwire): engine flow, sink t, sources [], "
        "arcs 3, roots 4")


def write(tmp_path, name, inst) -> str:
    path = tmp_path / name
    path.write_text(emit_instance(inst))
    return str(path)


def run(capsys, argv):
    code = run_command(argv)
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("engine", ["flow", "brute", "min-norm-point"])
def test_certificate_that_does_not_recheck_is_an_error_envelope(
        tmp_path, capsys, monkeypatch, engine):
    cut = cut_copy(planted_digraph(random.Random(5), 8, "free"))
    monkeypatch.setattr(connectivity, "recheck_certificate", lambda *a: False)
    code, out = run(capsys, ["--engine", engine, "check",
                             write(tmp_path, "cut.json", cut)])
    assert code == 1 and out["status"] == "error"
    assert out["payload"]["kind"] == "TheoremViolation"
    assert out["payload"]["message"].startswith("check_m_connected:")
    assert "(tripwire): engine %s," % engine in out["payload"]["message"]


def test_default_engine_packs_and_cuts_40_vertices(tmp_path, capsys):
    inst = planted_digraph(random.Random(40), 40, "partition")
    path = write(tmp_path, "i.json", inst)
    code, out = run(capsys, ["check", path])
    assert code == 0 and out["provenance"]["engine"] == "flow"
    code, out = run(capsys, ["pack", path])
    assert code == 0 and out["status"] == "packing"
    trees = tuple(Tree(t["root_element"], t["root_vertex"], frozenset(t["arcs"]))
                  for t in out["payload"]["trees"])
    assert verify_packing(inst, Packing(trees)) is None
    cut = cut_copy(inst)
    for cmd in ("check", "pack"):
        code, out = run(capsys, [cmd, write(tmp_path, "cut.json", cut)])
        assert code == 2 and out["status"] == "certificate"
        cert = connectivity.Certificate(
            out["payload"]["kind"],
            vertex_set=frozenset(out["payload"]["vertex_set"]),
            deficiency=out["payload"]["deficiency"])
        assert recheck_certificate(cut, cert)


def test_default_engine_packs_and_cuts_a_40_vertex_graph(tmp_path, capsys):
    # above the brute engine's 24-vertex cap: the greedy runs on the flow
    g = planted_graph(random.Random(41), 40, "linear")
    path = write(tmp_path, "g.json", g)
    code, out = run(capsys, ["check", path])
    assert code == 0 and out["provenance"]["engine"] == "flow"
    code, out = run(capsys, ["pack-undirected", path])
    assert code == 0 and out["status"] == "packing"
    trees = tuple(Tree(t["root_element"], t["root_vertex"], frozenset(t["edges"]))
                  for t in out["payload"]["trees"])
    assert verify_packing(g, Packing(trees)) is None
    cut = cut_graph(g)
    for cmd in ("check", "pack-undirected"):
        code, out = run(capsys, [cmd, write(tmp_path, "cut.json", cut)])
        assert code == 2 and out["status"] == "certificate"
        cert = connectivity.Certificate(
            out["payload"]["kind"],
            partition=tuple(frozenset(b) for b in out["payload"]["partition"]),
            deficiency=out["payload"]["deficiency"])
        assert recheck_certificate(cut, cert)
