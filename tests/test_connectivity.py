import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import cut_copy, digraph, graph, planted_digraph, random_digraph
from arbopack.connectivity import (
    VIOLATED_SET,
    Certificate,
    check_independent_placement,
    check_m_connected,
    check_partition_connected,
    classify_arc,
    deficiency_objective,
    dominates,
    is_tight,
    recheck_certificate,
)
from arbopack.graphs import InstanceError, RootedDigraph, entering_arcs, in_degree
from arbopack.matroid import (
    FreeMatroid,
    GraphicMatroid,
    LinearMatroid,
    PartitionMatroid,
    UniformMatroid,
)


def all_nonempty_subsets(verts):
    for k in range(1, len(verts) + 1):
        yield from map(frozenset, itertools.combinations(verts, k))


def enumerate_m_connected(inst):
    """Independent check of condition (2) by full enumeration."""
    m = inst.matroid
    k = m.full_rank()
    return all(
        in_degree(inst, x) >= k - m.rank(inst.elements_in(x))
        for x in all_nonempty_subsets(inst.vertices)
    )


def stacked_extensions():
    """Four parallel extensions, two of them twins of a twin."""
    m = UniformMatroid(["s1", "s2", "s3"], 2)
    m, t1 = m.extend_parallel("s1")
    m, t2 = m.extend_parallel(t1)
    m, _ = m.extend_parallel("s2")
    m, _ = m.extend_parallel(t2)
    return m


def objective_matroids():
    yield PartitionMatroid([(["p1", "p2"], 1), (["p3", "p4", "p5"], 2)])
    yield GraphicMatroid([("e1", "x", "y"), ("e2", "y", "z"),
                          ("e3", "z", "x"), ("e4", "z", "w")])
    yield LinearMatroid(3, {"c1": [1, 0, 0], "c2": [0, 1, 0],
                            "c3": [1, 1, 0], "c4": [0, 0, 2]})
    yield GraphicMatroid([("e1", "x", "y"), ("e2", "y", "z"),
                          ("e3", "z", "x"), ("e4", "z", "w")]).truncate(2)
    yield stacked_extensions()
    yield stacked_extensions().truncate(1).extend_parallel("s3")[0]


# parallel arcs a1/a2 and a6/a7
OBJECTIVE_ARCS = [("a1", "a", "b"), ("a2", "a", "b"), ("a3", "b", "c"),
                  ("a4", "c", "a"), ("a5", "d", "b"), ("a6", "c", "d"),
                  ("a7", "c", "d")]


@pytest.mark.parametrize("m", list(objective_matroids()),
                         ids=lambda m: type(m).__name__)
def test_objective_matches_direct_formula(m):
    rng = random.Random(len(m.ground))
    verts = ["a", "b", "c", "d"]
    roots = [(e, rng.choice(verts)) for e in m.ground]
    inst = RootedDigraph(verts, OBJECTIVE_ARCS, roots, m)
    weights = {a: Fraction(rng.randint(0, 6), rng.randint(1, 4))
               for a, _, _ in OBJECTIVE_ARCS}
    # the weighted form takes the weights times a common denominator D
    # and D itself, and reads D times the cut objective
    scale = math.lcm(*(w.denominator for w in weights.values()))
    assert scale > 1
    plain = deficiency_objective(inst)
    weighted = deficiency_objective(
        inst, {a: int(w * scale) for a, w in weights.items()}, scale)
    k = m.full_rank()
    for x in all_nonempty_subsets(verts):
        idx = frozenset(verts.index(v) for v in x)
        rank = m.rank(inst.elements_in(x))
        assert plain.evaluate(idx) == in_degree(inst, x) + rank - k, x
        flow = sum(weights[a] for a in entering_arcs(inst, x))
        value = weighted.evaluate(idx)
        assert type(value) is int and value == scale * (flow + rank - k), x


@pytest.mark.parametrize(
    "m", [FreeMatroid(["f1", "f2", "f3"]), UniformMatroid(["u1", "u2", "u3"], 2),
          *objective_matroids()], ids=lambda m: type(m).__name__)
def test_prefixes_match_evaluate_on_every_prefix(m):
    # the objective reads a chain in one pass over the arcs; each value
    # must be evaluate's on that prefix, plain and with weights times a
    # scale, on random starts and orders, parallel arcs and twins included
    rng = random.Random(len(m.ground) * 7 + m.full_rank())
    verts = ["v%d" % i for i in range(6)]
    for _ in range(40):
        roots = [(e, rng.choice(verts)) for e in m.ground]
        arcs = [("a%d" % i, *rng.sample(verts, 2))
                for i in range(rng.randint(0, 16))]
        inst = RootedDigraph(verts, arcs, roots, m)
        scale = rng.choice((1, 3, 12))
        weights = {a: rng.randint(0, 2 * scale) for a, _, _ in arcs}
        for obj in (deficiency_objective(inst),
                    deficiency_objective(inst, weights, scale)):
            idx = list(range(len(verts)))
            rng.shuffle(idx)
            pin = rng.randint(0, len(idx))
            start = frozenset(idx[:pin])
            order = idx[pin:rng.randint(pin, len(idx))]
            assert obj.prefixes(start, order) == [
                obj.evaluate(start | set(order[:j + 1]))
                for j in range(len(order))]


# -- independent placement --------------------------------------------------------


def test_dependent_placement_uniform():
    d = digraph(["a"], [], ["s1@a", "s2@a"], UniformMatroid(["s1", "s2"], 1))
    cert = check_independent_placement(d)
    assert cert.kind == "dependent-vertex" and cert.vertex == "a"
    assert recheck_certificate(d, cert)


def test_free_placement_always_independent():
    d = digraph(["a", "b"], [], ["s1@a", "s2@a", "s3@b"],
                FreeMatroid(["s1", "s2", "s3"]))
    assert check_independent_placement(d).ok


def test_dependent_placement_partition_cap():
    m = PartitionMatroid([(["s1", "s2"], 1)])
    d = digraph(["a", "b"], [], ["s1@b", "s2@b"], m)
    cert = check_independent_placement(d)
    assert cert.kind == "dependent-vertex" and cert.vertex == "b"


# -- condition (2) ------------------------------------------------------------------


def test_m_connected_two_parallel_arcs():
    d = digraph(["a", "b"], ["a1:a>b", "a2:a>b"], ["s1@a", "s2@a"],
                FreeMatroid(["s1", "s2"]))
    assert enumerate_m_connected(d)
    assert check_m_connected(d).ok


def test_m_disconnected_isolated_vertex():
    d = digraph(["a", "b"], [], ["s1@a"], FreeMatroid(["s1"]))
    assert not enumerate_m_connected(d)
    cert = check_m_connected(d)
    assert cert.kind == "violated-set"
    assert cert.vertex_set == frozenset({"b"})
    assert cert.deficiency == -1
    assert recheck_certificate(d, cert)


def test_m_connected_base_everywhere_no_arcs():
    d = digraph(["a", "b"], [], ["s1@a", "s2@b"], UniformMatroid(["s1", "s2"], 1))
    assert check_m_connected(d).ok


def test_m_connected_agrees_with_enumeration():
    rng = random.Random(97)
    for _ in range(150):
        d = random_digraph(rng, max_v=5, max_arcs=7)
        assert check_m_connected(d).ok == enumerate_m_connected(d)


def test_single_root_specialization():
    # free matroid, all roots at one vertex r: condition (2) collapses to
    # the classical in-degree >= k over sets avoiding r
    rng = random.Random(41)
    for _ in range(100):
        d = random_digraph(rng, max_v=5, max_arcs=8, kinds=("free",))
        r = d.vertices[0]
        elements = [e for e, _ in d.roots]
        d = digraph(list(d.vertices),
                    ["%s:%s>%s" % a for a in d.arcs],
                    ["%s@%s" % (e, r) for e in elements],
                    FreeMatroid(elements))
        k = len(elements)
        classical = all(
            in_degree(d, x) >= k
            for x in all_nonempty_subsets([v for v in d.vertices if v != r])
        )
        assert check_m_connected(d).ok == classical


# -- partition connectivity ------------------------------------------------------------


def test_partition_connected_is_connectivity_at_rank_one():
    g = graph(["a", "b", "c"], ["e1:a-b", "e2:b-c"], ["s1@a"],
              FreeMatroid(["s1"]))
    assert check_partition_connected(g).ok


def test_disconnected_graph_violates():
    g = graph(["a", "b"], [], ["s1@a"], FreeMatroid(["s1"]))
    cert = check_partition_connected(g)
    assert cert.kind == "violated-partition"
    assert recheck_certificate(g, cert)


def test_triangle_two_roots_violated_by_singletons():
    g = graph(["a", "b", "c"], ["e1:a-b", "e2:b-c", "e3:c-a"],
              ["s1@a", "s2@a"], FreeMatroid(["s1", "s2"]))
    # enumeration of all 5 partitions: only the singleton one fails (3 < 4)
    cert = check_partition_connected(g)
    assert cert.kind == "violated-partition"
    assert set(cert.partition) == {frozenset({"a"}), frozenset({"b"}),
                                   frozenset({"c"})}
    assert cert.deficiency == -1


# -- good/bad arcs and tightness ----------------------------------------------------------


def test_arc_with_empty_tail_roots_is_good():
    d = digraph(["a", "b"], ["a1:b>a"], ["s1@a"], FreeMatroid(["s1"]))
    assert classify_arc(d, "a1") == ("good", frozenset())


def test_bad_arc_with_witness():
    d = digraph(["a", "b"], ["a1:a>b"], ["s1@a"], FreeMatroid(["s1"]))
    kind, witness = classify_arc(d, "a1")
    assert kind == "bad" and witness == {"s1"}


def test_good_arc_rank_one_span():
    d = digraph(["a", "b"], ["a1:a>b"], ["s1@a", "s2@b"],
                UniformMatroid(["s1", "s2"], 1))
    assert classify_arc(d, "a1")[0] == "good"


def test_tightness():
    d = digraph(["a", "b"], ["a1:a>b", "a2:a>b"], ["s1@a", "s2@a"],
                FreeMatroid(["s1", "s2"]))
    assert check_m_connected(d).ok
    assert is_tight(d, {"a", "b"})      # V is tight on every connected instance
    assert is_tight(d, {"b"})           # in-degree 2 = 2 - 0
    d3 = digraph(["a", "b"], ["a1:a>b", "a2:a>b", "a3:a>b"],
                 ["s1@a", "s2@a"], FreeMatroid(["s1", "s2"]))
    assert not is_tight(d3, {"b"})      # 3 > 2
    with pytest.raises(InstanceError):
        is_tight(d, set())


def test_tight_set_lattice_closure():
    rng = random.Random(13)
    checked = 0
    while checked < 60:
        d = random_digraph(rng, max_v=5, max_arcs=7)
        if not (check_independent_placement(d).ok and check_m_connected(d).ok):
            continue
        checked += 1
        tights = [x for x in all_nonempty_subsets(d.vertices) if is_tight(d, x)]
        m = d.matroid
        for x, y in itertools.product(tights, repeat=2):
            if not x & y:
                continue
            assert is_tight(d, x & y)
            assert is_tight(d, x | y)
            sx, sy = d.elements_in(x), d.elements_in(y)
            assert m.rank(sx & sy) + m.rank(sx | sy) == m.rank(sx) + m.rank(sy)


def test_domination_transitive():
    rng = random.Random(29)
    for _ in range(60):
        d = random_digraph(rng, max_v=4, max_arcs=4)
        sets = list(all_nonempty_subsets(d.vertices))
        for x, y, z in itertools.product(sets, repeat=3):
            if dominates(d, z, y) and dominates(d, y, x):
                assert dominates(d, z, x)


def decision_pair():
    """A feasible 4-vertex instance, and a violated one with its
    certificate by brute force."""
    m = FreeMatroid(["s1", "s2"])
    feasible = digraph(["a", "b", "c", "d"],
                       ["1:a>b", "2:b>c", "3:c>d", "4:d>a", "5:a>c", "6:c>a",
                        "7:b>d", "8:d>b"],
                       ["s1@a", "s2@c"], m)
    violated = digraph(["a", "b", "c", "d"], ["1:a>b", "2:b>c", "3:c>d", "4:a>d"],
                       ["s1@a", "s2@c"], m)
    expected = check_m_connected(violated, engine="brute")
    assert check_m_connected(feasible, engine="brute").ok
    assert not expected.ok
    return feasible, violated, expected


@pytest.mark.parametrize("engine", ["flow", "min-norm-point"])
def test_passing_check_is_decision_only(monkeypatch, engine):
    # flow reads a failed search only on a negative run, so a passing
    # check reads none, and the violated instance's two negative runs
    # (sinks a and b) one each; min-norm-point reads each run's minimizer
    # off its Wolfe point, so a check makes its n - 1 Wolfe runs and no
    # more, passing or not
    from arbopack import flow, sfm

    feasible, violated, expected = decision_pair()
    reads = []
    if engine == "flow":
        minimizer = flow.Network.minimizer

        def spy(net):
            reads.append(None)
            return minimizer(net)

        monkeypatch.setattr(flow.Network, "minimizer", spy)
    else:
        wolfe = sfm._wolfe_min_norm

        def spy(*args):
            reads.append(None)
            return wolfe(*args)

        monkeypatch.setattr(sfm, "_wolfe_min_norm", spy)
    assert check_m_connected(feasible, engine=engine).ok
    assert len(reads) == (0 if engine == "flow" else 3)
    reads.clear()
    assert check_m_connected(violated, engine=engine) == expected
    assert len(reads) == (2 if engine == "flow" else 3)


def test_flow_run_i_keeps_out_exactly_the_indices_below_i(monkeypatch):
    # the flow check is split by smallest index: run i has sink i, cap
    # k = 2, no supply, and keeps out each index below i; a
    # negative reads its violated set off those runs and makes no more
    from arbopack import flow

    calls = []
    min_cut = flow.Network.min_cut

    def spy(net, sink, cap, supply=None, out=()):
        calls.append((sink, cap, supply,
                      {i for i in range(len(net.pos)) if i in out}))
        return min_cut(net, sink, cap, supply, out)

    monkeypatch.setattr(flow.Network, "min_cut", spy)
    feasible, violated, expected = decision_pair()
    runs = [(i, 2, None, set(range(i))) for i in range(4)]
    calls.clear()
    assert check_m_connected(feasible).ok
    assert calls == runs
    calls.clear()
    assert check_m_connected(violated) == expected
    assert calls == runs


def runs_by_smallest_index(inst) -> list:
    """For each vertex index v, the map X -> def(X) over the sets whose
    smallest index is v, with def(X) read from ``in_degree`` and the
    matroid's rank."""
    verts, m = inst.vertices, inst.matroid
    k = m.full_rank()
    runs = []
    for v in range(len(verts)):
        run = {}
        for r in range(len(verts) - v):
            for extra in itertools.combinations(verts[v + 1:], r):
                xs = frozenset((verts[v], *extra))
                run[xs] = in_degree(inst, xs) + m.rank(inst.elements_in(xs)) - k
        runs.append(run)
    return runs


def thinned(rng, inst):
    """``inst`` with each arc kept with probability 3/4."""
    return RootedDigraph(inst.vertices,
                         [a for a in inst.arcs if rng.random() < 0.75],
                         inst.roots, inst.matroid)


def test_every_engine_reports_the_first_minimizing_runs_smallest_minimizer():
    # the reference: the minimizers of each run, by smallest index, by
    # enumeration, and the intersection of those of the first run that
    # reaches the minimum.  The counters show the corpus tells that rule
    # from its near misses: a later run that ties the minimum with
    # another set, a later negative run with another smallest minimizer,
    # a winning run with several minimizers, and a certificate that is
    # not the lex-smallest minimizer
    rng = random.Random(1980)
    corpus = [random_digraph(rng, max_v=9, max_arcs=16, max_roots=4)
              for _ in range(150)]
    for kind in ("free", "uniform", "partition", "graphic", "linear"):
        for n in range(3, 10):
            inst = planted_digraph(rng, n, kind)
            corpus += [inst, cut_copy(inst), thinned(rng, inst)]
    seen = Counter()
    for inst in corpus:
        runs = runs_by_smallest_index(inst)
        lows = [min(run.values()) for run in runs]
        least = min(lows)
        first = lows.index(least)
        tied = [xs for xs, d in runs[first].items() if d == least]
        want = Certificate(VIOLATED_SET, vertex_set=frozenset.intersection(
            *tied), deficiency=least) if least < 0 else Certificate("ok")
        for engine in ("flow", "brute", "min-norm-point"):
            assert check_m_connected(inst, engine) == want, (engine, inst.arcs,
                                                             inst.roots)
        if least >= 0:
            seen["ok"] += 1
            continue
        seen["violated"] += 1
        smallest = [frozenset.intersection(*(xs for xs, d in run.items()
                                             if d == low))
                    for run, low in zip(runs, lows)]
        later = range(first + 1, len(runs))
        seen["tie later"] += any(lows[v] == least for v in later)
        seen["negative later"] += any(
            lows[v] < 0 and smallest[v] != smallest[first] for v in later)
        seen["several minimizers"] += len(tied) > 1
        lex = min(tied, key=lambda xs: sorted(inst.vertices.index(v)
                                              for v in xs))
        seen["not lex-smallest"] += lex != want.vertex_set
    assert all(seen[c] >= 10 for c in (
        "ok", "violated", "tie later", "negative later",
        "several minimizers", "not lex-smallest")), seen
