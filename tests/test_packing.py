import itertools
import pathlib
import random

import pytest

from conftest import (
    cut_copy,
    digraph,
    planted_digraph,
    primed_path,
    random_digraph,
)
from arbopack import flow, matroid, packing, sfm
from arbopack.connectivity import (
    Certificate,
    check_independent_placement,
    check_m_connected,
    classify_arc,
)
from arbopack.graphs import RootedDigraph, SizeLimitError
from arbopack.instances import parse_instance
from arbopack.matroid import (
    ExplicitMatroid,
    FreeMatroid,
    PartitionMatroid,
    UniformMatroid,
)
from arbopack.packing import (
    InfeasibleBound,
    Packing,
    ReductionState,
    TheoremViolation,
    Tree,
    brute_force_packing,
    find_packing,
    find_reduction,
    lift_packing,
    pack_with_bound,
    verify_packing,
)
from arbopack.sweeps import iter_directed_instances


def feasible(inst):
    return (check_independent_placement(inst).ok
            and check_m_connected(inst, "brute").ok)


# -- find_packing ----------------------------------------------------------------


def test_single_arc_single_root():
    d = digraph(["a", "b"], ["a1:a>b"], ["s1@a"], FreeMatroid(["s1"]))
    p = find_packing(d)
    assert isinstance(p, Packing)
    assert p.trees[0].arcs == {"a1"}
    assert brute_force_packing(d) is not None


def test_base_at_every_vertex_gives_singletons():
    d = digraph(["a", "b"], [], ["s1@a", "s2@b"], UniformMatroid(["s1", "s2"], 1))
    p = find_packing(d)
    assert isinstance(p, Packing)
    assert all(not t.arcs for t in p.trees)
    assert len(p.trees) == 2


def test_infeasible_returns_certificate():
    d = digraph(["a", "b"], [], ["s1@a"], FreeMatroid(["s1"]))
    out = find_packing(d)
    assert isinstance(out, Certificate)
    assert out.kind == "violated-set" and out.vertex_set == {"b"}


def test_dependent_placement_certificate_first():
    d = digraph(["a", "b"], ["a1:a>b"], ["s1@a", "s2@a"],
                UniformMatroid(["s1", "s2"], 1))
    out = find_packing(d)
    assert isinstance(out, Certificate) and out.kind == "dependent-vertex"


# -- find_reduction -----------------------------------------------------------------


def test_reduction_on_single_bad_arc():
    d = digraph(["a", "b"], ["a1:a>b"], ["s1@a"], FreeMatroid(["s1"]))
    red = ReductionState(d)
    step = find_reduction(red)
    reduced = red.digraph()
    assert (step.arc_id, step.element) == ("a1", "s1")
    # reduced instance: no arcs, s1 at a plus a parallel twin at b
    assert len(reduced.arcs) == 0
    assert len(reduced.roots) == 2
    assert check_m_connected(reduced).ok
    assert check_independent_placement(reduced).ok


def test_all_good_arcs_signal_base_case():
    d = digraph(["a", "b"], ["a1:a>b"], ["s1@a", "s2@b"],
                UniformMatroid(["s1", "s2"], 1))
    assert find_reduction(ReductionState(d)) is None


def test_reduction_canonical_order_prefers_first_arc():
    d = digraph(["a", "b"], ["r1:a>b", "r2:a>b"], ["s1@a"], FreeMatroid(["s1"]))
    step = find_reduction(ReductionState(d))
    assert step.arc_id == "r1" and step.element == "s1"


def test_reduction_invariants_along_a_run():
    rng = random.Random(71)
    runs = 0
    while runs < 40:
        d = random_digraph(rng, max_v=4, max_arcs=5)
        if not feasible(d):
            continue
        runs += 1
        red = ReductionState(d)
        steps = 0
        while find_reduction(red) is not None:
            steps += 1
            cur = red.digraph()
            assert check_independent_placement(cur).ok
            assert check_m_connected(cur).ok
        cur = red.digraph()
        assert all(classify_arc(cur, a)[0] == "good" for a, _, _ in cur.arcs)
        # arcs removed once per step; roots grow by one per step
        assert len(d.arcs) - len(cur.arcs) == steps
        assert len(cur.roots) - len(d.roots) == steps


def pinned_matches_full_check(inst) -> tuple[int, int]:
    """Compare the pinned check with a full check on every candidate.

    Walks the solver's run on the M-connected ``inst``; at each step every
    candidate, not only the first accepted, is applied to the state, and
    the flow's pinned verdict must equal a full check by the brute
    engine, the reference oracle, on D' built on its own: D less arc j,
    plus the twin of s at v, over the matroid extended parallel to s.
    The step ``find_reduction`` then takes must be the first candidate
    accepted.  Returns (candidates, rejected).
    """
    candidates = rejected = 0
    red = ReductionState(inst)
    while True:
        first = None
        cur = red.digraph()
        for j, x in red.candidates():
            a, u, v = inst.arcs[j]
            s = red.names()[x]
            m, s_new = cur.matroid.extend_parallel(s)
            reduced = RootedDigraph(
                cur.vertices, [arc for arc in cur.arcs if arc[0] != a],
                [*cur.roots, (s_new, v)], m)
            red.apply(j, x)
            pinned = packing._keeps_connected(red, j)
            red.undo()
            assert pinned == check_m_connected(reduced, "brute").ok, \
                (reduced, a, s)
            candidates += 1
            rejected += not pinned
            if pinned and first is None:
                first = (j, x, len(cur.roots), a, u, v, s, s_new)
        taken = find_reduction(red)
        assert (None if taken is None else (
            taken.arc, taken.stem, taken.twin, taken.arc_id, taken.tail,
            taken.head, taken.element, taken.new_element)) == first, \
            (cur, taken)
        if taken is None:
            return candidates, rejected


def test_pinned_check_matches_full_check_on_the_sweep():
    # the sweep of test_01 (every third instance), restricted to the
    # M-connected instances where the solver runs
    candidates = rejected = 0
    for i, inst in enumerate(iter_directed_instances(3, 4, 3)):
        if i % 3 or not feasible(inst):
            continue
        c, r = pinned_matches_full_check(inst)
        candidates += c
        rejected += r
    assert rejected > 0 and candidates > rejected


def test_pinned_check_matches_full_check_on_planted_instances():
    rng = random.Random(606)
    candidates = rejected = 0
    for n in (6, 7, 8, 9):
        for kind in ("free", "uniform", "partition"):
            inst = planted_digraph(rng, n, kind)
            assert feasible(inst), inst
            c, r = pinned_matches_full_check(inst)
            candidates += c
            rejected += r
    assert rejected > 0 and candidates > rejected


def test_split_fails_exactly_where_m_connectivity_fails():
    """``_construct`` on any digraph with an independent placement: a
    packing ``verify_packing`` accepts where the digraph is M-connected,
    and ``TheoremViolation``, never another exception, where it is not,
    also after steps taken.  Callers that split first rely on it."""
    rng = random.Random(2626)
    corpus = [random_digraph(rng, max_v=5, max_arcs=9) for _ in range(250)]
    for n in (3, 4, 5, 6, 7):
        for kind in ("free", "uniform", "partition", "graphic", "linear"):
            for _ in range(3):
                inst = planted_digraph(rng, n, kind)
                corpus += [inst, cut_copy(inst)]
    packed = raised = after_steps = 0
    for inst in corpus:
        if not check_independent_placement(inst).ok:
            continue
        steps: list = []
        if check_m_connected(inst).ok:
            assert verify_packing(inst, packing._construct(inst)) is None, inst
            packed += 1
        else:
            with pytest.raises(TheoremViolation):
                packing._construct(inst, steps)
            raised += 1
            after_steps += bool(steps)
    assert packed > 150 and raised > 150 and after_steps > 100


@pytest.mark.parametrize("engine", ["brute", "min-norm-point"])
def test_only_the_input_check_minimizes(engine, monkeypatch):
    # the engine decides the input check; every reduction candidate is a
    # flow under every engine
    inst = planted_digraph(random.Random(607), 7, "uniform")
    minimize = sfm.minimize
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs.get("engine"))
        return minimize(*args, **kwargs)

    monkeypatch.setattr(sfm, "minimize", spy)
    out = find_packing(inst, engine)
    assert isinstance(out, Packing) and len(out.arc_set()) > 0
    assert calls == [engine]


@pytest.mark.parametrize("engine", ["flow", "brute", "min-norm-point"])
def test_changed_network_matches_a_fresh_build(engine):
    """After every accepted step, the network changed in place gives the
    same cuts, and the same largest minimizers, as one built on D', and
    the cached arc classes are ``classify_arc``'s on D'.

    The cap is above every cut, so each flow reads the minimum itself,
    pinned at every vertex w, with no source and with each other vertex
    as the source.  The engine decides only the input check: it must
    accept every instance, and ``find_packing`` under it must take the
    steps taken here.
    """
    rng = random.Random(4111)
    instances = [planted_digraph(rng, n, kind) for n in (4, 5, 6)
                 for kind in ("free", "uniform", "partition", "graphic",
                              "linear")]
    while len(instances) < 40:
        d = random_digraph(rng, max_v=5, max_arcs=7)
        if feasible(d):
            instances.append(d)
    # tight, with both roots at one vertex: there a candidate is rejected
    # now and then, and the network must be the same after its undo
    while len(instances) < 100:
        verts = ["v%d" % i for i in range(rng.randint(3, 5))]
        arcs = ["a%d:%s>%s" % (i, *rng.sample(verts, 2))
                for i in range(2 * len(verts) - 2)]
        d = digraph(verts, arcs, ["s0@v0", "s1@v0"], FreeMatroid(["s0", "s1"]))
        if feasible(d):
            instances.append(d)
    steps = rejected = 0
    for inst in instances:
        assert check_m_connected(inst, engine).ok, inst
        taken: list = []
        out = find_packing(inst, engine, taken)
        assert isinstance(out, Packing), inst
        red = ReductionState(inst)
        while True:
            drawn = [(red.inst.arcs[j][0], red.names()[x])
                     for j, x in red.candidates()]
            step = find_reduction(red)
            if step is None:
                assert not drawn
                assert taken == [], inst
                break
            assert step == taken.pop(0), inst
            steps += 1
            rejected += drawn.index((step.arc_id, step.element))
            cur = red.digraph()
            fresh = flow.Network(cur)
            cap = len(cur.arcs) + red.k + 1
            # a source u, kept out of every set, is a supply of cap at u
            n = len(cur.vertices)
            for w in range(n):
                for src in [{}] + [{u: cap} for u in range(n) if u != w]:
                    got = red.net.min_cut(w, cap, src)
                    assert got == fresh.min_cut(w, cap, src), \
                        (cur, w, src)
                    assert red.net.minimizer() == fresh.minimizer(), \
                        (cur, w, src)
            classes = {a: classify_arc(cur, a) for a, _, _ in cur.arcs}
            cached = {a: ("bad", frozenset(red.names()[x] for x in w))
                      if w else ("good", frozenset())
                      for (a, _, _), w in zip(red.inst.arcs, red.witness)
                      if a in classes}
            assert cached == classes, cur
            # the candidates of the next step: the bad arcs of a fresh
            # read, in the order of ``bad``, each one's witnesses in
            # ground order
            ground = {e: i for i, e in enumerate(cur.matroid.ground)}
            order = [red.inst.arcs[j][0] for j in red.bad]
            assert sorted(order) == sorted(
                a for a, (kind, _) in classes.items() if kind == "bad"), cur
            assert [(red.inst.arcs[j][0], red.names()[x])
                    for j, x in red.candidates()] == [
                (a, s) for a in order
                for s in sorted(classes[a][1], key=ground.__getitem__)], cur
            assert red.net.live_arcs == len(cur.arcs)
            assert (red.net.home, red.net.ebit, red.net.at) == \
                (fresh.home, fresh.ebit, fresh.at), cur
            assert all(fresh.rank[b] == r for b, r in red.net.rank.items())
    # rejected candidates were undone before the accepted one
    assert steps > 100 and rejected > 0


def test_in_place_witnesses_match_a_fresh_read_at_benchmark_size(
        monkeypatch):
    """After every commit on the benchmark's pack-brute positives (seeds 1
    and 2), each live arc's cached witnesses are those ``_witness`` reads
    afresh, a dead arc has none, and ``bad`` lists the live arcs with
    witnesses first in, first out: those still bad in their order before
    the step, then those that turned bad, in arc order.  Uniform and
    partition matroids make arcs into a head lose witnesses as well as
    arcs out of it gain the twin."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve()
                                    .parent.parent / "perfbench"))
    from build import build_case
    from workloads import WORKLOADS, expand

    lost = gained = turned_bad = 0
    for seed in (1, 2):
        for name, spec in expand(WORKLOADS["pack-brute"]):
            if spec.negative:
                continue
            inst = parse_instance(build_case(seed, name, spec).text)[0]
            red = ReductionState(inst)
            while True:
                before, was_bad = list(red.witness), list(red.bad)
                if find_reduction(red) is None:
                    break
                for j, (was, now) in enumerate(zip(before, red.witness)):
                    if red.live[j]:
                        assert now == red._witness(j), (name, seed, j)
                        lost += len(now) < len(was)
                        gained += len(now) > len(was)
                    else:
                        assert now == (), (name, seed, j)
                now_bad = [j for j, w in enumerate(red.witness)
                           if red.live[j] and w]
                assert list(red.bad) == (
                    [j for j in was_bad if j in now_bad]
                    + [j for j in now_bad if j not in was_bad]), (name, seed)
                turned_bad += len(set(now_bad) - set(was_bad))
    assert lost > 0 and gained > 0 and turned_bad > 0


def names_match_extend_parallel(inst) -> tuple[int, int]:
    """Run the reduction loop on ``inst``, then check each twin's id, named
    after the run as ``--trace`` names it, against extending the matroid
    once per accepted step; returns the number of candidates rejected
    and the length of the longest id."""
    red = ReductionState(inst)
    steps = []
    rejected = 0
    while True:
        drawn = list(red.candidates())
        step = find_reduction(red)
        if step is None:
            break
        rejected += drawn.index((step.arc, step.stem))
        steps.append(step)
    m = inst.matroid
    ids = [e for e, _ in inst.roots]
    for step in steps:
        assert inst.arcs[step.arc] == (step.arc_id, step.tail, step.head)
        assert step.element == ids[step.stem], step
        m, s_new = m.extend_parallel(step.element)
        assert step.new_element == s_new, step
        ids.append(s_new)
    assert red.names() == ids
    reduced = red.digraph().matroid
    assert reduced.ground == m.ground
    assert reduced.twin_map() == m.twin_map()
    return rejected, max(map(len, m.ground))


def test_reduction_names_twins_as_extend_parallel():
    # a path with three parallel arcs per link and ground ids that already
    # end in primes: each step twins an element at its tail, a twin itself
    # from the second vertex on, so the ids grow along chains of twins of
    # twins
    assert names_match_extend_parallel(primed_path())[1] > 12
    # tight, with both roots at one vertex: a rejected candidate takes no
    # id, so the next twin of the same stem gets the one it would have
    rng = random.Random(4112)
    rejected = tight = 0
    while tight < 40:
        verts = ["v%d" % i for i in range(rng.randint(3, 5))]
        arcs = ["a%d:%s>%s" % (i, *rng.sample(verts, 2))
                for i in range(2 * len(verts) - 2)]
        d = digraph(verts, arcs, ["s@v0", "s'@v0"], FreeMatroid(["s", "s'"]))
        if feasible(d):
            tight += 1
            rejected += names_match_extend_parallel(d)[0]
    assert rejected > 2


def test_untraced_packing_names_no_twin(monkeypatch):
    def refuse(*args):
        raise AssertionError("a twin was named")

    monkeypatch.setattr(matroid.TwinIds, "name", refuse)
    rng = random.Random(4113)
    for inst in [primed_path()] + [planted_digraph(rng, 8, kind)
                                   for kind in ("free", "partition")]:
        out = find_packing(inst)
        assert isinstance(out, Packing) and out.arc_set(), inst


# -- base case / lift ----------------------------------------------------------------


def test_base_case_requires_no_bad_arc():
    # read from the state before the loop: b holds no root
    d = digraph(["a", "b"], ["a1:a>b"], ["s1@a"], FreeMatroid(["s1"]))
    with pytest.raises(TheoremViolation) as exc:
        ReductionState(d).base_packing()
    assert str(exc.value) == (
        "base case: the roots at vertex b are no base (tripwire): engine "
        "flow, 0 elements of rank 0, rank 1, steps 0, arcs 1, roots 1")


@pytest.mark.parametrize("roots, matroid, detail", [
    # as many roots as the rank, of lower rank
    (["s2@a", "s3@a", "s1@b"],
     PartitionMatroid([(["s1"], 1), (["s2", "s3"], 1)]),
     "2 elements of rank 1, rank 2"),
    # a spanning set larger than a base
    (["s1@a", "s2@a", "s3@b"], UniformMatroid(["s1", "s2", "s3"], 1),
     "2 elements of rank 1, rank 1"),
], ids=["dependent", "too-many"])
def test_base_case_tripwire_needs_a_base_at_each_vertex(roots, matroid,
                                                        detail):
    d = digraph(["a", "b"], [], roots, matroid)
    with pytest.raises(TheoremViolation) as exc:
        ReductionState(d).base_packing()
    assert str(exc.value) == (
        "base case: the roots at vertex a are no base (tripwire): engine "
        "flow, %s, steps 0, arcs 0, roots 3" % detail)


def test_base_case_tripwire_stops_an_early_loop(monkeypatch):
    # a mutant state that never finds arc a2 bad ends the loop one step
    # early: c is left with no root, and the base case names it.  Arcs
    # are classed by ``_witness`` at the start and re-classed in place by
    # ``commit``, so the mutant clears a2 at both
    class Early(ReductionState):
        def _witness(self, j):
            return () if j == 1 else super()._witness(j)

        def commit(self):
            step = super().commit()
            if self.witness[1]:
                self.witness[1] = ()
                del self.bad[1]
            return step

    monkeypatch.setattr(packing, "ReductionState", Early)
    d = digraph(["a", "b", "c"], ["a1:a>b", "a2:b>c"], ["s1@a"],
                FreeMatroid(["s1"]))
    with pytest.raises(TheoremViolation) as exc:
        find_packing(d)
    assert str(exc.value) == (
        "base case: the roots at vertex c are no base (tripwire): engine "
        "flow, 0 elements of rank 0, rank 1, steps 1, arcs 1, roots 2")


def test_base_case_rank_one_chain():
    d = digraph(["a", "b"], ["a1:a>b"], ["s1@a", "s2@b"],
                UniformMatroid(["s1", "s2"], 1))
    red = ReductionState(d)
    assert find_reduction(red) is None
    p = red.base_packing()
    assert verify_packing(d, p) is None
    assert all(not t.arcs for t in p.trees)


def test_lift_smallest_case():
    d = digraph(["a", "b"], ["a1:a>b"], ["s1@a"], FreeMatroid(["s1"]))
    red = ReductionState(d)
    step = find_reduction(red)
    lifted = lift_packing(d, red.base_packing(), [step])
    assert verify_packing(d, lifted) is None
    assert lifted.trees[0].arcs == {"a1"}


def test_two_successive_lifts_on_path():
    d = digraph(["a", "b", "c"], ["a1:a>b", "a2:b>c"], ["s1@a"],
                FreeMatroid(["s1"]))
    p = find_packing(d)
    assert isinstance(p, Packing)
    assert p.trees[0].arcs == {"a1", "a2"}


def test_lift_rejects_overlapping_trees():
    d = digraph(["a", "b"], ["a1:a>b"], ["s1@a"], FreeMatroid(["s1"]))
    step = find_reduction(ReductionState(d))
    overlapping = Packing((
        Tree(step.element, "a", frozenset()),
        Tree(step.new_element, "a", frozenset()),  # same vertex as the twin
    ))
    with pytest.raises(TheoremViolation):
        lift_packing(d, overlapping, [step])


@pytest.mark.parametrize("roots, arcs, fault", [
    (("a", "a"), (), "the trees rooted at the twins share a vertex"),
    (("a", "b"), ("a1",), "a twin tree is not an arborescence"),
    (("b", "a"), (), "the removed arc does not join the twin trees"),
])
def test_lift_tripwires_name_the_step(roots, arcs, fault):
    d = digraph(["a", "b"], ["a1:a>b"], ["s1@a"], FreeMatroid(["s1"]))
    step = find_reduction(ReductionState(d))
    bad = Packing((
        Tree(step.element, roots[0], frozenset()),
        Tree(step.new_element, roots[1], frozenset(arcs)),
    ))
    with pytest.raises(TheoremViolation) as exc:
        lift_packing(d, bad, [step])
    assert str(exc.value) == (
        "lift_packing: %s (tripwire): arc a1 from a to b, element s1, "
        "twin s1'" % fault)


# -- verifier -----------------------------------------------------------------------


def test_verifier_accepts_solver_output():
    rng = random.Random(19)
    accepted = 0
    while accepted < 50:
        d = random_digraph(rng, max_v=4, max_arcs=5)
        out = find_packing(d)
        if isinstance(out, Packing):
            accepted += 1
            assert verify_packing(d, out) is None


def test_verifier_duplicate_arc():
    d = digraph(["a", "b"], ["a1:a>b"], ["s1@a", "s2@a"],
                UniformMatroid(["s1", "s2"], 1))
    p = Packing((Tree("s1", "a", frozenset({"a1"})),
                 Tree("s2", "a", frozenset({"a1"}))))
    f = verify_packing(d, p)
    assert f is not None and f.reason == "duplicate-arc"


def test_verifier_not_a_base():
    d = digraph(["a", "b"], ["a1:a>b"], ["s1@a"], FreeMatroid(["s1"]))
    p = Packing((Tree("s1", "a", frozenset()),))  # b uncovered
    f = verify_packing(d, p)
    assert f is not None and f.reason == "not-a-base" and f.detail == "b"


# -- brute force oracle ---------------------------------------------------------------


def test_brute_two_parallel_arcs():
    d = digraph(["a", "b"], ["a1:a>b", "a2:a>b"], ["s1@a", "s2@a"],
                FreeMatroid(["s1", "s2"]))
    p = brute_force_packing(d)
    assert p is not None
    assert p.arc_set() == {"a1", "a2"}


def test_brute_none_when_uncoverable():
    d = digraph(["a", "b"], [], ["s1@a"], FreeMatroid(["s1"]))
    assert brute_force_packing(d) is None


def test_brute_empty_root_set():
    d = RootedDigraph(["a"], [], [], FreeMatroid([]))
    p = brute_force_packing(d)
    assert p is not None and p.trees == ()


def test_brute_caps():
    arcs = ["a%d:a>b" % i for i in range(11)]
    d = digraph(["a", "b"], arcs, ["s1@a"], FreeMatroid(["s1"]))
    with pytest.raises(SizeLimitError):
        brute_force_packing(d)


def test_necessity_on_brute_outputs():
    rng = random.Random(101)
    found = 0
    while found < 40:
        d = random_digraph(rng, max_v=3, max_arcs=4, max_roots=3)
        p = brute_force_packing(d)
        if p is None:
            continue
        found += 1
        assert verify_packing(d, p) is None
        assert feasible(d)


def test_arc_count_identity():
    rng = random.Random(103)
    found = 0
    while found < 60:
        d = random_digraph(rng, max_v=4, max_arcs=6)
        out = find_packing(d)
        if not isinstance(out, Packing):
            continue
        found += 1
        k = d.matroid.full_rank()
        expected = k * len(d.vertices) - len(d.roots)
        assert len(out.arc_set()) == expected
        assert sum(len(t.arcs) for t in out.trees) == expected


# -- bounded variant -------------------------------------------------------------------


def test_bound_equal_to_rank_matches_find_packing():
    d = digraph(["a", "b"], ["a1:a>b", "a2:a>b"], ["s1@a", "s2@a"],
                FreeMatroid(["s1", "s2"]))
    out = pack_with_bound(d, 2)
    assert isinstance(out, Packing)
    assert out.arc_set() == find_packing(d).arc_set()


def test_bound_one_two_singletons():
    d = digraph(["a", "b"], [], ["s1@a", "s2@b"], FreeMatroid(["s1", "s2"]))
    out = pack_with_bound(d, 1)
    assert isinstance(out, Packing)
    assert all(not t.arcs for t in out.trees)
    trunc = d.matroid.truncate(1)
    # every vertex covered by roots of truncated rank 1
    for v, elems in (("a", {"s1"}), ("b", {"s2"})):
        assert trunc.rank(elems) == 1


def test_bound_above_rank_infeasible():
    d = digraph(["a", "b"], ["a1:a>b"], ["s1@a"], FreeMatroid(["s1"]))
    with pytest.raises(InfeasibleBound):
        pack_with_bound(d, 2)


def test_bound_dependent_truncated_placement_is_certificate():
    d = digraph(["a", "b"], ["a1:a>b", "a2:a>b"], ["s1@a", "s2@a"],
                FreeMatroid(["s1", "s2"]))
    out = pack_with_bound(d, 1)  # both roots at a, truncated rank 1: dependent
    assert isinstance(out, Certificate) and out.kind == "dependent-vertex"
