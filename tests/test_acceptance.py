"""Acceptance suite.

Each test covers one top-level correctness claim and prints a single
PASS/FAIL line so the whole gate can be read off `pytest -v -s` output.
The oracles here are independent of the library code under test: brute
force enumeration over arc assignments, subsets, partitions, and
orientations.
"""

import itertools
import random
from fractions import Fraction

import pytest

from arbopack.connectivity import (
    check_independent_placement,
    check_m_connected,
    check_partition_connected,
    deficiency_objective,
    dominates,
    is_tight,
    recheck_certificate,
)
from arbopack.graphs import (
    RootedDigraph,
    in_degree,
    is_arborescence,
    iter_subsets,
)
from arbopack.instances import parse_instance, generate_instance
from arbopack.matroid import FreeMatroid
from arbopack.orientation import (
    _orientation_from_bits,
    induced_digraph,
    decompose_edges,
    orient_m_connected,
    pack_undirected,
    verify_tree_packing,
)
from arbopack.packing import (
    Packing,
    Tree,
    brute_force_packing,
    find_packing,
    verify_packing,
)
from arbopack.polytope import min_cost_packing
from arbopack.sfm import SubmodularObjective, minimize
from arbopack.sweeps import (
    default_matroids,
    iter_directed_instances,
    iter_undirected_instances,
)

from conftest import (
    greedy_gaps,
    in_degrees,
    lean_matroids,
    random_digraph,
)


def report(label, detail):
    print("\nPASS %s: %s" % (label, detail))


def feasible(inst) -> bool:
    return (check_independent_placement(inst).ok
            and check_m_connected(inst, "brute").ok)


def enumerate_packings(inst):
    """Ground-truth oracle: all assignments of arcs to trees (or unused)."""
    arcs = list(inst.arcs)
    roots = list(inst.roots)
    t = len(roots)
    for assignment in itertools.product(range(t + 1), repeat=len(arcs)):
        trees = []
        ok = True
        for j, (e, v) in enumerate(roots):
            ids = frozenset(arcs[i][0] for i in range(len(arcs))
                            if assignment[i] == j)
            if not is_arborescence(ids, inst, v):
                ok = False
                break
            trees.append(Tree(e, v, ids))
        if ok:
            p = Packing(tuple(trees))
            if verify_packing(inst, p) is None:
                yield p


def orientation_exists_by_enumeration(g) -> bool:
    for bits in range(1 << len(g.edges)):
        d = induced_digraph(g, _orientation_from_bits(g, bits))
        if check_m_connected(d, "brute").ok:
            return True
    return False


# -- 1. main theorem, exhaustive ---------------------------------------------------


def test_01_main_theorem_equivalence_exhaustive():
    checked = positives = 0
    for inst in iter_directed_instances(max_vertices=3, max_arcs=4,
                                        max_roots=3):
        want = feasible(inst)
        brute = brute_force_packing(inst)
        assert isinstance(brute, Packing) == want, inst
        got = find_packing(inst)
        assert isinstance(got, Packing) == want, inst
        if want:
            assert verify_packing(inst, got) is None, inst
            positives += 1
        checked += 1
    assert positives > 0
    report("criterion-1",
           "find_packing (flow engine) matches the brute-engine feasibility "
           "test and the exhaustive packer on all %d directed instances "
           "(%d feasible)" % (checked, positives))


# -- 2. necessity ------------------------------------------------------------------


def test_02_necessity_random():
    rng = random.Random(20240)
    produced = 0
    for _ in range(1000):
        inst = random_digraph(rng, max_v=4, max_arcs=6, max_roots=3)
        for solver in (find_packing, brute_force_packing):
            out = solver(inst)
            if isinstance(out, Packing):
                assert verify_packing(inst, out) is None
                assert feasible(inst), inst
                produced += 1
    assert produced > 0
    report("criterion-2",
           "%d packings across 1000 random instances all imply both "
           "feasibility conditions" % produced)


# -- 3. arc-count identity ---------------------------------------------------------


def test_03_arc_count_identity():
    rng = random.Random(333)
    counted = 0
    for _ in range(400):
        inst = random_digraph(rng, max_v=4, max_arcs=6, max_roots=3)
        out = find_packing(inst)
        if isinstance(out, Packing):
            k = inst.matroid.full_rank()
            want = k * len(inst.vertices) - len(inst.roots)
            assert len(out.arc_set()) == want, inst
            counted += 1
    assert counted > 0
    report("criterion-3",
           "%d packings each use exactly rank*|V| - |S| arcs" % counted)


# -- 4. single-root specialization -------------------------------------------------


def classical_root_connectivity(inst, root, k) -> bool:
    """rho(X) >= k for every nonempty X avoiding the root."""
    others = [v for v in inst.vertices if v != root]
    return all(in_degree(inst, frozenset(x)) >= k
               for x in iter_subsets(others) if x)


def test_04_single_root_specialization():
    rng = random.Random(444)
    for trial in range(200):
        n = rng.randint(1, 5)
        verts = ["v%d" % i for i in range(n)]
        arcs = []
        for i in range(rng.randint(0, 8) if n > 1 else 0):
            t, h = rng.sample(verts, 2)
            arcs.append(("a%d" % i, t, h))
        k = rng.randint(1, 3)
        root = rng.choice(verts)
        elements = ["s%d" % i for i in range(k)]
        inst = RootedDigraph(verts, arcs, [(e, root) for e in elements],
                             FreeMatroid(elements))
        assert check_m_connected(inst).ok == \
            classical_root_connectivity(inst, root, k), (trial, inst)
    report("criterion-4",
           "200 single-root free-matroid instances agree with the classical "
           "in-degree condition")


# -- 5 + 6. orientation and undirected packing, exhaustive -------------------------


@pytest.fixture(scope="module")
def undirected_sweep():
    rows = []
    for g in iter_undirected_instances(max_vertices=4, max_edges=5,
                                       max_roots=2, matroids=lean_matroids):
        exists = orientation_exists_by_enumeration(g)
        rows.append((g, exists))
    return rows


def test_05_orientation_equivalence_exhaustive(undirected_sweep):
    # the greedy's steps are flows; a reference greedy minimizes each one
    # by subset enumeration, and its gaps must give the oriented digraph's
    # in-degree vector, or sum to the negated deficiency of the certificate
    positives = 0
    for g, exists in undirected_sweep:
        cert = check_partition_connected(g)
        assert cert.ok == exists, g
        oriented = orient_m_connected(g)
        gaps = greedy_gaps(g, "brute")
        assert (not isinstance(oriented, type(cert))) == exists, g
        if exists:
            d = induced_digraph(g, oriented)
            assert check_m_connected(d).ok, g
            forward = in_degrees(g, {e: (u, v) for e, u, v in g.edges})
            assert in_degrees(g, oriented.directions) == {
                v: x + gaps[v] for v, x in forward.items()}, g
            positives += 1
        else:
            assert recheck_certificate(g, oriented), g
            assert -sum(gaps.values()) == oriented.deficiency \
                == cert.deficiency, g
    report("criterion-5",
           "orientation existence matches the partition condition on all %d "
           "undirected instances (%d positive); every negative certificate "
           "rechecks with the enumerator's deficiency; the flow greedy's "
           "in-degree vectors and deficiencies equal those of a greedy whose "
           "steps are brute-force minimizations"
           % (len(undirected_sweep), positives))


def test_06_undirected_packing_exhaustive(undirected_sweep):
    positives = 0
    for g, exists in undirected_sweep:
        want = check_independent_placement(g).ok and exists
        out = pack_undirected(g)
        got = verify_tree_packing(g, out) is None if hasattr(out, "trees") \
            else False
        assert got == want, g
        positives += got
    report("criterion-6",
           "undirected packing succeeds on exactly the %d feasible instances"
           % positives)


# -- 7. decomposition --------------------------------------------------------------


def test_07_decomposition():
    done = 0
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        t = rng.randint(1, 2)
        text = generate_instance(seed, n=n, m=t * (n - 1), t=t,
                                 feasible_bias=True, directed=False)
        g, _ = parse_instance(text)
        k = g.matroid.full_rank()
        assert len(g.edges) + len(g.roots) == k * len(g.vertices)
        assert check_partition_connected(g).ok
        out = decompose_edges(g)
        union = frozenset().union(*(tr.arcs for tr in out.trees))
        assert union == frozenset(g.edge_map), seed
        done += 1
    report("criterion-7",
           "%d generated instances decompose into trees covering every edge"
           % done)


# -- 8. polytope integrality and min cost ------------------------------------------


def test_08_min_cost_integrality():
    solved = 0
    seed = 0
    while solved < 100:
        rng = random.Random(80_000 + seed)
        seed += 1
        n = rng.randint(2, 5)
        t = rng.randint(1, 2)
        m = min(8, t * (n - 1) + rng.randint(0, 3))
        if m < t * (n - 1):
            continue
        text = generate_instance(90_000 + seed, n=n, m=m, t=t,
                                 feasible_bias=True, costs=True)
        inst, extras = parse_instance(text)
        costs = extras["costs"]
        out = min_cost_packing(inst, costs)
        assert isinstance(out, tuple), seed
        packing, cost = out
        assert verify_packing(inst, packing) is None
        best = min(sum(costs[a] for a in p.arc_set())
                   for p in enumerate_packings(inst))
        assert cost == Fraction(best), (seed, cost, best)
        solved += 1
    report("criterion-8",
           "100 random min-cost runs return integral packings matching the "
           "brute-force optimum exactly")


# -- 9. SFM engine agreement -------------------------------------------------------


def test_09_sfm_engine_agreement():
    rng = random.Random(999)
    done = negatives = 0
    while done < 1000:
        inst = random_digraph(rng, max_v=10, max_arcs=14, max_roots=4)
        obj = deficiency_objective(inst)
        a = minimize(obj, engine="brute")
        b = minimize(obj, engine="min-norm-point")
        assert a.value == b.value, inst
        assert a.minimizer == b.minimizer, inst
        got = check_m_connected(inst, "flow")
        if a.value >= 0:
            assert got.ok, inst
        else:
            xs = {inst.vertices[i] for i in a.minimizer}
            assert got.vertex_set == xs and got.deficiency == a.value, inst
            negatives += 1
        done += 1
    assert negatives > 0
    report("criterion-9",
           "brute and minimum-norm-point engines agree on value and "
           "canonical minimizer for 1000 deficiency objectives; the flow "
           "engine's check_m_connected certificates equal brute's on all "
           "1000 (%d violated sets)" % negatives)


# -- 10. structural claims ---------------------------------------------------------


def test_10_structural_claims():
    # span idempotence and the span lemma, exhaustive on small matroids
    for elements in (["s0"], ["s0", "s1"], ["s0", "s1", "s2"]):
        for m in default_matroids(elements):
            for q in iter_subsets(elements):
                sp = m.span(q)
                assert m.span(sp) == sp
                for s in elements:
                    in_span = s in sp
                    assert (m.rank(frozenset(q) | {s}) == m.rank(q)) == in_span

    # tight-set lattice closure on random M-connected instances
    rng = random.Random(1010)
    closures = 0
    tested = 0
    while tested < 300:
        inst = random_digraph(rng, max_v=4, max_arcs=7, max_roots=3)
        if not check_m_connected(inst).ok:
            continue
        tested += 1
        tight = [frozenset(x) for x in iter_subsets(inst.vertices)
                 if x and is_tight(inst, x)]
        for x, y in itertools.combinations(tight, 2):
            if x & y:
                assert is_tight(inst, x & y) and is_tight(inst, x | y)
                closures += 1

    # domination transitivity
    transitive = 0
    for _ in range(300):
        inst = random_digraph(rng, max_v=4, max_arcs=4, max_roots=3)
        sets = [frozenset(x) for x in iter_subsets(inst.vertices)]
        for x, y, z in itertools.product(sets, repeat=3):
            if dominates(inst, x, y) and dominates(inst, y, z):
                assert dominates(inst, x, z)
                transitive += 1

    assert closures > 0 and transitive > 0
    report("criterion-10",
           "span lemma, span idempotence, %d tight-set lattice closures and "
           "%d domination-transitivity triples hold" % (closures, transitive))
