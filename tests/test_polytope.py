import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import digraph, random_digraph
from test_lp import reference_cold_lp, reference_solve_lp
from arbopack import flow, polytope, sfm
from arbopack.connectivity import (
    Certificate,
    check_independent_placement,
    check_m_connected,
    deficiency_objective,
)
from arbopack.graphs import RootedDigraph
from arbopack.instances import _generate_raw, generate_instance, parse_instance
from arbopack.lp import LpResult, solve_lp
from arbopack.matroid import FreeMatroid, UniformMatroid
from arbopack.packing import Packing, Tree, brute_force_packing, verify_packing
from arbopack.polytope import (
    RationalVector,
    mass_rhs,
    min_cost_packing,
    separate,
)


def feasible(inst):
    return check_independent_placement(inst).ok and check_m_connected(inst).ok


def enumerate_packings(inst):
    """Independent exhaustive enumeration of all valid packings."""
    from arbopack.graphs import is_arborescence

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
        if not ok:
            continue
        p = Packing(tuple(trees))
        if verify_packing(inst, p) is None:
            yield p


# -- separation --------------------------------------------------------------------


def test_characteristic_vector_of_packing_accepted():
    d = digraph(["a", "b"], ["a1:a>b", "a2:a>b"], ["s1@a", "s2@a"],
                FreeMatroid(["s1", "s2"]))
    p = brute_force_packing(d)
    x = RationalVector.characteristic(d, p.arc_set())
    assert separate(d, x) is None


def test_mass_equality_violation():
    d = digraph(["a", "b"], ["a1:a>b", "a2:a>b"], ["s1@a", "s2@a"],
                FreeMatroid(["s1", "s2"]))
    x = RationalVector.characteristic(d, {"a1"})
    out = separate(d, x)
    assert out is not None and out.kind == "mass-equality"
    assert out.rhs == mass_rhs(d) == 2


def test_zero_vector_gets_a_cut():
    d = digraph(["a", "b"], ["a1:a>b"], ["s1@a"], FreeMatroid(["s1"]))
    # make mass hold while a cut fails: impossible here with zeros, so use
    # a fractionally-spread vector summing to the mass on a bigger instance
    d2 = digraph(["a", "b", "c"], ["a1:a>b", "a2:b>c", "a3:a>c", "a4:c>b"],
                 ["s1@a"], FreeMatroid(["s1"]))
    assert mass_rhs(d2) == 2
    x = RationalVector.from_arcs(d2, {"a1": Fraction(2), "a2": 0,
                                      "a3": 0, "a4": 0})
    out = separate(d2, x)
    assert out is not None and out.kind == "box-upper" and out.arc == "a1"
    # mass holds but {b} receives nothing: a deficient cut must be reported
    x = RationalVector.from_arcs(d2, {"a1": 0, "a2": 1, "a3": 1, "a4": 0})
    out = separate(d2, x)
    assert out is not None and out.kind == "cut"
    assert "b" in out.vertex_set
    assert out.rhs >= 1


@pytest.mark.parametrize("scale", [1, 2])
def test_a_cut_that_is_not_violated_trips(monkeypatch, scale):
    # separate re-checks its cut against the point: a minimizer that
    # names the whole vertex set, entered by no arc and never violated,
    # trips, on a 0/1 point (flow) and on a fractional one (min-norm-point)
    d = digraph(["a", "b", "c"], ["a1:a>b", "a2:b>c", "a3:a>c", "a4:c>b"],
                ["s1@a"], FreeMatroid(["s1"]))
    everything = frozenset({0, 1, 2})
    if scale == 1:
        monkeypatch.setattr(flow.Network, "largest_minimizer",
                            lambda net: everything)
    else:
        minimize = sfm.minimize
        monkeypatch.setattr(sfm, "minimize", lambda *args, **kwargs: (
            sfm.SfmResult(everything, minimize(*args, **kwargs).value)))
    half = Fraction(1, scale)  # {b} is entered by a1 + a4 = half < 1
    x = RationalVector.from_arcs(d, {"a1": 1 - half, "a2": half, "a3": 1,
                                     "a4": 0})
    with pytest.raises(polytope.TheoremViolation) as info:
        separate(d, x)
    assert str(info.value) == (
        "separate: the cut on ['a', 'b', 'c'] is not violated (tripwire): "
        "rhs 0, scale %d, arcs 4" % scale)


def test_box_violations_found_first():
    d = digraph(["a", "b"], ["a1:a>b"], ["s1@a"], FreeMatroid(["s1"]))
    x = RationalVector.from_arcs(d, {"a1": Fraction(-1, 2)})
    out = separate(d, x)
    assert out.kind == "box-lower" and out.arc == "a1"


def fraction_separation(inst, x, pick=frozenset.union):
    """The most violated cut by Fraction enumeration of every nonempty
    vertex set, or None when no cut is violated.  The sets are split by
    smallest index, and the cut is the union (``pick``) of the minimizers
    of the first split that reaches the minimum."""
    verts, m = inst.vertices, inst.matroid
    k = m.full_rank()
    best = None
    for v in range(len(verts)):
        values = {}
        rest = range(v + 1, len(verts))
        for size in range(len(rest) + 1):
            for idx in itertools.combinations(rest, size):
                xs = frozenset(verts[i] for i in (v, *idx))
                values[xs] = (sum((x.entries[a] for a, t, h in inst.arcs
                                   if h in xs and t not in xs), Fraction(0))
                              + m.rank(inst.elements_in(xs)) - k)
        least = min(values.values())
        if best is None or least < best[0]:
            best = (least, pick(
                *(xs for xs, val in values.items() if val == least)))
    if best[0] >= 0:
        return None
    return polytope.PolytopeConstraint(
        "cut", vertex_set=best[1], rhs=k - m.rank(inst.elements_in(best[1])))


def random_point(rng, inst):
    """A random rational point in the box with the right mass, of mixed
    denominators, or None when the mass does not fit in the box."""
    ids = [a for a, _, _ in inst.arcs]
    mass = mass_rhs(inst)
    if not 0 <= mass <= len(ids):
        return None
    raw = {}
    for a in ids:
        q = rng.choice((1, 2, 3, 4, 5, 7))
        raw[a] = Fraction(rng.randint(0, q), q)
    total = sum(raw.values(), Fraction(0))
    if total > mass:
        raw = {a: v * mass / total for a, v in raw.items()}
    elif total < mass:  # move each entry toward 1 by the same share
        share = Fraction(len(ids) - mass, len(ids) - total)
        raw = {a: 1 - (1 - v) * share for a, v in raw.items()}
    return RationalVector.from_arcs(inst, raw)


def test_separation_matches_fraction_enumeration():
    # separate scales the point to ints; its cut (or None) must be the one
    # a Fraction enumeration of the unscaled objective finds
    rng = random.Random(1985)
    found = Counter()
    while found["cut"] < 150 or found[None] < 40:
        d = random_digraph(rng, max_v=5, max_arcs=9, max_roots=3)
        x = random_point(rng, d)
        if x is None:
            continue
        want = fraction_separation(d, x)
        assert separate(d, x) == want, (d, x)
        found[want and want.kind] += 1
        found["scaled"] += any(v.denominator > 1 for v in x.entries.values())
        found["not smallest"] += want != fraction_separation(
            d, x, frozenset.intersection)
    assert found["scaled"] > 100 and found["not smallest"] > 10


def test_flow_separation_of_0_1_points_matches_brute():
    # a 0/1 point is decided by flow on its support; the cut, the
    # largest minimizer of the first minimizing run with its rhs, must
    # be the one brute enumeration finds on that support, on every 0/1
    # point of the right mass.  Many of those cuts are not the smallest
    # minimizer, the certificate of check_m_connected.
    from arbopack.sweeps import iter_directed_instances

    found = Counter()
    for inst in iter_directed_instances(3, 4, 3):
        ids = [a for a, _, _ in inst.arcs]
        mass = mass_rhs(inst)
        if not 0 <= mass <= len(ids):
            continue
        m = inst.matroid
        for chosen in itertools.combinations(ids, mass):
            x = RationalVector.characteristic(inst, chosen)
            support = RootedDigraph(
                inst.vertices, [arc for arc in inst.arcs if arc[0] in chosen],
                inst.roots, m)
            res = sfm.minimize(deficiency_objective(support), "brute",
                               largest=True)
            xs = frozenset(inst.vertices[i] for i in res.minimizer)
            want = None if res.value >= 0 else polytope.PolytopeConstraint(
                "cut", vertex_set=xs,
                rhs=m.full_rank() - m.rank(inst.elements_in(xs)))
            assert separate(inst, x) == want, (inst, chosen)
            found[want and want.kind] += 1
            if want is not None:
                cert = check_m_connected(support, "brute")
                found["not smallest"] += cert.vertex_set != xs
    assert found["cut"] > 10000 and found[None] > 1000
    assert found["not smallest"] > 1000


def test_fractional_separation_has_no_size_cap():
    # a fractional point runs min-norm-point, with no cap, whatever the
    # engine.  On 30 vertices, a path p from the root's v0 and a cycle c
    # through v1..v29 (v1 -> v29 -> ... -> v2 -> v1), each at 1/2, give
    # every vertex but v0 in-degree 1; only {v1..v29} is entered by less
    # than 1, by p1 alone.  Half the path plus half the arborescence p1,
    # then c back from v29 down to v2, lies in the polytope.
    n = 30
    verts = ["v%d" % i for i in range(n)]
    path = ["p%d:v%d>v%d" % (i, i - 1, i) for i in range(1, n)]
    cycle = ["c%d:v%d>v%d" % (i, i + 1, i) for i in range(1, n - 1)]
    cycle.append("c%d:v1>v%d" % (n - 1, n - 1))
    d = digraph(verts, path + cycle, ["s1@v0"], FreeMatroid(["s1"]))
    half = Fraction(1, 2)
    x = RationalVector.from_arcs(d, {a: half for a, _, _ in d.arcs})
    cut = separate(d, x)
    assert cut.kind == "cut" and cut.vertex_set == frozenset(verts[1:])
    entering = sum(x.entries[a] for a, t, h in d.arcs
                   if h in cut.vertex_set and t not in cut.vertex_set)
    assert entering == half < cut.rhs == 1
    inside = dict(x.entries, p1=1, c1=0)
    assert separate(d, RationalVector.from_arcs(d, inside)) is None


# -- membership vs feasibility -----------------------------------------------------------


def test_membership_iff_feasible_tiny_sweep():
    from arbopack.sweeps import iter_directed_instances

    count = 0
    for inst in iter_directed_instances(max_vertices=2, max_arcs=3, max_roots=2):
        count += 1
        is_feasible = feasible(inst)
        zero_one_points = []
        ids = [a for a, _, _ in inst.arcs]
        for chosen in itertools.chain.from_iterable(
                itertools.combinations(ids, k) for k in range(len(ids) + 1)):
            x = RationalVector.characteristic(inst, chosen)
            if separate(inst, x) is None:
                zero_one_points.append(frozenset(chosen))
        if is_feasible:
            some = brute_force_packing(inst)
            assert some is not None
            assert some.arc_set() in zero_one_points
        else:
            assert not zero_one_points
        # every accepted 0/1 point is the arc set of a valid packing
        packing_arc_sets = {p.arc_set() for p in enumerate_packings(inst)}
        assert set(zero_one_points) == packing_arc_sets
    assert count > 100


def test_valid_inequality_mass_lower_bound():
    # any x passing boxes and every cut satisfies x(A) >= k|V| - |S|,
    # decided here by direct enumeration of all nonempty vertex sets
    from arbopack.graphs import entering_arcs, iter_subsets

    rng = random.Random(77)
    checked = 0
    satisfied = 0
    while checked < 40:
        d = random_digraph(rng, max_v=3, max_arcs=4)
        if not feasible(d):
            continue
        checked += 1
        ids = [a for a, _, _ in d.arcs]
        k = d.matroid.full_rank()
        for _ in range(20):
            x = RationalVector.from_arcs(
                d, {a: Fraction(rng.randint(0, 4), 4) for a in ids})
            cuts_hold = all(
                sum(x.entries[a] for a in entering_arcs(d, X))
                >= k - d.matroid.rank(d.elements_in(X))
                for X in iter_subsets(d.vertices, nonempty=True)
            )
            if cuts_hold:
                satisfied += 1
                assert x.total() >= mass_rhs(d)
    assert satisfied > 0


# -- min cost -----------------------------------------------------------------------------


def test_three_parallel_arcs_min_cost():
    d = digraph(["a", "b"], ["r1:a>b", "r2:a>b", "r3:a>b"],
                ["s1@a", "s2@a"], FreeMatroid(["s1", "s2"]))
    costs = {"r1": 1, "r2": 5, "r3": 2}
    expected = min(sum(costs[a] for a in p.arc_set())
                   for p in enumerate_packings(d))
    assert expected == 3
    out = min_cost_packing(d, costs)
    packing, cost = out
    assert cost == 3
    assert packing.arc_set() == {"r1", "r3"}


def test_unique_packing_any_costs():
    d = digraph(["a", "b", "c"], ["a1:a>b", "a2:b>c"], ["s1@a"],
                FreeMatroid(["s1"]))
    for costs in ({"a1": 1, "a2": 1}, {"a1": 50, "a2": 3}):
        packing, cost = min_cost_packing(d, costs)
        assert packing.arc_set() == {"a1", "a2"}
        assert cost == costs["a1"] + costs["a2"]


def test_infeasible_instance_certificate_without_lp():
    d = digraph(["a", "b"], [], ["s1@a"], FreeMatroid(["s1"]))
    out = min_cost_packing(d, {})
    assert isinstance(out, Certificate) and out.kind == "violated-set"


def test_disconnected_instance_with_a_greedy_vertex_is_certified():
    # a and b have their d(v) = 1 entering arc each, so the greedy split
    # succeeds, but no arc enters {a, b}: the instance is checked when
    # separation first cuts the greedy vertex, before the cut is added,
    # which would leave the relaxation infeasible
    d = digraph(["r", "a", "b"], ["ab:a>b", "ba:b>a"], ["s1@r"],
                FreeMatroid(["s1"]))
    for engine in ("flow", "brute", "min-norm-point"):
        trace = []
        out = min_cost_packing(d, {"ab": 1, "ba": 2}, engine=engine,
                               lp_trace=trace)
        assert out == Certificate("violated-set", vertex_set=frozenset("ab"),
                                  deficiency=-1), engine
        assert trace == [], engine


def test_min_cost_matches_brute_force_random():
    rng = random.Random(111)
    solved = 0
    while solved < 30:
        d = random_digraph(rng, max_v=4, max_arcs=6, max_roots=2)
        if not feasible(d):
            continue
        solved += 1
        ids = [a for a, _, _ in d.arcs]
        costs = {a: rng.randint(1, 100) for a in ids}
        best = min((sum(costs[a] for a in p.arc_set())
                    for p in enumerate_packings(d)), default=None)
        assert best is not None
        packing, cost = min_cost_packing(d, costs)
        assert cost == best
        assert verify_packing(d, packing) is None


@pytest.mark.parametrize("cut, point, error, message", [
    (polytope.PolytopeConstraint("box-upper", arc="r2", rhs=1), None,
     polytope.TheoremViolation,
     "the relaxation optimum violates the built-in box-upper constraint of "
     "arc r2 (tripwire): cuts 0"),
    # the mass equality makes x(A) = 2, so x entering {b} >= 3 is empty
    (polytope.PolytopeConstraint("cut", vertex_set=frozenset({"b"}), rhs=3),
     None, polytope.TheoremViolation,
     "the relaxation is infeasible on a feasible instance (tripwire): "
     "cuts 1"),
    # a real cut on the (stubbed) greedy point starts the stubbed LP
    (polytope.PolytopeConstraint("cut", vertex_set=frozenset({"b"}), rhs=2),
     [Fraction(1, 2), 1, Fraction(1, 2)], polytope.IntegralityViolation,
     "the cutting-plane optimum is fractional on arcs r1=1/2, r3=1/2 "
     "(tripwire): cuts 1"),
], ids=["built-in", "infeasible", "fractional"])
def test_cutting_plane_tripwires_name_their_context(monkeypatch, cut, point,
                                                    error, message):
    d = digraph(["a", "b"], ["r1:a>b", "r2:a>b", "r3:a>b"],
                ["s1@a", "s2@a"], FreeMatroid(["s1", "s2"]))
    returned = []

    def separate_once(inst, x):
        returned.append(cut)
        return cut if len(returned) == 1 else None

    def no_split(inst):
        raise polytope.TheoremViolation("no split")

    monkeypatch.setattr(polytope, "separate", separate_once)
    # the greedy point splits, so the stubbed cut is reached only where
    # the split fails
    monkeypatch.setattr(polytope, "_construct", no_split)
    if point is not None:
        monkeypatch.setattr(polytope, "solve_lp", lambda c, rows, start=None: (
            LpResult("optimal", x=point, objective=Fraction(3))))
    with pytest.raises(error) as info:
        min_cost_packing(d, {"r1": 1, "r2": 5, "r3": 2}, engine="brute")
    assert str(info.value) == "min_cost_packing: %s, vertices 2, arcs 3" % message


def test_packing_that_misses_the_relaxation_cost_trips(monkeypatch):
    # the split packing is optimal because it costs what the last
    # relaxation does: a relaxation that reports one more trips the check
    d = digraph(["a", "b"], ["r1:a>b", "r2:a>b", "r3:a>b"],
                ["s1@a", "s2@a"], FreeMatroid(["s1", "s2"]))

    def shifted(c, rows, start=None):
        res = solve_lp(c, rows, start=start)
        return dataclasses.replace(res, objective=res.objective + 1)

    monkeypatch.setattr(polytope, "solve_lp", shifted)
    with pytest.raises(polytope.TheoremViolation) as info:
        min_cost_packing(d, {"r1": 1, "r2": 5, "r3": 2})
    assert str(info.value) == (
        "min_cost_packing: the packing costs 3, the relaxation optimum 4 "
        "(tripwire): cuts 0, vertices 2, arcs 3")


def noise_first_costs(extras, planted):
    """The generated costs, with the ``planted`` arcs of a feasible free
    ``generate_instance`` (its first ids) made dearer than every noise arc,
    so the greedy point is built from noise arcs where it can be."""
    ids = {"a%d" % i for i in range(planted)}
    return {a: c + 1000 * (a in ids) for a, c in extras["costs"].items()}


def test_cutting_plane_path_matches_the_fraction_tableau(monkeypatch):
    # every relaxation optimum, its objective and pivot count, the packing
    # and the cost are the same when the integer LP is swapped for the
    # Fraction tableau, which starts at the same split basis and re-solves
    # after each cut by the same dual-simplex rule; only the first solve
    # has no start
    cuts = lp_runs = chains = 0
    for seed in range(24):
        inst, extras = parse_instance(generate_instance(
            seed, n=6, m=20, t=2, feasible_bias=True, costs=True))
        costs = noise_first_costs(extras, 2 * 5)
        trace, fraction_trace, starts = [], [], []

        def fraction_lp(c, rows, start=None):
            starts.append(start)
            return reference_solve_lp(c, rows, start=start)

        run = min_cost_packing(inst, costs, lp_trace=trace)
        with monkeypatch.context() as m:
            m.setattr(polytope, "solve_lp", fraction_lp)
            fraction_run = min_cost_packing(inst, costs,
                                            lp_trace=fraction_trace)
        assert (trace, run) == (fraction_trace, fraction_run)
        assert trace[0][2] == 0 and len(starts) == len(trace)
        assert starts[0] is None and None not in starts[1:]
        cuts += len(trace) - 1
        lp_runs += len(trace) > 1
        chains += len(trace) > 2
    assert cuts >= 12 and lp_runs >= 8 and chains >= 4


def test_separation_cuts_keep_the_noise_first_loop_short():
    # the cutting-plane path depends on the violated set each cut is
    # made on.  On two noise-first instances (scripts/bench_mincost.py's
    # family, built from random.Random(1) and (2) at n=16) the largest
    # minimizer of the first minimizing run reaches the optimum in 4 LP
    # solves, every optimum 0/1; the run's smallest minimizer took 35 and
    # 17 solves, 18 and 7 of them fractional, each separated by a
    # min-norm-point run
    for seed in (1, 2):
        inst, extras = parse_instance(_generate_raw(
            random.Random(seed), 16, 64, 1, "free", True, True, True))
        trace = []
        min_cost_packing(inst, noise_first_costs(extras, 15), lp_trace=trace)
        assert len(trace) == 4, seed
        assert all(v.denominator == 1
                   for x, _, _ in trace for v in x.values()), seed


@pytest.mark.parametrize("family, n, t, per_vertex", [
    ("planted", 64, 2, 2), ("noise-first", 16, 1, 4)])
def test_lp_rows_hold_one_entry_per_arc_and_cut_arc(monkeypatch, family, n,
                                                     t, per_vertex):
    # the rows handed to solve_lp hold m + the sizes of the cut supports
    # column entries in all: the in-degree equalities hold each arc once,
    # no row is a box, and each cut holds the arcs entering its set
    inst, extras = parse_instance(_generate_raw(
        random.Random(7), n, per_vertex * n, t, "free", True, True, True))
    costs = extras["costs"]
    if family == "noise-first":
        costs = noise_first_costs(extras, t * (n - 1))
    cut_arcs, sizes = [0], []

    def separate_spy(inst, x):
        cut = separate(inst, x)
        if cut is not None:
            xs = cut.vertex_set
            cut_arcs.append(cut_arcs[-1] + sum(
                head in xs and tail not in xs for _, tail, head in inst.arcs))
        return cut

    def solve_lp_spy(c, rows, start=None):
        sizes.append((len(rows), sum(len(row[0]) for row in rows)))
        return solve_lp(c, rows, start=start)

    monkeypatch.setattr(polytope, "separate", separate_spy)
    monkeypatch.setattr(polytope, "solve_lp", solve_lp_spy)
    min_cost_packing(inst, costs)
    m = len(inst.arcs)
    assert sizes == [(n + i, m + cut_arcs[i]) for i in range(len(sizes))]
    assert len(sizes) == len(cut_arcs) and (family == "planted") == (
        len(sizes) == 1)


def test_greedy_point_is_the_optimum_of_the_degree_relaxation():
    # the first trace line is the d(v) cheapest arcs into each v, ties to
    # the earlier arc; the two-phase Fraction tableau on boxes and the
    # in-degree equalities finds the same cost
    rng = random.Random(4242)
    checked = 0
    while checked < 40:
        d = random_digraph(rng, max_v=5, max_arcs=8, max_roots=3)
        if not feasible(d):
            continue
        checked += 1
        ids = [a for a, _, _ in d.arcs]
        costs = {a: rng.randint(1, 4) for a in ids}
        trace = []
        min_cost_packing(d, costs, lp_trace=trace)
        x, objective, pivots = trace[0]
        k = d.matroid.full_rank()
        rows = []
        for v in d.vertices:
            into = [a for a, _, h in d.arcs if h == v]
            need = k - d.matroid.rank(d.elements_at(v))
            chosen = sorted(into, key=lambda a: (costs[a], ids.index(a)))
            assert {a for a in into if x[a] == 1} == set(chosen[:need])
            rows.append((tuple(j for j, a in enumerate(ids) if a in into),
                         need))
        assert pivots == 0 and set(x.values()) <= {0, 1}
        assert objective == reference_cold_lp(
            [costs[a] for a in ids], rows).objective


def test_min_cost_matches_enumeration_on_noise_first_costs():
    # with the noise arcs cheapest the greedy point is often cut; the
    # optimum equals the enumerated one on both branches, under every
    # engine
    rng = random.Random(2718)
    branches = Counter()
    seed = 0
    while branches["lp"] < 20 or branches["greedy"] < 20:
        seed += 1
        n, t = rng.choice(((3, 2), (4, 1), (4, 2), (5, 1)))
        m = t * (n - 1) + rng.randint(1, 3)
        inst, extras = parse_instance(generate_instance(
            seed, n=n, m=m, t=t, feasible_bias=True, costs=True))
        costs = noise_first_costs(extras, t * (n - 1))
        best = min(sum(costs[a] for a in p.arc_set())
                   for p in enumerate_packings(inst))
        for engine in ("flow", "brute", "min-norm-point"):
            trace = []
            packing, cost = min_cost_packing(inst, costs, engine=engine,
                                             lp_trace=trace)
            assert cost == best, (inst, engine)
            assert verify_packing(inst, packing) is None
        branches["lp" if len(trace) > 1 else "greedy"] += 1
