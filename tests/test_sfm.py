import copy
import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_digraph
from arbopack import sfm
from arbopack.connectivity import (
    check_independent_placement,
    check_m_connected,
    deficiency_objective,
)
from arbopack.graphs import RootedDigraph
from arbopack.matroid import (
    FreeMatroid,
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
)
from arbopack.polytope import min_cost_packing
from arbopack.sfm import SfmSizeError, SubmodularObjective, minimize


def brute_reference(obj, predicate):
    """Independent enumeration: min value over sets passing the predicate."""
    best = None
    for k in range(obj.n + 1):
        for c in itertools.combinations(range(obj.n), k):
            s = frozenset(c)
            if not predicate(s):
                continue
            v = obj.evaluate(s)
            if best is None or v < best:
                best = v
    return best


def test_cardinality_nonempty():
    obj = SubmodularObjective(2, lambda x: len(x), ("nonempty",))
    res = minimize(obj)
    assert (res.minimizer, res.value) == (frozenset({0}), 1)


def test_deficiency_example_frozen():
    # V={a,b}, no arcs, one root at a, free matroid:
    # enumeration of the 3 nonempty subsets gives min -1 at {b}
    def f(x):
        rho = 0
        rank_sx = 1 if 0 in x else 0
        return rho + rank_sx - 1

    obj = SubmodularObjective(2, f, ("nonempty",))
    assert brute_reference(obj, lambda s: bool(s)) == -1
    res = minimize(obj)
    assert (res.minimizer, res.value) == (frozenset({1}), -1)


@pytest.mark.parametrize("engine", ["brute", "min-norm-point"])
def test_nonempty_family_matches_enumeration(engine):
    rng = random.Random(11)
    for _ in range(40):
        d = random_digraph(rng, max_v=4, max_arcs=5)
        obj = deficiency_objective(d)
        expected = brute_reference(obj, bool)
        got = minimize(obj, engine=engine)
        assert got.value == expected
        assert got.minimizer and obj.evaluate(got.minimizer) == expected


@pytest.mark.parametrize("family", [("all",), ("contains", 0), ()])
@pytest.mark.parametrize("engine", ["brute", "min-norm-point"])
def test_minimize_takes_the_nonempty_family_only(engine, family):
    obj = SubmodularObjective(2, len, family)
    with pytest.raises(ValueError, match="unknown family"):
        minimize(obj, engine=engine)


@pytest.mark.parametrize("engine", ["flow", "mnp", ""])
def test_minimize_takes_brute_and_min_norm_point_only(engine):
    # flow is the library's default engine but no submodular minimizer
    with pytest.raises(ValueError, match="unknown engine"):
        minimize(SubmodularObjective(2, len), engine=engine)


def test_engine_agreement_on_deficiency_objectives(monkeypatch):
    # min-norm-point minimizes over the nonempty sets by one Wolfe run per
    # smallest index v (v pinned, 0..v-1 excluded), on free grounds of
    # n - 1, n - 2, ..., 1 indices; the last run needs no Wolfe, and no
    # minimizer costs a run more.
    sizes = []
    wolfe = sfm._wolfe_min_norm

    def recorded(n, chain, *context):
        sizes.append(n)
        return wolfe(n, chain, *context)

    monkeypatch.setattr(sfm, "_wolfe_min_norm", recorded)
    rng = random.Random(23)
    apart = 0
    for _ in range(200):
        d = random_digraph(rng, max_v=5, max_arcs=7)
        obj = deficiency_objective(d)
        b = minimize(obj, engine="brute")
        sizes.clear()
        m = minimize(obj, engine="min-norm-point")
        assert sizes == list(range(obj.n - 1, 0, -1))
        # without the objective's prefix pass, each greedy vertex
        # evaluates its chain one set at a time, to the same end
        assert minimize(SubmodularObjective(obj.n, obj.evaluate),
                        engine="min-norm-point") == m
        assert b.value == m.value
        assert b.minimizer == m.minimizer  # the rule is shared
        largest = minimize(obj, engine="brute", largest=True)
        assert largest.value == b.value and b.minimizer <= largest.minimizer
        assert minimize(obj, engine="min-norm-point",
                        largest=True).minimizer == largest.minimizer
        apart += largest.minimizer != b.minimizer
    assert apart > 20


def test_by_smallest_index_keeps_the_first_least_run():
    # run v's value and smallest minimizer, and the bar it is handed: the
    # least value of the runs before it, none for run 0.  Runs 1 and 3 tie
    # the least value, and run 1, the first, wins; run 4 stops at its bar,
    # as min-norm-point does, and returns the bar, which never wins
    runs = [(0, None), (-2, frozenset({1, 2})), (-1, frozenset({2})),
            (-2, frozenset({3})), None]
    bars = []

    def run(v, bar):
        bars.append(bar)
        return runs[v] or (bar, None)

    res = sfm.by_smallest_index(5, run)
    assert (res.minimizer, res.value) == (frozenset({1, 2}), -2)
    assert bars == [None, 0, -2, -2, -2]
    with pytest.raises(ValueError, match="empty ground set"):
        sfm.by_smallest_index(0, run)


def test_brute_and_min_norm_point_report_the_smallest_or_largest_minimizer():
    # the modular f(X) = 5[0 in X] - [1 in X] - [3 in X]: its least value,
    # -2, is reached in run 1 alone, at {1, 3} and {1, 2, 3}.  The report
    # is the smallest of the two, not the lex-smallest, {1, 2, 3}; with
    # largest, it is the largest
    weights = (5, -1, 0, -1)
    obj = SubmodularObjective(4, lambda x: sum(weights[i] for i in x))
    for engine in ("brute", "min-norm-point"):
        res = minimize(obj, engine=engine)
        assert (res.minimizer, res.value) == (frozenset({1, 3}), -2), engine
        res = minimize(obj, engine=engine, largest=True)
        assert (res.minimizer, res.value) == (frozenset({1, 2, 3}), -2), engine


def test_deficiency_of_whole_vertex_set_is_zero():
    rng = random.Random(5)
    for _ in range(50):
        d = random_digraph(rng, max_v=5, max_arcs=6)
        obj = deficiency_objective(d)
        assert obj.evaluate(frozenset(range(obj.n))) == 0
        assert minimize(obj).value <= 0


def test_rational_valued_objective():
    vals = {0: Fraction(1, 3), 1: Fraction(-1, 2), 2: Fraction(1, 7)}

    def f(x):  # modular, hence submodular
        return sum(vals[i] for i in x)

    obj = SubmodularObjective(3, f, ("nonempty",))
    res = minimize(obj, engine="brute")
    assert res.value == Fraction(-1, 2)
    assert res.minimizer == frozenset({1})
    # min-norm-point takes integer-valued objectives only, and names the
    # run whose greedy vertex is not an integer vector: the first, run 0
    with pytest.raises(ValueError, match=r"free ground 2, pinned \[0\], "
                       r"excluded \[\], major cycles 0, \|S\| 0"):
        minimize(obj, engine="min-norm-point")


def _weighted_cut_objective(rng, d):
    """The cut objective x(entering X) + rank(S_X) - k of random integer
    arc weights x, by its formula."""
    weights = {a: rng.randint(0, 6) for a, _, _ in d.arcs}
    verts, m = d.vertices, d.matroid
    k = m.full_rank()

    def evaluate(X):
        xs = {verts[i] for i in X}
        return (sum(weights[a] for a, t, h in d.arcs
                    if h in xs and t not in xs)
                + m.rank(d.elements_in(xs)) - k)

    return SubmodularObjective(len(verts), evaluate, ("nonempty",))


def _chain(f):
    """Wolfe's greedy contract for the set function f: its values on the
    prefixes of an order."""
    return lambda order: [f(frozenset(order[:j + 1]))
                          for j in range(len(order))]


def test_wolfe_point_scales_with_the_objective():
    # the min-norm point of c*g is c times that of g: a run on a cut
    # objective with integer weights and one on 12 times it must return
    # proportional points, on digraphs big enough for long minor cycles
    rng = random.Random(8)
    for _ in range(40):
        d = random_digraph(rng, max_v=8, max_arcs=16)
        g = _weighted_cut_objective(rng, d).evaluate

        def h(x):
            return 12 * g(x)

        n = len(d.vertices)
        xn, xd = sfm._wolfe_min_norm(n, _chain(g))
        yn, yd = sfm._wolfe_min_norm(n, _chain(h))
        assert [(a > 0) - (a < 0) for a in xn] == [(b > 0) - (b < 0) for b in yn]
        assert all(a * yn[j] == b * xn[j] for a, b in zip(xn, yn) for j in range(n))


def _fraction_affine_solve(G):
    """mu of [G 1; 1 0] (mu, lambda) = (0, 1), solved in Fractions by
    reduced row echelon form with the free unknowns at 0, and whether the
    system is singular (the points affinely dependent)."""
    m = len(G)
    A = [[Fraction(a) for a in row] + [Fraction(1), Fraction(0)] for row in G]
    A.append([Fraction(1)] * m + [Fraction(0), Fraction(1)])
    pivots, r = [], 0
    for c in range(m + 1):
        piv = next((i for i in range(r, m + 1) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        A[r] = [a / A[r][c] for a in A[r]]
        for i in range(m + 1):
            if i != r and A[i][c]:
                A[i] = [a - A[i][c] * b for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    assert all(not row[-1] for row in A[r:])  # the system is consistent
    mu = [Fraction(0)] * m
    for i, c in enumerate(pivots):
        if c < m:
            mu[c] = A[i][-1]
    return mu, r <= m


def _gram(pts):
    return [[sum(x * y for x, y in zip(p, q)) for q in pts] for p in pts]


def _affine_row(pts, q):
    """The row of G' = G + 11^T of the point q against pts."""
    return [sum(x * y for x, y in zip(p, q)) + 1 for p in pts]


def _random_point(rng, pts, dim):
    """A random integer point; often a repeat, the zero point or an
    integer affine combination of two earlier points, all of which make
    the set affinely dependent."""
    roll = rng.random()
    if pts and roll < 0.15:
        return list(rng.choice(pts))
    if len(pts) > 1 and roll < 0.3:
        a, b = rng.sample(pts, 2)
        c = rng.randint(-3, 3)
        return [c * x + (1 - c) * y for x, y in zip(a, b)]
    if roll < 0.35:
        return [0] * dim
    return [rng.randint(-9, 9) for _ in range(dim)]


def test_affine_factor_matches_a_fraction_solve():
    # random append and drop sequences, as Wolfe's cycles make them, on
    # affinely independent integer point sets: after every step the kept
    # factor's mu equals a Fraction solve of the bordered system.  A drop
    # cuts the factor at the first dropped index and appends the later
    # points again.  A point that would make the set dependent must give a
    # zero pivot, and is not kept.
    rng = random.Random(41)
    drops = dependent = 0
    for _ in range(1500):
        dim = rng.randint(1, 6)
        pts: list = []
        factor = sfm._AffineFactor()
        for _ in range(rng.randint(1, 14)):
            if len(pts) > 1 and rng.random() < 0.3:
                keep = sorted(rng.sample(range(len(pts)),
                                         rng.randint(1, len(pts) - 1)))
                first = min(set(range(len(pts))) - set(keep))
                pts = [pts[i] for i in keep]
                factor.cut(first)
                for i in range(first, len(pts)):
                    assert factor.append(_affine_row(pts[:i + 1], pts[i])) > 0
                drops += 1
            else:
                q = _random_point(rng, pts, dim)
                row = _affine_row(pts + [q], q)
                if _fraction_affine_solve(_gram(pts + [q]))[1]:
                    trial = copy.deepcopy(factor)
                    assert trial.append(row) == 0
                    dependent += 1
                    continue
                assert factor.append(row) > 0
                pts.append(q)
            mun, mud = factor.solve()
            assert mud > 0
            mu, _ = _fraction_affine_solve(_gram(pts))
            assert [Fraction(a, mud) for a in mun] == mu
    assert drops > 1000 and dependent > 1000


def test_a_dependent_point_set_trips_wolfe(monkeypatch):
    # Wolfe's point set stays affinely independent; a pivot <= 0 that says
    # otherwise names the run
    monkeypatch.setattr(sfm._AffineFactor, "append", lambda self, new: 0)
    obj = SubmodularObjective(3, lambda x: -len(x))
    with pytest.raises(RuntimeError, match=r"min-norm-point affinely "
                       r"dependent point set \(tripwire\): free ground 2, "
                       r"pinned \[0\], excluded \[\], major cycles 0, \|S\| 1"):
        minimize(obj, engine="min-norm-point")


def test_a_minimizer_value_off_the_min_norm_point_trips_wolfe():
    # a converged run's value must be f({v}) + x*^-(free) (Fujishige's
    # theorem); an objective whose prefixes read -|X| while its evaluate
    # reads one more on sets of three gives Wolfe the point (-1, -1) on
    # run 0's free ground, whose value evaluate does not confirm
    def evaluate(x):
        return -len(x) + (len(x) == 3)

    def prefixes(start, order):
        return [-len(start) - j - 1 for j in range(len(order))]

    obj = SubmodularObjective(3, evaluate, prefixes=prefixes)
    with pytest.raises(RuntimeError, match=r"min-norm-point minimizer value "
                       r"off x\*\^-\(free\) \(tripwire\): free ground 2, "
                       r"pinned \[0\], excluded \[\], major cycles 0, \|S\| 1"):
        minimize(obj, engine="min-norm-point")


def _random_matroid(rng, elements, kind):
    if kind == "free":
        return FreeMatroid(elements)
    if kind == "uniform":
        return UniformMatroid(elements, rng.randint(1, len(elements)))
    if kind == "partition":
        cut = rng.randint(0, len(elements))
        blocks = [b for b in (elements[:cut], elements[cut:]) if b]
        return PartitionMatroid([(b, rng.randint(1, len(b))) for b in blocks])
    return GraphicMatroid([(e, rng.randrange(3), rng.randrange(3))
                           for e in elements])


def _stop_corpus(rng):
    """Random deficiency objectives on up to 7 vertices, plain and
    weighted with a scale, over free, uniform, partition and graphic root
    matroids."""
    for kind in ("free", "uniform", "partition", "graphic"):
        for _ in range(40):
            d = random_digraph(rng, max_v=7, max_arcs=12, max_roots=4)
            elements = [e for e, _ in d.roots]
            d = RootedDigraph(d.vertices, d.arcs, d.roots,
                              _random_matroid(rng, elements, kind))
            yield deficiency_objective(d)
            weights = {a: rng.randint(0, 4) for a, _, _ in d.arcs}
            yield deficiency_objective(d, weights, rng.randint(1, 3))


def test_min_norm_point_runs_stop_at_the_bar_without_a_change(monkeypatch):
    # run v is handed the least value of runs 0..v-1, its bar, and a
    # min-norm-point run stops where Fujishige's bound shows its min is at
    # least the bar.  By enumeration of each run's family: every run's bar
    # is that least value, every run that stopped returned its bar and has
    # a min at least the bar, and both engines report the value and the
    # smallest and largest minimizers of the first run that reaches the
    # least value.  A min-norm-point run returns the min of its own min
    # and its bar, so the previous run's value is the least one there;
    # brute runs ignore the bar, and their bars tell the two apart
    runs = []
    by_index = sfm.by_smallest_index

    def spy(n, run):
        def recorded(v, bar):
            out = run(v, bar)
            runs.append((v, bar, out))
            return out

        return by_index(n, recorded)

    monkeypatch.setattr(sfm, "by_smallest_index", spy)
    rng = random.Random(1980)
    objectives = stopped = 0
    for obj in _stop_corpus(rng):
        n = obj.n
        families = [{s: obj.evaluate(s) for s in map(frozenset, (
            {v, *extra} for r in range(n - v)
            for extra in itertools.combinations(range(v + 1, n), r)))}
            for v in range(n)]
        lows = [min(f.values()) for f in families]
        first = lows.index(min(lows))
        tied = [s for s, val in families[first].items() if val == lows[first]]
        for engine, largest in itertools.product(("brute", "min-norm-point"),
                                                 (False, True)):
            runs.clear()
            res = minimize(obj, engine=engine, largest=largest)
            want = (frozenset.union if largest else frozenset.intersection)(
                *tied)
            assert (res.value, res.minimizer) == (lows[first], want), engine
            assert [v for v, _, _ in runs] == list(range(n))
            for v, bar, (val, least) in runs:
                assert bar == (min(lows[:v]) if v else None)
                if least is None:
                    assert engine == "min-norm-point"
                    assert val == bar <= lows[v]
                    stopped += 1
        objectives += 1
    assert objectives >= 300 and stopped >= 100, (objectives, stopped)


def test_min_cost_engines_agree():
    rng = random.Random(47)
    solved = 0
    while solved < 6:
        d = random_digraph(rng, max_v=4, max_arcs=7, max_roots=2)
        if not (check_independent_placement(d).ok and check_m_connected(d).ok):
            continue
        solved += 1
        costs = {a: rng.randint(1, 20) for a, _, _ in d.arcs}
        _, cost = min_cost_packing(d, costs, engine="brute")
        _, mnp_cost = min_cost_packing(d, costs, engine="min-norm-point")
        assert mnp_cost == cost


def test_brute_size_limit():
    obj = SubmodularObjective(25, lambda x: len(x), ("nonempty",))
    with pytest.raises(SfmSizeError):
        minimize(obj, engine="brute")
