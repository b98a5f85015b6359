import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbopack.matroid import (
    ExplicitMatroid,
    FreeMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    MatroidError,
    PartitionMatroid,
    TwinIds,
    UniformMatroid,
)

TRIANGLE = GraphicMatroid([("e1", "x", "y"), ("e2", "y", "z"), ("e3", "z", "x")])


def graphic_rank_oracle(edges, q):
    """Independent oracle: vertices touched minus connected components."""
    g = nx.MultiGraph()
    for e, u, v in edges:
        if e in q:
            g.add_edge(u, v)
    if not g.nodes:
        return 0
    return g.number_of_nodes() - nx.number_connected_components(g)


def small_matroids():
    yield FreeMatroid(["s1", "s2", "s3"])
    yield UniformMatroid(["s1", "s2", "s3"], 2)
    yield UniformMatroid(["s1", "s2"], 1)
    yield PartitionMatroid([(["s1", "s2"], 1), (["s3"], 1)])
    yield TRIANGLE
    yield LinearMatroid(2, {"c1": [1, 0], "c2": [0, 1], "c3": [1, 1]})
    yield LinearMatroid(3, {"c1": [1, 2], "c2": [2, 4], "c3": [0, 1]})
    yield ExplicitMatroid(["s1", "s2", "s3"], [["s1", "s2"], ["s1", "s3"]])
    m, _ = UniformMatroid(["s1", "s2"], 2).extend_parallel("s2")
    yield m
    yield TRIANGLE.truncate(1)
    yield FreeMatroid(["s1", "s2", "s3"]).truncate(2)


# -- rank ---------------------------------------------------------------------


def test_rank_free():
    assert FreeMatroid(["s1", "s2", "s3"]).rank({"s1", "s3"}) == 2


def test_rank_uniform():
    assert UniformMatroid(["s1", "s2", "s3"], 2).rank({"s1", "s2", "s3"}) == 2


def test_rank_graphic_triangle():
    q = {"e1", "e2", "e3"}
    expected = graphic_rank_oracle(
        [("e1", "x", "y"), ("e2", "y", "z"), ("e3", "z", "x")], q)
    assert expected == 2
    assert TRIANGLE.rank(q) == expected


def test_rank_outside_ground_rejected():
    with pytest.raises(MatroidError):
        FreeMatroid(["s1"]).rank({"s9"})


def test_explicit_rank_is_max_base_intersection():
    m = ExplicitMatroid(["s1", "s2", "s3"], [["s1", "s2"], ["s1", "s3"]])
    assert m.rank({"s2", "s3"}) == 1
    assert m.rank({"s1", "s2", "s3"}) == 2


def test_explicit_base_exchange_validation_flag():
    with pytest.raises(MatroidError):
        ExplicitMatroid(["s1", "s2", "s3", "s4"],
                        [["s1", "s2"], ["s3", "s4"]],
                        validate_exchange=True)
    # the fixed pair used throughout the suite is a genuine matroid
    ExplicitMatroid(["s1", "s2", "s3"], [["s1", "s2"], ["s1", "s3"]],
                    validate_exchange=True)


# -- span / base ----------------------------------------------------------------


def test_span_free_is_identity():
    m = FreeMatroid(["s1", "s2", "s3"])
    assert m.span({"s2"}) == {"s2"}


def test_span_uniform_rank1():
    m = UniformMatroid(["s1", "s2"], 1)
    assert m.span({"s1"}) == {"s1", "s2"}


def test_span_graphic_two_edges_close_cycle():
    # third edge closes the cycle: rank oracle confirms no rank increase
    q = {"e1", "e2"}
    assert TRIANGLE.rank(q | {"e3"}) == TRIANGLE.rank(q)
    assert TRIANGLE.span(q) == {"e1", "e2", "e3"}


def test_is_base():
    assert FreeMatroid(["s1", "s2"]).is_base({"s1", "s2"})
    assert UniformMatroid(["s1", "s2", "s3"], 2).is_base({"s1", "s3"})
    m = ExplicitMatroid(["s1", "s2", "s3"], [["s1", "s2"], ["s1", "s3"]])
    assert not m.is_base({"s2", "s3"})


# -- parallel extension -----------------------------------------------------------


def test_parallel_pair_has_rank_one():
    m, s_new = FreeMatroid(["s1"]).extend_parallel("s1")
    assert m.rank({"s1", s_new}) == 1
    assert m.full_rank() == 1


def test_parallel_restriction_unchanged():
    base = UniformMatroid(["s1", "s2"], 2)
    m, _ = base.extend_parallel("s2")
    for q in ({"s1"}, {"s2"}, {"s1", "s2"}, set()):
        assert m.rank(q) == base.rank(q)


def test_parallel_substitution_query():
    base = UniformMatroid(["s1", "s2"], 2)
    m, s_new = base.extend_parallel("s2")
    # oracle: substitute s2 for the twin and query the base matroid
    assert m.rank({"s1", s_new}) == base.rank({"s1", "s2"}) == 2


def test_chained_extensions_use_one_flat_twin_map(monkeypatch):
    root = PartitionMatroid([(["s1", "s2"], 1), (["s3", "s4", "s5"], 2)])
    rng = random.Random(30)
    m = root
    to_root = {e: e for e in root.ground}
    for _ in range(30):
        s = rng.choice(m.ground)  # a twin of a twin often enough
        m, s_new = m.extend_parallel(s)
        to_root[s_new] = to_root[s]
    assert m.twin_map()[0] is root
    calls = []
    rank = Matroid.rank

    def counted_rank(self, elems):
        calls.append(self)
        return rank(self, elems)

    monkeypatch.setattr(Matroid, "rank", counted_rank)
    # the query goes from the outermost extension straight to the root
    assert m.rank(m.ground) == 3
    assert calls == [m, root]
    for _ in range(200):
        q = frozenset(e for e in m.ground if rng.random() < 0.3)
        assert m.rank(q) == root.rank({to_root[e] for e in q}), sorted(q)


def test_extension_ids_take_the_fewest_free_primes():
    # a tree of extensions, not a chain: the reduction loop extends one
    # oracle once per candidate and keeps only the accepted one
    rng = random.Random(31)
    kept = [FreeMatroid(["s", "s'", "t"])]
    for _ in range(400):
        m = rng.choice(kept[-5:])
        s = rng.choice(m.ground)
        expected = s + "'"
        while expected in m.ground:
            expected += "'"
        if rng.random() < 0.1:
            m2, s_new = m.extend_parallel(s, expected)
        else:
            m2, s_new = m.extend_parallel(s)
        assert s_new == expected
        assert m2.ground == m.ground + (s_new,)
        kept.append(m2)
    # the reduction state's rule: one TwinIds along the chain of kept
    # oracles, each id taken only when its extension is kept.  Stems drawn
    # mostly from the newest ids make long chains of twins of twins, and
    # some grounds hold ids that already end in primes.
    for ground in (["s"], ["s", "s'", "s'''"], ["t''", "s'", "s", "t"]):
        m = FreeMatroid(ground)
        ids = TwinIds(ground)
        for _ in range(300):
            s = rng.choice(m.ground[-2:] if rng.random() < 0.8 else m.ground)
            m2, s_new = m.extend_parallel(s)
            assert ids.name(s) == s_new, (m.ground, s)
            if rng.random() < 0.8:
                ids.take(s_new)
                m = m2
        assert len(max(m.ground, key=len)) > 100

def test_parallel_to_loop_rejected():
    loopy = UniformMatroid(["s1"], 0)
    with pytest.raises(MatroidError):
        loopy.extend_parallel("s1")


# -- truncation --------------------------------------------------------------------


def test_truncate_free():
    m = FreeMatroid(["s1", "s2", "s3"]).truncate(2)
    assert m.rank({"s1", "s2", "s3"}) == 2


def test_truncate_above_rank_is_identity():
    m = TRIANGLE.truncate(5)
    for q in map(frozenset, itertools.chain.from_iterable(
            itertools.combinations(TRIANGLE.ground, k) for k in range(4))):
        assert m.rank(q) == TRIANGLE.rank(q)


def test_truncate_to_one():
    m = TRIANGLE.truncate(1)
    for q in ({"e1"}, {"e1", "e2"}, {"e1", "e2", "e3"}):
        assert m.rank(q) == 1


def test_parallel_then_truncate_matches_brute_rederivation():
    base = TRIANGLE
    m1, s_new = base.extend_parallel("e1")
    m2 = m1.truncate(1)
    for q in map(frozenset, itertools.chain.from_iterable(
            itertools.combinations(m2.ground, k) for k in range(5))):
        sub = (q - {s_new}) | ({"e1"} if s_new in q else set())
        assert m2.rank(q) == min(base.rank(sub), 1)


# -- axioms (exhaustive on every implemented kind) ------------------------------------


@pytest.mark.parametrize("m", list(small_matroids()), ids=lambda m: type(m).__name__)
def test_rank_axioms_exhaustive(m: Matroid):
    assert m.rank(set()) == 0
    subsets = [frozenset(c) for k in range(len(m.ground) + 1)
               for c in itertools.combinations(m.ground, k)]
    ranks = {q: m.rank(q) for q in subsets}
    for q in subsets:
        assert 0 <= ranks[q] <= len(q)
    for q, r in itertools.product(subsets, repeat=2):
        if q <= r:
            assert ranks[q] <= ranks[r]
        assert ranks[q] + ranks[r] >= ranks[q & r] + ranks[q | r]


@pytest.mark.parametrize("m", list(small_matroids()), ids=lambda m: type(m).__name__)
def test_span_idempotent(m: Matroid):
    for k in range(len(m.ground) + 1):
        for q in itertools.combinations(m.ground, k):
            s = m.span(q)
            assert frozenset(q) <= s
            assert m.span(s) == s


@pytest.mark.parametrize("m", list(small_matroids()), ids=lambda m: type(m).__name__)
def test_span_lemma(m: Matroid):
    # modular pairs: any common spanned element is spanned by the intersection
    subsets = [frozenset(c) for k in range(len(m.ground) + 1)
               for c in itertools.combinations(m.ground, k)]
    for p, q in itertools.product(subsets, repeat=2):
        if m.rank(p & q) + m.rank(p | q) != m.rank(p) + m.rank(q):
            continue
        for s in m.span(p) & m.span(q):
            assert s in m.span(p & q)


@given(st.integers(0, 4), st.lists(st.integers(0, 3), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_uniform_and_partition_rank_formulas(r, caps):
    elems = ["s%d" % i for i in range(5)]
    u = UniformMatroid(elems, r)
    for k in range(6):
        q = frozenset(elems[:k])
        assert u.rank(q) == min(k, r)
    blocks = [(["b%d_%d" % (i, j) for j in range(2)], cap)
              for i, cap in enumerate(caps)]
    p = PartitionMatroid(blocks)
    q = frozenset(e for elems2, _ in blocks for e in elems2)
    assert p.rank(q) == sum(min(2, cap) for cap in caps)


def test_partition_matroid_rejects_overlap():
    with pytest.raises(MatroidError):
        PartitionMatroid([(["s1", "s2"], 1), (["s2"], 1)])


def test_linear_matroid_requires_prime():
    with pytest.raises(MatroidError):
        LinearMatroid(4, {"c1": [1]})
