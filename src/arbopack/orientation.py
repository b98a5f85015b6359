"""Undirected side: orientations, rooted-tree packings, edge decompositions.

G packs rooted trees exactly when some orientation covers
p(X) = k - r(S_X) on every nonempty X (the paper's undirected corollary;
Frank 1980).  An orientation with in-degree vector m enters X on
m(X) - i(X) edges, i(X) the edges inside X, and by Hakimi (1965) every
m >= i with m(V) = |E| is some orientation's in-degree vector.  So
``orient_m_connected`` looks for m >= q = p + i with m(V) = |E|: from
m(v) = deg(v) + k it lowers each m(v) in turn by the least slack
m(X) - q(X) over X containing v, n minimizations in all.  Each is one
flow (``flow.Network.min_cut``) on the digraph of the current
orientation F, all-forward at first, with the gaps
gap(v) = m(v) - indeg_F(v) as per-vertex supplies: the slack is
in_F(X) + r(S_X) - k + gap(X) for every F.  All flows are capped at one
cap above every step's cut of V.  A step lowers the gap at its own
vertex only, and where that falls below 0 it reverses shortest paths
into v_i from the nearest vertices of positive gap, on the network in
place, so the supplies stay one dict of gaps >= 0 and a step's flow
routes its own cut only.  The step's tight set is the smallest
minimizer, what the flow's failed last search reached: a step costs its
searches and reversals, not n, and builds no submodular objective.  If
then m(V) = |E|, every gap is 0 and F has in-degree vector m, one
orientation of many with it; otherwise the steps' minimizers are tight,
and merged where they meet they give a partition of maximum deficiency
|E| - m(V) < 0.  There is no heuristic and no exhaustive fallback, and
no engine is chosen on this side.

``orient_m_connected`` returns the orientation itself, so it re-checks
the oriented digraph by flow (``check_m_connected``) before it does.
``pack_undirected`` needs no such check: it packs arborescences on the
oriented digraph at once (``packing._construct``), and a packing that
``verify_packing`` accepts proves the digraph M-connected.  The split
fails where the digraph is not M-connected, and elsewhere only on a
fault of the reduction loop; only then does the check run, and it
raises the orientation's tripwire where it finds a violated set, or
else the split's own error again.  So a positive builds two networks
in all, the greedy's one and the one the loop runs on, and runs no
check of the orientation.  ``pack_undirected`` returns the arborescences
as they are, edge ids and all, once ``verify_packing`` accepts them on
the graph.  The forward and the oriented digraphs share the graph's
vertices, roots and matroid (``RootedInstance.with_links``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import flow
from .connectivity import (
    VIOLATED_PARTITION,
    Certificate,
    check_independent_placement,
    check_m_connected,
    recheck_certificate,
)
from .graphs import RootedDigraph, RootedGraph, SizeLimitError
from .packing import Packing, TheoremViolation, _construct, verify_packing


@dataclass(frozen=True)
class Orientation:
    """Per-edge direction assignment: edge-id -> (tail, head)."""

    directions: dict

    def to_json(self) -> dict:
        return {"edges": {e: list(d) for e, d in sorted(self.directions.items())}}


def induced_digraph(g: RootedGraph, orientation: Orientation) -> RootedDigraph:
    return RootedDigraph.with_links(
        g, [(e, *orientation.directions[e]) for e, _, _ in g.edges])


def _orientation_from_bits(g: RootedGraph, bits: int) -> Orientation:
    """Edge i reversed where bit i is set; the tests' exhaustive reference."""
    dirs = {}
    for i, (e, u, v) in enumerate(g.edges):
        dirs[e] = (u, v) if not bits >> i & 1 else (v, u)
    return Orientation(dirs)


def orient_m_connected(g: RootedGraph) -> Union[Orientation, Certificate]:
    """An M-connected orientation, or a maximum-deficiency partition.

    The orientation is returned as it is, so its digraph is checked by
    flow first (tripwire).
    """
    got = _orient(g)
    if isinstance(got, Certificate):
        return got
    oriented, digraph, reversals = got
    _check_orientation(g, digraph, reversals)
    return oriented


def _orient(g: RootedGraph
            ) -> Union[tuple[Orientation, RootedDigraph, int], Certificate]:
    """The greedy of ``orient_m_connected``, its orientation unchecked:
    the orientation, the digraph it induces and the number of path
    reversals its steps made; or the partition, re-checked."""
    verts = g.vertices
    n = len(verts)
    edges = g.edges
    net = flow.Network(induced_digraph(
        g, Orientation({e: (u, v) for e, u, v in edges})))
    # gap(v) = m(v) - indeg_F(v) in the current orientation F, kept >= 0;
    # the slack m(X) - q(X) is in_F(X) + r(S_X) - k + gap(X) for every F.
    # At first F points every edge forward and m(v) = deg(v) + k
    k = g.matroid.full_rank()
    gap = [k] * n
    for _, u, _ in edges:
        gap[net.pos[u]] += 1
    # above cut(V) = r(S) + gap(V) at every step, since no step raises a
    # gap: each flow ends in a failed search, which gives its minimizer
    cap = k + sum(gap) + 1
    supply = {j: x for j, x in enumerate(gap) if x > 0}  # gaps above 0
    steps = []
    reversals = 0
    for i in range(n):
        # the cut of X: a virtual source supplies w with gap(w) units
        cut = net.min_cut(i, cap, supply)
        steps.append(net.minimizer())
        own = supply.pop(i, 0) + k - cut  # gap(v_i), m(v_i) lowered
        # below 0 where m(v_i) fell under indeg_F(v_i): reverse paths into
        # v_i, each from the nearest vertex whose gap is positive
        while own < 0:
            u = _reverse_path(net, i, supply)
            supply[u] -= 1
            if not supply[u]:
                del supply[u]
            own += 1
            reversals += 1
        if own:
            supply[i] = own
    excess = sum(supply.values())
    if excess:  # m(V) > |E|
        # the tight sets merged where they meet, by union-find over the
        # vertex indices; step i's set holds v_i, so the blocks cover V
        up = list(range(n))

        def top(j: int) -> int:
            while up[j] != j:
                up[j] = up[up[j]]
                j = up[j]
            return j

        for tight in map(iter, steps):
            a = top(next(tight))
            for j in tight:
                up[top(j)] = a
        blocks: dict = {}
        for j in range(n):  # in the order of their smallest index
            blocks.setdefault(top(j), []).append(verts[j])
        cert = Certificate(
            VIOLATED_PARTITION,
            partition=tuple(frozenset(b) for b in blocks.values()),
            deficiency=-excess)
        if not recheck_certificate(g, cert):
            raise TheoremViolation(
                "orient_m_connected: the tight sets of greedy steps 1 to %d, "
                "merged into %s, are not a violated partition (tripwire): "
                "engine flow, deficiency %d, vertices %d, edges %d"
                % (n, [sorted(b) for b in cert.partition], cert.deficiency,
                   n, len(edges)))
        return cert
    # every gap is 0: F has in-degree vector m, and cap[2j] says whether
    # edge j still points forward
    oriented = Orientation({e: (u, v) if net.cap[2 * j] else (v, u)
                            for j, (e, u, v) in enumerate(edges)})
    return oriented, induced_digraph(g, oriented), reversals


def _check_orientation(g: RootedGraph, digraph: RootedDigraph,
                       reversals: int) -> None:
    """The tripwire of ``_orient``'s orientation: raise unless
    ``digraph``, the one it induces, is M-connected."""
    cert = check_m_connected(digraph)
    if not cert.ok:
        n = len(g.vertices)
        raise TheoremViolation(
            "orient_m_connected: the in-degree vector realized after %d "
            "greedy steps and %d path reversals is not M-connected "
            "(tripwire): engine flow, violated set %s, deficiency %d, "
            "vertices %d, edges %d"
            % (n, reversals, sorted(cert.vertex_set),
               cert.deficiency, n, len(g.edges)))


def _reverse_path(net: flow.Network, i: int, surplus: dict) -> int:
    """Reverse a shortest directed path into vertex index i from the
    vertex of ``surplus`` nearest to it, and return that vertex.

    The search goes breadth first backwards from i over the arcs of
    ``net.cap``, each vertex's in order of ``net.adj``, and stops at the
    first vertex of ``surplus`` it discovers; the reversal flips
    ``cap[c]`` and ``cap[c ^ 1]`` along the path.  In the greedy the
    path exists: no arc enters the vertices R that reach v_i, so their
    in-degrees sum to i(R) <= q(R) <= m(R), gap(R) >= 0, and with v_i's
    gap negative another vertex of R has a positive one.
    """
    adj, cap = net.adj, net.cap
    prev = {i: None}
    for node in (queue := [i]):  # grows while it is read: breadth first
        for c, w in adj[node]:
            if cap[c ^ 1] and w not in prev:
                prev[w] = c ^ 1, node
                if w in surplus:
                    u = w
                    while w != i:
                        c, w = prev[w]
                        cap[c], cap[c ^ 1] = 0, 1
                    return u
                queue.append(w)
    raise TheoremViolation(
        "orient_m_connected: no path into %s from a vertex below its "
        "in-degree bound at greedy step %d (tripwire): engine flow, "
        "vertices %d, edges %d"
        % (net.vertices[i], i + 1, len(net.pos), len(cap) // 2))


# -- tree packings -----------------------------------------------------------------

# the undirected names of the one packing type and verifier
TreePacking = Packing
verify_tree_packing = verify_packing


def pack_undirected(g: RootedGraph) -> Union[Packing, Certificate]:
    """Orient, pack arborescences, then forget the orientation."""
    cert = check_independent_placement(g)
    if not cert.ok:
        return cert
    got = _orient(g)
    if isinstance(got, Certificate):
        return got
    _, digraph, reversals = got
    try:
        packed = _construct(digraph)
    except TheoremViolation:
        # the split fails where the orientation is not M-connected, which
        # its tripwire names, and elsewhere only on a fault of the loop
        _check_orientation(g, digraph, reversals)
        raise
    failure = verify_packing(g, packed)
    if failure is not None:
        raise TheoremViolation("tree packing failed verification: %r" % (failure,))
    return packed


class IdentityViolation(ValueError):
    """|E| + |S| differs from rank * |V|; no full decomposition can exist."""


def decompose_edges(g: RootedGraph) -> Union[Packing, Certificate]:
    """Tree packing whose edge sets partition E (full decomposition)."""
    k = g.matroid.full_rank()
    lhs = len(g.edges) + len(g.roots)
    rhs = k * len(g.vertices)
    if lhs != rhs:
        raise IdentityViolation(
            "|E|+|S| = %d but rank*|V| = %d" % (lhs, rhs)
        )
    packed = pack_undirected(g)
    if isinstance(packed, Certificate):
        return packed
    if packed.arc_set() != frozenset(g.edge_map):
        raise TheoremViolation(
            "counting identity holds but the packing missed edges (tripwire)"
        )
    return packed


def per_edge_set_diagnostic(g: RootedGraph, cap: int = 16) -> Optional[frozenset]:
    """Optional exhaustive check of the per-edge-set decomposition condition.

    Returns a violating nonempty F (first in canonical subset order) or None.
    Condition: |F| + |S_{V(F)}| <= k|V(F)| - k + rank(S_{V(F)}).
    """
    from .graphs import iter_subsets

    if len(g.edges) > cap:
        raise SizeLimitError("edge-subset diagnostic capped at %d edges" % cap)
    k = g.matroid.full_rank()
    ids = [e for e, _, _ in g.edges]
    for F in iter_subsets(ids, nonempty=True):
        verts: set = set()
        for e in F:
            verts.update(g.edge_map[e])
        roots_in = g.elements_in(verts)
        if len(F) + len(roots_in) > k * len(verts) - k + g.matroid.rank(roots_in):
            return F
    return None
