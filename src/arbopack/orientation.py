"""Undirected side: orientations, rooted-tree packings, edge decompositions.

G packs rooted trees exactly when some orientation covers
p(X) = k - r(S_X) on every nonempty X (the paper's undirected corollary;
Frank 1980).  An orientation with in-degree vector m enters X on
m(X) - i(X) edges, i(X) the edges inside X, and by Hakimi (1965) every
m >= i with m(V) = |E| is some orientation's in-degree vector.  So
``orient_m_connected`` looks for m >= q = p + i with m(V) = |E|: from
m(v) = deg(v) + k it lowers each m(v) in turn by the least slack
m(X) - q(X) over X containing v, n minimizations in all.  Each is one
flow (``flow.Network.min_cut``) on the all-forward digraph, whose
per-vertex supplies and demands carry the modular offset, all capped at
one cap above every step's cut of V.  A step changes the offset at its
own vertex only, so the supplies and demands are dicts changed there,
and the step's tight set is the smallest minimizer, what the flow's
failed last search reached: a step costs its searches, not n, and builds
no submodular objective.  If then m(V) = |E|, reversing directed paths
from vertices below m to vertices above it realizes m.  Otherwise the
steps' minimizers are tight, and merged where they meet they give a
partition of maximum deficiency |E| - m(V) < 0.  There is no heuristic
and no exhaustive fallback, and no engine is chosen on this side.

``orient_m_connected`` returns the orientation itself, so it re-checks
the oriented digraph by flow (``check_m_connected``) before it does.
``pack_undirected`` needs no such check: it packs arborescences on the
oriented digraph at once (``packing._construct``), and a packing that
``verify_packing`` accepts proves the digraph M-connected.  The split
fails where the digraph is not M-connected, and elsewhere only on a
fault of the reduction loop; only then does the check run, and it
raises the orientation's tripwire where it finds a violated set, or
else the split's own error again.  So a positive builds two networks
in all, the all-forward one and the one the loop runs on, and runs no
check of the orientation.  ``pack_undirected`` returns the arborescences
as they are, edge ids and all, once ``verify_packing`` accepts them on
the graph.  The forward and the oriented digraphs share the graph's
vertices, roots and matroid (``RootedInstance.with_links``).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
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
    reversals that realized it; or the partition, re-checked."""
    verts = g.vertices
    n = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    dirs = {e: (u, v) for e, u, v in g.edges}
    forward = induced_digraph(g, Orientation(dirs))
    # gap[v] = m(v) - indeg(v) in the all-forward digraph, whose def(X) is
    # indeg(X) - i(X) - p(X), so def(X) + gap(X) = m(X) - q(X)
    k = g.matroid.full_rank()
    gap = [k] * n
    for _, u, _ in g.edges:
        gap[pos[u]] += 1
    net = flow.Network(forward)
    # above cut(V) = k + g+(V) at every step, since no step raises a gap:
    # each flow ends in a failed search, which gives its minimizer
    cap = k + sum(gap) + 1
    # the split of gap by sign, g+ and g-, and g-(V)
    supply = {j: x for j, x in enumerate(gap) if x > 0}
    demand: dict = {}
    owed = 0
    steps = []
    for i in range(n):
        # def(X) + gap(X) = in(X) + r(S_X) + g+(X) + g-(V - X) - k - g-(V):
        # the cut of X when a virtual source supplies w with g+(w) units
        # and w passes g-(w) on to a virtual sink inside X
        gap[i] -= net.min_cut(i, cap, supply, demand) - k - owed
        steps.append(net.minimizer())
        # the step changed gap at v_i alone, from its first value: k plus
        # the out-degree, no demand
        supply.pop(i, None)
        if gap[i] > 0:
            supply[i] = gap[i]
        elif gap[i] < 0:
            demand[i] = -gap[i]
            owed -= gap[i]
    if sum(gap) > 0:  # m(V) > |E|
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
            deficiency=-sum(gap))
        if not recheck_certificate(g, cert):
            raise TheoremViolation(
                "orient_m_connected: the tight sets of greedy steps 1 to %d, "
                "merged into %s, are not a violated partition (tripwire): "
                "engine flow, deficiency %d, vertices %d, edges %d"
                % (n, [sorted(b) for b in cert.partition], cert.deficiency,
                   n, len(g.edges)))
        return cert
    # each reversal lowers one positive gap by one, so they number this
    reversals = sum(x for x in gap if x > 0)
    oriented = _realize(dirs, dict(zip(verts, gap)))
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


def _realize(dirs: dict, gap: dict) -> Orientation:
    """Reverse directed paths until each vertex v has gained gap[v] in-arcs.

    A path from a vertex with gap > 0 to one with gap < 0, reversed, moves
    one in-arc from its end to its start; Hakimi's theorem says one exists.
    The search leaves each vertex by its out-arcs in the order of
    ``dirs``, one sorted list of edge indices per vertex; a reversal moves
    one index from one list to another.
    """
    ids = list(dirs)
    dirs = dict(dirs)
    out: dict = {v: [] for v in gap}
    for j, e in enumerate(ids):
        out[dirs[e][0]].append(j)
    reversals = 0
    for low in gap:
        while gap[low] > 0:
            prev = {low: None}
            dq = deque([low])
            while dq:
                w = dq.popleft()
                if gap[w] < 0:
                    break
                for j in out[w]:
                    h = dirs[ids[j]][1]
                    if h not in prev:
                        prev[h] = j
                        dq.append(h)
            else:
                raise TheoremViolation(
                    "_realize: no path from %s to a vertex above its "
                    "in-degree at path reversal %d (tripwire): vertices %d, "
                    "edges %d" % (low, reversals + 1, len(gap), len(dirs)))
            reversals += 1
            gap[low] -= 1
            gap[w] += 1
            while w != low:
                j = prev[w]
                e = ids[j]
                t, h = dirs[e]
                dirs[e] = (h, t)
                out[t].remove(j)
                insort(out[h], j)
                w = t
    return Orientation(dirs)


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
