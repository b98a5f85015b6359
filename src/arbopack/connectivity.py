"""Feasibility conditions and structural predicates.

The central quantity is the deficiency of a vertex set X:

    def(X) = in_degree(X) + rank(S_X) - rank(S)

The instance is root-connected (condition (2) of the characterization) iff
def(X) >= 0 for every nonempty X; def(V) = 0 always, so the minimum is
never positive.  ``check_m_connected`` splits the nonempty sets by their
smallest index v (``sfm.by_smallest_index``) under every engine.  Under
``flow`` run v is one flow with sink v and ``out`` = range(v), which
keeps every index below v out of X (``flow_deficiency``);
``min-norm-point`` runs Wolfe's algorithm per run, and ``brute`` walks
every set of the run.  A violated set is the smallest minimizer of the
first run, by smallest index, that reaches the minimum of def: the
intersection of that run's minimizers, read off the run itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Optional

from . import flow, sfm
from .graphs import (
    InstanceError,
    Partition,
    RootedDigraph,
    RootedGraph,
    TheoremViolation,
    cross_edges,
    in_degree,
    iter_partitions,
)

OK = "ok"
DEPENDENT_VERTEX = "dependent-vertex"
VIOLATED_SET = "violated-set"
VIOLATED_PARTITION = "violated-partition"


@dataclass(frozen=True)
class Certificate:
    kind: str
    vertex: Optional[str] = None
    vertex_set: Optional[frozenset] = None
    partition: Optional[tuple] = None
    deficiency: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.kind == OK

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.vertex is not None:
            out["vertex"] = self.vertex
        if self.vertex_set is not None:
            out["vertex_set"] = sorted(self.vertex_set)
        if self.partition is not None:
            out["partition"] = [sorted(b) for b in self.partition]
        if self.deficiency is not None:
            out["deficiency"] = self.deficiency
        return out


_OK_CERT = Certificate(OK)


def check_independent_placement(inst) -> Certificate:
    """ok, or the first vertex (canonical order) whose root set is dependent."""
    m = inst.matroid
    for v in inst.vertices:
        sv = inst.elements_at(v)
        if m.rank(sv) < len(sv):
            return Certificate(DEPENDENT_VERTEX, vertex=v)
    return _OK_CERT


def deficiency_objective(inst: RootedDigraph, weights: Optional[dict] = None,
                         scale: int = 1) -> sfm.SubmodularObjective:
    """def(X) over vertex indices, family = nonempty sets.

    With ``weights`` (arc id -> weight) and ``scale`` the value is the
    weight entering X plus scale * (rank(S_X) - rank(S)), which is the cut
    objective of separation scaled by ``scale``: ``polytope.separate``
    hands it the point times the lcm of its denominators, so that every
    value is an int.  Each vertex carries the bit mask of the root elements
    placed at it, twins mapped to their root element
    (``Matroid.twin_map``), so S_X is an OR of masks and its scaled rank
    term is read from a cache keyed by that int, which asks the root oracle
    only on a miss.  Its ``prefixes`` reads a chain in one pass over the
    arcs: adding vertex i to X adds the weight of the arcs into i from
    outside X + i and takes off that of the arcs from i into X.
    """
    verts = inst.vertices
    pos = {v: i for i, v in enumerate(verts)}
    root, twins = inst.matroid.twin_map()
    ground = root.ground
    bit = {e: 1 << j for j, e in enumerate(ground)}
    at = [0] * len(verts)
    for e, v in inst.roots:
        at[pos[v]] |= bit[twins.get(e, e)]
    entering: list = [[] for _ in verts]
    leaving: list = [[] for _ in verts]
    for a, t, h in inst.arcs:
        wa = 1 if weights is None else weights[a]
        entering[pos[h]].append((1 << pos[t], wa))
        leaving[pos[t]].append((1 << pos[h], wa))
    k = root.full_rank()
    ranks: dict[int, int] = {}

    def rank_term(smask: int) -> int:
        r = ranks.get(smask)
        if r is None:
            r = ranks[smask] = scale * (root.rank(
                [e for j, e in enumerate(ground) if smask >> j & 1]) - k)
        return r

    def state(X: AbstractSet[int]) -> tuple:
        """X's vertex mask, root mask and entering weight."""
        xmask = smask = w = 0
        for i in X:
            xmask |= 1 << i
            smask |= at[i]
        for i in X:
            for tail, wa in entering[i]:
                if not xmask & tail:
                    w += wa
        return xmask, smask, w

    def evaluate(X: AbstractSet[int]):
        _, smask, w = state(X)
        return w + rank_term(smask)

    def prefixes(start: AbstractSet[int], order) -> list:
        xmask, smask, w = state(start)
        out = []
        for i in order:
            for head, wa in leaving[i]:
                if xmask & head:
                    w -= wa
            xmask |= 1 << i
            for tail, wa in entering[i]:
                if not xmask & tail:
                    w += wa
            smask |= at[i]
            out.append(w + rank_term(smask))
        return out

    return sfm.SubmodularObjective(len(verts), evaluate, ("nonempty",),
                                   prefixes)


def flow_deficiency(net: flow.Network, k: int, read) -> sfm.SfmResult:
    """min(0, min of def) on ``net``'s digraph by one flow per smallest
    index v, capped at k with the indices below v kept out, and the set
    that ``read(net)``, a ``flow.Network`` minimizer, gives on the first
    run that reaches it below 0.  A flow stops at its cap already, so
    the runs ignore the bar ``by_smallest_index`` hands them."""
    def run(v: int, bar):
        value = net.min_cut(v, k, out=range(v)) - k
        return value, read(net) if value < 0 else None

    return sfm.by_smallest_index(len(net.pos), run)


def check_m_connected(inst: RootedDigraph, engine: str = "flow",
                      net: Optional[flow.Network] = None) -> Certificate:
    """Condition (2): every nonempty X has in-degree >= rank(S) - rank(S_X).

    A violated set is the smallest minimizer of the first run, by
    smallest index, that reaches the minimum of def (module docstring),
    re-checked before it is returned.  Under ``flow`` the check runs on
    ``net``, the ``flow.Network`` of ``inst`` as it was built, or on one of
    its own; every flow restores the network it ran on, so a caller can
    hand the same network on (``packing.ReductionState``).  The other
    engines read no network.
    """
    if engine == "flow":
        res = flow_deficiency(net if net is not None else flow.Network(inst),
                              inst.matroid.full_rank(), flow.Network.minimizer)
    else:
        res = sfm.minimize(deficiency_objective(inst), engine=engine)
    if res.value >= 0:
        return _OK_CERT
    xs = frozenset(inst.vertices[i] for i in res.minimizer)
    cert = Certificate(VIOLATED_SET, vertex_set=xs, deficiency=int(res.value))
    if not recheck_certificate(inst, cert):
        raise TheoremViolation(
            "check_m_connected: the violated set %s does not recheck "
            "(tripwire): engine %s, deficiency %d, vertices %d, arcs %d, "
            "roots %d" % (sorted(xs), engine, cert.deficiency,
                          len(inst.vertices), len(inst.arcs), len(inst.roots)))
    return cert


def check_partition_connected(g: RootedGraph) -> Certificate:
    """Exhaustive reference oracle for the partition condition.

    Enumerates all Bell(n) partitions (``graphs.iter_partitions``, capped
    at 12 vertices) and reports the first one of maximum deficiency.
    Tests compare ``orientation.orient_m_connected``, the library's
    decision procedure, against it; no library path calls it.
    """
    m = g.matroid
    k = m.full_rank()
    worst = None
    worst_def = 0
    for blocks in iter_partitions(g.vertices):
        p = Partition(blocks, g.vertices)
        need = k * len(p) - sum(m.rank(g.elements_in(b)) for b in p)
        deficit = need - cross_edges(g, p)
        if deficit > worst_def:
            worst_def = deficit
            worst = p
    if worst is None:
        return _OK_CERT
    return Certificate(
        VIOLATED_PARTITION, partition=tuple(worst.blocks), deficiency=-worst_def
    )


def is_tight(inst: RootedDigraph, X) -> bool:
    """Equality in condition (2); only meaningful on root-connected instances."""
    xs = frozenset(X)
    if not xs:
        raise InstanceError("tightness of the empty set is undefined")
    m = inst.matroid
    return in_degree(inst, xs) == m.full_rank() - m.rank(inst.elements_in(xs))


def dominates(inst, Y, X) -> bool:
    """Y dominates X: the roots inside X lie in the span of the roots inside Y."""
    return inst.elements_in(X) <= inst.matroid.span(inst.elements_in(Y))


def classify_arc(inst: RootedDigraph, arc_id: str) -> tuple[str, frozenset]:
    """('good', ∅) if the head dominates the tail, else ('bad', witness)."""
    if arc_id not in inst.arc_map:
        raise InstanceError("unknown arc id %r" % arc_id)
    t, h = inst.arc_map[arc_id]
    m = inst.matroid
    at_head = inst.elements_at(h)
    r = m.rank(at_head)
    # S_t minus span(S_h), without the span over the whole ground set
    witness = frozenset(s for s in inst.elements_at(t)
                        if m.rank(at_head | {s}) > r)
    return ("good", frozenset()) if not witness else ("bad", witness)


def recheck_certificate(inst, cert: Certificate) -> bool:
    """Re-validate a certificate by direct evaluation of its inequality."""
    if cert.kind == OK:
        return True
    m = inst.matroid
    if cert.kind == DEPENDENT_VERTEX:
        sv = inst.elements_at(cert.vertex)
        return m.rank(sv) < len(sv)
    if cert.kind == VIOLATED_SET:
        xs = cert.vertex_set
        return in_degree(inst, xs) < m.full_rank() - m.rank(inst.elements_in(xs))
    if cert.kind == VIOLATED_PARTITION:
        p = Partition(cert.partition, inst.vertices)
        need = m.full_rank() * len(p) - sum(
            m.rank(inst.elements_in(b)) for b in p
        )
        return cross_edges(inst, p) < need
    raise ValueError("unknown certificate kind %r" % cert.kind)
