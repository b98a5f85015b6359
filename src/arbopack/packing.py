"""Constructive packing of matroid-constrained arborescences.

The solver mirrors the inductive sufficiency argument: while a bad arc uv
exists, pick a root element s placed at u outside the span of the roots at
v, delete uv, add a fresh element s' parallel to s at v, and recurse on
the smaller instance D'; at the base case (no bad arc) every vertex's root
set is a base and the packing is |S| singleton arborescences.  The
recursion is run iteratively and unwound by lifting: the trees rooted at s
and its twin are vertex-disjoint, so their union plus uv is again an
arborescence.

D is M-connected at every step (the input is checked, and each accepted
D' is again M-connected).  The deficiency of D' is

    def'(X) = def(X) - 1 + [s not in span(S_X)]   if v in X and u not in X,
    def'(X) = def(X)                               otherwise,

so D' is M-connected iff def' >= 0 on the sets that hold v and not u: one
pinned minimization per candidate, not a check over all nonempty sets.
Under the ``flow`` engine that is one flow on D' into v, with u as its
source, capped at k = r(S).

``Packing`` and ``verify_packing`` serve both sides: on a ``RootedGraph``
a tree's link ids are edge ids, and ``orientation.pack_undirected``
returns the packing of the oriented digraph as it is.

``brute_force_packing`` is an independent exponential ground-truth oracle
used by the test suite; it shares nothing with the constructive path
except the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import flow, sfm
from .connectivity import (
    Certificate,
    check_independent_placement,
    check_m_connected,
    classify_arc,
    deficiency_objective,
)
from .graphs import (
    InstanceError,
    RootedDigraph,
    RootedInstance,
    SizeLimitError,
    tree_vertices,
)

BRUTE_ARC_CAP = 10
BRUTE_ROOT_CAP = 4


class TheoremViolation(RuntimeError):
    """Tripwire: the algorithm reached a state the proof rules out."""


class InfeasibleBound(ValueError):
    """Requested per-vertex rank bound exceeds the matroid rank."""


@dataclass(frozen=True)
class Tree:
    root_element: str
    root_vertex: str
    arcs: frozenset  # link ids: arcs, or edges on the undirected side

    def to_json(self, key: str = "arcs") -> dict:
        return {
            "root_element": self.root_element,
            "root_vertex": self.root_vertex,
            key: sorted(self.arcs),
        }


@dataclass(frozen=True)
class Packing:
    trees: tuple

    def arc_set(self) -> frozenset:
        out: frozenset = frozenset()
        for t in self.trees:
            out |= t.arcs
        return out

    def to_json(self, key: str = "arcs") -> dict:
        """``key`` names each tree's id list: "arcs" or "edges"."""
        return {"trees": [t.to_json(key) for t in self.trees]}


@dataclass(frozen=True)
class Failure:
    reason: str
    detail: str


@dataclass(frozen=True)
class ReductionStep:
    arc_id: str
    tail: str
    head: str
    element: str
    new_element: str

    def to_json(self) -> dict:
        return {
            "removed_arc": self.arc_id,
            "element": self.element,
            "new_element": self.new_element,
        }


# -- verifier -----------------------------------------------------------------


def verify_packing(inst: RootedInstance, packing: Packing) -> Optional[Failure]:
    """None when valid, else the first failing invariant.

    Either side: reasons name the link ("unknown-arc", "duplicate-edge")
    and the tree (``tree_failure``) of the instance's class.
    """
    placed = inst.placement
    seen: set = set()
    covers = {v: set() for v in inst.vertices}
    for t in packing.trees:
        if t.root_element not in placed:
            return Failure("unknown-root-element", t.root_element)
        if placed[t.root_element] != t.root_vertex:
            return Failure("root-mismatch", t.root_element)
        for a in t.arcs:
            if a not in inst.link_map:
                return Failure("unknown-" + inst.link, a)
            if a in seen:
                return Failure("duplicate-" + inst.link, a)
            seen.add(a)
        verts = tree_vertices(t.arcs, inst, t.root_vertex)
        if verts is None:
            return Failure(inst.tree_failure, t.root_element)
        for v in verts:
            covers[v].add(t.root_element)
    if sorted(t.root_element for t in packing.trees) != sorted(placed):
        return Failure("missing-tree", "one tree per root element required")
    for v in inst.vertices:
        if not inst.matroid.is_base(covers[v]):
            return Failure("not-a-base", v)
    return None


# -- constructive solver --------------------------------------------------------


def find_reduction(inst: RootedDigraph, engine: str = "flow"):
    """First bad-arc/witness pair whose reduced instance stays M-connected.

    Returns (step, reduced instance) or None at the base case (no bad arc).
    ``inst`` must be M-connected: each candidate is then decided by
    ``_keeps_connected``, which reads def' on the sets holding the head
    and not the tail (see the module docstring).
    """
    tried = []
    for step, reduced, ok in _candidates(inst, engine):
        if ok:
            return step, reduced
        tried.append(step)
    if not tried:
        return None
    raise TheoremViolation(
        "find_reduction: no candidate keeps the instance M-connected "
        "(tripwire): engine %s, bad arcs %s, candidates tried %d, "
        "arcs %d, roots %d"
        % (engine, list(dict.fromkeys(st.arc_id for st in tried)), len(tried),
           len(inst.arcs), len(inst.roots)))


def _candidates(inst: RootedDigraph, engine: str):
    """(step, reduced instance, whether it stays M-connected) per candidate.

    Bad arcs in arc order; for each, its witnesses in ground order.  Each
    verdict is computed when its candidate is drawn.
    """
    ground_order = {e: i for i, e in enumerate(inst.matroid.ground)}
    for a, t, h in inst.arcs:
        kind, witness = classify_arc(inst, a)
        if kind != "bad":
            continue
        rest = [arc for arc in inst.arcs if arc[0] != a]
        for s in sorted(witness, key=ground_order.__getitem__):
            m2, s_new = inst.matroid.extend_parallel(s)
            reduced = RootedDigraph(inst.vertices, rest,
                                    inst.roots + ((s_new, h),), m2)
            yield (ReductionStep(a, t, h, s, s_new), reduced,
                   _keeps_connected(reduced, t, h, engine))


def _keeps_connected(reduced: RootedDigraph, u: str, v: str,
                     engine: str) -> bool:
    """Whether D' = ``reduced`` is M-connected, given that D is.

    def' can fall below def only on sets that hold v and not u, so this
    minimizes def' over those sets alone: u is dropped and v pinned.
    Only the minimum value is read, never a minimizer.
    """
    if engine == "flow":
        k = reduced.matroid.full_rank()
        return flow.Network(reduced).min_cut((v,), (u,), k) >= k
    # with u indexed last, the sets without u are those over the first
    # n - 1 indices, and def' is evaluated on them as it is
    rest = [w for w in reduced.vertices if w != u]
    obj = deficiency_objective(RootedDigraph(
        rest + [u], reduced.arcs, reduced.roots, reduced.matroid))
    pinned = sfm.SubmodularObjective(len(rest), obj.evaluate,
                                     ("contains", rest.index(v)))
    return sfm.minimize(pinned, engine=engine).value >= 0


def base_case_packing(inst: RootedDigraph) -> Packing:
    """Singleton arborescence per root element; valid when no arc is bad."""
    for a, _, _ in inst.arcs:
        if classify_arc(inst, a)[0] == "bad":
            raise InstanceError("base case invoked with a bad arc present")
    return Packing(tuple(Tree(e, v, frozenset()) for e, v in inst.roots))


def lift_packing(packing: Packing, step: ReductionStep,
                 inst: Optional[RootedDigraph] = None) -> Packing:
    """Merge the trees rooted at s and its twin across the removed arc."""
    by_root = {t.root_element: t for t in packing.trees}
    t1 = by_root[step.element]
    t2 = by_root[step.new_element]
    if inst is not None:
        v1 = tree_vertices(t1.arcs, inst, t1.root_vertex)
        v2 = tree_vertices(t2.arcs, inst, t2.root_vertex)
        if v1 is None or v2 is None:
            raise TheoremViolation(
                "a twin tree is not an arborescence (tripwire)")
        if v1 & v2:
            raise TheoremViolation(
                "trees rooted at parallel twins share a vertex (tripwire)"
            )
        if step.tail not in v1 or step.head != t2.root_vertex:
            raise TheoremViolation("removed arc does not join the twin trees")
    rest = tuple(
        t for t in packing.trees
        if t.root_element not in (step.element, step.new_element)
    )
    merged = Tree(step.element, t1.root_vertex,
                  t1.arcs | t2.arcs | {step.arc_id})
    return Packing(rest + (merged,))


def find_packing(inst: RootedDigraph, engine: str = "flow",
                 trace: Optional[list] = None) -> Union[Packing, Certificate]:
    """Full decision-plus-construction; the result is verified before return."""
    cert = check_independent_placement(inst)
    if not cert.ok:
        return cert
    cert = check_m_connected(inst, engine=engine)
    if not cert.ok:
        return cert
    return _construct(inst, engine, trace)


def _construct(inst: RootedDigraph, engine: str,
               trace: Optional[list] = None) -> Packing:
    """Reduce to the base case, lift back and verify.

    For callers that have already established both conditions on
    ``inst``: an independent placement and M-connectivity.
    """
    steps: list[ReductionStep] = []
    cur = inst
    while True:
        red = find_reduction(cur, engine=engine)
        if red is None:
            break
        step, cur = red
        steps.append(step)
        if trace is not None:
            trace.append(step)

    packing = base_case_packing(cur)
    for step in reversed(steps):
        packing = lift_packing(packing, step, inst)
    # report trees in the original root order
    order = {e: i for i, (e, _) in enumerate(inst.roots)}
    packing = Packing(tuple(sorted(packing.trees,
                                   key=lambda t: order[t.root_element])))
    failure = verify_packing(inst, packing)
    if failure is not None:
        raise TheoremViolation(
            "constructed packing failed verification: %r (tripwire)" % (failure,)
        )
    return packing


# -- exponential ground truth ----------------------------------------------------


def brute_force_packing(inst: RootedDigraph) -> Optional[Packing]:
    """Exhaustive packer: assign each arc to one tree or leave it unused.

    Independent of the constructive solver; shares only the verifier,
    which checks the packing it returns.
    """
    arcs = list(inst.arcs)
    roots = list(inst.roots)
    if len(arcs) > BRUTE_ARC_CAP or len(roots) > BRUTE_ROOT_CAP:
        raise SizeLimitError(
            "brute-force packer capped at %d arcs / %d roots"
            % (BRUTE_ARC_CAP, BRUTE_ROOT_CAP)
        )
    t = len(roots)
    # per tree: head -> tail of its in-arc, and the indices of its arcs
    parent: list[dict] = [{} for _ in range(t)]
    tree_arcs: list[list] = [[] for _ in range(t)]

    def feasible_partial(i: int, j: int) -> bool:
        _, tail, h = arcs[i]
        if h in parent[j] or h == roots[j][1]:
            return False
        # h being tail or one of its ancestors would close a cycle
        w = tail
        while w is not None:
            if w == h:
                return False
            w = parent[j].get(w)
        return True

    def leaf() -> Optional[Packing]:
        # each tree is acyclic with one in-arc per non-root vertex, so it is
        # an arborescence iff each tail is the root or has an in-arc, and
        # then it spans its root and its heads; what is left to check is
        # that the roots covering each vertex form a base
        covers: dict[str, list] = {v: [] for v in inst.vertices}
        for j, (e, v) in enumerate(roots):
            p = parent[j]
            if any(arcs[i][1] != v and arcs[i][1] not in p
                   for i in tree_arcs[j]):
                return None
            covers[v].append(e)
            for u in p:
                covers[u].append(e)
        if all(inst.matroid.is_base(c) for c in covers.values()):
            return Packing(tuple(
                Tree(e, v, frozenset(arcs[i][0] for i in tree_arcs[j]))
                for j, (e, v) in enumerate(roots)))
        return None

    def rec(i: int) -> Optional[Packing]:
        if i == len(arcs):
            return leaf()
        _, tail, h = arcs[i]
        for j in range(t):
            if feasible_partial(i, j):
                parent[j][h] = tail
                tree_arcs[j].append(i)
                found = rec(i + 1)
                tree_arcs[j].pop()
                del parent[j][h]
                if found is not None:
                    return found
        return rec(i + 1)  # arc i unused

    found = rec(0)
    if found is not None:
        failure = verify_packing(inst, found)
        if failure is not None:
            raise TheoremViolation(
                "brute-force packing failed verification (tripwire): %r"
                % (failure,))
    return found


# -- constant-bound variant --------------------------------------------------------


def pack_with_bound(inst: RootedDigraph, b: int,
                    engine: str = "flow") -> Union[Packing, Certificate]:
    """Packing in which every vertex's covering roots reach rank b.

    Implemented by truncating the matroid at b; a placement dependent in
    the truncation is reported as a certificate, not repaired.
    """
    if b < 0:
        raise ValueError("bound must be non-negative")
    if b > inst.matroid.full_rank():
        raise InfeasibleBound(
            "bound %d exceeds the matroid rank %d" % (b, inst.matroid.full_rank())
        )
    truncated = RootedDigraph(
        inst.vertices, inst.arcs, inst.roots, inst.matroid.truncate(b)
    )
    return find_packing(truncated, engine=engine)
