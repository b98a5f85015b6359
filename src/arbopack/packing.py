"""Constructive packing of matroid-constrained arborescences.

The solver mirrors the inductive sufficiency argument: while a bad arc uv
exists, pick a root element s placed at u outside the span of the roots at
v, delete uv, add a fresh element s' parallel to s at v, and recurse on
the smaller instance D'; at the base case (no bad arc) every vertex's root
set is a base and the packing is |S| singleton arborescences.  The
recursion is run iteratively and unwound by lifting: the trees rooted at s
and its twin are vertex-disjoint, so their union plus uv is again an
arborescence.  ``lift_packing`` undoes all the steps in one pass, by
element index (see its docstring).

An M-connected D stays M-connected at every step (each accepted D' is
again M-connected).  The deficiency of D' is

    def'(X) = def(X) - 1 + [s not in span(S_X)]   if v in X and u not in X,
    def'(X) = def(X)                               otherwise,

so D' is M-connected iff def' >= 0 on the sets that hold v and not u: one
pinned minimization per candidate, not a check over all nonempty sets.
That is one flow on D' into v, capped at k = r(S), with u kept out of
every set (``flow.Network.min_cut``'s ``out``).
A D that is not M-connected stays so, since def' <= def.  Roots that
form a base at every vertex would make D M-connected, so the loop then
ends in a tripwire: at the base case, which finds a vertex without a
base, or at a step where no candidate is accepted.  So ``_construct``
returns a packing exactly when D is M-connected, and raises
``TheoremViolation`` where it is not; a caller may split first and
check only where the split fails.
The flow decides every candidate under every engine: the answer is exact
and the same whichever engine would decide it, so the engine picks only
how the input is checked (``find_packing``), never which step is taken.

One ``ReductionState`` carries D through the whole loop and is changed in
place, since D' differs from D by one arc and one root.  Its
``flow.Network`` is built once per digraph: ``find_packing`` hands on
the network its check of D ran on (``_construct``'s ``net``).  A
deleted arc stays in the network with capacity 0, and a twin is appended
as one more element with the bit of s, so the network's rank memo, keyed
by bit masks of the root oracle's elements, stays valid from the first
step to the last.  A candidate changes the network alone, and a rejected one
is undone there; an accepted one is entered in the rest of the state as
a step (arc index, stem index).  The loop names no twin and builds no
matroid: twin ids, which grow by one prime per twin of the same stem
and so hold O(n^2) characters along long chains, are built only where
one is printed or read (``--trace``, the lift's tripwires,
``ReductionState.digraph``).
The class of each arc (good, or bad with its witnesses) is cached and
read from the same masks and memo; adding s' at v changes S_v alone, so
a step re-classifies only the arcs at v, in place: an arc into v keeps
those of its witnesses still outside the grown span at v, and an arc
out of v gains s' when s' lies outside its head's span.  Each search of
the flow goes backwards from v and stops at the first start it meets,
so a step costs about what its searches visit, not the size of D.  The
base case is read from the state as well: one tree of no arcs per
element, after a tripwire that the roots at every vertex form a base.

``Packing`` and ``verify_packing`` serve both sides: on a ``RootedGraph``
a tree's link ids are edge ids, and ``orientation.pack_undirected``
returns the packing of the oriented digraph as it is.

``brute_force_packing`` is an independent exponential ground-truth oracle
used by the test suite; it shares nothing with the constructive path
except the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from . import flow
from .connectivity import (
    Certificate,
    check_independent_placement,
    check_m_connected,
)
from .graphs import (
    RootedDigraph,
    RootedInstance,
    SizeLimitError,
    TheoremViolation,
    tree_vertices,
)
from .matroid import ParallelExtension, TwinIds

BRUTE_ARC_CAP = 10
BRUTE_ROOT_CAP = 4


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


@dataclass(slots=True)
class ReductionStep:
    """Step i of one reduction loop: arc ``arc`` = uv deleted, and element
    ``twin`` = len(inst.roots) + i added at v, parallel to element
    ``stem``, itself a root of the input or a twin.

    A step holds indices only.  Its ids are read through ``state``: the
    arc's from the input, the elements' from ``ReductionState.names``,
    which names no twin until one of them is read.
    """

    arc: int
    stem: int
    twin: int
    state: "ReductionState" = field(compare=False, repr=False)

    @property
    def arc_id(self) -> str:
        return self.state.inst.arcs[self.arc][0]

    @property
    def tail(self) -> str:
        return self.state.inst.arcs[self.arc][1]

    @property
    def head(self) -> str:
        return self.state.inst.arcs[self.arc][2]

    @property
    def element(self) -> str:
        return self.state.names()[self.stem]

    @property
    def new_element(self) -> str:
        return self.state.names()[self.twin]

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
    m = inst.matroid
    k = m.full_rank()
    for v in inst.vertices:
        c = covers[v]
        if not (len(c) == k and m.rank(c) == k):
            return Failure("not-a-base", v)
    return None


# -- constructive solver --------------------------------------------------------


class ReductionState:
    """D at the current step of one reduction loop, changed in place.

    Elements are indexed as the roots of D are: those of the input in
    its order, then one twin per accepted step.  ``net`` is one
    ``flow.Network`` for the whole loop: the one the M-connectivity
    check of D ran on, handed in, or a new one.  A candidate (arc j = uv,
    element x = s) is tried on the network alone: ``apply`` removes j
    from it and appends a twin of s at v, which is all the flow of
    ``_keeps_connected`` reads, and ``undo`` takes both back.  ``commit``
    keeps the candidate: it appends (j, x) to ``steps``, marks j dead in
    ``live``, appends the twin to ``order`` and re-classifies the arcs.
    No step names a twin or builds a matroid: ``names`` replays the
    steps to name the elements, and ``digraph`` builds D as an instance
    of its own, with one flat ``ParallelExtension``, each only when
    asked.  ``base_packing`` reads the base case from the state.

    ``witness[j]`` caches the class of arc j: the elements x at its tail,
    by network index in ground order, with r(S_h + x) > r(S_h), read from
    ``mask`` (S_w as a bit mask) and the network's rank memo; the arc is
    bad iff the tuple is nonempty.  ``bad`` holds the live bad arcs first
    in, first out, as the keys of an insertion-ordered dict: in arc order
    at the start, and an arc that turns bad goes to the end.  Taking the
    oldest bad arc first keeps a candidate's flow search short, where
    arc order would grow one tree over much of V before the next starts.
    ``_witness`` reads a class afresh, in ``__init__`` only.
    A commit adds twin y at v, which changes S_v alone, so it updates the
    tuples of the arcs at v in place: an arc into v (``into[v]``) keeps
    the x with r(S_v + y + x) > r(S_v + y), since the span at v only
    grows and no element can join; an arc out of v (``leaving[v]``)
    appends y when y lies outside its head's span, and stays in ground
    order, since y comes after every element in it.
    """

    def __init__(self, inst: RootedDigraph,
                 net: Optional[flow.Network] = None):
        self.inst = inst
        self.net = net = flow.Network(inst) if net is None else net
        self.k = inst.matroid.full_rank()
        self.steps: list[tuple[int, int]] = []  # (arc, stem) per step
        self._names = [e for e, _ in inst.roots]
        self._ids: Optional[TwinIds] = None
        pos = net.pos
        self.tail = [pos[t] for _, t, _ in inst.arcs]
        self.head = [pos[h] for _, _, h in inst.arcs]
        self.live = [True] * len(inst.arcs)
        self.into: list = [[] for _ in pos]
        self.leaving: list = [[] for _ in pos]
        for j, (t, h) in enumerate(zip(self.tail, self.head)):
            self.leaving[t].append(j)
            self.into[h].append(j)
        ground = {e: i for i, e in enumerate(inst.matroid.ground)}
        self.order = [ground[e] for e, _ in inst.roots]
        self.mask = [0] * len(pos)
        for x, i in enumerate(net.home):
            self.mask[i] |= net.ebit[x]
        self.witness = [self._witness(j) for j in range(len(inst.arcs))]
        self.bad = dict.fromkeys(j for j, w in enumerate(self.witness) if w)
        self._trial = None

    def _witness(self, j: int) -> tuple:
        net, rank = self.net, self.net.rank
        if not net.at[self.tail[j]]:
            return ()
        span = self.mask[self.head[j]]
        r = rank[span]
        return tuple(sorted((x for x in net.at[self.tail[j]]
                             if rank[span | net.ebit[x]] > r),
                            key=self.order.__getitem__))

    def candidates(self):
        """(arc index, element index) per candidate: bad arcs first in,
        first out (``bad``), each one's witnesses in ground order."""
        for j in self.bad:
            for x in self.witness[j]:
                yield j, x

    def apply(self, j: int, x: int) -> None:
        """Make the network that of D' for candidate (j, x); ``undo`` or
        ``commit`` next."""
        self._trial = j, x
        self.net.remove_arc(j)
        self.net.add_twin(x, self.head[j])

    def undo(self) -> None:
        j, _ = self._trial
        self._trial = None
        self.net.restore_arc(j)
        self.net.pop_element()

    def commit(self) -> ReductionStep:
        """Keep the applied candidate: D' becomes the state, and the arcs
        at its head are re-classified in place."""
        j, x = self._trial
        self._trial = None
        y = len(self.order)
        self.steps.append((j, x))
        self.live[j] = False
        self.order.append(y)
        bad, witness, live, mask = self.bad, self.witness, self.live, self.mask
        del bad[j]
        witness[j] = ()
        rank, ebit = self.net.rank, self.net.ebit
        b = ebit[y]
        v = self.head[j]
        span = mask[v] = mask[v] | b
        r = rank[span]
        for i in self.into[v]:
            was = witness[i]
            if was and live[i]:
                now = witness[i] = tuple(z for z in was
                                         if rank[span | ebit[z]] > r)
                if not now:
                    del bad[i]
        for i in self.leaving[v]:
            if live[i]:
                h = mask[self.head[i]]
                if rank[h | b] > rank[h]:
                    was = witness[i]
                    witness[i] = was + (y,)
                    if not was:
                        bad[i] = None
        return ReductionStep(j, x, y, self)

    def names(self) -> list[str]:
        """The id of every element of D, by index.

        The input's root elements keep theirs; step i's twin is named by
        ``matroid.TwinIds`` from its stem's id, the steps replayed in
        order, as extending the matroid parallel to the stem once per
        step would name it.  Only accepted steps are replayed, so a
        rejected candidate takes no id.  Nothing in the loop asks: the
        ids are built the first time they are read, and extended over
        the steps taken since on each later read.
        """
        if self._ids is None:
            self._ids = TwinIds(self.inst.matroid.ground)
        names, ids = self._names, self._ids
        for _, x in self.steps[len(names) - len(self.inst.roots):]:
            s_new = ids.name(names[x])
            ids.take(s_new)
            names.append(s_new)
        return names

    def base_packing(self) -> Packing:
        """The packing of D at the base case (no bad arc): one tree of no
        arcs per element, in index order.

        A twin's tree carries the id of the input root its stem chain
        ends at, the tree ``lift_packing`` merges it into; the lift reads
        a twin's tree for its root vertex and arcs only.  Tripwire: the
        trees are a packing only if the roots at every vertex form a base
        of M, read from ``mask`` through the root oracle.
        """
        net, k = self.net, self.k
        for i, xs in enumerate(net.at):
            r = net.rank[self.mask[i]]
            if len(xs) != k or r != k:
                raise TheoremViolation(
                    "base case: the roots at vertex %s are no base "
                    "(tripwire): engine flow, %d elements of rank %d, "
                    "rank %d, steps %d, arcs %d, roots %d"
                    % (self.inst.vertices[i], len(xs), r, k,
                       len(self.steps), net.live_arcs, len(self.order)))
        owner = [e for e, _ in self.inst.roots]
        for _, x in self.steps:
            owner.append(owner[x])
        verts = self.inst.vertices
        return Packing(tuple(Tree(e, verts[i], frozenset())
                             for e, i in zip(owner, net.home)))

    def digraph(self) -> RootedDigraph:
        """D as an instance of its own, with the input's vertex order.

        Its matroid is the input's root oracle with every twin mapped to
        the root element its stem chain ends at: the oracle that
        extending the input's matroid once per twin would give.
        """
        arcs = [arc for arc, ok in zip(self.inst.arcs, self.live) if ok]
        names = self.names()
        root, twins = self.inst.matroid.twin_map()
        twins = dict(twins)
        to_root = [twins.get(e, e) for e, _ in self.inst.roots]
        for e, (_, x) in zip(names[len(to_root):], self.steps):
            to_root.append(to_root[x])
            twins[e] = to_root[-1]
        verts = self.inst.vertices
        roots = [(e, verts[i]) for e, i in zip(names, self.net.home)]
        return RootedDigraph(verts, arcs, roots,
                             ParallelExtension(root, twins))


def find_reduction(red: ReductionState) -> Optional[ReductionStep]:
    """Take the first candidate whose D' stays M-connected.

    The accepted step is committed to ``red``; None at the base case (no
    bad arc).  Where D is M-connected, each candidate is decided by
    ``_keeps_connected``, which reads def' on the sets holding the head
    and not the tail (see the module docstring); where it is not, no
    accepted step makes it so.
    """
    tried = []
    for j, x in red.candidates():
        red.apply(j, x)
        if _keeps_connected(red, j):
            return red.commit()
        red.undo()
        tried.append(j)
    if not tried:
        return None
    raise TheoremViolation(
        "find_reduction: no candidate keeps the instance M-connected "
        "(tripwire): engine flow, bad arcs %s, candidates tried %d, "
        "arcs %d, roots %d"
        % (list(dict.fromkeys(red.inst.arcs[j][0] for j in tried)),
           len(tried), red.net.live_arcs, len(red.order)))


def _keeps_connected(red: ReductionState, j: int) -> bool:
    """Whether D', the network of ``red`` with candidate j = uv applied,
    is M-connected, given that D is.

    def' can fall below def only on sets that hold v and not u, so this
    minimizes def' over those sets alone: one flow into v with u kept
    out.  Only the minimum value is read, never a minimizer.
    """
    return red.net.min_cut(red.head[j], red.k,
                           out=(red.tail[j],)) >= red.k


def lift_packing(inst: RootedDigraph, base: Packing,
                 steps: list[ReductionStep]) -> Packing:
    """Lift a packing of the reduced instance back through ``steps`` to
    one of ``inst``, with its trees in the order of ``inst.roots``.

    Tree i of ``base`` is rooted at element i of the reduced instance:
    the roots of ``inst``, then the twin of step i at len(inst.roots) + i.
    Undoing step i merges the twin's tree into its stem's across the
    removed arc uv, so the two must be vertex-disjoint arborescences, u in
    the stem's tree and v the twin's root.  One pass over the steps, the
    last first, merges the vertex sets, each time the smaller into the
    larger; a tree of no arcs is its root alone, read with no
    ``tree_vertices`` call.  A tree's arcs are those of every tree and
    step whose stem chain ends at its root.
    """
    t0 = len(inst.roots)
    trees = base.trees
    spans: list = [None] * len(trees)

    def vertex_set(i: int) -> Optional[set]:
        if spans[i] is None:
            t = trees[i]
            got = (tree_vertices(t.arcs, inst, t.root_vertex) if t.arcs
                   else (t.root_vertex,))
            spans[i] = None if got is None else set(got)
        return spans[i]

    for i in range(len(steps) - 1, -1, -1):
        step = steps[i]
        v1, v2 = vertex_set(step.stem), vertex_set(t0 + i)
        if v1 is None or v2 is None:
            fault = "a twin tree is not an arborescence"
        elif not v1.isdisjoint(v2):
            fault = "the trees rooted at the twins share a vertex"
        elif (step.tail not in v1
              or step.head != trees[t0 + i].root_vertex):
            fault = "the removed arc does not join the twin trees"
        else:
            fault = None
        if fault is not None:
            raise TheoremViolation(
                "lift_packing: %s (tripwire): arc %s from %s to %s, "
                "element %s, twin %s" % (fault, step.arc_id, step.tail,
                                         step.head, step.element,
                                         step.new_element))
        if len(v1) < len(v2):
            v1, v2 = v2, v1
        v1 |= v2
        spans[step.stem], spans[t0 + i] = v1, None
    owner = list(range(t0))
    for step in steps:
        owner.append(owner[step.stem])
    arcs: list = [[] for _ in range(t0)]
    for i, t in enumerate(trees):
        arcs[owner[i]].extend(t.arcs)
    for step in steps:
        arcs[owner[step.stem]].append(step.arc_id)
    return Packing(tuple(Tree(trees[r].root_element, trees[r].root_vertex,
                              frozenset(arcs[r])) for r in range(t0)))


def find_packing(inst: RootedDigraph, engine: str = "flow",
                 trace: Optional[list] = None) -> Union[Packing, Certificate]:
    """Full decision-plus-construction; the result is verified before return.

    ``engine`` decides the input check alone; the reduction loop runs
    the same flows under every engine.  Under ``flow`` the check and the
    loop share one ``flow.Network``; the other engines build none before
    their check passes.
    """
    cert = check_independent_placement(inst)
    if not cert.ok:
        return cert
    net = flow.Network(inst) if engine == "flow" else None
    cert = check_m_connected(inst, engine=engine, net=net)
    if not cert.ok:
        return cert
    return _construct(inst, trace, net=net)


def _construct(inst: RootedDigraph, trace: Optional[list] = None,
               net: Optional[flow.Network] = None) -> Packing:
    """Reduce to the base case, lift back and verify.

    For callers that have established an independent placement on
    ``inst``.  ``inst`` may fail M-connectivity: then the loop ends in a
    tripwire and this raises ``TheoremViolation``, and it never returns
    a packing that ``verify_packing`` rejects.  A caller that splits
    first tells the two apart by checking M-connectivity where the split
    fails (``polytope.min_cost_packing``,
    ``orientation.pack_undirected``).  ``net``, when given, is the
    ``flow.Network`` of ``inst`` that a check ran on; the loop changes it
    in place (``ReductionState``).
    """
    steps: list[ReductionStep] = []
    red = ReductionState(inst, net=net)
    while True:
        step = find_reduction(red)
        if step is None:
            break
        steps.append(step)
        if trace is not None:
            trace.append(step)

    packing = lift_packing(inst, red.base_packing(), steps)
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
