"""Unit augmenting paths for the integer deficiency checks.

Take a rooted digraph D = (V, A) with root elements S placed at its
vertices, a matroid M on S and a sink vertex t.  By Menger's theorem
and Edmonds' matroid intersection theorem (Edmonds 1970),

    min { in(X) + r(S_X) : t ∈ X }

equals the largest number of arc-disjoint paths that end at t, each
starting at the place of an element of an independent set I, one path
per element of I.

``Network.min_cut`` grows I and the paths one unit at a time.  It first
takes, greedily, the elements placed at t that keep I independent:
each is a path of no arcs.  The residual graph of a partial flow has
vertices and elements as nodes, and a path of it may

* go along an unused arc, or back along a used one;
* go from a vertex w to an element x of I placed at w (x stops supplying w);
* go from x in I to an element y outside I with I - x + y independent;
* go from an element y outside I to its vertex (y starts supplying it).

A path starts at an element y outside I with I + y independent, or at a
vertex with supply left (below), and it ends at t.  Each augmenting
path is found by one breadth-first search backwards from t, which tests
every node it discovers for a start and stops at the first one, so it
visits only nodes no farther from t than that start, not every element
of S.  Flipping the arcs and toggling the elements
along the path adds one unit.  The path is a shortest one, so its
element exchanges have no shortcut: for i < j, I - x_i + y_j is
dependent, and so is I + y_j for every y_j after the first.  By the
exchange lemma of matroid intersection (Schrijver 2003, the matroid
intersection chapter) I toggled along the path is then independent
again.  When no path exists, the failed search has run out of nodes, and
the vertices it reached form the smallest minimizer, the intersection of
all minimizers, whose value is the number of paths found.  At a maximum
flow no residual arc or exchange enters a minimizer from outside, so
every node that still reaches t lies in each of them.  That set is the
one the library reports: the orientation greedy's tight set of a step,
and the violated set of ``connectivity.check_m_connected``, which reads
it from the run that finds the minimum.  The vertices no start reaches
form the largest minimizer, the separation cut of a 0/1 LP point
(``largest_minimizer``).  Every caller passes one sink.

An integer per-vertex supply adds supply(X) to the cut of X: a vertex
with supply left is one more start of the search, and t's own supply
is taken first, each unit a path of no arcs.  It comes as a mapping of
the vertices that have any, which a call reads and never copies, so a
call costs its searches, not the number of vertices.  The orientation
greedy takes its modular offset this way, which it keeps nonnegative by
reversing paths on ``Network.cap`` between its calls.

The vertices that every X must miss come as ``out``, a range, a set or
a tuple, read only by ``in``, so a range of indices costs nothing to
pass.  Each is a start of the search that never runs dry.  That gives
the value a supply of cap at each of them would give: every X that
holds one has a cut of at least cap, so min(cap, ·) is the min over the
sets without them, and a call stops at cap paths.
``connectivity.check_m_connected`` keeps out the indices below each
run's sink, and the reduction loop (``packing._keeps_connected``) the
tail of the removed arc.
"""

from __future__ import annotations

from typing import Container, Optional

from .graphs import RootedDigraph


class FlowViolation(RuntimeError):
    """Tripwire: the flow engine reached a state its proof rules out."""


class Network:
    """An instance as index lists, built once and then changed in place.

    ``adj[w]`` holds (c, u) for each residual arc from vertex w to vertex
    u: c = 2j for arc j itself and 2j + 1 for its reverse, so c ^ 1 is
    the residual arc from u to w.  ``cap`` is the residual capacity every
    ``min_cut`` starts from, 1 on c = 2j and 0 on 2j + 1 when built;
    ``min_cut`` flips it in place and restores it before it returns.
    Element x (node n + x of the search) is the x-th root: ``home[x]`` is
    its vertex and ``ebit[x]`` the bit of its root element in the root
    oracle of ``Matroid.twin_map``, so twins are parallel by construction.
    ``rank[mask]`` is that oracle's rank of a bit mask, memoized.

    A search marks the nodes it discovers by writing its own number into
    ``seen``, so no per-search array is allocated or cleared; ``succ``
    holds each discovered node's next node on its way to a sink, and
    ``via`` the residual arc a vertex leaves by.  A ``min_cut`` that ends
    below its cap keeps the node list of its failed search for
    ``minimizer()``, and its flow for ``largest_minimizer()``.

    The reduction loop (``packing.ReductionState``) changes the network
    in place instead of building a new one per step.  ``remove_arc(j)``
    sets cap[2j] to 0, so a dead arc stays in ``adj`` but carries no unit.
    ``add_twin(x, i)`` appends an element with the bit of element x at
    vertex i: it is parallel to x, and the rank memo stays valid as it is,
    since a twin brings no new bit.  ``restore_arc`` and ``pop_element``
    undo the two.  ``live_arcs`` counts the arcs not removed.  The
    orientation greedy (``orientation._orient``) reverses arc j by
    swapping cap[2j] and cap[2j + 1].
    """

    def __init__(self, inst: RootedDigraph):
        self.vertices = inst.vertices
        self.pos = pos = {v: i for i, v in enumerate(inst.vertices)}
        self.adj = adj = [[] for _ in pos]
        for j, (_, t, h) in enumerate(inst.arcs):
            t, h = pos[t], pos[h]
            adj[t].append((2 * j, h))
            adj[h].append((2 * j + 1, t))
        self.cap = [1, 0] * len(inst.arcs)
        self.live_arcs = len(inst.arcs)
        root, twins = inst.matroid.twin_map()
        bit = {e: 1 << b for b, e in enumerate(root.ground)}
        self.home = [pos[v] for _, v in inst.roots]
        self.ebit = [bit[twins.get(e, e)] for e, _ in inst.roots]
        self.at = at = [[] for _ in pos]
        for x, i in enumerate(self.home):
            at[i].append(x)
        self.rank = _Ranks(root)
        nodes = len(pos) + len(self.home)
        self.seen = [0] * nodes
        self.succ = [0] * nodes
        self.via = [0] * len(pos)
        self._stamp = 0
        self._search = None

    def remove_arc(self, j: int) -> None:
        self.cap[2 * j] = 0
        self.live_arcs -= 1

    def restore_arc(self, j: int) -> None:
        self.cap[2 * j] = 1
        self.live_arcs += 1

    def add_twin(self, x: int, i: int) -> None:
        """Append a twin of element x at vertex index i."""
        self.at[i].append(len(self.home))
        self.home.append(i)
        self.ebit.append(self.ebit[x])
        self.seen.append(0)
        self.succ.append(0)

    def pop_element(self) -> None:
        """Remove the last element, as ``add_twin`` appended it."""
        self.ebit.pop()
        self.at[self.home.pop()].pop()
        self.seen.pop()
        self.succ.pop()

    def min_cut(self, sink: int, cap: int,
                supply: Optional[dict] = None,
                out: Container[int] = ()) -> int:
        """min(cap, min of cut(X) over X holding ``sink`` and missing
        ``out``), where

            cut(X) = in(X) + r(S_X) + supply(X).

        ``sink`` is a vertex index.  ``supply`` maps vertex indices to
        positive integers, 0 where a vertex is left out: a virtual source
        feeds vertex w up to supply[w] units.
        ``out`` holds the vertex indices kept out of X, each a source that
        never runs dry; the value and ``minimizer()`` are those of a
        supply of cap at each of them (see the module docstring), and a
        sink in ``out`` gives cap.  ``supply`` and ``out`` are not taken
        together.  Both are read as given, never copied or changed; the
        units a call uses are counted in a dict of its own.  At most
        ``cap`` augmentations, all in integers, each found by a search
        backwards from the sink.  ``cap`` is flipped along each path and
        restored, from the log of flips, before the call returns or
        raises.  When the value is below ``cap`` the last search has
        failed, and ``minimizer()`` gives the smallest minimizer (and
        ``largest_minimizer()`` the largest): a caller reads it before
        its next call.
        """
        adj, home, ebit, at, rank = (self.adj, self.home, self.ebit, self.at,
                                     self.rank)
        n = len(self.pos)
        self._search = None
        if supply and out:
            raise ValueError("min_cut takes a supply or out, not both")
        supply = supply or {}
        starts = supply or out  # a vertex kept out never runs dry
        fed = {}        # units of supply each vertex has started paths with
        dry = set()     # vertices whose supply is all used
        res, seen, succ, via = self.cap, self.seen, self.succ, self.via
        log = []        # residual arcs flipped, each undone in the finally
        inside = {}     # I, the supplying elements, in the order they joined
        mask = size = 0
        for x in at[sink]:
            if size < cap and rank[mask | ebit[x]] > size:
                inside[x] = None
                mask |= ebit[x]
                size += 1
        value = size
        # the sink's own supply: paths of no arcs as well
        s = cap if sink in out else supply.get(sink, 0)
        f = min(s, cap - value)
        if f > 0:
            value += f
            fed[sink] = f
            if f == s:
                dry.add(sink)
        try:
            while value < cap:
                self._stamp = stamp = self._stamp + 1
                start = None
                queue = [sink]  # the sink, marked -1 in succ, ends a path
                seen[sink], succ[sink] = stamp, -1
                for node in queue:  # grows while it is read: breadth first
                    if start is not None:
                        break
                    if node < n:
                        # residual arcs into the vertex, then the elements
                        # outside I that would start supplying it
                        for c, w in adj[node]:
                            if res[c ^ 1] and seen[w] != stamp:
                                seen[w], succ[w], via[w] = stamp, node, c ^ 1
                                if w in starts and w not in dry:
                                    start = w
                                    break
                                queue.append(w)
                        if start is None:
                            for y in at[node]:
                                if y not in inside and seen[n + y] != stamp:
                                    seen[n + y], succ[n + y] = stamp, node
                                    if rank[mask | ebit[y]] > size:
                                        start = n + y
                                        break
                                    queue.append(n + y)
                    elif node - n in inside:
                        w = home[node - n]   # x stops supplying its vertex
                        if seen[w] != stamp:
                            seen[w], succ[w] = stamp, node
                            if w in starts and w not in dry:
                                start = w
                            queue.append(w)
                    else:
                        b = ebit[node - n]   # x in I exchanged for y
                        for x in inside:
                            if (seen[n + x] != stamp
                                    and rank[mask ^ ebit[x] | b] == size):
                                seen[n + x], succ[n + x] = stamp, node
                                queue.append(n + x)
                if start is None:
                    # for minimizer(), and largest_minimizer() replays log
                    self._search = queue, log, inside, mask, starts, dry
                    return value
                if start < n and supply:  # only a supply runs dry
                    fed[start] = f = fed.get(start, 0) + 1
                    if f == supply[start]:
                        dry.add(start)
                node = start
                while True:
                    nxt = succ[node]
                    if node >= n:
                        x = node - n
                        if x in inside:
                            del inside[x]
                            size -= 1
                        else:
                            inside[x] = None
                            size += 1
                        mask ^= ebit[x]
                    elif nxt < 0:
                        break
                    elif nxt < n:
                        c = via[node]
                        res[c], res[c ^ 1] = 0, 1
                        log.append(c)
                    node = nxt
                # two supplying twins would cancel in the mask: the rank
                # falls short
                if rank[mask] != size:
                    raise FlowViolation(
                        "min_cut: the supplying elements are dependent after "
                        "augmentation %d (tripwire): engine flow, sink %s, "
                        "sources %s, arcs %d, roots %d"
                        % (value + 1, self.vertices[sink],
                           sorted(self.vertices[i] for i in range(n)
                                  if i in starts),
                           self.live_arcs, len(home)))
                value += 1
            return cap
        finally:
            _flip(res, log)

    def minimizer(self) -> frozenset:
        """Indices of the vertices the failed last search of ``min_cut``
        reached: the smallest minimizer of that cut, the intersection of
        all its minimizers.

        The search went back from every vertex that may still end a path,
        over the residual graph, until it had run out of nodes; what it
        reached is the sink side that every minimum cut must hold.
        """
        if self._search is None:
            raise ValueError("the last min_cut reached its cap")
        n = len(self.pos)
        return frozenset(i for i in self._search[0] if i < n)

    def largest_minimizer(self) -> frozenset:
        """Indices of the vertices that no start reaches in the residual
        graph of the failed last ``min_cut``: the largest minimizer, the
        union of all minimizers, since no residual arc or exchange leaves
        the nodes a start reaches.  The search replays the flow's flips
        on ``cap`` and undoes them before it returns.
        """
        if self._search is None:
            raise ValueError("the last min_cut reached its cap")
        _, log, inside, mask, starts, dry = self._search
        home, ebit, rank, res, seen = (self.home, self.ebit, self.rank,
                                       self.cap, self.seen)
        n, size, elements = len(self.pos), len(inside), range(len(home))
        queue = [i for i in range(n) if i in starts and i not in dry]
        queue += [n + y for y in elements
                  if y not in inside and rank[mask | ebit[y]] > size]
        self._stamp = stamp = self._stamp + 1
        _flip(res, log)
        try:
            for node in queue:  # grows while it is read: breadth first
                if seen[node] == stamp:
                    continue
                seen[node] = stamp
                if node < n:  # residual arcs out, then the elements of I
                    queue += [u for c, u in self.adj[node] if res[c]]
                    queue += [n + x for x in self.at[node] if x in inside]
                elif node - n in inside:  # x in I exchanged for y
                    b = mask ^ ebit[node - n]
                    queue += [n + y for y in elements if y not in inside
                              and rank[b | ebit[y]] == size]
                else:  # y starts supplying its vertex
                    queue.append(home[node - n])
        finally:
            _flip(res, log)
        return frozenset(i for i in range(n) if seen[i] != stamp)


def _flip(res: list, log: list) -> None:
    """Flip each residual arc in ``log`` and its reverse."""
    for c in log:
        res[c] ^= 1
        res[c ^ 1] ^= 1


class _Ranks(dict):
    """Bit mask of root elements -> rank, each read from the oracle once."""

    def __init__(self, root):
        super().__init__({0: 0})
        self.root = root

    def __missing__(self, mask: int) -> int:
        r = self[mask] = self.root.rank(
            [e for b, e in enumerate(self.root.ground) if mask >> b & 1])
        return r
