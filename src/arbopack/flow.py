"""Unit augmenting paths for the integer deficiency checks.

Take a rooted digraph D = (V, A) with root elements S placed at its
vertices and a matroid M on S, a nonempty sink set T and a source set U
disjoint from it.  By Menger's theorem and Edmonds' matroid intersection
theorem (Edmonds 1970),

    min { in(X) + r(S_X) : T ⊆ X, X ∩ U = ∅ }

equals the largest number of arc-disjoint paths that end in T and start
either at a vertex of U or at the place of an element of an independent
set I, one path per element of I.  Elements placed in U play no part:
no set of the family holds them.

``Network.min_cut`` grows I and the paths one unit at a time.  It first
takes, greedily, the elements placed at sinks that keep I independent:
each is a path of no arcs.  After that each augmenting path is found by one
breadth-first search from a virtual source over
vertices and elements.  It starts at a vertex of U, or at an element y
outside I with I + y independent, and it moves

* along an unused arc, or back along a used one;
* from a vertex w to an element x of I placed at w (x stops supplying w);
* from x in I to an element y outside I with I - x + y independent;
* from an element y outside I to its vertex (y starts supplying it);

and it ends at the first sink taken off the queue.  Flipping the arcs and
toggling the elements along the path adds one unit.  The path is a
shortest one, so its element exchanges have no shortcut: for i < j,
I - x_i + y_j is dependent, and so is I + y_j for every y_j after the
first.  By the exchange lemma of matroid intersection (Schrijver 2003,
the matroid intersection chapter) I toggled along the path is then
independent again.  When no path exists, the vertices the search cannot
reach form the largest minimizer, whose value is the number of paths
found.

Integer per-vertex supplies and demands add supply(X) + demand(V - X) to
the cut of X: a vertex with supply left is one more start of the search,
and one with demand left ends a path as a sink does.  The orientation
greedy (``orientation._step_by_flow``) takes its modular offset this way,
so one flow decides each of its steps.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .graphs import RootedDigraph


class FlowViolation(RuntimeError):
    """Tripwire: the flow engine reached a state its proof rules out."""


class Network:
    """An instance as index lists, built once and then changed in place.

    ``adj[w]`` holds (c, u) for each residual arc from vertex w to vertex
    u: c = 2j for arc j itself and 2j + 1 for its reverse.  ``cap`` is
    the residual capacity every ``min_cut`` starts from, 1 on c = 2j and
    0 on 2j + 1.  Element x (node n + x of the search) is the x-th root:
    ``home[x]`` is its vertex and ``ebit[x]`` the bit of its root element
    in the root oracle of ``Matroid.twin_map``, so twins are parallel by
    construction.  ``rank[mask]`` is that oracle's rank of a bit mask,
    memoized.

    The reduction loop (``packing.ReductionState``) changes the network
    in place instead of building a new one per step.  ``remove_arc(j)``
    sets cap[2j] to 0, so a dead arc stays in ``adj`` but carries no unit.
    ``add_twin(x, i)`` appends an element with the bit of element x at
    vertex i: it is parallel to x, and the rank memo stays valid as it is,
    since a twin brings no new bit.  ``restore_arc`` and ``pop_element``
    undo the two.  ``live_arcs`` counts the arcs not removed.
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
        self._prev = None

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

    def pop_element(self) -> None:
        """Remove the last element, as ``add_twin`` appended it."""
        self.ebit.pop()
        self.at[self.home.pop()].pop()

    def min_cut(self, sinks: Iterable[str], sources: Iterable[str],
                cap: int, supply: Optional[list] = None,
                demand: Optional[list] = None) -> int:
        """min(cap, min of cut(X) over sinks ⊆ X, X ∩ sources = ∅), where

            cut(X) = in(X) + r(S_X) + supply(X) + demand(V - X).

        ``supply`` and ``demand`` list non-negative integers by vertex
        index, all 0 when left out: a virtual source feeds vertex w up to
        supply[w] units, and w passes up to demand[w] units on to a
        virtual sink that every X holds.  At most ``cap`` augmentations,
        all in integers.  When the value is below ``cap`` the last search
        has failed, and ``unreached()`` gives the largest minimizer.
        """
        verts = self.vertices
        n = len(verts)
        pos, adj, home, ebit, at, rank = (self.pos, self.adj, self.home,
                                          self.ebit, self.at, self.rank)
        self._prev = None
        # units a vertex may still end a path with; -1 for no limit
        sink = [0] * n if demand is None else list(demand)
        for v in sinks:
            sink[pos[v]] = -1
        starts = given = [pos[v] for v in sources]
        if -1 not in sink or any(sink[i] == -1 for i in starts):
            raise ValueError("the sinks must be nonempty and miss the sources")
        # units a vertex may still start a path with; -1 for no limit
        feed = None
        if supply is not None:
            feed = list(supply)
            for i in given:
                feed[i] = -1
        res = self.cap[:]   # residual capacity: arc 2j, reverse 2j+1
        supplying = [False] * len(home)
        mask = size = 0
        for i in range(n):
            if sink[i] == -1:
                for x in at[i]:
                    if size < cap and rank[mask | ebit[x]] > size:
                        supplying[x] = True
                        mask |= ebit[x]
                        size += 1
        value = size
        while value < cap:
            if feed is not None:
                starts = [i for i, f in enumerate(feed) if f]
            prev: list = [None] * (n + len(home))   # -1: the virtual source
            via = [0] * n                           # residual arc into a vertex
            queue = []
            for i in starts:
                prev[i] = -1
                queue.append(i)
            # an element y only leads to its vertex, so y is left out once that
            # vertex is reached; this also leaves out the elements at sources
            for y, b in enumerate(ebit):
                if (not supplying[y] and prev[home[y]] is None
                        and rank[mask | b] > size):
                    prev[n + y] = -1
                    queue.append(n + y)
            end = None
            for node in queue:  # grows while it is read: breadth-first order
                if node < n:
                    if sink[node]:
                        end = node
                        break
                    for c, w in adj[node]:
                        if res[c] and prev[w] is None:
                            prev[w], via[w] = node, c
                            queue.append(w)
                    for x in at[node]:
                        if supplying[x] and prev[n + x] is None:
                            prev[n + x] = node
                            queue.append(n + x)
                elif supplying[node - n]:
                    rest = mask ^ ebit[node - n]
                    for y, b in enumerate(ebit):
                        if (not supplying[y] and prev[n + y] is None
                                and prev[home[y]] is None
                                and rank[rest | b] == size):
                            prev[n + y] = node
                            queue.append(n + y)
                elif prev[home[node - n]] is None:
                    prev[home[node - n]] = node
                    queue.append(home[node - n])
            if end is None:
                self._prev = prev
                return value
            if sink[end] > 0:
                sink[end] -= 1
            node = end
            while True:
                p = prev[node]
                if node >= n:
                    x = node - n
                    supplying[x] = not supplying[x]
                    mask ^= ebit[x]
                    size += 1 if supplying[x] else -1
                elif 0 <= p < n:
                    c = via[node]
                    res[c] = 0
                    res[c ^ 1] = 1
                if p == -1:
                    break
                node = p
            if feed is not None and node < n and feed[node] > 0:
                feed[node] -= 1
            # two supplying twins would cancel in the mask: the rank falls short
            if rank[mask] != size:
                raise FlowViolation(
                    "min_cut: the supplying elements are dependent after "
                    "augmentation %d (tripwire): engine flow, sinks %s, sources "
                    "%s, arcs %d, roots %d"
                    % (value + 1,
                       sorted(verts[i] for i in range(n) if sink[i] == -1),
                       sorted(verts[i] for i in given), self.live_arcs,
                       len(home)))
            value += 1
        return cap

    def unreached(self) -> frozenset:
        """Indices of the vertices the failed last search of ``min_cut``
        did not reach: the largest minimizer of that cut."""
        prev = self._prev
        if prev is None:
            raise ValueError("the last min_cut reached its cap")
        return frozenset(i for i in range(len(self.pos)) if prev[i] is None)


class _Ranks(dict):
    """Bit mask of root elements -> rank, each read from the oracle once."""

    def __init__(self, root):
        super().__init__({0: 0})
        self.root = root

    def __missing__(self, mask: int) -> int:
        r = self[mask] = self.root.rank(
            [e for b, e in enumerate(self.root.ground) if mask >> b & 1])
        return r
