"""The packing polytope: membership, separation, and min-cost optimization.

Points are exact rational arc-indexed vectors.  The linear system is: box
constraints 0 <= x(a) <= 1, cut constraints x(entering X) >= k - rank(S_X)
for nonempty X, and the mass equality x(A) = k|V| - |S|.  Separation of
the cut family is submodular minimization of x(entering X) + rank(S_X) - k,
run in integers: the point is scaled once by the lcm D of its
denominators, and the objective minimized is D times the cut objective,
whose minimizers and sign are the same.  A 0/1 point (D = 1) is decided
on its support by flow (``flow_deficiency``).  A fractional point's
weighted arcs are not the unit arcs those flows take, so it is minimized
by min-norm-point on its support, exact in ints and with no size cap.
Either way the cut is the largest minimizer of the first run, by
smallest index, that reaches the minimum, re-checked against x; the
smallest one, the certificate of ``check_m_connected``, leads the loop
below to many more fractional optima (``BENCH_c018845.json``).  No
engine is chosen here: ``min_cost_packing``'s ``engine`` decides its
check of the instance alone.

Min-cost optimization is an exact cutting-plane loop.  It starts at the
optimum of the relaxation by boxes and the in-degree equalities
x(entering v) = d(v) = k - r(S_v) (the singleton cuts, tight on every
point of the polytope), which splits by head: ``solve_lp`` boxes every
arc itself and takes the d(v) cheapest arcs into each v with no simplex.
Then: separate the current optimum (a 0/1 one only where its split
fails, below), add the violated cut, solve again, repeat; the final
optimum is a vertex of the polytope and hence 0/1.
A 0/1 point is the incidence vector of a packing exactly when its
support D_x is M-connected, so each 0/1 optimum is split first: D_x is
handed to the reduction loop (``packing._construct``), and a packing it
returns, verified, proves D_x M-connected and ends the loop with no
flow check.  The split raises ``TheoremViolation`` where D_x is not
M-connected, and elsewhere only on a fault of the loop.  Only then is x
separated: a cut found there is added as below, and no cut, which
proves D_x M-connected, re-raises the split's error.  The instance D
is checked for M-connectivity only where the answer depends on it.
Adding arcs never lowers in(X), so an M-connected D_x inside D proves
D M-connected: when the greedy vertex splits, no check runs at all.  D
itself is checked where a vertex has fewer than d(v) entering arcs, or
where separation first cuts a point, before that cut is added; a D
that is not M-connected ends there with its certificate.
Every row handed to ``solve_lp`` is sparse, the ascending tuple of the
arcs it holds and its rhs, so the rows hold m + the cut supports' sizes
entries in all.  Each solve after a cut is a re-solve by dual-simplex
pivots from the previous optimal basis (``solve_lp``'s ``start``), the
first one from the greedy vertex's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import flow, sfm
from .connectivity import (
    Certificate,
    check_independent_placement,
    check_m_connected,
    deficiency_objective,
    flow_deficiency,
)
from .graphs import RootedDigraph
from .lp import OPTIMAL, solve_lp
from .packing import Packing, TheoremViolation, _construct


class IntegralityViolation(RuntimeError):
    """Tripwire: the cutting-plane optimum was fractional."""


@dataclass(frozen=True)
class RationalVector:
    entries: dict  # arc-id -> Fraction

    @classmethod
    def from_arcs(cls, inst: RootedDigraph, values: dict) -> "RationalVector":
        ids = {a for a, _, _ in inst.arcs}
        given = set(values)
        if given != ids:
            raise ValueError("vector keys differ from the instance arc ids")
        return cls({a: Fraction(values[a]) for a in ids})

    @classmethod
    def characteristic(cls, inst: RootedDigraph, arc_ids) -> "RationalVector":
        chosen = frozenset(arc_ids)
        return cls({a: Fraction(1 if a in chosen else 0)
                    for a, _, _ in inst.arcs})

    def total(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))


@dataclass(frozen=True)
class PolytopeConstraint:
    kind: str  # box-lower | box-upper | cut | mass-equality
    arc: Optional[str] = None
    vertex_set: Optional[frozenset] = None
    rhs: Optional[object] = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.arc is not None:
            out["arc"] = self.arc
        if self.vertex_set is not None:
            out["vertex_set"] = sorted(self.vertex_set)
        if self.rhs is not None:
            out["rhs"] = str(self.rhs)
        return out


def mass_rhs(inst: RootedDigraph) -> int:
    return inst.matroid.full_rank() * len(inst.vertices) - len(inst.roots)


def separate(inst: RootedDigraph,
             x: RationalVector) -> Optional[PolytopeConstraint]:
    """Most-violated constraint, or None when x lies in the polytope.

    Order: box constraints in canonical arc order, then the mass equality,
    then the minimizing cut.  Every test runs on x times the lcm of its
    denominators, in ints.  The cut objective is read on x's support,
    whose arcs are the only ones with weight: a 0/1 point's is the
    deficiency of its support, minimized by flow; a fractional point's is
    minimized by min-norm-point.  Both cut with the largest minimizer of
    the first run, by smallest index, that reaches the minimum.
    """
    scale = math.lcm(*(v.denominator for v in x.entries.values()))
    weights = {a: v.numerator * (scale // v.denominator)
               for a, v in x.entries.items()}
    for a, _, _ in inst.arcs:
        w = weights[a]
        if w < 0:
            return PolytopeConstraint("box-lower", arc=a, rhs=0)
        if w > scale:
            return PolytopeConstraint("box-upper", arc=a, rhs=1)
    if sum(weights.values()) != mass_rhs(inst) * scale:
        return PolytopeConstraint("mass-equality", rhs=mass_rhs(inst))

    k = inst.matroid.full_rank()
    support = RootedDigraph.with_links(
        inst, [arc for arc in inst.arcs if weights[arc[0]]])
    if scale == 1:
        res = flow_deficiency(flow.Network(support), k,
                              flow.Network.largest_minimizer)
    else:
        res = sfm.minimize(deficiency_objective(support, weights, scale),
                           engine="min-norm-point", largest=True)
    if res.value >= 0:
        return None
    xset = frozenset(inst.vertices[i] for i in res.minimizer)
    rhs = k - inst.matroid.rank(inst.elements_in(xset))
    if sum(weights[a] for a, t, h in inst.arcs
           if h in xset and t not in xset) >= rhs * scale:
        raise TheoremViolation("separate: the cut on %s is not violated "
                               "(tripwire): rhs %d, scale %d, arcs %d" % (
                                   sorted(xset), rhs, scale, len(inst.arcs)))
    return PolytopeConstraint("cut", vertex_set=xset, rhs=rhs)


def min_cost_packing(inst: RootedDigraph, costs: dict, engine: str = "flow",
                     lp_trace: Optional[list] = None
                     ) -> Union[tuple[Packing, Fraction], Certificate]:
    """Cutting-plane minimum-cost packing; exact throughout.

    The first relaxation has the boxes and the in-degree equalities
    x(entering v) = d(v) = k - r(S_v) alone, one sparse row (the arcs into
    v, d(v)) each; ``solve_lp`` boxes the arcs and takes the d(v) cheapest
    arcs into each v, ties broken by canonical arc order, with no simplex.
    Each relaxation after it adds one violated cut, the row (the arcs
    entering X, rhs), and is re-solved by the dual simplex from the last
    optimal basis, the greedy vertex's first.  ``lp_trace``, a list,
    receives (x, objective, pivots) for every relaxation solved, the first
    with 0 pivots, once the instance is known to be M-connected: a
    negative leaves it empty.  ``engine`` decides the M-connectivity check
    of the instance alone, which runs only where the answer depends on it
    (see the module docstring); the loop is the same under every engine.
    A 0/1 optimum is split into trees on its support before it is
    separated, and a split that succeeds ends the loop.
    """
    ids = [a for a, _, _ in inst.arcs]
    missing = set(ids) - set(costs)
    if missing:
        raise ValueError("missing costs for arcs %s" % sorted(missing))
    cert = check_independent_placement(inst)
    if not cert.ok:
        return cert

    def context() -> str:
        return "(tripwire): cuts %d, vertices %d, arcs %d" % (
            len(seen_cuts), len(inst.vertices), len(ids))

    k = inst.matroid.full_rank()
    entering: dict = {v: [] for v in inst.vertices}
    for j, (_, _, h) in enumerate(inst.arcs):
        entering[h].append(j)
    rows: list = []
    seen_cuts: set = set()
    for v, into in entering.items():  # x(entering v) = d(v)
        need = k - inst.matroid.rank(inst.elements_at(v))
        if len(into) < need:
            # {v} is a violated set, and the check names one
            cert = check_m_connected(inst, engine=engine)
            if not cert.ok:
                return cert
            raise TheoremViolation(
                "min_cost_packing: vertex %s has %d entering arcs, fewer "
                "than d(%s)=%d %s" % (v, len(into), v, need, context()))
        rows.append((tuple(into), need))
    c_vec = [Fraction(costs[a]) for a in ids]
    # these rows split by head: solve_lp takes the d(v) cheapest arcs
    # into each v with no simplex, and each cut is re-solved from there
    res = solve_lp(c_vec, rows)
    packed = None
    # a cut's rhs is a function of its vertex set, so at most 2^n - 1
    # distinct cuts exist and a repeated one trips the check below: the
    # loop ends within 2^n iterations
    while True:
        if res.status != OPTIMAL:
            # the first cut was added after the check of the instance
            # passed: the polytope is nonempty
            raise TheoremViolation(
                "min_cost_packing: the relaxation is %s on a feasible "
                "instance %s" % (res.status, context()))
        x = RationalVector(dict(zip(ids, res.x)))
        violated = None
        if all(v == 0 or v == 1 for v in res.x):
            # split first; separation tells a support that is not
            # M-connected from a fault of the split
            try:
                packed = _construct(RootedDigraph.with_links(
                    inst, [arc for arc, v in zip(inst.arcs, res.x) if v]))
            except TheoremViolation:
                violated = separate(inst, x)
                if violated is None:
                    raise
        else:
            violated = separate(inst, x)
        if violated is not None and not seen_cuts:
            # the first point cut, the greedy vertex: its support does
            # not prove the instance M-connected, so the instance is
            # checked before the cut is added
            cert = check_m_connected(inst, engine=engine)
            if not cert.ok:
                return cert
        if lp_trace is not None:
            lp_trace.append((dict(x.entries), res.objective, res.pivots))
        if violated is None:
            break
        if violated.kind != "cut":
            raise TheoremViolation(
                "min_cost_packing: the relaxation optimum violates the "
                "built-in %s constraint%s %s" % (
                    violated.kind,
                    "" if violated.arc is None else " of arc " + violated.arc,
                    context()))
        if violated.vertex_set in seen_cuts:
            raise RuntimeError(
                "min_cost_packing: separation returned the cut on %s again "
                "%s" % (sorted(violated.vertex_set), context()))
        seen_cuts.add(violated.vertex_set)
        xs = violated.vertex_set
        rows.append((tuple(j for j, (_, t, h) in enumerate(inst.arcs)
                           if h in xs and t not in xs), violated.rhs))
        res = solve_lp(c_vec, rows, start=res)

    if packed is None:  # separation found no cut at a fractional point
        fractional = sorted(a for a, v in x.entries.items() if v not in (0, 1))
        raise IntegralityViolation(
            "min_cost_packing: the cutting-plane optimum is fractional on "
            "arcs %s %s" % (", ".join("%s=%s" % (a, x.entries[a])
                                      for a in fractional), context()))
    scale = math.lcm(*(c.denominator for c in c_vec))
    scaled = {a: c.numerator * (scale // c.denominator)
              for a, c in zip(ids, c_vec)}
    cost = Fraction(sum(scaled[a] for a in packed.arc_set()), scale)
    # the packing is a point of the polytope, so it is optimal only if it
    # costs what the relaxation does
    if cost != res.objective:
        raise TheoremViolation(
            "min_cost_packing: the packing costs %s, the relaxation optimum "
            "%s %s" % (cost, res.objective, context()))
    return packed, cost
