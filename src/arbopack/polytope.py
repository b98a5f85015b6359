"""The packing polytope: membership, separation, and min-cost optimization.

Points are exact rational arc-indexed vectors.  The linear system is: box
constraints 0 <= x(a) <= 1, cut constraints x(entering X) >= k - rank(S_X)
for nonempty X, and the mass equality x(A) = k|V| - |S|.  Separation of
the cut family is submodular minimization of x(entering X) + rank(S_X) - k,
run in integers: the point is scaled once by the lcm D of its
denominators, and the objective minimized is D times the cut objective,
whose minimizers and sign are the same.  A 0/1 point (D = 1) is decided
by ``check_m_connected`` on its support, one flow per smallest index.  A
fractional point's weighted arcs are not the unit arcs those flows take,
so it is minimized by min-norm-point, exact in ints and with no size
cap.  Either way the violated cut is the lex-smallest minimizer.  No
engine is chosen here: ``min_cost_packing``'s ``engine`` decides its
pre-check alone.

Min-cost optimization is an exact cutting-plane loop.  It starts at the
optimum of the relaxation by boxes and the in-degree equalities
x(entering v) = d(v) = k - r(S_v) (the singleton cuts, tight on every
point of the polytope), which splits by head: ``solve_lp`` boxes every
arc itself and takes the d(v) cheapest arcs into each v with no simplex.
Then: separate the current optimum, add the violated cut, solve again,
repeat; the final optimum is a vertex of the polytope and hence 0/1.
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

from . import sfm
from .connectivity import (
    Certificate,
    check_independent_placement,
    check_m_connected,
    deficiency_objective,
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
    denominators, in ints.  A 0/1 point's cut objective is the deficiency
    of its support, decided by ``check_m_connected`` by flow; a fractional
    point's is minimized by min-norm-point.
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

    if scale == 1:
        cert = check_m_connected(RootedDigraph(
            inst.vertices, [arc for arc in inst.arcs if weights[arc[0]]],
            inst.roots, inst.matroid))
        if cert.ok:
            return None
        xset = cert.vertex_set
    else:
        res = sfm.minimize(deficiency_objective(inst, weights, scale),
                           engine="min-norm-point")
        if res.value >= 0:
            return None
        xset = frozenset(inst.vertices[i] for i in res.minimizer)
    rhs = inst.matroid.full_rank() - inst.matroid.rank(inst.elements_in(xset))
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
    with 0 pivots.  ``engine`` decides the M-connectivity pre-check alone;
    the loop is the same under every engine.
    """
    ids = [a for a, _, _ in inst.arcs]
    missing = set(ids) - set(costs)
    if missing:
        raise ValueError("missing costs for arcs %s" % sorted(missing))
    cert = check_independent_placement(inst)
    if not cert.ok:
        return cert
    cert = check_m_connected(inst, engine=engine)
    if not cert.ok:
        return cert

    def context() -> str:
        return "(tripwire): cuts %d, vertices %d, arcs %d" % (
            len(seen_cuts), len(inst.vertices), len(ids))

    k = inst.matroid.full_rank()
    c_vec = [Fraction(costs[a]) for a in ids]
    entering: dict = {v: [] for v in inst.vertices}
    for j, (_, _, h) in enumerate(inst.arcs):
        entering[h].append(j)
    rows: list = []
    seen_cuts: set = set()
    for v, into in entering.items():  # x(entering v) = d(v)
        need = k - inst.matroid.rank(inst.elements_at(v))
        if len(into) < need:
            # M-connectivity was pre-checked, and {v} is one of its sets
            raise TheoremViolation(
                "min_cost_packing: vertex %s has %d entering arcs, fewer "
                "than d(%s)=%d %s" % (v, len(into), v, need, context()))
        rows.append((tuple(into), need))
    # these rows split by head: solve_lp takes the d(v) cheapest arcs
    # into each v with no simplex, and each cut is re-solved from there
    res = solve_lp(c_vec, rows)
    # a cut's rhs is a function of its vertex set, so at most 2^n - 1
    # distinct cuts exist and a repeated one trips the check below: the
    # loop ends within 2^n iterations
    while True:
        if res.status != OPTIMAL:
            # feasibility was pre-checked; the polytope is nonempty
            raise TheoremViolation(
                "min_cost_packing: the relaxation is %s on a feasible "
                "instance %s" % (res.status, context()))
        x = RationalVector(dict(zip(ids, res.x)))
        if lp_trace is not None:
            lp_trace.append((dict(x.entries), res.objective, res.pivots))
        violated = separate(inst, x)
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

    fractional = sorted(a for a, v in x.entries.items() if v not in (0, 1))
    if fractional:
        raise IntegralityViolation(
            "min_cost_packing: the cutting-plane optimum is fractional on "
            "arcs %s %s" % (", ".join("%s=%s" % (a, x.entries[a])
                                      for a in fractional), context()))
    chosen = {a for a in ids if x.entries[a] == 1}
    support = RootedDigraph(
        inst.vertices, [arc for arc in inst.arcs if arc[0] in chosen],
        inst.roots, inst.matroid)
    # the placement was checked on entry, and the last separation found no
    # cut violated by this 0/1 point: the support is M-connected
    packed = _construct(support)
    cost = sum(Fraction(costs[a]) for a in packed.arc_set())
    # the packing is a point of the polytope, so it is optimal only if it
    # costs what the relaxation does
    if cost != res.objective:
        raise TheoremViolation(
            "min_cost_packing: the packing costs %s, the relaxation optimum "
            "%s %s" % (cost, res.objective, context()))
    return packed, cost
