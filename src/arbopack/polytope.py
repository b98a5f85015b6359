"""The packing polytope: membership, separation, and min-cost optimization.

Points are exact rational arc-indexed vectors.  The linear system is: box
constraints 0 <= x(a) <= 1, cut constraints x(entering X) >= k - rank(S_X)
for nonempty X, and the mass equality x(A) = k|V| - |S|.  Separation of
the cut family is submodular minimization of x(entering X) + rank(S_X) - k,
by brute force under the ``flow`` engine, whose flows take unit arcs and
integer per-vertex supplies and demands only; it is the one brute
minimization left on that engine's paths.  The feasibility check and the
final construction on the 0/1 support do run on the flow.

Min-cost optimization is an exact cutting-plane loop: solve the current
relaxation, separate the optimum, add the violated constraint, repeat; the
final optimum is a vertex of the polytope and hence 0/1.
"""

from __future__ import annotations

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


def separate(inst: RootedDigraph, x: RationalVector,
             engine: str = "flow") -> Optional[PolytopeConstraint]:
    """Most-violated constraint, or None when x lies in the polytope.

    Order: box constraints in canonical arc order, then the mass equality,
    then the minimizing cut.
    """
    for a, _, _ in inst.arcs:
        v = x.entries[a]
        if v < 0:
            return PolytopeConstraint("box-lower", arc=a, rhs=0)
        if v > 1:
            return PolytopeConstraint("box-upper", arc=a, rhs=1)
    if x.total() != mass_rhs(inst):
        return PolytopeConstraint("mass-equality", rhs=mass_rhs(inst))

    verts = inst.vertices
    res = sfm.minimize(deficiency_objective(inst, x.entries), engine=engine)
    if res.value < 0:
        xset = frozenset(verts[i] for i in res.minimizer)
        rhs = inst.matroid.full_rank() - inst.matroid.rank(inst.elements_in(xset))
        return PolytopeConstraint("cut", vertex_set=xset, rhs=rhs)
    return None


def _solve_relaxation(inst: RootedDigraph, costs: dict,
                      cuts: list[PolytopeConstraint]):
    ids = [a for a, _, _ in inst.arcs]
    pos = {a: j for j, a in enumerate(ids)}
    n = len(ids)
    rows: list = []
    for a in ids:  # boxes: x <= 1 (x >= 0 is implicit)
        row = [0] * n
        row[pos[a]] = 1
        rows.append((row, "<=", 1))
    rows.append(([1] * n, "=", mass_rhs(inst)))
    for c in cuts:
        row = [0] * n
        for a, t, h in inst.arcs:
            if h in c.vertex_set and t not in c.vertex_set:
                row[pos[a]] = 1
        rows.append((row, ">=", c.rhs))
    c_vec = [Fraction(costs[a]) for a in ids]
    return ids, solve_lp(c_vec, rows)


def min_cost_packing(inst: RootedDigraph, costs: dict, engine: str = "flow",
                     lp_trace: Optional[list] = None
                     ) -> Union[tuple[Packing, Fraction], Certificate]:
    """Cutting-plane minimum-cost packing; exact throughout."""
    cert = check_independent_placement(inst)
    if not cert.ok:
        return cert
    cert = check_m_connected(inst, engine=engine)
    if not cert.ok:
        return cert

    missing = {a for a, _, _ in inst.arcs} - set(costs)
    if missing:
        raise ValueError("missing costs for arcs %r" % sorted(missing))

    cuts: list[PolytopeConstraint] = []
    seen_cuts: set = set()
    cap = 4 ** len(inst.vertices) + len(inst.vertices) + 4
    while True:
        if len(cuts) > cap:
            raise RuntimeError("cutting-plane loop exceeded the constraint cap")
        ids, res = _solve_relaxation(inst, costs, cuts)
        if res.status != OPTIMAL:
            # feasibility was pre-checked; the polytope is nonempty
            raise TheoremViolation(
                "relaxation reported %s on a feasible instance (tripwire)"
                % res.status)
        x = RationalVector(dict(zip(ids, res.x)))
        if lp_trace is not None:
            lp_trace.append((dict(x.entries), res.objective))
        violated = separate(inst, x, engine=engine)
        if violated is None:
            break
        if violated.kind != "cut":
            raise TheoremViolation(
                "relaxation optimum violates a built-in constraint (tripwire)")
        key = (violated.vertex_set, violated.rhs)
        if key in seen_cuts:
            raise RuntimeError("separation returned a duplicate cut (tripwire)")
        seen_cuts.add(key)
        cuts.append(violated)

    if any(v not in (0, 1) for v in x.entries.values()):
        raise IntegralityViolation(
            "cutting-plane optimum is fractional: %r" % (x.entries,))
    chosen = [a for a in ids if x.entries[a] == 1]
    support = RootedDigraph(
        inst.vertices,
        [arc for arc in inst.arcs if arc[0] in set(chosen)],
        inst.roots, inst.matroid)
    # the placement was checked on entry, and the last separation found no
    # cut violated by this 0/1 point: the support is M-connected
    packed = _construct(support, engine)
    cost = sum(Fraction(costs[a]) for a in packed.arc_set())
    return packed, cost
