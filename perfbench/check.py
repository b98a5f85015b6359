"""Answer checker and set-up pre-check.

Every answer the CLI gives is re-verified with the library's own
verifiers, independently of how it was found:

* a packing with ``verify_packing`` (directed) or
  ``orientation.verify_tree_packing`` (undirected);
* a certificate with ``connectivity.recheck_certificate``;
* the exit code (0 or 2) against the verdict planted in the instance;
* a ``mincost`` optimum against the arcs it reports, the planted packing's
  cost (an upper bound) and, for seeds recorded in ``mincost_optima.json``,
  the recorded optimum.

The arbopack modules are imported inside the functions on purpose: set-up
re-imports the package for timing, and the checks must use the classes of
the copy that is current.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Optional

from build import Case

OPTIMA_FILE = Path(__file__).resolve().parent / "mincost_optima.json"


def load_optima(seed: int, cases) -> dict:
    """Recorded mincost optima for the seed, keyed by case name ({} if none).

    Raises ValueError when the recorded names do not match the positive
    mincost cases, so that a change of workload cannot leave them unused.
    """
    positives = {c.name for c in cases if c.expect == 0 and c.spec.costs}
    if not positives:
        return {}
    recorded = json.loads(OPTIMA_FILE.read_text()).get(str(seed), {})
    if recorded and set(recorded) != positives:
        raise ValueError("%s does not match the mincost cases of seed %d"
                         % (OPTIMA_FILE.name, seed))
    return {name: Fraction(str(v)) for name, v in recorded.items()}


def parse_case(case: Case):
    """The checker's own copy of the instance and its costs."""
    from arbopack import instances

    inst, extras = instances.parse_instance(case.text)
    return inst, extras.get("costs")


def precheck(case: Case, path: Path) -> None:
    """Parse the written file and confirm its planted witness; raise if not."""
    from arbopack import connectivity, instances, packing

    inst, _ = instances.parse_instance(path.read_text())
    if case.trees is not None:
        trees = tuple(packing.Tree(e, v, frozenset(ids))
                      for e, (v, ids) in sorted(case.trees.items()))
        failure = _verify(inst, case.spec.directed, trees)
        if failure is not None:
            raise RuntimeError("%s: planted packing rejected: %r"
                               % (case.name, failure))
        return
    kind, where = case.violated
    if kind == "set":
        cert = connectivity.Certificate(connectivity.VIOLATED_SET,
                                        vertex_set=frozenset(where))
    else:
        cert = connectivity.Certificate(
            connectivity.VIOLATED_PARTITION,
            partition=tuple(frozenset(b) for b in where))
    if not connectivity.recheck_certificate(inst, cert):
        raise RuntimeError("%s: planted violation does not hold" % case.name)


def _verify(inst, directed: bool, trees: tuple):
    """The library's verifier verdict on trees: None, or the first failure."""
    from arbopack import orientation, packing

    if directed:
        return packing.verify_packing(inst, packing.Packing(trees))
    return orientation.verify_tree_packing(inst, orientation.TreePacking(trees))


def _certificate(payload: dict):
    from arbopack import connectivity

    vset = payload.get("vertex_set")
    part = payload.get("partition")
    return connectivity.Certificate(
        payload["kind"],
        vertex=payload.get("vertex"),
        vertex_set=None if vset is None else frozenset(vset),
        partition=None if part is None else tuple(frozenset(b) for b in part),
        deficiency=payload.get("deficiency"))


def check_answer(case: Case, inst, costs: Optional[dict], code, doc,
                 optimum: Optional[Fraction] = None) -> Optional[str]:
    """None when the answer is right, else why it is not."""
    from arbopack import connectivity, packing

    if code is None:
        return "exception: %s" % doc
    if code != case.expect:
        detail = doc.get("payload") if isinstance(doc, dict) else doc
        return "exit code %s, expected %d: %s" % (code, case.expect, detail)
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        return "no payload in the answer: %r" % (doc,)
    if code == 2:
        try:
            cert = _certificate(payload)
            ok = cert.kind != connectivity.OK and \
                connectivity.recheck_certificate(inst, cert)
        except (KeyError, TypeError, ValueError) as exc:
            return "malformed certificate: %r" % (exc,)
        return None if ok else "certificate does not recheck: %s" % payload
    if doc.get("status") != "packing":
        return "status %r, expected a packing" % doc.get("status")
    try:
        key = "arcs" if case.spec.directed else "edges"
        trees = tuple(packing.Tree(t["root_element"], t["root_vertex"],
                                   frozenset(t[key]))
                      for t in payload["trees"])
        failure = _verify(inst, case.spec.directed, trees)
    except (KeyError, TypeError, ValueError) as exc:
        return "malformed packing: %r" % (exc,)
    if failure is not None:
        return "packing rejected: %s %s" % (failure.reason, failure.detail)
    if costs is None:
        return None
    try:
        cost = Fraction(str(payload["cost"]))
    except (KeyError, ValueError):
        return "no cost in a mincost answer: %s" % payload.get("cost")
    used = sum((costs[a] for t in trees for a in t.arcs), Fraction(0))
    if cost != used:
        return "reported cost %s but the packing costs %s" % (cost, used)
    if cost > case.planted_cost:
        return "cost %s exceeds the planted packing's %s" % (cost, case.planted_cost)
    if optimum is not None and cost != optimum:
        return "cost %s differs from the recorded optimum %s" % (cost, optimum)
    return None
