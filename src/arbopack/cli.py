"""Command-line surface.

Subcommands: check, pack, pack-undirected, orient, decompose, mincost,
pack-bounded, verify, gen.  Results are JSON on stdout; exit code 0 means
a positive answer, 2 a certified negative, 1 a usage/parse/size-limit
error, a file that cannot be read (an ``OSError``) or a tripped internal
check (a ``RuntimeError``: the solver reached a state its proof rules
out), each as an ``error`` document.  Diagnostic traces go to stderr
behind --trace / --lp-trace.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import connectivity, instances, orientation, packing, polytope
from .graphs import RootedDigraph, RootedGraph, SizeLimitError
from .instances import GenerationError, ParseError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2


def _result(status: str, payload, argv, engine=None) -> dict:
    doc = {"status": status, "payload": payload,
           "provenance": {"command": list(argv)}}
    if engine is not None:
        doc["provenance"]["engine"] = engine
    return doc


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load(path: str, cls):
    """(instance, extras) of the file; a ParseError unless it holds a ``cls``."""
    inst, extras = instances.parse_instance(_read(path))
    if not isinstance(inst, cls):
        raise ParseError("$", "this command needs %s instance"
                         % ("a directed" if cls.directed else "an undirected"))
    return inst, extras


def _answer(out, inst, argv, engine) -> int:
    """A certificate (exit 2), or an orientation or a packing of ``inst``."""
    if isinstance(out, connectivity.Certificate):
        _emit(_result("certificate", out.to_json(), argv, engine=engine))
        return EXIT_NEGATIVE
    if isinstance(out, orientation.Orientation):
        _emit(_result("orientation", out.to_json(), argv, engine=engine))
    else:
        _emit(_result("packing", out.to_json(inst.link + "s"), argv,
                      engine=engine))
    return EXIT_OK


def _read_trees(text: str, key: str) -> tuple:
    """Trees of a packing file: a result document or its bare payload.

    ``key`` names each tree's id list ("arcs" or "edges").  Anything
    malformed raises ParseError with the JSON path at fault.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", "invalid JSON: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise ParseError("$", "top level must be an object")
    payload = doc.get("payload", doc)
    if not isinstance(payload, dict):
        raise ParseError("payload", "must be an object")
    trees = payload.get("trees")
    if trees is None:
        raise ParseError("payload.trees", "no packing payload found")
    if not isinstance(trees, list):
        raise ParseError("payload.trees", "must be a list")
    out = []
    for i, t in enumerate(trees):
        path = "payload.trees[%d]" % i
        if not isinstance(t, dict):
            raise ParseError(path, "must be an object")
        for field in ("root_element", "root_vertex"):
            if not isinstance(t.get(field), str):
                raise ParseError("%s.%s" % (path, field), "must be a string")
        ids = t.get(key)
        if not isinstance(ids, list) or not all(isinstance(a, str) for a in ids):
            raise ParseError("%s.%s" % (path, key), "must be a list of ids")
        tree = packing.Tree(t["root_element"], t["root_vertex"], frozenset(ids))
        if len(tree.arcs) < len(ids):
            repeated = next(a for i, a in enumerate(ids) if a in ids[:i])
            raise ParseError("%s.%s" % (path, key), "repeats the id %r" % repeated)
        out.append(tree)
    return tuple(out)


class UsageError(ValueError):
    """A command line the parser rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises ``UsageError`` where argparse would print usage and exit 2,
    the certified-negative code; its subparsers are of this class too."""

    def error(self, message: str):
        raise UsageError("%s: %s" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="arbopack",
        allow_abbrev=False,
        description="matroid-constrained packings of arborescences and rooted trees")
    p.add_argument("--engine", choices=["flow", "brute", "min-norm-point"],
                   default="flow",
                   help="how the input's M-connectivity check is decided, "
                        "read by check on a directed file, pack, "
                        "pack-bounded and mincost and by nothing else, so no "
                        "answer depends on it; mincost checks its input only "
                        "where a vertex has too few entering arcs or its "
                        "greedy starting point is cut. flow (default): "
                        "augmenting paths; brute: subset enumeration, at "
                        "most 24 vertices; min-norm-point: exact "
                        "Fujishige-Wolfe")
    p.add_argument("--trace", action="store_true",
                   help="print reduction steps to stderr")
    p.add_argument("--lp-trace", action="store_true",
                   help="print cutting-plane iterates to stderr")
    sub = p.add_subparsers(dest="cmd", required=True)

    for name in ("check", "pack", "mincost"):
        sp = sub.add_parser(name)
        sp.add_argument("instance")
    for name in ("pack-undirected", "orient", "decompose"):
        sp = sub.add_parser(name)
        sp.add_argument("instance")
    sp = sub.add_parser("pack-bounded")
    sp.add_argument("instance")
    sp.add_argument("--bound", type=int, default=None,
                    help="override the instance file's bound")
    sp = sub.add_parser("verify")
    sp.add_argument("instance")
    sp.add_argument("packing", help="result file holding the packing payload")
    sp = sub.add_parser("gen")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--matroid", default="free")
    sp.add_argument("--feasible-bias", action="store_true")
    sp.add_argument("--undirected", action="store_true")
    sp.add_argument("--costs", action="store_true")
    return p


def _cost_json(cost: Fraction):
    return int(cost) if cost.denominator == 1 else str(cost)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parse_args leaves it unchanged."""
    return build_parser()


def run_command(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
        return _dispatch(args, argv, args.engine)
    except (ParseError, GenerationError, SizeLimitError, ValueError,
            RuntimeError, OSError) as exc:
        _emit(_result("error", {"kind": type(exc).__name__, "message": str(exc)},
                      argv))
        return EXIT_USAGE


def _dispatch(args, argv, engine) -> int:
    if args.cmd == "gen":
        sys.stdout.write(instances.generate_instance(
            args.seed, args.n, args.m, args.t, args.matroid,
            args.feasible_bias, directed=not args.undirected,
            costs=args.costs))
        return EXIT_OK

    if args.cmd == "check":
        inst, _ = instances.parse_instance(_read(args.instance))
        cert = connectivity.check_independent_placement(inst)
        if cert.ok and isinstance(inst, RootedDigraph):
            cert = connectivity.check_m_connected(inst, engine=engine)
        elif cert.ok:
            out = orientation.orient_m_connected(inst)
            if isinstance(out, connectivity.Certificate):
                cert = out
        if cert.ok:
            _emit(_result("ok", cert.to_json(), argv, engine=engine))
            return EXIT_OK
        _emit(_result("certificate", cert.to_json(), argv, engine=engine))
        return EXIT_NEGATIVE

    if args.cmd == "pack":
        inst, _ = _load(args.instance, RootedDigraph)
        trace: list = [] if args.trace else None
        try:
            out = packing.find_packing(inst, engine=engine, trace=trace)
        finally:  # the steps taken before a tripwire are a diagnostic too
            for step in trace or ():
                sys.stderr.write(json.dumps(step.to_json()) + "\n")
        return _answer(out, inst, argv, engine)

    if args.cmd == "pack-bounded":
        inst, extras = _load(args.instance, RootedDigraph)
        bound = args.bound if args.bound is not None else extras.get("bound")
        if bound is None:
            raise ParseError("bound", "no bound in the file and no --bound flag")
        try:
            out = packing.pack_with_bound(inst, bound, engine=engine)
        except packing.InfeasibleBound as exc:
            _emit(_result("error", {"kind": "infeasible-bound",
                                    "message": str(exc)}, argv, engine=engine))
            return EXIT_NEGATIVE
        return _answer(out, inst, argv, engine)

    if args.cmd == "mincost":
        inst, extras = _load(args.instance, RootedDigraph)
        costs = extras.get("costs")
        if costs is None:
            raise ParseError("costs", "mincost needs a 'costs' table")
        lp_trace: list = [] if args.lp_trace else None
        out = polytope.min_cost_packing(inst, costs, engine=engine,
                                        lp_trace=lp_trace)
        if args.lp_trace and lp_trace:
            for xs, obj, pivots in lp_trace:
                sys.stderr.write(json.dumps(
                    {"objective": str(obj), "pivots": pivots,
                     "x": {a: str(v) for a, v in sorted(xs.items())}}) + "\n")
        if isinstance(out, tuple):
            pk, cost = out
            payload = pk.to_json()
            payload["cost"] = _cost_json(cost)
            _emit(_result("packing", payload, argv, engine=engine))
            return EXIT_OK
        return _answer(out, inst, argv, engine)

    if args.cmd == "orient":
        g, _ = _load(args.instance, RootedGraph)
        return _answer(orientation.orient_m_connected(g), g, argv, engine)

    if args.cmd in ("pack-undirected", "decompose"):
        g, _ = _load(args.instance, RootedGraph)
        fn = (orientation.pack_undirected if args.cmd == "pack-undirected"
              else orientation.decompose_edges)
        try:
            out = fn(g)
        except orientation.IdentityViolation as exc:
            _emit(_result("error", {"kind": "identity-violation",
                                    "message": str(exc)}, argv, engine=engine))
            return EXIT_NEGATIVE
        return _answer(out, g, argv, engine)

    if args.cmd == "verify":
        inst, _ = instances.parse_instance(_read(args.instance))
        pk = packing.Packing(_read_trees(_read(args.packing), inst.link + "s"))
        failure = packing.verify_packing(inst, pk)
        if failure is None:
            _emit(_result("ok", {"kind": "ok"}, argv))
            return EXIT_OK
        _emit(_result("certificate",
                      {"kind": "invalid-packing", "reason": failure.reason,
                       "detail": failure.detail}, argv))
        return EXIT_NEGATIVE

    raise AssertionError("unhandled subcommand %r" % args.cmd)


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
