"""Instance file parsing, emission, and seeded random generation.

Instance files are JSON with canonical key ordering on emit so generated
corpora are byte-stable.  Directed vs undirected is inferred from the
presence of "arcs" vs "edges" (exactly one).  The generator uses CPython's
``random.Random`` (Mersenne Twister), seeded explicitly, so corpora are
reproducible across runs and platforms.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from random import Random
from typing import Optional, Union

from .graphs import RootedDigraph, RootedGraph
from .matroid import (
    ExplicitMatroid,
    FreeMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
)

FORMAT_VERSION = 1

INSTANCE_KEYS = {"version", "vertices", "arcs", "edges", "roots", "matroid",
                 "costs", "bound"}

# a cost string, as in docs/instance-schema.json; [0-9] is ASCII only
_COST_PATTERN = re.compile(r"-?[0-9]+(/[0-9]+)?")


class ParseError(ValueError):
    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__("%s: %s" % (path, reason))


def _require(cond, path, reason):
    if not cond:
        raise ParseError(path, reason)


def _is_int(value) -> bool:
    """A JSON integer: Python's bool is an int, JSON's true is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _cost(value) -> Optional[Fraction]:
    """A JSON integer or a 'p/q' string with q > 0 as a Fraction; None for
    any other value."""
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, str) and _COST_PATTERN.fullmatch(value):
        p, _, q = value.partition("/")
        if int(q or 1):
            return Fraction(int(p), int(q or 1))
    return None


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _require_strings(item, keys, path):
    """A ParseError at the first item[key] that is not a string.

    Callers test the common case, all strings, inline, which costs what
    the bare reads cost, and call this only to name the culprit."""
    for key in keys:
        _require(isinstance(item[key], str),
                 "%s[%d]" % (path, key) if isinstance(key, int)
                 else "%s.%s" % (path, key), "must be a string")


def build_matroid(fragment: dict, elements: list[str], path: str = "matroid") -> Matroid:
    _require(isinstance(fragment, dict), path, "must be an object")
    kind = fragment.get("type")
    known = {
        "free": {"type"},
        "uniform": {"type", "rank"},
        "partition": {"type", "blocks"},
        "graphic": {"type", "edges"},
        "linear": {"type", "prime", "columns"},
        "explicit": {"type", "bases"},
    }
    _require(isinstance(kind, str) and kind in known, path + ".type",
             "unknown matroid type %r" % kind)
    extra = set(fragment) - known[kind]
    _require(not extra, path, "unknown fields %r" % sorted(extra))
    if kind == "free":
        return FreeMatroid(elements)
    if kind == "uniform":
        r = fragment.get("rank")
        _require(_is_int(r) and r >= 0, path + ".rank",
                 "must be a non-negative integer")
        return UniformMatroid(elements, r)
    if kind == "partition":
        blocks = fragment.get("blocks")
        _require(isinstance(blocks, list), path + ".blocks", "must be a list")
        parsed = []
        covered: list[str] = []
        for i, blk in enumerate(blocks):
            bp = "%s.blocks[%d]" % (path, i)
            _require(isinstance(blk, dict) and set(blk) == {"elements", "cap"},
                     bp, "must be {elements, cap}")
            _require(_is_int(blk["cap"]) and blk["cap"] >= 0,
                     bp + ".cap", "must be a non-negative integer")
            _require(_is_strings(blk["elements"]), bp + ".elements",
                     "must be a list of strings")
            parsed.append((blk["elements"], blk["cap"]))
            covered.extend(blk["elements"])
        _require(sorted(covered) == sorted(elements), path + ".blocks",
                 "blocks must partition the root element set")
        return PartitionMatroid(parsed)
    if kind == "graphic":
        edges = fragment.get("edges")
        _require(isinstance(edges, list) and len(edges) == len(elements),
                 path + ".edges", "need one reference edge per root element")
        for i, e in enumerate(edges):
            _require(isinstance(e, list) and len(e) == 2
                     and all(isinstance(w, str) or _is_int(w) for w in e),
                     "%s.edges[%d]" % (path, i), "must be a pair of vertex names")
        return GraphicMatroid(
            [(elements[i], str(e[0]), str(e[1])) for i, e in enumerate(edges)])
    if kind == "linear":
        p = fragment.get("prime")
        cols = fragment.get("columns")
        _require(_is_int(p) and p >= 2, path + ".prime", "must be >= 2")
        _require(isinstance(cols, dict) and sorted(cols) == sorted(elements),
                 path + ".columns", "need one column per root element")
        for e, col in cols.items():
            _require(isinstance(col, list) and all(_is_int(x) for x in col),
                     "%s.columns.%s" % (path, e), "must be a list of integers")
        return LinearMatroid(p, cols)
    bases = fragment.get("bases")
    _require(isinstance(bases, list) and bases, path + ".bases",
             "need a nonempty list of bases")
    for i, b in enumerate(bases):
        _require(_is_strings(b), "%s.bases[%d]" % (path, i),
                 "must be a list of strings")
    return ExplicitMatroid(elements, bases)


def matroid_to_json(m: Matroid) -> dict:
    if isinstance(m, FreeMatroid):
        return {"type": "free"}
    if isinstance(m, UniformMatroid):
        return {"type": "uniform", "rank": m.r}
    if isinstance(m, PartitionMatroid):
        return {"type": "partition",
                "blocks": [{"elements": sorted(blk), "cap": cap}
                           for blk, cap in m.blocks]}
    if isinstance(m, GraphicMatroid):
        return {"type": "graphic",
                "edges": [list(m.edges[e]) for e in m.ground]}
    if isinstance(m, LinearMatroid):
        return {"type": "linear", "prime": m.prime,
                "columns": {e: list(c) for e, c in m.columns.items()}}
    if isinstance(m, ExplicitMatroid):
        return {"type": "explicit", "bases": [sorted(b) for b in m.bases]}
    raise ValueError("derived matroids have no file representation")


def parse_instance(text: Union[str, bytes]) -> tuple[object, dict]:
    """Returns (instance, extras) where extras holds costs/bound if present."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", "invalid JSON: %s" % exc) from exc
    _require(isinstance(doc, dict), "$", "top level must be an object")
    unknown = set(doc) - INSTANCE_KEYS
    _require(not unknown, "$", "unknown fields %r" % sorted(unknown))
    version = doc.get("version")
    _require(_is_int(version) and version == FORMAT_VERSION, "version",
             "unsupported version %r" % version)
    verts = doc.get("vertices")
    _require(_is_strings(verts), "vertices", "must be a list of strings")
    _require(verts, "vertices", "must not be empty")
    has_arcs = "arcs" in doc
    has_edges = "edges" in doc
    _require(has_arcs != has_edges, "$",
             "exactly one of 'arcs'/'edges' must be present")
    roots = doc.get("roots")
    _require(isinstance(roots, list), "roots", "must be a list")
    root_pairs = []
    for i, r in enumerate(roots):
        _require(isinstance(r, dict) and set(r) == {"element", "vertex"},
                 "roots[%d]" % i, "must be {element, vertex}")
        e, v = r["element"], r["vertex"]
        if not type(e) is type(v) is str:
            _require_strings(r, ("element", "vertex"), "roots[%d]" % i)
        root_pairs.append((e, v))
    elements = [e for e, _ in root_pairs]
    _require(len(set(elements)) == len(elements), "roots",
             "duplicate root element ids")
    matroid = build_matroid(doc.get("matroid", {}), elements)

    def links(key):
        items = doc[key]
        _require(isinstance(items, list), key, "must be a list")
        out = []
        for i, it in enumerate(items):
            p = "%s[%d]" % (key, i)
            if key == "arcs":
                _require(isinstance(it, dict) and set(it) == {"id", "tail", "head"},
                         p, "must be {id, tail, head}")
                a, t, h = it["id"], it["tail"], it["head"]
                if not type(a) is type(t) is type(h) is str:
                    _require_strings(it, ("id", "tail", "head"), p)
                out.append((a, t, h))
            else:
                _require(isinstance(it, dict) and set(it) == {"id", "ends"}
                         and isinstance(it["ends"], list) and len(it["ends"]) == 2,
                         p, "must be {id, ends:[u,v]}")
                a, (u, w) = it["id"], it["ends"]
                if not type(a) is type(u) is type(w) is str:
                    _require_strings(it, ("id",), p)
                    _require_strings(it["ends"], (0, 1), p + ".ends")
                out.append((a, u, w))
        return out

    cls = RootedDigraph if has_arcs else RootedGraph
    parsed = links(cls.link + "s")
    try:
        inst = cls(verts, parsed, root_pairs, matroid)
    except ValueError as exc:
        raise ParseError("$", str(exc)) from exc

    extras: dict = {}
    if "costs" in doc:
        costs = doc["costs"]
        _require(isinstance(costs, dict), "costs", "must be an object")
        _require(set(costs) <= set(inst.link_map), "costs",
                 "cost on unknown arc id")
        extras["costs"] = {}
        for a, v in costs.items():
            cost = _cost(v)
            _require(cost is not None, "costs." + a,
                     "must be an integer or a 'p/q' string")
            extras["costs"][a] = cost
    if "bound" in doc:
        _require(_is_int(doc["bound"]) and doc["bound"] >= 0,
                 "bound", "must be a non-negative integer")
        extras["bound"] = doc["bound"]
    return inst, extras


def emit_instance(inst, costs: dict | None = None, bound: int | None = None) -> str:
    doc: dict = {
        "version": FORMAT_VERSION,
        "vertices": list(inst.vertices),
        "roots": [{"element": e, "vertex": v} for e, v in inst.roots],
        "matroid": matroid_to_json(inst.matroid),
    }
    if isinstance(inst, RootedDigraph):
        doc["arcs"] = [{"id": a, "tail": t, "head": h} for a, t, h in inst.arcs]
    else:
        doc["edges"] = [{"id": e, "ends": [u, v]} for e, u, v in inst.edges]
    if costs:
        doc["costs"] = {a: (int(c) if Fraction(c).denominator == 1 else str(c))
                        for a, c in sorted(costs.items())}
    if bound is not None:
        doc["bound"] = bound
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# -- generation ------------------------------------------------------------------


class GenerationError(ValueError):
    pass


def generate_instance(seed: int, n: int, m: int, t: int,
                      matroid_kind: str = "free", feasible_bias: bool = False,
                      directed: bool = True, costs: bool = False) -> str:
    """Deterministic random instance as canonical JSON text.

    With feasible_bias and a free matroid the instance is built around a
    random packing (t random spanning arborescences on fresh arcs) plus
    noise arcs, so feasibility holds by construction; other matroid kinds
    fall back to seeded rejection sampling against the connectivity check.
    """
    if n < 1 or t < 0 or m < 0:
        raise GenerationError("need n >= 1, m >= 0, t >= 0")
    if n > 10 or m > 40 or t > 6:
        raise GenerationError("generator capped at n<=10, m<=40, t<=6")
    rng = Random(seed)
    if feasible_bias:
        if matroid_kind != "free":
            return _generate_by_rejection(rng, n, m, t, matroid_kind,
                                          directed, costs)
        need = t * (n - 1)
        if m < need:
            raise GenerationError(
                "feasible free instance needs at least t*(n-1)=%d arcs" % need)
    return _generate_raw(rng, n, m, t, matroid_kind, directed, costs,
                         feasible_bias)


def _matroid_fragment(rng: Random, kind: str, t: int) -> dict:
    if kind == "free":
        return {"type": "free"}
    if kind == "uniform":
        return {"type": "uniform", "rank": rng.randint(0, t)}
    digits = kind[len("uniform"):]
    if kind.startswith("uniform") and digits.isascii() and digits.isdigit():
        return {"type": "uniform", "rank": int(digits)}
    raise GenerationError("generator supports matroid kinds free/uniform[R]")


def _generate_raw(rng, n, m, t, matroid_kind, directed, costs, feasible) -> str:
    verts = ["v%d" % i for i in range(n)]
    links: list[dict] = []

    def link(u: str, w: str) -> None:
        if directed:
            links.append({"id": "a%d" % len(links), "tail": u, "head": w})
        else:
            links.append({"id": "e%d" % len(links), "ends": [u, w]})

    if feasible and matroid_kind == "free":
        # t random spanning arborescences (trees) on fresh arcs, then noise
        placements = []
        for _ in range(t):
            order = verts[:]
            rng.shuffle(order)
            placements.append(order[0])
            for j in range(1, n):
                link(order[rng.randrange(j)], order[j])
        while len(links) < m:
            link(*rng.sample(verts, 2))
        roots = [{"element": "s%d" % i, "vertex": placements[i]}
                 for i in range(t)]
    else:
        for _ in range(m):
            link(*rng.sample(verts, 2))
        roots = [{"element": "s%d" % i, "vertex": rng.choice(verts)}
                 for i in range(t)]
    doc = {
        "version": FORMAT_VERSION,
        "vertices": verts,
        ("arcs" if directed else "edges"): links,
        "roots": roots,
        "matroid": _matroid_fragment(rng, matroid_kind, t),
    }
    if costs:
        doc["costs"] = {lk["id"]: rng.randint(1, 100) for lk in links}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _generate_by_rejection(rng, n, m, t, matroid_kind, directed, costs,
                           attempts: int = 2000) -> str:
    from .connectivity import check_independent_placement, check_m_connected
    from .orientation import Orientation, orient_m_connected

    for _ in range(attempts):
        text = _generate_raw(rng, n, m, t, matroid_kind, directed, costs, False)
        inst, _extras = parse_instance(text)
        if not check_independent_placement(inst).ok:
            continue
        ok = (check_m_connected(inst).ok if directed
              else isinstance(orient_m_connected(inst), Orientation))
        if ok:
            return text
    raise GenerationError(
        "rejection sampling found no feasible instance in %d attempts" % attempts)
