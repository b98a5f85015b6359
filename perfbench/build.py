"""Seeded instance builder for the benchmark.

Every instance is planted, so its verdict is known without running the
solver:

* A positive instance is built around a packing.  The matroid's rank k is
  split into k layers; each layer owns some root elements, placed at
  distinct vertices, and a random spanning branching whose components are
  rooted at those vertices.  Every vertex is then covered by exactly one
  tree per layer, which is a base of the free, uniform or partition
  matroid the layers were drawn for.  Noise arcs are added on top.
* A negative instance is a positive one in which a vertex without roots
  keeps only k - 1 of its entering arcs (directed) or incident edges
  (undirected), so the singleton set, or the partition that isolates it,
  violates the connectivity condition by one.

The planted packing or violated set is kept as the witness that the
pre-check and the answer checker use.  Inputs depend only on the seed:
``random.Random(seed)`` drives every choice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from random import Random
from typing import Optional

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Spec:
    """One instance to build: size, matroid family and expected verdict."""

    n: int
    matroid: str            # "free", "uniform" or "partition"
    t: int                  # root elements
    k: int                  # matroid rank (number of layers)
    noise: int              # arcs or edges added beyond the planted packing
    negative: bool = False
    directed: bool = True
    costs: bool = False


@dataclass(frozen=True)
class Case:
    """A built instance with its expected exit code and planted witness."""

    name: str
    spec: Spec
    text: str
    expect: int                          # 0 positive, 2 certified negative
    trees: Optional[dict] = None         # root element -> (vertex, link ids)
    violated: Optional[tuple] = None     # ("set", [v]) or ("partition", blocks)
    planted_cost: Optional[int] = None


def _layers(rng: Random, spec: Spec) -> tuple[list[list[str]], dict]:
    """Split the root elements into k nonempty layers; returns the matroid."""
    elems = ["s%d" % i for i in range(spec.t)]
    if spec.matroid == "free":
        if spec.k != spec.t:
            raise ValueError("a free matroid has rank t")
        return [[e] for e in elems], {"type": "free"}
    if spec.matroid == "uniform":
        return _split(rng, elems, spec.k), {"type": "uniform", "rank": spec.k}
    if spec.matroid == "partition":
        # two blocks; the caps add up to k and never exceed the block size
        if not 2 <= spec.k < spec.t:
            raise ValueError("partition specs need 2 <= k < t")
        t, k = spec.t, spec.k
        cut = rng.choice([c for c in range(1, t)
                          if max(1, k - t + c) <= min(c, k - 1)])
        blocks = [elems[:cut], elems[cut:]]
        cap0 = rng.randint(max(1, k - t + cut), min(cut, k - 1))
        caps = [cap0, spec.k - cap0]
        layers = []
        for blk, cap in zip(blocks, caps):
            layers.extend(_split(rng, blk, cap))
        frag = {"type": "partition",
                "blocks": [{"elements": blk, "cap": cap}
                           for blk, cap in zip(blocks, caps)]}
        return layers, frag
    raise ValueError("unknown matroid family %r" % spec.matroid)


def _split(rng: Random, elems: list[str], parts: int) -> list[list[str]]:
    if not 1 <= parts <= len(elems):
        raise ValueError("cannot split %d elements into %d layers"
                         % (len(elems), parts))
    order = elems[:]
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, len(order)), parts - 1))
    bounds = [0] + cuts + [len(order)]
    return [sorted(order[a:b]) for a, b in zip(bounds, bounds[1:])]


def build_case(seed: int, name: str, spec: Spec) -> Case:
    """Build one planted instance; the same (seed, name, spec) gives the same text."""
    rng = Random("%d/%s" % (seed, name))
    verts = ["v%d" % i for i in range(spec.n)]
    layers, matroid = _layers(rng, spec)
    if any(len(layer) > spec.n for layer in layers):
        raise ValueError("a layer has more roots than vertices")

    links: list[tuple[str, str]] = []      # (tail, head), ids assigned later
    owner: list[Optional[str]] = []        # planted tree of each link
    roots: list[tuple[str, str]] = []
    for layer in layers:
        order = verts[:]
        rng.shuffle(order)
        comp = {}
        for e, v in zip(layer, order):
            roots.append((e, v))
            comp[v] = e
        for j in range(len(layer), spec.n):
            parent = order[rng.randrange(j)]
            comp[order[j]] = comp[parent]
            links.append((parent, order[j]))
            owner.append(comp[parent])
    for _ in range(spec.noise):
        links.append(tuple(rng.sample(verts, 2)))
        owner.append(None)

    violated = None
    if spec.negative:
        rooted = {v for _, v in roots}
        v = rng.choice([u for u in verts if u not in rooted])
        touching = [i for i, (a, b) in enumerate(links)
                    if b == v or (not spec.directed and a == v)]
        # k - 1 links left: the smallest possible violation
        keep = set(rng.sample(touching, min(len(touching), spec.k - 1)))
        drop = set(touching) - keep
        links = [lk for i, lk in enumerate(links) if i not in drop]
        owner = [o for i, o in enumerate(owner) if i not in drop]
        violated = (("set", [v]) if spec.directed
                    else ("partition", [[v], [u for u in verts if u != v]]))

    perm = list(range(len(links)))
    rng.shuffle(perm)
    prefix = "a" if spec.directed else "e"
    doc: dict = {"version": FORMAT_VERSION, "vertices": verts,
                 "roots": [{"element": e, "vertex": v}
                           for e, v in sorted(roots, key=lambda r: int(r[0][1:]))],
                 "matroid": matroid}
    items = []
    trees = {e: (v, []) for e, v in roots}
    for new_id, i in enumerate(perm):
        lid = "%s%d" % (prefix, new_id)
        tail, head = links[i]
        if spec.directed:
            items.append({"id": lid, "tail": tail, "head": head})
        else:
            # random edge ends, so the all-forward orientation is not the
            # planted one
            ends = [tail, head] if rng.random() < 0.5 else [head, tail]
            items.append({"id": lid, "ends": ends})
        if owner[i] is not None:
            trees[owner[i]][1].append(lid)
    doc["arcs" if spec.directed else "edges"] = items

    planted_cost = None
    if spec.costs:
        doc["costs"] = {it["id"]: rng.randint(1, 100) for it in items}
        if not spec.negative:
            planted_cost = sum(doc["costs"][lid]
                               for _, ids in trees.values() for lid in ids)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return Case(name, spec, text, 2 if spec.negative else 0,
                None if spec.negative else trees, violated, planted_cost)
