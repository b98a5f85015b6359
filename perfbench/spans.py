"""Spans around the public functions of every arbopack module.

``Tracer.install`` wraps each public function of the library's modules,
and ``Matroid.rank`` / ``Matroid.extend_parallel``, in every arbopack
namespace that holds it, since modules import functions by name
(``packing.check_m_connected``, ``polytope.solve_lp`` ...) and patching
only the defining module would miss those calls.  ``sfm.minimize`` also
rebuilds the objective it is handed so that each ``evaluate`` call is a
span of its own.  Generators (``iter_partitions``) are counted per item.

Each call is one span.  On close it adds to per-name totals (calls, time,
self time = its duration minus that of its child spans) and to a count
per (name, parent name) pair.  Spans are also kept in memory as
(name, parent span, request, start ns, end ns) rows, the request being
the index of the instance being run, except those of ``HOT`` names: these
make up nearly all calls (millions per pass) and are kept as totals only;
a kept span's parent is its nearest kept ancestor.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

# every module the CLI runs; sweeps only feeds the test suite
MODULES = ("cli", "connectivity", "graphs", "instances", "lp", "matroid",
           "orientation", "packing", "polytope", "sfm")
METHODS = ("rank", "extend_parallel")
HOT = frozenset({"matroid.rank", "sfm.evaluate", "graphs.cross_edges"})
FIELDS = (("name", "i"), ("parent", "i"), ("request", "i"),
          ("start", "q"), ("end", "q"))
MAX_NAMES = 255
ROOT = MAX_NAMES          # parent-name column of spans with no parent
WIDTH = MAX_NAMES + 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.arrays = {f: array(code) for f, code in FIELDS}
        self.calls = [0] * MAX_NAMES
        self.total = [0] * MAX_NAMES
        self.own = [0] * MAX_NAMES
        self.pairs = [0] * (MAX_NAMES * WIDTH)
        self.events: Counter = Counter()
        self.recording = False
        self.request = -1
        # open spans: [child ns, kept span index, name id]
        self._stack = [[0, -1, ROOT]]
        self._patches: list = []

    # -- wrapping -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if len(self.names) == MAX_NAMES:
            raise RuntimeError("more than %d traced names" % MAX_NAMES)
        self.names.append(name)
        return len(self.names) - 1

    def _span(self, fn, nid: int, after=None):
        keep = self.names[nid] not in HOT
        a = self.arrays
        names, parents, requests = a["name"], a["parent"], a["request"]
        starts, ends = a["start"], a["end"]
        calls, total, own, pairs = self.calls, self.total, self.own, self.pairs
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if keep:
                idx = len(names)
                names.append(nid)
                parents.append(parent[1])
                requests.append(tracer.request)
                starts.append(0)
                ends.append(0)
            else:
                idx = parent[1]
            frame = [0, idx, nid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                calls[nid] += 1
                total[nid] += d
                own[nid] += d - frame[0]
                parent[0] += d
                pairs[nid * WIDTH + parent[2]] += 1
                if keep:
                    starts[idx] = t0
                    ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counted(self, fn, name: str):
        events = self.events
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if tracer.recording:
                    events[name + ".items"] += 1
                yield item

        return counted

    def _minimize(self, fn):
        """sfm.minimize with each evaluate call of its objective traced."""
        evaluate_id = self._name_id("sfm.evaluate")

        @functools.wraps(fn)
        def minimize(obj, *args, **kwargs):
            if self.recording:
                obj = type(obj)(obj.n, self._span(obj.evaluate, evaluate_id),
                                obj.family)
            return fn(obj, *args, **kwargs)

        return minimize

    def _wrapper(self, module: str, name: str, fn):
        full = "%s.%s" % (module, name)
        if inspect.isgeneratorfunction(fn):
            return self._counted(fn, full)
        if full == "sfm.minimize":
            fn = self._minimize(fn)
        after = {"packing.find_reduction": self._count_step,
                 "lp.solve_lp": self._count_rows}.get(full)
        return self._span(fn, self._name_id(full), after)

    def _count_step(self, args, result) -> None:
        if result is not None:
            self.events["packing.steps"] += 1

    def _count_rows(self, args, result) -> None:
        rows = len(args[1])
        if rows > self.events["lp.rows_max"]:
            self.events["lp.rows_max"] = rows

    def install(self) -> None:
        """Wrap the library currently in sys.modules; undone by uninstall."""
        if not self._patches:
            self._patches = self._build()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def _build(self) -> list:
        wrappers: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules["arbopack." + short]
            for name, fn in sorted(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(fn)] = self._wrapper(short, name, fn)
        patches = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name != "arbopack" and not mod_name.startswith("arbopack."):
                continue
            for attr, val in sorted(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in wrappers:
                    patches.append((mod, attr, val, wrappers[id(val)]))
        matroid_cls = sys.modules["arbopack.matroid"].Matroid
        for meth in METHODS:
            orig = vars(matroid_cls)[meth]
            patches.append((matroid_cls, meth, orig,
                            self._span(orig, self._name_id("matroid." + meth))))
        return patches

    # -- results ------------------------------------------------------------

    def clear(self) -> None:
        for arr in self.arrays.values():
            del arr[:]
        for totals in (self.calls, self.total, self.own, self.pairs):
            totals[:] = [0] * len(totals)
        self.events.clear()

    def dump(self) -> bytes:
        """The kept spans as one JSON header line followed by the raw arrays."""
        header = {"names": self.names, "spans": len(self.arrays["name"]),
                  "fields": [[f, c] for f, c in FIELDS],
                  "byteorder": sys.byteorder, "events": dict(self.events)}
        body = b"".join(self.arrays[f].tobytes() for f, _ in FIELDS)
        return json.dumps(header).encode() + b"\n" + body

    def summary(self, per_request=()) -> dict:
        """Per-name calls, total and self seconds; calls per (name, parent).

        ``per_request`` names (name, parent name) pairs of kept spans to
        count per request as well.
        """
        out: dict = {"calls": {}, "total_s": {}, "self_s": {},
                     "pairs": Counter(), "by_request": Counter(),
                     "events": Counter(self.events)}
        for nid, name in enumerate(self.names):
            out["calls"][name] = self.calls[nid]
            out["total_s"][name] = self.total[nid] / 1e9
            out["self_s"][name] = self.own[nid] / 1e9
            for pid in [*range(len(self.names)), ROOT]:
                c = self.pairs[nid * WIDTH + pid]
                if c:
                    out["pairs"][name, self.names[pid] if pid != ROOT else None] = c
        watch = set(per_request)
        a = self.arrays
        names, parents, requests = a["name"], a["parent"], a["request"]
        for i in range(len(names)):
            p = parents[i]
            key = (self.names[names[i]], self.names[names[p]] if p >= 0 else None)
            if key in watch:
                out["by_request"][(requests[i], *key)] += 1
        return out
