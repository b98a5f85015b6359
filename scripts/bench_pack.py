#!/usr/bin/env python3
"""Time `pack` and `pack-undirected` on planted instances of growing size.

Usage: python3 scripts/bench_pack.py [--src DIR] [--json F]

Each instance is built as in ROADMAP.md: ``instances._generate_raw`` with
``random.Random(7)``, a free matroid and t=2, feasible by construction
(t planted arborescences or spanning trees, then random noise links up
to m).  Two families, in this order:

* ``near-tight``: m=2n, so only 2 links are noise;
* ``noisy``: m=4n, about 2n noise links.

For each family and command the size doubles from 256 until a run takes
more than ``BUDGET`` seconds (the run is stopped there) or ``SIZES``
ends.  Each size runs once, in a fresh process, so its row shows its
own peak and no other size's; the row gives

* ``seconds``: the whole call (``find_packing`` or ``pack_undirected``);
* ``check_s``: ``check_m_connected``, the input check of ``pack`` (``pack``
  only: ``pack-undirected`` checks its orientation only where the split
  fails); the network the check runs on is built before it, outside
  ``check_s``, and handed on to ``_construct``;
* ``orient_s``, ``searches`` and ``reversals``: ``orientation._orient``,
  the orientation greedy, with the flow searches of its network (its
  ``Network._stamp``) and the path reversals it made
  (``pack-undirected`` only; the placement check and the final
  verification on the graph are in ``seconds`` alone);
* ``construct_s`` and ``steps``: ``_construct``, the reduction loop with
  its lift and verification, and the number of steps it took;
* ``min_cut_s`` and ``min_cut_calls``: the ``flow.Network.min_cut`` calls
  made inside ``_construct``, one per reduction candidate, and their
  time, part of ``construct_s``; the rest of ``construct_s`` is the
  loop's bookkeeping, the lift and the verification;
* ``rss_mb``: the peak resident size of that process.

``SIZES`` stops at 32768.  The reduction loop names no twin (twin ids
grow by one prime per twin of the same stem, O(n^2) characters in all,
and are built only where one is printed), so ``construct_s`` is mostly
the loop's flows: on the pack instance its ``min_cut`` took 17, 35 and
108 us per call at n=1024, 4096 and 16384, while each search discovered
41, 64 and 125 nodes (one run each, 2-core x86, CPython 3.11).  The
library is imported from ``--src`` (default: ``src/`` next to this
script), so the same script times another checkout.  ``--json`` writes
the rows to a file as well.
"""

import argparse
import json
import multiprocessing
import pathlib
import random
import resource
import signal
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SIZES = (256, 512, 1024, 2048, 4096, 8192, 16384, 32768)
BUDGET = 60.0
COMMANDS = ("pack", "pack-undirected")
FAMILIES = {"near-tight": 2, "noisy": 4}  # m / n


class OverBudget(Exception):
    pass


def _stop(signum, frame):
    raise OverBudget


def instance(n: int, command: str, family: str):
    from arbopack.instances import _generate_raw, parse_instance

    text = _generate_raw(random.Random(7), n, FAMILIES[family] * n, 2,
                         "free", command == "pack", False, True)
    return parse_instance(text)[0]


def run_one(src: str, command: str, n: int,
            family: str = "near-tight") -> dict:
    """The row of one size, run in this process with the library of
    ``src``."""
    sys.path.insert(0, src)
    from arbopack import flow, orientation, packing

    inst = instance(n, command, family)
    row = {"family": family, "command": command, "n": n,
           "m": len(inst.links), "t": len(inst.roots)}
    split = {"construct_s": 0.0, "steps": 0, "min_cut_s": 0.0,
             "min_cut_calls": 0}
    if command == "pack":
        split["check_s"] = 0.0
    else:
        split.update(orient_s=0.0, searches=0, reversals=0)
    looping = []  # nonempty while _construct runs

    def timed(fn, key):
        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                split[key] += time.perf_counter() - t0
        return wrapped

    construct = packing._construct
    min_cut = flow.Network.min_cut
    orient, network = orientation._orient, flow.Network.__init__

    def oriented(g):
        nets = []

        def built(net, inst):
            network(net, inst)
            nets.append(net)

        flow.Network.__init__ = built
        try:
            got = orient(g)
        finally:
            flow.Network.__init__ = network
            split["searches"] += sum(net._stamp for net in nets)
        if isinstance(got, tuple):
            split["reversals"] += got[2]
        return got

    def counted(inst, trace=None, net=None):
        steps = [] if trace is None else trace
        looping.append(True)
        try:
            return construct(inst, steps, net=net)
        finally:
            looping.pop()
            split["steps"] += len(steps)

    def loop_cut(net, *args, **kwargs):
        if not looping:
            return min_cut(net, *args, **kwargs)
        t0 = time.perf_counter()
        try:
            return min_cut(net, *args, **kwargs)
        finally:
            split["min_cut_s"] += time.perf_counter() - t0
            split["min_cut_calls"] += 1

    flow.Network.min_cut = loop_cut

    if command == "pack":
        packing.check_m_connected = timed(packing.check_m_connected,
                                          "check_s")
        solve = packing.find_packing
    else:
        solve = orientation.pack_undirected
        orientation._orient = timed(oriented, "orient_s")
    packing._construct = orientation._construct = timed(counted,
                                                        "construct_s")
    signal.signal(signal.SIGALRM, _stop)
    signal.setitimer(signal.ITIMER_REAL, BUDGET)
    t0 = time.perf_counter()
    try:
        out = solve(inst)
        row["trees"] = len(out.trees)
    except OverBudget:
        row["stop"] = "over %g s" % BUDGET
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    row["seconds"] = round(time.perf_counter() - t0, 4)
    row.update({k: round(v, 4) if isinstance(v, float) else v
                for k, v in split.items()})
    row["rss_mb"] = round(resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(HERE.parent / "src"))
    ap.add_argument("--json")
    args = ap.parse_args()
    spawn = multiprocessing.get_context("spawn")
    rows = []
    for family in FAMILIES:
        for command in COMMANDS:
            for n in SIZES:
                with spawn.Pool(1) as fresh:
                    row = fresh.apply(run_one, (args.src, command, n, family))
                rows.append(row)
                first = ("check %(check_s).4f s" if command == "pack"
                         else "orient %(orient_s).4f s, %(searches)d "
                         "searches, %(reversals)d reversals") % row
                print("%(family)s %(command)s n=%(n)5d %(seconds)9.4f s | "
                      % row + first + " | construct %(construct_s).4f s, "
                      "%(steps)d steps, min_cut %(min_cut_s).4f s in "
                      "%(min_cut_calls)d calls | %(rss_mb)s MB"
                      % row, row.get("stop", ""), flush=True)
                if "stop" in row:
                    break
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
