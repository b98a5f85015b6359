#!/usr/bin/env python3
"""Time `mincost` on planted instances of growing size, layer by layer.

Usage: python3 scripts/bench_mincost.py [--src DIR] [--json F]

Each instance is built as in ROADMAP.md: ``instances._generate_raw`` with
``random.Random(7)`` and a free matroid, feasible by construction (t
planted arborescences, then random noise arcs up to m), with a cost
table.  Two families, in this order:

* ``noise-first``: t=1, m=4n, with the planted arcs (the first t(n-1)
  ids) made 1000 dearer than every noise arc.  The greedy start takes
  the cheapest noise arc into each vertex; their cycles are cut, the LP
  runs, and some of its optima are fractional, which min-norm-point
  separates;
* ``planted``: t=2, m=2n, the generated costs.

For each family the size grows through ``SIZES`` until a run takes more
than ``BUDGET`` seconds (the run is stopped there); each size is timed
``REPEAT`` times, and its row gives the time and the split of the run
whose time is the median (the lower middle one of an even count, when
the budget stopped a later run):

* ``lp``: ``solve_lp`` calls (the split greedy start, where the library
  has one, counts as one, with 0 pivots), their pivots and seconds;
* ``sep_flow`` / ``sep_mnp``: separations that ran no submodular
  minimization (the flow decides them), and those that ran one
  (min-norm-point, on a fractional point), with their seconds;
* ``wolfe_runs`` / ``greedy_vertices``: the Wolfe runs of those
  min-norm-point separations (``sfm._wolfe_min_norm``, one per smallest
  index but the last) and the greedy vertices they read
  (``sfm._greedy_vertex``, one per major cycle and one to start), which
  tell fewer iterations from cheaper ones; ``wolfe_stopped`` counts the
  runs that Fujishige's bound ended at the least value of the earlier
  runs, rather than Wolfe's optimality test;
* ``construct``: seconds of ``_construct``, the split of a 0/1 optimum
  into trees, failed splits included; ``splits`` and ``failed_splits``
  count the splits that returned a packing and those that raised
  ``TheoremViolation``, and ``sep_after_failed`` the separations run
  after a failed split, part of ``sep_flow``;
* ``prechecks``: the ``check_m_connected`` calls on the instance itself,
  outside separation: 0 when the greedy start is the optimum, whose
  separation proves the instance M-connected, and 1 when the start is
  cut or a vertex has too few entering arcs;
* ``rss_mb``: the peak resident size of the process that ran the size.

Each size runs in a fresh process, so its ``rss_mb`` is its own peak,
not that of an earlier, larger size or family.

The LP rows are sparse, one per vertex and one per cut, and they hold
m + the cut supports' sizes column entries in all, so ``SIZES`` runs on
until the budget stops a family.  The library is imported from
``--src`` (default: ``src/`` next to this script), so the same script
times another checkout.  ``--json`` writes the rows to a file as well.
"""

import argparse
import contextlib
import json
import multiprocessing
import pathlib
import random
import resource
import signal
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SIZES = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024,
         1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384, 24576)
REPEAT = 3
BUDGET = 60.0
FAMILIES = {"noise-first": (1, 4), "planted": (2, 2)}  # t, m / n


class OverBudget(Exception):
    pass


def instance(n: int, family: str):
    from arbopack.instances import _generate_raw, parse_instance

    t, per_vertex = FAMILIES[family]
    text = _generate_raw(random.Random(7), n, per_vertex * n, t, "free",
                         True, True, True)
    inst, extras = parse_instance(text)
    costs = extras["costs"]
    if family == "noise-first":
        planted = {"a%d" % i for i in range(t * (n - 1))}
        costs = {a: c + 1000 * (a in planted) for a, c in costs.items()}
    return inst, costs


@contextlib.contextmanager
def timed_layers(polytope):
    """Wrap the layers of ``min_cost_packing`` and yield their counters."""
    split = {"lp_solves": 0, "lp_pivots": 0, "lp_s": 0.0,
             "sep_flow": 0, "sep_flow_s": 0.0,
             "sep_mnp": 0, "sep_mnp_s": 0.0, "construct_s": 0.0,
             "splits": 0, "failed_splits": 0, "sep_after_failed": 0,
             "prechecks": 0, "wolfe_runs": 0, "wolfe_stopped": 0,
             "greedy_vertices": 0}
    solve_lp, separate, construct = (polytope.solve_lp, polytope.separate,
                                     polytope._construct)
    sfm = polytope.sfm
    minimize, wolfe, greedy = (sfm.minimize, sfm._wolfe_min_norm,
                               sfm._greedy_vertex)
    check = polytope.check_m_connected
    minimized = [0]
    separating = []  # nonempty while separate runs
    failed = []  # nonempty from a failed split to the next separation

    def checked(*args, **kwargs):
        if not separating:
            split["prechecks"] += 1
        return check(*args, **kwargs)

    def counted(*args, **kwargs):
        minimized[0] += 1
        return minimize(*args, **kwargs)

    def wolfe_run(*args, **kwargs):
        split["wolfe_runs"] += 1
        out = wolfe(*args, **kwargs)
        split["wolfe_stopped"] += out is None
        return out

    def greedy_vertex(*args, **kwargs):
        split["greedy_vertices"] += 1
        return greedy(*args, **kwargs)

    def lp(*args, **kwargs):
        t0 = time.perf_counter()
        res = solve_lp(*args, **kwargs)
        split["lp_s"] += time.perf_counter() - t0
        split["lp_solves"] += 1
        split["lp_pivots"] += res.pivots
        return res

    def sep(inst, x, **kwargs):
        if failed:
            split["sep_after_failed"] += 1
            failed.clear()
        before = minimized[0]
        t0 = time.perf_counter()
        separating.append(True)
        try:
            out = separate(inst, x, **kwargs)
        finally:
            separating.pop()
        key = "sep_mnp" if minimized[0] > before else "sep_flow"
        split[key + "_s"] += time.perf_counter() - t0
        split[key] += 1
        return out

    def build(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            out = construct(*args, **kwargs)
        except polytope.TheoremViolation:
            split["failed_splits"] += 1
            failed.append(True)
            raise
        finally:
            split["construct_s"] += time.perf_counter() - t0
        split["splits"] += 1
        return out

    polytope.solve_lp, polytope.separate, polytope._construct = lp, sep, build
    sfm.minimize, sfm._wolfe_min_norm, sfm._greedy_vertex = (
        counted, wolfe_run, greedy_vertex)
    polytope.check_m_connected = checked
    try:
        yield split
    finally:
        polytope.solve_lp, polytope.separate, polytope._construct = (
            solve_lp, separate, construct)
        sfm.minimize, sfm._wolfe_min_norm, sfm._greedy_vertex = (
            minimize, wolfe, greedy)
        polytope.check_m_connected = check


def _stop(signum, frame):
    raise OverBudget


def run_size(polytope, n: int, family: str) -> dict:
    """The row of one size; its ``stop`` names why the family ends there."""
    inst, costs = instance(n, family)
    row = {"family": family, "n": n, "m": len(inst.arcs),
           "t": len(inst.roots)}
    runs = []  # (seconds, split) of each run
    for _ in range(REPEAT):
        with timed_layers(polytope) as split:
            signal.setitimer(signal.ITIMER_REAL, BUDGET)
            t0 = time.perf_counter()
            try:
                _, cost = polytope.min_cost_packing(inst, costs)
            except OverBudget:
                row["stop"] = "over %g s" % BUDGET
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            runs.append((time.perf_counter() - t0, split))
        if "stop" in row:
            break
        row["cost"] = str(cost)
    seconds, split = sorted(runs, key=lambda r: r[0])[(len(runs) - 1) // 2]
    row.update(seconds=round(seconds, 5), runs=len(runs))
    row.update({k: round(v, 5) if isinstance(v, float) else v
                for k, v in split.items()})
    row["rss_mb"] = round(resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return row


def run_fresh(src: str, n: int, family: str) -> dict:
    """``run_size`` with the library of ``src``, in a process of its own."""
    sys.path.insert(0, src)
    from arbopack import polytope

    signal.signal(signal.SIGALRM, _stop)
    return run_size(polytope, n, family)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(HERE.parent / "src"))
    ap.add_argument("--json")
    args = ap.parse_args()
    spawn = multiprocessing.get_context("spawn")
    rows = []
    for family in FAMILIES:
        for n in SIZES:
            with spawn.Pool(1) as fresh:
                row = fresh.apply(run_fresh, (args.src, n, family))
            rows.append(row)
            print("%(family)s n=%(n)4d %(seconds)8.4f s (runs %(runs)d) | "
                  "lp %(lp_solves)d solves %(lp_pivots)d pivots %(lp_s).4f s"
                  " | sep flow %(sep_flow)d %(sep_flow_s).4f s, mnp "
                  "%(sep_mnp)d %(sep_mnp_s).4f s (wolfe %(wolfe_runs)d, stopped "
                  "%(wolfe_stopped)d, greedy %(greedy_vertices)d) | construct "
                  "%(construct_s).4f s, splits %(splits)d, failed "
                  "%(failed_splits)d, then sep %(sep_after_failed)d | "
                  "prechecks %(prechecks)d | "
                  "%(rss_mb)s MB" % row,
                  row.get("stop", "cost " + row.get("cost", "")), flush=True)
            if "stop" in row:
                break
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
