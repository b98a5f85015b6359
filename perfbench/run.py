"""Benchmark runner for arbopack.

    python3 perfbench/run.py --workload pack-brute --seed 1 --seconds 20 --trace 0

Runs the commands users run (``pack``, ``pack --engine min-norm-point``,
``mincost``, ``pack-undirected``) in-process through
``arbopack.cli.run_command``, one instance file at a time, on planted
instances built from ``--seed`` (see build.py and workloads.py).  Every
answer is checked (check.py).  The library is imported from ``src/`` of
the checkout this file sits in.

Set-up (``setup_s``) is timed as: import arbopack, then build, write and
pre-check the workload's instance files.  It runs several times and the
median is reported; each repetition re-imports the package's own modules.

The measured phase runs every instance once per pass and repeats passes
while another one fits in ``--seconds``.  With ``--trace 0`` it reports
the end-to-end metrics: ``wall_s`` (median pass), ``positive_s.p50`` and
``negative_s.p50`` (median per-instance time of positive answers and of
certified negatives), ``peak_rss_mb`` and ``setup_s``.  With ``--trace 1``
each pass runs once untraced and once with spans around the public
functions of every module (spans.py), and it reports the per-layer
metrics of the traced pass; ``.s`` metrics are self times.  The spans of
the first traced pass are written to ``perfbench/_work/``.

Times are scaled to the reference machine's speed (see REF_TASK_S); the
raw times and speed factors are printed too.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import check
import spans
from build import build_case
from workloads import WORKLOADS, expand

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 7
# Mean time of reference_task on the reference machine, a 2-core x86
# virtual machine running CPython 3.11.  The CPU speed of a shared machine
# drifts: there, the same call took 1.7 ms or 3.4 ms depending on the
# moment, and one pass over fixed instances took up to 40% longer in one
# run than in another.
# So the reference task runs REF_SAMPLES times before every timed call and
# after the last one, and each call's time is multiplied by REF_TASK_S over
# the mean reference time measured around it.  This took the run-to-run
# spread of a pass's time from +-20% to +-3%.
REF_TASK_S = 0.0025
REF_SAMPLES = 3

# (name, parent) span pair counted per instance: the orientation checks
ORIENT_CHECK = ("connectivity.check_m_connected", "orientation.orient_m_connected")


def reference_task() -> float:
    """Seconds taken by a fixed pure-Python task that mixes the operations
    the library leans on: Fraction arithmetic, frozenset unions, dict
    lookups keyed by frozensets."""
    start = time.perf_counter()
    acc = Fraction(0)
    s: frozenset = frozenset()
    for i in range(1, 400):
        acc += Fraction(i, i + 1)
        s = s | frozenset((i % 13, i % 7))
    d = {}
    for i in range(3000):
        d[frozenset((i % 31, i % 17))] = i
    return time.perf_counter() - start


def reference_sample() -> list:
    return [reference_task() for _ in range(REF_SAMPLES)]


def speed_factors(refs: list) -> list:
    """Factor of each timed call from the samples before and after it."""
    return [REF_TASK_S / statistics.fmean(a + b) for a, b in zip(refs, refs[1:])]


def set_up(workload, seed: int, workdir: Path):
    """Import arbopack, build, write and pre-check; returns (seconds, cases, paths)."""
    start = time.perf_counter()
    for name in [m for m in sys.modules
                 if m == "arbopack" or m.startswith("arbopack.")]:
        del sys.modules[name]
    importlib.import_module("arbopack.cli")
    cases = [build_case(seed, name, spec) for name, spec in expand(workload)]
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    paths = []
    for case in cases:
        path = workdir / (case.name + ".json")
        path.write_text(case.text)
        check.precheck(case, path)
        paths.append(path)
    return time.perf_counter() - start, cases, paths


@dataclass
class Pass:
    wall: float       # seconds for every instance once, reference task excluded
    outcomes: list    # (seconds, exit code or None, output) per instance
    factors: list     # speed factor of each instance's time

    def scaled(self) -> list:
        return [o[0] * f for o, f in zip(self.outcomes, self.factors)]

    @property
    def speed(self) -> float:
        """Time-weighted speed factor of the pass."""
        return sum(self.scaled()) / sum(o[0] for o in self.outcomes)


def run_pass(argv, paths, tracer=None) -> Pass:
    """Run every instance once, with reference samples between them."""
    from arbopack.cli import run_command

    outcomes = []
    refs = []
    gc.collect()
    start = time.perf_counter()
    for i, path in enumerate(paths):
        refs.append(reference_sample())
        if tracer is not None:
            tracer.request = i
            tracer.recording = True
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = run_command([*argv, str(path)])
            out = buf.getvalue()
        except Exception:  # a crash is a failed answer, not a failed benchmark
            code, out = None, traceback.format_exc()
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.recording = False
        outcomes.append((seconds, code, out))
    wall = time.perf_counter() - start - sum(map(sum, refs))
    refs.append(reference_sample())
    return Pass(wall, outcomes, speed_factors(refs))


def check_pass(cases, parsed, outcomes, optima) -> list:
    """The failure reason of each outcome, None where the answer is right."""
    failures = []
    for case, (inst, costs), (_, code, out) in zip(cases, parsed, outcomes):
        doc = out
        if code is not None:
            try:
                doc = json.loads(out)
            except json.JSONDecodeError:
                failures.append("output is not JSON: %r" % out[:200])
                continue
        failures.append(check.check_answer(case, inst, costs, code, doc,
                                           optima.get(case.name)))
    return failures


def tail(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            return "p%d %.4g s" % (q, statistics.quantiles(samples, n=100)[q - 1])
    return "too few samples for a tail percentile"


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(summary: dict, cases, overhead_s: float) -> dict:
    """Per-layer metrics from a traced summary: name -> (value, unit)."""
    calls, own = summary["calls"], summary["self_s"]
    pairs, events = summary["pairs"], summary["events"]
    rank_calls = calls["matroid.rank"]
    rank_nested = pairs["matroid.rank", "matroid.rank"]
    candidates = pairs["connectivity.check_m_connected", "packing.find_reduction"]
    oriented = [i for i, c in enumerate(cases)
                if c.expect == 0 and not c.spec.directed]
    first_pass = sum(1 for i in oriented
                     if summary["by_request"][(i, *ORIENT_CHECK)] == 1)
    count, sec, ratio = "count", "s", "ratio"
    return {
        "sfm.minimize.calls": (calls["sfm.minimize"], count),
        "sfm.minimize.s": (own["sfm.minimize"], sec),
        "sfm.evaluate.calls": (calls["sfm.evaluate"], count),
        "sfm.evaluate.s": (own["sfm.evaluate"], sec),
        "matroid.rank.calls": (rank_calls, count),
        "matroid.rank.s": (own["matroid.rank"], sec),
        "matroid.rank.nested_ratio": (_ratio(rank_calls, rank_calls - rank_nested), ratio),
        "matroid.extend_parallel.calls": (calls["matroid.extend_parallel"], count),
        "connectivity.check_m_connected.calls": (calls["connectivity.check_m_connected"], count),
        "connectivity.check_m_connected.s": (own["connectivity.check_m_connected"], sec),
        "connectivity.check_partition_connected.s": (own["connectivity.check_partition_connected"], sec),
        "connectivity.partitions": (events["graphs.iter_partitions.items"], count),
        "packing.find_reduction.calls": (calls["packing.find_reduction"], count),
        "packing.candidates": (candidates, count),
        "packing.candidate_yield": (_ratio(events["packing.steps"], candidates), ratio),
        "packing.lift_packing.s": (own["packing.lift_packing"], sec),
        "packing.verify_packing.s": (own["packing.verify_packing"], sec),
        "orientation.orient_m_connected.s": (own["orientation.orient_m_connected"], sec),
        "orientation.checks": (pairs[ORIENT_CHECK], count),
        "orientation.guard_calls": (pairs["sfm.minimize", "orientation.orient_m_connected"], count),
        "orientation.first_pass_share": (_ratio(first_pass, len(oriented)), ratio),
        "polytope.separate.calls": (calls["polytope.separate"], count),
        "polytope.separate.s": (own["polytope.separate"], sec),
        "lp.solve_lp.calls": (calls["lp.solve_lp"], count),
        "lp.solve_lp.s": (own["lp.solve_lp"], sec),
        "lp.rows_max": (events["lp.rows_max"], count),
        "instances.parse_instance.s": (own["instances.parse_instance"], sec),
        "trace.overhead_s": (overhead_s, sec),
    }


def span_counts(summary: dict) -> tuple:
    """Everything in a summary that must repeat exactly from run to run."""
    return (summary["calls"], dict(summary["pairs"]),
            dict(summary["events"]), dict(summary["by_request"]))


def measure(argv, paths, seconds: float) -> list:
    """Untraced passes while another one fits in the time."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(argv, paths))
        if time.perf_counter() - start + passes[-1].wall > seconds:
            return passes


def measure_traced(argv, paths, seconds: float, spans_path: Path):
    """Untraced and traced pass pairs while another pair fits in the time.

    Returns (untraced passes, traced passes, summary, notes): the summary
    holds the first traced pass's counts and the median times, scaled like
    the pass times.
    """
    tracer = spans.Tracer()
    plain, traced, summaries = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(argv, paths))
        tracer.install()
        try:
            traced.append(run_pass(argv, paths, tracer))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary(per_request=[ORIENT_CHECK]))
        if len(summaries) == 1:
            blob = tracer.dump()
        tracer.clear()
        if time.perf_counter() - start + plain[-1].wall + traced[-1].wall > seconds:
            break
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_bytes(blob)
    notes = []
    if any(span_counts(s) != span_counts(summaries[0]) for s in summaries[1:]):
        notes.append("span counts differ between traced passes")
    summary = summaries[0]
    for key in ("total_s", "self_s"):
        summary[key] = {
            name: statistics.median(s[key][name] * t.speed
                                    for s, t in zip(summaries, traced))
            for name in summary[key]}
    return plain, traced, summary, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "arbopack" / "__init__.py").is_file():
        print("error: no arbopack sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    argv_cmd = list(workload.argv)
    workdir = WORK / ("%s-%d" % (args.workload, os.getpid()))
    try:
        setups, refs = [], []
        for _ in range(SETUP_REPEATS):
            refs.append(reference_sample())
            secs, cases, paths = set_up(workload, args.seed, workdir)
            setups.append(secs)
        refs.append(reference_sample())
        setup_factors = speed_factors(refs)
        module_file = Path(sys.modules["arbopack"].__file__).resolve()
        if SRC.resolve() not in module_file.parents:
            print("error: arbopack imported from %s, not %s" % (module_file, SRC),
                  file=sys.stderr)
            return 2
        optima = check.load_optima(args.seed, cases)
        notes: list[str] = []
        if args.trace:
            passes, traced, summary, notes = measure_traced(
                argv_cmd, paths, args.seconds,
                WORK / ("spans-%s.bin" % args.workload))
        else:
            passes = measure(argv_cmd, paths, args.seconds)
            traced = []
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        parsed = [check.parse_case(case) for case in cases]
        failures = [f for ps in passes + traced
                    for f in check_pass(cases, parsed, ps.outcomes, optima)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(failures)
    failed = sum(f is not None for f in failures)
    for case, f in zip(cases * (len(passes) + len(traced)), failures):
        if f is not None:
            print("FAILED %s: %s" % (case.name, f), file=sys.stderr)
    negatives = sum(c.expect == 2 for c in cases)
    print("workload %s seed %d: %d instances per pass (%d feasible, %d infeasible), "
          "command: arbopack %s <file>"
          % (args.workload, args.seed, len(cases), len(cases) - negatives,
             negatives, " ".join(argv_cmd)))
    print("failed_ratio = %d/%d = %.4f" % (failed, attempted, failed / attempted))
    for note in notes:
        print("note: %s" % note)
    for label, group in (("untraced", passes), ("traced", traced)):
        for ps in group:
            print("%s pass: raw wall %.3f s, speed factor %.4f, scaled wall %.3f s"
                  % (label, ps.wall, ps.speed, ps.wall * ps.speed))

    if args.trace:
        overhead = (statistics.median(t.wall * t.speed for t in traced)
                    - statistics.median(ps.wall * ps.speed for ps in passes))
        metrics = layer_metrics(summary, cases, overhead)
        print("%-42s %10s %10s %10s" % ("span", "calls", "total_s", "self_s"))
        for name in sorted(summary["calls"], key=lambda n: -summary["self_s"][n]):
            if summary["calls"][name]:
                print("%-42s %10d %10.4f %10.4f" % (
                    name, summary["calls"][name], summary["total_s"][name],
                    summary["self_s"][name]))
        details: dict = {}
    else:
        setup_scaled = [s * f for s, f in zip(setups, setup_factors)]
        pos = [t for ps in passes
               for c, t in zip(cases, ps.scaled()) if c.expect == 0]
        neg = [t for ps in passes
               for c, t in zip(cases, ps.scaled()) if c.expect == 2]
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "wall_s": (statistics.median(ps.wall * ps.speed for ps in passes), "s"),
            "positive_s.p50": (statistics.median(pos), "s"),
            "negative_s.p50": (statistics.median(neg), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        details = {
            "setup_s": "median of %d set-ups, raw %.4f s" % (
                len(setups), statistics.median(setups)),
            "wall_s": "median of %d passes" % len(passes),
            "positive_s.p50": "%d samples, %s" % (len(pos), tail(pos)),
            "negative_s.p50": "%d samples, %s" % (len(neg), tail(neg)),
            "peak_rss_mb": "whole process"}
    for name, (value, unit) in metrics.items():
        extra = " (%s)" % details[name] if name in details else ""
        print("%s = %.6g %s%s" % (name, value, unit, extra))
    result = {"correct": failed == 0 and not notes, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
