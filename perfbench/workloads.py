"""The benchmark's workloads: which CLI command runs on which instances.

Each workload carries one layer that no other workload exercises, which
is why there are four: brute-force submodular minimization (pack-brute),
the exact min-norm-point engine (pack-mnp), the rational simplex
(mincost) and Bell-number partition enumeration (undirected).  Sizes are
chosen so one pass over a workload takes 12-20 s on a 2-core x86 virtual
machine running CPython 3.11, with enough instances per pass that the
medians move little from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from build import Spec


@dataclass(frozen=True)
class Workload:
    argv: tuple          # CLI arguments before the instance path
    specs: tuple         # (count, Spec) pairs, expanded in order


WORKLOADS = {
    # Brute SFM with the deficiency objective and the chained rank oracles
    # take nearly all the time; n=12 sits at the middle of the positives and
    # sets the peak memory (the rank caches of the oracle chain).
    "pack-brute": Workload(("pack",), (
        (2, Spec(11, "free", 2, 2, 6)),
        (4, Spec(11, "partition", 4, 3, 6)),
        (10, Spec(12, "free", 2, 2, 6)),
        (10, Spec(12, "uniform", 3, 2, 6)),
        (6, Spec(12, "free", 2, 2, 6, negative=True)),
        (6, Spec(12, "uniform", 3, 2, 6, negative=True)),
        (4, Spec(12, "partition", 4, 3, 6, negative=True)),
    )),
    # Exact Wolfe dominates; positives pay for the canonical minimizer on
    # every reduction step, negatives run a single check.
    "pack-mnp": Workload(("--engine", "min-norm-point", "pack"), (
        (18, Spec(7, "uniform", 3, 2, 4)),
        (2, Spec(7, "partition", 4, 3, 4)),
        (15, Spec(8, "free", 2, 2, 4, negative=True)),
        (15, Spec(8, "uniform", 3, 2, 4, negative=True)),
    )),
    # The cutting-plane loop: the rational simplex takes most of the time
    # (about 88%), separation most of the rest.  Time grows with the number
    # of cuts, which varies a lot between instances, so this workload runs
    # many small ones to keep its median steady from seed to seed.
    "mincost": Workload(("mincost",), (
        (130, Spec(6, "free", 2, 2, 2, costs=True)),
        (130, Spec(6, "uniform", 3, 2, 2, costs=True)),
        (30, Spec(7, "free", 2, 2, 4, negative=True, costs=True)),
        (30, Spec(7, "uniform", 3, 2, 4, negative=True, costs=True)),
    )),
    # Partition enumeration decides feasibility: Bell(9) = 21147 partitions
    # for each negative.  Positives then run the orientation search and a
    # directed pack; their edge ends are shuffled, so the reversal search
    # has work.  Positives are tight n=7 instances (every edge in the
    # packing): the reversal heuristic gets stuck on about 1% of them and
    # the exhaustive fallback then tries at most 2^12 orientations, about
    # 1 s.  At n=9 with spare edges it got stuck on 4 of ~1200 free
    # instances scanned, and the fallback took from 1 s to over 2 min.
    "undirected": Workload(("pack-undirected",), (
        (30, Spec(7, "free", 2, 2, 0, directed=False)),
        (30, Spec(7, "uniform", 3, 2, 0, directed=False)),
        (30, Spec(9, "free", 2, 2, 4, negative=True, directed=False)),
        (20, Spec(9, "uniform", 3, 2, 4, negative=True, directed=False)),
    )),
}


def expand(workload: Workload) -> list[tuple[str, Spec]]:
    """(case name, spec) for every instance of one pass, in run order."""
    out = []
    for count, spec in workload.specs:
        for _ in range(count):
            tag = "%s-n%d-t%d-k%d%s" % (spec.matroid, spec.n, spec.t, spec.k,
                                        "-neg" if spec.negative else "")
            out.append(("%03d-%s" % (len(out), tag), spec))
    return out
