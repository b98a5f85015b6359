"""Record the mincost optima that check.py compares answers against.

    python3 perfbench/record_optima.py 0 1 2 3 4 5 6 7 8 9 10

Solves every positive instance of the mincost workload for each seed with
the library in ``src/`` and writes the costs to ``mincost_optima.json``,
keyed by seed and case name.  Run it only on a commit whose answers are
trusted: later commits must reproduce these costs exactly.
"""

import json
import shutil
import sys

import check
import run
from workloads import WORKLOADS


def main(seeds: list[int]) -> None:
    sys.path.insert(0, str(run.SRC))
    workload = WORKLOADS["mincost"]
    doc = json.loads(check.OPTIMA_FILE.read_text())
    workdir = run.WORK / "optima"
    for seed in seeds:
        try:
            _, cases, paths = run.set_up(workload, seed, workdir)
            ps = run.run_pass(list(workload.argv), paths)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        parsed = [check.parse_case(case) for case in cases]
        failures = run.check_pass(cases, parsed, ps.outcomes, {})
        if any(failures):
            raise SystemExit("seed %d: %s" % (seed, [f for f in failures if f]))
        doc[str(seed)] = {case.name: json.loads(out)["payload"]["cost"]
                          for case, (_, code, out) in zip(cases, ps.outcomes)
                          if code == 0}
    check.OPTIMA_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
