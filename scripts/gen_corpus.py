#!/usr/bin/env python3
"""Write a seeded corpus of instance files to a directory.

Usage: python3 scripts/gen_corpus.py OUTDIR [--count N] [--base-seed S]

Half the corpus is biased toward feasibility, half is unconstrained, and
every fifth instance is undirected.  File names encode the seed so any
instance can be regenerated in isolation.  The library is imported from
the ``src/`` next to this script, so no install is needed.
"""

import argparse
import pathlib
import random
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    sys.path.insert(0, str(SRC))
    from arbopack.instances import GenerationError, generate_instance

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir")
    ap.add_argument("--count", type=int, default=50)
    ap.add_argument("--base-seed", type=int, default=0)
    args = ap.parse_args()

    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)

    written = 0
    seed = args.base_seed
    while written < args.count:
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        t = rng.randint(1, 3)
        directed = written % 5 != 4
        bias = written % 2 == 0
        m = t * (n - 1) + rng.randint(0, 4) if bias else rng.randint(0, 12)
        try:
            text = generate_instance(seed, n=n, m=m, t=t,
                                     feasible_bias=bias, directed=directed,
                                     costs=directed and bias)
        except GenerationError:
            seed += 1
            continue
        kind = "digraph" if directed else "graph"
        path = out / ("%s-seed%05d.json" % (kind, seed))
        path.write_text(text)
        written += 1
        seed += 1
    print("wrote %d instances to %s" % (written, out))


if __name__ == "__main__":
    main()
