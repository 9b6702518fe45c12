"""Digests of every benchmark query's output, to check a change for byte identity.

    python3 tests/output_digest.py [--root CHECKOUT] [--workloads sizing,exact_m]
                                   [--seeds 1,2,3] [--seconds 20]

For each workload and seed it builds perfbench's query list, issues every
query in process through ``shardrisk.cli.main`` after emptying the memo
caches (``perfbench/run.py``'s own ``run_pass``), and prints one line: the
workload, the seed, the query count and the sha256 of each query's argv,
exit code, stdout and stderr.  Two checkouts whose lines match print the same
bytes, error text included, on those lists.  ``--root`` names the checkout whose ``src`` and
``perfbench`` are imported (by default the one holding this file); run it
once per checkout, each in its own process.  perfbench's files are only
imported, never changed.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path


def digest(outcomes, queries) -> str:
    h = hashlib.sha256()
    for query, outcome in zip(queries, outcomes):
        h.update(json.dumps([query["argv"], outcome["code"], outcome["stdout"],
                             outcome["stderr"]]).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--workloads", default="sizing,exact_m,monte_carlo")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "perfbench"))
    import run  # perfbench/run.py, which puts the checkout's src on sys.path

    for workload in args.workloads.split(","):
        for seed in args.seeds.split(","):
            cli, queries, _ = run.setup(run.parse_args(
                ["--workload", workload, "--seed", seed, "--seconds", args.seconds]))
            outcomes, _ = run.run_pass(cli, queries)
            print(workload, seed, len(queries), digest(outcomes, queries), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
