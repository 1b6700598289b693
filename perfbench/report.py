"""Run every workload untraced and traced, and print every metric by name with its unit.

Usage (from the repository root)::

    python3 perfbench/report.py --seed 1 --seconds 25

End-to-end metrics come from the untraced run; per-layer metrics, the span
file and the tracing overhead from the traced run of the same workload.
"""

from __future__ import annotations

import argparse
import sys

from run import BenchError, describe, run_workload
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"## {name} --trace {trace}", flush=True)
            try:
                outcome = run_workload(name, args.seed, args.seconds, trace)
            except BenchError as exc:
                print(f"error: {exc}", file=sys.stderr)
                status = 2
                continue
            for line in describe(outcome):
                print(line.removeprefix("# "), flush=True)
            if not outcome["result"]["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
