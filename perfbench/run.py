"""qmdp benchmark: per-subcommand time to solution, checked against exact references.

Usage (from the repository root)::

    python3 perfbench/run.py --workload amplify-t7 --seed 1 --seconds 25 --trace 0

Each run spawns the workload in its own child process (``worker.py``), so
one workload's peak RSS never leaks into another's. The child calls
``qmdp.cli.main(argv)`` in process, one op at a time, writing artifacts with
``--out``; once it has exited, this process checks every artifact against
an exact reference and against the first artifact of the same flags and
seed. Set-up time is sampled several times per untraced run from short-lived
children that only set up.

``setup_s`` and, except on the memory-bound dense workload (see
``workloads.Workload.normalise``), ``time_to_solution_s`` are normalised
times: seconds at the reference host speed of ``worker.HostSpeed``, which
rescales each wall time by a fixed probe loop timed next to it, because the
cores of a shared VM change speed by up to 1.9x over tens of seconds. The
raw wall times are printed on the lines before the result.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``.
Lines before it describe the run for a human. ``report.py`` runs every
workload in both modes and prints every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import References, max_return_set, verify  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from worker import PROBE_REF_S  # noqa: E402
from workloads import WORKLOADS, grover_rounds, op_mix  # noqa: E402

SETUP_PROBES = 6  # set-up-only children per untraced run, plus the measuring child itself
PROBES_TIMEOUT_S = 20.0  # all set-up probes together; one takes well under a second
ROUNDS_MARGIN_S = 100.0  # set-up, the dense sparse reference and up to two rounds past --seconds
END_TO_END = {"setup_s": "s", "time_to_solution_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(args: list[str], deadline: float) -> tuple[float, float, list[str]]:
    """Run one worker; return its set-up time (spawn to READY), its SPEED probe time and its later lines."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + args,
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        speed = proc.stdout.readline().split()
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or len(speed) != 2 or speed[0] != "SPEED":
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    return ready, float(speed[1]), rest


def run_workload(workload: str, seed: int, seconds: float, trace: int, scale: str = "full") -> dict:
    """One benchmark run; returns the result object and the worker's detail."""
    if not os.path.isfile(os.path.join(ROOT, "src", "qmdp", "__init__.py")):
        raise BenchError(f"no qmdp sources under {os.path.join(ROOT, 'src')}")
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    scratch = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        common = ["--workload", workload, "--seed", str(seed), "--scale", scale, "--workdir", workdir]
        setups = []  # (wall, probe time) per set-up
        if not trace:  # traced runs report no setup_s
            probes_deadline = time.monotonic() + PROBES_TIMEOUT_S
            setups = [_child(common + ["--setup-only"], probes_deadline)[:2] for _ in range(SETUP_PROBES)]
        spans = os.path.join(scratch, f"spans-{workload}-seed{seed}.jsonl")
        ready, speed, lines = _child(common + ["--seconds", str(seconds), "--trace", str(trace), "--spans", spans],
                                     time.monotonic() + seconds + ROUNDS_MARGIN_S)
        setups.append((ready, speed))
        if not lines:
            raise BenchError("worker printed no result")
        detail = json.loads(lines[-1])
        with open(os.path.join(workdir, "model.json"), encoding="utf-8") as handle:
            refs = References(json.load(handle))
        ops = op_mix(workload, seed, workdir, scale)
        sparse_csv = None
        if ops[0].check == "dense":
            with open(ops[0].params["sparse_out"], encoding="utf-8") as handle:
                sparse_csv = handle.read()
        verify(ops, detail["ops"], refs, sparse_csv)
        for entry, op in zip(detail["sizes"], ops):
            entry.update(reference_sizes(op, refs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(not op["ok"] for op in detail["ops"])
    if trace:
        metrics = {name: {"value": detail["per_layer"][name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        rounds = detail["rounds_norm"] if WORKLOADS[workload].normalise else detail["rounds"]
        values = {"setup_s": statistics.median(wall * PROBE_REF_S / speed for wall, speed in setups),
                  "time_to_solution_s": statistics.median(rounds),
                  "peak_rss_mib": detail["peak_rss_mib"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    detail["setup_samples"] = [wall for wall, _ in setups]
    detail["spans_file"] = spans if trace else None
    result = {"correct": failed == 0, "attempted": len(detail["ops"]), "failed": failed, "metrics": metrics}
    return {"result": result, "detail": detail}


def reference_sizes(op, refs: References) -> dict:
    """Records, live amplitudes and Grover rounds the exact reference predicts for an op."""
    if op.check == "qlearn":
        return {}
    ref = refs.for_op(op)
    sizes = {"records": len(ref)}
    if op.subcommand in ("simulate", "search"):
        sizes["live_amps"] = len(ref)
    if op.subcommand == "search":
        sizes["rounds"] = grover_rounds(sum(t.prob for t in max_return_set(ref)[1].values()))
    return sizes


def describe(outcome: dict) -> list[str]:
    """Human-readable lines: workload, sizes, environment, per-subcommand medians, failures."""
    detail, result = outcome["detail"], outcome["result"]
    lines = [f"# workload {detail['workload']} seed {detail['seed']}: {detail['why']}",
             f"# env {json.dumps(detail['env'], sort_keys=True)}"]
    lines += [f"# size {json.dumps(entry, sort_keys=True)}" for entry in detail["sizes"]]
    untraced = [op for op in detail["ops"] if not op["traced"]]
    for sub in dict.fromkeys(op["subcommand"] for op in untraced):
        mine = [op for op in untraced if op["subcommand"] == sub]
        lines.append(f"# {sub}_s median {statistics.median(op['norm'] for op in mine):.6f} s normalised, "
                     f"{statistics.median(op['wall'] for op in mine):.6f} s wall, over n={len(mine)}, "
                     "no tail percentile (needs more than 20 samples)")
    lines.append(f"# wall time per round: median {statistics.median(detail['rounds']):.6f} s")
    if detail["setup_samples"]:
        lines.append(f"# wall set-up time: median {statistics.median(detail['setup_samples']):.6f} s")
    lines.append(f"# error_rate {result['failed'] / result['attempted']:.6f} "
                 f"({result['failed']} failed of {result['attempted']} ops)")
    lines += [f"# failed op: {op['subcommand']}: {op['error']}" for op in detail["ops"] if not op["ok"]]
    lines += [f"# {name} {m['value']} {m['unit']}" for name, m in result["metrics"].items()]
    for op in detail["ops"]:
        if op["traced"]:
            lines.append(f"# traced {op['subcommand']}: wall {op['wall']:.6f} s = layer self times "
                         f"{op['layer_self']:.6f} s + {op['wall'] - op['layer_self']:.6f} s unaccounted "
                         f"(of which trace counting {op['trace_count']:.6f} s)")
    if detail["spans_file"]:
        lines.append(f"# traced rounds {detail['traced_rounds']} s, untraced rounds {detail['rounds']} s")
        lines.append(f"# spans written to {os.path.relpath(detail['spans_file'], ROOT)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qmdp benchmark: one workload run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in describe(outcome):
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
