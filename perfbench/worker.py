"""One workload run in its own process (spawned by ``run.py``).

Protocol on stdout: the line ``READY`` once set-up is done (interpreter
start, ``import qmdp``, generating and loading the model), then the line
``SPEED <seconds>`` (the host-speed probe's mean time right after set-up),
then, unless ``--setup-only`` is given, one JSON line with every op's wall
time. The
program writes its artifacts under ``--workdir`` inside the checkout; the
worker keeps each op's copy there and the parent checks them after this
process has exited, so the peak RSS of this process is the program's, not
the checker's. It is read after the first round: one run of each
subcommand, as a CLI user's process would see it. The program's stdout and stderr are captured per op.

Closed loop with one client: ops run one at a time, each waiting for the
previous one. A round is the workload's op mix; rounds repeat until the
measured window reaches ``--seconds``.

Host speed: on a shared 2-vCPU Xeon VM the cores slow down by up to 1.9x
for tens of seconds to minutes at a time, and CPU time slows with them, so
no statistic of raw wall times within one run is steady from run to run. While an untraced op runs, SIGALRM times a fixed pure-Python loop
every ``PROBE_PERIOD_S``; the op's wall time (minus the probes) times
``PROBE_REF_S`` over the probe's mean time is its normalised time, the
seconds the op takes at the reference speed. The probe is part of this
benchmark, not of the program, so it does not move when the program does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer, op_accounting, per_layer  # noqa: E402


def import_program():
    """Import ``qmdp`` from this checkout's ``src``; never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qmdp", "__init__.py")):
        raise SystemExit(f"no qmdp sources under {src}")
    sys.path.insert(0, src)
    import qmdp
    import qmdp.cli  # the console entry point; the package does not import it

    if not os.path.abspath(qmdp.__file__).startswith(src + os.sep):
        raise SystemExit(f"qmdp imported from {qmdp.__file__}, not from {src}")
    return qmdp


def environment(qmdp) -> dict:
    import numpy

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
    l3 = "unknown"
    with contextlib.suppress(OSError):
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as handle:
            l3 = handle.read().strip()
    return {"commit": commit, "python": platform.python_version(), "numpy": numpy.__version__,
            "qmdp": qmdp.__version__, "nproc": len(os.sched_getaffinity(0)), "l3": l3}


PROBE_PERIOD_S = 0.1
PROBE_REF_S = 3.0e-4  # the probe loop on an uncontended vCPU of a 2-vCPU 2.0 GHz Xeon VM, Python 3.11


def _probe_loop() -> None:
    table = {}
    for i in range(1500):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0.0) * 0.5 + (i & 255) * 1e-3


class HostSpeed:
    """Times ``_probe_loop`` now and then, and every ``PROBE_PERIOD_S`` from SIGALRM while active."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self.sample)

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _probe_loop()
        self.samples.append(time.perf_counter() - start)

    def mean_of(self, count: int) -> float:
        """Mean of ``count`` back-to-back samples, taken now."""
        self.samples = []
        for _ in range(count):
            self.sample()
        return statistics.fmean(self.samples)

    def __enter__(self) -> "HostSpeed":
        self.samples = []
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.sample()


def run_op(qmdp, op, position: int, index: int, tracer=None, speed: HostSpeed | None = None) -> dict:
    """Call the CLI once, time it, and keep its artifacts as ``workloads.kept(path, index)``.

    With ``speed``, the op runs under the host-speed probe: ``wall`` excludes the
    probe's own time and ``norm`` is the op's normalised time.
    """
    for path in op.artifacts:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    captured = io.StringIO()
    if tracer is not None:
        tracer.op = index
    error = None
    with speed if speed is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = qmdp.cli.main(list(op.argv))  # looked up per call: the tracer may wrap it
        except (Exception, SystemExit) as exc:  # a crash is a failed op, not a dead benchmark
            code = None
            error = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    norm = None
    if speed is not None:
        # the first and last samples bracket the timed span; the others ran inside it
        wall -= sum(speed.samples[1:-1])
        norm = wall * PROBE_REF_S / statistics.fmean(speed.samples)
    if tracer is not None:
        tracer.op = None
    if error is None and code != 0:
        error = f"exit code {code}: {captured.getvalue().strip()[:200]}"
    if error is None:
        try:
            for path in op.artifacts:
                os.replace(path, workloads.kept(path, index))
        except OSError as exc:
            error = f"artifact missing: {exc}"
    return {"subcommand": op.subcommand, "op": position, "wall": wall, "norm": norm, "ok": error is None,
            "error": error}


def program_sizes(qmdp, spec, ops) -> list[dict]:
    """Qubits and gates by kind of the circuit each simulate or search op compiles."""
    out = []
    for op in ops:
        entry = {"subcommand": op.subcommand}
        if op.subcommand in ("simulate", "search"):
            p = op.params
            start = "uniform" if p["start"] is None else p["start"]
            prepared = qmdp.build_preparation(spec, p["steps"], initial=start, include_return=p["include_return"])
            entry.update(qubits=prepared.layout.num_qubits,
                         gates=dict(Counter(gate.kind for gate in prepared.circuit.gates)))
        out.append(entry)
    return out


def host_copy_gbps(num_qubits: int) -> float:
    """numpy copy bandwidth for an amplitude array of the dense state's size (read + write)."""
    import numpy as np

    src = np.ones(1 << num_qubits, dtype=np.complex128)
    dst = np.empty_like(src)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def measure(qmdp, ops, args, model, speed: HostSpeed) -> dict:
    """Repeat rounds for ``--seconds``; in traced runs alternate untraced and traced rounds."""
    tracer = Tracer() if args.trace else None
    records, untraced, untraced_norm, traced = [], [], [], []
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(untraced) > len(traced)
        if trace_this:
            tracer.install(qmdp)
        try:
            walls = []
            for position, op in enumerate(ops):
                if trace_this:
                    record = run_op(qmdp, op, position, len(records), tracer)
                else:
                    record = run_op(qmdp, op, position, len(records), speed=speed)
                record["traced"] = trace_this
                records.append(record)
                walls.append(record["wall"])
        finally:
            if trace_this:
                tracer.uninstall()
        (traced if trace_this else untraced).append(sum(walls))
        if not trace_this:
            untraced_norm.append(sum(record["norm"] for record in records[-len(ops):]))
        if len(untraced) == 1 and not traced:
            # later rounds only add allocator growth from repeating ops in one process
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        done = time.perf_counter() - start >= args.seconds
        if done and (tracer is None or traced):
            break
    out = {"ops": records, "rounds": untraced, "rounds_norm": untraced_norm, "traced_rounds": traced,
           "peak_rss_mib": peak_rss_mib}
    if tracer is not None:
        copy = 0.0  # measured only next to a dense amplitude array
        for op in ops:
            if op.check == "dense":
                layout = workloads.layout_for(model, op.params["steps"], op.params["include_return"])
                copy = host_copy_gbps(layout.num_qubits)
        out["per_layer"] = per_layer(tracer.spans, len(traced), traced, untraced, copy)
        accounting = op_accounting(tracer.spans)
        for index, record in enumerate(records):
            if record["traced"]:
                record.update(accounting.get(index, {}))
        if args.spans:
            tracer.write(args.spans, {"workload": args.workload, "seed": args.seed,
                                      "traced_rounds": traced, "untraced_rounds": untraced})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True, help="inputs and kept artifacts (owned by the caller)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="span file path (traced runs)")
    args = parser.parse_args(argv)

    qmdp = import_program()
    model_path = workloads.write_model(args.workload, args.seed, args.workdir, qmdp, args.scale)
    with open(model_path, encoding="utf-8") as handle:
        text = handle.read()
    spec = qmdp.load(text)  # the parsing and validation the CLI repeats on every op
    print("READY", flush=True)
    speed = HostSpeed()
    print(f"SPEED {speed.mean_of(20)!r}", flush=True)
    if args.setup_only:
        return 0

    ops = workloads.op_mix(args.workload, args.seed, args.workdir, args.scale)
    for op in ops:
        if op.check == "dense":  # the sparse CSV for the same flags, once per run
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                if qmdp.cli.main(list(op.params["sparse_argv"])) != 0:
                    raise SystemExit("sparse reference run failed")
    result = {"workload": args.workload, "seed": args.seed, "env": environment(qmdp),
              "why": workloads.WORKLOADS[args.workload].why, "sizes": program_sizes(qmdp, spec, ops)}
    result.update(measure(qmdp, ops, args, json.loads(text), speed))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
