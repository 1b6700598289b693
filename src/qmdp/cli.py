"""Command-line front end.

Four subcommands over one shared flag vocabulary: ``simulate`` runs the
preparation circuit and writes the trajectory distribution, ``search`` runs
amplitude amplification and writes a search report, ``enumerate`` writes
the classical catalog, and ``qlearn`` trains a Q-table and reports the
greedy policy with rollout summaries.

Artifacts go to ``--out`` when given (sibling files derive from its stem),
otherwise to stdout. ``simulate`` and ``enumerate`` write their trajectory
tables, CSV or JSON, through one renderer, ``_trajectory_text``. Identical
flags and seed give byte-identical artifacts: every random draw is seeded,
and all float text uses repr round-tripping. ``--start`` is resolved once,
when the model is loaded, so every library call below reads the start from
the model.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .classical import QlConfig, enumerate_trajectories, greedy_policy, greedy_rollouts, q_learning
from .layout import decode_trajectory, probability_order
from .mdp import bundled_mdp, load, resolve_start
from .prepare import build_preparation, simulate_distribution
from .search import OracleSpec, grover_search
from .sim import check_width, format_circuit

TRAJECTORY_NUMBER_NOTE = (
    "# trajectory is the 1-based rank of the bitstring among all"
    " enumerated trajectories in ascending bitstring order"
)


class CliError(Exception):
    """Flag or input problem that should exit 1 with a message."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmdp",
        description="Quantum decision-process laboratory: compile, simulate, search, compare.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, backend=False, sampling=False, target=False, dump=False, fmt="csv"):
        p.add_argument("--mdp", default="bundled", help="model JSON path, or 'bundled'")
        p.add_argument("--steps", type=int, default=3, help="horizon T (default 3)")
        p.add_argument("--start", default=None, help="'uniform' or 'fixed:N'; default: the model's own")
        p.add_argument("--out", default=None, help="artifact path; stdout when omitted")
        p.add_argument("--format", choices=("csv", "json"), default=fmt, help=f"artifact format (default {fmt})")
        if backend:
            p.add_argument("--backend", choices=("dense", "sparse"), default="sparse")
        if sampling:
            p.add_argument("--shots", type=int, default=0)
            p.add_argument("--seed", type=int, default=None)
        if target:
            p.add_argument("--target-return", default=None, help="integer, or 'max' for the enumerator's best")
            p.add_argument("--iterations", default="auto", help="round count, or 'auto' (default)")
        if dump:
            p.add_argument("--dump-circuit", default=None, help="write the preparation circuit listing here")

    common(sub.add_parser("simulate", help="exact trajectory distribution, optional sampled counts"),
           backend=True, sampling=True, dump=True)
    common(sub.add_parser("search", help="amplitude amplification toward a target return"),
           backend=True, sampling=True, target=True, dump=True, fmt="json")
    common(sub.add_parser("enumerate", help="classical trajectory catalog"))
    qlearn = sub.add_parser("qlearn", help="tabular Q-learning with greedy rollouts")
    common(qlearn, fmt="json")
    qlearn.add_argument("--shots", type=int, default=100, help="greedy rollout trials (default 100)")
    qlearn.add_argument("--seed", type=int, default=None, help="training and rollout seed (required)")
    return parser


def _parse_start(text: str | None) -> int | str | None:
    if text is None:
        return None
    if text == "uniform":
        return "uniform"
    if text.startswith("fixed:"):
        tail = text[len("fixed:"):]
        try:
            return int(tail)
        except ValueError:
            raise CliError(f"bad --start state {tail!r}") from None
    raise CliError(f"--start must be 'uniform' or 'fixed:N', got {text!r}")


def _load_spec(source: str, start: str | None):
    """The model named by ``--mdp`` with ``--start`` resolved into its ``initial``."""
    if source == "bundled":
        spec = bundled_mdp()
    else:
        try:
            with open(source, "r", encoding="utf-8") as handle:
                spec = load(handle.read())
        except OSError as exc:
            raise CliError(f"cannot read model {source}: {exc}") from None
    return resolve_start(spec, _parse_start(start))


def _require_seed(args) -> None:
    if args.shots and args.seed is None:
        raise CliError("--shots needs --seed so the run is reproducible")


def _float_text(value: float) -> str:
    return repr(float(value))


def _write_artifact(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _sibling_path(out: str, suffix: str, extension: str | None = None) -> str:
    stem, ext = os.path.splitext(out)
    return f"{stem}_{suffix}{extension if extension is not None else ext}"


def _trajectory_text(records, steps, counts, fmt: str) -> str:
    """The simulate and enumerate table: one row per record, in the given
    order; ``counts`` fills the count column (empty or null when None)."""
    if fmt == "json":
        rows = [{
            "bitstring": record.bitstring,
            "return": record.total_return,
            "prob": record.probability,
            "count": None if counts is None else counts.get(record.bitstring, 0),
            "steps": [list(step) for step in record.steps],
        } for record in records]
        return json.dumps(rows, indent=2) + "\n"
    lines = ["bitstring,return,prob,count" + "".join(f",s{t},a{t},sp{t},r{t}" for t in range(steps))]
    for record in records:
        count = "" if counts is None else counts.get(record.bitstring, 0)
        lines.append(
            f"{record.bitstring},{record.total_return},{_float_text(record.probability)},{count}"
            + "".join(f",{s},{a},{nxt},{r}" for s, a, nxt, r in record.steps)
        )
    return "\n".join(lines) + "\n"


def _transition_table_text(records, fmt: str) -> str:
    # One-step records: P(next | state, action) is a record's probability over
    # its (state, action) mass, summed in ascending bit string (basis index)
    # order, the fixed reduction order of the simulator.
    mass, joint = {}, {}
    for record in sorted(records, key=lambda r: r.bitstring):
        ((s, a, nxt, _),) = record.steps
        mass[s, a] = mass.get((s, a), 0.0) + record.probability
        joint[s, a, nxt] = record.probability
    rows = [(s, a, nxt, p / mass[s, a]) for (s, a, nxt), p in sorted(joint.items())]
    if fmt == "json":
        doc = [{"state": s, "action": a, "next": n, "prob": p} for s, a, n, p in rows]
        return json.dumps(doc, indent=2) + "\n"
    lines = ["state,action,next,prob"]
    lines.extend(f"{s},{a},{n},{_float_text(p)}" for s, a, n, p in rows)
    return "\n".join(lines) + "\n"


def _cmd_simulate(args) -> int:
    _require_seed(args)
    spec = _load_spec(args.mdp, args.start)
    prepared = build_preparation(spec, args.steps, include_return=args.steps > 1)
    if args.dump_circuit:
        _write_artifact(format_circuit(prepared.circuit), args.dump_circuit)
    records = simulate_distribution(prepared, args.backend)
    counts = None
    if args.shots:
        counts = prepared.prepare_state(args.backend).sample(args.shots, args.seed)
    _write_artifact(_trajectory_text(records, args.steps, counts, args.format), args.out)
    if args.steps == 1 and args.out:
        extension = ".json" if args.format == "json" else ".csv"
        _write_artifact(
            _transition_table_text(records, args.format),
            _sibling_path(args.out, "transitions", extension),
        )
    return 0


def _cmd_enumerate(args) -> int:
    spec = _load_spec(args.mdp, args.start)
    records = sorted(
        enumerate_trajectories(spec, args.steps, None, include_return=args.steps > 1),
        key=lambda r: probability_order(r.probability, r.bitstring),
    )
    _write_artifact(_trajectory_text(records, args.steps, None, args.format), args.out)
    return 0


def _resolve_target(raw, spec, steps) -> int:
    if raw is None:
        raise CliError("search needs --target-return (an integer or 'max')")
    if raw == "max":
        records = enumerate_trajectories(spec, steps, None)
        return max(record.total_return for record in records)
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"--target-return must be an integer or 'max', got {raw!r}") from None


def _resolve_iterations(raw) -> int | None:
    if raw == "auto":
        return None
    try:
        value = int(raw)
    except ValueError:
        raise CliError(f"--iterations must be an integer or 'auto', got {raw!r}") from None
    if value < 0:
        raise CliError(f"--iterations must be >= 0, got {value}")
    return value


def _report_json(prepared, report) -> str:
    marked = []
    for state in report.marked:
        record = decode_trajectory(prepared.layout, state.bitstring)
        marked.append({
            "bitstring": state.bitstring,
            "steps": [list(step) for step in record.steps],
            "return": record.total_return,
            "p_before": state.probability_before,
            "p_after": state.probability_after,
            "count": state.count,
        })
    doc = {
        "iterations": report.iterations,
        "p0": report.probability_before,
        "p_after": report.probability_after,
        "marked": marked,
        "shots": report.shots,
        "seed": report.seed,
    }
    return json.dumps(doc, indent=2) + "\n"


def _counts_csv(spec, steps, counts) -> str:
    catalog = enumerate_trajectories(spec, steps, None)
    rank = {record.bitstring: i + 1 for i, record in enumerate(catalog)}
    unknown = sorted(counts.keys() - rank.keys())
    if unknown:
        raise CliError(f"sampled bit string {unknown[0]} is not in the enumerated catalog")
    lines = [TRAJECTORY_NUMBER_NOTE, "trajectory,count"]
    numbered = sorted((rank[bits], count) for bits, count in counts.items())
    lines.extend(f"{number},{count}" for number, count in numbered)
    return "\n".join(lines) + "\n"


def _cmd_search(args) -> int:
    if args.format != "json":
        raise CliError("search reports are JSON; pass --format json or drop the flag")
    _require_seed(args)
    spec = _load_spec(args.mdp, args.start)
    prepared = build_preparation(spec, args.steps)
    if args.dump_circuit:
        _write_artifact(format_circuit(prepared.circuit), args.dump_circuit)
    check_width(prepared.layout.num_qubits, args.backend)  # before 'max' enumerates the catalog
    target = _resolve_target(args.target_return, spec, args.steps)
    report = grover_search(
        prepared,
        OracleSpec(target_return=target),
        backend=args.backend,
        iterations=_resolve_iterations(args.iterations),
        shots=args.shots,
        seed=args.seed,
    )
    _write_artifact(_report_json(prepared, report), args.out)
    if args.out and report.counts is not None:
        _write_artifact(
            _counts_csv(spec, args.steps, report.counts),
            _sibling_path(args.out, "counts", ".csv"),
        )
    return 0


def _cmd_qlearn(args) -> int:
    if args.format != "json":
        raise CliError("qlearn reports are JSON; pass --format json or drop the flag")
    if args.seed is None:
        raise CliError("qlearn draws training samples; --seed is required")
    if args.shots < 1:
        raise CliError(f"--shots (rollout trials) must be >= 1, got {args.shots}")
    if args.steps < 1:  # the message simulate, search and enumerate give
        raise CliError(f"steps must be >= 1, got {args.steps}")
    spec = _load_spec(args.mdp, args.start)
    config = QlConfig(seed=args.seed, horizon=args.steps)
    table = q_learning(spec, config)
    policy = greedy_policy(table).tolist()
    policy_line = " ".join(f"s{s}:a{a}" for s, a in enumerate(policy))
    rollouts = greedy_rollouts(spec, table, trials=args.shots, horizon=args.steps, initial=None, seed=args.seed)
    doc = {
        "config": asdict(config),
        "q": table.tolist(),
        "policy": policy,
        "policy_line": policy_line,
        "rollouts": [
            {"steps": [list(step) for step in record.steps],
             "return": record.total_reward,
             "count": record.count}
            for record in rollouts
        ],
    }
    _write_artifact(json.dumps(doc, indent=2) + "\n", args.out)
    print(policy_line, file=sys.stderr)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "search": _cmd_search,
    "enumerate": _cmd_enumerate,
    "qlearn": _cmd_qlearn,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    # MdpFormatError and MdpValidationError are ValueErrors
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
