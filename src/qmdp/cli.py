"""Command-line front end.

Four subcommands over one shared flag vocabulary: ``simulate`` runs the
preparation circuit and writes the trajectory distribution, ``search`` runs
amplitude amplification and writes a search report, ``enumerate`` writes
the classical catalog, and ``qlearn`` trains a Q-table and reports the
greedy policy with rollout summaries.

Artifacts go to ``--out`` when given (sibling files derive from its stem),
otherwise to stdout. ``simulate`` and ``enumerate`` write their trajectory
tables, CSV or JSON, through one renderer, ``_trajectory_text``. Tables
arrive in ascending bit string order, and it alone lists rows by
:func:`probability_order`, which rounds with numpy and hands only entries
near a half-way point to Python's ``round``. Its CSV branch builds every
row at once as one byte matrix of column texts, with no per-row Python
work but one ``repr`` per probability. Identical flags and seed give
byte-identical artifacts: every random draw is seeded, and all float text
uses repr round-tripping. ``--start`` is resolved once, when the model is
loaded, so every library call reads it from the model.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .classical import QlConfig, enumerate_trajectories, greedy_policy, greedy_rollouts, q_learning
from .layout import STEP_ROLES, RegisterLayout
from .layout import decode_trajectory  # noqa: F401  perfbench/tracer.py wraps cli.decode_trajectory
from .mdp import _echo, bundled_mdp, load, resolve_start
from .prepare import build_preparation, simulate_distribution
from .search import grover_search
from .sim import check_width, format_circuit

TRAJECTORY_NUMBER_NOTE = (
    "# trajectory is the 1-based rank of the bitstring among all"
    " enumerated trajectories in ascending bitstring order"
)


class CliError(Exception):
    """Flag or input problem that should exit 1 with a message."""


def _int_flag(text: str) -> int:
    """argparse's ``int`` conversion, with a huge bad value echoed by its size."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_echo(text, repr)}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmdp",
        description="Quantum decision-process laboratory: compile, simulate, search, compare.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, backend=False, sampling=False, target=False, dump=False, fmt="csv"):
        p.add_argument("--mdp", default="bundled", help="model JSON path, or 'bundled'")
        p.add_argument("--steps", type=_int_flag, default=3, help="horizon T (default 3)")
        p.add_argument("--start", default=None, help="'uniform' or 'fixed:N'; default: the model's own")
        p.add_argument("--out", default=None, help="artifact path; stdout when omitted")
        p.add_argument("--format", choices=("csv", "json"), default=fmt, help=f"artifact format (default {fmt})")
        if backend:
            p.add_argument("--backend", choices=("dense", "sparse"), default="sparse")
        if sampling:
            p.add_argument("--shots", type=_int_flag, default=0)
            p.add_argument("--seed", type=_int_flag, default=None)
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
    qlearn.add_argument("--shots", type=_int_flag, default=100, help="greedy rollout trials (default 100)")
    qlearn.add_argument("--seed", type=_int_flag, default=None, help="training and rollout seed (required)")
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
            raise CliError(f"bad --start state {_echo(tail, repr)}") from None
    raise CliError(f"--start must be 'uniform' or 'fixed:N', got {_echo(text, repr)}")


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


def _write_artifact(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2)`` and a final newline, joined once: adding
    the newline to the dumped text would copy the whole document again."""
    return "".join([*json.JSONEncoder(indent=2).iterencode(doc), "\n"])


def _sibling_path(out: str, suffix: str, extension: str) -> str:
    return f"{os.path.splitext(out)[0]}_{suffix}{extension}"


def rounded_probability(probability: np.ndarray) -> np.ndarray:
    """Each entry rounded to 12 places, bit for bit as Python's ``round(p, 12)``.

    For a probability (p <= 1, so p * 1e12 < 2**40), ``np.rint(p * 1e12) /
    1e12`` is that value wherever the product lies clearly off a half-way
    point: the product's rounding error (under 1.3e-4) cannot move it
    across, and dividing the integer by ``1e12`` is correctly rounded, as is
    Python's decimal path. Entries whose product lies within 1e-3 of a
    half-way point are rounded by Python's ``round`` itself; ``np.round``
    alone differs from it on a few values in a million.
    """
    scaled = probability * 1e12
    rounded = np.rint(scaled) / 1e12
    near_half = np.abs(scaled - np.floor(scaled) - 0.5) < 1e-3
    rounded[near_half] = [round(p, 12) for p in probability[near_half].tolist()]
    return rounded


def probability_order(probability: np.ndarray) -> np.ndarray:
    """Row order of every trajectory listing, given rows in ascending bit
    string order: descending probability, rounded to 12 places by
    :func:`rounded_probability` so float dust cannot reorder ties, then
    ascending bit string, which the stable sort keeps."""
    return np.argsort(-rounded_probability(probability), kind="stable")


def _rows_of(bits: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's row in ``bits``, an ascending ``S`` array, and whether the
    key is there."""
    row = np.searchsorted(bits, keys)
    found = row < len(bits)
    found[found] = bits[row[found]] == keys[found]
    return row, found


def _cells(column: np.ndarray, template: str) -> np.ndarray:
    """``template.format(v)`` of each entry of an integer array (int64, or
    Python ints in an object array) as ASCII bytes, one text per distinct
    value gathered by index; the result keeps the column's shape."""
    distinct = np.unique(column)  # searchsorted below: return_inverse's index arrays cost 2.5x the memory
    text = np.array([template.format(v) for v in distinct.tolist()], dtype="S")
    return text[np.searchsorted(distinct, column)]


def _trajectory_text(table, counts, fmt: str) -> str:
    """The simulate and enumerate table, its rows in :func:`probability_order`;
    ``counts`` fills the count column (empty or null when None; keys not in
    the table are ignored). CSV rows are built as one byte matrix: every
    column is a NUL-padded ``S`` array gathered into that order and viewed
    as bytes, with one ``repr`` per probability and one text per distinct
    return, count and step value; the padding is dropped once at the end."""
    order = probability_order(table.probability)  # columns gather through it as temporaries
    values = table.registers[:, :-1]  # the step registers, a view
    if fmt == "json":
        bits = table.bitstrings()[order].astype(str).tolist()
        rows = zip(bits, table.total_return[order].tolist(), table.probability[order].tolist(),
                   values[order].reshape(len(table), table.layout.steps, -1).tolist())
        doc = [{
            "bitstring": b,
            "return": ret,
            "prob": prob,
            "count": None if counts is None else counts.get(b, 0),
            "steps": path,
        } for b, ret, prob, path in rows]
        return _json_text(doc)
    bits = table.bitstrings()  # ascending, so drawn counts scatter onto rows by searchsorted
    if counts is None:
        count_cells = np.full((len(table), 1), b",", dtype="S1")
    else:
        row, found = _rows_of(bits, np.array(list(counts), dtype="S"))
        drawn = np.zeros(len(table), dtype=np.int64)
        drawn[row[found]] = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))[found]
        count_cells = _cells(drawn[order, None], ",{}")
    columns = [
        bits[order, None],
        _cells(table.total_return[order, None], ",{},"),
        np.array([repr(p) for p in table.probability[order].tolist()], dtype="S")[:, None],
        count_cells,
        _cells(values[order], ",{}"),
        np.full((len(table), 1), b"\n", dtype="S1"),
    ]
    header = "bitstring,return,prob,count" + "".join(f",s{t},a{t},sp{t},r{t}" for t in range(table.layout.steps))
    matrix = np.hstack([column.view(np.uint8) for column in columns])
    return b"".join([f"{header}\n".encode(), matrix]).replace(b"\0", b"").decode("ascii")


def _transition_table_text(table, fmt: str) -> str:
    # One-step rows: P(next | state, action) is a row's probability over its
    # (state, action) mass, summed in the table's ascending bit string (basis
    # index) order, the fixed reduction order of the simulator.
    mass, joint = {}, {}
    for (s, a, nxt), p in zip(table.registers[:, :3].tolist(), table.probability.tolist()):
        mass[s, a] = mass.get((s, a), 0.0) + p
        joint[s, a, nxt] = p
    rows = [(s, a, nxt, p / mass[s, a]) for (s, a, nxt), p in sorted(joint.items())]
    if fmt == "json":
        return _json_text([{"state": s, "action": a, "next": n, "prob": p} for s, a, n, p in rows])
    lines = ["state,action,next,prob"]
    lines.extend(f"{s},{a},{n},{p!r}" for s, a, n, p in rows)
    lines.append("")  # the final newline
    return "\n".join(lines)


def _cmd_simulate(args) -> int:
    _require_seed(args)
    spec = _load_spec(args.mdp, args.start)
    check_width(RegisterLayout.for_mdp(spec, args.steps, include_return=args.steps > 1).num_qubits, args.backend)
    prepared = build_preparation(spec, args.steps, include_return=args.steps > 1)
    if args.dump_circuit:
        _write_artifact(format_circuit(prepared.circuit), args.dump_circuit)
    table = simulate_distribution(prepared, args.backend)
    counts = None
    if args.shots:
        counts = prepared.prepare_state(args.backend).sample(args.shots, args.seed)
    _write_artifact(_trajectory_text(table, counts, args.format), args.out)
    if args.steps == 1 and args.out:
        extension = ".json" if args.format == "json" else ".csv"
        _write_artifact(
            _transition_table_text(table, args.format),
            _sibling_path(args.out, "transitions", extension),
        )
    return 0


def _cmd_enumerate(args) -> int:
    spec = _load_spec(args.mdp, args.start)
    table = enumerate_trajectories(spec, args.steps, None, include_return=args.steps > 1)
    _write_artifact(_trajectory_text(table, None, args.format), args.out)
    return 0


def _resolve_target(raw, spec, steps) -> int:
    if raw is None:
        raise CliError("search needs --target-return (an integer or 'max')")
    if raw == "max":
        return int(enumerate_trajectories(spec, steps, None).total_return.max())
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"--target-return must be an integer or 'max', got {_echo(raw, repr)}") from None


def _resolve_iterations(raw) -> int | None:
    if raw == "auto":
        return None
    try:
        value = int(raw)
    except ValueError:
        raise CliError(f"--iterations must be an integer or 'auto', got {_echo(raw, repr)}") from None
    if value < 0:
        raise CliError(f"--iterations must be >= 0, got {_echo(value)}")
    return value


def _report_json(report) -> str:
    table, counts = report.marked, report.counts
    bits = table.bitstrings().astype(str).tolist()
    steps = table.registers[:, :-1].reshape(len(table), table.layout.steps, len(STEP_ROLES)).tolist()
    rows = zip(bits, steps, table.total_return.tolist(), table.probability.tolist(), report.marked_after.tolist())
    marked = [{
        "bitstring": b,
        "steps": s,
        "return": total,
        "p_before": before,
        "p_after": after,
        "count": counts.get(b, 0) if counts is not None else None,
    } for b, s, total, before, after in rows]
    doc = {
        "iterations": report.iterations,
        "p0": report.probability_before,
        "p_after": report.probability_after,
        "marked": marked,
        "shots": report.shots,
        "seed": report.seed,
    }
    return _json_text(doc)


def _counts_csv(spec, steps, counts) -> str:
    catalog = enumerate_trajectories(spec, steps, None).bitstrings()  # ascending, one byte per digit
    sampled = np.array(list(counts), dtype="S")
    rank, known = _rows_of(catalog, sampled)
    if not known.all():
        raise CliError(f"sampled bit string {min(sampled[~known]).decode()} is not in the enumerated catalog")
    lines = [TRAJECTORY_NUMBER_NOTE, "trajectory,count"]
    numbered = sorted(zip((rank + 1).tolist(), counts.values()))
    lines.extend(f"{number},{count}" for number, count in numbered)
    lines.append("")  # the final newline
    return "\n".join(lines)


def _cmd_search(args) -> int:
    if args.format != "json":
        raise CliError("search reports are JSON; pass --format json or drop the flag")
    _require_seed(args)
    spec = _load_spec(args.mdp, args.start)
    check_width(RegisterLayout.for_mdp(spec, args.steps).num_qubits, args.backend)
    prepared = build_preparation(spec, args.steps)
    if args.dump_circuit:
        _write_artifact(format_circuit(prepared.circuit), args.dump_circuit)
    target = _resolve_target(args.target_return, spec, args.steps)
    report = grover_search(
        prepared,
        target,
        backend=args.backend,
        iterations=_resolve_iterations(args.iterations),
        shots=args.shots,
        seed=args.seed,
    )
    _write_artifact(_report_json(report), args.out)
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
    rollouts = greedy_rollouts(spec, table, trials=args.shots, horizon=args.steps, seed=args.seed)
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
    _write_artifact(_json_text(doc), args.out)
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
    except MemoryError as exc:  # numpy's message names the refused allocation
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
