"""Output checks: every artifact an op writes is compared with an exact reference.

A check raises :class:`CheckFailed` with a one-line reason; the worker counts
the op as failed. Probabilities are compared with a fixed tolerance (1e-12),
amplified masses with the sin^2 law (1e-9), everything else exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math

from workloads import Trajectory, grover_rounds, kept, reference, sin2_law

PROB_TOL = 1e-12
LAW_TOL = 1e-9


class CheckFailed(Exception):
    """An artifact disagrees with its reference."""


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


class References:
    """Reference enumerations of one model, computed once per (steps, start, return register)."""

    def __init__(self, model: dict):
        self.model = model
        self._cache: dict = {}

    def for_op(self, op) -> dict[str, Trajectory]:
        p = op.params
        key = (p["steps"], p["start"], p["include_return"])
        if key not in self._cache:
            self._cache[key] = reference(self.model, *key)
        return self._cache[key]


def _float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CheckFailed(f"{what}: not a number: {text!r}") from None


def check_trajectory_csv(text: str, ref: dict[str, Trajectory], steps: int, shots: int) -> None:
    """A simulate or enumerate CSV: support, probabilities, columns, order, counts."""
    rows = list(csv.reader(io.StringIO(text)))
    header = ["bitstring", "return", "prob", "count"]
    for t in range(steps):
        header += [f"s{t}", f"a{t}", f"sp{t}", f"r{t}"]
    _require(bool(rows) and rows[0] == header, "CSV header differs from the documented columns")
    body = rows[1:]
    seen = {row[0] for row in body}
    _require(len(seen) == len(body), "CSV repeats a bitstring")
    _require(seen == set(ref), f"CSV support has {len(seen)} rows, the reference {len(ref)}")
    probs = []
    total_count = 0
    for row in body:
        _require(len(row) == len(header), f"row {row[0]} has {len(row)} fields")
        expect = ref[row[0]]
        prob = _float(row[2], f"prob of {row[0]}")
        _require(abs(prob - expect.prob) <= PROB_TOL, f"prob of {row[0]} is {prob!r}, reference {expect.prob!r}")
        _require(int(row[1]) == expect.total, f"return of {row[0]} differs from the reference")
        decoded = tuple(tuple(int(v) for v in row[4 + 4 * t: 8 + 4 * t]) for t in range(steps))
        _require(decoded == expect.steps, f"step columns of {row[0]} differ from the reference")
        if shots:
            total_count += int(row[3])
        else:
            _require(row[3] == "", f"row {row[0]} has a count without shots")
        probs.append((prob, row[0]))
    order = [bits for _, bits in sorted(probs, key=lambda pb: (-round(pb[0], 12), pb[1]))]
    _require(order == [row[0] for row in body], "rows are not in descending-probability order")
    _require(total_count == shots, f"counts sum to {total_count}, expected {shots}")


def max_return_set(ref: dict[str, Trajectory]) -> tuple[int, dict[str, Trajectory]]:
    """The best total return and the trajectories that reach it (what ``--target-return max`` marks)."""
    best = max(t.total for t in ref.values())
    return best, {bits: t for bits, t in ref.items() if t.total == best}


def check_search(report_text: str, counts_text: str, ref: dict[str, Trajectory], shots: int, seed: int) -> None:
    """A search report and its counts sibling against the reference and the sin^2 law."""
    report = json.loads(report_text)
    best, marked_ref = max_return_set(ref)
    p0_ref = sum(t.prob for t in marked_ref.values())
    rounds = grover_rounds(p0_ref)
    _require(report["iterations"] == rounds, f"iterations {report['iterations']}, expected {rounds}")
    _require(abs(report["p0"] - p0_ref) <= PROB_TOL, f"p0 {report['p0']!r}, reference {p0_ref!r}")
    law = sin2_law(report["p0"], report["iterations"])
    _require(abs(report["p_after"] - law) <= LAW_TOL, f"p_after {report['p_after']!r} misses sin^2 law {law!r}")
    marked = {m["bitstring"]: m for m in report["marked"]}
    _require(set(marked) == set(marked_ref), "marked set differs from the reference max-return set")
    for bits, m in marked.items():
        expect = marked_ref[bits]
        _require(abs(m["p_before"] - expect.prob) <= PROB_TOL, f"p_before of {bits} differs from the reference")
        _require(m["return"] == best and tuple(map(tuple, m["steps"])) == expect.steps,
                 f"decoded steps of {bits} differ from the reference")
    _require(abs(sum(m["p_after"] for m in marked.values()) - report["p_after"]) <= PROB_TOL,
             "marked p_after values do not sum to the report's p_after")
    _require(report["shots"] == shots and report["seed"] == seed, "shots or seed not echoed")

    lines = counts_text.splitlines()
    _require(len(lines) >= 2 and lines[0].startswith("#") and lines[1] == "trajectory,count",
             "counts CSV header differs")
    rank = {bits: i + 1 for i, bits in enumerate(sorted(ref))}
    by_rank = {}
    for line in lines[2:]:
        number, count = (int(v) for v in line.split(","))
        _require(1 <= number <= len(ref), f"counts CSV names trajectory {number} of {len(ref)}")
        by_rank[number] = count
    _require(sum(by_rank.values()) == shots, f"counts sum to {sum(by_rank.values())}, expected {shots}")
    for bits, m in marked.items():
        _require(m["count"] == by_rank.get(rank[bits], 0), f"count of {bits} disagrees with the counts CSV")


def check_qlearn(text: str, model: dict, steps: int, start: int | None, shots: int, seed: int) -> None:
    """A qlearn report: table shape, greedy policy, and rollouts the model can produce."""
    doc = json.loads(text)
    q = doc["q"]
    states, actions = model["num_states"], model["num_actions"]
    _require(len(q) == states and all(len(row) == actions for row in q), "Q-table has the wrong shape")
    _require(all(math.isfinite(v) for row in q for v in row), "Q-table holds a non-finite value")
    policy = [max(range(actions), key=lambda a: (row[a], -a)) for row in q]
    _require(doc["policy"] == policy, "policy is not the greedy argmax of the Q-table")
    _require(doc["policy_line"] == " ".join(f"s{s}:a{a}" for s, a in enumerate(policy)), "policy line differs")
    _require(doc["config"]["horizon"] == steps and doc["config"]["seed"] == seed, "config not echoed")
    support = {(t["state"], t["action"], t["next"]) for t in model["transitions"] if t["prob"] > 0.0}
    total = 0
    keys = []
    for rollout in doc["rollouts"]:
        path = [tuple(step) for step in rollout["steps"]]
        _require(len(path) == steps, "rollout has the wrong length")
        _require(start is None or path[0][0] == start, "rollout ignores the fixed start")
        for t, (s, a, nxt, r) in enumerate(path):
            _require(a == policy[s], "rollout leaves the greedy policy")
            _require((s, a, nxt) in support, "rollout takes a transition the model does not have")
            _require(r == model["rewards"][nxt], "rollout reward differs from the model")
            _require(t == 0 or path[t - 1][2] == s, "rollout steps do not chain")
        _require(rollout["return"] == sum(step[3] for step in path), "rollout return is not its reward sum")
        total += rollout["count"]
        keys.append((-rollout["return"], path))
    _require(total == shots, f"rollout counts sum to {total}, expected {shots}")
    _require(keys == sorted(keys), "rollouts are not ordered by descending return")


def check_op(op, texts: list[str], refs: References, sparse_csv: str | None) -> None:
    """Dispatch on the op's check kind; ``texts`` are its artifacts in order."""
    p = op.params
    if op.check == "trajectories":
        check_trajectory_csv(texts[0], refs.for_op(op), p["steps"], p["shots"])
    elif op.check == "dense":
        _require(texts[0] == sparse_csv, "dense CSV is not byte-identical to the sparse CSV")
        check_trajectory_csv(texts[0], refs.for_op(op), p["steps"], 0)
    elif op.check == "search":
        check_search(texts[0], texts[1], refs.for_op(op), p["shots"], p["seed"])
    elif op.check == "qlearn":
        check_qlearn(texts[0], refs.model, p["steps"], p["start"], p["shots"], p["seed"])
    else:
        raise ValueError(f"unknown check {op.check!r}")


def verify(ops: list, records: list[dict], refs: References, sparse_csv: str | None) -> None:
    """Check the kept artifacts of every op the worker ran; a failing record gets ok=False.

    ``records[i]`` ran ``ops[records[i]["op"]]`` and kept its artifacts as
    ``kept(path, i)``. Besides the reference checks, every artifact must be
    byte-identical to the first one produced for the same flags and seed.
    """
    first: dict = {}
    for index, record in enumerate(records):
        if not record["ok"]:
            continue
        op = ops[record["op"]]
        try:
            texts = []
            for path in op.artifacts:
                with open(kept(path, index), encoding="utf-8") as handle:
                    texts.append(handle.read())
            if texts != first.setdefault(op.argv, texts):
                raise CheckFailed("artifact differs from the first one for the same flags and seed")
            check_op(op, texts, refs, sparse_csv)
        except (CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            record.update(ok=False, error=f"check failed: {exc}")
