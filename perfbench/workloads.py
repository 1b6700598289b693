"""Workload definitions, the seeded model generator and the exact reference.

A workload is a round of CLI calls (an "op mix") that the worker repeats.
Every input is derived from the workload seed; the program sees only the
generated model file and the flags. ``scale="toy"`` shrinks each workload
to a size the benchmark's own tests can run in seconds.

The reference enumerator below is written independently of ``qmdp``: it
walks every path of the model under the uniform action draw and packs each
trajectory into the documented register layout (per step state | action |
next | reward ascending from qubit 0, the return register on top), so the
artifacts can be checked without trusting the program's own enumerator.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

SCALES = ("full", "toy")


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, the artifacts it writes and how to check them."""

    subcommand: str
    argv: tuple[str, ...]
    artifacts: tuple[str, ...]
    check: str  # which check in checks.check_op applies
    params: dict = field(default_factory=dict, hash=False, compare=False)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Interpreter-bound ops slow down with the host-speed probe (worker.HostSpeed), so
    # time_to_solution_s rescales them by it. Memory-bound ops slow down far less: rescaling
    # dense-25q widened its run-to-run spread (IQR/median over ten seeds) from 0.05-0.09 to
    # 0.13-0.20, so its time_to_solution_s is the plain wall time.
    normalise: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "amplify-t7",
            "sparse T=7 search with 7 Grover rounds: the diffuser dominates; readout covers the marked set only",
        ),
        Workload(
            "distribution-s8t4",
            "seeded 8-state model, no Grover rounds: sparse preparation, full readout of 32768 rows, classical baselines",
        ),
        Workload(
            "dense-25q",
            "dense 25-qubit simulate: a 512 MiB amplitude array, bound by memory bandwidth; the sparse kernel is idle",
            normalise=False,
        ),
    )
}


# --- models -----------------------------------------------------------------


def generated_model(seed: int, num_states: int, num_actions: int) -> dict:
    """A model whose compiled circuit has the same size on every seed.

    Each (state, action) row takes one successor from every pair of states
    {2k, 2k+1}, the odd member in exactly half of the pairs, so every
    transition's rotation tree has the same shape; weights are drawn as
    ``rng.random(k) + 0.05`` and normalised, the way the repository's test
    helper draws random models. Rewards are a seeded permutation of
    0..num_states-1 other than the identity, so the reward marking emits the
    same gates and the register layout does not depend on the seed.
    """
    rng = np.random.default_rng(seed)
    pairs = num_states // 2
    transitions = []
    for s in range(num_states):
        for a in range(num_actions):
            odd = np.zeros(pairs, dtype=int)
            odd[rng.choice(pairs, size=pairs // 2, replace=False)] = 1
            weights = rng.random(pairs) + 0.05
            weights = weights / weights.sum()
            transitions.extend(
                {"state": s, "action": a, "next": 2 * k + int(odd[k]), "prob": float(weights[k])}
                for k in range(pairs)
            )
    rewards = list(range(num_states))
    while rewards == list(range(num_states)):  # the identity compiles to a shorter copy circuit
        rewards = [int(r) for r in rng.permutation(num_states)]
    return {
        "num_states": num_states,
        "num_actions": num_actions,
        "transitions": transitions,
        "rewards": rewards,
        "initial": "uniform",
    }


def bundled_model(qmdp) -> dict:
    """The program's bundled model as a plain document (input data only)."""
    spec = qmdp.bundled_mdp()
    return {
        "num_states": spec.num_states,
        "num_actions": spec.num_actions,
        "transitions": [
            {"state": t.state, "action": t.action, "next": t.next_state, "prob": t.prob}
            for t in spec.transitions
        ],
        "rewards": list(spec.rewards),
        "initial": "uniform" if spec.initial is None else {"fixed": spec.initial},
    }


# --- op mixes ---------------------------------------------------------------


def _sizes(name: str, scale: str) -> dict:
    toy = scale == "toy"
    if name == "amplify-t7":
        return {"steps": 3 if toy else 7, "shots": 64 if toy else 4096}
    if name == "distribution-s8t4":
        return {"steps": 2 if toy else 4, "states": 4 if toy else 8, "shots": 64 if toy else 4096}
    if name == "dense-25q":
        return {"steps": 2 if toy else 3}
    raise KeyError(name)


def write_model(name: str, seed: int, workdir: str, qmdp, scale: str = "full") -> str:
    """Write the workload's model document to ``workdir/model.json`` and return its path.

    The distribution workload's CLI calls read this file; the others run
    ``--mdp bundled`` and the file only feeds the references.
    """
    if name == "distribution-s8t4":
        model = generated_model(seed, _sizes(name, scale)["states"], 2)
    else:
        model = bundled_model(qmdp)
    path = os.path.join(workdir, "model.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(model, indent=2) + "\n")
    return path


def op_mix(name: str, seed: int, workdir: str, scale: str = "full") -> list[Op]:
    """The op mix of one round; artifacts and inputs live under ``workdir``."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    size = _sizes(name, scale)
    steps = str(size["steps"])
    # simulate and enumerate drop the return register at one step, as the CLI does
    include_return = size["steps"] > 1

    def out(leaf: str) -> str:
        return os.path.join(workdir, leaf)

    if name == "amplify-t7":
        flags = ("--mdp", "bundled", "--steps", steps, "--start", "fixed:0")
        return [Op(
            "search",
            ("search",) + flags + ("--target-return", "max", "--iterations", "auto",
                                   "--shots", str(size["shots"]), "--seed", str(seed), "--out", out("search.json")),
            (out("search.json"), out("search_counts.csv")),
            "search",
            {"steps": size["steps"], "start": 0, "include_return": True, "shots": size["shots"], "seed": seed},
        )]

    if name == "distribution-s8t4":
        flags = ("--mdp", out("model.json"), "--steps", steps, "--start", "uniform")
        params = {"steps": size["steps"], "start": None, "include_return": include_return}
        return [
            Op("simulate",
               ("simulate",) + flags + ("--shots", str(size["shots"]), "--seed", str(seed), "--out", out("sim.csv")),
               (out("sim.csv"),), "trajectories", dict(params, shots=size["shots"])),
            Op("enumerate", ("enumerate",) + flags + ("--out", out("enum.csv")),
               (out("enum.csv"),), "trajectories", dict(params, shots=0)),
            Op("qlearn", ("qlearn",) + flags + ("--seed", str(seed), "--out", out("ql.json")),
               (out("ql.json"),), "qlearn", dict(params, shots=100, seed=seed)),
        ]

    flags = ("--mdp", "bundled", "--steps", steps, "--start", "fixed:0")
    return [Op(
        "simulate",
        ("simulate",) + flags + ("--backend", "dense", "--out", out("dense.csv")),
        (out("dense.csv"),),
        "dense",
        {"steps": size["steps"], "start": 0, "include_return": include_return, "shots": 0,
         "sparse_argv": ("simulate",) + flags + ("--backend", "sparse", "--out", out("sparse_ref.csv")),
         "sparse_out": out("sparse_ref.csv")},
    )]


def kept(path: str, index: int) -> str:
    """Where the worker keeps op ``index``'s copy of an artifact for the checks."""
    return f"{path}.op{index}"


# --- the exact reference ----------------------------------------------------


def _width(count: int) -> int:
    return max(1, (count - 1).bit_length())


@dataclass(frozen=True)
class Layout:
    state_bits: int
    action_bits: int
    reward_bits: int
    steps: int
    return_bits: int

    @property
    def num_qubits(self) -> int:
        return self.steps * (2 * self.state_bits + self.action_bits + self.reward_bits) + self.return_bits


def layout_for(model: dict, steps: int, include_return: bool) -> Layout:
    reward_bits = max(model["rewards"]).bit_length()
    return_bits = (steps * (2**reward_bits - 1)).bit_length() if include_return else 0
    return Layout(_width(model["num_states"]), _width(model["num_actions"]), reward_bits, steps, return_bits)


def bitstring(layout: Layout, steps, total: int) -> str:
    index = 0
    offset = 0
    for s, a, nxt, r in steps:
        for value, width in ((s, layout.state_bits), (a, layout.action_bits),
                             (nxt, layout.state_bits), (r, layout.reward_bits)):
            index |= value << offset
            offset += width
    if layout.return_bits:
        index |= total << offset
    return format(index, f"0{layout.num_qubits}b")


@dataclass(frozen=True)
class Trajectory:
    bitstring: str
    steps: tuple[tuple[int, int, int, int], ...]
    total: int
    prob: float


def reference(model: dict, steps: int, start: int | None, include_return: bool) -> dict[str, Trajectory]:
    """Every supported trajectory keyed by bit string, with exact probability."""
    layout = layout_for(model, steps, include_return)
    successors: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for t in model["transitions"]:
        if t["prob"] > 0.0:
            successors.setdefault((t["state"], t["action"]), []).append((t["next"], t["prob"]))
    rewards = model["rewards"]
    actions = model["num_actions"]
    starts = [(start, 1.0)] if start is not None else [
        (s, 1.0 / model["num_states"]) for s in range(model["num_states"])
    ]
    out: dict[str, Trajectory] = {}
    stack = [(s0, p0, ()) for s0, p0 in starts]
    while stack:
        state, prob, path = stack.pop()
        if len(path) == steps:
            total = sum(r for _, _, _, r in path)
            bits = bitstring(layout, path, total)
            out[bits] = Trajectory(bits, path, total, prob)
            continue
        for a in range(actions):
            for nxt, p in sorted(successors.get((state, a), ())):
                stack.append((nxt, prob * (1.0 / actions) * p, path + ((state, a, nxt, rewards[nxt]),)))
    return out


def grover_rounds(p0: float) -> int:
    """The round count ``--iterations auto`` should pick for marked mass p0."""
    if not 0.0 < p0 < 1.0:
        return 0
    return max(1, round(math.pi / (4.0 * math.asin(math.sqrt(p0))) - 0.5))


def sin2_law(p0: float, rounds: int) -> float:
    return math.sin((2 * rounds + 1) * math.asin(math.sqrt(p0))) ** 2
