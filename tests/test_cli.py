"""End-to-end checks of the command-line front end.

Each test drives ``qmdp.cli.main`` in process and inspects artifacts,
exit codes, and reproducibility guarantees.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmdp
from qmdp import MdpSpec, Transition, build_preparation, bundled_mdp, save, simulate_distribution
from qmdp.cli import CliError, _counts_csv, _trajectory_text, main, probability_order, rounded_probability
from qmdp.classical import enumerate_trajectories

from conftest import random_mdp


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def csv_rows(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_enumerate_t1_has_15_rows(capsys):
    code, out, _ = run(capsys, "enumerate", "--steps", "1", "--start", "uniform")
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 15
    assert all(len(row["bitstring"]) == 7 for row in rows)
    assert math.isclose(sum(float(row["prob"]) for row in rows), 1.0, abs_tol=1e-12)
    probs = [float(row["prob"]) for row in rows]
    assert probs == sorted(probs, reverse=True)


def test_enumerate_t3_uniform_208_rows_sum_to_one(capsys):
    code, out, _ = run(capsys, "enumerate", "--steps", "3", "--start", "uniform")
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 208
    assert all(len(row["bitstring"]) == 25 for row in rows)
    assert math.isclose(sum(float(row["prob"]) for row in rows), 1.0, abs_tol=1e-12)


def test_simulate_matches_enumerate_row_by_row(capsys):
    code_sim, out_sim, _ = run(capsys, "simulate", "--steps", "3", "--start", "uniform")
    code_enum, out_enum, _ = run(capsys, "enumerate", "--steps", "3", "--start", "uniform")
    assert code_sim == 0 and code_enum == 0
    sim_rows = csv_rows(out_sim)
    enum_rows = csv_rows(out_enum)
    assert len(sim_rows) == len(enum_rows)
    for sim, ref in zip(sim_rows, enum_rows):
        assert sim["bitstring"] == ref["bitstring"]
        assert sim["return"] == ref["return"]
        assert abs(float(sim["prob"]) - float(ref["prob"])) < 1e-9


def test_simulate_shots_sum_and_columns(capsys, tmp_path):
    out = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "simulate", "--steps", "1", "--start", "uniform",
                     "--shots", "4096", "--seed", "7", "--out", str(out))
    assert code == 0
    rows = csv_rows(read(out))
    assert len(rows) == 15
    assert sum(int(row["count"]) for row in rows) == 4096
    header = read(out).splitlines()[0]
    assert header == "bitstring,return,prob,count,s0,a0,sp0,r0"


T1_MODELS = {"bundled": bundled_mdp()} | {
    f"random-{states}s{actions}a": random_mdp(np.random.default_rng(10 * states + actions), states, actions)
    for states in (2, 4, 8) for actions in (1, 2)
}


@pytest.mark.parametrize("start", ["uniform", "fixed:0"])
@pytest.mark.parametrize("model", list(T1_MODELS))
def test_simulate_t1_writes_transition_sibling(capsys, tmp_path, model, start):
    # the sibling lists the model's own P(next | state, action) rows, those
    # of state 0 alone under a fixed start
    spec = T1_MODELS[model]
    path = tmp_path / "model.json"
    path.write_text(save(spec), encoding="utf-8")
    out = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "simulate", "--mdp", str(path), "--steps", "1", "--start", start, "--out", str(out))
    assert code == 0
    rows = csv_rows(read(tmp_path / "traj_transitions.csv"))
    table = {(int(r["state"]), int(r["action"]), int(r["next"])): float(r["prob"]) for r in rows}
    want = {(s, a, nxt): p for (s, a), row in spec.successors.items() for nxt, p in row
            if start == "uniform" or s == 0}
    assert table.keys() == want.keys()
    assert all(abs(table[key] - want[key]) <= 1e-12 for key in want)


def test_simulate_no_sibling_for_t3(capsys, tmp_path):
    out = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "simulate", "--steps", "3", "--out", str(out))
    assert code == 0
    assert not (tmp_path / "traj_transitions.csv").exists()


def test_reruns_are_byte_identical(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["search", "--start", "fixed:0", "--target-return", "8",
            "--iterations", "1", "--shots", "1000", "--seed", "1"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert read(first) == read(second)
    assert read(tmp_path / "a_counts.csv") == read(tmp_path / "b_counts.csv")


# sha256 of every file each command writes, recorded from a known-good build.
# Any byte change in an artifact fails here; update a digest only together
# with an intended change of the output format.
GOLDEN = {
    "simulate-t1-csv": (
        ["simulate", "--steps", "1", "--out", "{dir}/traj.csv"],
        {
            "traj.csv": "ec8f5230d14c479962166333cb44d98f0d8c4f479b4cb4090fd3c7f1c33ca5ae",
            "traj_transitions.csv": "2c757bd290c52a296af116073cdf8d813f604d9b5f87e04571ab3eebd68e07e7",
        },
    ),
    "simulate-t1-json": (
        ["simulate", "--steps", "1", "--format", "json", "--out", "{dir}/traj.json"],
        {
            "traj.json": "24b5741e74960fcfb8cf52b4609dcce14ccc58123522268b7daa1fb20f1297f0",
            "traj_transitions.json": "37c0e2153193538fd7e231dea410da4da51f2a8bf9ed64c71399fb3dd452cac8",
        },
    ),
    "simulate-shots-sparse": (
        ["simulate", "--steps", "3", "--start", "uniform", "--shots", "500", "--seed", "5",
         "--backend", "sparse", "--dump-circuit", "{dir}/circuit.txt", "--out", "{dir}/traj.csv"],
        {
            "traj.csv": "1c5e942778d308106d0db54e259fb4eb6030301e4d1a3ae85975c528dc65139b",
            "circuit.txt": "7d72ce5df2e72142dd42c85acf7490148c05368ae730aef184d638b3870c8d1a",
        },
    ),
    "simulate-shots-dense": (
        ["simulate", "--steps", "3", "--start", "uniform", "--shots", "500", "--seed", "5",
         "--backend", "dense", "--out", "{dir}/traj.csv"],
        {
            "traj.csv": "1c5e942778d308106d0db54e259fb4eb6030301e4d1a3ae85975c528dc65139b",
        },
    ),
    # The one path that writes non-null counts into JSON.
    "simulate-shots-json": (
        ["simulate", "--steps", "3", "--start", "uniform", "--shots", "500", "--seed", "5",
         "--format", "json", "--out", "{dir}/traj.json"],
        {
            "traj.json": "1abc54cf623b558b0721a1458dac7c33162123b0a3835eaa5ae77c7bca0ba4b3",
        },
    ),
    "enumerate-t3": (
        ["enumerate", "--steps", "3", "--out", "{dir}/catalog.csv"],
        {
            "catalog.csv": "efe8f2c853306a0e5ac5fb10e7c9c79052cb9e269ec0476036ec29b904dd1f99",
        },
    ),
    "search-max": (
        ["search", "--start", "fixed:0", "--target-return", "max", "--shots", "300", "--seed", "2",
         "--out", "{dir}/report.json"],
        {
            "report.json": "523ef5ac549ffe1aa208e2814512d7adcff50c491c54513d792146df00aa36b8",
            "report_counts.csv": "3196a93d39e4f87c142e488c961fbb3191965a79ba5cea451ae424c0e2335d52",
        },
    ),
    "qlearn": (
        ["qlearn", "--seed", "3", "--out", "{dir}/ql.json"],
        {
            "ql.json": "fbc333c5ffe7d6c7c6fc8b50b4d5003e2b6fdf504eebffaed8f2046a8e9e5198",
        },
    ),
    # {model}: 8 states, 2 actions, rewards (6, 2, 5, 7, 5, 4, 7, 7), uniform
    # start; 3-bit state and reward fields and a 4-bit return field.
    "simulate-random8-t2": (
        ["simulate", "--mdp", "{model}", "--steps", "2", "--out", "{dir}/traj.csv"],
        {
            "traj.csv": "8206bc4935c54aed42bf75b8c90432df19b2a22b73f3292d1404651953f6798d",
        },
    ),
    "enumerate-random8-t2": (
        ["enumerate", "--mdp", "{model}", "--steps", "2", "--format", "json", "--out", "{dir}/catalog.json"],
        {
            "catalog.json": "8a093ffa13ba060f17913d931ef99fba56c881579f5e09702e473e26958de625",
        },
    ),
    # Tables of 32 768 rows: the tie fallback of the rounding rule and the
    # distinct-value gathers of the CSV writer run at the benchmark's scale.
    "enumerate-random8-t4": (
        ["enumerate", "--mdp", "{model}", "--steps", "4", "--start", "uniform", "--out", "{dir}/catalog.csv"],
        {
            "catalog.csv": "a7dd95a3761566e241ed2dc782c56c0c15d9e159809959a98213d2ddb5555732",
        },
    ),
    "simulate-random8-t4-shots": (
        ["simulate", "--mdp", "{model}", "--steps", "4", "--start", "uniform", "--shots", "4096",
         "--seed", "1", "--out", "{dir}/traj.csv"],
        {
            "traj.csv": "2b4edd6167b2efa77cc61479fa4c048390151e57a738c5b1438735445ad46377",
        },
    ),
    # Successor rows of up to 8 entries whose totals miss 1.0 by a few ulps.
    "qlearn-random8-t4": (
        ["qlearn", "--mdp", "{model}", "--steps", "4", "--start", "uniform", "--seed", "1",
         "--out", "{dir}/ql.json"],
        {
            "ql.json": "03a1a27d97f76429e7c22ac2ab3b03df8cbc576ab2f8ebd96da6bdb16bd4560e",
        },
    ),
    "qlearn-random8-fixed": (
        ["qlearn", "--mdp", "{model}", "--steps", "2", "--start", "fixed:5", "--shots", "300",
         "--seed", "7", "--out", "{dir}/ql.json"],
        {
            "ql.json": "da9b6a7371dea6dcb1c205ea8aa3fde612a8daa2d496c02e9236a98c7631488d",
        },
    ),
}


@pytest.fixture(scope="module")
def random8_model(tmp_path_factory):
    spec = random_mdp(np.random.default_rng(8), num_states=8, num_actions=2, max_reward=7)
    path = tmp_path_factory.mktemp("model") / "random8.json"
    path.write_text(save(spec), encoding="utf-8")
    return path


@pytest.mark.parametrize("argv, digests", [
    pytest.param(*case, id=name, marks=pytest.mark.slow if name == "simulate-shots-dense" else ())
    for name, case in GOLDEN.items()
])
def test_artifacts_match_golden_digests(capsys, tmp_path, random8_model, argv, digests):
    code, _, _ = run(capsys, *(arg.format(dir=tmp_path, model=random8_model) for arg in argv))
    assert code == 0
    assert sorted(os.listdir(tmp_path)) == sorted(digests)
    written = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests}
    assert written == digests


def test_search_scenario_fixed_start(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, "search", "--start", "fixed:0", "--target-return", "8",
                     "--iterations", "1", "--shots", "1000", "--seed", "1", "--out", str(out))
    assert code == 0
    doc = json.loads(read(out))
    assert doc["iterations"] == 1
    assert math.isclose(doc["p0"], 0.0375, abs_tol=1e-9)
    assert math.isclose(doc["p_after"], math.sin(3 * math.asin(math.sqrt(0.0375))) ** 2, abs_tol=1e-9)
    assert doc["shots"] == 1000
    assert doc["seed"] == 1
    marked = {m["bitstring"]: m for m in doc["marked"]}
    assert set(marked) == {
        "1000111111111111101010000",
        "1000111101111111101010000",
    }
    assert all(m["return"] == 8 for m in doc["marked"])
    top = marked["1000111111111111101010000"]
    assert math.isclose(top["p_before"], 0.025, abs_tol=1e-9)
    assert top["count"] > marked["1000111101111111101010000"]["count"] > 0

    counts = read(tmp_path / "report_counts.csv")
    assert counts.startswith("#")
    rows = csv_rows(counts)
    assert sum(int(row["count"]) for row in rows) == 1000
    marked_counts = sorted(int(m["count"]) for m in doc["marked"])
    row_counts = sorted(int(row["count"]) for row in rows)
    assert row_counts[-2:] == marked_counts


def test_search_scenario_uniform_start(capsys):
    code, out, _ = run(capsys, "search", "--start", "uniform",
                       "--target-return", "9", "--iterations", "1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["marked"]) == 16
    assert math.isclose(doc["p0"], 45 / 256, abs_tol=1e-9)
    assert math.isclose(doc["p_after"], math.sin(3 * math.asin(math.sqrt(45 / 256))) ** 2, abs_tol=1e-9)
    assert all(m["return"] == 9 for m in doc["marked"])
    assert all(m["count"] is None for m in doc["marked"])


def test_search_unreachable_target(capsys):
    code, out, _ = run(capsys, "search", "--start", "uniform", "--target-return", "15")
    assert code == 0
    doc = json.loads(out)
    assert doc["marked"] == []
    assert doc["p0"] == 0.0
    assert doc["iterations"] == 0


def test_search_on_a_zero_reward_model(capsys, tmp_path):
    # Every reward is 0, so the return register has width 0 and return 0
    # marks every trajectory.
    spec = MdpSpec(2, 1, (Transition(0, 0, 0, 0.5), Transition(0, 0, 1, 0.5), Transition(1, 0, 1, 1.0)), (0, 0))
    path = tmp_path / "zero.json"
    path.write_text(save(spec), encoding="utf-8")
    catalog = sorted(enumerate_trajectories(spec, 2, "uniform").bitstrings().astype(str).tolist())
    assert len(catalog) == 4
    for target in ("0", "max"):
        code, out, err = run(capsys, "search", "--mdp", str(path), "--steps", "2", "--start", "uniform",
                             "--target-return", target)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert [m["bitstring"] for m in doc["marked"]] == catalog
        assert doc["p0"] == pytest.approx(1.0, abs=1e-12)
        # p0 sums to just below 1, and from 1/2 up the hint is 0 rounds
        assert (doc["iterations"], doc["p_after"]) == (0, doc["p0"])
    code, out, err = run(capsys, "search", "--mdp", str(path), "--steps", "2", "--target-return", "1")
    assert (code, out, err) == (1, "", "error: value 1 does not fit a 0-bit register\n")


def test_search_target_max_resolves_to_best_return(capsys):
    code, out, _ = run(capsys, "search", "--start", "fixed:0", "--target-return", "max",
                       "--iterations", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["marked"] and all(m["return"] == 8 for m in doc["marked"])


def test_dump_circuit_listing(capsys, tmp_path):
    dump = tmp_path / "circuit.txt"
    code, _, _ = run(capsys, "simulate", "--steps", "1", "--start", "fixed:0",
                     "--dump-circuit", str(dump))
    assert code == 0
    lines = read(dump).splitlines()
    assert lines
    assert all(" target=" in line and " controls=[" in line for line in lines)
    kinds = {line.split("(")[0].split(" ")[0] for line in lines}
    assert kinds <= {"h", "x", "ry", "flip"}


def test_search_dumps_the_simulate_circuit(capsys, tmp_path):
    # From two steps on, simulate compiles the return register too, so both
    # subcommands list the same preparation circuit.
    listings = []
    for argv in (["simulate"], ["search", "--target-return", "max"]):
        dump = tmp_path / f"{argv[0]}.txt"
        code, _, _ = run(capsys, *argv, "--steps", "2", "--start", "fixed:0", "--dump-circuit", str(dump))
        assert code == 0
        listings.append(read(dump))
    assert listings[0] and listings[0] == listings[1]


def test_qlearn_fixed_start_policy_line(capsys, tmp_path):
    out = tmp_path / "ql.json"
    code, _, err = run(capsys, "qlearn", "--start", "fixed:0", "--seed", "3", "--out", str(out))
    assert code == 0
    assert err.strip() == "s0:a0 s1:a1 s2:a1 s3:a1"
    doc = json.loads(read(out))
    assert doc["policy"] == [0, 1, 1, 1]
    assert doc["policy_line"] == "s0:a0 s1:a1 s2:a1 s3:a1"
    assert doc["config"]["seed"] == 3
    assert len(doc["q"]) == 4 and all(len(row) == 2 for row in doc["q"])
    assert sum(r["count"] for r in doc["rollouts"]) == 100
    assert max(r["return"] for r in doc["rollouts"]) == 8


def test_qlearn_uniform_start_reports_library_policy(capsys):
    # The artifact must state whatever greedy policy training actually
    # produced; uniform starts still favor a0 in s0 under these rewards.
    import numpy as np

    from qmdp import QlConfig, bundled_mdp, greedy_policy, q_learning

    expected = greedy_policy(q_learning(replace(bundled_mdp(), initial=None), QlConfig(seed=3)))
    code, out, _ = run(capsys, "qlearn", "--start", "uniform", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["policy"] == [int(a) for a in np.asarray(expected)]


def test_qlearn_requires_seed(capsys):
    code, _, err = run(capsys, "qlearn", "--start", "fixed:0")
    assert code == 1
    assert "seed" in err


def test_sampling_requires_seed(capsys):
    for argv in (["simulate", "--shots", "10"],
                 ["search", "--target-return", "8", "--shots", "10"]):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "seed" in err


@pytest.mark.parametrize("argv, message", [
    (["search"], "search needs --target-return (an integer or 'max')"),
    (["qlearn", "--seed", "1", "--format", "csv"], "qlearn reports are JSON; pass --format json or drop the flag"),
    (["qlearn", "--seed", "1", "--shots", "0"], "--shots (rollout trials) must be >= 1, got 0"),
], ids=["search-without-target", "qlearn-csv", "qlearn-no-rollouts"])
def test_flag_refusals_exit_1_in_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_search_rejects_csv_format(capsys):
    code, _, err = run(capsys, "search", "--target-return", "8", "--format", "csv")
    assert code == 1
    assert "JSON" in err


def test_bad_start_and_missing_file(capsys):
    code, _, err = run(capsys, "simulate", "--start", "sideways")
    assert code == 1
    assert "--start" in err
    code, _, err = run(capsys, "simulate", "--mdp", "/nonexistent/model.json")
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["search", "--target-return", "max"],
    ["enumerate"],
    ["qlearn", "--seed", "1"],
], ids=["simulate", "search", "enumerate", "qlearn"])
def test_out_of_range_fixed_start(capsys, argv):
    code, _, err = run(capsys, *argv, "--start", "fixed:9")
    assert code == 1
    assert err == "error: start state 9 outside 0..3\n"  # one message, no traceback


@pytest.mark.parametrize("steps", [0, -2])
@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["search", "--target-return", "max"],
    ["enumerate"],
    ["qlearn", "--seed", "1"],
], ids=["simulate", "search", "enumerate", "qlearn"])
def test_non_positive_steps_are_refused(capsys, argv, steps):
    code, out, err = run(capsys, *argv, "--steps", str(steps))
    assert code == 1
    assert out == ""
    assert err == f"error: steps must be >= 1, got {steps}\n"  # one message, no traceback


@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["search", "--target-return", "max"],
], ids=["simulate", "search"])
def test_sparse_width_limit_is_refused(capsys, tmp_path, argv):
    # Two states visited in turn, one action: 16 steps compile to 69 qubits,
    # past the sparse backend's 64-bit basis indices, with one live amplitude.
    path = tmp_path / "ring.json"
    ring = MdpSpec(2, 1, (Transition(0, 0, 1, 1.0), Transition(1, 0, 0, 1.0)), (0, 1), 0)
    path.write_text(save(ring), encoding="utf-8")
    flags = ["--mdp", str(path), "--steps", "16", "--start", "fixed:0"]
    code, _, err = run(capsys, *argv, *flags)
    assert code == 1
    assert err.startswith("error: sparse backend capacity exceeded: 69 qubits, limit is 63")
    assert "Traceback" not in err
    code, _, _ = run(capsys, "enumerate", *flags)
    assert code == 0


@pytest.mark.parametrize("flags, message", [
    (["--steps", "10"], "error: sparse backend capacity exceeded: 75 qubits, limit is 63"),
    (["--backend", "dense", "--steps", "4"], "error: dense backend capacity exceeded: 32 qubits"),
], ids=["sparse", "dense"])
def test_search_max_refuses_width_before_enumerating(capsys, monkeypatch, flags, message):
    def enumerate_trajectories(*args, **kwargs):
        raise AssertionError("the catalog was enumerated for a circuit the backend refuses")

    monkeypatch.setattr("qmdp.cli.enumerate_trajectories", enumerate_trajectories)
    code, out, err = run(capsys, "search", "--target-return", "max", "--start", "fixed:0", *flags)
    assert code == 1
    assert out == ""
    assert err.startswith(message)
    assert err.count("\n") == 1  # one message, no traceback


@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["search", "--target-return", "3"],
], ids=["simulate", "search"])
def test_width_is_refused_before_compiling(capsys, monkeypatch, tmp_path, argv):
    def build_preparation(*args, **kwargs):
        raise AssertionError("a circuit the backend refuses was compiled")

    monkeypatch.setattr("qmdp.cli.build_preparation", build_preparation)
    dump = tmp_path / "circuit.txt"
    flags = ["--steps", "1000000", "--start", "fixed:0", "--dump-circuit", str(dump)]
    code, out, err = run(capsys, *argv, *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("error: sparse backend capacity exceeded: 7000022 qubits, limit is 63")
    assert err.count("\n") == 1  # one message, no traceback
    assert not dump.exists()


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize("argv", [
    ["simulate", "--shots", "10000000000000", "--seed", "1"],
    ["search", "--target-return", "3", "--shots", "10000000000000", "--seed", "1"],
    ["enumerate", "--steps", "3000000", "--start", "fixed:0"],
], ids=["simulate-shots", "search-shots", "enumerate-deep"])
def test_a_refused_allocation_exits_1_in_one_line(argv):
    # The child caps its own address space, so the allocation fails the same
    # way whatever the host's overcommit policy.
    src = os.path.dirname(os.path.dirname(qmdp.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-m", "qmdp.cli", *argv], env=env, preexec_fn=_limit_address_space,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: out of memory: Unable to allocate ")
    assert result.stderr.count("\n") == 1  # one message, no traceback


def test_a_memory_error_without_a_message_is_one_line(capsys, monkeypatch):
    def enumerate_trajectories(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("qmdp.cli.enumerate_trajectories", enumerate_trajectories)
    assert run(capsys, "enumerate") == (1, "", "error: out of memory\n")


def test_enumerate_expands_a_deep_horizon(capsys, tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(save(MdpSpec(1, 1, (Transition(0, 0, 0, 1.0),), (1,), 0)), encoding="utf-8")
    for steps in (1200, 20000):
        code, out, err = run(capsys, "enumerate", "--mdp", str(path), "--steps", str(steps))
        assert code == 0
        assert err == ""
        rows = csv_rows(out)
        assert len(rows) == 1
        assert rows[0]["return"] == str(steps)
        assert out.splitlines()[1].endswith(",0,0,0,1" * steps)


def test_a_huge_state_count_is_refused_in_one_line(capsys, tmp_path):
    doc = json.loads(save(bundled_mdp()))
    doc["num_states"] = 10**30
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "enumerate", "--mdp", str(path), "--steps", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("field", ["state", "action", "next", "initial"])
def test_a_huge_integer_is_echoed_by_its_digit_count(capsys, tmp_path, field):
    doc = json.loads(save(bundled_mdp()))
    if field == "initial":
        doc["initial"] = {"fixed": 10**400}
    else:
        doc["transitions"][0][field] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "enumerate", "--mdp", str(path), "--steps", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: invalid MDP spec: ")
    assert err.count("\n") == 1
    assert "a 401-digit integer outside [0, " in err
    assert len(err) < 200


HUGE = "9" * 5001  # past Python's 4300-digit limit for int(text)


@pytest.mark.parametrize("argv, echo", [
    (("search", "--target-return", HUGE), "or 'max', got a 5001-character text"),
    (("search", "--target-return", str(10**100)), "value a 101-digit integer does not fit"),
    (("search", "--target-return", str(-10**100)), "value a negative 101-digit integer does not fit"),
    (("search", "--target-return", "8", "--iterations", HUGE), "or 'auto', got a 5001-character text"),
    (("search", "--target-return", "8", "--iterations", str(-10**100)), ">= 0, got a negative 101-digit integer"),
    (("search", "--target-return", "8", "--iterations", str(10**100)), "[0, 1000], got a 101-digit integer"),
    (("simulate", "--start", "fixed:" + HUGE), "bad --start state a 5001-character text"),
    (("simulate", "--start", "fixed:" + str(10**100)), "start state a 101-digit integer outside"),
    (("enumerate", "--start", "x" * 5001), "or 'fixed:N', got a 5001-character text"),
], ids=["target-text", "target-int", "target-negative", "iterations-text", "iterations-negative",
        "iterations-int", "start-text", "start-int", "start-word"])
def test_a_huge_flag_value_is_echoed_by_its_size(capsys, argv, echo):
    code, out, err = run(capsys, *argv, "--steps", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert echo in err
    assert len(err) < 100


@pytest.mark.parametrize("argv, echo", [
    (("simulate", "--steps", HUGE), "a 5001-character text"),
    (("search", "--target-return", "8", "--shots", HUGE), "a 5001-character text"),
    (("simulate", "--seed", HUGE), "a 5001-character text"),
    (("qlearn", "--shots", HUGE), "a 5001-character text"),
    (("enumerate", "--steps", HUGE), "a 5001-character text"),
    (("simulate", "--steps", "three"), "'three'"),
], ids=["simulate-steps", "search-shots", "simulate-seed", "qlearn-shots", "enumerate-steps", "short"])
def test_a_huge_integer_flag_is_echoed_by_its_size(capsys, argv, echo):
    # argparse exits 2; a short bad value keeps argparse's own message.
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert last == f"qmdp {argv[0]}: error: argument {argv[-2]}: invalid int value: {echo}"


def test_an_integer_literal_over_the_digit_limit_is_refused_in_one_line(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text(save(bundled_mdp()).replace('"num_states": 4', '"num_states": ' + "1" * 5001), encoding="utf-8")
    code, out, err = run(capsys, "enumerate", "--mdp", str(path), "--steps", "1")
    assert code == 1
    assert out == ""
    assert err == f"error: integer literal too long: 5001 digits, the limit is {sys.get_int_max_str_digits()}\n"


@pytest.mark.parametrize("command", ["simulate", "enumerate"])
def test_integer_probability_beyond_float_range_is_refused(capsys, tmp_path, command):
    doc = json.loads(save(bundled_mdp()))
    doc["transitions"][0]["prob"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, command, "--mdp", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: field 'prob' in transitions[0] is too large for a float\n"


def table_by_bitstring(text, fmt):
    """bitstring -> (return, prob, steps) from a simulate or enumerate artifact."""
    if fmt == "json":
        return {row["bitstring"]: (row["return"], row["prob"], row["steps"]) for row in json.loads(text)}
    table = {}
    for row in csv_rows(text):
        steps = [value for key, value in row.items() if key not in ("bitstring", "return", "prob", "count")]
        table[row["bitstring"]] = (int(row["return"]), float(row["prob"]), steps)
    return table


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.sampled_from([2, 4, 8]),
    num_actions=st.sampled_from([1, 2, 4]),
    max_reward=st.sampled_from([0, 1, 3, 7]),
    steps=st.integers(1, 3),
    fixed=st.one_of(st.none(), st.integers(0, 7)),
    fmt=st.sampled_from(["csv", "json"]),
    dense=st.booleans(),
)
def test_simulate_and_enumerate_agree_on_random_models(
    tmp_path_factory, seed, num_states, num_actions, max_reward, steps, fixed, fmt, dense
):
    spec = random_mdp(np.random.default_rng(seed), num_states, num_actions, max_reward)
    start = "uniform" if fixed is None else fixed % num_states
    width = build_preparation(spec, steps, initial=start, include_return=steps > 1).layout.num_qubits
    backend = "dense" if dense and width <= 20 else "sparse"
    workdir = tmp_path_factory.mktemp("fuzz")
    model = workdir / "model.json"
    model.write_text(save(spec), encoding="utf-8")
    flags = ["--mdp", str(model), "--steps", str(steps), "--format", fmt,
             "--start", "uniform" if fixed is None else f"fixed:{start}"]
    tables = []
    for command, extra in (("simulate", ["--backend", backend]), ("enumerate", [])):
        out = workdir / f"{command}.{fmt}"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([command, *flags, *extra, "--out", str(out)])
        assert code == 0, stderr.getvalue()  # an exception escaping main fails here too
        tables.append(table_by_bitstring(read(out), fmt))
    simulated, enumerated = tables
    assert simulated.keys() == enumerated.keys()
    for bits, (ret, prob, step_values) in enumerated.items():
        sim_ret, sim_prob, sim_steps = simulated[bits]
        assert sim_ret == ret and sim_steps == step_values
        assert abs(sim_prob - prob) < 1e-9


def python_round(probability):
    """Python's ``round(p, 12)`` per entry: the rounding rule the vectorised
    :func:`rounded_probability` reproduces, kept as its reference."""
    return np.array([round(p, 12) for p in probability.tolist()], dtype=np.float64)


def listed(table):
    """The table's records in the listing order the writer must apply:
    descending Python-rounded probability, ties in ascending bit string."""
    records = list(table)
    return [records[i] for i in np.argsort(-python_round(table.probability), kind="stable").tolist()]


def record_writer(records, steps, counts, fmt):
    """The per-record table writer the column writer replaced, kept as its
    byte-level reference: one f-string line or one dict per record."""
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
            f"{record.bitstring},{record.total_return},{repr(float(record.probability))},{count}"
            + "".join(f",{s},{a},{nxt},{r}" for s, a, nxt, r in record.steps)
        )
    return "\n".join(lines) + "\n"


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.sampled_from([1, 2, 4, 8]),
    num_actions=st.sampled_from([1, 2, 3]),
    max_reward=st.sampled_from([0, 3, 11, 10**6, 2**62]),  # 2**62: returns past 63 bits
    steps=st.integers(1, 3),
    fmt=st.sampled_from(["csv", "json"]),
    sampled=st.booleans(),
)
def test_column_writer_equals_the_record_writer(seed, num_states, num_actions, max_reward, steps, fmt, sampled):
    rng = np.random.default_rng(seed)
    spec = random_mdp(rng, num_states, num_actions, max_reward)
    table = enumerate_trajectories(spec, steps, None, include_return=steps > 1)
    counts = None
    if sampled:  # some rows drawn, some not
        picks = rng.choice(table.bitstrings().astype(str), size=min(len(table), 5), replace=False)
        counts = {bits: int(rng.integers(1, 100)) for bits in picks.tolist()}
    assert _trajectory_text(table, counts, fmt) == record_writer(listed(table), steps, counts, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_column_writer_equals_the_record_writer_on_a_sampled_simulation(fmt):
    prepared = build_preparation(bundled_mdp(), 3, initial="uniform")
    table = simulate_distribution(prepared)
    counts = prepared.prepare_state().sample(4096, 7)
    assert _trajectory_text(table, counts, fmt) == record_writer(listed(table), 3, counts, fmt)


LOOP = MdpSpec(1, 1, (Transition(0, 0, 0, 1.0),), (2**62,), 0)  # T = 2 returns 2**63, past int64
HUGE = MdpSpec(2, 2, (Transition(0, 0, 0, 0.5), Transition(0, 0, 1, 0.5), Transition(0, 1, 1, 1.0),
                      Transition(1, 0, 0, 1.0), Transition(1, 1, 1, 1.0)), (2**70, 2**62), None)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("spec, steps", [
    pytest.param(LOOP, 1, id="loop-t1"),  # one row, no return register
    pytest.param(LOOP, 2, id="loop-t2"),  # one row, return 2**63 in an object column
    pytest.param(LOOP, 3, id="loop-t3"),
    pytest.param(HUGE, 1, id="huge-t1"),
    pytest.param(HUGE, 2, id="huge-t2"),
    pytest.param(HUGE, 3, id="huge-t3"),
])
def test_column_writer_keeps_wide_returns_and_single_rows(spec, steps, fmt):
    table = enumerate_trajectories(spec, steps, None, include_return=steps > 1)
    assert len(table) == 1 or spec is HUGE
    assert (table.registers.dtype == object) == (spec is HUGE or steps > 1)  # Python ints, never int64
    assert _trajectory_text(table, None, fmt) == record_writer(listed(table), steps, None, fmt)


def test_enumerate_writes_a_return_past_63_bits(capsys, tmp_path):
    model = tmp_path / "loop.json"
    model.write_text(save(LOOP), encoding="utf-8")
    code, out, err = run(capsys, "enumerate", "--mdp", str(model), "--steps", "2")
    assert (code, err) == (0, "")
    table = enumerate_trajectories(LOOP, 2, None)
    assert out == record_writer(listed(table), 2, None, "csv")
    assert out.splitlines()[1].split(",")[1] == str(2**63)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_column_writer_ignores_unknown_and_unordered_count_keys(fmt):
    table = enumerate_trajectories(bundled_mdp(), 2, None, include_return=True)
    ascending = table.bitstrings().astype(str).tolist()
    width = len(ascending[0])
    stray = next(bits for bits in (format(i, f"0{width}b") for i in range(int(ascending[0], 2), 2**width))
                 if bits not in ascending)  # sorts between the table's rows
    assert ascending[0] < stray < ascending[-1]
    counts = {ascending[-1]: 4, stray: 9, ascending[0]: 2, ascending[len(ascending) // 2]: 7}
    text = _trajectory_text(table, counts, fmt)
    assert text == record_writer(listed(table), 2, counts, fmt)
    assert stray not in text


def test_column_writer_on_one_step_without_a_return_register():
    table = enumerate_trajectories(bundled_mdp(), 1, None, include_return=False)
    assert table.layout.return_bits == 0
    counts = {record.bitstring: i + 1 for i, record in enumerate(table)}
    for fmt in ("csv", "json"):
        assert _trajectory_text(table, counts, fmt) == record_writer(listed(table), 1, counts, fmt)


def rounding_cases():
    """Half-way points ``(k + 0.5) / 1e12`` and their neighbours up to 4 ulps
    away at magnitudes from 1e-12 to 1, with the ends of the range."""
    ks = [0, 1, 2, 7, 12, 99, 123, 4567, 10**5 + 3, 31415926, 10**9 + 1, 271828182845, 10**12 - 2]
    centres = np.array([(k + 0.5) / 1e12 for k in ks])
    around = [centres]
    for direction in (np.inf, -np.inf):
        step = centres
        for _ in range(4):
            step = np.nextafter(step, direction)
            around.append(step)
    return np.concatenate(around + [np.array([0.0, 5e-324, 1.0, 1 - 2**-53])])


def test_rounding_rule_equals_python_round_bit_for_bit(random8_model):
    spec = qmdp.load(random8_model.read_text(encoding="utf-8"))
    simulated = simulate_distribution(build_preparation(spec, 4, initial="uniform")).probability
    for probability in (rounding_cases(), simulated):
        reference = python_round(probability)
        assert rounded_probability(probability).view(np.uint64).tolist() == reference.view(np.uint64).tolist()
        assert probability_order(probability).tolist() == np.argsort(-reference, kind="stable").tolist()
    cases = rounding_cases()  # the half-way points are where numpy's own rounding strays
    assert (np.round(cases, 12) != python_round(cases)).any()


def test_counts_outside_the_catalog_are_refused():
    spec = bundled_mdp()
    known = {record.bitstring for record in enumerate_trajectories(spec, 1, 0)}
    stray = "1" * len(next(iter(known)))
    assert stray not in known
    with pytest.raises(CliError, match=f"sampled bit string {stray} is not in the enumerated catalog"):
        _counts_csv(replace(spec, initial=0), 1, {stray: 3})


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["polish"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_json_format_for_trajectories(capsys):
    code, out, _ = run(capsys, "enumerate", "--steps", "1", "--start", "uniform",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 15
    assert {"bitstring", "return", "prob", "count", "steps"} <= set(doc[0])
    assert all(entry["count"] is None for entry in doc)


def test_custom_model_file_roundtrip(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(save(bundled_mdp()), encoding="utf-8")
    code, out, _ = run(capsys, "enumerate", "--mdp", str(path), "--steps", "1", "--start", "uniform")
    assert code == 0
    assert len(csv_rows(out)) == 15
