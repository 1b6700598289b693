"""The benchmark's own tests, at toy sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from checks import References, verify  # noqa: E402
from worker import import_program, run_op  # noqa: E402

qmdp = import_program()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_runs_at_toy_size(name):
    outcome = run.run_workload(name, seed=3, seconds=0.1, trace=0, scale="toy")
    result = outcome["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(outcome["detail"]["setup_samples"]) == run.SETUP_PROBES + 1
    assert all(0 < op["norm"] for op in outcome["detail"]["ops"])  # every untraced op ran under the probe


def _toy(name, tmp_path, seed=5):
    """A toy workload's inputs in ``tmp_path``, its op mix, and its references."""
    with open(workloads.write_model(name, seed, str(tmp_path), qmdp, "toy"), encoding="utf-8") as handle:
        refs = References(json.load(handle))
    return workloads.op_mix(name, seed, str(tmp_path), "toy"), refs


def _alter_first_probability(path, position):
    """Change one digit of the first row's probability: the leading one, or the last (-1)."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    fields = lines[1].split(",")
    digits = [i for i, ch in enumerate(fields[2]) if ch in "123456789"]
    i = digits[position]
    fields[2] = fields[2][:i] + ("1" if fields[2][i] != "1" else "2") + fields[2][i + 1:]
    lines[1] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


def _run_corrupted(monkeypatch, op, position, index, digit):
    real_main = qmdp.cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        _alter_first_probability(op.artifacts[0], digit)
        return code

    monkeypatch.setattr(qmdp.cli, "main", corrupting_main)
    record = run_op(qmdp, op, position, index)
    monkeypatch.setattr(qmdp.cli, "main", real_main)
    return record


def test_corrupted_probability_digit_is_a_failed_op(tmp_path, monkeypatch):
    ops, refs = _toy("distribution-s8t4", tmp_path)
    records = [_run_corrupted(monkeypatch, ops[0], 0, 0, 0)]
    assert records[0]["ok"]  # the program ran; only the check can tell
    verify(ops, records, refs, None)
    assert not records[0]["ok"] and "prob of" in records[0]["error"]


def test_artifact_differing_from_the_first_run_is_a_failed_op(tmp_path, monkeypatch):
    ops, refs = _toy("distribution-s8t4", tmp_path)
    records = [run_op(qmdp, ops[1], 1, 0), _run_corrupted(monkeypatch, ops[1], 1, 1, -1)]
    verify(ops, records, refs, None)
    assert records[0]["ok"]
    assert not records[1]["ok"] and "first one" in records[1]["error"]  # below the reference tolerance


def test_failing_exit_code_is_a_failed_op(tmp_path, monkeypatch):
    ops, _ = _toy("amplify-t7", tmp_path)
    monkeypatch.setattr(qmdp.cli, "main", lambda argv: 1)
    record = run_op(qmdp, ops[0], 0, 0)
    assert not record["ok"] and record["error"].startswith("exit code 1")


def test_reference_agrees_with_the_program_enumerator():
    model = workloads.generated_model(9, 4, 2)
    spec = qmdp.load(json.dumps(model))
    ref = workloads.reference(model, 3, None, True)
    records = qmdp.enumerate_trajectories(spec, 3, None)
    assert set(ref) == {r.bitstring for r in records}
    for r in records:
        assert abs(ref[r.bitstring].prob - r.probability) <= 1e-15
        assert ref[r.bitstring].steps == r.steps and ref[r.bitstring].total == r.total_return


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_toy_run_has_a_well_formed_span_tree(name):
    outcome = run.run_workload(name, seed=4, seconds=0.1, trace=1, scale="toy")
    result, detail = outcome["result"], outcome["detail"]
    assert result["correct"]
    assert set(result["metrics"]) == set(tracer.PER_LAYER)
    header, spans = tracer.read_spans(detail["spans_file"])
    assert header["workload"] == name and spans
    tracer.check_tree(spans)  # parents present, nested, of the same op
    assert all(own >= 0.0 for own in tracer.self_times(spans))
    roots = [s for s in spans if s.parent is None]
    assert {s.name for s in roots} == {"cli.main"}
    traced_ops = [op for op in detail["ops"] if op["traced"]]
    assert len(roots) == len(traced_ops)
    for op in traced_ops:  # the layers' self times plus the trace's own counting cover the op
        assert op["layer_self"] + op["trace_count"] <= op["wall"]
    layer = {name: m["value"] for name, m in result["metrics"].items()}
    if name == "amplify-t7":
        assert layer["classical.enumerate.calls"] == 2
        assert layer["search.rounds"] > 0 and layer["search.sin2_gap"] < 1e-9
    if name == "distribution-s8t4":
        assert layer["sim.apply.calls"] == 2  # simulate --shots prepares twice
    if name == "dense-25q":
        assert layer["sim.dense.bytes_computed"] > 0 and layer["sim.sparse.apply_s"] == 0


def test_uninstall_restores_the_program():
    names = ["main", "load", "build_preparation", "grover_search", "decode_trajectory"]
    before = {n: getattr(qmdp.cli, n) for n in names}
    apply = qmdp.sim.SparseState.apply
    t = tracer.Tracer()
    t.install(qmdp)
    assert qmdp.cli.main is not before["main"]
    t.uninstall()
    assert {n: getattr(qmdp.cli, n) for n in names} == before
    assert qmdp.sim.SparseState.apply is apply
    assert "apply_circuit" not in qmdp.sim.SparseState.__dict__


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracer.PER_LAYER


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "amplify-t7", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
