"""Oracle, diffuser, and the amplification law on both bundled scenarios
and on random models."""

import contextlib
import io
import json
import math
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmdp import search
from qmdp.classical import enumerate_trajectories
from qmdp.layout import RegisterLayout
from qmdp.mdp import MdpSpec, Transition
from qmdp.cli import _report_json
from qmdp.prepare import PreparedModel, build_preparation, simulate_distribution
from qmdp.search import (
    ROUND_LIMIT,
    build_diffuser,
    build_oracle,
    grover_search,
    iterations_hint,
    oracle_pattern,
)
from qmdp.sim import PRUNE_TOL, Circuit, prepare_zero

from conftest import random_mdp


def fixed_start(bundled, state):
    return build_preparation(bundled, 3, initial=state)


def law(p0, k):
    return math.sin((2 * k + 1) * math.asin(math.sqrt(p0))) ** 2


def report_values(report):
    """A report's fields as plain values, its marked table as its columns."""
    return (report.iterations, report.probability_before, report.probability_after,
            report.marked.registers.tolist(), report.marked.probability.tolist(), report.marked_after.tolist(),
            report.shots, report.seed, report.counts)


def test_oracle_pattern_covers_requested_registers(bundled):
    prepared = fixed_start(bundled, 0)
    pattern = oracle_pattern(prepared, 8)
    assert dict(pattern) == {
        q: (8 >> j) & 1 for j, q in enumerate(prepared.layout.register_qubits("return"))
    }


def test_oracle_spec_rejections(bundled):
    prepared = fixed_start(bundled, 0)
    with pytest.raises(ValueError, match="fit"):
        oracle_pattern(prepared, 99)
    bare = build_preparation(bundled, 1, initial=0, include_return=False)
    with pytest.raises(ValueError, match="no total register"):
        oracle_pattern(bare, 1)


def test_oracle_flips_exactly_the_marked_states(bundled):
    prepared = fixed_start(bundled, 0)
    target = 8
    pattern = dict(oracle_pattern(prepared, target))
    plain = prepared.prepare_state("sparse")
    flipped = prepared.prepare_state("sparse").apply_circuit(build_oracle(prepared, target))
    before = dict(plain.nonzero_items())
    after = dict(flipped.nonzero_items())
    assert set(before) == set(after)
    marked = 0
    for index, amp in before.items():
        matches = all(((index >> q) & 1) == bit for q, bit in pattern.items())
        if matches:
            marked += 1
            assert after[index] == -amp
        else:
            assert after[index] == amp
    assert marked == 2


def test_oracle_with_unreachable_target_changes_nothing(bundled):
    prepared = fixed_start(bundled, 0)
    plain = prepared.prepare_state("sparse")
    hit = prepared.prepare_state("sparse").apply_circuit(
        build_oracle(prepared, 11)
    )
    assert plain.nonzero_items() == hit.nonzero_items()


def test_diffuser_fixes_the_prepared_state(bundled):
    prepared = build_preparation(bundled, 3, initial="uniform")
    state = prepared.prepare_state("sparse")
    reference = dict(state.nonzero_items())
    state.apply_circuit(build_diffuser(prepared))
    result = dict(state.nonzero_items())
    assert set(result) == set(reference)
    worst = max(abs(result[i] - reference[i]) for i in reference)
    assert worst < 1e-9


def test_diffuser_negates_the_orthogonal_complement():
    # preparation H|0> on one qubit; |-> is orthogonal to it
    stub = SimpleNamespace(
        layout=SimpleNamespace(num_qubits=1), circuit=Circuit(1).h(0)
    )
    minus = prepare_zero(1, "dense")
    minus.apply_circuit(Circuit(1).x(0).h(0))  # |1> then H gives |->
    amps = dict(minus.nonzero_items())
    minus.apply_circuit(build_diffuser(stub))
    flipped = dict(minus.nonzero_items())
    for index, amp in amps.items():
        assert flipped[index] == pytest.approx(-amp, abs=1e-12)


def test_amplification_law_holds_for_both_scenarios(bundled):
    cases = [
        (fixed_start(bundled, 0), 8),
        (build_preparation(bundled, 3, initial="uniform"), 9),
    ]
    for prepared, target in cases:
        for k in range(4):
            report = grover_search(prepared, target, iterations=k)
            assert report.iterations == k
            assert report.probability_after == pytest.approx(
                law(report.probability_before, k), abs=1e-9
            )
        single = grover_search(prepared, target, iterations=1)
        assert single.probability_before < 0.5
        assert single.probability_after > single.probability_before


def test_marked_sets_match_the_scenarios(bundled):
    one = grover_search(fixed_start(bundled, 0), 8, iterations=1)
    assert {m.bitstring for m in one.marked} == {
        "1000111111111111101010000",
        "1000111101111111101010000",
    }
    assert one.probability_before == pytest.approx(0.0375, abs=1e-9)
    two = grover_search(
        build_preparation(bundled, 3, initial="uniform"),
        9,
        iterations=1,
    )
    assert len(two.marked) == 16
    assert two.probability_before == pytest.approx(45 / 256, abs=1e-9)
    assert two.probability_after <= 1 + 1e-9


def test_amplification_preserves_relative_order(bundled):
    report = grover_search(fixed_start(bundled, 0), 8, iterations=1)
    gains = report.marked_after / report.marked.probability
    assert max(gains) - min(gains) < 1e-9
    before = {m.bitstring: m.probability for m in report.marked}
    assert before == pytest.approx({"1000111111111111101010000": 0.025, "1000111101111111101010000": 0.0125})


@pytest.mark.parametrize("backend", ["sparse", "dense"])
def test_marked_rows_are_the_readout_rows_at_the_target(bundled, backend):
    prepared = build_preparation(bundled, 2, initial=0)
    table = simulate_distribution(prepared, backend)
    hit = table.total_return == 5
    report = grover_search(prepared, 5, backend=backend, iterations=2)
    assert report.marked.registers.tolist() == table.registers[hit].tolist()
    assert report.marked.probability.tobytes() == table.probability[hit].tobytes()
    state = prepared.prepare_state(backend)
    grover_round = build_oracle(prepared, 5).extend(build_diffuser(prepared))
    for _ in range(2):
        state.apply_circuit(grover_round)
    after = state.probabilities()
    assert report.marked_after.tolist() == [after[bits] for bits in report.marked.bitstrings().astype(str).tolist()]


def test_iterations_hint_values():
    assert iterations_hint(0.0375) == 4
    assert iterations_hint(45 / 256) == 1
    assert iterations_hint(0.49) == 1
    assert iterations_hint(0.5) == 0  # one round leaves p0 (3 - 4 p0)**2, no more than p0 from 1/2 up
    # the returned count beats its neighbors on the closed form
    for p0 in (0.0375, 45 / 256, 0.02, 0.3, 0.51, 0.9, 0.9999999999999998):
        k = iterations_hint(p0)
        candidates = {c: law(p0, c) for c in (max(0, k - 1), k, k + 1)}
        assert candidates[k] == max(candidates.values())
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            iterations_hint(bad)


def test_unreachable_target_reports_empty(bundled):
    report = grover_search(fixed_start(bundled, 0), 11)
    assert report.iterations == 0
    assert report.probability_before == 0.0
    assert report.probability_after == 0.0
    assert len(report.marked) == len(report.marked_after) == 0


def test_auto_iterations_use_the_hint(bundled):
    report = grover_search(fixed_start(bundled, 0), 8)
    assert report.iterations == 4
    assert report.probability_after == pytest.approx(law(0.0375, 4), abs=1e-9)


def test_sampling_is_reproducible_and_gated(bundled):
    prepared = fixed_start(bundled, 0)
    target = 8
    a = grover_search(prepared, target, iterations=1, shots=500, seed=3)
    b = grover_search(prepared, target, iterations=1, shots=500, seed=3)
    assert report_values(a) == report_values(b)
    assert sum(a.counts.values()) == 500
    assert set(a.counts) >= {m.bitstring for m in a.marked}  # every marked row was drawn
    with pytest.raises(ValueError, match="seed"):
        grover_search(prepared, target, iterations=1, shots=10)
    with pytest.raises(ValueError):
        grover_search(prepared, target, iterations=-1)
    with pytest.raises(ValueError):
        grover_search(prepared, target, shots=-5)


def test_round_counts_above_the_limit_are_refused_before_any_round(bundled, monkeypatch):
    def build_diffuser(prepared):
        raise AssertionError("a Grover round was built")

    def prepare_state(self, backend="sparse"):
        raise AssertionError("the state was prepared")

    monkeypatch.setattr(search, "build_diffuser", build_diffuser)
    prepared = fixed_start(bundled, 0)
    with pytest.raises(AssertionError, match="round was built"):  # the limit itself runs
        grover_search(prepared, 8, iterations=ROUND_LIMIT)
    with monkeypatch.context() as patch:
        patch.setattr(PreparedModel, "prepare_state", prepare_state)
        with pytest.raises(ValueError, match=r"^iterations must be in \[0, 1000\], got 1001$"):
            grover_search(prepared, 8, iterations=ROUND_LIMIT + 1)
    # The only return-2 path has mass 1e-12, so the hint is 785 398 rounds.
    rare = MdpSpec(2, 1, (Transition(0, 0, 0, 1 - 1e-12), Transition(0, 0, 1, 1e-12), Transition(1, 0, 1, 1.0)),
                   (0, 1), initial=0)
    with pytest.raises(ValueError, match="^marked mass 1e-12 hints 785398 rounds, above the limit of 1000$"):
        grover_search(build_preparation(rare, 2), 2)


# How far above PRUNE_TOL**2 the enumerator probability of a pruned row may
# sit: the circuit rounds a tiny branch's probability, most of all beside a
# near-certain sibling. Over 40 hypothesis seeds of the fuzz below (102 557
# marked rows), a circuit probability fell at most 8.0e-4 below the
# enumerator's, from one branch of 1e-14; a row at the cut holds at most two.
CUT_ROUNDING = 1e-2


def near_certain(spec, rng):
    """The model with every row of two or more successors cut to two: one
    branch at 10**-u for u in 1-15, its sibling at the rest."""
    rows = {}
    for t in spec.transitions:
        rows.setdefault((t.state, t.action), []).append(t)
    transitions = []
    for (s, a), row in rows.items():
        if len(row) == 1:
            transitions += row
            continue
        tiny, sure = rng.choice(len(row), size=2, replace=False)
        eps = 10.0 ** -int(rng.integers(1, 16))
        transitions += [Transition(s, a, row[tiny].next_state, eps), Transition(s, a, row[sure].next_state, 1 - eps)]
    return replace(spec, transitions=tuple(transitions))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.sampled_from([1, 2, 4, 8]),
    num_actions=st.sampled_from([1, 2]),
    max_reward=st.integers(0, 7),
    steps=st.integers(1, 4),
    start=st.sampled_from([None, "uniform", 0]),
    rounds=st.integers(0, 5),
    extreme=st.booleans(),
    data=st.data(),
)
def test_amplification_matches_the_enumerator_on_random_models(seed, num_states, num_actions, max_reward, steps,
                                                               start, rounds, extreme, data):
    spec = fuzz_model(seed, num_states, num_actions, max_reward, extreme)
    catalog = enumerate_trajectories(spec, steps, start)
    assume(len(catalog) <= 4096)  # keeps an example to a fraction of a second
    check_amplification(spec, catalog, start, rounds, lambda targets: data.draw(st.sampled_from(targets)))


def test_a_row_pruned_a_few_ulps_above_the_cut_passes():
    # One marked path multiplies branches of powers of ten to an enumerator
    # probability of 1.0000000000000001e-28; the circuit rounds its amplitude
    # to 9.999999999999956e-15, just under PRUNE_TOL, and the kernel prunes it.
    spec = fuzz_model(2742, 8, 1, 3, extreme=True)
    pruned = check_amplification(spec, enumerate_trajectories(spec, 4, 0), 0, 0, lambda targets: 6)
    assert pruned == [1.0000000000000001e-28]


def fuzz_model(seed, num_states, num_actions, max_reward, extreme):
    """The fuzz's model. Its own start is its last state, so the default
    start differs from "uniform" and from state 0."""
    rng = np.random.default_rng(seed)
    spec = random_mdp(rng, num_states, num_actions, max_reward, initial=num_states - 1)
    return near_certain(spec, rng) if extreme else spec


def check_amplification(spec, catalog, start, rounds, pick_target):
    """One example of the amplification fuzz against the enumerator's
    ``catalog``; ``pick_target`` picks the target from every return some row
    has plus the smallest register value none has. Returns the enumerator
    probabilities of the marked rows the sparse kernel pruned."""
    prepared = build_preparation(spec, catalog.layout.steps, initial=start)
    returns = set(catalog.total_return.tolist())
    unreachable = [value for value in range(1 << prepared.layout.return_bits) if value not in returns][:1]
    target = pick_target(sorted(returns) + unreachable)
    report = grover_search(prepared, target, iterations=rounds)
    want = {bits: p for bits, p, total in zip(catalog.bitstrings().astype(str).tolist(), catalog.probability.tolist(),
                                              catalog.total_return.tolist()) if total == target}
    got = {m.bitstring: m for m in report.marked}
    assert set(got) <= set(want)
    pruned = [p for bits, p in want.items() if bits not in got]
    assert all(p < PRUNE_TOL**2 * (1 + CUT_ROUNDING) for p in pruned)  # below the sparse pruning cut
    p0 = report.probability_before
    assert p0 == pytest.approx(sum(want.values()), abs=1e-9)
    if 0.0 < p0 < 1.0:
        assert report.probability_after == pytest.approx(law(p0, rounds), abs=1e-9)
    for before, after in zip(report.marked.probability.tolist(), report.marked_after.tolist()):
        assert after == pytest.approx(report.probability_after / p0 * before, abs=1e-12)
    if prepared.layout.num_qubits <= 20:
        dense = grover_search(prepared, target, backend="dense", iterations=rounds)
        assert dense.probability_after == pytest.approx(report.probability_after, abs=1e-12)
    return pruned


def test_backends_agree_on_search(bundled):
    # two steps keep the dense register small; the 25-qubit dense budget run
    # lives in the acceptance suite
    prepared = build_preparation(bundled, 2, initial=0)
    target = 5
    sparse = grover_search(prepared, target, backend="sparse", iterations=1)
    dense = grover_search(prepared, target, backend="dense", iterations=1)
    assert dense.probability_after == pytest.approx(sparse.probability_after, abs=1e-12)
    assert dense.marked.bitstrings().tolist() == sparse.marked.bitstrings().tolist()
    assert dense.marked_after.tolist() == pytest.approx(sparse.marked_after.tolist(), abs=1e-12)


@pytest.mark.parametrize("backend", ["sparse", "dense"])
def test_rounds_at_an_unreachable_target_change_nothing(bundled, backend):
    # no two-step trajectory from s0 returns 6: the oracle flips nothing, and
    # each round is the diffuser alone, which fixes the prepared state
    prepared = build_preparation(bundled, 2, initial=0)
    report = grover_search(prepared, 6, backend=backend, iterations=3)
    assert (report.iterations, report.probability_before, report.probability_after) == (3, 0.0, 0.0)
    assert report.marked.registers.shape == (0, len(prepared.layout.fields))
    assert len(report.marked_after) == 0
    assert json.loads(_report_json(report))["marked"] == []

    def vector(state):
        v = np.zeros(1 << prepared.layout.num_qubits)
        idx, amps = state.nonzero()
        v[idx] = amps
        return v

    state = prepared.prepare_state(backend)
    psi = vector(state)
    grover_round = build_oracle(prepared, 6).extend(build_diffuser(prepared))
    for _ in range(3):
        state.apply_circuit(grover_round)
    assert np.max(np.abs(vector(state) - psi)) < 1e-12


def test_readme_quick_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"```python\n(.*?)```", readme, re.S).group(1)  # the first python block
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(tour, "README.md", "exec"), {})
    rows = [line.split() for line in printed.getvalue().splitlines()]
    assert [bits for bits, *_ in rows] == ["1000111101111111101010000", "1000111111111111101010000"]
    before = [float(row[1]) for row in rows]
    after = [float(row[2]) for row in rows]
    assert before == pytest.approx([0.0125, 0.025], abs=1e-12)
    assert sum(after) == pytest.approx(law(0.0375, 1), abs=1e-9)
    assert sum(int(row[3]) for row in rows) <= 1000
