"""Compiled preparation circuits against the classical enumerator."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmdp.classical import enumerate_trajectories, expected_return, greedy_rollouts
from qmdp.cli import probability_order
from qmdp.layout import RegisterLayout
from qmdp.mdp import MdpSpec, Transition, resolve_start
from qmdp.prepare import (
    PreparedModel,
    build_preparation,
    build_return_adder,
    build_step_chain,
    simulate_distribution,
    theta_for,
)
from qmdp.sim import Circuit, SparseState

from conftest import random_mdp


def trajectory_map(records):
    return {r.bitstring: r for r in records}


def assert_matches_enumerator(spec, steps, initial, backend="sparse", include_return=True):
    prepared = build_preparation(spec, steps, initial=initial, include_return=include_return)
    simulated = simulate_distribution(prepared, backend)
    enumerated = enumerate_trajectories(spec, steps, initial, include_return=include_return)
    assert np.array_equal(simulated.registers, enumerated.registers), "rows differ from the enumerator's"
    got, want = trajectory_map(simulated), trajectory_map(enumerated)
    assert set(got) == set(want), "support differs from the enumerator"
    for bits, record in got.items():
        assert (record.steps, record.total_return) == (want[bits].steps, want[bits].total_return), bits
    worst = max(abs(got[k].probability - want[k].probability) for k in got)
    assert worst < 1e-9, f"L-infinity gap {worst}"


def test_theta_for_known_values():
    assert theta_for(0.0) == 0.0
    assert theta_for(1.0) == pytest.approx(math.pi, abs=1e-15)
    assert theta_for(0.5) == pytest.approx(math.pi / 2, abs=1e-15)
    assert theta_for(0.6) == pytest.approx(1.772154247585227, abs=1e-12)
    for p in (0.0, 0.17, 0.5, 0.99, 1.0):
        assert math.sin(theta_for(p) / 2) ** 2 == pytest.approx(p, abs=1e-12)
    with pytest.raises(ValueError):
        theta_for(-0.1)
    with pytest.raises(ValueError):
        theta_for(1.1)


@pytest.mark.parametrize("backend", ["sparse", "dense"])
@pytest.mark.parametrize("eps", [1e-13, 1e-27])
def test_tiny_branches_are_compiled(eps, backend):
    # s0 -> s1 at eps, s1 absorbing, fixed start: at T=3 four trajectories,
    # none with more than one eps factor
    rare = MdpSpec(2, 1, (
        Transition(0, 0, 0, 1.0 - eps), Transition(0, 0, 1, eps), Transition(1, 0, 1, 1.0),
    ), (0, 1), 0)
    assert_matches_enumerator(rare, 3, 0, backend)
    # eps on the low side: its sibling's share of the node is 1 or within ulps of it
    common = MdpSpec(2, 1, (
        Transition(0, 0, 0, eps), Transition(0, 0, 1, 1.0 - eps), Transition(1, 0, 1, 1.0),
    ), (0, 1), 0)
    assert_matches_enumerator(common, 1, 0, backend)


def test_single_step_support_is_exactly_fifteen(bundled):
    prepared = build_preparation(bundled, 1, initial="uniform", include_return=False)
    assert prepared.layout.num_qubits == 7
    records = simulate_distribution(prepared, "dense")
    assert len(records) == 15
    with_total = build_preparation(bundled, 1, initial="uniform")
    assert with_total.layout.num_qubits == 9
    assert len(simulate_distribution(with_total, "sparse")) == 15


def test_single_step_conditionals(bundled):
    prepared = build_preparation(bundled, 1, initial="uniform", include_return=False)
    table = simulate_distribution(prepared, "dense")
    states, actions, nexts = table.registers[:, :3].T

    def conditional(s, a, nxt):
        given = (states == s) & (actions == a)
        return table.probability[given & (nexts == nxt)].sum() / table.probability[given].sum()

    assert conditional(0, 0, 1) == pytest.approx(0.6, abs=1e-9)
    assert conditional(0, 0, 2) == pytest.approx(0.4, abs=1e-9)
    assert conditional(3, 1, 3) == pytest.approx(1.0, abs=1e-9)


def test_start_and_action_marginals(bundled):
    prepared = build_preparation(bundled, 2, initial="uniform")
    table = simulate_distribution(prepared, "sparse")
    start = np.bincount(table.registers[:, 0], weights=table.probability)
    assert start.tolist() == pytest.approx([0.25, 0.25, 0.25, 0.25], abs=1e-12)
    for t in range(2):
        actions = table.registers[:, 4 * t + 1]
        for j in range(prepared.layout.action_bits):
            bit = np.bincount(actions >> j & 1, weights=table.probability)
            assert bit.tolist() == pytest.approx([0.5, 0.5], abs=1e-12)

    fixed = simulate_distribution(build_preparation(bundled, 1, initial=2), "sparse")
    assert np.bincount(fixed.registers[:, 0], weights=fixed.probability).tolist() == pytest.approx([0.0, 0.0, 1.0])


def test_bundled_distributions_match_enumerator(bundled):
    for steps in (1, 2, 3):
        assert_matches_enumerator(bundled, steps, "uniform")
    assert_matches_enumerator(bundled, 3, 0)
    assert_matches_enumerator(bundled, 1, "uniform", include_return=False)
    assert_matches_enumerator(bundled, 2, "uniform", backend="dense")


def test_random_models_match_enumerator():
    rng = np.random.default_rng(29)
    for _ in range(10):
        spec = random_mdp(rng)
        assert_matches_enumerator(spec, 1, "uniform")
        assert_matches_enumerator(spec, 2, int(rng.integers(4)))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.sampled_from([2, 4, 8]),
    num_actions=st.sampled_from([1, 2, 4]),
    max_reward=st.sampled_from([0, 1, 3, 7]),
    steps=st.integers(1, 3),
    include_return=st.booleans(),
    dense=st.booleans(),
    data=st.data(),
)
def test_random_models_match_enumerator_record_for_record(seed, num_states, num_actions, max_reward,
                                                          steps, include_return, dense, data):
    # Layouts the golden digests do not pin: zero-width reward and return
    # fields, one-action models, 3-bit states and rewards.
    spec = random_mdp(np.random.default_rng(seed), num_states, num_actions, max_reward)
    initial = data.draw(st.one_of(st.just("uniform"), st.integers(0, num_states - 1)))
    width = RegisterLayout.for_mdp(spec, steps, include_return=include_return).num_qubits
    backend = "dense" if dense and width <= 20 else "sparse"
    assert_matches_enumerator(spec, steps, initial, backend, include_return)


def test_spec_initial_is_the_default_start(bundled):
    pinned = MdpSpec(
        bundled.num_states, bundled.num_actions, bundled.transitions, bundled.rewards, 3
    )
    prepared = build_preparation(pinned, 1)
    assert prepared.spec is pinned
    records = simulate_distribution(prepared)
    assert all(r.steps[0][0] == 3 for r in records)
    # explicit uniform overrides the pinned start
    assert build_preparation(pinned, 1, initial="uniform").spec.initial is None


@pytest.mark.parametrize("start", [None, "uniform", 0, 3])
def test_every_function_reads_a_start_alike(bundled, start):
    # None is the model's own start (state 3 here), "uniform" every state, an int that state
    pinned = replace(bundled, initial=3)
    starts = {3} if start is None else set(range(4)) if start == "uniform" else {start}
    simulated = simulate_distribution(build_preparation(pinned, 2, initial=start))
    enumerated = enumerate_trajectories(pinned, 2, start)
    assert {r.bitstring for r in simulated} == {r.bitstring for r in enumerated}
    assert {r.steps[0][0] for r in enumerated} == starts
    rollouts = greedy_rollouts(resolve_start(pinned, start), np.zeros((4, 2)), 200, horizon=1, seed=0)
    assert {r.steps[0][0] for r in rollouts} == starts


def test_support_soundness_on_random_models():
    rng = np.random.default_rng(31)
    for _ in range(10):
        spec = random_mdp(rng)
        prepared = build_preparation(spec, 2, initial="uniform")
        for r in simulate_distribution(prepared):
            assert r.total_return == sum(step[3] for step in r.steps)
            previous_next = None
            for s, a, nxt, rew in r.steps:
                if previous_next is not None:
                    assert s == previous_next
                assert rew == spec.rewards[nxt]
                assert nxt in dict(spec.successors[s, a])
                previous_next = nxt


@pytest.mark.slow
def test_amplitudes_are_real_and_non_negative(bundled):
    prepared = build_preparation(bundled, 3, initial="uniform")
    for backend in ("sparse", "dense"):
        state = prepared.prepare_state(backend)
        for _, amp in state.nonzero_items():
            assert abs(amp.imag) <= 1e-12
            assert amp.real >= -1e-12


def test_return_register_expectation_matches_classical(bundled):
    prepared = build_preparation(bundled, 3, initial="uniform")
    quantum = expected_return(simulate_distribution(prepared, "sparse"))
    classical = expected_return(enumerate_trajectories(bundled, 3, None))
    assert quantum == pytest.approx(classical, abs=1e-9)


def test_adder_sums_every_reward_combination(bundled):
    layout = RegisterLayout.for_mdp(bundled, 3)
    circuit = Circuit(layout.num_qubits)
    build_return_adder(circuit, layout)
    for r0 in range(4):
        for r1 in range(4):
            for r2 in range(4):
                index = 0
                for t, r in enumerate((r0, r1, r2)):
                    for j, q in enumerate(layout.register_qubits("reward", t)):
                        index |= ((r >> j) & 1) << q
                state = SparseState(layout.num_qubits, {index: 1.0})
                state.apply_circuit(circuit)
                items = state.nonzero_items()
                assert len(items) == 1 and items[0][1] == 1.0
                out = items[0][0]
                expected = index | ((r0 + r1 + r2) << layout.register_qubits("return")[0])
                assert out == expected, (r0, r1, r2)


def test_reward_marking_general_table():
    spec = MdpSpec(4, 2, tuple(
        Transition(s, a, (s + 1 + a) % 4, 1.0) for s in range(4) for a in range(2)
    ), (0, 3, 1, 2))
    table = simulate_distribution(build_preparation(spec, 1, initial=0), "sparse")
    actions, rewards = table.registers[:, 1], table.registers[:, 3]
    # from s0: a0 lands s1 (reward 3 = '11'), a1 lands s2 (reward 1 = '01')
    for a, nxt, reward in ((0, 1, 3), (1, 2, 1)):
        assert table.probability[(actions == a) & (rewards == reward)].sum() == pytest.approx(0.5, abs=1e-12)


def test_chained_state_registers_always_agree(bundled):
    # step 0's next state (column 2) is step 1's state (column 4) on every live row
    table = simulate_distribution(build_preparation(bundled, 2, initial="uniform"), "sparse")
    assert table.registers[:, 2].tolist() == table.registers[:, 4].tolist()


def test_zero_reward_model_compiles(bundled):
    rng = np.random.default_rng(41)
    spec = random_mdp(rng, max_reward=0)
    prepared = build_preparation(spec, 2, initial="uniform")
    assert prepared.layout.return_bits == 0
    assert_matches_enumerator(spec, 2, "uniform")


def test_probability_column_is_abs_squared_per_entry(bundled, monkeypatch):
    # np.float_power(np.abs(a), 2) matches Python's abs(a) ** 2 bit for bit;
    # a * a and np.abs(a) ** 2 each differ on some values. Every readout of
    # the state reads that one rule.
    prepared = build_preparation(bundled, 2, initial="uniform")  # 17 qubits
    rng = np.random.default_rng(12)
    count = 100_000
    scale = 10.0 ** rng.uniform(-150, 150, size=count)
    re = rng.standard_normal(count) * scale
    # entries in shuffled order, as the sparse kernel leaves them between gates
    amps = dict(zip(rng.permutation(count).tolist(), re.tolist()))
    state = SparseState(prepared.layout.num_qubits, amps)
    monkeypatch.setattr(PreparedModel, "prepare_state", lambda self, backend="sparse": state)
    table = simulate_distribution(prepared)
    indices = [int(bits, 2) for bits in table.bitstrings().tolist()]
    assert sorted(indices) == list(range(count))
    assert table.probability.tolist() == [abs(amps[i]) ** 2 for i in indices]
    want = [(i, abs(amps[i]) ** 2) for i in range(count)]
    assert list(state.probabilities().items()) == [(state.bitstring(i), p) for i, p in want]
    assert state.pattern_items(()) == want
    # sampling walks the cumulative sum of the same column, in ascending index order
    cum = np.cumsum(table.probability[np.argsort(indices)])
    u = np.random.default_rng(5).random(1000) * cum[-1]
    picks = np.minimum(np.searchsorted(cum, u, side="right"), count - 1)
    drawn = {state.bitstring(int(i)): int(n) for i, n in zip(*np.unique(picks, return_counts=True))}
    assert state.sample(1000, 5) == drawn


def test_distribution_ordering(bundled):
    # The table ascends by bit string; only the writer lists by probability.
    table = simulate_distribution(build_preparation(bundled, 1, initial="uniform"))
    bits = table.bitstrings().astype(str).tolist()
    assert bits == sorted(bits)
    keys = [(-round(p, 12), b) for p, b in zip(table.probability.tolist(), bits)]
    assert [keys[i] for i in probability_order(table.probability).tolist()] == sorted(keys)


def test_rejections(bundled):
    with pytest.raises(ValueError, match="steps"):
        build_preparation(bundled, 0)
    with pytest.raises(ValueError, match="start state"):
        build_preparation(bundled, 1, initial=4)
    with pytest.raises(ValueError, match="initial"):
        build_preparation(bundled, 1, initial=1.5)
    three_states = MdpSpec(3, 1, (
        Transition(0, 0, 1, 1.0), Transition(1, 0, 2, 1.0), Transition(2, 0, 0, 1.0),
    ), (0, 1, 2))
    with pytest.raises(ValueError, match="power-of-two state count"):
        build_preparation(three_states, 1, initial="uniform")
    assert_matches_enumerator(three_states, 2, 0)
    three_actions = MdpSpec(2, 3, tuple(
        Transition(s, a, 1 - s, 1.0) for s in range(2) for a in range(3)
    ), (0, 1))
    with pytest.raises(ValueError, match="action count"):
        build_preparation(three_actions, 1)
    layout = RegisterLayout.for_mdp(bundled, 2)
    with pytest.raises(ValueError, match="^no step follows 1 in a 2-step layout$"):
        build_step_chain(Circuit(layout.num_qubits), layout, 1)
