"""Enumerator, value iteration, Q-learning and rollouts.

Frozen numbers here were computed by hand-rollable dynamic programs and
exhaustive counting on the bundled model before any quantum code existed;
they are the ground truth the circuit is judged against, so nothing in this
file may import from the quantum modules.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmdp.classical import (
    QlConfig,
    _draw_successor,
    enumerate_trajectories,
    expected_return,
    greedy_policy,
    greedy_rollouts,
    q_learning,
    q_update,
    value_iteration,
)
from qmdp.layout import RegisterLayout, TrajectoryRecord, TrajectoryTable, decode_trajectory
from qmdp.mdp import resolve_start
from qmdp.mdp import MdpSpec, Transition

from conftest import random_mdp


def test_enumeration_counts(bundled):
    assert len(enumerate_trajectories(bundled, 1, None)) == 15
    assert len(enumerate_trajectories(bundled, 3, None)) == 208
    assert len(enumerate_trajectories(bundled, 3, 0)) == 61


def test_enumeration_probabilities_sum_to_one(bundled):
    for steps in (1, 2, 3):
        for initial in (None, 0, 3):
            records = enumerate_trajectories(bundled, steps, initial)
            assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-12)


def test_enumeration_is_sorted_and_consistent(bundled):
    records = enumerate_trajectories(bundled, 3, None)
    assert [r.bitstring for r in records] == sorted(r.bitstring for r in records)
    for r in records:
        assert r.total_return == sum(step[3] for step in r.steps)
        for (s, a, nxt, rew), following in zip(r.steps, r.steps[1:]):
            assert following[0] == nxt
        for s, a, nxt, rew in r.steps:
            assert rew == bundled.rewards[nxt]
            assert nxt in dict(bundled.successors[s, a])


def test_top_return_records_from_fixed_start(bundled):
    records = enumerate_trajectories(bundled, 3, 0)
    best = [r for r in records if r.total_return == 8]
    assert len(best) == 2
    assert all(r.steps[-1][2] == 3 for r in best)
    assert {r.bitstring for r in best} == {
        "1000111111111111101010000",
        "1000111101111111101010000",
    }
    probs = sorted(r.probability for r in best)
    assert probs == [pytest.approx(0.0125), pytest.approx(0.025)]
    assert max(r.total_return for r in records) == 8


def test_expected_return_values(bundled):
    layout = RegisterLayout(state_bits=1, action_bits=1, reward_bits=3, steps=1, return_bits=3)
    single = TrajectoryTable(layout, np.array([1.0]), np.array([[0, 0, 0, 5, 5]]))
    assert expected_return(single) == 5
    uniform3 = enumerate_trajectories(bundled, 3, None)
    assert expected_return(uniform3) == pytest.approx(5.3171875, abs=1e-12)


def test_enumeration_rejects_bad_initial(bundled):
    with pytest.raises(ValueError):
        enumerate_trajectories(bundled, 1, 9)


@pytest.mark.parametrize("initial", [9, -1, 2.5])
def test_bad_starts_are_refused_by_name(bundled, initial):
    if isinstance(initial, int):
        message = f"start state {initial} outside 0..3"
    else:
        message = f"initial must be None, 'uniform' or a state index, got {initial!r}"
    message = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=message):
        enumerate_trajectories(bundled, 3, initial)


def _path_count(spec, steps, initial):
    """Supported length-``steps`` paths, by a backward count over the rows."""
    ways = [1] * spec.num_states
    for _ in range(steps):
        ways = [sum(ways[nxt] for a in range(spec.num_actions) for nxt, _ in spec.successors[s, a])
                for s in range(spec.num_states)]
    return sum(ways) if initial is None else ways[initial]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.sampled_from([2, 3, 4, 8]),
    num_actions=st.sampled_from([1, 2, 3, 4]),  # 1/3 is inexact
    steps=st.integers(1, 4),
    fixed=st.one_of(st.none(), st.integers(0, 7)),
    include_return=st.booleans(),
)
def test_enumerated_probabilities_are_products_of_their_own_steps(
    seed, num_states, num_actions, steps, fixed, include_return
):
    spec = random_mdp(np.random.default_rng(seed), num_states, num_actions, max_reward=3)
    initial = None if fixed is None else fixed % num_states
    paths = _path_count(spec, steps, initial)
    assume(paths <= 20000)  # 8 states, 4 actions and T = 4 reach about a million
    layout = RegisterLayout.for_mdp(spec, steps, include_return=include_return)
    records = enumerate_trajectories(spec, steps, initial, include_return=include_return)
    assert len(records) == paths
    for record in records:
        prob = 1.0 / num_states if initial is None else 1.0
        for s, a, nxt, _ in record.steps:
            prob = prob * (1.0 / num_actions) * dict(spec.successors[s, a])[nxt]
        assert record.probability.hex() == prob.hex()
        decoded = decode_trajectory(layout, record.bitstring)
        assert (decoded.steps, decoded.total_return) == (record.steps, record.total_return)


def python_frontier(spec, steps, initial, include_return=True):
    """The list frontier the numpy pass replaced, kept as its byte-level
    reference: one (state, prob, return, partial index, steps) entry per
    partial trajectory, expanded one step per pass, each probability formed
    as ``prob * action_weight * p``; records sorted by bit string."""
    layout = RegisterLayout.for_mdp(spec, steps, include_return=include_return)
    spec = resolve_start(spec, initial)
    if spec.initial is None:
        frontier = [(s, 1.0 / spec.num_states, 0, 0, ()) for s in range(spec.num_states)]
    else:
        frontier = [(spec.initial, 1.0, 0, 0, ())]
    action_weight, fields = 1.0 / spec.num_actions, layout.fields
    (s_at, _), (a_at, _), (n_at, _), (r_at, _) = fields[:4]
    edges = [
        [((s, a, nxt, r), p, r, s << s_at | a << a_at | nxt << n_at | r << r_at)
         for a in range(spec.num_actions) for nxt, p in spec.successors[s, a] for r in [spec.rewards[nxt]]]
        for s in range(spec.num_states)
    ]
    for depth in range(steps):
        shift = fields[4 * depth][0]
        frontier = [
            (step[2], prob * action_weight * p, ret + r, index | bits << shift, path + (step,))
            for state, prob, ret, index, path in frontier
            for step, p, r, bits in edges[state]
        ]
    ret_at, ret_mask, digits = fields[-1][0], (1 << layout.return_bits) - 1, f"0{layout.num_qubits}b"
    records = (TrajectoryRecord(path, ret, format(index | (ret & ret_mask) << ret_at, digits), prob)
               for _, prob, ret, index, path in frontier)
    return sorted(records, key=lambda rec: rec.bitstring)


def _record_bytes(records):
    return [(r.bitstring, r.steps, r.total_return, r.probability.hex()) for r in records]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.sampled_from([1, 2, 3, 4, 8]),
    num_actions=st.sampled_from([1, 2, 3, 4]),
    steps=st.integers(1, 4),
    start=st.one_of(st.none(), st.just("uniform"), st.integers(0, 7)),
    pinned=st.one_of(st.none(), st.integers(0, 7)),
    include_return=st.booleans(),
)
def test_numpy_frontier_equals_the_python_frontier(
    seed, num_states, num_actions, steps, start, pinned, include_return
):
    initial = None if pinned is None else pinned % num_states  # the model's own start
    spec = random_mdp(np.random.default_rng(seed), num_states, num_actions, max_reward=5, initial=initial)
    start = start % num_states if isinstance(start, int) else start
    assume(_path_count(spec, steps, resolve_start(spec, start).initial) <= 20000)
    table = enumerate_trajectories(spec, steps, start, include_return=include_return)
    records = list(table)
    assert _record_bytes(records) == _record_bytes(python_frontier(spec, steps, start, include_return))
    assert all(type(r.probability) is float and type(r.total_return) is int for r in records)
    assert all(type(v) is int for r in records for step in r.steps for v in step)


@pytest.mark.parametrize("rewards", [(2**70, 2**62), (2**61, 1)])
def test_returns_past_63_bits_stay_exact(rewards):
    # 2**70: the table holds Python ints, as the list frontier did; 2**61 at
    # T = 3: the returns fit int64 but the 64-bit return register does not
    transitions = (Transition(0, 0, 0, 0.5), Transition(0, 0, 1, 0.5), Transition(0, 1, 1, 1.0),
                   Transition(1, 0, 0, 1.0), Transition(1, 1, 1, 1.0))
    huge = MdpSpec(2, 2, transitions, rewards, None)
    for steps in (1, 2, 3):
        for include_return in (True, False):
            table = enumerate_trajectories(huge, steps, None, include_return=include_return)
            reference = python_frontier(huge, steps, None, include_return)
            assert _record_bytes(table) == _record_bytes(reference)
    loop = MdpSpec(1, 1, (Transition(0, 0, 0, 1.0),), (2**62,), 0)
    assert enumerate_trajectories(loop, 2, None).total_return.tolist() == [2**63]


def return_distribution(spec, steps, initial):
    """The return distribution of the enumerator's catalog without listing
    it, kept as a second reference: a forward pass over (state, return)
    cells that moves each cell's path count (Python ints, past 2**63) and
    probability mass along every successor row. Gives the path count, the
    largest return and P(return = g) for g = 0..largest."""
    spec = resolve_start(spec, initial)
    size = steps * spec.max_reward + 1
    paths = np.zeros((spec.num_states, size), dtype=object)
    mass = np.zeros((spec.num_states, size))
    starts = range(spec.num_states) if spec.initial is None else [spec.initial]
    for s in starts:
        paths[s, 0], mass[s, 0] = 1, 1.0 / len(starts)
    for _ in range(steps):
        moved_paths, moved_mass = np.zeros_like(paths), np.zeros_like(mass)
        for (s, a), row in spec.successors.items():
            for nxt, p in row:
                r = spec.rewards[nxt]
                moved_paths[nxt, r:] += paths[s, :size - r]
                moved_mass[nxt, r:] += mass[s, :size - r] * (p / spec.num_actions)
        paths, mass = moved_paths, moved_mass
    by_return = paths.sum(axis=0).tolist()
    best = max(g for g, count in enumerate(by_return) if count)
    return sum(by_return), best, mass.sum(axis=0)[:best + 1]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.sampled_from([1, 2, 3, 4, 8]),
    num_actions=st.sampled_from([1, 2, 3, 4]),
    max_reward=st.sampled_from([0, 1, 3, 7]),
    steps=st.integers(1, 4),
    fixed=st.one_of(st.none(), st.integers(0, 7)),
)
def test_return_distribution_matches_the_enumerator(seed, num_states, num_actions, max_reward, steps, fixed):
    spec = random_mdp(np.random.default_rng(seed), num_states, num_actions, max_reward)
    initial = None if fixed is None else fixed % num_states
    assume(_path_count(spec, steps, initial) <= 20000)
    paths, best, probability = return_distribution(spec, steps, initial)
    table = enumerate_trajectories(spec, steps, initial)
    assert paths == len(table)
    assert best == table.total_return.max()
    enumerated = np.bincount(table.total_return, weights=table.probability)
    assert len(probability) == len(enumerated)
    assert np.max(np.abs(probability - enumerated)) <= 1e-12


def test_return_distribution_counts_paths_past_64_bits(bundled):
    paths, best, probability = return_distribution(bundled, 60, None)
    assert paths == _path_count(bundled, 60, None) > 2**63
    assert best == 3 * 60
    assert probability.sum() == pytest.approx(1.0, abs=1e-12)


def test_random_spec_probabilities_sum_to_one():
    rng = np.random.default_rng(17)
    for _ in range(30):
        spec = random_mdp(rng)
        records = enumerate_trajectories(spec, int(rng.integers(1, 3)), None)
        assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-12)


def test_value_iteration_tables(bundled):
    result = value_iteration(bundled, 3)
    np.testing.assert_allclose(result.values[1], [1.4, 2.5, 2.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(result.values[3], [6.3, 7.875, 7.5, 9.0], atol=1e-12)
    for k in (1, 2, 3):
        assert list(result.policy[k]) == [0, 1, 1, 1]
    assert list(result.first_step_policy()) == [0, 1, 1, 1]
    assert result.values[1][3] == pytest.approx(3.0)


@pytest.mark.parametrize("horizon", [0, -2])
def test_horizons_below_one_are_refused(bundled, horizon):
    message = f"^horizon must be >= 1, got {horizon}$"
    with pytest.raises(ValueError, match=message):
        value_iteration(bundled, horizon)
    with pytest.raises(ValueError, match=message):
        q_learning(bundled, QlConfig(seed=0, horizon=horizon))
    with pytest.raises(ValueError, match=message):
        greedy_rollouts(bundled, np.zeros((4, 2)), trials=1, horizon=horizon, seed=0)


def test_value_iteration_breaks_ties_low():
    spec = MdpSpec(2, 2, (
        Transition(0, 0, 1, 1.0), Transition(0, 1, 1, 1.0),
        Transition(1, 0, 0, 1.0), Transition(1, 1, 0, 1.0),
    ), (1, 1))
    assert list(value_iteration(spec, 2).first_step_policy()) == [0, 0]


def test_q_learning_is_seed_deterministic(bundled):
    a = q_learning(bundled, QlConfig(seed=11, episodes=300))
    b = q_learning(bundled, QlConfig(seed=11, episodes=300))
    c = q_learning(bundled, QlConfig(seed=12, episodes=300))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_q_learning_matches_value_iteration_for_most_seeds(bundled):
    # both scenario dynamics: pinned start at s0, and uniform starts
    target = list(value_iteration(bundled, 3).first_step_policy())
    for initial in (0, None):
        spec = MdpSpec(
            bundled.num_states, bundled.num_actions, bundled.transitions,
            bundled.rewards, initial,
        )
        hits = 0
        for seed in range(10):
            table = q_learning(spec, QlConfig(seed=seed))
            if list(greedy_policy(table)) == target:
                hits += 1
        assert hits >= 9, f"initial={initial}: only {hits}/10 seeds matched {target}"


def test_q_update_fixed_point_on_deterministic_spec():
    # deterministic cycle under a0, self-loops under a1
    spec = MdpSpec(4, 2, (
        Transition(0, 0, 1, 1.0), Transition(1, 0, 2, 1.0),
        Transition(2, 0, 3, 1.0), Transition(3, 0, 0, 1.0),
        Transition(0, 1, 0, 1.0), Transition(1, 1, 1, 1.0),
        Transition(2, 1, 2, 1.0), Transition(3, 1, 3, 1.0),
    ), (0, 1, 2, 3))
    alpha, gamma = 0.1, 0.95
    nxt = {(s, a): spec.successors[s, a][0][0] for s in range(4) for a in range(2)}
    optimal = np.zeros((4, 2))
    for _ in range(2000):
        updated = np.array([
            [spec.rewards[nxt[s, a]] + gamma * optimal[nxt[s, a]].max() for a in range(2)]
            for s in range(4)
        ])
        if np.abs(updated - optimal).max() < 1e-15:
            optimal = updated
            break
        optimal = updated
    table = optimal.copy()
    for s in range(4):
        for a in range(2):
            q_update(table, s, a, spec.rewards[nxt[s, a]], nxt[s, a], alpha, gamma)
    assert np.abs(table - optimal).max() <= alpha * 1e-12


def test_q_learning_reaches_closed_form_on_self_loop():
    # single state, both actions loop with reward 2: Q converges to 2/(1-gamma)
    spec = MdpSpec(1, 2, (Transition(0, 0, 0, 1.0), Transition(0, 1, 0, 1.0)), (2,))
    table = q_learning(spec, QlConfig(seed=4))
    np.testing.assert_allclose(table, 2 / (1 - 0.95), atol=1e-3)


def test_greedy_rollouts_fixed_start(bundled):
    table = q_learning(bundled, QlConfig(seed=0))
    records = greedy_rollouts(resolve_start(bundled, 0), table, trials=100, horizon=3, seed=9)
    best = records[0]
    assert best.steps == ((0, 0, 2, 2), (2, 1, 3, 3), (3, 1, 3, 3))
    assert best.total_reward == 8
    assert sum(r.count for r in records) == 100


def test_greedy_rollouts_uniform_start_reaches_nine(bundled):
    table = q_learning(bundled, QlConfig(seed=0))
    records = greedy_rollouts(bundled, table, trials=100, horizon=3, seed=9)
    assert max(r.total_reward for r in records) == 9


def test_greedy_rollouts_deterministic_spec_dedupes():
    spec = MdpSpec(2, 1, (Transition(0, 0, 1, 1.0), Transition(1, 0, 0, 1.0)), (0, 1))
    table = np.zeros((2, 1))
    records = greedy_rollouts(resolve_start(spec, 0), table, trials=50, horizon=2, seed=1)
    assert len(records) == 1
    assert records[0].count == 50


def test_greedy_rollouts_are_seed_deterministic(bundled):
    table = q_learning(bundled, QlConfig(seed=0, episodes=500))
    a = greedy_rollouts(bundled, table, 40, 3, seed=5)
    b = greedy_rollouts(bundled, table, 40, 3, seed=5)
    assert a == b


class _FixedDraw:
    """Stands in for a generator whose next ``random()`` is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
    ulps=st.integers(-4, 4),
    data=st.data(),
)
def test_draw_successor_keeps_the_inverse_cdf_rule(weights, ulps, data):
    probs = [w / sum(weights) for w in weights]
    for _ in range(abs(ulps)):  # the total misses 1.0 by a few ulps
        probs[-1] = float(np.nextafter(probs[-1], 2.0 if ulps > 0 else 0.0))
    nexts = sorted(data.draw(st.sets(st.integers(0, 15), min_size=len(probs), max_size=len(probs))))
    row = tuple(zip(nexts, probs))
    cum = np.cumsum(probs)
    total = float(cum[-1])
    draws = [data.draw(st.floats(0.0, 1.0, exclude_max=True)), *cum.tolist(),
             total, float(np.nextafter(total, 2.0))]
    for u in draws:
        pick = min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)
        assert _draw_successor(_FixedDraw(u), row) == nexts[pick], (row, u)
