"""Register geometry and the bitstring codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmdp.layout import (
    STEP_ROLES,
    RegisterLayout,
    TrajectoryRecord,
    TrajectoryTable,
    decode_trajectory,
    value_pattern,
)
from qmdp.mdp import bundled_mdp

from conftest import random_mdp


def bits_of(layout, index):
    return format(index, f"0{layout.num_qubits}b")


def pack(layout, values):
    """The basis index holding ``values``, one per field of ``layout.fields`` in order."""
    return sum(value << offset for value, (offset, _) in zip(values, layout.fields))


def test_bundled_layout_sizes(bundled):
    three = RegisterLayout.for_mdp(bundled, 3)
    assert (three.state_bits, three.action_bits, three.reward_bits) == (2, 1, 2)
    assert three.return_bits == 4  # holds up to 3 * 3 = 9
    assert three.fields[4] == (7, 2)  # step 1's state register follows a 7-qubit step
    assert three.num_qubits == 25

    one = RegisterLayout.for_mdp(bundled, 1)
    assert one.num_qubits == 9 and one.return_bits == 2
    bare = RegisterLayout.for_mdp(bundled, 1, include_return=False)
    assert bare.num_qubits == 7 and bare.return_bits == 0


def test_registers_are_disjoint_and_cover_everything(bundled):
    layout = RegisterLayout.for_mdp(bundled, 3)
    seen = []
    for t in range(3):
        for role in ("state", "action", "next", "reward"):
            seen.extend(layout.register_qubits(role, t))
    seen.extend(layout.register_qubits("return"))
    assert sorted(seen) == list(range(layout.num_qubits))
    assert layout.register_qubits("return", 5) == layout.register_qubits("return")
    with pytest.raises(ValueError, match="^unknown register role 'total'$"):
        layout.register_qubits("total")
    for step in (-1, 3):
        with pytest.raises(ValueError, match=rf"^step {step} outside \[0, 3\)$"):
            layout.register_qubits("state", step)


def test_step_blocks_ascend_from_zero(bundled):
    layout = RegisterLayout.for_mdp(bundled, 2)
    assert layout.register_qubits("state", 0) == [0, 1]
    assert layout.register_qubits("action", 0) == [2]
    assert layout.register_qubits("next", 0) == [3, 4]
    assert layout.register_qubits("reward", 0) == [5, 6]
    assert layout.register_qubits("state", 1) == [7, 8]
    assert layout.register_qubits("return") == [14, 15, 16]


def test_known_trajectory_string_round_trips(bundled):
    layout = RegisterLayout.for_mdp(bundled, 3)
    steps = ((0, 0, 2, 2), (2, 1, 3, 3), (3, 1, 3, 3))
    index = pack(layout, [*sum(steps, ()), 8])
    bits = bits_of(layout, index)
    assert bits == "1000111111111111101010000"
    decoded = decode_trajectory(layout, bits)
    assert decoded.steps == steps
    assert decoded.total_return == 8
    assert decoded.bitstring == bits


def test_all_zero_string_decodes_to_rest(bundled):
    layout = RegisterLayout.for_mdp(bundled, 3)
    rec = decode_trajectory(layout, "0" * 25)
    assert rec.steps == ((0, 0, 0, 0),) * 3
    assert rec.total_return == 0


def test_no_return_variant_decodes_from_step_rewards(bundled):
    layout = RegisterLayout.for_mdp(bundled, 1, include_return=False)
    rec = decode_trajectory(layout, "0000001")
    assert rec.steps == ((1, 0, 0, 0),)
    assert rec.total_return == 0
    rec = decode_trajectory(layout, "1111111")
    assert rec.steps == ((3, 1, 3, 3),)
    assert rec.total_return == 3


def test_random_round_trips():
    rng = np.random.default_rng(21)
    batches = {}
    for _ in range(200):
        spec = random_mdp(rng)
        steps_n = int(rng.integers(1, 4))
        layout = RegisterLayout.for_mdp(spec, steps_n)
        steps = []
        total = 0
        for _ in range(steps_n):
            s = int(rng.integers(spec.num_states))
            a = int(rng.integers(spec.num_actions))
            nxt = int(rng.integers(spec.num_states))
            r = spec.rewards[nxt]
            steps.append((s, a, nxt, r))
            total += r
        steps = tuple(steps)
        index = pack(layout, [*sum(steps, ()), total])
        rec = decode_trajectory(layout, bits_of(layout, index))
        assert (rec.steps, rec.total_return, rec.bitstring) == (steps, total, bits_of(layout, index))
        batches.setdefault(layout, []).append(index)
    # one from_indices call cuts a whole array of indices into the scalar decode's records
    for layout, indices in batches.items():
        indices = sorted(indices)
        table = TrajectoryTable.from_indices(layout, np.array(indices, dtype=np.int64), np.ones(len(indices)))
        records = [decode_trajectory(layout, bits_of(layout, index)) for index in indices]
        assert list(table) == [TrajectoryRecord(r.steps, r.total_return, r.bitstring, 1.0) for r in records]


def test_decode_rejects_malformed_strings(bundled):
    layout = RegisterLayout.for_mdp(bundled, 1)
    with pytest.raises(ValueError):
        decode_trajectory(layout, "000")
    with pytest.raises(ValueError):
        decode_trajectory(layout, "00000000x")


def test_zero_reward_model_has_no_reward_bits():
    rng = np.random.default_rng(5)
    spec = random_mdp(rng, max_reward=0)
    layout = RegisterLayout.for_mdp(spec, 2)
    assert layout.reward_bits == 0
    assert layout.return_bits == 0
    assert layout.register_qubits("reward", 0) == []
    steps = ((0, 0, 1, 0), (1, 1, 0, 0))
    index = pack(layout, sum(steps, ()))
    decoded = decode_trajectory(layout, bits_of(layout, index))
    assert (decoded.steps, decoded.total_return) == (steps, 0)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.sampled_from([2, 3, 4, 8]),
    num_actions=st.sampled_from([1, 2, 4]),
    max_reward=st.sampled_from([0, 1, 3, 7]),
    steps=st.integers(1, 3),
    include_return=st.booleans(),
    data=st.data(),
)
def test_field_codec_matches_per_qubit_gather(seed, num_states, num_actions, max_reward, steps,
                                              include_return, data):
    # max_reward=0 gives zero-width reward and return fields
    spec = random_mdp(np.random.default_rng(seed), num_states, num_actions, max_reward)
    layout = RegisterLayout.for_mdp(spec, steps, include_return=include_return)
    index = data.draw(st.integers(0, (1 << layout.num_qubits) - 1))
    record = decode_trajectory(layout, bits_of(layout, index))
    [row] = TrajectoryTable.from_indices(layout, np.array([index], dtype=np.int64), np.ones(1))
    assert row == TrajectoryRecord(record.steps, record.total_return, record.bitstring, 1.0)

    def gather(qubits):
        return sum(((index >> q) & 1) << j for j, q in enumerate(qubits))

    gathered = tuple(tuple(gather(layout.register_qubits(role, t)) for role in STEP_ROLES) for t in range(steps))
    assert record.steps == gathered
    if layout.return_bits:
        assert record.total_return == gather(layout.register_qubits("return"))
    else:
        assert record.total_return == sum(r for _, _, _, r in gathered)
    assert pack(layout, [*sum(record.steps, ()), record.total_return if layout.return_bits else 0]) == index

    # one register pushed just out of its range
    registers = [(role, t) for t in range(steps) for role in STEP_ROLES]
    if layout.return_bits:
        registers.append(("return", 0))
    role, t = data.draw(st.sampled_from(registers))
    width = len(layout.register_qubits(role, t))
    bad = data.draw(st.sampled_from([-1, 1 << width]))
    with pytest.raises(ValueError, match=f"^value {bad} does not fit a {width}-bit register$"):
        value_pattern(layout.register_qubits(role, t), bad)
