"""Register geometry and the bitstring codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmdp.layout import (
    STEP_ROLES,
    RegisterLayout,
    TrajectoryRecord,
    bitstring_of,
    decode_index,
    decode_trajectory,
    encode_index,
    field_value,
    value_pattern,
)
from qmdp.mdp import bundled_mdp

from conftest import random_mdp


def test_bundled_layout_sizes(bundled):
    three = RegisterLayout.for_mdp(bundled, 3)
    assert (three.state_bits, three.action_bits, three.reward_bits) == (2, 1, 2)
    assert three.return_bits == 4  # holds up to 3 * 3 = 9
    assert three.step_width == 7
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
    seen.extend(layout.return_qubits())
    assert sorted(seen) == list(range(layout.num_qubits))
    assert layout.register_qubits("return", 0) == layout.return_qubits()
    with pytest.raises(ValueError, match="^unknown register role 'total'$"):
        layout.register_qubits("total")
    for step in (-1, 3):
        with pytest.raises(ValueError, match=rf"^step {step} outside \[0, 3\)$"):
            layout.state_qubits(step)


def test_step_blocks_ascend_from_zero(bundled):
    layout = RegisterLayout.for_mdp(bundled, 2)
    assert layout.state_qubits(0) == [0, 1]
    assert layout.action_qubits(0) == [2]
    assert layout.next_qubits(0) == [3, 4]
    assert layout.reward_qubits(0) == [5, 6]
    assert layout.state_qubits(1) == [7, 8]
    assert layout.return_qubits() == [14, 15, 16]


def test_known_trajectory_string_round_trips(bundled):
    layout = RegisterLayout.for_mdp(bundled, 3)
    steps = ((0, 0, 2, 2), (2, 1, 3, 3), (3, 1, 3, 3))
    index = encode_index(layout, steps, 8)
    bits = bitstring_of(layout, index)
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
        index = encode_index(layout, steps, total)
        decoded = decode_index(layout, index)
        assert (decoded.steps, decoded.total_return) == (steps, total)
        rec = decode_trajectory(layout, bitstring_of(layout, index))
        assert (rec.steps, rec.total_return) == (steps, total)
        batches.setdefault(layout, []).append(index)
    # one field_value call per register decodes a whole array of indices
    for layout, indices in batches.items():
        batch = np.array(indices, dtype=np.int64)
        registers = [layout.return_qubits()]
        for t in range(layout.steps):
            registers += [layout.register_qubits(role, t) for role in ("state", "action", "next", "reward")]
        for qubits in registers:
            values = field_value(batch, qubits)
            assert values.tolist() == [field_value(index, qubits) for index in indices]


def test_field_value_reads_register_bits():
    # value 6 on qubits [1, 3, 5] means bits 0,1,1 at those positions
    index = (1 << 3) | (1 << 5)
    assert field_value(index, [1, 3, 5]) == 6


def test_encode_rejects_out_of_range(bundled):
    layout = RegisterLayout.for_mdp(bundled, 1)
    with pytest.raises(ValueError):
        encode_index(layout, ((4, 0, 0, 0),), 0)
    with pytest.raises(ValueError):
        encode_index(layout, ((0, 0, 0, 0),), 99)
    with pytest.raises(ValueError):
        encode_index(layout, ((0, 0, 0, 0), (0, 0, 0, 0)), 0)
    bare = RegisterLayout.for_mdp(bundled, 1, include_return=False)
    with pytest.raises(ValueError, match="^return -1 is negative$"):
        encode_index(bare, ((0, 0, 0, 0),), -1)


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
    assert layout.reward_qubits(0) == []
    steps = ((0, 0, 1, 0), (1, 1, 0, 0))
    index = encode_index(layout, steps, 0)
    decoded = decode_index(layout, index)
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
    record = decode_index(layout, index)
    gathered = tuple(
        tuple(field_value(index, layout.register_qubits(role, t)) for role in STEP_ROLES)
        for t in range(steps)
    )
    assert record.steps == gathered
    if layout.return_bits:
        assert record.total_return == field_value(index, layout.return_qubits())
    else:
        assert record.total_return == sum(r for _, _, _, r in gathered)
    assert encode_index(layout, record.steps, record.total_return) == index

    # one register pushed just out of its range
    registers = [(role, t) for t in range(steps) for role in STEP_ROLES]
    if layout.return_bits:
        registers.append(("return", 0))
    role, t = data.draw(st.sampled_from(registers))
    width = len(layout.register_qubits(role, t))
    bad = data.draw(st.sampled_from([-1, 1 << width]))
    steps_in = [list(step) for step in record.steps]
    total = record.total_return
    if role == "return":
        total = bad
    else:
        steps_in[t][STEP_ROLES.index(role)] = bad
    message = f"value {bad} does not fit a {width}-bit register"
    with pytest.raises(ValueError, match=message):
        encode_index(layout, [tuple(step) for step in steps_in], total)
    with pytest.raises(ValueError, match=message):
        value_pattern(layout.register_qubits(role, t), bad)
