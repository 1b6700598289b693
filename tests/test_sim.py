"""Simulator kernels against an independent dense-matrix reference.

The reference builds each gate as a full 2**n by 2**n matrix from Kronecker
products of 2x2 blocks and control projectors, a deliberately different code
path from either backend kernel. The sparse array kernel is also held to
byte equality with a per-amplitude dict kernel kept here as its reference,
and the chunked dense kernel, rows it skips included, with the whole-array
step it replaced.
"""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_mdp
import qmdp.sim as sim
from qmdp import bundled_mdp
from qmdp.layout import pattern_mask
from qmdp.prepare import build_preparation
from qmdp.sim import (
    DENSE_QUBIT_LIMIT,
    PRUNE_TOL,
    SPARSE_QUBIT_LIMIT,
    Circuit,
    DenseState,
    Gate,
    SparseState,
    _gate_matrix,
    check_width,
    format_circuit,
    prepare_zero,
)

I2 = np.eye(2, dtype=np.float64)


def one_qubit_matrix(gate):
    if gate.kind == "h":
        return np.array([[1, 1], [1, -1]], dtype=np.float64) / math.sqrt(2)
    if gate.kind == "x":
        return np.array([[0, 1], [1, 0]], dtype=np.float64)
    c = math.cos(gate.theta / 2)
    s = math.sin(gate.theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.float64)


def full_matrix(gate, n):
    # qubit 0 is the basis LSB, so the kron chain runs from qubit n-1 down.
    cmap = dict(gate.controls)
    if gate.kind == "flip":
        proj = np.eye(1, dtype=np.float64)
        for q in range(n - 1, -1, -1):
            if q in cmap:
                p = np.zeros((2, 2), dtype=np.float64)
                p[cmap[q], cmap[q]] = 1
                proj = np.kron(proj, p)
            else:
                proj = np.kron(proj, I2)
        return np.eye(2**n, dtype=np.float64) - 2 * proj
    m = one_qubit_matrix(gate)
    hit = np.eye(1, dtype=np.float64)
    matched = np.eye(1, dtype=np.float64)
    for q in range(n - 1, -1, -1):
        if q in cmap:
            p = np.zeros((2, 2), dtype=np.float64)
            p[cmap[q], cmap[q]] = 1
            hit = np.kron(hit, p)
            matched = np.kron(matched, p)
        elif q == gate.target:
            hit = np.kron(hit, m)
            matched = np.kron(matched, I2)
        else:
            hit = np.kron(hit, I2)
            matched = np.kron(matched, I2)
    return hit + np.eye(2**n, dtype=np.float64) - matched


def random_vector(rng, n):
    v = rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def random_gate(rng, n):
    kind = rng.choice(["h", "x", "ry", "flip"])
    qubits = list(rng.permutation(n))
    if kind == "flip":
        k = int(rng.integers(0, n + 1))
        controls = tuple((int(q), int(rng.integers(0, 2))) for q in qubits[:k])
        return Gate("flip", None, controls=controls)
    target = int(qubits[0])
    k = int(rng.integers(0, n))
    controls = tuple((int(q), int(rng.integers(0, 2))) for q in qubits[1 : 1 + k])
    theta = float(rng.uniform(-2 * math.pi, 2 * math.pi)) if kind == "ry" else 0.0
    return Gate(kind, target, theta, controls)


def load_states(vec, n):
    dense = DenseState(n, vec.copy())
    sparse = SparseState(n, {i: float(a) for i, a in enumerate(vec) if a != 0})
    return dense, sparse


def as_vector(state, n):
    v = np.zeros(1 << n, dtype=np.float64)
    for i, a in state.nonzero_items():
        v[i] = a
    return v


def test_gates_match_matrix_reference():
    rng = np.random.default_rng(7)
    for _ in range(400):
        n = int(rng.integers(1, 6))
        gate = random_gate(rng, n)
        vec = random_vector(rng, n)
        expect = full_matrix(gate, n) @ vec
        dense, sparse = load_states(vec, n)
        dense.apply(gate)
        sparse.apply(gate)
        np.testing.assert_allclose(as_vector(dense, n), expect, atol=1e-12)
        np.testing.assert_allclose(as_vector(sparse, n), expect, atol=1e-12)


def test_random_circuits_agree_across_backends():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        circuit = Circuit(n)
        for _ in range(int(rng.integers(5, 30))):
            circuit.add(random_gate(rng, n))
        dense = prepare_zero(n, "dense").apply_circuit(circuit)
        sparse = prepare_zero(n, "sparse").apply_circuit(circuit)
        np.testing.assert_allclose(as_vector(dense, n), as_vector(sparse, n), atol=1e-12)
        assert abs(dense.norm() - 1.0) < 1e-12
        assert abs(sparse.norm() - 1.0) < 1e-12


def test_inverse_circuit_round_trips():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        circuit = Circuit(n)
        for _ in range(int(rng.integers(1, 20))):
            circuit.add(random_gate(rng, n))
        vec = random_vector(rng, n)
        dense, sparse = load_states(vec, n)
        dense.apply_circuit(circuit).apply_circuit(circuit.inverse())
        sparse.apply_circuit(circuit).apply_circuit(circuit.inverse())
        np.testing.assert_allclose(as_vector(dense, n), vec, atol=1e-12)
        np.testing.assert_allclose(as_vector(sparse, n), vec, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_single_gate_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    gate = random_gate(rng, n)
    vec = random_vector(rng, n)
    dense, sparse = load_states(vec, n)
    assert abs(dense.apply(gate).norm() - 1.0) < 1e-12
    assert abs(sparse.apply(gate).norm() - 1.0) < 1e-12


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4096))
def test_sampling_is_seed_deterministic(seed, shots):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    circuit = Circuit(n)
    for _ in range(int(rng.integers(1, 12))):
        circuit.add(random_gate(rng, n))
    dense = prepare_zero(n, "dense").apply_circuit(circuit)
    sparse = prepare_zero(n, "sparse").apply_circuit(circuit)
    a = dense.sample(shots, seed=seed)
    b = dense.sample(shots, seed=seed)
    c = sparse.sample(shots, seed=seed)
    assert a == b == c
    assert sum(a.values()) == shots


def test_prepare_zero_starts_at_origin():
    for backend in ("dense", "sparse"):
        state = prepare_zero(3, backend)
        assert state.nonzero_items() == [(0, 1.0)]
        assert state.probabilities() == {"000": 1.0}


def test_hadamard_pair_is_identity():
    state = prepare_zero(1, "dense")
    state.apply(Gate("h", 0)).apply(Gate("h", 0))
    np.testing.assert_allclose(as_vector(state, 1), [1, 0], atol=1e-15)


def test_ry_rotates_zero_toward_one():
    theta = 2 * math.asin(math.sqrt(0.3))
    for backend in ("dense", "sparse"):
        state = prepare_zero(1, backend).apply(Gate("ry", 0, theta))
        probs = state.probabilities()
        assert probs["1"] == pytest.approx(0.3, abs=1e-12)
        assert probs["0"] == pytest.approx(0.7, abs=1e-12)


def test_controlled_x_fires_only_on_pattern():
    for backend in ("dense", "sparse"):
        state = prepare_zero(2, backend)
        state.apply(Gate("x", 1, controls=((0, 1),)))
        assert state.probabilities() == {"00": 1.0}
        state.apply(Gate("x", 0)).apply(Gate("x", 1, controls=((0, 1),)))
        assert state.probabilities() == {"11": 1.0}


def test_flip_negates_only_matching_states():
    state = prepare_zero(2, "dense")
    state.apply(Gate("h", 0)).apply(Gate("h", 1))
    state.apply(Gate("flip", controls=((0, 1), (1, 0))))
    amps = dict(state.nonzero_items())
    assert amps[0b01].real == pytest.approx(-0.5, abs=1e-12)
    for i in (0b00, 0b10, 0b11):
        assert amps[i].real == pytest.approx(0.5, abs=1e-12)


def test_flip_with_empty_pattern_is_global_minus_one():
    state = prepare_zero(2, "sparse").apply(Gate("h", 0))
    state.apply(Gate("flip"))
    amps = dict(state.nonzero_items())
    assert amps[0].real == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
    assert amps[1].real == pytest.approx(-1 / math.sqrt(2), abs=1e-12)


def test_marginal_orders_bits_by_position_in_list():
    state = prepare_zero(3, "dense").apply(Gate("x", 2)).apply(Gate("h", 0))
    # qubit 2 is set, qubit 0 uniform, qubit 1 clear
    assert state.marginal([2]) == {1: pytest.approx(1.0)}
    assert state.marginal([0, 2]) == {
        2: pytest.approx(0.5),
        3: pytest.approx(0.5),
    }
    assert state.marginal([2, 0]) == {
        1: pytest.approx(0.5),
        3: pytest.approx(0.5),
    }


def test_pattern_probability_sums_matching_states():
    state = prepare_zero(2, "sparse").apply(Gate("h", 0)).apply(Gate("h", 1))
    assert state.pattern_probability(((0, 1),)) == pytest.approx(0.5, abs=1e-12)
    assert state.pattern_probability(()) == pytest.approx(1.0, abs=1e-12)
    items = state.pattern_items(((1, 0),))
    assert [i for i, _ in items] == [0b00, 0b01]


def test_sample_counts_match_distribution_roughly():
    state = prepare_zero(2, "dense").apply(Gate("h", 0))
    counts = state.sample(10000, seed=5)
    assert set(counts) == {"00", "01"}
    assert abs(counts["00"] / 10000 - 0.5) < 0.05


def test_dump_lists_nonzero_amplitudes_in_order():
    state = prepare_zero(2, "sparse").apply(Gate("h", 1))
    lines = state.dump().splitlines()
    assert lines[0].startswith("00 ") and lines[1].startswith("10 ")
    value = float(lines[0].split()[1])
    assert value == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_format_circuit_round_trips_key_fields():
    circuit = Circuit(3).h(0).x(2, controls=((0, 1),)).ry(0.5, 1).flip(((2, 0),))
    text = format_circuit(circuit)
    lines = text.splitlines()
    assert lines[0] == "h target=0 controls=[]"
    assert lines[1] == "x target=2 controls=[0:1]"
    assert lines[2] == "ry(0.5) target=1 controls=[]"
    assert lines[3] == "flip target=- controls=[2:0]"


def test_sparse_prunes_cancelled_branches():
    state = prepare_zero(1, "sparse")
    state.apply(Gate("h", 0)).apply(Gate("h", 0))
    assert state.nonzero_items() == [(0, pytest.approx(1.0, abs=1e-12))]
    assert len(state._amps) == 1  # the cancelled |1> entry is gone


def dict_apply(amps, gate):
    """One gate on a {basis index: amplitude} dict, one Python step per entry."""
    mask, want = pattern_mask(gate.controls)
    if gate.kind == "flip":
        return {i: -a if i & mask == want else a for i, a in amps.items()}
    tbit = 1 << gate.target
    if gate.kind == "x":
        return {i ^ tbit if i & mask == want else i: a for i, a in amps.items()}
    m00, m01, m10, m11 = _gate_matrix(gate)
    out = {}
    for i, a in amps.items():
        if i & mask != want:
            out[i] = out.get(i, 0.0) + a
            continue
        to_lo, to_hi = (m01, m11) if i & tbit else (m00, m10)
        out[i & ~tbit] = out.get(i & ~tbit, 0.0) + to_lo * a
        out[i | tbit] = out.get(i | tbit, 0.0) + to_hi * a
    return {i: a for i, a in out.items() if abs(a) >= PRUNE_TOL}


def assert_same_bytes(state, amps):
    idx, values = state.nonzero()
    keys = sorted(amps)
    assert idx.tobytes() == np.array(keys, dtype=np.int64).tobytes()
    assert values.tobytes() == np.array([amps[i] for i in keys], dtype=np.float64).tobytes()


def test_sparse_kernel_matches_dict_kernel_bytewise():
    rng = np.random.default_rng(29)
    for trial in range(300):
        n = int(rng.integers(1, 9))
        start = {0: 1.0}
        if trial % 2:  # amplitudes on every basis state
            start = {i: float(a) for i, a in enumerate(random_vector(rng, n))}
        state, amps = SparseState(n, dict(start)), dict(start)
        for _ in range(int(rng.integers(1, 40))):
            gate = random_gate(rng, n)
            # a repeated H cancels branches that pruning must then drop
            for g in [gate, gate] if gate.kind == "h" and rng.random() < 0.3 else [gate]:
                state.apply(g)
                amps = dict_apply(amps, g)
                assert_same_bytes(state, amps)


@pytest.mark.parametrize("spec, steps, initial", [
    *[(bundled_mdp(), t, None) for t in range(1, 6)],
    (random_mdp(np.random.default_rng(3), num_states=4, num_actions=2), 3, "uniform"),
], ids=[f"bundled-t{t}" for t in range(1, 6)] + ["random-uniform-t3"])
def test_sparse_preparation_matches_dict_kernel_bytewise(spec, steps, initial):
    prepared = build_preparation(spec, steps, initial=initial)
    state = prepare_zero(prepared.layout.num_qubits, "sparse")
    amps = {0: 1.0}
    for gate in prepared.circuit.gates:
        state.apply(gate)
        amps = dict_apply(amps, gate)
    assert_same_bytes(state, amps)
    assert len(state._amps) == len(amps) > 1


def test_flip_leaves_the_same_signed_zeros_on_both_backends():
    dumps = [
        prepare_zero(2, backend).apply(Gate("h", 0)).apply(Gate("flip", controls=((0, 1),))).dump()
        for backend in ("sparse", "dense")
    ]
    assert dumps[0] == dumps[1]
    assert dumps[0].splitlines()[1] == "01 -0.7071067811865475 0.0"


def signed_zero_vector(rng, n):
    """A random real vector with some entries set to 0.0 and some to -0.0."""
    vec = random_vector(rng, n)
    kind = rng.integers(0, 3, size=1 << n)
    return np.select([kind == 0, kind == 1], [np.zeros_like(vec), np.full_like(vec, -0.0)], vec)


def test_dense_flip_matches_dict_kernel_bytewise():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        vec = signed_zero_vector(rng, n)
        k = int(rng.integers(0, n + 1))  # k == n puts a control on every axis
        controls = tuple((int(q), int(rng.integers(0, 2))) for q in rng.permutation(n)[:k])
        gate = Gate("flip", None, controls=controls)
        amps = dict_apply(dict(enumerate(vec)), gate)
        state = DenseState(n, vec.copy()).apply(gate)
        assert state._amps.tobytes() == np.array([amps[i] for i in range(1 << n)], dtype=np.float64).tobytes()


@pytest.mark.parametrize("low", range(6), ids=[f"stride-{1 << q}" for q in range(6)])
def test_dense_flip_is_exact_at_every_view_stride(low):
    # Controls on every qubit below `low` leave qubit `low` as the innermost
    # free axis, so the flipped view steps 2**low elements: every stride from
    # 1 to 39 a flip view can take. In-place np.negative on numpy 2.4 writes
    # wrong float64 values at stride 8 from length 2 on.
    rng = np.random.default_rng(47 + low)
    for n in range(low + 1, low + 5):
        for _ in range(20):
            controls = [(q, int(rng.integers(0, 2))) for q in range(low)]
            controls += [(q, int(rng.integers(0, 2))) for q in range(low + 1, n) if rng.random() < 0.5]
            gate = Gate("flip", None, controls=tuple(controls))
            vec = signed_zero_vector(rng, n)
            amps = dict_apply(dict(enumerate(vec)), gate)
            state = DenseState(n, vec.copy()).apply(gate)
            assert state._amps.tobytes() == np.array([amps[i] for i in range(1 << n)], dtype=np.float64).tobytes()


def test_dense_flip_negates_a_stride_8_view():
    # numpy's own repro, a[1::8] of np.arange(16.0), as the view of this pattern
    state = DenseState(4, np.arange(16.0)).apply(Gate("flip", None, controls=((0, 1), (1, 0), (2, 0))))
    assert state._amps[9] == -9.0
    assert state._amps.tolist() == [-x if x in (1, 9) else x for x in range(16)]


@pytest.mark.parametrize("make", [
    lambda: DenseState(1, np.array([1.0, 0.0], dtype=np.complex128)),
    lambda: SparseState(1, {0: 1j}),
], ids=["dense", "sparse"])
def test_a_complex_input_is_refused_in_one_line(make):
    with pytest.raises(ValueError, match="^amplitudes must be real, got complex128: every gate is a real matrix$"):
        make()


def dense_reference_apply(amps, gate):
    """One gate on a whole 2**n amplitude array in place, through half-array
    temporaries: the dense kernel before it worked chunk by chunk."""
    n = len(amps).bit_length() - 1
    grid = amps.reshape((2,) * n)
    index: list = [slice(None)] * n
    for q, b in gate.controls:
        index[n - 1 - q] = b
    if gate.kind == "flip":
        view = grid[(*index, ...)]
        np.multiply(view, -1.0, out=view)  # np.negative fails in place at stride 8
        return amps
    axis = n - 1 - gate.target
    index[axis] = 0
    sel0 = tuple(index)
    index[axis] = 1
    sel1 = tuple(index)
    a0 = grid[sel0]
    a1 = grid[sel1]
    if gate.kind == "x":
        tmp = a0.copy()
        grid[sel0] = a1
        grid[sel1] = tmp
        return amps
    m00, m01, m10, m11 = _gate_matrix(gate)
    new0 = m00 * a0 + m01 * a1
    new1 = m10 * a0 + m11 * a1
    grid[sel0] = new0
    grid[sel1] = new1
    return amps


def test_chunked_dense_kernel_matches_reference_bytewise(monkeypatch):
    rng = np.random.default_rng(37)
    sides = Counter()  # (what, below or above the chunk boundary) pairs covered
    for chunk in (2, 3):
        monkeypatch.setattr(sim, "CHUNK_QUBITS", chunk)
        for _ in range(150):
            n = int(rng.integers(chunk, 9))  # n == chunk is a single chunk
            vec = signed_zero_vector(rng, n)
            state, amps = DenseState(n, vec.copy()), vec.copy()
            for _ in range(int(rng.integers(1, 12))):
                gate = random_gate(rng, n)
                if gate.kind != "flip":
                    sides["target", gate.target >= chunk] += 1
                    sides.update(("control", q >= chunk) for q, _ in gate.controls)
                state.apply(gate)
                dense_reference_apply(amps, gate)
                assert state._amps.tobytes() == amps.tobytes()
    assert min(sides[what, above] for what in ("target", "control") for above in (False, True)) > 50


def signed_zero_rows(rng, n, chunk):
    """A random real vector whose rows of 2**chunk amplitudes are each
    random, all +0.0 or all -0.0."""
    rows = random_vector(rng, n).reshape(-1, 1 << chunk)
    kind = rng.integers(0, 3, size=len(rows))
    rows[kind == 0] = 0.0
    rows[kind == 1] = -0.0
    return rows.reshape(-1)


def flags_hold(state):
    """Every flagged row holds only +0.0, byte for byte."""
    bits = state._amps.reshape(len(state._zero), -1).view(np.uint64)
    return not bits[np.array(state._zero)].any()


def test_dense_row_skip_matches_reference_bytewise(monkeypatch):
    # Rows that hold only +0.0 are skipped; -0.0 rows, flips and Ry angles
    # beyond +-pi (whose matrix maps a zero pair to a -0.0) must not be.
    rng = np.random.default_rng(53)
    seen = Counter()  # (gate kind, whether the state had a flagged row) pairs
    for chunk in (2, 3):
        monkeypatch.setattr(sim, "CHUNK_QUBITS", chunk)
        for trial in range(200):
            n = int(rng.integers(chunk + 1, 9))
            if trial % 2:
                state, vec = DenseState(n), np.zeros(1 << n)
                vec[0] = 1.0
            else:
                vec = signed_zero_rows(rng, n, chunk)
                state = DenseState(n, vec.copy())
            assert flags_hold(state)
            for _ in range(int(rng.integers(1, 12))):
                gate = random_gate(rng, n)
                seen[gate.kind, any(state._zero)] += 1
                state.apply(gate)
                dense_reference_apply(vec, gate)
                assert state._amps.tobytes() == vec.tobytes()
                assert flags_hold(state)
    assert min(seen[kind, True] for kind in ("h", "x", "ry", "flip")) > 100


def test_a_partly_flagged_state_reads_out_like_a_fully_busy_one(monkeypatch):
    monkeypatch.setattr(sim, "CHUNK_QUBITS", 3)
    prepared = build_preparation(bundled_mdp(), 2)
    n = prepared.layout.num_qubits
    state = DenseState(n).apply_circuit(prepared.circuit)
    assert 0 < sum(state._zero) < len(state._zero)
    rows = state._amps.copy().reshape(len(state._zero), -1)
    rows[~rows.view(np.uint64).any(axis=1), 0] = -0.0  # every row busy, same live entries
    amps = rows.reshape(-1)
    busy = DenseState(n, amps)
    assert not any(busy._zero)
    (idx, values), (busy_idx, busy_values) = state.nonzero(), busy.nonzero()
    assert idx.dtype == busy_idx.dtype and idx.tobytes() == busy_idx.tobytes()
    assert values.tobytes() == busy_values.tobytes()
    assert state.sample(5000, seed=3) == busy.sample(5000, seed=3)


@pytest.mark.parametrize("gate", [
    Gate("h", 0),
    Gate("h", 19),
    Gate("x", 19),
    Gate("ry", 3, 0.7, ((17, 1),)),
    Gate("ry", 18, -1.1, ((2, 0),)),
], ids=["h-q0", "h-q19", "x-q19", "ry-q3-control-q17", "ry-q18-control-q2"])
def test_a_dense_gate_allocates_a_few_mib_at_most(gate):
    state = DenseState(20, random_vector(np.random.default_rng(41), 20))  # 16 MiB of amplitudes
    tracemalloc.start()
    try:
        state.apply(gate)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_validation_rejects_malformed_gates():
    with pytest.raises(ValueError):
        Gate("t", 0)
    with pytest.raises(ValueError):
        Gate("h")
    with pytest.raises(ValueError):
        Gate("flip", 0)
    with pytest.raises(ValueError):
        Gate("x", 0, controls=((0, 1),))
    with pytest.raises(ValueError):
        Gate("x", 1, controls=((0, 1), (0, 0)))
    with pytest.raises(ValueError):
        Gate("x", 1, controls=((0, 2),))
    with pytest.raises(ValueError, match="^control qubit -1 is negative$"):
        Gate("x", 1, controls=((-1, 1),))


def test_width_mismatches_are_rejected():
    with pytest.raises(ValueError):
        Circuit(2).x(2)
    for backend in ("dense", "sparse"):
        with pytest.raises(ValueError, match="^gate touches qubit 5 outside register of 2$"):
            prepare_zero(2, backend).apply(Gate("x", 5))
    with pytest.raises(ValueError):
        prepare_zero(2, "sparse").apply_circuit(Circuit(3).x(0))
    with pytest.raises(ValueError):
        Circuit(2).extend(Circuit(3))
    for backend in ("dense", "sparse"):
        with pytest.raises(ValueError, match="^num_qubits must be >= 1, got 0$"):
            check_width(0, backend)


def test_dense_capacity_is_enforced():
    with pytest.raises(ValueError, match="capacity"):
        prepare_zero(DENSE_QUBIT_LIMIT + 1, "dense")
    # sparse has no such wall
    assert prepare_zero(DENSE_QUBIT_LIMIT + 1, "sparse").num_qubits == 27


@pytest.mark.parametrize("num_qubits, figure", [
    (27, "1024 MiB of amplitudes, limit is 26 qubits (512 MiB); use the sparse backend"),
    (200, "a 56-digit integer MiB of amplitudes"),
    (15000, "a 4511-digit integer MiB of amplitudes"),
], ids=["27q", "200q", "15000q"])
def test_dense_capacity_message_is_one_short_line(num_qubits, figure):
    with pytest.raises(ValueError) as refused:
        check_width(num_qubits, "dense")
    message = str(refused.value)
    assert message.startswith(f"dense backend capacity exceeded: {num_qubits} qubits needs {figure}")
    assert "\n" not in message and len(message) < 160


def test_sparse_capacity_is_enforced():
    with pytest.raises(ValueError, match="sparse backend capacity exceeded: 64 qubits, limit is 63"):
        prepare_zero(SPARSE_QUBIT_LIMIT + 1, "sparse")
    # the top qubit of the widest state still indexes correctly
    top = SPARSE_QUBIT_LIMIT - 1
    state = prepare_zero(SPARSE_QUBIT_LIMIT, "sparse").apply(Gate("h", top)).apply(Gate("x", 0, controls=((top, 1),)))
    assert [i for i, _ in state.nonzero_items()] == [0, (1 << top) | 1]
    assert state.marginal([top]) == {0: pytest.approx(0.5), 1: pytest.approx(0.5)}


def test_unknown_backend_is_rejected():
    with pytest.raises(ValueError, match="backend"):
        prepare_zero(2, "tensor")


def test_sample_rejects_bad_arguments():
    state = prepare_zero(1, "dense")
    with pytest.raises(ValueError):
        state.sample(-1, seed=0)
    assert state.sample(0, seed=0) == {}
    for empty in (DenseState(1, np.zeros(2)), SparseState(1, {})):
        with pytest.raises(ValueError, match="^cannot sample from an all-zero state$"):
            empty.sample(1, seed=0)


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_sample_refuses_a_missing_seed(backend):
    state = build_preparation(bundled_mdp(), 2, initial=0).prepare_state(backend)
    with pytest.raises(ValueError, match="sampling without a seed is not reproducible"):
        state.sample(100, None)
    assert state.sample(0, None) == {}
    # One key per drawn basis index, ascending, as a per-shot tally gives.
    counts = state.sample(500, seed=3)
    assert list(counts) == sorted(counts)
    assert sum(counts.values()) == 500
    assert all(isinstance(n, int) and n > 0 for n in counts.values())


def test_marginal_rejects_bad_qubits():
    state = prepare_zero(2, "dense")
    with pytest.raises(ValueError):
        state.marginal([0, 0])
    with pytest.raises(ValueError):
        state.marginal([3])


def test_full_scale_circuits_stay_unit_norm_and_agree():
    # 12 qubits, 200 gates: the largest size the dense reference budget
    # covers. Norm must hold to 1e-9 and both kernels must agree pointwise.
    rng = np.random.default_rng(17)
    for _ in range(3):
        circuit = Circuit(12)
        for _ in range(200):
            circuit.add(random_gate(rng, 12))
        dense = prepare_zero(12, "dense")
        sparse = prepare_zero(12, "sparse")
        dense.apply_circuit(circuit)
        sparse.apply_circuit(circuit)
        assert abs(dense.norm() - 1.0) < 1e-9
        assert abs(sparse.norm() - 1.0) < 1e-9
        assert np.max(np.abs(as_vector(dense, 12) - as_vector(sparse, 12))) < 1e-9


def test_hundred_thousand_shots_track_amplitudes():
    # Born rule check: every outcome within 5 standard errors of N * p.
    rng = np.random.default_rng(23)
    circuit = Circuit(4)
    for _ in range(30):
        circuit.add(random_gate(rng, 4))
    for backend in ("dense", "sparse"):
        state = prepare_zero(4, backend)
        state.apply_circuit(circuit)
        shots = 100_000
        counts = state.sample(shots, seed=5)
        probs = state.probabilities()
        assert sum(counts.values()) == shots
        for bits, p in probs.items():
            sigma = math.sqrt(shots * p * (1 - p))
            assert abs(counts.get(bits, 0) - shots * p) <= 5 * sigma + 1e-9
        for bits in counts:
            assert bits in probs
