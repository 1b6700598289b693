"""Compilation of a finite decision process into a preparation circuit.

The circuit writes a multi-step interaction into the register layout:
initialization (start distribution plus every step's uniform action draw),
then per step an amplitude-encoded transition and reward marking, a copy of
the landed state into the next step's state register, and finally one
reversible accumulation of all per-step rewards into the total register.
Running it on a fresh zero state yields a superposition whose basis-state
probabilities match the classical trajectory distribution exactly; readout
turns the state's live index and amplitude arrays into one trajectory
table, its register columns cut from the indices by shift and mask and its
rows in ascending bit string order, as the enumerator returns them.

Encoding choices that matter downstream:

* Branch probabilities enter through Ry rotations, theta = 2*arcsin(sqrt(p)),
  settled most significant bit first with controls on the already settled
  bits. The compiler is exact: only a branch of exactly 0 or 1 emits no
  rotation (1 is a plain multi-controlled X) and no nonzero branch is cut,
  so unreachable basis states hold an exact zero and the simulated support
  equals the enumerator's; the one cut is the sparse ``PRUNE_TOL`` pruning.
* Rewards are marked by controlled X gates reading the landed state; when
  the reward table is the identity the marking collapses to one CNOT per
  bit.
* The running total accumulates through a reversible ripple increment, one
  carry cascade per reward bit per step. The register is sized for the
  worst case so the addition never wraps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .layout import RegisterLayout, TrajectoryTable, value_pattern
from .layout import decode_trajectory  # noqa: F401  perfbench/tracer.py wraps prepare.decode_trajectory
from .mdp import MdpSpec, resolve_start, validated
from .sim import Circuit, prepare_zero


def theta_for(probability: float) -> float:
    """Rotation angle sending |0> to sqrt(1-p)|0> + sqrt(p)|1>."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability {probability} outside [0, 1]")
    return 2.0 * math.asin(math.sqrt(probability))


def _encode_distribution(circuit, qubits, probs, base_controls):
    """Write sqrt-amplitudes of ``probs`` onto ``qubits`` (LSB first).

    Recursive bisection over the value range: each node splits on one bit,
    rotates by the conditional branch weight, and settles that bit in the
    controls of everything deeper. Zero-weight branches are pruned before
    any gate is emitted, so a zero-denominator conditional never arises.
    """

    def node(bit_index, lo, hi, controls):
        if bit_index < 0:
            return
        mid = (lo + hi) // 2
        mass0 = sum(probs[lo:mid])
        mass1 = sum(probs[mid:hi])
        mass = mass0 + mass1
        qubit = qubits[bit_index]
        if mass1 == 0.0:
            node(bit_index - 1, lo, mid, controls)
        elif mass0 == 0.0:
            circuit.x(qubit, controls)
            node(bit_index - 1, mid, hi, controls)
        else:
            share = mass1 / mass
            # share rounds to 1 when mass0 is below an ulp of mass1: the complement keeps it
            theta = theta_for(share) if share < 1.0 else math.pi - theta_for(mass0 / mass)
            circuit.ry(theta, qubit, controls)
            node(bit_index - 1, lo, mid, controls + ((qubit, 0),))
            node(bit_index - 1, mid, hi, controls + ((qubit, 1),))

    node(len(qubits) - 1, 0, 1 << len(qubits), tuple(base_controls))


def build_init(circuit: Circuit, layout: RegisterLayout, spec: MdpSpec) -> None:
    """The start distribution ``spec.initial`` on the step 0 state register,
    plus the uniform action draw of every step.

    An ``initial`` of None is uniform over the states, which requires a
    power-of-two state count (a uniform start over any other count has no
    defined encoding here and is rejected); an integer pins the start.
    """
    qubits = layout.register_qubits("state", 0)
    if spec.initial is None:
        if spec.num_states & (spec.num_states - 1):
            raise ValueError(
                f"uniform start needs a power-of-two state count, got {spec.num_states}"
            )
        for q in qubits[: (spec.num_states - 1).bit_length()]:
            circuit.h(q)
    else:
        for q, bit in value_pattern(qubits, spec.initial):
            if bit:
                circuit.x(q)
    for t in range(layout.steps):
        for q in layout.register_qubits("action", t)[: (spec.num_actions - 1).bit_length()]:
            circuit.h(q)


def build_transition(circuit: Circuit, layout: RegisterLayout, spec: MdpSpec, step: int) -> None:
    """Amplitude-encode P(next | state, action) for one step.

    Each (state, action) pair contributes one rotation tree on the landing
    register, controlled on the full state and action patterns of the step.
    """
    state_qubits = layout.register_qubits("state", step)
    action_qubits = layout.register_qubits("action", step)
    next_qubits = layout.register_qubits("next", step)
    size = 1 << layout.state_bits
    for (s, a), row in spec.successors.items():
        probs = [0.0] * size
        for nxt, p in row:
            probs[nxt] = p
        controls = value_pattern(state_qubits, s) + value_pattern(action_qubits, a)
        _encode_distribution(circuit, next_qubits, probs, controls)


def build_reward(circuit: Circuit, layout: RegisterLayout, spec: MdpSpec, step: int) -> None:
    """Mark the reward of the landed state into the step's reward register."""
    next_qubits = layout.register_qubits("next", step)
    reward_qubits = layout.register_qubits("reward", step)
    if spec.rewards == tuple(range(spec.num_states)):
        # reward equals the landed state: copy it bit by bit
        for b in range(layout.reward_bits):
            circuit.x(reward_qubits[b], ((next_qubits[b], 1),))
        return
    for v in range(spec.num_states):
        reward = spec.rewards[v]
        if reward == 0:
            continue
        pattern = value_pattern(next_qubits, v)
        for b in range(layout.reward_bits):
            if (reward >> b) & 1:
                circuit.x(reward_qubits[b], pattern)


def build_step_chain(circuit: Circuit, layout: RegisterLayout, step: int) -> None:
    """Copy step ``step``'s landing register onto step ``step + 1``'s state
    register, one CNOT per bit. A basis-state copy: both registers then agree
    in every nonzero basis string."""
    if not 0 <= step < layout.steps - 1:
        raise ValueError(f"no step follows {step} in a {layout.steps}-step layout")
    source = layout.register_qubits("next", step)
    target = layout.register_qubits("state", step + 1)
    for b in range(layout.state_bits):
        circuit.x(target[b], ((source[b], 1),))


def build_return_adder(circuit: Circuit, layout: RegisterLayout) -> None:
    """Accumulate every step's reward register into the total, reversibly.

    Per step and reward bit j this is a controlled increment by 2**j: the
    carry cascade runs top down so every gate reads pre-addition bits, then
    the lowest bit flips. Reward registers are controls only and come out
    unchanged; the total register is sized for steps * max reward, so the
    cascade never wraps.
    """
    total_qubits = layout.register_qubits("return")
    for step in range(layout.steps):
        reward_qubits = layout.register_qubits("reward", step)
        for j in range(layout.reward_bits):
            source = ((reward_qubits[j], 1),)
            for k in range(len(total_qubits) - 1, j, -1):
                carries = tuple((total_qubits[m], 1) for m in range(j, k))
                circuit.x(total_qubits[k], source + carries)
            circuit.x(total_qubits[j], source)


@dataclass(frozen=True)
class PreparedModel:
    """A compiled model: the spec with its resolved start as ``initial``, the
    layout and the circuit."""

    spec: MdpSpec
    layout: RegisterLayout
    circuit: Circuit

    def prepare_state(self, backend: str = "sparse"):
        """Fresh zero state with the preparation circuit applied."""
        return prepare_zero(self.layout.num_qubits, backend).apply_circuit(self.circuit)


def build_preparation(
    spec: MdpSpec,
    steps: int,
    initial: int | str | None = None,
    include_return: bool = True,
) -> PreparedModel:
    """Compile a validated model into its preparation circuit.

    ``initial`` is resolved by :func:`~qmdp.mdp.resolve_start`: None keeps
    the model's own start, "uniform" makes it uniform and a state index pins
    it; the returned model's ``spec`` carries the result. The uniform action
    draw needs a power-of-two action count; other counts are rejected here
    rather than silently skewed.
    """
    spec = validated(spec)
    if spec.num_actions & (spec.num_actions - 1):
        raise ValueError(
            f"uniform action draw needs a power-of-two action count, got {spec.num_actions}"
        )
    spec = resolve_start(spec, initial)
    layout = RegisterLayout.for_mdp(spec, steps, include_return=include_return)
    circuit = Circuit(layout.num_qubits)
    build_init(circuit, layout, spec)
    for t in range(steps):
        build_transition(circuit, layout, spec, t)
        build_reward(circuit, layout, spec, t)
        if t < steps - 1:
            build_step_chain(circuit, layout, t)
    if layout.return_bits:
        build_return_adder(circuit, layout)
    return PreparedModel(spec, layout, circuit)


def simulate_distribution(prepared: PreparedModel, backend: str = "sparse") -> TrajectoryTable:
    """Run the circuit and read every live basis index into a trajectory table.

    Indices and probabilities come from the state's ``live_probabilities()``,
    and :meth:`TrajectoryTable.from_indices` cuts the register columns from
    the indices. Rows keep the indices' ascending order, the enumerator's row
    order.
    """
    idx, probability = prepared.prepare_state(backend).live_probabilities()
    return TrajectoryTable.from_indices(prepared.layout, idx, probability)
