"""Qubit register layout and trajectory bit-string encoding.

Every timestep owns a contiguous block [state | action | next | reward]
ascending from qubit 0 for t = 0, 1, ...; the running-return register sits on
top. Qubit 0 is the least significant bit of a basis index, so the printed
(most-significant-first) form of a basis string reads: return bits, then step
T-1 down to step 0, each step as reward | next | action | state. This module
is pure bookkeeping; it knows nothing about gates or amplitudes.

It is the register codec's only owner: the gather :func:`field_value`, the
scatter :func:`field_index`, :func:`value_pattern` and :func:`pattern_mask`.
It also owns :func:`probability_order`, the order of trajectory listings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .mdp import MdpSpec


def _bits_for_states(count: int) -> int:
    # A register is never zero width: one state still occupies one qubit.
    return max(1, (count - 1).bit_length())


@dataclass(frozen=True)
class RegisterLayout:
    """Bit widths and qubit index maps for a T-step trajectory register."""

    state_bits: int
    action_bits: int
    reward_bits: int
    steps: int
    return_bits: int

    @classmethod
    def for_mdp(cls, spec: MdpSpec, steps: int, include_return: bool = True) -> "RegisterLayout":
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        n_r = spec.max_reward.bit_length()
        if include_return:
            n_g = (steps * (2**n_r - 1)).bit_length()
        else:
            n_g = 0
        return cls(
            state_bits=_bits_for_states(spec.num_states),
            action_bits=_bits_for_states(spec.num_actions),
            reward_bits=n_r,
            steps=steps,
            return_bits=n_g,
        )

    @property
    def step_width(self) -> int:
        return 2 * self.state_bits + self.action_bits + self.reward_bits

    @property
    def num_qubits(self) -> int:
        return self.steps * self.step_width + self.return_bits

    def _block(self, step: int, offset: int, width: int) -> list[int]:
        if not 0 <= step < self.steps:
            raise ValueError(f"step {step} outside [0, {self.steps})")
        base = step * self.step_width + offset
        return list(range(base, base + width))

    def state_qubits(self, step: int) -> list[int]:
        """Qubits of the step's current-state register, least significant first."""
        return self._block(step, 0, self.state_bits)

    def action_qubits(self, step: int) -> list[int]:
        return self._block(step, self.state_bits, self.action_bits)

    def next_qubits(self, step: int) -> list[int]:
        return self._block(step, self.state_bits + self.action_bits, self.state_bits)

    def reward_qubits(self, step: int) -> list[int]:
        return self._block(step, 2 * self.state_bits + self.action_bits, self.reward_bits)

    def return_qubits(self) -> list[int]:
        base = self.steps * self.step_width
        return list(range(base, base + self.return_bits))

    @cached_property
    def _step_registers(self) -> tuple[tuple[list[int], ...], ...]:
        # (state, action, next, reward) qubits of every step, resolved once
        return tuple(
            (self.state_qubits(t), self.action_qubits(t), self.next_qubits(t), self.reward_qubits(t))
            for t in range(self.steps)
        )

    def register_qubits(self, role: str, step: int = 0) -> list[int]:
        """Qubits of a named register; roles: state, action, next, reward, return."""
        if role == "state":
            return self.state_qubits(step)
        if role == "action":
            return self.action_qubits(step)
        if role == "next":
            return self.next_qubits(step)
        if role == "reward":
            return self.reward_qubits(step)
        if role == "return":
            return self.return_qubits()
        raise ValueError(f"unknown register role {role!r}")


@dataclass(frozen=True)
class TrajectoryRecord:
    """A decoded trajectory: per-step (state, action, next, reward) tuples.

    ``probability`` is the exact model probability under uniform action choice
    where known, ``count`` the sampled shot count where known; either may be
    ``None`` when the record came from a context that does not define it.
    """

    steps: tuple[tuple[int, int, int, int], ...]
    total_return: int
    bitstring: str
    probability: float | None = None
    count: int | None = None


def probability_order(probability: float, bitstring: str) -> tuple[float, str]:
    """Sort key of every trajectory listing: descending probability, rounded
    to 12 places so float dust cannot reorder ties, then ascending bit string."""
    return -round(probability, 12), bitstring


def field_value(index, qubits: list[int]):
    """Read a register value out of a basis index (qubits listed LSB first).

    ``index`` may be an int or a numpy integer array; an array decodes
    element-wise into an array of values.
    """
    value = index & 0  # a zero of the index's own type and shape
    for j, q in enumerate(qubits):
        value |= ((index >> q) & 1) << j
    return value


def field_index(value: int, qubits: list[int]) -> int:
    """The inverse of :func:`field_value`: the basis index holding ``value`` on
    ``qubits`` (LSB first) and zeros everywhere else."""
    if not 0 <= value < 1 << len(qubits):
        raise ValueError(f"value {value} does not fit a {len(qubits)}-bit register")
    index = 0
    for j, q in enumerate(qubits):
        index |= ((value >> j) & 1) << q
    return index


def value_pattern(qubits: list[int], value: int) -> tuple[tuple[int, int], ...]:
    """(qubit, bit) pairs matching exactly the basis states that hold
    ``value`` on ``qubits`` (LSB first)."""
    index = field_index(value, qubits)
    return tuple((q, (index >> q) & 1) for q in qubits)


def pattern_mask(pattern) -> tuple[int, int]:
    """``(mask, want)`` such that ``index & mask == want`` exactly when the
    basis index matches every (qubit, bit) pair of ``pattern``."""
    mask = want = 0
    for q, b in pattern:
        mask |= 1 << q
        if b:
            want |= 1 << q
    return mask, want


def encode_index(layout: RegisterLayout, steps: list[tuple[int, int, int, int]], total_return: int) -> int:
    """Pack per-step tuples and the return value into a basis index."""
    if len(steps) != layout.steps:
        raise ValueError(f"expected {layout.steps} steps, got {len(steps)}")
    index = 0
    for values, registers in zip(steps, layout._step_registers):
        for value, qubits in zip(values, registers):
            index |= field_index(value, qubits)
    if layout.return_bits:
        index |= field_index(total_return, layout.return_qubits())
    elif total_return < 0:
        raise ValueError(f"return {total_return} is negative")
    return index


def bitstring_of(layout: RegisterLayout, index: int) -> str:
    return format(index, f"0{layout.num_qubits}b")


def decode_index(layout: RegisterLayout, index: int) -> TrajectoryRecord:
    """Unpack a basis index into a :class:`TrajectoryRecord`.

    Without a return register the total return is the sum of step rewards;
    with one it is read from the register bits.
    """
    steps = [
        tuple([field_value(index, qubits) for qubits in registers]) for registers in layout._step_registers
    ]
    if layout.return_bits:
        total = field_value(index, layout.return_qubits())
    else:
        total = sum(r for _, _, _, r in steps)
    return TrajectoryRecord(steps=tuple(steps), total_return=total, bitstring=bitstring_of(layout, index))


def decode_trajectory(layout: RegisterLayout, bitstring: str) -> TrajectoryRecord:
    """Decode a printed basis string (most significant qubit first)."""
    if len(bitstring) != layout.num_qubits:
        raise ValueError(f"bit string length {len(bitstring)} does not match {layout.num_qubits} qubits")
    if set(bitstring) - {"0", "1"}:
        raise ValueError(f"bit string must contain only 0 and 1: {bitstring!r}")
    return decode_index(layout, int(bitstring, 2))
