"""Qubit register layout and trajectory bit-string encoding.

Every timestep owns a contiguous block [state | action | next | reward]
ascending from qubit 0 for t = 0, 1, ...; the running-return register sits on
top. Qubit 0 is the least significant bit of a basis index, so the printed
(most-significant-first) form of a basis string reads: return bits, then step
T-1 down to step 0, each step as reward | next | action | state. This module
is pure bookkeeping; it knows nothing about gates or amplitudes.

Register geometry has one owner, :attr:`RegisterLayout.fields`: every
register as a bit field, its lowest qubit and its width. The accessors, the
codec and the trajectory table all read that table, by shift and mask.
Trajectory listings are one :class:`TrajectoryTable`: a probability column
and a column per register, from which the return column and the printed bit
strings are derived. Readout and the enumerator both return one; its rows
iterate as :class:`TrajectoryRecord`.
:func:`decode_index` and :func:`decode_trajectory` decode one basis index or
printed string. The module also owns :func:`field_value`,
:func:`value_pattern`, :func:`pattern_mask` and :func:`probability_order`,
the order of trajectory listings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .mdp import MdpSpec, _echo

STEP_ROLES = ("state", "action", "next", "reward")
ROLES = STEP_ROLES + ("return",)


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

    @cached_property
    def num_qubits(self) -> int:
        return self.steps * self.step_width + self.return_bits

    @cached_property
    def fields(self) -> tuple[tuple[int, int], ...]:
        """(lowest qubit, width) of every register in ascending qubit order:
        each step's registers in :data:`STEP_ROLES` order, then the return
        register (zero width when the layout has none)."""
        step = (self.state_bits, self.action_bits, self.state_bits, self.reward_bits)
        widths = step * self.steps + (self.return_bits,)
        return tuple(zip(accumulate(widths, initial=0), widths))

    def register_qubits(self, role: str, step: int = 0) -> list[int]:
        """Qubits of a named register, least significant first; roles are
        :data:`ROLES`, and the step of the return register is ignored."""
        if role not in ROLES:
            raise ValueError(f"unknown register role {role!r}")
        if role == "return":
            offset, width = self.fields[-1]
        elif 0 <= step < self.steps:
            offset, width = self.fields[step * len(STEP_ROLES) + STEP_ROLES.index(role)]
        else:
            raise ValueError(f"step {step} outside [0, {self.steps})")
        return list(range(offset, offset + width))

    def state_qubits(self, step: int) -> list[int]:
        """Qubits of the step's current-state register, least significant first."""
        return self.register_qubits("state", step)

    def action_qubits(self, step: int) -> list[int]:
        return self.register_qubits("action", step)

    def next_qubits(self, step: int) -> list[int]:
        return self.register_qubits("next", step)

    def reward_qubits(self, step: int) -> list[int]:
        return self.register_qubits("reward", step)

    def return_qubits(self) -> list[int]:
        return self.register_qubits("return")


@dataclass(frozen=True)
class TrajectoryRecord:
    """A decoded trajectory: per-step (state, action, next, reward) tuples.

    ``probability`` is the exact model probability under uniform action choice
    where known, ``None`` when the record came from a context that does not
    define it.
    """

    steps: tuple[tuple[int, int, int, int], ...]
    total_return: int
    bitstring: str
    probability: float | None = None


@dataclass(frozen=True, eq=False)
class TrajectoryTable:
    """Trajectories as columns: ``probability`` (float64, one entry per
    row) and ``registers``, an integer array with one column per register
    of ``layout.fields``, in that order: int64, or Python ints (an object
    array) where a return may pass 63 bits. The last column is the return
    register, 0 in a layout without one. Each row holds its basis index
    field by field, never as one integer, so layouts wider than 63 qubits
    fit.

    Iterating yields one :class:`TrajectoryRecord` per row, with Python ints
    and floats, in row order.
    """

    layout: RegisterLayout
    probability: np.ndarray
    registers: np.ndarray

    def __len__(self) -> int:
        return len(self.probability)

    def __iter__(self):
        steps = self.registers[:, :-1].tolist()
        rows = zip(steps, self.total_return.tolist(), self.bitstrings().astype(str).tolist(),
                   self.probability.tolist())
        for values, total, bits, prob in rows:
            yield TrajectoryRecord(tuple(zip(*[iter(values)] * len(STEP_ROLES))), total, bits, prob)

    def take(self, rows: np.ndarray) -> "TrajectoryTable":
        """The table with its rows in the order of the index array ``rows``."""
        return TrajectoryTable(self.layout, self.probability[rows], self.registers[rows])

    @cached_property
    def total_return(self) -> np.ndarray:
        """The return register, or the sum of the step rewards without one."""
        if self.layout.return_bits:
            return self.registers[:, -1]
        return self.registers[:, len(STEP_ROLES) - 1:-1:len(STEP_ROLES)].sum(axis=1)

    def bitstrings(self) -> np.ndarray:
        """Printed basis strings, most significant qubit first, as an
        ASCII ``S{n}`` array, one byte per digit (``.astype(str)`` gives
        text): each register column's bits go into a ``(rows, n)`` matrix of
        digits, then each row is read as one string. Built on each call, not
        kept beside the columns."""
        layout = self.layout
        bits = np.empty((len(self), layout.num_qubits), dtype=np.uint8)  # column q: qubit q
        for (offset, width), values in zip(layout.fields, self.registers.T):
            bits[:, offset:offset + width] = values[:, None] >> np.arange(width) & 1
        text = bits[:, ::-1] + ord("0")
        return text.view(f"S{layout.num_qubits}").ravel()


def probability_order(probability: np.ndarray) -> np.ndarray:
    """Row order of every trajectory listing, given rows in ascending bit
    string order: descending probability, rounded to 12 places so float dust
    cannot reorder ties, then ascending bit string, which the stable sort
    keeps. The rounding is Python's ``round`` per entry: ``np.round`` differs
    from it on a few values in a million."""
    rounded = np.array([round(p, 12) for p in probability.tolist()])
    return np.argsort(-rounded, kind="stable")


def field_value(index, qubits: list[int]):
    """Read a register value out of a basis index (qubits listed LSB first).

    ``index`` may be an int or a numpy integer array; an array decodes
    element-wise into an array of values.
    """
    value = index & 0  # a zero of the index's own type and shape
    for j, q in enumerate(qubits):
        value |= ((index >> q) & 1) << j
    return value


def _does_not_fit(value: int, width: int) -> ValueError:
    return ValueError(f"value {_echo(value)} does not fit a {width}-bit register")


def value_pattern(qubits: list[int], value: int) -> tuple[tuple[int, int], ...]:
    """(qubit, bit) pairs matching exactly the basis states that hold
    ``value`` on ``qubits`` (LSB first)."""
    if not 0 <= value < 1 << len(qubits):
        raise _does_not_fit(value, len(qubits))
    return tuple((q, (value >> j) & 1) for j, q in enumerate(qubits))


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
    """Pack per-step tuples and the return value into a basis index.

    Without a return register the total is not stored; it only has to be
    non-negative.
    """
    if len(steps) != layout.steps:
        raise ValueError(f"expected {layout.steps} steps, got {len(steps)}")
    values = [value for step in steps for value in step]
    if layout.return_bits:
        values.append(total_return)
    elif total_return < 0:
        raise ValueError(f"return {total_return} is negative")
    index = 0
    for value, (offset, width) in zip(values, layout.fields):
        if not 0 <= value < 1 << width:
            raise _does_not_fit(value, width)
        index |= value << offset
    return index


def bitstring_of(layout: RegisterLayout, index: int) -> str:
    return format(index, f"0{layout.num_qubits}b")


def decode_index(layout: RegisterLayout, index: int) -> TrajectoryRecord:
    """Unpack a basis index into a :class:`TrajectoryRecord`.

    Without a return register the total return is the sum of step rewards;
    with one it is read from the register bits.
    """
    values = [(index >> offset) & ((1 << width) - 1) for offset, width in layout.fields]
    total = values.pop()
    steps = tuple(zip(*[iter(values)] * len(STEP_ROLES)))  # each run of four values is one step
    if not layout.return_bits:
        total = sum(r for _, _, _, r in steps)
    return TrajectoryRecord(steps, total, bitstring_of(layout, index))


def decode_trajectory(layout: RegisterLayout, bitstring: str) -> TrajectoryRecord:
    """Decode a printed basis string (most significant qubit first)."""
    if len(bitstring) != layout.num_qubits:
        raise ValueError(f"bit string length {len(bitstring)} does not match {layout.num_qubits} qubits")
    if set(bitstring) - {"0", "1"}:
        raise ValueError(f"bit string must contain only 0 and 1: {bitstring!r}")
    return decode_index(layout, int(bitstring, 2))
