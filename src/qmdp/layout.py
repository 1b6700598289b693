"""Qubit register layout and trajectory bit-string encoding.

Every timestep owns a contiguous block [state | action | next | reward]
ascending from qubit 0 for t = 0, 1, ...; the running-return register sits on
top. Qubit 0 is the least significant bit of a basis index, so the printed
(most-significant-first) form of a basis string reads: return bits, then step
T-1 down to step 0, each step as reward | next | action | state. This module
is pure bookkeeping; it knows nothing about gates or amplitudes.

Register geometry has one owner, :attr:`RegisterLayout.fields`: every
register as a bit field, its lowest qubit and its width.
:meth:`RegisterLayout.register_qubits` lists one field's qubits, and the
trajectory table reads the fields by shift and mask.
Trajectory listings are one :class:`TrajectoryTable`: a probability column
and a column per register, from which the return column and the printed bit
strings are derived. Readout, the search report's marked rows and the
enumerator all list theirs as one, its rows in ascending bit string order;
its rows iterate as :class:`TrajectoryRecord`. Only
:meth:`TrajectoryTable.from_indices` cuts register columns out of basis
indices. :func:`decode_trajectory` decodes one printed string, and
:func:`value_pattern` turns a register value into a gate-control pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .mdp import MdpSpec, _echo

STEP_ROLES = ("state", "action", "next", "reward")


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

    @cached_property
    def num_qubits(self) -> int:
        # A sum, not a walk of ``fields``: the CLI refuses a width before
        # compiling, at step counts whose fields would fill memory.
        return self.steps * (2 * self.state_bits + self.action_bits + self.reward_bits) + self.return_bits

    @cached_property
    def fields(self) -> tuple[tuple[int, int], ...]:
        """(lowest qubit, width) of every register in ascending qubit order:
        each step's registers in :data:`STEP_ROLES` order, then the return
        register (zero width when the layout has none)."""
        step = (self.state_bits, self.action_bits, self.state_bits, self.reward_bits)
        widths = step * self.steps + (self.return_bits,)
        return tuple(zip(accumulate(widths, initial=0), widths))

    def register_qubits(self, role: str, step: int = 0) -> list[int]:
        """Qubits of a named register, least significant first; a role is one
        of :data:`STEP_ROLES` or ``"return"``, whose step is ignored."""
        if role == "return":
            offset, width = self.fields[-1]
        elif role not in STEP_ROLES:
            raise ValueError(f"unknown register role {role!r}")
        elif 0 <= step < self.steps:
            offset, width = self.fields[step * len(STEP_ROLES) + STEP_ROLES.index(role)]
        else:
            raise ValueError(f"step {step} outside [0, {self.steps})")
        return list(range(offset, offset + width))


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
    fit. Rows ascend by basis index, which is ascending bit string order.

    Iterating yields one :class:`TrajectoryRecord` per row, with Python ints
    and floats, in row order.
    """

    layout: RegisterLayout
    probability: np.ndarray
    registers: np.ndarray

    @classmethod
    def from_indices(cls, layout: RegisterLayout, indices: np.ndarray, probability: np.ndarray) -> "TrajectoryTable":
        """The rows of ascending int64 basis ``indices``, their register
        columns cut out by shift and mask."""
        registers = np.stack([(indices >> offset) & ((1 << width) - 1) for offset, width in layout.fields], axis=1)
        return cls(layout, probability, registers)

    def __len__(self) -> int:
        return len(self.probability)

    def __iter__(self):
        steps = self.registers[:, :-1].tolist()
        rows = zip(steps, self.total_return.tolist(), self.bitstrings().astype(str).tolist(),
                   self.probability.tolist())
        for values, total, bits, prob in rows:
            yield TrajectoryRecord(tuple(zip(*[iter(values)] * len(STEP_ROLES))), total, bits, prob)

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


def value_pattern(qubits: list[int], value: int) -> tuple[tuple[int, int], ...]:
    """(qubit, bit) pairs matching exactly the basis states that hold
    ``value`` on ``qubits`` (LSB first)."""
    if not 0 <= value < 1 << len(qubits):
        raise ValueError(f"value {_echo(value)} does not fit a {len(qubits)}-bit register")
    return tuple((q, (value >> j) & 1) for j, q in enumerate(qubits))


def decode_trajectory(layout: RegisterLayout, bitstring: str) -> TrajectoryRecord:
    """Decode a printed basis string (most significant qubit first) into a
    :class:`TrajectoryRecord` that keeps the string as its ``bitstring``.

    Without a return register the total return is the sum of step rewards;
    with one it is read from the register bits.
    """
    if len(bitstring) != layout.num_qubits:
        raise ValueError(f"bit string length {len(bitstring)} does not match {layout.num_qubits} qubits")
    if set(bitstring) - {"0", "1"}:
        raise ValueError(f"bit string must contain only 0 and 1: {bitstring!r}")
    index = int(bitstring, 2)
    values = [(index >> offset) & ((1 << width) - 1) for offset, width in layout.fields]
    total = values.pop()
    steps = tuple(zip(*[iter(values)] * len(STEP_ROLES)))  # each run of four values is one step
    if not layout.return_bits:
        total = sum(r for _, _, _, r in steps)
    return TrajectoryRecord(steps, total, bitstring)
