"""Amplitude amplification over a prepared trajectory superposition.

The oracle is one phase flip on the bit pattern of a target return in the
total register. The diffuser is built from the preparation circuit itself:
uncompute, flip the all-zeros state, flip the global phase, recompute. That
product is exactly the reflection about the prepared state with eigenvalue
+1 on it, so after k rounds a marked mass p0 sits at
sin^2((2k+1) arcsin sqrt(p0)) and the relative weights inside the marked set
are untouched. Rounds, given or hinted, are bounded by ``ROUND_LIMIT``. The
report lists the marked trajectories as one trajectory table, built from
their basis indices as readout's is, beside one column of their masses
after the rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layout import TrajectoryTable, value_pattern
from .mdp import _echo
from .prepare import PreparedModel
from .sim import Circuit

ROUND_LIMIT = 1000  # Grover rounds per search, given or hinted: hints reach it near marked mass 6e-7


def oracle_pattern(prepared: PreparedModel, target_return: int):
    """The (qubit, bit) pattern the oracle's phase flip matches: the total
    register holding ``target_return``. A model whose rewards are all 0 has
    a zero-width total register, so its one return, 0, matches every basis
    state."""
    layout = prepared.layout
    if not layout.return_bits and prepared.spec.max_reward > 0:
        raise ValueError("layout has no total register to constrain")
    return value_pattern(layout.register_qubits("return"), target_return)


def build_oracle(prepared: PreparedModel, target_return: int) -> Circuit:
    """Single flip gate marking every basis state whose total is ``target_return``."""
    return Circuit(prepared.layout.num_qubits).flip(oracle_pattern(prepared, target_return))


def build_diffuser(prepared: PreparedModel) -> Circuit:
    """Reflection about the prepared state, built as uncompute, zero flip,
    global flip, recompute."""
    n = prepared.layout.num_qubits
    circuit = Circuit(n)
    circuit.extend(prepared.circuit.inverse())
    circuit.flip(tuple((q, 0) for q in range(n)))
    circuit.flip(())
    circuit.extend(prepared.circuit)
    return circuit


def iterations_hint(p0: float) -> int:
    """Round count putting sin^2((2k+1) arcsin sqrt(p0)) nearest its peak.
    That is 0 rounds for p0 above 1/2, where one round would leave
    p0 (3 - 4 p0)^2 < p0. Degenerate masses (0 or 1) have no sensible count
    and are rejected."""
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"marked mass must be strictly between 0 and 1, got {p0}")
    theta = math.asin(math.sqrt(p0))
    return round(math.pi / (4.0 * theta) - 0.5)


@dataclass(frozen=True, eq=False)
class SearchReport:
    """Everything a run produced: the round count and the marked mass before
    and after the rounds; ``marked``, the marked trajectories as one table
    whose probability column holds their masses before the rounds, and
    ``marked_after``, each row's mass after them; and the drawn counts by
    bit string when shots were drawn."""

    iterations: int
    probability_before: float
    probability_after: float
    marked: TrajectoryTable
    marked_after: np.ndarray
    shots: int = 0
    seed: int | None = None
    counts: dict[str, int] | None = None


def grover_search(
    prepared: PreparedModel,
    target_return: int,
    backend: str = "sparse",
    iterations: int | None = None,
    shots: int = 0,
    seed: int | None = None,
) -> SearchReport:
    """Amplify the trajectories whose total is ``target_return`` and report
    what happened.

    ``iterations`` of None means the hint for the measured marked mass.
    When that mass is zero there is nothing to rotate toward: the state is
    left alone and the report says zero rounds. A given count outside
    [0, ``ROUND_LIMIT``] is refused before the state is prepared, a hinted
    one above it before the first round. ``shots`` above zero draws
    seeded counts from the final state; the seed is then mandatory because
    every run must be reproducible.
    """
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    if shots and seed is None:
        raise ValueError("sampling without a seed is not reproducible; pass one")
    if iterations is not None and not 0 <= iterations <= ROUND_LIMIT:
        raise ValueError(f"iterations must be in [0, {ROUND_LIMIT}], got {_echo(iterations)}")
    pattern = oracle_pattern(prepared, target_return)
    state = prepared.prepare_state(backend)
    before = state.pattern_items(pattern)  # ascending index
    p0 = sum(p for _, p in before)
    if iterations is None:
        # a settled mass (0 or 1) has nothing to rotate toward or away from
        rounds = iterations_hint(p0) if 0.0 < p0 < 1.0 else 0
        if rounds > ROUND_LIMIT:
            raise ValueError(f"marked mass {p0!r} hints {rounds} rounds, above the limit of {ROUND_LIMIT}")
    else:
        rounds = iterations
    if rounds:
        grover_round = build_oracle(prepared, target_return).extend(build_diffuser(prepared))
        for _ in range(rounds):
            state.apply_circuit(grover_round)
    after = dict(state.pattern_items(pattern))
    counts = state.sample(shots, seed) if shots else None
    indices = np.array([index for index, _ in before], dtype=np.int64)
    return SearchReport(
        iterations=rounds,
        probability_before=p0,
        probability_after=sum(after.values()),
        marked=TrajectoryTable.from_indices(prepared.layout, indices, np.array([p for _, p in before])),
        marked_after=np.array([after.get(index, 0.0) for index, _ in before]),
        shots=shots,
        seed=seed,
        counts=counts,
    )
