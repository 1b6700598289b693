"""Amplitude amplification over a prepared trajectory superposition.

The oracle is one phase flip on a basis pattern assembled from register
constraints (a required total, specific per-step register values). The
diffuser is built from the preparation circuit itself: uncompute, flip the
all-zeros state, flip the global phase, recompute. That product is exactly
the reflection about the prepared state with eigenvalue +1 on it, so after
k rounds a marked mass p0 sits at sin^2((2k+1) arcsin sqrt(p0)) and the
relative weights inside the marked set are untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .layout import ROLES, value_pattern
from .prepare import PreparedModel
from .sim import Circuit


@dataclass(frozen=True)
class OracleSpec:
    """What to mark: an exact running total, per-step register values, or both.

    ``constraints`` entries are (role, step, value) with role one of the
    layout's :data:`~qmdp.layout.ROLES`; the step of a return constraint is
    ignored. All constraints are conjoined.
    """

    target_return: int | None = None
    constraints: tuple[tuple[str, int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "constraints",
            tuple((role, int(step), int(value)) for role, step, value in self.constraints),
        )
        if self.target_return is None and not self.constraints:
            raise ValueError("oracle needs a target total or at least one constraint")
        for role, _, _ in self.constraints:
            if role not in ROLES:
                raise ValueError(f"unknown register role {role!r}")


def oracle_pattern(prepared: PreparedModel, oracle: OracleSpec):
    """The (qubit, bit) pattern the oracle's phase flip matches."""
    layout = prepared.layout
    pattern: tuple[tuple[int, int], ...] = ()
    if oracle.target_return is not None:
        if not layout.return_bits:
            raise ValueError("layout has no total register to constrain")
        pattern += value_pattern(layout.return_qubits(), oracle.target_return)
    for role, step, value in oracle.constraints:
        pattern += value_pattern(layout.register_qubits(role, step), value)
    seen = set()
    for q, _ in pattern:
        if q in seen:
            raise ValueError("oracle constraints overlap on a register")
        seen.add(q)
    return pattern


def build_oracle(prepared: PreparedModel, oracle: OracleSpec) -> Circuit:
    """Single flip gate marking every basis state the oracle accepts."""
    return Circuit(prepared.layout.num_qubits).flip(oracle_pattern(prepared, oracle))


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
    """Round count putting sin^2((2k+1) arcsin sqrt(p0)) nearest its peak,
    never below one round. Degenerate masses (0 or 1) have no sensible
    count and are rejected."""
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"marked mass must be strictly between 0 and 1, got {p0}")
    theta = math.asin(math.sqrt(p0))
    return max(1, round(math.pi / (4.0 * theta) - 0.5))


@dataclass(frozen=True)
class MarkedState:
    """One marked trajectory with its mass before and after amplification."""

    bitstring: str
    probability_before: float
    probability_after: float
    count: int | None = None


@dataclass(frozen=True)
class SearchReport:
    """Everything a run produced: round count, masses, per-state detail,
    and counts when shots were drawn."""

    iterations: int
    probability_before: float
    probability_after: float
    marked: tuple[MarkedState, ...]
    shots: int = 0
    seed: int | None = None
    counts: dict[str, int] | None = None


def grover_search(
    prepared: PreparedModel,
    oracle: OracleSpec,
    backend: str = "sparse",
    iterations: int | None = None,
    shots: int = 0,
    seed: int | None = None,
) -> SearchReport:
    """Amplify the oracle's marked set and report what happened.

    ``iterations`` of None means the hint for the measured marked mass.
    When that mass is zero there is nothing to rotate toward: the state is
    left alone and the report says zero rounds. ``shots`` above zero draws
    seeded counts from the final state; the seed is then mandatory because
    every run must be reproducible.
    """
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    if shots and seed is None:
        raise ValueError("sampling without a seed is not reproducible; pass one")
    pattern = oracle_pattern(prepared, oracle)
    state = prepared.prepare_state(backend)
    before = state.pattern_items(pattern)  # ascending index
    p0 = sum(p for _, p in before)
    if iterations is None:
        # a settled mass (0 or 1) has nothing to rotate toward or away from
        rounds = iterations_hint(p0) if 0.0 < p0 < 1.0 else 0
    elif iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    else:
        rounds = iterations
    if rounds:
        grover_round = build_oracle(prepared, oracle).extend(build_diffuser(prepared))
        for _ in range(rounds):
            state.apply_circuit(grover_round)
    after = dict(state.pattern_items(pattern))
    counts = state.sample(shots, seed) if shots else None
    marked = []
    for index, p in before:
        bits = state.bitstring(index)
        marked.append(
            MarkedState(
                bitstring=bits,
                probability_before=p,
                probability_after=after.get(index, 0.0),
                count=counts.get(bits, 0) if counts is not None else None,
            )
        )
    return SearchReport(
        iterations=rounds,
        probability_before=p0,
        probability_after=sum(after.values()),
        marked=tuple(marked),
        shots=shots,
        seed=seed,
        counts=counts,
    )
