"""Quantum decision-process laboratory.

Compile a finite Markov decision process into a trajectory-preparation
circuit, simulate the full multi-step interaction in superposition, amplify
maximum-return trajectories, and check everything against exact classical
references.
"""

from .classical import (
    QlConfig,
    RolloutRecord,
    ValueIterationResult,
    enumerate_trajectories,
    expected_return,
    greedy_policy,
    greedy_rollouts,
    q_learning,
    value_iteration,
)
from .layout import RegisterLayout, TrajectoryRecord, TrajectoryTable, decode_trajectory
from .mdp import (
    MdpFormatError,
    MdpSpec,
    MdpValidationError,
    Transition,
    bundled_mdp,
    load,
    resolve_start,
    save,
    validate,
    validated,
)
from .prepare import (
    PreparedModel,
    build_init,
    build_preparation,
    build_return_adder,
    build_reward,
    build_step_chain,
    build_transition,
    simulate_distribution,
    theta_for,
)
from .search import (
    MarkedState,
    OracleSpec,
    SearchReport,
    build_diffuser,
    build_oracle,
    grover_search,
    iterations_hint,
)
from .sim import Circuit, DenseState, Gate, SparseState, format_circuit, prepare_zero

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "DenseState",
    "Gate",
    "MarkedState",
    "MdpFormatError",
    "MdpSpec",
    "MdpValidationError",
    "OracleSpec",
    "PreparedModel",
    "QlConfig",
    "RegisterLayout",
    "RolloutRecord",
    "SearchReport",
    "SparseState",
    "TrajectoryRecord",
    "TrajectoryTable",
    "Transition",
    "ValueIterationResult",
    "build_diffuser",
    "build_init",
    "build_oracle",
    "build_preparation",
    "build_return_adder",
    "build_reward",
    "build_step_chain",
    "build_transition",
    "bundled_mdp",
    "decode_trajectory",
    "enumerate_trajectories",
    "expected_return",
    "format_circuit",
    "greedy_policy",
    "greedy_rollouts",
    "grover_search",
    "iterations_hint",
    "load",
    "prepare_zero",
    "q_learning",
    "resolve_start",
    "save",
    "simulate_distribution",
    "theta_for",
    "validate",
    "validated",
    "value_iteration",
    "__version__",
]
