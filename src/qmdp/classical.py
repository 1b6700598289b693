"""Classical references for the quantum pipeline.

Exhaustive trajectory enumeration, exact expected return, finite-horizon
value iteration, tabular Q-learning and greedy rollouts, all over the
:attr:`~qmdp.mdp.MdpSpec.successors` rows the circuit encodes; draws walk a
row with a running sum, no derived table. The enumerator, the ground truth
the simulation is checked against, expands one step per pass; no amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import RegisterLayout, TrajectoryRecord, bitstring_of
from .mdp import MdpSpec, validated


def enumerate_trajectories(
    spec: MdpSpec, steps: int, initial: int | None, include_return: bool = True
) -> list[TrajectoryRecord]:
    """Every length-``steps`` trajectory with nonzero probability.

    The probability of a trajectory is P(s0) times, per step, 1/num_actions
    times the transition probability, left to right; P(s0) is 1/num_states
    for a uniform start (``initial=None``) and 1 for a fixed start. Records
    are sorted by canonical bit string and carry exact probabilities.
    ``include_return`` controls whether the bit string carries the total
    register, matching the circuit layout built with the same flag. The
    frontier grows one step per pass; each edge ORs in its step-0 bits
    shifted to the step's offset.
    """
    validated(spec)
    layout = RegisterLayout.for_mdp(spec, steps, include_return=include_return)
    if _checked_start(spec, initial) is None:  # entries: (state, prob, return, index, steps)
        frontier = [(s, 1.0 / spec.num_states, 0, 0, ()) for s in range(spec.num_states)]
    else:
        frontier = [(initial, 1.0, 0, 0, ())]

    action_weight, fields = 1.0 / spec.num_actions, layout.fields
    (s_at, _), (a_at, _), (n_at, _), (r_at, _) = fields[:4]  # step 0, STEP_ROLES order
    edges = [  # per state: (step, p, r, the step's bits at step 0)
        [((s, a, nxt, r), p, r, s << s_at | a << a_at | nxt << n_at | r << r_at)
         for a in range(spec.num_actions) for nxt, p in spec.successors[s, a] for r in [spec.rewards[nxt]]]
        for s in range(spec.num_states)
    ]
    for depth in range(steps):
        shift = fields[4 * depth][0]
        frontier = [
            (step[2], prob * action_weight * p, ret + r, index | bits << shift, path + (step,))
            for state, prob, ret, index, path in frontier
            for step, p, r, bits in edges[state]
        ]
    ret_at, ret_mask = fields[-1][0], (1 << layout.return_bits) - 1  # mask 0: no return register
    records = (TrajectoryRecord(path, ret, bitstring_of(layout, index | (ret & ret_mask) << ret_at), prob)
               for _, prob, ret, index, path in frontier)
    return sorted(records, key=lambda rec: rec.bitstring)


def expected_return(records: list[TrajectoryRecord]) -> float:
    """Probability-weighted mean return of an enumerated trajectory set."""
    return sum(rec.probability * rec.total_return for rec in records)


@dataclass(frozen=True)
class ValueIterationResult:
    """``values[k][s]`` is the optimal k-steps-to-go value, ``policy[k][s]``
    the argmax first action with k steps to go (k >= 1, ties to the lower
    action index)."""

    values: np.ndarray
    policy: np.ndarray

    def first_step_policy(self) -> np.ndarray:
        return self.policy[-1]


def value_iteration(spec: MdpSpec, horizon: int) -> ValueIterationResult:
    """Exact finite-horizon optimal values by backward induction.

    V_0 = 0 and V_{k+1}(s) = max_a sum_s' P(s'|s,a) (r(s') + V_k(s')).
    """
    validated(spec)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    values = np.zeros((horizon + 1, spec.num_states))
    policy = np.zeros((horizon + 1, spec.num_states), dtype=np.int64)
    for k in range(1, horizon + 1):
        for s in range(spec.num_states):
            returns = [
                sum(p * (spec.rewards[nxt] + values[k - 1][nxt]) for nxt, p in spec.successors[s, a])
                for a in range(spec.num_actions)
            ]
            policy[k][s] = int(np.argmax(returns))  # first max wins ties
            values[k][s] = returns[policy[k][s]]
    return ValueIterationResult(values=values, policy=policy)


@dataclass(frozen=True)
class QlConfig:
    """Tabular Q-learning hyperparameters.

    Defaults are chosen so training converges at demo scale. The discount
    must stay below 1: updates bootstrap at every step (episodes truncate,
    no state is terminal), so gamma = 1 sends the table to infinity and the
    greedy argmax is then decided by visit-rate lag instead of by value.
    """

    alpha: float = 0.1
    gamma: float = 0.95
    epsilon: float = 0.1
    episodes: int = 10000
    horizon: int = 3
    seed: int = 0


def _checked_start(spec: MdpSpec, initial: int | None) -> int | None:
    """``initial`` unchanged when it is None (uniform) or a state index, else ValueError."""
    if initial is None or isinstance(initial, int) and 0 <= initial < spec.num_states:
        return initial
    raise ValueError(f"initial state {initial!r} is neither None nor a state in [0, {spec.num_states})")


def _draw_start(rng: np.random.Generator, num_states: int, initial: int | None) -> int:
    """The fixed start, or one uniform draw over the states when it is None."""
    return int(rng.integers(num_states)) if initial is None else initial


def _draw_successor(rng: np.random.Generator, row: tuple[tuple[int, float], ...]) -> int:
    """Inverse CDF: the first next state whose running probability exceeds
    ``rng.random()``, else the row's last (its total may fall ulps short of 1)."""
    u, total = rng.random(), 0.0
    for nxt, p in row:
        total += p
        if total > u:
            break
    return nxt


def q_update(
    qtable: list[list[float]] | np.ndarray,
    state: int,
    action: int,
    reward: float,
    next_state: int,
    alpha: float,
    gamma: float,
) -> None:
    """One tabular update in place:
    Q(s,a) += alpha * (r + gamma * max_a' Q(s',a') - Q(s,a)), on per-state
    lists of floats (as :func:`q_learning` keeps them) or a 2-D array."""
    target = reward + gamma * max(qtable[next_state])
    qtable[state][action] += alpha * (target - qtable[state][action])


def q_learning(spec: MdpSpec, config: QlConfig = QlConfig()) -> np.ndarray:
    """Train a (num_states, num_actions) Q-table.

    Episodes start from the spec's initial distribution and run for
    ``config.horizon`` steps; actions are epsilon-greedy (greedy ties to the
    lower index); every step applies
    Q(s,a) += alpha * (r + gamma * max_a' Q(s',a') - Q(s,a)),
    bootstrapping at every step including the episode's last. The RNG draw
    order per step is fixed (explore coin, optional action draw, transition
    draw), so a seed pins the whole run.
    """
    validated(spec)
    if config.horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {config.horizon}")
    rng = np.random.default_rng(config.seed)
    q = [[0.0] * spec.num_actions for _ in range(spec.num_states)]
    successors, rewards = spec.successors, spec.rewards
    for _ in range(config.episodes):
        s = _draw_start(rng, spec.num_states, spec.initial)
        for _ in range(config.horizon):
            if rng.random() < config.epsilon:
                a = int(rng.integers(spec.num_actions))
            else:
                a = q[s].index(max(q[s]))  # first max wins ties
            nxt = _draw_successor(rng, successors[s, a])
            q_update(q, s, a, rewards[nxt], nxt, config.alpha, config.gamma)
            s = nxt
    return np.array(q)


def greedy_policy(qtable: np.ndarray) -> np.ndarray:
    """Per-state argmax of a Q-table, ties to the lower action index."""
    return np.argmax(qtable, axis=1)


@dataclass(frozen=True)
class RolloutRecord:
    """One deduplicated greedy rollout with its total reward and how often it
    occurred among the trials."""

    steps: tuple[tuple[int, int, int, int], ...]
    total_reward: int
    count: int


def greedy_rollouts(
    spec: MdpSpec,
    qtable: np.ndarray,
    trials: int,
    horizon: int,
    initial: int | None,
    seed: int,
) -> list[RolloutRecord]:
    """Run seeded greedy-policy rollouts and deduplicate the trajectories.

    Results sort by descending total reward, then by the step tuples, so the
    best observed trajectory comes first.
    """
    validated(spec)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    _checked_start(spec, initial)
    rng = np.random.default_rng(seed)
    policy = greedy_policy(qtable).tolist()
    seen: dict[tuple, int] = {}
    for _ in range(trials):
        s = _draw_start(rng, spec.num_states, initial)
        steps = []
        for _ in range(horizon):
            a = policy[s]
            nxt = _draw_successor(rng, spec.successors[s, a])
            steps.append((s, a, nxt, spec.rewards[nxt]))
            s = nxt
        key = tuple(steps)
        seen[key] = seen.get(key, 0) + 1
    records = [
        RolloutRecord(steps=k, total_reward=sum(r for _, _, _, r in k), count=c)
        for k, c in seen.items()
    ]
    records.sort(key=lambda rec: (-rec.total_reward, rec.steps))
    return records
