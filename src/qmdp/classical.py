"""Classical references for the quantum pipeline.

Exhaustive trajectory enumeration, exact expected return, finite-horizon
value iteration, tabular Q-learning and greedy rollouts, all over the
:attr:`~qmdp.mdp.MdpSpec.successors` rows the circuit encodes; draws walk a
row with a running sum, no derived table. The enumerator, the ground truth
the simulation is checked against, expands a numpy frontier one step per
pass and returns the same :class:`~qmdp.layout.TrajectoryTable` readout
does; no amplitudes. Q-learning and rollouts start where the model starts,
``spec.initial``; only the enumerator takes an ``initial`` to resolve. Each
of their runs draws from one :class:`_DrawStream`, which replays
``np.random.default_rng(seed)`` draw for draw from raw PCG64 words, so a
seed gives the Q-table and rollouts a ``Generator`` would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .layout import STEP_ROLES, RegisterLayout, TrajectoryTable
from .mdp import MdpSpec, resolve_start, validated


def enumerate_trajectories(
    spec: MdpSpec, steps: int, initial: int | str | None, include_return: bool = True
) -> TrajectoryTable:
    """Every length-``steps`` trajectory with nonzero probability, as a table.

    ``initial`` is resolved by :func:`~qmdp.mdp.resolve_start`: None keeps
    the model's own start, "uniform" makes it uniform and a state index pins
    it. The probability of a trajectory is P(s0) times, per step,
    1/num_actions times the transition probability, left to right; P(s0) is
    1/num_states for a uniform start and 1 for a fixed start. Rows are
    sorted by bit string and carry exact probabilities. ``include_return``
    controls whether the bit string carries the total register, matching
    the circuit layout built with the same flag.

    The frontier is a state and a probability array. Each pass gives every
    entry one child per edge of its state and keeps, per depth, the parent
    row and the edge of each child; one backward pass over those columns
    then finds every row's edge at every depth, O(steps) array operations in
    all, and the rows are sorted and written as register columns.
    """
    validated(spec)
    layout = RegisterLayout.for_mdp(spec, steps, include_return=include_return)
    spec = resolve_start(spec, initial)
    # per state, in (action, next) order: the step (s, a, nxt, r) of every edge and its probability;
    # Python ints (an object array) when a return may pass 63 bits
    rows = [((s, a, nxt, spec.rewards[nxt]), p)
            for s in range(spec.num_states) for a in range(spec.num_actions) for nxt, p in spec.successors[s, a]]
    wide = (steps * spec.max_reward) >> 63
    edge_step = np.array([step for step, _ in rows], dtype=object if wide else np.int64)
    edge_p, edge_next = np.array([p for _, p in rows]), edge_step[:, 2].astype(np.int64)
    degree = np.bincount(edge_step[:, 0].astype(np.int64), minlength=spec.num_states)
    end_edge = np.cumsum(degree)  # one past each state's last edge
    if spec.initial is None:
        state, prob = np.arange(spec.num_states), np.full(spec.num_states, 1.0 / spec.num_states)
    else:
        state, prob = np.array([spec.initial]), np.array([1.0])

    action_weight, passes = 1.0 / spec.num_actions, []
    for _ in range(steps):
        fan = degree[state]
        parent = np.arange(len(state)).repeat(fan)
        # a child's edge: its state's first edge, minus its parent's first child row, plus its own row
        edge = (end_edge[state] - fan.cumsum()).repeat(fan)
        edge += np.arange(len(edge))
        prob = prob[parent] * action_weight * edge_p[edge]
        state = edge_next[edge]
        passes.append((parent, edge))
    edges, row = np.empty((len(prob), steps), dtype=np.int64), np.arange(len(prob))
    for depth in reversed(range(steps)):
        parent, edge = passes.pop()
        edges[:, depth] = edge[row]
        row = parent[row]
    # the return register holds the summed rewards, which always fit it; 0 without one
    returns = edge_step[edges, 3].sum(axis=1) * (layout.return_bits > 0)
    # Bit-string order compares the return, then steps T-1 down to 0, each by
    # its (reward, next, action, state) fields, which is its edge's rank in
    # that order; lexsort's last key sorts first.
    rank = np.empty(len(edge_step), dtype=np.int64)
    rank[np.lexsort(edge_step.T)] = np.arange(len(edge_step))
    order = np.lexsort(np.column_stack((rank[edges], returns)).T)
    edges = edges[order]
    registers = np.empty((len(prob), len(layout.fields)), dtype=edge_step.dtype)
    for role in range(len(STEP_ROLES)):
        registers[:, role:-1:len(STEP_ROLES)] = edge_step[edges, role]
    registers[:, -1] = returns[order]
    return TrajectoryTable(layout, prob[order], registers)


def expected_return(table: TrajectoryTable) -> float:
    """Probability-weighted mean return of an enumerated trajectory table,
    summed row by row in Python."""
    return sum((table.probability * table.total_return).tolist())


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


_CHUNK = 1 << 10  # raw words fetched at a time; 2**16 would hold about 3 MiB of Python ints


class _DrawStream:
    """``np.random.default_rng(seed).random()`` and ``.integers(n)`` for
    1 <= n <= 2**32, draw for draw, served from a list of raw PCG64 words
    instead of one ``Generator`` call per draw.

    numpy's ``random()`` is the next word's top 53 bits times 2**-53.
    ``integers(n)`` is Lemire's bounded draw on 32-bit halves: a word's low
    half first, its high half kept for the next ``integers`` call (``random``
    leaves it in place, as PCG64's ``has_uint32`` buffer does), and
    ``integers(1)`` reads nothing.
    """

    def __init__(self, seed: int):
        raw = np.random.default_rng(seed).bit_generator.random_raw
        chunks = map(lambda size: raw(size).tolist(), itertools.repeat(_CHUNK))
        self._word = itertools.chain.from_iterable(chunks).__next__
        self._half: int | None = None

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        threshold = (2**32 - n) % n
        m = self._uint32() * n
        while m & 0xFFFFFFFF < threshold:
            m = self._uint32() * n
        return m >> 32


def _draw_start(rng: _DrawStream, spec: MdpSpec) -> int:
    """The fixed start ``spec.initial``, or one uniform draw over the states
    when it is None."""
    return int(rng.integers(spec.num_states)) if spec.initial is None else spec.initial


def _draw_successor(rng: _DrawStream, row: tuple[tuple[int, float], ...]) -> int:
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
    bootstrapping at every step including the episode's last. The draw
    order per step is fixed (explore coin, optional action draw, transition
    draw), and every draw comes from one :class:`_DrawStream`, equal to
    ``np.random.default_rng(config.seed)``'s draws, so a seed pins the
    whole run.
    """
    validated(spec)
    if config.horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {config.horizon}")
    rng = _DrawStream(config.seed)
    q = [[0.0] * spec.num_actions for _ in range(spec.num_states)]
    successors, rewards = spec.successors, spec.rewards
    for _ in range(config.episodes):
        s = _draw_start(rng, spec)
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
    seed: int,
) -> list[RolloutRecord]:
    """Run seeded greedy-policy rollouts and deduplicate the trajectories.

    Rollouts start from the spec's initial distribution, as in
    :func:`q_learning`, and draw from one :class:`_DrawStream`, equal to
    ``np.random.default_rng(seed)``'s draws. Results sort by descending
    total reward, then by the step tuples, so the best observed trajectory
    comes first.
    """
    validated(spec)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    rng = _DrawStream(seed)
    policy = greedy_policy(qtable).tolist()
    seen: dict[tuple, int] = {}
    for _ in range(trials):
        s = _draw_start(rng, spec)
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
