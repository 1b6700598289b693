"""Finite MDP model shared by the quantum and classical pipelines.

An :class:`MdpSpec` is an immutable finite Markov decision process with
non-negative integer rewards on the successor state; its cached
:attr:`~MdpSpec.successors` table owns the P(s'|s,a) rows that circuit
compilation, enumeration and learning all read. Parsing, validation, JSON
round trips and the bundled four-state demo chain live here too.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property

PROB_TOL = 1e-9
ECHO_DIGITS = 40  # longer integers and texts are echoed in messages by their size
_int_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # no limit before Python 3.10.7


class MdpFormatError(ValueError):
    """A document could not be parsed into an :class:`MdpSpec`."""


class MdpValidationError(ValueError):
    """A structurally well-formed spec violates a model invariant."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid MDP spec: " + "; ".join(violations))


@dataclass(frozen=True, order=True)
class Transition:
    """One entry of the transition table: P(next_state | state, action) = prob."""

    state: int
    action: int
    next_state: int
    prob: float


@dataclass(frozen=True)
class MdpSpec:
    """Immutable finite MDP.

    ``initial`` is the start distribution: ``None`` means uniform over all
    states, an integer means a fixed start state; :func:`resolve_start` is
    how a run overrides it. Transitions are kept in canonical (state,
    action, next_state) order so that equal models compare equal regardless
    of input order.
    """

    num_states: int
    num_actions: int
    transitions: tuple[Transition, ...]
    rewards: tuple[int, ...]
    initial: int | None = None

    def __post_init__(self) -> None:
        trans = tuple(sorted(self.transitions))
        object.__setattr__(self, "transitions", trans)
        object.__setattr__(self, "rewards", tuple(self.rewards))

    @property
    def max_reward(self) -> int:
        return max(self.rewards) if self.rewards else 0

    @cached_property
    def successors(self) -> dict[tuple[int, int], tuple[tuple[int, float], ...]]:
        """(state, action) -> its (next state, probability) rows, built in one
        pass: pairs and next states ascend, probability-0 rows are dropped."""
        rows = {(s, a): {} for s in range(self.num_states) for a in range(self.num_actions)}
        for tr in self.transitions:  # transitions are sorted, next states ascend
            row = rows.get((tr.state, tr.action))  # None for a pair out of range
            if row is not None and tr.prob > 0.0:
                row[tr.next_state] = row.get(tr.next_state, 0.0) + tr.prob
        return {key: tuple(row.items()) for key, row in rows.items()}


def _echo(value, text=str) -> str:
    """``text(value)`` for a message, or only the size of an integer or text
    over ``ECHO_DIGITS`` digits or characters, so a refusal stays one short line."""
    if isinstance(value, str) and len(value) > ECHO_DIGITS:
        return f"a {len(value)}-character text"
    if not isinstance(value, int) or abs(value) < 10**ECHO_DIGITS:
        return text(value)
    size = abs(value)
    digits = int((size.bit_length() - 1) * math.log10(2)) + 1  # exact or one short
    digits += size >= 10**digits
    return f"a {'negative ' if value < 0 else ''}{digits}-digit integer"


def validate(spec: MdpSpec) -> list[str]:
    """Return every invariant violation, empty when the spec is valid.

    Checked: positive state and action counts, index ranges, probabilities in
    [0, 1] summing to 1 per (state, action) pair within ``PROB_TOL``, no
    duplicate (state, action, next_state) rows, one non-negative integer
    reward per state, and an initial state that is None or an in-range
    state index.
    """
    errors: list[str] = []
    if spec.num_states < 1:
        errors.append(f"num_states must be >= 1, got {_echo(spec.num_states)}")
    if spec.num_actions < 1:
        errors.append(f"num_actions must be >= 1, got {_echo(spec.num_actions)}")
    if errors:
        return errors

    sums: dict[tuple[int, int], float] = {}
    seen: set[tuple[int, int, int]] = set()
    states = f"[0, {_echo(spec.num_states)})"
    for tr in spec.transitions:
        if not 0 <= tr.state < spec.num_states:
            errors.append(f"transition has state {_echo(tr.state)} outside {states}")
            continue
        if not 0 <= tr.action < spec.num_actions:
            errors.append(f"transition has action {_echo(tr.action)} outside [0, {_echo(spec.num_actions)})")
            continue
        if not 0 <= tr.next_state < spec.num_states:
            errors.append(
                f"transition for (s{_echo(tr.state)},a{_echo(tr.action)}) has next state "
                f"{_echo(tr.next_state)} outside {states}"
            )
            continue
        if not 0.0 <= tr.prob <= 1.0:
            errors.append(
                f"transition probability for (s{_echo(tr.state)},a{_echo(tr.action)}) must be "
                f"in [0, 1], got {tr.prob!r}"
            )
        key = (tr.state, tr.action, tr.next_state)
        if key in seen:
            errors.append(
                f"duplicate transition entry for "
                f"(s{_echo(tr.state)},a{_echo(tr.action)},s{_echo(tr.next_state)})"
            )
        seen.add(key)
        sums[tr.state, tr.action] = sums.get((tr.state, tr.action), 0.0) + tr.prob

    for (s, a), total in sums.items():  # pairs ascend: the transitions are sorted
        if abs(total - 1.0) > PROB_TOL:
            errors.append(f"transition probabilities for (s{_echo(s)},a{_echo(a)}) sum to {total!r}, expected 1")
    missing = spec.num_states * spec.num_actions - len(sums)
    if missing:  # the first gap lies among the first len(sums) + 1 pairs
        pairs = (divmod(k, spec.num_actions) for k in range(len(sums) + 1))
        s, a = next(pair for pair in pairs if pair not in sums)
        errors.append(f"{_echo(missing)} (state, action) pairs have no transitions, the first (s{_echo(s)},a{_echo(a)})")

    if len(spec.rewards) != spec.num_states:
        errors.append(f"rewards must list one value per state, got {len(spec.rewards)} for {_echo(spec.num_states)} states")
    for s, r in enumerate(spec.rewards):
        if not isinstance(r, int) or isinstance(r, bool) or r < 0:
            errors.append(f"reward for s{s} must be a non-negative integer, got {_echo(r, repr)}")

    if isinstance(spec.initial, bool) or not isinstance(spec.initial, (int, type(None))):
        errors.append(f"initial state must be None or a state index, got {spec.initial!r}")
    elif spec.initial is not None and not 0 <= spec.initial < spec.num_states:
        errors.append(f"initial state {_echo(spec.initial)} outside [0, {_echo(spec.num_states)})")
    return errors


def validated(spec: MdpSpec) -> MdpSpec:
    """Return ``spec`` unchanged or raise :class:`MdpValidationError`."""
    errors = validate(spec)
    if errors:
        raise MdpValidationError(errors)
    return spec


def resolve_start(spec: MdpSpec, start: int | str | None) -> MdpSpec:
    """``spec`` with the start a run uses as its ``initial``.

    ``start`` of None keeps the model's own start and returns ``spec``
    itself, the string "uniform" makes the start uniform over the states, and
    a state index pins it. Every function that takes an ``initial`` argument
    resolves it here, so the argument means the same everywhere. A
    :attr:`~MdpSpec.successors` table ``spec`` has built is carried over.
    """
    if start is None:
        return spec
    if start == "uniform":
        initial = None
    elif isinstance(start, int) and not isinstance(start, bool):
        if not 0 <= start < spec.num_states:
            raise ValueError(f"start state {_echo(start)} outside 0..{_echo(spec.num_states - 1)}")
        initial = start
    else:
        raise ValueError(f"initial must be None, 'uniform' or a state index, got {start!r}")
    if initial == spec.initial:
        return spec
    # A shallow copy shares the sorted transitions (no re-sort) and any
    # successors table already built; neither depends on the start.
    resolved = copy.copy(spec)
    object.__setattr__(resolved, "initial", initial)
    return resolved


def _require(doc: dict, key: str, kind: type, where: str):
    if key not in doc:
        raise MdpFormatError(f"missing field '{key}' in {where}")
    value = doc[key]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise MdpFormatError(f"field '{key}' in {where} must be an integer, got {value!r}")
    if kind is list and not isinstance(value, list):
        raise MdpFormatError(f"field '{key}' in {where} must be a list, got {value!r}")
    return value


def _int_literal(text: str) -> int:
    """A JSON integer literal as an int; a literal longer than the interpreter's
    digit limit for int conversion (0: no limit) is refused by its length."""
    digits, limit = len(text.lstrip("-")), _int_digit_limit()
    if limit and digits > limit:
        raise MdpFormatError(f"integer literal too long: {digits} digits, the limit is {limit}")
    return int(text)


def load(document: str) -> MdpSpec:
    """Parse a JSON document into a validated :class:`MdpSpec`.

    Parse errors carry the line and column (syntax) or the offending field
    name (schema); validation failures raise :class:`MdpValidationError`.
    """
    try:
        doc = json.loads(document, parse_int=_int_literal)
    except json.JSONDecodeError as exc:
        raise MdpFormatError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise MdpFormatError("top level must be a JSON object")

    known = {"num_states", "num_actions", "transitions", "rewards", "initial"}
    for key in doc:
        if key not in known:
            raise MdpFormatError(f"unknown field '{key}'")

    num_states = _require(doc, "num_states", int, "top level")
    num_actions = _require(doc, "num_actions", int, "top level")
    raw_transitions = _require(doc, "transitions", list, "top level")
    raw_rewards = _require(doc, "rewards", list, "top level")

    transitions = []
    for pos, entry in enumerate(raw_transitions):
        where = f"transitions[{pos}]"
        if not isinstance(entry, dict):
            raise MdpFormatError(f"{where} must be an object")
        for key in entry:
            if key not in {"state", "action", "next", "prob"}:
                raise MdpFormatError(f"unknown field '{key}' in {where}")
        if "prob" not in entry:
            raise MdpFormatError(f"missing field 'prob' in {where}")
        prob = entry["prob"]
        if not isinstance(prob, (int, float)) or isinstance(prob, bool):
            raise MdpFormatError(f"field 'prob' in {where} must be a number, got {prob!r}")
        try:
            prob = float(prob)
        except OverflowError:  # an int beyond the float range; its digits are not echoed
            raise MdpFormatError(f"field 'prob' in {where} is too large for a float") from None
        transitions.append(
            Transition(
                state=_require(entry, "state", int, where),
                action=_require(entry, "action", int, where),
                next_state=_require(entry, "next", int, where),
                prob=prob,
            )
        )

    rewards = []
    for pos, r in enumerate(raw_rewards):
        if not isinstance(r, int) or isinstance(r, bool):
            raise MdpFormatError(f"field 'rewards[{pos}]' must be an integer, got {r!r}")
        rewards.append(r)

    initial_doc = doc.get("initial", "uniform")
    if initial_doc == "uniform":
        initial = None
    elif isinstance(initial_doc, dict) and set(initial_doc) == {"fixed"}:
        initial = _require(initial_doc, "fixed", int, "initial")
    else:
        raise MdpFormatError(f"field 'initial' must be \"uniform\" or {{\"fixed\": N}}, got {initial_doc!r}")

    return validated(
        MdpSpec(
            num_states=num_states,
            num_actions=num_actions,
            transitions=tuple(transitions),
            rewards=tuple(rewards),
            initial=initial,
        )
    )


def save(spec: MdpSpec) -> str:
    """Serialize to the canonical JSON document; ``load(save(spec)) == spec``.

    Fields appear in fixed order, transitions in canonical sort order, floats
    at full round-trip precision.
    """
    doc = {
        "num_states": spec.num_states,
        "num_actions": spec.num_actions,
        "transitions": [
            {"state": t.state, "action": t.action, "next": t.next_state, "prob": t.prob}
            for t in spec.transitions
        ],
        "rewards": list(spec.rewards),
        "initial": "uniform" if spec.initial is None else {"fixed": spec.initial},
    }
    return json.dumps(doc, indent=2) + "\n"


def bundled_mdp() -> MdpSpec:
    """The four-state, two-action chain behind the CLI's ``--mdp bundled``.

    Action 0 from state 0 branches 0.6/0.4 to states 1 and 2, action 1 at
    state 3 is a certain self-loop, every other supported pair splits 0.5/0.5.
    The reward of a step is the index of the successor state.
    """
    half = [
        (0, 1, 0, 0.5), (0, 1, 1, 0.5),
        (1, 0, 0, 0.5), (1, 0, 1, 0.5),
        (1, 1, 2, 0.5), (1, 1, 3, 0.5),
        (2, 0, 0, 0.5), (2, 0, 2, 0.5),
        (2, 1, 1, 0.5), (2, 1, 3, 0.5),
        (3, 0, 2, 0.5), (3, 0, 3, 0.5),
    ]
    transitions = [Transition(0, 0, 1, 0.6), Transition(0, 0, 2, 0.4), Transition(3, 1, 3, 1.0)]
    transitions += [Transition(s, a, n, p) for s, a, n, p in half]
    return MdpSpec(
        num_states=4,
        num_actions=2,
        transitions=tuple(transitions),
        rewards=(0, 1, 2, 3),
        initial=None,
    )
