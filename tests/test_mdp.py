"""Model schema, validation, and the JSON document round trip."""

import json
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from qmdp.mdp import (
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

from conftest import random_mdp


def test_bundled_model_is_valid(bundled):
    assert validate(bundled) == []
    assert bundled.num_states == 4 and bundled.num_actions == 2
    assert bundled.rewards == (0, 1, 2, 3)
    assert bundled.initial is None
    assert bundled.max_reward == 3


def test_bundled_support_rows(bundled):
    assert dict(bundled.successors[0, 0]) == {1: pytest.approx(0.6), 2: pytest.approx(0.4)}
    assert dict(bundled.successors[3, 1]) == {3: pytest.approx(1.0)}
    for s in range(4):
        for a in range(2):
            assert sum(dict(bundled.successors[s, a]).values()) == pytest.approx(1.0, abs=1e-12)


def test_transitions_are_canonicalized():
    a = MdpSpec(2, 1, (Transition(1, 0, 0, 1.0), Transition(0, 0, 1, 1.0)), (0, 1))
    b = MdpSpec(2, 1, (Transition(0, 0, 1, 1.0), Transition(1, 0, 0, 1.0)), (0, 1))
    assert a.transitions == b.transitions


def test_validate_reports_each_violation():
    spec = MdpSpec(
        2,
        2,
        (
            Transition(0, 0, 1, 0.5),  # row sums to 0.5
            Transition(0, 1, 1, 1.0),
            Transition(1, 0, 0, 1.0),
            Transition(1, 1, 5, 1.0),  # bad next state
        ),
        (0, -1),  # negative reward
        initial=7,  # out of range
    )
    problems = validate(spec)
    text = "\n".join(problems)
    assert "(s0,a0)" in text and "sum to" in text
    assert "next" in text or "state" in text
    assert "reward" in text
    assert "initial" in text
    with pytest.raises(MdpValidationError):
        validated(spec)
    assert validate(MdpSpec(0, 0, (), ())) == ["num_states must be >= 1, got 0", "num_actions must be >= 1, got 0"]


def test_validate_rejects_duplicates_and_bad_probabilities():
    dup = MdpSpec(
        1, 1, (Transition(0, 0, 0, 0.5), Transition(0, 0, 0, 0.5)), (0,)
    )
    assert any("duplicate" in p for p in validate(dup))
    bad = MdpSpec(1, 1, (Transition(0, 0, 0, 1.5),), (0,))
    assert validate(bad)


def test_validate_requires_every_pair():
    spec = MdpSpec(2, 2, (
        Transition(0, 0, 1, 1.0),
        Transition(0, 1, 0, 1.0),
        Transition(1, 0, 0, 1.0),
    ), (0, 1))
    assert any("(s1,a1)" in p for p in validate(spec))


def test_validate_counts_missing_pairs_in_one_message(bundled):
    problems = validate(MdpSpec(10**6, 2, bundled.transitions, bundled.rewards))
    assert len(problems) <= 3
    assert "1999992 (state, action) pairs have no transitions, the first (s4,a0)" in problems


@pytest.mark.parametrize("initial", [2.5, True])
def test_validate_refuses_a_start_that_is_not_a_state_index(bundled, initial):
    assert validate(replace(bundled, initial=initial)) == [
        f"initial state must be None or a state index, got {initial!r}"
    ]


def test_resolving_a_start_carries_the_successor_table():
    spec = random_mdp(np.random.default_rng(5), num_states=16, num_actions=4)
    table = spec.successors
    pinned = resolve_start(spec, 0)
    assert pinned.initial == 0 and pinned.successors is table
    assert resolve_start(pinned, "uniform").successors is table
    fresh = random_mdp(np.random.default_rng(5), num_states=16, num_actions=4)
    assert resolve_start(fresh, 0).successors == table  # not built yet: built from the transitions


def test_resolve_start_keeps_overrides_or_pins(bundled):
    assert resolve_start(bundled, None) is bundled
    assert resolve_start(bundled, "uniform") is bundled  # already uniform
    pinned = resolve_start(bundled, 2)
    assert pinned.initial == 2 and replace(pinned, initial=None) == bundled
    assert resolve_start(pinned, None) is pinned
    assert resolve_start(pinned, "uniform") == bundled
    for bad in (True, 2.0, "fixed:2"):
        with pytest.raises(ValueError, match=r"^initial must be None, 'uniform' or a state index, got "):
            resolve_start(bundled, bad)


def test_support_drops_zero_probability_entries():
    spec = MdpSpec(2, 1, (
        Transition(0, 0, 0, 0.0), Transition(0, 0, 1, 1.0),
        Transition(1, 0, 0, 1.0),
    ), (0, 1))
    assert dict(spec.successors[0, 0]) == {1: 1.0}


def test_save_load_round_trip(bundled):
    assert load(save(bundled)) == bundled
    fixed = MdpSpec(2, 1, (Transition(0, 0, 1, 1.0), Transition(1, 0, 0, 1.0)), (0, 2), initial=1)
    assert load(save(fixed)) == fixed
    # canonical text is stable under re-serialization
    assert save(load(save(bundled))) == save(bundled)


def test_load_accepts_uniform_and_fixed_initial():
    doc = save(bundled_mdp())
    assert load(doc).initial is None
    assert '"initial": "uniform"' in doc


def test_load_rejects_bad_documents():
    with pytest.raises(MdpFormatError, match="line"):
        load("{not json")
    with pytest.raises(MdpFormatError, match="unknown"):
        load(save(bundled_mdp()).replace('"rewards"', '"bonus"'))
    with pytest.raises(MdpFormatError):
        load("[]")
    with pytest.raises(MdpFormatError):
        load('{"num_states": 1}')
    with pytest.raises(MdpFormatError):
        load(save(bundled_mdp()).replace('"initial": "uniform"', '"initial": "sometimes"'))
    entry = {"state": 0, "action": 0, "next": 1, "prob": 0.6}
    for key, value, message in [
        ("num_states", 4.0, "field 'num_states' in top level must be an integer, got 4.0"),
        ("transitions", {}, "field 'transitions' in top level must be a list, got {}"),
        ("transitions", [[0, 0, 1, 0.6]], "transitions[0] must be an object"),
        ("transitions", [{**entry, "weight": 1}], "unknown field 'weight' in transitions[0]"),
        ("transitions", [{"state": 0, "action": 0, "next": 1}], "missing field 'prob' in transitions[0]"),
        ("transitions", [{**entry, "prob": "0.6"}], "field 'prob' in transitions[0] must be a number, got '0.6'"),
        ("rewards", [0, 1, 2.5, 3], "field 'rewards[2]' must be an integer, got 2.5"),
    ]:
        doc = json.loads(save(bundled_mdp()))
        doc[key] = value
        with pytest.raises(MdpFormatError, match=f"^{re.escape(message)}$"):
            load(json.dumps(doc))


def test_load_refuses_an_integer_probability_beyond_float_range():
    doc = json.loads(save(bundled_mdp()))
    doc["transitions"][0]["prob"] = 10**400
    with pytest.raises(MdpFormatError, match=r"^field 'prob' in transitions\[0\] is too large for a float$"):
        load(json.dumps(doc))


def test_load_refuses_an_integer_literal_over_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    doc = save(bundled_mdp()).replace('"num_states": 4', '"num_states": -' + "1" * (limit + 1))
    with pytest.raises(MdpFormatError, match=rf"^integer literal too long: {limit + 1} digits, the limit is {limit}$"):
        load(doc)


def test_load_runs_validation():
    doc = save(bundled_mdp()).replace("0.6", "0.7")
    with pytest.raises(MdpValidationError):
        load(doc)


def test_random_models_validate():
    rng = np.random.default_rng(3)
    for _ in range(50):
        spec = random_mdp(rng)
        assert validate(spec) == []
        assert load(save(spec)) == spec


def test_successor_table_rows():
    zero_row = MdpSpec(2, 1, (
        Transition(0, 0, 0, 0.0), Transition(0, 0, 1, 1.0),
        Transition(1, 0, 0, 0.25), Transition(1, 0, 1, 0.75),
    ), (0, 1))
    rng = np.random.default_rng(5)
    models = [bundled_mdp(), zero_row] + [random_mdp(rng, n, a) for n, a in ((2, 1), (4, 2), (8, 4))]
    for spec in models:
        table = spec.successors
        pairs = {(s, a) for s in range(spec.num_states) for a in range(spec.num_actions)}
        assert set(table) == pairs
        for (s, a), row in table.items():
            nexts = [n for n, _ in row]
            assert nexts == sorted(set(nexts))
            assert all(p > 0.0 for _, p in row)
    assert zero_row.successors[0, 0] == ((1, 1.0),)
    assert bundled_mdp().successors[0, 0] == ((1, 0.6), (2, 0.4))
