import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbplan import S0, Action, Situation, do, precedes, precedes_eq, predecessor
from qbplan.sitcalc import format_plan, parse_plan

actions = st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(
    lambda t: t[0] != t[1]
).map(lambda t: Action(*t))
situations = st.lists(actions, max_size=8).map(lambda h: Situation(tuple(h)))


def test_do_appends_to_the_history():
    s1 = do(Action(1, 2), S0)
    assert s1.history == (Action(1, 2),)
    s2 = do(Action(2, 1), s1)
    assert s2.history == (Action(1, 2), Action(2, 1))


def test_situation_equality_is_structural():
    assert do(Action(1, 2), S0) == do(Action(1, 2), S0)
    assert do(Action(1, 2), S0) != do(Action(2, 1), S0)
    assert Situation() == S0


@given(actions, situations)
def test_do_never_returns_its_input_or_the_initial_situation(a, s):
    succ = do(a, s)
    assert succ != s
    assert succ != S0


def test_predecessor_of_initial_situation_is_none():
    assert predecessor(S0) is None


@given(actions, situations)
def test_predecessor_inverts_do(a, s):
    assert predecessor(do(a, s)) == (a, s)


def test_predecessor_splits_the_last_action():
    a1, a2 = Action(1, 2), Action(2, 1)
    assert predecessor(do(a2, do(a1, S0))) == (a2, do(a1, S0))


def test_precedes_examples():
    s = do(Action(1, 2), S0)
    assert precedes(S0, s)
    assert not precedes(s, s)
    assert not precedes(do(Action(1, 2), S0), do(Action(2, 1), S0))


@given(situations)
def test_initial_situation_precedes_everything(s):
    assert precedes_eq(S0, s)
    assert precedes(S0, s) == (s != S0)


@given(actions, situations)
def test_successors_never_precede_their_situation(a, s):
    assert not precedes_eq(do(a, s), s)


@given(situations, situations)
def test_order_is_asymmetric_and_antisymmetric(s, t):
    assert precedes_eq(s, t) == (precedes(s, t) or s == t)
    if precedes(s, t):
        assert not precedes(t, s)
    if precedes_eq(s, t) and precedes_eq(t, s):
        assert s == t


@given(situations, st.data())
def test_order_is_transitive_along_prefixes(s, data):
    h = s.history
    i = data.draw(st.integers(0, len(h)))
    j = data.draw(st.integers(0, i))
    shorter, mid = Situation(h[:j]), Situation(h[:i])
    if precedes(shorter, mid) and precedes(mid, s):
        assert precedes(shorter, s)


def test_actions_reject_self_moves_and_bad_ids():
    with pytest.raises(ValueError):
        Action(2, 2)
    with pytest.raises(ValueError):
        Action(0, 1)
    with pytest.raises(ValueError):
        Action(1, -3)


def test_plan_text_round_trip():
    moves = (Action(1, 2), Action(3, 1), Action(2, 3))
    text = format_plan(moves)
    assert text == "move 1 2\nmove 3 1\nmove 2 3\n"
    assert parse_plan(text) == moves
    assert parse_plan("") == ()


def test_plan_text_skips_blank_lines_and_surrounding_whitespace():
    assert parse_plan("\n  move 1 2  \n\t\nmove 3 1\n") == (Action(1, 2), Action(3, 1))
    with pytest.raises(ValueError, match="^plan line 3:"):
        parse_plan("\n\nmove 1\n")


def test_plan_text_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_plan("move 1\n")
    with pytest.raises(ValueError):
        parse_plan("shift 1 2\n")
    with pytest.raises(ValueError):
        parse_plan("move 1 one\n")
    with pytest.raises(ValueError):
        parse_plan("move 2 2\n")


def test_a_long_walk_round_trips_through_the_plan_text():
    rng = random.Random("parse_plan")
    moves = tuple(Action(*rng.sample(range(1, 13), 2)) for _ in range(1024))
    assert parse_plan(format_plan(moves)) == moves


def test_a_line_parses_alike_whatever_its_whitespace():
    text = "move 3 1\n  move 3 1\nmove\t3   1 \nmove 3 1\r\n"
    assert parse_plan(text) == (Action(3, 1),) * 4


def test_a_repeated_bad_line_is_reported_at_its_first_line():
    for bad in ("move 1", "move 2 2", "move 1 one"):
        with pytest.raises(ValueError, match="^plan line 2:"):
            parse_plan(f"move 1 2\n{bad}\nmove 2 1\n{bad}\n")


def test_a_bad_line_after_many_repeats_is_reported_at_its_own_line():
    with pytest.raises(ValueError, match="^plan line 501: self-move rejected"):
        parse_plan("move 1 2\n" * 500 + "move 2 2\n" + "move 1 2\n" * 10)
    with pytest.raises(ValueError, match="^plan line 502: expected"):
        parse_plan("move 1 2\n" * 500 + "\nmove 1 2 3\n")
