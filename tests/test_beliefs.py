from bisect import bisect_left
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_belief_invariants, assert_round_trip
from expected_traces import REMOVAL_TRACES
from qbplan import (
    DEFAULT_SCALE,
    Action,
    BeliefState,
    GoalSpec,
    NotPossibleError,
    QualityScale,
    apply_addition,
    apply_move,
    apply_removal,
    classify,
    initial_beliefs,
    observe,
    plan,
    poss,
    uniform_scale,
)
from qbplan.beliefs import ColumnBelief, Quality, column_automaton

ZERO, SMALL, MEDIUM, LARGE = DEFAULT_SCALE.qualities


def cb(zero=0, small=0, medium=0, large=0, believe=0):
    return ColumnBelief((zero, small, medium, large), believe)


# --- scale and classification -------------------------------------------------

def test_default_scale_bands():
    assert DEFAULT_SCALE.granularity == 4
    assert DEFAULT_SCALE.band(SMALL) == (1, 4)
    assert DEFAULT_SCALE.quality("large") is LARGE


def test_classify_band_membership():
    assert classify(8, DEFAULT_SCALE) is MEDIUM
    assert classify(0, DEFAULT_SCALE) is ZERO
    assert classify(1, DEFAULT_SCALE) is SMALL
    assert classify(4, DEFAULT_SCALE) is SMALL
    assert classify(9, DEFAULT_SCALE) is LARGE


def test_classify_clamps_above_the_top_band():
    assert classify(14, DEFAULT_SCALE) is LARGE


def test_classify_rejects_negative_counts():
    with pytest.raises(ValueError):
        classify(-1, DEFAULT_SCALE)


def test_scale_validation():
    with pytest.raises(ValueError):
        QualityScale((Quality(0, "only"),), ((0, 0),))
    with pytest.raises(ValueError):  # gap between bands
        QualityScale((Quality(0, "a"), Quality(1, "b")), ((0, 0), (2, 4)))
    with pytest.raises(ValueError):  # first band not at 0
        QualityScale((Quality(0, "a"), Quality(1, "b")), ((1, 2), (3, 4)))
    with pytest.raises(ValueError):  # duplicate names
        QualityScale((Quality(0, "a"), Quality(1, "a")), ((0, 0), (1, 4)))
    with pytest.raises(ValueError, match="one band per quality required"):
        QualityScale((Quality(0, "a"), Quality(1, "b")), ((0, 0),))
    with pytest.raises(ValueError, match="quality indices must be consecutive from 0"):
        QualityScale((Quality(0, "a"), Quality(2, "b")), ((0, 0), (1, 4)))
    with pytest.raises(ValueError, match="band b: 3 > 2"):
        QualityScale((Quality(0, "a"), Quality(1, "b")), ((0, 0), (3, 2)))


def test_an_undeclared_quality_name_is_a_key_error():
    with pytest.raises(KeyError):
        DEFAULT_SCALE.quality("huge")


def test_uniform_scale_matches_default_at_four():
    assert uniform_scale(4) == DEFAULT_SCALE
    six = uniform_scale(6)
    assert six.granularity == 6
    assert six.bands[0] == (0, 0)
    assert all(hi - lo == 5 for lo, hi in six.bands[1:])
    assert six.bands[-1] == (25, 30)


# --- observation and degrees --------------------------------------------------

def test_observe_gives_pure_belief():
    assert observe(11, DEFAULT_SCALE) == cb(large=4, believe=3)
    assert observe(0, DEFAULT_SCALE) == cb(zero=4, believe=0)
    assert observe(5, DEFAULT_SCALE) == cb(medium=4, believe=2)


def test_degree_accessor():
    pure = observe(11, DEFAULT_SCALE)
    assert pure.degree(LARGE) == 1
    assert pure.degree(SMALL) == 0
    assert apply_removal(pure).degree(MEDIUM) == F(1, 4)
    assert apply_removal(pure).degree(2) == F(1, 4)


# --- causal update laws -------------------------------------------------------

def test_removal_from_a_pure_state_opens_the_pair_below():
    assert apply_removal(cb(large=4, believe=3)) == cb(medium=1, large=3, believe=3)


def test_removal_switches_believe_past_one_half():
    tie = cb(medium=2, large=2, believe=3)
    assert apply_removal(tie) == cb(medium=3, large=1, believe=2)


def test_removal_keeps_believe_at_an_exact_tie():
    after = apply_removal(cb(medium=1, large=3, believe=3))
    assert after == cb(medium=2, large=2, believe=3)


def test_removal_drains_mixed_support_toward_the_empty_quality():
    assert apply_removal(cb(zero=3, small=1, believe=0)) == cb(zero=4, believe=0)


def test_removal_saturates_only_at_pure_zero():
    pure = cb(zero=4, believe=0)
    assert apply_removal(pure) is pure


def test_addition_mirrors_removal():
    assert apply_addition(cb(zero=4, believe=0)) == cb(zero=3, small=1, believe=0)
    first = apply_addition(cb(medium=3, large=1, believe=2))
    assert first == cb(medium=2, large=2, believe=2)
    assert apply_addition(first) == cb(medium=1, large=3, believe=3)


def test_addition_saturates_at_the_pure_top():
    pure = cb(large=4, believe=3)
    assert apply_addition(pure) is pure


def test_believe_staircase_from_a_fresh_observation():
    state = observe(11, DEFAULT_SCALE)
    believes = [state.believe]
    for _ in range(11):
        state = apply_removal(state)
        believes.append(state.believe)
    assert believes == [3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 0]


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_believe_staircase_generalizes_across_granularities(g):
    # from a pure state the first switch needs floor(g/2)+1 same-direction
    # steps, every further switch exactly g more
    scale = uniform_scale(g)
    top = g - 1
    state = ColumnBelief(tuple([0] * top + [g]), top)
    flips = []
    for step in range(1, g * top + 1):
        previous = state.believe
        state = apply_removal(state)
        if state.believe != previous:
            flips.append(step)
    assert flips == [g // 2 + 1 + i * g for i in range(top)]
    assert state == ColumnBelief(tuple([g] + [0] * top), 0)


@pytest.mark.parametrize("start", sorted(REMOVAL_TRACES))
def test_removal_walks_match_the_frozen_trajectories(start):
    state = observe(start, DEFAULT_SCALE)
    expected = REMOVAL_TRACES[start]
    for count in range(start, -1, -1):
        for q in DEFAULT_SCALE.qualities:
            assert state.degree(q) == expected[q.name].get(count, F(0))
        if count:
            state = apply_removal(state)


@given(st.integers(0, 12), st.lists(st.sampled_from(["down", "up"]), max_size=30))
def test_any_walk_preserves_column_invariants(count, ops):
    state = observe(count, DEFAULT_SCALE)
    for op in ops:
        state = apply_removal(state) if op == "down" else apply_addition(state)
        assert_belief_invariants(state)
        assert_round_trip(state)


# --- preconditions and move application ----------------------------------------

def test_poss_requires_a_nonempty_source_belief():
    state = BeliefState(DEFAULT_SCALE, (cb(zero=4, believe=0), cb(large=4, believe=3)))
    assert not poss(state, Action(1, 2))
    assert poss(state, Action(2, 1))


def test_poss_tests_only_the_main_belief():
    halfway = cb(zero=2, small=2, believe=1)  # believed small despite the tie
    state = BeliefState(DEFAULT_SCALE, (halfway, cb(zero=4, believe=0)))
    assert poss(state, Action(1, 2))


def test_poss_rejects_unknown_columns():
    state = initial_beliefs((3, 3), DEFAULT_SCALE)
    with pytest.raises(ValueError):
        poss(state, Action(1, 3))


def test_apply_move_touches_only_source_and_destination():
    state = initial_beliefs((11, 0, 7), DEFAULT_SCALE)
    after = apply_move(state, Action(1, 2))
    assert after.columns[0] == cb(medium=1, large=3, believe=3)
    assert after.columns[1] == cb(zero=3, small=1, believe=0)
    assert after.columns[2] == state.columns[2]


def test_apply_move_refuses_impossible_moves():
    state = initial_beliefs((0, 5), DEFAULT_SCALE)
    with pytest.raises(NotPossibleError):
        apply_move(state, Action(1, 2))


@given(st.lists(st.integers(0, 12), min_size=3, max_size=5), st.data())
def test_random_moves_keep_the_frame(counts, data):
    state = initial_beliefs(counts, DEFAULT_SCALE)
    n = len(counts)
    for _ in range(data.draw(st.integers(0, 6))):
        src = data.draw(st.integers(1, n))
        dst = data.draw(st.integers(1, n).filter(lambda d: d != src))
        action = Action(src, dst)
        if not poss(state, action):
            continue
        before = state
        state = apply_move(state, action)
        for i in range(n):
            if i + 1 not in (src, dst):
                assert state.columns[i] == before.columns[i]


def position_of(cb):
    return sum(i * m for i, m in enumerate(cb.numerators))


@given(st.integers(2, 9), st.integers(2, 5), st.data())
def test_a_move_keeps_the_total_position_or_lowers_it_into_a_full_column(g, n, data):
    # Poss keeps the source off position 0, so its removal lowers its position
    # by one; the addition raises the destination's by one unless it sits at
    # the top position g(g - 1).  So the total P never rises.  The planner's
    # saturation test and the certificate rest on this.
    scale, top = uniform_scale(g), g * (g - 1)
    state = initial_beliefs(data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n)), scale)
    for _ in range(data.draw(st.integers(0, 40))):
        moves = [Action(s, d) for s in range(1, n + 1) for d in range(1, n + 1)
                 if s != d and poss(state, Action(s, d))]
        if not moves:
            break
        action = data.draw(st.sampled_from(moves))
        full = position_of(state.columns[action.dst - 1]) == top
        before, state = state, apply_move(state, action)
        total = sum(map(position_of, state.columns))
        assert total == sum(map(position_of, before.columns)) - full


# --- the column automaton against the hand-written law -------------------------

def reference_removal(cb):
    """The causal law of taking one block, written out by hand as tuple
    arithmetic: the reference the column automaton is checked against."""
    nums = cb.numerators
    g = len(nums)
    low = 0
    while not nums[low]:
        low += 1
    if low == 0 and nums[0] == g:
        return cb
    new = list(nums)
    if nums[low] == g:  # pure state: open the pair below
        new[low] -= 1
        new[low - 1] += 1
        gaining = low - 1
    else:  # two-quality support {low, low + 1}
        new[low] += 1
        new[low + 1] -= 1
        gaining = low
    believe = gaining if 2 * new[gaining] > g else cb.believe
    return ColumnBelief(tuple(new), believe)


def reference_addition(cb):
    """Mirror of :func:`reference_removal`: one block added."""
    nums = cb.numerators
    g = len(nums)
    high = g - 1
    while not nums[high]:
        high -= 1
    if high == g - 1 and nums[high] == g:
        return cb
    new = list(nums)
    if nums[high] == g:
        new[high] -= 1
        new[high + 1] += 1
        gaining = high + 1
    else:
        new[high] += 1
        new[high - 1] -= 1
        gaining = high
    believe = gaining if 2 * new[gaining] > g else cb.believe
    return ColumnBelief(tuple(new), believe)


GRANULARITIES = range(2, 9)
UP_TO_THE_CAP = [*GRANULARITIES, 16, 63, 64]
# g(g - 1) + 1 positions, plus g - 1 tie states at even g.
STATES = {2: 4, 3: 7, 4: 16, 5: 21, 6: 36, 7: 43, 8: 64, 16: 256, 63: 3_907, 64: 4_096}


@pytest.mark.parametrize("g", UP_TO_THE_CAP)
def test_automaton_matches_the_reference_law(g):
    # Every belief the reference law reaches from a pure observation, and
    # both steps from it, read the same from the automaton.
    automaton = column_automaton(g)
    scale = uniform_scale(g)
    todo = [observe(lo, scale) for lo, _ in scale.bands]
    reached = set(todo)
    for cb in todo:
        k = automaton.code(cb)
        for reference, apply, table in ((reference_removal, apply_removal, automaton.removal),
                                        (reference_addition, apply_addition, automaton.addition)):
            expected = reference(cb)
            assert apply(cb) == expected
            assert automaton.beliefs[table[k]] == expected
            if expected not in reached:
                reached.add(expected)
                todo.append(expected)
    assert set(automaton.beliefs) == reached
    assert len(reached) == STATES[g]


@pytest.mark.parametrize("g", GRANULARITIES)
def test_automaton_is_a_clamped_walk_over_positions(g):
    automaton = column_automaton(g)
    position, believe = automaton.position, automaton.believe
    n, top = len(automaton.beliefs), g * (g - 1)
    assert n <= g * g
    assert len(set(zip(position, believe))) == n  # (p, believe) identifies a belief
    for k, cb in enumerate(automaton.beliefs):
        assert position[k] == sum(i * m for i, m in enumerate(cb.numerators))
        assert believe[k] == cb.believe
        assert position[automaton.removal[k]] == max(position[k] - 1, 0)
        assert position[automaton.addition[k]] == min(position[k] + 1, top)
        assert (automaton.removal[k] == k) == (position[k] == 0)
        assert (automaton.addition[k] == k) == (position[k] == top)
    # From any belief the two steps reach every other, so a planner state
    # spends the bits of the whole automaton on each column.
    for root in range(n):
        reach = [root]
        for k in reach:
            reach += [j for j in (automaton.removal[k], automaton.addition[k]) if j not in reach]
        assert len(reach) == n


def test_observations_are_the_automatons_pure_codes():
    # Quality q is pure at position q * g, the first code there: both ends of
    # its band observe that very belief, not an equal copy.
    for g in UP_TO_THE_CAP:
        scale, automaton = uniform_scale(g), column_automaton(g)
        for q in scale.qualities:
            pure = automaton.beliefs[bisect_left(automaton.position, q.index * g)]
            assert pure.numerators[q.index] == g and pure.believe == q.index
            for count in scale.band(q):
                assert observe(count, scale) is pure


def test_each_granularity_builds_one_shared_automaton():
    shared = column_automaton(4)
    assert column_automaton(4) is shared
    for g in (1, 65):
        with pytest.raises(ValueError, match=r"^granularity must be in 2\.\.64$"):
            column_automaton(g)
    assert column_automaton(4) is shared


def test_codes_run_in_position_then_believe_order():
    # observe and the planner's code windows find codes by bisecting position.
    for g in range(2, 65):
        automaton = column_automaton(g)
        keys = list(zip(automaton.position, automaton.believe))
        assert all(a < b for a, b in zip(keys, keys[1:])), g


@pytest.mark.parametrize("outside", [
    cb(zero=1, small=1, medium=1, large=1, believe=1),  # three-quality support
    cb(zero=2, small=2, believe=3),  # believe outside the support
    cb(zero=3, small=1, believe=1),  # a switch the tie rule never makes
    cb(small=5),  # degrees summing past 1
    ColumnBelief((65,) + (0,) * 64, 0),  # past the largest granularity
])
def test_beliefs_outside_the_automaton_are_rejected(outside):
    for step in (apply_removal, apply_addition):
        with pytest.raises(ValueError):
            step(outside)
    if len(outside.numerators) == 4:
        state = BeliefState(DEFAULT_SCALE, (outside, observe(5, DEFAULT_SCALE)))
        with pytest.raises(ValueError):
            apply_move(state, Action(2, 1))
        with pytest.raises(ValueError):
            plan(state, GoalSpec((ZERO, LARGE)))
