import dataclasses
import itertools
import random
from collections import deque
from pathlib import Path

import pytest

from conftest import scenario
from qbplan import (
    CLOSEST,
    DEFAULT_SCALE,
    EXACT,
    Action,
    BeliefState,
    GoalSpec,
    LimitsError,
    NotPossibleError,
    PlanOutcome,
    PlannerConfig,
    apply_addition,
    apply_move,
    apply_removal,
    distance,
    goal_satisfied,
    initial_beliefs,
    plan,
    poss,
    simulate_beliefs,
    uniform_scale,
)
from qbplan.beliefs import column_automaton
from qbplan.certificate import lower_bound
from qbplan.qbdl import parse

ZERO, SMALL, MEDIUM, LARGE = DEFAULT_SCALE.qualities


def beliefs_of(counts):
    return initial_beliefs(counts, DEFAULT_SCALE)


def goal_of(*qualities):
    return GoalSpec(tuple(qualities))


def test_goal_satisfied_compares_main_beliefs_only():
    state = beliefs_of((2, 3, 7, 8, 1))  # believes S S M M S
    assert goal_satisfied(state, goal_of(SMALL, SMALL, MEDIUM, MEDIUM, SMALL))
    assert not goal_satisfied(state, goal_of(SMALL, SMALL, MEDIUM, MEDIUM, MEDIUM))


def test_goal_satisfied_is_vacuously_true_on_no_columns():
    assert goal_satisfied(BeliefState(DEFAULT_SCALE, ()), GoalSpec(()))


def test_goal_satisfied_rejects_mismatched_column_sets():
    with pytest.raises(ValueError):
        goal_satisfied(beliefs_of((1, 2)), goal_of(SMALL))


def test_distance_is_the_ordinal_quality_gap():
    state = beliefs_of((7, 2, 0, 6, 11))  # believes M S Z M L
    assert distance(state, goal_of(LARGE, ZERO, SMALL, SMALL, LARGE)) == 4
    assert distance(state, goal_of(MEDIUM, SMALL, ZERO, MEDIUM, LARGE)) == 0
    assert distance(beliefs_of((0,)), goal_of(LARGE)) == 3


def test_plan_is_empty_when_the_root_satisfies_the_goal():
    outcome = plan(beliefs_of((3, 7)), goal_of(SMALL, MEDIUM))
    assert outcome.kind == EXACT
    assert outcome.plan == ()
    assert outcome.distance == 0


def test_single_blocked_column_returns_the_root_as_closest():
    outcome = plan(beliefs_of((0,)), goal_of(LARGE))
    assert outcome.kind == CLOSEST
    assert outcome.plan == ()
    assert outcome.distance == 3


def test_borderline_failure_scenario_plan_shape():
    spec = parse(Path(scenario("borderline_failure")).read_text())
    outcome = plan(beliefs_of(spec.initial_counts), GoalSpec(spec.goals))
    assert outcome.kind == EXACT
    assert len(outcome.plan) == 6
    deltas = [0] * 5
    for action in outcome.plan:
        deltas[action.src - 1] -= 1
        deltas[action.dst - 1] += 1
    assert deltas == [3, -3, 3, -3, 0]


def test_plans_replay_without_precondition_violations():
    for name in ("well_established", "borderline", "borderline_failure"):
        spec = parse(Path(scenario(name)).read_text())
        initial = beliefs_of(spec.initial_counts)
        goal = GoalSpec(spec.goals)
        outcome = plan(initial, goal)
        trace = simulate_beliefs(initial, outcome.plan)
        assert goal_satisfied(trace[-1], goal) == (outcome.kind == EXACT)
        assert trace[-1] == outcome.final_belief


def test_plan_is_deterministic():
    spec = parse(Path(scenario("well_established")).read_text())
    initial = beliefs_of(spec.initial_counts)
    goal = GoalSpec(spec.goals)
    assert plan(initial, goal) == plan(initial, goal)


def exhaustive_min_length(initial, goal, actions, limit):
    """Smallest plan length up to `limit`, by enumerating all legal action
    sequences without deduplication."""
    if goal_satisfied(initial, goal):
        return 0
    frontier = [initial]
    for depth in range(1, limit + 1):
        successors = []
        for state in frontier:
            for action in actions:
                if poss(state, action):
                    child = apply_move(state, action)
                    if goal_satisfied(child, goal):
                        return depth
                    successors.append(child)
        if not successors:
            return None
        frontier = successors
    return None


def test_search_matches_exhaustive_enumeration_on_tiny_domains():
    scale = uniform_scale(3)
    actions = (Action(1, 2), Action(2, 1))
    cfg = PlannerConfig(max_depth=5)
    for c1 in range(5):
        for c2 in range(5):
            initial = initial_beliefs((c1, c2), scale)
            for q1 in scale.qualities:
                for q2 in scale.qualities:
                    goal = GoalSpec((q1, q2))
                    expected = exhaustive_min_length(initial, goal, actions, 5)
                    outcome = plan(initial, goal, cfg)
                    if expected is None:
                        assert outcome.kind == CLOSEST
                    else:
                        assert outcome.kind == EXACT
                        assert len(outcome.plan) == expected


def test_closest_fallback_under_a_depth_bound():
    outcome = plan(beliefs_of((0, 5)), goal_of(MEDIUM, MEDIUM), PlannerConfig(max_depth=1))
    assert outcome.kind == CLOSEST
    assert outcome.distance > 0


def test_depth_zero_returns_the_root_as_closest():
    outcome = plan(beliefs_of((5,)), goal_of(LARGE), PlannerConfig(max_depth=0))
    assert outcome.kind == CLOSEST
    assert outcome.plan == ()
    assert outcome.expanded == 0


def test_unusable_limits_raise():
    with pytest.raises(LimitsError):
        plan(beliefs_of((5,)), goal_of(LARGE), PlannerConfig(max_expansions=0))
    with pytest.raises(LimitsError):
        plan(beliefs_of((5,)), goal_of(LARGE), PlannerConfig(max_depth=-1))
    with pytest.raises(LimitsError):
        plan(beliefs_of((5,)), goal_of(LARGE), PlannerConfig(max_states=0))


def test_simulate_beliefs_traces_every_step():
    initial = beliefs_of((11, 0))
    trace = simulate_beliefs(initial, ())
    assert trace == [initial]
    moves = (Action(1, 2),) * 3
    trace = simulate_beliefs(initial, moves)
    assert len(trace) == 4
    assert trace[-1].columns[0].believe == MEDIUM.index


def test_simulate_beliefs_reports_the_failing_step():
    initial = beliefs_of((2, 0))
    with pytest.raises(NotPossibleError) as info:
        simulate_beliefs(initial, (Action(1, 2), Action(2, 1), Action(2, 1)))
    assert info.value.step == 1  # column 2 is still believed empty


def test_closest_returns_the_root_when_nothing_is_possible():
    outcome = plan(beliefs_of((0, 0)), goal_of(SMALL, SMALL))
    assert outcome.kind == CLOSEST
    assert outcome.plan == ()
    assert outcome.distance == 2
    # Believing small needs p >= 2 in each column, and P0 = 0: the root is
    # already at the certified bound, so nothing is expanded.
    assert outcome.expanded == 0


def reference_plan(initial, goal, cfg):
    """The planner's breadth-first search written directly over BeliefState
    values: same action order, dedup on the column tuple, same limits."""
    n = len(initial.columns)
    actions = [Action(s, d) for s in range(1, n + 1) for d in range(1, n + 1) if s != d]
    best_dist = distance(initial, goal)
    if best_dist == 0:
        return PlanOutcome((), EXACT, initial, 0, 0)
    best = (initial, ())
    seen = {initial.columns}
    queue = deque([best])
    expanded = 0
    while queue:
        state, moves = queue.popleft()
        if len(moves) >= cfg.max_depth:
            continue
        if expanded >= cfg.max_expansions:
            break
        expanded += 1
        for action in actions:
            if not poss(state, action):
                continue
            child = apply_move(state, action)
            if child.columns in seen:
                continue
            seen.add(child.columns)
            path = moves + (action,)
            child_dist = distance(child, goal)
            if child_dist == 0:
                return PlanOutcome(path, EXACT, child, 0, expanded)
            if child_dist < best_dist:
                best, best_dist = (child, path), child_dist
            queue.append((child, path))
    return PlanOutcome(best[1], CLOSEST, best[0], best_dist, expanded)


def random_problem(rng, granularity, columns):
    scale = uniform_scale(granularity)
    counts = [rng.randint(0, granularity * granularity) for _ in range(columns)]
    goal = GoalSpec(tuple(rng.choice(scale.qualities) for _ in range(columns)))
    return initial_beliefs(counts, scale), goal


def assert_same_answer(outcome, reference):
    """Exact outcomes match whole; a Closest search may stop early at the
    certified bound, so only its ``expanded`` may be smaller."""
    if reference.kind == EXACT:
        assert outcome == reference
    else:
        assert outcome.expanded <= reference.expanded
        assert outcome == dataclasses.replace(reference, expanded=outcome.expanded)


def test_plan_matches_the_reference_search_on_random_domains():
    rng = random.Random(1307)
    limits = list(itertools.product((0, 1, 3, 64), (1, 5, 100)))
    for case in range(240):
        max_depth, max_expansions = limits[case % len(limits)]
        initial, goal = random_problem(rng, rng.randint(2, 8), rng.randint(1, 6))
        cfg = PlannerConfig(max_depth=max_depth, max_expansions=max_expansions)
        assert_same_answer(plan(initial, goal, cfg), reference_plan(initial, goal, cfg))
    for case in range(60):  # small domains searched to completion
        initial, goal = random_problem(rng, rng.randint(2, 5), rng.randint(1, 3))
        cfg = PlannerConfig()
        assert_same_answer(plan(initial, goal, cfg), reference_plan(initial, goal, cfg))


def test_plan_matches_the_reference_search_beyond_64_bit_states():
    # Every one of the 64 beliefs of a g = 8 column is reachable here, so a
    # packed state spends 6 bits on each of the 12 columns.
    scale = uniform_scale(8)
    initial = initial_beliefs((0, 5, 9, 17, 25, 33, 41, 49, 57, 3, 30, 60), scale)
    goal = GoalSpec(tuple(scale.qualities[i % 8] for i in range(12)))
    for max_expansions in (1, 5, 100):
        cfg = PlannerConfig(max_expansions=max_expansions)
        assert_same_answer(plan(initial, goal, cfg), reference_plan(initial, goal, cfg))


def least_reachable_distance(initial, goal, limit):
    """Smallest distance over every state reachable from ``initial``, by
    enumerating column tuples; None when more than ``limit`` are reachable."""
    n = len(initial.columns)
    removal, addition = {}, {}
    seen = {initial.columns}
    todo = [initial.columns]
    best = distance(initial, goal)
    for columns in todo:
        for s, source in enumerate(columns):
            if source.believe == 0:  # poss
                continue
            if source not in removal:
                removal[source] = apply_removal(source)
            for d, dest in enumerate(columns):
                if d == s:
                    continue
                if dest not in addition:
                    addition[dest] = apply_addition(dest)
                child = list(columns)
                child[s], child[d] = removal[source], addition[dest]
                child = tuple(child)
                if child not in seen:
                    seen.add(child)
                    todo.append(child)
                    best = min(best, distance(BeliefState(initial.scale, child), goal))
        if len(seen) > limit:
            return None
    return best


def distance_lower_bound(initial, goal):
    """The certified bound that ``plan`` computes before it searches."""
    automaton = column_automaton(initial.scale.granularity)
    codes = [automaton.code(cb) for cb in initial.columns]
    targets = [q.index for q in goal.targets]
    return lower_bound(automaton, codes, targets, distance(initial, goal))


def test_distance_lower_bound_never_exceeds_the_exhaustive_distance():
    rng = random.Random(2718)
    checked = positive = 0
    while checked < 150:
        initial, goal = random_problem(rng, rng.randint(2, 8), rng.randint(1, 4))
        least = least_reachable_distance(initial, goal, limit=1_000)
        if least is None:  # too many states to enumerate quickly
            continue
        bound = distance_lower_bound(initial, goal)
        assert bound <= least, (initial, goal)
        checked += 1
        positive += bound > 0
    assert positive >= 10  # the bound is not trivially 0


def test_certificate_cuts_the_closest_search_of_corpus_run_5():
    # Run 5 of `qbplan experiment --seed 0 --columns 5`.  P0 = 4+4+4+12+8 =
    # 32 and every column lowest believing its goal sums to 10+1+10+10+1 =
    # 32, but the last of columns 1, 3 and 4 to switch up into large sits at
    # 11 when it does: 11+10+10+1+1 = 33 > 32, so no goal state is reachable.
    initial = beliefs_of((1, 3, 4, 10, 6))
    goal = goal_of(LARGE, ZERO, LARGE, LARGE, ZERO)
    assert distance_lower_bound(initial, goal) == 1
    outcome = plan(initial, goal)
    # The answer of the exhaustive search, which expanded 387,617 states.
    moves = [(2, 1)] * 3 + [(5, 1)] * 4 + [(5, 3)] * 3
    assert outcome.plan == tuple(Action(s, d) for s, d in moves)
    assert outcome.kind == CLOSEST
    assert outcome.distance == 1
    assert outcome.final_belief == simulate_beliefs(initial, outcome.plan)[-1]
    assert outcome.final_belief.believes() == (LARGE, ZERO, MEDIUM, LARGE, ZERO)
    assert outcome.expanded < 50_000


def test_max_states_bounds_the_search():
    initial = beliefs_of((3,) * 20)
    goal = goal_of(*(LARGE,) * 20)
    assert distance_lower_bound(initial, goal) > 0
    outcome = plan(initial, goal, PlannerConfig(max_states=10_000))
    assert outcome.kind == CLOSEST
    # Checked once per expansion, so the queue overshoots by at most n(n-1).
    assert outcome.expanded < 10_000 // 20
    # Like max_expansions=1, a limit of one state still expands the root.
    assert plan(initial, goal, PlannerConfig(max_states=1)).expanded == 1
    assert outcome.final_belief == simulate_beliefs(initial, outcome.plan)[-1]
    assert outcome.distance == distance(outcome.final_belief, goal)
