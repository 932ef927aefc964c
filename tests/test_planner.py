import dataclasses
import functools
import itertools
import math
import random
import signal
import sys
import tracemalloc
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
    ExperimentParams,
    GoalSpec,
    LimitsError,
    NotPossibleError,
    PlanOutcome,
    PlannerConfig,
    Quality,
    apply_addition,
    apply_move,
    apply_removal,
    distance,
    goal_satisfied,
    initial_beliefs,
    plan,
    poss,
    random_scenario,
    run_experiment,
    simulate_beliefs,
    uniform_scale,
)
from qbplan.beliefs import column_automaton
from qbplan.certificate import (
    budget_moves,
    budget_unit,
    lower_bound,
    moves_needed,
    saturation_facts,
)
from qbplan.cli import main
from qbplan.planner import _column_tables
from qbplan.qbdl import MAX_COLUMNS, parse

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


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_a_state_with_no_columns_is_solved_by_the_empty_plan(g):
    initial = BeliefState(uniform_scale(g), ())
    for cfg in (PlannerConfig(), PlannerConfig(max_depth=0, max_states=1)):
        assert plan(initial, GoalSpec(()), cfg) == PlanOutcome((), EXACT, initial, 0, 0)


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


@pytest.mark.parametrize("max_depth", [0, 1, 64])
@pytest.mark.parametrize("counts, goal, kind, dist", [
    ((3, 7), (SMALL, MEDIUM), EXACT, 0),
    ((0, 0), (SMALL, SMALL), CLOSEST, 2),
])
def test_a_root_at_the_bound_answers_with_no_expansion(counts, goal, kind, dist, max_depth):
    initial = beliefs_of(counts)
    outcome = plan(initial, goal_of(*goal), PlannerConfig(max_depth=max_depth))
    assert outcome == PlanOutcome((), kind, initial, dist, 0)


def test_unusable_limits_raise():
    with pytest.raises(LimitsError):
        plan(beliefs_of((5,)), goal_of(LARGE), PlannerConfig(max_depth=-1))
    with pytest.raises(LimitsError):
        plan(beliefs_of((5,)), goal_of(LARGE), PlannerConfig(max_states=0))


def test_a_goal_over_other_columns_raises():
    with pytest.raises(ValueError, match="goal and state column sets differ"):
        plan(beliefs_of((3, 7)), goal_of(SMALL))


def test_goal_qualities_outside_the_initial_scale_raise():
    # Past the top quality the packed distance and sums misread the goal: at
    # index 10 the search answered Closest with a reported distance 7, though
    # its final state lies at 8 and a state at 7 is reachable.
    for index in (-1, 4, 10, 40):
        with pytest.raises(ValueError, match="outside the initial state's scale"):
            plan(beliefs_of((3, 7)), goal_of(Quality(index, "x"), SMALL))


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


def reference_plan(initial, goal, cfg, limit=None, bound=0, uncut=False):
    """The planner's breadth-first search written directly over BeliefState
    values: same action order, dedup on the column tuple, same limits, and
    every move tried from every state.  It stops at the first state at
    distance ``bound`` or less.  With a ``limit``, it walks that many levels
    at most, and drops a child at depth d where d plus its bound on the
    moves left toward distance ``bound``, from :func:`moves_left`, exceeds
    the limit.  With ``uncut``, reaching the state cap fails the test: the
    caller needs the answer the cap would have cut short."""
    kind = CLOSEST if bound else EXACT
    n = len(initial.columns)
    actions = [Action(s, d) for s in range(1, n + 1) for d in range(1, n + 1) if s != d]
    best_dist = distance(initial, goal)
    if best_dist <= bound:
        return PlanOutcome((), kind, initial, best_dist, 0)
    best = (initial, ())
    seen = {initial.columns}
    queue = deque([best])
    levels = cfg.max_depth if limit is None else min(limit, cfg.max_depth)
    expanded = 0
    while queue:
        state, moves = queue.popleft()
        if len(moves) >= levels:
            continue
        if len(seen) > cfg.max_states:
            assert not uncut, ("the reference was cut short by its state cap", initial, goal)
            break
        expanded += 1
        for action in actions:
            if not poss(state, action):
                continue
            child = apply_move(state, action)
            if child.columns in seen:
                continue
            if limit is not None and len(moves) + 1 + moves_left(child, goal, bound) > limit:
                continue
            seen.add(child.columns)
            path = moves + (action,)
            child_dist = distance(child, goal)
            if child_dist <= bound:
                return PlanOutcome(path, kind, child, child_dist, expanded)
            if child_dist < best_dist:
                best, best_dist = (child, path), child_dist
            queue.append((child, path))
    return PlanOutcome(best[1], CLOSEST, best[0], best_dist, expanded)


@functools.cache
def column_moves_needed(g, code):
    """:func:`reference_moves_needed` at granularity g, walked once."""
    return reference_moves_needed(code, column_automaton(g))


@functools.cache
def highest_and_shed(g):
    """From walks over the automaton at granularity g: for each belief t, the
    highest position believing it, and the removals that take the top
    position, a column believing g - 1, to believing it."""
    automaton = column_automaton(g)
    highest: dict[int, int] = {}
    for p, b in zip(automaton.position, automaton.believe):
        highest[b] = max(highest.get(b, p), p)
    top = automaton.position.index(max(automaton.position))
    return highest, {t: r for t, (r, _) in column_moves_needed(g, top).items()}


@functools.cache
def budget_rows(g, code, target):
    """Two rows from walks over the automaton at granularity g: for each
    share k < g of the distance, the fewest removals, and the fewest
    additions, that take a column at ``code`` to some belief within k of
    ``target``."""
    needs = column_moves_needed(g, code)
    # The beliefs exactly k from the target, and then the least over k' <= k.
    rings = [[needs[t] for t in {target - k, target + k} if 0 <= t < g] for k in range(g)]
    return tuple(tuple(itertools.accumulate((min((pair[kind] for pair in ring), default=math.inf)
                                             for ring in rings), min)) for kind in (0, 1))


def min_plus(rows, bound):
    """For each j up to ``bound``, the least sum of one entry of each row, at
    indices summing to at most j.  Each row falls to 0 at its last entry and
    stays there."""
    least = [0] * (bound + 1)
    for row in rows:
        if row[0]:
            least = [min(least[j - k] + row[k] for k in range(min(j + 1, len(row))))
                     for j in range(bound + 1)]
    return least


def moves_left(state, goal, bound=0):
    """A bound on the moves left to a state at distance ``bound``, from walks
    over the automaton.  With R and A the sums over the columns of the
    fewest removals and additions each needs to believe its target, it is
    h_B for ``bound > 0``: each column takes a share of the bound, the
    shares summing to at most it, and needs the moves of each kind toward
    the nearest belief within its share of its target (:func:`budget_rows`);
    h_B is the larger of the least removal sum and the least addition sum
    over the shares.  Toward the goal it adds the saturation law: with each
    column's room ``F = hi - p + R`` (hi the highest position believing its
    target) and the removals D it needs from the top position, it is the
    larger of A and the lesser of ``R + max(0, max(R_c + F_c) - F)`` (where
    ``F >= R``) and ``R + min over r of (D_r - R_r) + max(0, D_r + F_r -
    F)``."""
    g = state.scale.granularity
    automaton = column_automaton(g)
    codes = [automaton.code(cb) for cb in state.columns]
    if bound:
        rows = [budget_rows(g, k, q.index) for k, q in zip(codes, goal.targets)]
        return max(min_plus(side, bound)[bound] for side in zip(*rows))
    pairs = [column_moves_needed(g, k)[q.index] for k, q in zip(codes, goal.targets)]
    removals, additions = sum(r for r, _ in pairs), sum(a for _, a in pairs)
    highest, shed = highest_and_shed(g)
    cols = [(r, highest[q.index] - automaton.position[k] + r, shed[q.index])
            for (r, _), k, q in zip(pairs, codes, goal.targets)]
    room = sum(f for _, f, _ in cols)
    case_a = removals + max(0, max(r + f for r, f, _ in cols) - room) if room >= removals else math.inf
    case_b = removals + min(d - r + max(0, d + f - room) for r, f, d in cols)
    return max(additions, min(case_a, case_b))


def random_problem(rng, granularity, columns):
    scale = uniform_scale(granularity)
    counts = [rng.randint(0, granularity * granularity) for _ in range(columns)]
    goal = GoalSpec(tuple(rng.choice(scale.qualities) for _ in range(columns)))
    return initial_beliefs(counts, scale), goal


UNCAPPED = 20_000  # states; far more than most capped searches here hold


def assert_same_answer(initial, goal, cfg, pinned=None):
    """``plan`` gives ``reference_plan``'s answer; only ``expanded`` may
    differ.  A pass pruned by the bound on the moves left may reach a state
    at the certified distance within the state cap where the full search is
    cut short by it: that answer, Exact or Closest, must be the full
    search's without the cap.  Where the references below would be cut
    short by ``UNCAPPED``, the caller passes the Exact plan as ``pinned``
    (src, dst) pairs; without one, such a search fails."""
    outcome, reference = plan(initial, goal, cfg), reference_plan(initial, goal, cfg)
    bound = distance_lower_bound(initial, goal)
    if outcome.distance == bound < reference.distance:
        uncapped = dataclasses.replace(cfg, max_states=UNCAPPED)
        if pinned is not None:
            moves = tuple(Action(*move) for move in pinned)
            reference = PlanOutcome(moves, EXACT, simulate_beliefs(initial, moves)[-1], 0, 0)
        elif (full := reference_plan(initial, goal, uncapped)).distance == bound:
            reference = full
        else:
            # Where the full search is too large to run here (755,267
            # expansions in one grid case), the reference prunes as a pass at
            # the plan's length does: h_B is admissible and consistent toward
            # the states at the bound, so that keeps its answer.
            reference = reference_plan(initial, goal, uncapped, limit=len(outcome.plan),
                                       bound=bound, uncut=True)
    assert outcome == dataclasses.replace(reference, expanded=outcome.expanded), (initial, goal, cfg)
    return outcome


# The Exact answers of cases 93 and 215 below, 24 and 44 moves, from
# reference_plan pruned at those lengths with a state cap of 200,000 (25,487
# and 50,348 expansions, about 10 s each).  UNCAPPED cuts both short: the
# pruned reference would answer Closest at distances 2 and 4, the full one
# at 5.
PINNED = {
    93: [(2, 1)] * 2 + [(2, 3)] * 6 + [(2, 4)] * 3 + [(4, 5)] * 7 + [(6, 5)] * 3
        + [(5, 2), (5, 4), (5, 6)],
    215: [(2, 1)] * 13 + [(3, 1)] * 13 + [(4, 1)] * 3 + [(1, 2), (1, 3)] + [(1, 5)] * 3
         + [(4, 1)] + [(4, 5)] * 9,
}


def test_plan_matches_the_reference_search_on_random_domains():
    rng = random.Random(1307)
    # An expansion adds up to n(n-1) states, so the state cap scales with n*n
    # to cut searches short after about 1, 5 and 100 expansions.
    limits = list(itertools.product((0, 1, 3, 64), (1, 5, 100)))
    for case in range(240):
        max_depth, expansions = limits[case % len(limits)]
        granularity, columns = rng.randint(2, 8), rng.randint(1, 6)
        initial, goal = random_problem(rng, granularity, columns)
        cfg = PlannerConfig(max_depth=max_depth, max_states=expansions * columns * columns)
        assert_same_answer(initial, goal, cfg, PINNED.get(case))
        if case in PINNED:  # without a cap, the walk finds the pinned plan
            assert [(a.src, a.dst) for a in plan(initial, goal).plan] == PINNED[case]
    for case in range(60):  # small domains searched to completion
        initial, goal = random_problem(rng, rng.randint(2, 5), rng.randint(1, 3))
        cfg = PlannerConfig()
        assert_same_answer(initial, goal, cfg)


def test_plan_matches_the_reference_search_beyond_64_bit_states():
    # Every one of the 64 beliefs of a g = 8 column is reachable here, so a
    # packed state spends 6 bits on each of the 12 columns.
    scale = uniform_scale(8)
    initial = initial_beliefs((0, 5, 9, 17, 25, 33, 41, 49, 57, 3, 30, 60), scale)
    goal = GoalSpec(tuple(scale.qualities[i % 8] for i in range(12)))
    expanded = []
    for max_states in (1, 350, 2_900):  # about 1, 5 and 100 expansions
        cfg = PlannerConfig(max_states=max_states)
        outcome = assert_same_answer(initial, goal, cfg)
        expanded.append(outcome.expanded)
    assert expanded[0] < expanded[1] < expanded[2]


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
    g = initial.scale.granularity
    automaton = column_automaton(g)
    codes = [automaton.code(cb) for cb in initial.columns]
    roots = [(automaton.position[k], automaton.believe[k]) for k in codes]
    targets = [q.index for q in goal.targets]
    return lower_bound(g, roots, targets)


def column_facts(p, g):
    """What one column at position ``p`` can do on its own at granularity g
    (removal only where its believe is nonzero, as ``poss`` asks; addition
    anywhere), in closed form: ``lo[b]``, the least reachable position
    believing b (``lo[0]`` is the column's floor), and ``up[b]``, the least
    position right after a switch up into b."""
    lo = {0: min(p, (g - 1) // 2)} | {b: (b - 1) * g + (g + 1) // 2 for b in range(1, g)}
    return lo, {b: (b - 1) * g + g // 2 + 1 for b in range(1, g)}


def reference_lower_bound(g, roots, targets):
    """``lower_bound`` by a min-plus table over the columns, keyed by whether
    the riser is chosen and by the distance below the no-riser case's: the
    least sum of ``lo``, with the riser charged ``up`` instead, that passes
    ``up(max(b_r, 1)) + sum over c != r of lo(b_c) <= P0``."""
    budget = sum(p for p, _ in roots)
    limit = sum(max(0, t - b) for (_, b), t in zip(roots, targets))
    least = {(False, 0): 0}
    for (p, _), t in zip(roots, targets):
        lo, up = column_facts(p, g)
        nxt = {}

        def keep(key, total):
            if total < nxt.get(key, budget + 1):
                nxt[key] = total

        for (riser, dist), total in least.items():
            # A belief above t is further away than t, and no lower in lo or up.
            for b in range(max(0, t + dist - limit + 1), t + 1):
                keep((riser, dist + t - b), total + lo[b])
                if not riser:
                    keep((True, dist + t - b), total + up[max(b, 1)])
        least = nxt
    return min((dist for riser, dist in least if riser), default=limit)


def test_the_closed_form_certificate_matches_the_min_plus_table():
    rng = random.Random(6053)
    for case in range(2_000):
        g = rng.choice((2, 3, 4, 5, 6, 7, 8, 16, 63, 64))
        automaton = column_automaton(g)
        codes = [rng.randrange(len(automaton.beliefs)) for _ in range(rng.randint(1, 8))]
        if case % 3 == 0:  # columns that share a code, and so tie
            codes = [rng.choice(codes) for _ in codes]
        roots = [(automaton.position[k], automaton.believe[k]) for k in codes]
        targets = [rng.randrange(g) for _ in codes]
        assert lower_bound(g, roots, targets) == reference_lower_bound(g, roots, targets), (
            g, roots, targets)


def reference_column_facts(root, automaton):
    """``column_facts`` by walking the automaton's codes from ``root``
    (removal only where its believe is nonzero, as ``poss`` asks; addition
    anywhere): the ``lo`` and ``up`` it observes."""
    pos, removal, addition, believe = (
        automaton.position, automaton.removal, automaton.addition, automaton.believe
    )
    lo: dict[int, int] = {}
    up: dict[int, int] = {}
    seen, todo = {root}, [root]
    for k in todo:
        b = believe[k]
        lo[b] = min(lo.get(b, pos[k]), pos[k])
        for j in (removal[k], addition[k]) if b else (addition[k],):
            if believe[j] > b:
                up[believe[j]] = min(up.get(believe[j], pos[j]), pos[j])
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return lo, up


@pytest.mark.parametrize("g, every", [(g, 1) for g in range(2, 17)] + [(63, 31), (64, 31)])
def test_column_facts_match_a_walk_over_the_automaton(g, every):
    automaton = column_automaton(g)
    for root in range(0, len(automaton.beliefs), every):
        expected = reference_column_facts(root, automaton)
        assert column_facts(automaton.position[root], g) == expected, (g, root)


def reference_moves_needed(root, automaton):
    """``moves_needed`` for every target, by 0-1 breadth-first walks over the
    automaton's codes from ``root`` (removal only where its believe is
    nonzero, as ``poss`` asks): {target: (fewest removals, fewest additions)}."""
    believe, removal, addition = automaton.believe, automaton.removal, automaton.addition

    def fewest(paid):
        cost, todo = {root: 0}, deque([root])
        while todo:
            k = todo.popleft()
            for table in (removal, addition) if believe[k] else (addition,):
                j, c = table[k], cost[k] + (table is paid)
                if c < cost.get(j, c + 1):
                    cost[j] = c
                    if table is paid:
                        todo.append(j)
                    else:
                        todo.appendleft(j)
        least = {}
        for k, c in cost.items():
            least[believe[k]] = min(least.get(believe[k], c), c)
        return least

    removals, additions = fewest(removal), fewest(addition)
    return {t: (removals[t], additions[t]) for t in sorted(removals)}


@pytest.mark.parametrize("g, every", [(g, 1) for g in range(2, 17)] + [(63, 31), (64, 31)])
def test_moves_needed_match_a_walk_over_the_automaton(g, every):
    automaton = column_automaton(g)
    for root in range(0, len(automaton.beliefs), every):
        p, b = automaton.position[root], automaton.believe[root]
        expected = reference_moves_needed(root, automaton)
        assert {t: moves_needed(p, b, t, g) for t in range(g)} == expected, (g, root)


@pytest.mark.parametrize("g", range(2, 65))
def test_moves_needed_stay_within_the_slack_of_a_distance(g):
    # A column k quality steps from its target needs at most k * g + 1 moves
    # of either kind, so a share of k units of the distance saves it at most
    # k * (g + 1) of them, and h_B is at least max(R, A) - B * (g + 1).  A
    # Closest pass drops a half-move whose sum exceeds the moves left by
    # more than that before pairing it, and keeps every child h_B admits.
    automaton = column_automaton(g)
    for p, b in zip(automaton.position, automaton.believe):
        for t in range(g):
            assert max(moves_needed(p, b, t, g)) <= abs(b - t) * g + (b != t), (g, p, b, t)


@pytest.mark.parametrize("g, every", [(g, 1) for g in range(2, 17)] + [(63, 31), (64, 31)])
def test_each_half_of_a_move_lowers_only_its_own_sum_by_at_most_one(g, every):
    # A pass skips a source whose removal alone, or a destination whose
    # addition alone, takes its sum past the moves left, before pairing them.
    # That keeps every child the walk admits because a removal never lowers
    # a column's fewest additions and an addition never lowers its fewest
    # removals.  Each lowers its own by at most one, and never raises it.
    automaton = column_automaton(g)
    position, believe = automaton.position, automaton.believe
    for k in range(0, len(position), every):
        for t in range(g):
            r, a = moves_needed(position[k], believe[k], t, g)
            j = automaton.addition[k]
            after = moves_needed(position[j], believe[j], t, g)
            assert after[0] >= r and a - 1 <= after[1] <= a, (g, k, t)
            if believe[k]:  # poss
                j = automaton.removal[k]
                after = moves_needed(position[j], believe[j], t, g)
                assert r - 1 <= after[0] <= r and after[1] >= a, (g, k, t)


@pytest.mark.parametrize("g", [*range(2, 17), 63, 64])
def test_saturation_facts_match_a_walk_over_the_automaton(g):
    highest, shed = highest_and_shed(g)
    for t in range(g):
        assert saturation_facts(t, g) == (highest[t], shed[t]), (g, t)


def budget_sides(g, codes, targets):
    """The :func:`budget_unit` facts of the columns at ``codes`` above their
    targets, and of those below them: the two sides of h_B."""
    automaton = column_automaton(g)
    sides = ([], [])
    for k, t in zip(codes, targets):
        if (b := automaton.believe[k]) != t:
            sides[b < t].append(budget_unit(automaton.position[k], b, t, g))
    return sides


@pytest.mark.parametrize("g, every", [(g, 1) for g in range(2, 17)] + [(63, 31), (64, 31)])
def test_the_distance_budget_matches_a_min_plus_over_walked_rows(g, every):
    # Each column's budget_unit (d, e) gives its walked rows: toward a belief
    # within k < d of its target it needs g * (d - k - 1) + e moves of the
    # kind it needs, and from k = d on none.  Over random sets of such
    # columns and every bound, each side of h_B from budget_moves equals the
    # min-plus over the rows of that kind.
    automaton = column_automaton(g)
    position, believe = automaton.position, automaton.believe
    codes = range(0, len(position), every)
    zero = (0,) * g
    for k in codes:
        for t in range(g):
            if believe[k] == t:
                assert budget_rows(g, k, t) == (zero, zero), (g, k, t)
                continue
            d, e = budget_unit(position[k], believe[k], t, g)
            row = tuple(g * (d - j - 1) + e if j < d else 0 for j in range(g))
            assert d == abs(believe[k] - t) and 1 <= e <= g + 1, (g, k, t)
            assert budget_rows(g, k, t) == ((row, zero) if believe[k] > t else (zero, row)), (
                g, k, t)
    rng = random.Random(g)
    for _ in range(200 if every == 1 else 10):
        columns = [(rng.choice(codes), rng.randrange(g)) for _ in range(rng.randint(1, 6))]
        sides = budget_sides(g, *zip(*columns))
        most = sum(d for side in sides for d, _ in side)
        walked = [min_plus(rows, most) for rows in zip(*(budget_rows(g, k, t) for k, t in columns))]
        # At B = 0 every column keeps all its units, so each side is its
        # columns' moves_needed of that kind: the root's h is h_B at every B.
        needed = [sum(moves_needed(position[k], believe[k], t, g)[kind] for k, t in columns
                      if (believe[k] < t) == kind) for kind in (0, 1)]
        assert [budget_moves(side, 0, g) for side in sides] == needed, (g, columns)
        for bound in range(most + 1):
            assert [budget_moves(side, bound, g) for side in sides] == [
                least[bound] for least in walked], (g, columns, bound)


@functools.cache
def small_space(g, n):
    """Every state of n columns at granularity g, as a tuple of automaton
    codes, mapped to the children of its legal moves; and each state's
    parents."""
    automaton = column_automaton(g)
    believe, removal, addition = automaton.believe, automaton.removal, automaton.addition
    children = {}
    for state in itertools.product(range(len(automaton.beliefs)), repeat=n):
        children[state] = []
        for s in range(n):
            for d in range(n) if believe[state[s]] else ():  # poss
                if d != s:
                    child = list(state)
                    child[s], child[d] = removal[state[s]], addition[state[d]]
                    children[state].append(tuple(child))
    parents = {state: [] for state in children}
    for state, kids in children.items():
        for child in kids:
            parents[child].append(state)
    return children, parents


@pytest.mark.parametrize("g, n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_moves_left_is_admissible_and_consistent_on_every_small_space(g, n):
    # For every target tuple, a breadth-first search backward from the goal
    # states gives every state's exact distance.  On each state that reaches
    # the goal, the walked bound on the moves left (with the saturation law)
    # is at most that distance and drops by at most one on each legal move.
    automaton, scale = column_automaton(g), uniform_scale(g)
    children, parents = small_space(g, n)
    raised = 0
    for targets in itertools.product(range(g), repeat=n):
        goal = GoalSpec(tuple(scale.qualities[t] for t in targets))
        left = {state: 0 for state in children
                if all(automaton.believe[k] == t for k, t in zip(state, targets))}
        todo = deque(left)
        while todo:
            state = todo.popleft()
            for parent in parents[state]:
                if parent not in left:
                    left[parent] = left[state] + 1
                    todo.append(parent)
        h = {state: moves_left(BeliefState(scale, tuple(automaton.beliefs[k] for k in state)), goal)
             for state in children}
        for state, moves in left.items():
            assert h[state] <= moves, (g, targets, state)
            assert all(h[state] <= h[child] + 1 for child in children[state]), (g, targets, state)
        for state in children:
            pairs = [column_moves_needed(g, k)[t] for k, t in zip(state, targets)]
            raised += h[state] > max(map(sum, zip(*pairs)))
    # The saturation term is not trivially 0: these are the counts of
    # (targets, state) pairs where the law exceeds max(R, A).
    assert raised >= {(2, 2): 9, (2, 3): 21, (3, 2): 109, (3, 3): 1_531, (4, 2): 1_205,
                      (4, 3): 53_184}[g, n], raised


@pytest.mark.parametrize("g, n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_the_distance_budget_is_admissible_and_consistent_on_every_small_space(g, n):
    # For every target tuple up to the order of the columns (h_B and the
    # moves are the same under any order) and every bound B below the
    # largest distance (past it every state is at the bound), a breadth-first
    # search backward from the states at distance at most B gives every
    # state's exact moves to one.  h_B never exceeds them and drops by at most
    # one on each legal move.
    believe = column_automaton(g).believe
    children, parents = small_space(g, n)
    tighter = 0
    for targets in itertools.combinations_with_replacement(range(g), n):
        sides = {state: budget_sides(g, state, targets) for state in children}
        sums = {state: max(map(sum, zip(*(column_moves_needed(g, k)[t]
                                          for k, t in zip(state, targets)))))
                for state in children}
        dist = {state: sum(abs(believe[k] - t) for k, t in zip(state, targets))
                for state in children}
        for bound in range(1, max(dist.values())):
            left = {state: 0 for state, d in dist.items() if d <= bound}
            todo = deque(left)
            while todo:
                state = todo.popleft()
                for parent in parents[state]:
                    if parent not in left:
                        left[parent] = left[state] + 1
                        todo.append(parent)
            h = {state: max(budget_moves(side, bound, g) for side in both)
                 for state, both in sides.items()}
            for state, moves in left.items():
                assert h[state] <= moves, (g, targets, bound, state)
            for state, kids in children.items():
                assert all(h[state] <= h[child] + 1 for child in kids), (g, targets, bound, state)
                tighter += h[state] > max(0, sums[state] - bound * (g + 1))
    # h_B is not the slack's bound: the counts of (targets, B, state) where it
    # is positive and exceeds max(R, A) - B * (g + 1).
    assert tighter >= {(2, 2): 8, (2, 3): 112, (3, 2): 186, (3, 3): 4_084, (4, 2): 2_796,
                       (4, 3): 150_182}[g, n], tighter


def random_walk(rng, state, steps):
    """``state`` after ``steps`` random moves that ``poss`` allows: a root
    with ties and mixed degrees, which no observation gives."""
    n = len(state.columns)
    actions = [Action(s, d) for s in range(1, n + 1) for d in range(1, n + 1) if s != d]
    for _ in range(steps):
        legal = [a for a in actions if poss(state, a)]
        if not legal:
            break
        state = apply_move(state, rng.choice(legal))
    return state


def test_distance_lower_bound_never_exceeds_the_exhaustive_distance():
    rng = random.Random(2718)
    checked = positive = 0
    while checked < 150:
        initial, goal = random_problem(rng, rng.randint(2, 8), rng.randint(1, 4))
        for root in (initial, random_walk(rng, initial, rng.randint(1, 8))):
            least = least_reachable_distance(root, goal, limit=1_000)
            if least is None:  # too many states to enumerate quickly
                continue
            bound = distance_lower_bound(root, goal)
            assert bound <= least, (root, goal)
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
    # h_B(root) is 10, the plan's length, so the one pass at limit 10 finds
    # it.  Pruned by max(R, A) = 14 less the slack 1 * (4 + 1), the passes
    # started at limit 9, and expanded 697 states; breadth-first passes at
    # those limits expanded 1,950.
    assert moves_left(initial, goal, 1) == 10
    assert outcome.expanded == 77


@pytest.mark.parametrize("counts, goal, bound, moves, believes", [
    # Runs 23, 90 and 60 of `qbplan experiment --seed 0 --columns 5`, with
    # the answers of the exhaustive search (315,122, 636,275 and 2,807
    # expansions).  On runs 23 and 90 only the riser's charge at its switch
    # up rules the goal out; on run 60 a riser that ends believing zero is
    # still charged its switch up into small or above.
    ((12, 0, 6, 0, 7), (MEDIUM, MEDIUM, LARGE, ZERO, MEDIUM), 1,
     [(1, 2)] * 3 + [(1, 3)] * 3, (MEDIUM, SMALL, LARGE, ZERO, MEDIUM)),
    ((9, 0, 12, 11, 0), (MEDIUM, ZERO, LARGE, LARGE, LARGE), 1,
     [(1, 5)] * 6 + [(3, 5)], (MEDIUM, ZERO, LARGE, LARGE, MEDIUM)),
    ((1, 0, 7, 0, 0), (LARGE, LARGE, LARGE, ZERO, LARGE), 8,
     [(1, 2), (1, 2), (3, 2)], (SMALL, SMALL, MEDIUM, ZERO, ZERO)),
], ids=("run-23", "run-90", "run-60"))
def test_the_certificate_is_tight_on_closest_corpus_runs(counts, goal, bound, moves, believes):
    initial, goal = beliefs_of(counts), goal_of(*goal)
    assert distance_lower_bound(initial, goal) == bound
    outcome = plan(initial, goal)
    assert outcome.plan == tuple(Action(s, d) for s, d in moves)
    assert outcome.kind == CLOSEST
    assert outcome.distance == bound
    assert outcome.final_belief == simulate_beliefs(initial, outcome.plan)[-1]
    assert outcome.final_belief.believes() == believes
    assert outcome.expanded < 5_000


def test_the_certificate_is_quick_at_the_largest_granularity():
    # The certificate runs before any search limit applies.  At g = 64 the
    # three-phase knapsack it once was took 6 to 15 s on 12 columns, and the
    # min-plus table that followed it 2.3 s on 64 columns, both on a 2-vCPU
    # Xeon; the closed form takes milliseconds, and all agree.
    scale = uniform_scale(64)
    for columns, bound in ((12, 263), (64, 65)):
        initial = initial_beliefs([60 * i % 4096 for i in range(columns)], scale)
        goal = GoalSpec(tuple(scale.qualities[7 * i % 64] for i in range(columns)))
        assert distance_lower_bound(initial, goal) == bound


def test_set_up_is_bounded_by_the_depth_limit():
    # g = 64 and 64 columns, one state allowed.  The tables cover only the
    # codes a column reaches within max_depth moves (at most 131 of 4,096
    # here), and the certificate is a closed form: tables over every code
    # and a min-plus certificate took 111 MB of tracemalloc peak here.
    scale = uniform_scale(64)
    initial = initial_beliefs([60 * i % 4096 for i in range(64)], scale)
    goal = GoalSpec(tuple(scale.qualities[7 * i % 64] for i in range(64)))
    tracemalloc.start()
    try:
        outcome = plan(initial, goal, PlannerConfig(max_states=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000
    assert outcome == PlanOutcome((), CLOSEST, initial, 1274, 1)


def test_max_states_bounds_the_search():
    initial = beliefs_of((3,) * 20)
    goal = goal_of(*(LARGE,) * 20)
    assert distance_lower_bound(initial, goal) > 0
    outcome = plan(initial, goal, PlannerConfig(max_states=10_000))
    assert outcome.kind == CLOSEST
    # This cap never fires: h_B(root) is 27, and the first pass, at that
    # limit, walks straight down to a state at the certified distance 31 in
    # 27 expansions.
    assert outcome.expanded < 10_000 // 20
    # A pass counts each state it takes off its generators, less those on its
    # line or failed before, and stops once the count passes the cap; the
    # full search stops once the states it holds do, at most n(n-1) past it.
    # A cap below 27 cuts the pass at limit 27 after 20 expansions, and the
    # full search, cut after expanding the root, answers with the root at
    # its distance 40: no pass past the cut answers with a longer plan.
    cut = plan(initial, goal, PlannerConfig(max_states=20))
    assert (cut.kind, cut.plan, cut.distance, cut.expanded) == (CLOSEST, (), 40, 21)
    # The cap is checked before each expansion, so one state still expands the
    # root in each pass until one stops at the cap, and once in the full
    # search: the pass at limit 27 expands the root and stops at its first
    # child, two expansions in all.
    assert plan(initial, goal, PlannerConfig(max_states=1)).expanded == 2
    assert outcome.final_belief == simulate_beliefs(initial, outcome.plan)[-1]
    assert outcome.distance == distance(outcome.final_belief, goal)


def test_the_bound_cuts_the_exact_search_of_corpus_run_1():
    # Run 1 of `qbplan experiment --seed 0 --columns 5`, where the search
    # without the bound expands 621,746 states for the same 30 moves.
    initial = beliefs_of((12, 4, 9, 7, 11))
    goal = goal_of(ZERO, ZERO, SMALL, MEDIUM, SMALL)
    outcome = plan(initial, goal)
    moves = ([(1, 3)] * 11 + [(2, 3)] * 3 + [(3, 5)] * 9 + [(5, 1), (5, 2)]
             + [(5, 3)] * 3 + [(5, 4)] * 2)
    assert outcome.plan == tuple(Action(s, d) for s, d in moves)
    assert outcome.kind == EXACT
    assert outcome.final_belief == simulate_beliefs(initial, outcome.plan)[-1]
    assert outcome.expanded < 100_000


def test_a_capped_walk_hands_over_to_the_full_search():
    # Corpus run 26 of `qbplan experiment --seed 0 --columns 5`, and case 93 of
    # test_plan_matches_the_reference_search_on_random_domains.  h(root) is
    # each plan's length, 26 and 24, and the walk at that limit finds the plan
    # in 81 and 27 expansions.  A smaller cap cuts the walk, and the full
    # search answers, cut short by the same cap as the reference.  A larger
    # one lets the walk answer with the uncapped plan: the cap counts only the
    # states the walk takes and does not skip, not every child it admits.
    problems = [((7, 7, 2, 10, 4), (SMALL, ZERO, MEDIUM, ZERO, ZERO), 50, 100, None),
                ((2, 11, 1, 10, 10, 6), (SMALL, ZERO, MEDIUM, SMALL, MEDIUM, SMALL), 20, 36,
                 PINNED[93])]
    for counts, qualities, cut, cap, pinned in problems:
        initial, goal = beliefs_of(counts), goal_of(*qualities)
        uncapped = plan(initial, goal)
        assert moves_left(initial, goal) == len(uncapped.plan)
        assert pinned is None or [(a.src, a.dst) for a in uncapped.plan] == pinned
        cfg = PlannerConfig(max_states=cut)
        reference = reference_plan(initial, goal, cfg)
        assert (reference.kind, reference.plan, reference.distance) == (CLOSEST, (), 8)
        outcome = plan(initial, goal, cfg)
        assert outcome == dataclasses.replace(reference, expanded=outcome.expanded)
        assert plan(initial, goal, PlannerConfig(max_states=cap)) == uncapped


def test_a_walk_deeper_than_the_recursion_limit_finds_the_plan():
    # g = 64 and two columns: emptying the first into the second takes 4,001
    # moves, each a level of the walk, far past the interpreter's recursion
    # limit.  h(root) is the plan's length, so one pass walks straight down.
    scale = uniform_scale(64)
    initial = initial_beliefs((4032, 0), scale)
    goal = GoalSpec((scale.qualities[0], scale.qualities[63]))
    outcome = plan(initial, goal, PlannerConfig(max_depth=5_000))
    assert (outcome.kind, outcome.plan) == (EXACT, (Action(1, 2),) * 4_001)
    assert outcome.expanded == 4_001 > sys.getrecursionlimit()


def test_passes_give_up_where_no_exact_plan_exists():
    # The certificate proves nothing here, yet no goal state is reachable:
    # the passes stop once they no longer double, and the full search answers.
    initial = beliefs_of((8, 6, 0))
    goal = goal_of(ZERO, SMALL, ZERO)
    assert distance_lower_bound(initial, goal) == 0
    reference = reference_plan(initial, goal, PlannerConfig())
    assert reference.kind == CLOSEST
    outcome = plan(initial, goal)
    assert outcome == dataclasses.replace(reference, expanded=outcome.expanded)
    assert outcome.expanded <= 3 * reference.expanded


def test_passes_give_up_where_the_certified_distance_is_out_of_reach():
    # Corpus run 23: the certified bound 1 lies 6 moves away, so within 5 no
    # state is at the bound.  The pass at limit 5 fails, the next limit would
    # pass max_depth, and the full search answers.
    initial = beliefs_of((12, 0, 6, 0, 7))
    goal = goal_of(MEDIUM, MEDIUM, LARGE, ZERO, MEDIUM)
    cfg = PlannerConfig(max_depth=5)
    reference = reference_plan(initial, goal, cfg)
    assert reference.kind == CLOSEST
    assert reference.distance > distance_lower_bound(initial, goal) == 1
    outcome = plan(initial, goal, cfg)
    assert outcome == dataclasses.replace(reference, expanded=outcome.expanded)
    assert outcome.expanded <= 3 * reference.expanded


def test_skipping_commuting_moves_keeps_every_count():
    # The planner skips the moves that commute with the one that found a
    # state; the reference tries every move.  Whole outcomes, ``expanded``
    # included, agree on full searches that no pass precedes (``max_depth``
    # below the first limit).  On problems the first pass solves, the walk
    # gives the breadth-first pass's answer.
    rng = random.Random(4099)
    one_pass = 0
    for case in range(60):
        initial, goal = random_problem(rng, rng.randint(2, 6), rng.randint(2, 5))
        if case % 2:
            initial = random_walk(rng, initial, rng.randint(1, 8))
        bound = distance_lower_bound(initial, goal)
        first = max(1, moves_left(initial, goal, bound))
        outcome = plan(initial, goal, PlannerConfig(max_states=UNCAPPED))
        if outcome.distance == bound and len(outcome.plan) == first:
            reference = reference_plan(initial, goal, PlannerConfig(), limit=first, bound=bound)
            assert outcome == dataclasses.replace(reference, expanded=outcome.expanded), (
                initial, goal)
            one_pass += 1
        n = len(initial.columns)
        cfg = PlannerConfig(max_depth=first - 1, max_states=rng.choice((1, 5, 100)) * n * n)
        assert plan(initial, goal, cfg) == reference_plan(initial, goal, cfg, bound=bound), (
            initial, goal, cfg)
    assert one_pass >= 25


def test_narrow_code_windows_keep_every_count():
    # At g 6..16 and max_depth 1..4 every column's window, the codes whose
    # position lies within max_depth of its root's, is narrower than the
    # automaton, and the deepest states a search generates sit at its edge.
    # Whole outcomes, ``expanded`` included, agree with the reference over
    # belief values on full searches that no pass precedes (max_depth below
    # the first limit) and on problems the first pass solves.
    rng = random.Random(8123)
    full = one_pass = 0
    for case in range(400):
        g, n = rng.randint(6, 16), rng.randint(2, 4)
        initial, goal = random_problem(rng, g, n)
        if case % 2:
            initial = random_walk(rng, initial, rng.randint(1, 8))
        cfg = PlannerConfig(max_depth=rng.randint(1, 4),
                            max_states=rng.choice((1, 5, 100, 10_000)) * n * n)
        if case % 4 > 1:  # a goal within reach, which a pass may find
            goal = GoalSpec(random_walk(rng, initial, rng.randint(1, cfg.max_depth)).believes())
        bound = distance_lower_bound(initial, goal)
        first = max(1, moves_left(initial, goal, bound))
        outcome = plan(initial, goal, cfg)
        if first > cfg.max_depth:
            reference = reference_plan(initial, goal, cfg, bound=bound)
            full += 1
        else:
            reference = reference_plan(initial, goal, cfg, limit=first, bound=bound)
            if reference.distance != bound:  # later passes or the full search
                assert_same_answer(initial, goal, cfg)
                continue
            one_pass += 1
        assert outcome == reference, (initial, goal, cfg)
    assert full >= 100 and one_pass >= 100, (full, one_pass)


@pytest.mark.parametrize("counts, goal, limits", [
    ((1, 3, 4, 10, 6), (LARGE, ZERO, LARGE, LARGE, ZERO), range(9, 11)),
    ((12, 0, 6, 0, 7), (MEDIUM, MEDIUM, LARGE, ZERO, MEDIUM), range(5, 7)),
    ((0, 5, 1, 1, 0), (ZERO, MEDIUM, LARGE, ZERO, ZERO), range(2, 4)),
], ids=("run-5", "run-23", "run-46"))
def test_closest_passes_and_the_full_search_match_the_reference(counts, goal, limits):
    # Corpus Closest runs at a certified bound of 1: each pass but the last
    # fails, and the last finds the state at the bound.  Below the first
    # limit only the full search runs, and it stops at the bound too; the
    # reference tries every move, so its work also checks the moves the
    # planner skips.
    initial, goal = beliefs_of(counts), goal_of(*goal)
    bound = distance_lower_bound(initial, goal)
    passes = [reference_plan(initial, goal, PlannerConfig(), limit=limit, bound=bound)
              for limit in limits]
    assert [p.distance == bound for p in passes] == [False] * (len(passes) - 1) + [True]
    outcome = plan(initial, goal)
    assert outcome == dataclasses.replace(passes[-1], expanded=outcome.expanded)
    cfg = PlannerConfig(max_depth=limits[0] - 1)
    assert plan(initial, goal, cfg) == reference_plan(initial, goal, cfg, bound=bound)


def test_an_exhausted_search_stops_whatever_the_depth_limit():
    # The search exhausts the give-up case above within the default 64
    # levels; a depth limit far past them must not keep it walking empty ones.
    initial, goal = beliefs_of((8, 6, 0)), goal_of(ZERO, SMALL, ZERO)

    def stuck(signum, frame):
        raise TimeoutError("the search kept going past its last level")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(10)
    try:
        deep = plan(initial, goal, PlannerConfig(max_depth=10**9))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert deep == plan(initial, goal)


@pytest.mark.parametrize("counts, goal, move", [
    ((12, 4, 12), (LARGE, ZERO, LARGE), (2, 1)),
    ((4, 12, 12), (ZERO, LARGE, LARGE), (1, 2)),
])
def test_moves_onto_saturated_columns_report_the_least_destination(counts, goal, move):
    # Adding to a column at the top of its scale leaves its belief as it is,
    # so both destinations give the same child; the lesser one finds it.
    assert plan(beliefs_of(counts), goal_of(*goal)).plan == (Action(*move),) * 3


def test_full_search_closest_plans_report_the_least_destination_onto_saturated_columns():
    # h(root) is 11 > 3, so no pass runs: the full search answers Closest at
    # distance 2, and reads its plan back through states where columns 1 and
    # 2 both saturate.
    outcome = plan(beliefs_of((12, 12, 12)), goal_of(LARGE, LARGE, ZERO),
                   PlannerConfig(max_depth=3))
    assert outcome.plan == (Action(3, 1),) * 3


@pytest.mark.parametrize("name, move, dist", [
    ("well_established", "1 3", 3),
    ("borderline", "1 3", 3),
    ("borderline_failure", "2 1", 2),
])
def test_full_search_plans_keep_their_cli_bytes(capsys, name, move, dist):
    # Each scenario's plan is longer than 5 moves, so no pass runs and the
    # full search answers Closest after 1,065-1,398 expansions, reading its
    # 3-move plan back through `seen`.  The expansion count is left out.
    code = main(["plan", "--max-depth", "5", scenario(name)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == f"move {move}\n" * 3
    assert err.startswith(f"Closest: 3 moves, distance {dist}, ")


def test_each_plan_step_is_the_least_move_between_its_states():
    # Each move of a plan is the one its search took.  Every step must be
    # the least (src, dst) action that poss allows and that takes the
    # replayed state to the next one.  Odd domains have high counts and low
    # targets, so that additions saturate and several destinations give the
    # same state.
    rng = random.Random(21)
    steps = ties = 0
    for i in range(240):
        g, n = rng.choice((2, 3, 4, 5, 6, 7, 8, 16)), rng.randint(1, 6)
        scale = uniform_scale(g)
        low, qualities = (g * (g - 1) // 2, scale.qualities[:(g + 1) // 2]) if i % 2 else (
            0, scale.qualities)
        counts = [rng.randint(low, g * g) for _ in range(n)]
        initial = random_walk(rng, initial_beliefs(counts, scale), rng.randint(0, 10))
        goal = GoalSpec(tuple(rng.choice(qualities) for _ in range(n)))
        cfg = PlannerConfig(max_depth=rng.choice((3, 8, 64)), max_states=2_000)
        outcome = plan(initial, goal, cfg)
        states = simulate_beliefs(initial, outcome.plan)
        assert states[-1] == outcome.final_belief
        actions = [Action(s, d) for s in range(1, n + 1) for d in range(1, n + 1) if s != d]
        for action, state, after in zip(outcome.plan, states, states[1:]):
            found = [a for a in actions if poss(state, a) and apply_move(state, a) == after]
            assert action == found[0], (initial, goal, cfg, action, found)
            steps += 1
            ties += len(found) > 1
    assert steps > 1_000 and ties > 100, (steps, ties)


def test_a_tight_bound_finds_the_plan_in_one_pass():
    # On the bundled scenarios h(root) is the plan's length (9, 10 and 6), so
    # the first pass is the only one, and its walk expands only the states
    # the plan passes through: 9, 10 and 6 expansions, where a breadth-first
    # pass takes 443, 450 and 40 and the full search 15,672, 22,104 and 2,562.
    for name in ("well_established", "borderline", "borderline_failure"):
        spec = parse(Path(scenario(name)).read_text())
        initial, goal = beliefs_of(spec.initial_counts), GoalSpec(spec.goals)
        outcome = plan(initial, goal)
        limit = len(outcome.plan)
        reference = reference_plan(initial, goal, PlannerConfig(), limit=limit)
        assert outcome == dataclasses.replace(reference, expanded=limit)


def test_expanded_sums_the_work_of_every_pass():
    # h(root) is 10 and the plan takes 13 moves, so passes at limits 10, 11
    # and 12 fail before the one at 13 finds it; the full search expands
    # 4,443 states, and breadth-first passes at the same limits 1,037.
    initial = beliefs_of((3, 3, 3, 5))
    goal = goal_of(SMALL, ZERO, MEDIUM, ZERO)
    passes = [reference_plan(initial, goal, PlannerConfig(), limit=limit) for limit in range(10, 14)]
    assert [p.kind for p in passes] == [CLOSEST] * 3 + [EXACT]
    assert plan(initial, goal).expanded == 753


@pytest.mark.parametrize("run, counts, goal, moves, expanded, before", [
    (1, (12, 4, 9, 7, 11), (ZERO, ZERO, SMALL, MEDIUM, SMALL), 30, 30, 69_909),
    (48, (5, 10, 9, 8, 12), (ZERO, ZERO, SMALL, ZERO, SMALL), 42, 42, 998_425),
    (93, (0, 5, 2, 11, 9), (SMALL, SMALL, ZERO, ZERO, ZERO), 30, 30, 115_264),
    (98, (8, 3, 6, 8, 1), (SMALL, MEDIUM, SMALL, SMALL, ZERO), 15, 18, 6_861),
    (174, (9, 12, 6, 11, 8), (ZERO, SMALL, ZERO, ZERO, SMALL), 42, 73, 947_729),
], ids=("run-1", "run-48", "run-93", "run-98", "run-174"))
def test_the_saturation_law_makes_one_pass_of_costly_corpus_runs(run, counts, goal, moves, expanded, before):
    # Runs of `qbplan experiment --seed 0 --columns 5` whose goal lies below
    # the total position, so some addition must saturate.  The larger of
    # the removal and addition sums falls 2 or 3 short of the plan there
    # (``before`` counts the failed passes, and the full search on runs 48
    # and 174); the saturation term makes h(root) the plan's length.
    initial, goal = beliefs_of(counts), goal_of(*goal)
    assert moves_left(initial, goal) == moves
    outcome = plan(initial, goal)
    assert (outcome.kind, len(outcome.plan), outcome.expanded) == (EXACT, moves, expanded)
    assert outcome.expanded < before


@pytest.mark.parametrize("columns, run, bound, moves", [
    (7, 43, 2, "3-1 3-1 3-1 1-2 3-2 3-2 3-2 5-2 5-2 5-2 2-4" + " 5-4" * 6 + " 4-6 5-6 5-6"),
    (8, 4, 1, "1-2 1-2 4-2 2-3 4-3 5-3 3-7" + " 5-7" * 6 + " 5-8" * 3 + " 6-8" * 4),
    (8, 54, 1, "2-1 2-1 2-1 1-6" + " 2-6" * 6 + " 2-7" + " 3-7" * 3 + " 4-7" * 3 + " 5-8" * 3),
], ids=("c7-run-43", "c8-run-4", "c8-run-54"))
def test_the_distance_budget_makes_one_pass_of_costly_wide_runs(columns, run, bound, moves):
    # Runs of `qbplan experiment --seed 0 --max-initial 12` at 7 and 8
    # columns, with the answers of the search without a cap, which took
    # 257,563, 148,287 and 168,670 expansions when the passes were pruned by
    # max(R, A) less the slack B * (g + 1): its first limit, 19, sat below
    # the plan.  h_B(root) is the plan's length, so the first pass walks
    # straight down to the answer, well within 1,000 states.
    spec = random_scenario(ExperimentParams(runs=60, columns=columns, max_initial=12, seed=0), run)
    initial, goal = initial_beliefs(spec.initial_counts, spec.scale), GoalSpec(spec.goals)
    assert distance_lower_bound(initial, goal) == bound
    assert moves_left(initial, goal, bound) == 20
    outcome = plan(initial, goal, PlannerConfig(max_states=1_000))
    assert outcome.plan == tuple(Action(*map(int, move.split("-"))) for move in moves.split())
    assert (outcome.kind, outcome.distance, outcome.expanded) == (CLOSEST, bound, 20)
    assert outcome.final_belief == simulate_beliefs(initial, outcome.plan)[-1]


def reference_passes(initial, goal, cfg):
    """``plan``'s answer toward a goal the certificate allows, where
    ``max_depth`` is at most h(root) + 1 and no state cap fires: that of the
    first pass to reach the goal, at limits from h(root) to ``max_depth``,
    or else the full search's.  (The doubling rule first decides after a
    second failed pass, and the limit then exceeds ``max_depth``.)  Its
    ``expanded`` is the last reference search's alone."""
    for limit in range(max(1, moves_left(initial, goal)), cfg.max_depth + 1):
        outcome = reference_plan(initial, goal, cfg, limit=limit)
        if outcome.distance == 0:
            return outcome
    return reference_plan(initial, goal, cfg)


def test_saturated_roots_match_the_reference_passes_at_both_depth_boundaries():
    # High counts and low targets give roots whose total position P is at
    # least sum hi(t), so each pass tests children by the saturation law
    # from the root on; where P = sum hi (paired), case A of the law
    # counts too.  With max_depth at h(root) and at h(root) + 1, a plan of
    # h(root) moves reaches the limit exactly, and one of h(root) + 1 moves
    # needs the second pass: the answers must match.  At h(root) - 1 only the
    # full search runs, and whole outcomes match, ``expanded`` too.
    rng = random.Random(4099)
    cases = paired = tight = one_more = 0
    while cases < 200:
        g, n = rng.randint(2, 6), rng.randint(2, 5)
        scale, automaton, (highest, _) = uniform_scale(g), column_automaton(g), highest_and_shed(g)
        counts = [rng.randint(g * (g - 1) // 2, g * g) for _ in range(n)]
        goal = GoalSpec(tuple(rng.choice(scale.qualities[:-1]) for _ in range(n)))
        root = random_walk(rng, initial_beliefs(counts, scale), rng.randint(0, 6))
        excess = (sum(automaton.position[automaton.code(cb)] for cb in root.columns)
                  - sum(highest[q.index] for q in goal.targets))
        h = moves_left(root, goal)
        if excess < 0 or h > 7 or goal_satisfied(root, goal) or distance_lower_bound(root, goal):
            continue
        cases, paired = cases + 1, paired + (excess == 0)
        cfg = PlannerConfig(max_depth=h - 1)
        assert plan(root, goal, cfg) == reference_plan(root, goal, cfg), (root, goal, cfg)
        for max_depth in (h, h + 1):
            cfg = PlannerConfig(max_depth=max_depth)
            outcome = plan(root, goal, cfg)
            reference = reference_passes(root, goal, cfg)
            assert outcome == dataclasses.replace(reference, expanded=outcome.expanded), (
                root, goal, cfg)
            if outcome.kind == EXACT:
                tight += len(outcome.plan) == h
                one_more += len(outcome.plan) == h + 1
    assert paired >= 40 and tight >= 200 and one_more >= 5, (paired, tight, one_more)


def test_the_widest_sums_fill_their_packed_fields():
    # At g = 2 every column counts toward n * g * (g - 1) = 8 removals at
    # most, and four columns at count 4, all targeting zero, need all 8: the
    # removal sum reaches 2**3, the least value that needs a fourth bit
    # below the field's guard.  A field one bit narrower would carry that sum
    # into its guard bit, and the walk would expand a state off the plan.
    scale = uniform_scale(2)
    initial, goal = initial_beliefs((4,) * 4, scale), GoalSpec((scale.qualities[0],) * 4)
    assert moves_left(initial, goal) == 8
    for max_depth in (8, 9):
        cfg = PlannerConfig(max_depth=max_depth)
        outcome = plan(initial, goal, cfg)
        assert outcome == dataclasses.replace(reference_passes(initial, goal, cfg), expanded=8)
        assert (outcome.kind, len(outcome.plan)) == (EXACT, 8)


def recorded_answers():
    """(run, outcome kind, plan) of each run in ``corpus_answers.txt``."""
    for line in (Path(__file__).parent / "corpus_answers.txt").read_text().splitlines():
        if not line.startswith("#"):
            run, kind, *moves = line.split()
            yield int(run), kind, [[int(c) for c in move.split("-")] for move in moves]


def test_the_first_corpus_runs_keep_their_recorded_answers():
    recorded = [(kind, moves) for run, kind, moves in recorded_answers() if run < 20]
    result = run_experiment(ExperimentParams(runs=20, columns=5, max_initial=12, seed=0))
    assert [(run["outcome_kind"], run["plan"]) for run in result["runs"]] == recorded


def test_the_corpus_runs_the_saturation_law_speeds_up_keep_their_recorded_answers():
    params = ExperimentParams(runs=200, columns=5, max_initial=12, seed=0)
    later = [answer for answer in recorded_answers() if answer[0] >= 20]
    assert len(later) == 24
    for run, kind, moves in later:
        spec = random_scenario(params, run)
        outcome = plan(beliefs_of(spec.initial_counts), GoalSpec(spec.goals))
        assert (outcome.kind, [[a.src, a.dst] for a in outcome.plan]) == (kind, moves), run


def test_the_closest_corpus_runs_keep_their_recorded_answers():
    params = ExperimentParams(runs=121, columns=5, max_initial=12, seed=0)
    for line in (Path(__file__).parent / "corpus_closest_answers.txt").read_text().splitlines():
        if line.startswith("#"):
            continue
        run, kind, dist, believes, *moves = line.split()
        spec = random_scenario(params, int(run))
        outcome = plan(beliefs_of(spec.initial_counts), GoalSpec(spec.goals))
        assert outcome.plan == tuple(Action(*map(int, m.split("-"))) for m in moves), run
        assert (outcome.kind, outcome.distance) == (kind, int(dist)), run
        assert [q.name for q in outcome.final_belief.believes()] == believes.split(","), run


def root_kind(initial, goal):
    """How ``plan`` searches from ``initial``: "closest" where the
    certificate rules the goal out, else "saturated" where the root's total
    position is at least sum hi(t), so that the saturation law prunes, and
    "unsaturated" otherwise."""
    if distance_lower_bound(initial, goal):
        return "closest"
    g = initial.scale.granularity
    automaton, (highest, _) = column_automaton(g), highest_and_shed(g)
    total = sum(automaton.position[automaton.code(cb)] for cb in initial.columns)
    return "saturated" if total >= sum(highest[q.index] for q in goal.targets) else "unsaturated"


def problem_of_kind(rng, g, n, kind):
    """A random root, walked a few moves, and goal whose ``root_kind`` is
    ``kind``: high counts and low targets for "saturated", low counts and
    high targets for "closest"."""
    scale = uniform_scale(g)
    half = g * (g - 1) // 2
    counts, targets = {"saturated": ((half, g * g), scale.qualities[:(g + 1) // 2]),
                       "unsaturated": ((0, g * g), scale.qualities),
                       "closest": ((0, half), scale.qualities[g // 2:])}[kind]
    while True:
        initial = random_walk(rng, initial_beliefs([rng.randint(*counts) for _ in range(n)], scale),
                              rng.randint(0, 4))
        goal = GoalSpec(tuple(rng.choice(targets) for _ in range(n)))
        if root_kind(initial, goal) == kind:
            return initial, goal


def test_shared_column_tables_leave_no_trace_between_calls():
    # Each problem is first planned with the shared tables cleared, so that
    # it reads only tables it built itself; then all of them again, shuffled
    # among other domains that fill the shared tables and evict from them.
    # Depth limits of 0, 1 and 3 cut the windows short, 64 leaves them whole.
    rng = random.Random(2020)
    kinds = ("saturated", "unsaturated", "closest")
    depths = (0, 1, 3, 64)
    problems = []
    for i, (g, n, kind) in enumerate(itertools.product((2, 3, 4, 5, 6, 16), range(1, 7), kinds)):
        initial, goal = problem_of_kind(rng, g, n, kind)
        problems.append((initial, goal, PlannerConfig(max_depth=depths[i % 4], max_states=200)))
    assert {(root_kind(initial, goal), cfg.max_depth) for initial, goal, cfg in problems} == set(
        itertools.product(kinds, depths))
    cold = []
    for initial, goal, cfg in problems:
        _column_tables.cache_clear()
        cold.append(plan(initial, goal, cfg))
    # Other domains: the same goals from roots a few moves on, which share
    # columns with the list but not always windows, and other granularities.
    others = [(random_walk(rng, initial, rng.randint(1, 3)), goal, cfg)
              for initial, goal, cfg in problems]
    others += [(*random_problem(rng, rng.choice((3, 7, 8)), rng.randint(2, 6)),
                PlannerConfig(max_depth=rng.choice(depths), max_states=200)) for _ in range(40)]
    order = [*range(len(problems)), *[None] * len(others)]
    rng.shuffle(order)
    leftover = iter(others)
    for index in order:
        if index is None:
            plan(*next(leftover))
        else:  # the second call finds all its columns' tables built
            for warm in (plan(*problems[index]), plan(*problems[index])):
                for field in dataclasses.fields(PlanOutcome):
                    assert getattr(warm, field.name) == getattr(cold[index], field.name), (
                        field.name, problems[index])
    columns = sum(len(initial.columns) for initial, _, _ in problems)
    assert _column_tables.cache_info().hits >= columns


def test_shared_column_tables_stay_within_one_maximal_domain():
    # A 64-column domain fills the shared tables; every later call evicts
    # the least recently used columns.  One state and one move allowed keep
    # each search tiny.
    _column_tables.cache_clear()
    assert _column_tables.cache_info().maxsize == MAX_COLUMNS
    rng = random.Random(64)
    cfg = PlannerConfig(max_depth=1, max_states=1)
    for columns in (MAX_COLUMNS, 5, 6, MAX_COLUMNS, 3):
        for _ in range(8):
            plan(*random_problem(rng, rng.randint(2, 8), columns), cfg)
            assert _column_tables.cache_info().currsize <= MAX_COLUMNS
    info = _column_tables.cache_info()
    assert info.currsize == MAX_COLUMNS and info.misses > 4 * MAX_COLUMNS, info
    tables = _column_tables(4, 1, 0, 14, 0, 8, 5)
    assert len(tables) == 6 and all(isinstance(table, tuple) for table in tables)
    assert all(isinstance(share, tuple) for share in tables[3])
    assert all(unit is None or isinstance(unit, tuple) for unit in tables[4] + tables[5])
