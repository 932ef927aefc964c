"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line and enforcing its runtime budget (run with ``pytest -s`` to
see the lines as they complete)."""

import functools
import itertools
import json
import random
import time
from fractions import Fraction as F

from conftest import parse_trace, run_walk_case, scenario
from expected_traces import REMOVAL_TRACES
from qbplan import (
    CLOSEST,
    EXACT,
    S0,
    Action,
    GoalSpec,
    PlannerConfig,
    Situation,
    apply_addition,
    apply_move,
    apply_removal,
    do,
    initial_beliefs,
    plan,
    poss,
    precedes,
    precedes_eq,
    predecessor,
    uniform_scale,
)
from qbplan.beliefs import DEFAULT_SCALE, ColumnBelief
from qbplan.cli import main


def criterion(label, budget):
    """Print one pass/fail line per criterion and enforce its time budget."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"
            except BaseException:
                print(f"acceptance {label}: FAIL")
                raise
            print(f"acceptance {label}: PASS ({elapsed:.2f}s)")

        return wrapper

    return decorate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_trace_output_matches(out, start):
    """Every cell of the printed trace equals the frozen trajectory, blanks
    included, with exact rational equality."""
    labels, rows = parse_trace(out)
    assert labels == [str(c) for c in range(start, -1, -1)]
    expected = REMOVAL_TRACES[start]
    assert sorted(rows) == sorted(expected)
    for name, cells in rows.items():
        for col, got in enumerate(cells):
            assert got == expected[name].get(start - col, F(0)), (name, start - col)


@criterion("01 removal trace from 11 blocks", budget=1.0)
def test_trace_from_eleven_blocks(capsys):
    code, out, _ = run_cli(capsys, "trace", "--blocks", "11", "--steps", "-11")
    assert code == 0
    assert_trace_output_matches(out, 11)


@criterion("02 removal traces from 12, 11, 10, and 9 blocks", budget=1.0)
def test_traces_from_all_four_large_starts(capsys):
    for start in (12, 11, 10, 9):
        code, out, _ = run_cli(capsys, "trace", "--blocks", str(start),
                               "--steps", str(-start))
        assert code == 0
        assert_trace_output_matches(out, start)


@criterion("03 borderline-failure scenario end-to-end", budget=5.0)
def test_borderline_failure_scenario(capsys):
    first = run_cli(capsys, "simulate", "--json", scenario("borderline_failure"))
    second = run_cli(capsys, "simulate", "--json", scenario("borderline_failure"))
    assert first == second  # deterministic, byte for byte
    code, out, _ = first
    assert code == 1
    payload = json.loads(out)
    assert payload["outcome_kind"] == "Exact"
    assert len(payload["plan"]) == 6
    assert payload["final_counts"] == [8, 0, 3, 4, 10]
    assert payload["achieved"] == [False, True, True, True, True]


@criterion("04 well-established scenario end-to-end", budget=10.0)
def test_well_established_scenario(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--json", scenario("well_established"))
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome_kind"] == "Exact"
    assert len(payload["plan"]) == 9
    assert payload["achieved"] == [True] * 5
    assert payload["all_achieved"] is True


@criterion("05 borderline-success scenario end-to-end", budget=10.0)
def test_borderline_success_scenario(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--json", scenario("borderline"))
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome_kind"] == "Exact"
    assert len(payload["plan"]) == 10
    assert payload["achieved"] == [True] * 5
    assert payload["all_achieved"] is True


@criterion("06 belief and world property walks", budget=30.0)
def test_property_walks_on_random_domains():
    rng = random.Random(20260811)
    for _ in range(10_000):
        run_walk_case(rng, DEFAULT_SCALE, max_count=12)


@criterion("07 situation ordering axioms", budget=5.0)
def test_situation_axioms_on_random_histories():
    rng = random.Random(7)

    def random_action():
        src = rng.randint(1, 5)
        dst = rng.randint(1, 5)
        while dst == src:
            dst = rng.randint(1, 5)
        return Action(src, dst)

    situations = [S0] + [
        Situation(tuple(random_action() for _ in range(rng.randint(0, 10))))
        for _ in range(999)
    ]
    for s in situations:
        a = random_action()
        succ = do(a, s)
        assert succ != S0 and succ != s
        assert predecessor(succ) == (a, s)
        assert (s == S0) == (predecessor(s) is None)
        assert precedes_eq(S0, s)
        assert not precedes(s, s)
        assert not precedes_eq(succ, s)
        assert precedes(s, succ)
    for _ in range(2000):
        s, t = rng.choice(situations), rng.choice(situations)
        assert precedes_eq(s, t) == (precedes(s, t) or s == t)
        if precedes(s, t):
            assert not precedes(t, s)
        if precedes_eq(s, t) and precedes_eq(t, s):
            assert s == t
    for s in situations:  # transitivity along real prefix chains
        if len(s.history) < 2:
            continue
        i = rng.randrange(len(s.history))
        j = rng.randrange(i + 1, len(s.history) + 1)
        shorter, mid = Situation(s.history[:i]), Situation(s.history[:j])
        assert precedes(shorter, mid)
        if precedes(mid, s):
            assert precedes(shorter, s)


def first_plans(initial, depth):
    """Every tuple of main beliefs reachable within ``depth`` moves, with the
    first plan reaching it: every legal action sequence is enumerated, level
    by level and in action order, without deduplication, so the first is
    the shortest and, among those, the lexicographically least."""
    n = len(initial.columns)
    actions = [Action(s, d) for s in range(1, n + 1) for d in range(1, n + 1) if s != d]
    first = {initial.believes(): ()}
    frontier = [(initial, ())]
    for _ in range(depth):
        frontier = [(apply_move(state, action), path + (action,))
                    for state, path in frontier for action in actions if poss(state, action)]
        for state, path in frontier:
            first.setdefault(state.believes(), path)
    return first


@criterion("08 planner vs exhaustive-enumeration oracle", budget=60.0)
def test_search_is_optimal_on_all_small_instances():
    scale = uniform_scale(3)
    # Two columns from every count pair up to 8 moves deep; three columns from
    # one count per quality (the planner sees only beliefs) up to 6 moves.
    for counts_per_column, columns, depth in ((range(9), 2, 8), ((0, 3, 6), 3, 6)):
        for counts in itertools.product(counts_per_column, repeat=columns):
            initial = initial_beliefs(counts, scale)
            first = first_plans(initial, depth)
            for goal in itertools.product(scale.qualities, repeat=columns):
                outcome = plan(initial, GoalSpec(goal), PlannerConfig(max_depth=depth))
                if goal in first:
                    assert (outcome.kind, outcome.plan) == (EXACT, first[goal]), (counts, goal)
                else:
                    assert outcome.kind == CLOSEST, (counts, goal)


@criterion("09 six-quality scale invariants and staircase", budget=10.0)
def test_six_quality_scale_behaves_like_the_default():
    scale = uniform_scale(6)
    g = scale.granularity
    rng = random.Random(6)
    for _ in range(2000):
        run_walk_case(rng, scale, max_count=scale.bands[-1][1])

    def flips(start_index, step):
        nums = [0] * g
        nums[start_index] = g
        state = ColumnBelief(tuple(nums), start_index)
        out = []
        for step_index in range(1, g * g + 1):
            state = step(state)
            if state.believe != (out[-1][1] if out else start_index):
                out.append((step_index, state.believe))
        return out

    for start in range(g):
        down = flips(start, apply_removal)
        assert [s for s, _ in down] == [g // 2 + 1 + i * g for i in range(start)]
        assert [b for _, b in down] == list(range(start - 1, -1, -1))
        up = flips(start, apply_addition)
        assert [s for s, _ in up] == [g // 2 + 1 + i * g for i in range(g - 1 - start)]
        assert [b for _, b in up] == list(range(start + 1, g))
