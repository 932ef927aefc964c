import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import scenario
from expected_traces import REMOVAL_TRACES
from qbplan import (
    DEFAULT_SCALE,
    Action,
    ExperimentParams,
    GoalSpec,
    WorldState,
    classify,
    evaluate,
    execute,
    random_scenario,
    report_json,
    run_experiment,
    run_scenario,
    trajectory_table,
    uniform_scale,
)
from qbplan.qbdl import DomainSpec, parse
from qbplan.worldsim import PRNG_NAME, format_trajectory

ZERO, SMALL, MEDIUM, LARGE = DEFAULT_SCALE.qualities

FAILURE_PLAN = (Action(2, 1),) * 3 + (Action(4, 3),) * 3


def test_execute_moves_blocks_one_at_a_time():
    world, failed = execute(WorldState((5, 3, 0, 7, 10)), FAILURE_PLAN)
    assert world.counts == (8, 0, 3, 4, 10)
    assert failed == []


def test_execute_records_empty_source_noops():
    world, failed = execute(WorldState((0, 2)), (Action(1, 2),))
    assert world.counts == (0, 2)
    assert failed == [0]


def test_execute_with_an_empty_plan_changes_nothing():
    world, failed = execute(WorldState((4, 4)), ())
    assert world.counts == (4, 4)
    assert failed == []


def test_execute_rejects_unknown_columns():
    with pytest.raises(ValueError):
        execute(WorldState((1, 1)), (Action(1, 3),))


@given(st.lists(st.integers(0, 12), min_size=2, max_size=5), st.data())
def test_execute_conserves_blocks(counts, data):
    n = len(counts)
    moves = []
    for _ in range(data.draw(st.integers(0, 12))):
        src = data.draw(st.integers(1, n))
        dst = data.draw(st.integers(1, n).filter(lambda d: d != src))
        moves.append(Action(src, dst))
    world, _ = execute(WorldState(tuple(counts)), tuple(moves))
    assert sum(world.counts) == sum(counts)
    assert all(c >= 0 for c in world.counts)


def test_evaluate_checks_goal_bands():
    goal = GoalSpec((LARGE, ZERO, SMALL, SMALL, LARGE))
    assert evaluate(WorldState((8, 0, 3, 4, 10)), goal, DEFAULT_SCALE) == [
        False, True, True, True, True,
    ]
    goal2 = GoalSpec((SMALL, SMALL, MEDIUM, MEDIUM, SMALL))
    assert evaluate(WorldState((4, 3, 8, 8, 3)), goal2, DEFAULT_SCALE) == [True] * 5


def test_evaluate_accepts_band_midpoints():
    goal = GoalSpec((SMALL, MEDIUM, LARGE))
    assert evaluate(WorldState((2, 6, 10)), goal, DEFAULT_SCALE) == [True] * 3


def test_run_scenario_reports_the_full_pipeline():
    spec = parse(Path(scenario("borderline_failure")).read_text())
    report = run_scenario(spec)
    assert report.outcome_kind == "Exact"
    assert len(report.plan) == 6
    assert report.final_counts == (8, 0, 3, 4, 10)
    assert report.achieved == (False, True, True, True, True)
    assert not report.all_achieved
    assert report.failed_moves == ()
    assert [q.name for q in report.final_believes] == [
        "large", "zero", "small", "small", "large",
    ]


def test_run_scenario_achieves_both_success_scenarios():
    for name in ("well_established", "borderline"):
        report = run_scenario(parse(Path(scenario(name)).read_text()))
        assert report.all_achieved, name
        assert report.outcome_kind == "Exact"


def test_trajectory_table_matches_the_frozen_walks():
    for start, expected in REMOVAL_TRACES.items():
        table = trajectory_table(start, DEFAULT_SCALE, -start)
        assert table.counts == tuple(range(start, -1, -1))
        for col, count in enumerate(table.counts):
            for q in DEFAULT_SCALE.qualities:
                assert table.beliefs[col].degree(q) == expected[q.name].get(count, F(0))


def test_trajectory_table_from_nine_ends_mostly_small():
    table = trajectory_table(9, DEFAULT_SCALE, -9)
    assert table.beliefs[9].degree(SMALL) == F(3, 4)
    assert table.beliefs[9].degree(ZERO) == F(1, 4)


def test_trajectory_table_saturates_at_zero():
    table = trajectory_table(0, DEFAULT_SCALE, -3)
    assert table.counts == (0, 0, 0, 0)
    assert all(cb == table.beliefs[0] for cb in table.beliefs[1:])
    assert table.beliefs[0].degree(ZERO) == 1


def test_trajectory_table_upward_direction():
    table = trajectory_table(0, DEFAULT_SCALE, 3)
    assert table.counts == (0, 1, 2, 3)
    assert table.beliefs[-1].degree(SMALL) == F(3, 4)
    assert table.beliefs[-1].believe == SMALL.index


def test_trajectory_table_rejects_absurd_step_counts():
    with pytest.raises(ValueError):
        trajectory_table(5, DEFAULT_SCALE, -1000)
    with pytest.raises(ValueError):  # |steps| is capped at 10 g^2
        trajectory_table(0, uniform_scale(64), 40_961)


def test_format_trajectory_layout():
    text = format_trajectory(trajectory_table(11, DEFAULT_SCALE, -2))
    lines = text.splitlines()
    assert lines[0].split() == ["blocks", "11", "10", "9"]
    assert lines[1].split() == ["large", "4/4", "3/4", "2/4"]
    assert lines[-1].split() == ["zero"]


def test_random_scenario_is_seed_deterministic():
    params = ExperimentParams(runs=5, columns=4, max_initial=12, seed=99)
    assert random_scenario(params, 3) == random_scenario(params, 3)
    specs = [random_scenario(params, i) for i in range(5)]
    assert len({s.initial_counts for s in specs}) > 1
    for spec in specs:
        assert all(0 <= c <= 12 for c in spec.initial_counts)
        assert len(spec.goals) == 4
    with pytest.raises(ValueError):
        random_scenario(params, 5)


def test_report_json_field_names():
    report = run_scenario(parse(Path(scenario("borderline_failure")).read_text()))
    payload = report_json(report)
    assert sorted(payload) == [
        "achieved", "all_achieved", "final_counts", "outcome_kind", "plan",
    ]
    assert payload["plan"] == [[a.src, a.dst] for a in report.plan]
    json.dumps(payload)  # must be serializable as-is


@pytest.mark.parametrize("field, value", [
    ("runs", 0), ("columns", 0), ("columns", 65), ("max_initial", -1),
])
def test_experiment_params_reject_unusable_limits(field, value):
    kwargs = dict(runs=2, columns=3, max_initial=5, seed=0) | {field: value}
    with pytest.raises(ValueError, match=field):
        ExperimentParams(**kwargs)


def test_run_experiment_report_shape():
    params = ExperimentParams(runs=4, columns=3, max_initial=12, seed=7)
    result = run_experiment(params)
    assert sorted(result) == ["params", "prng", "runs", "success_rate"]
    assert result["prng"] == PRNG_NAME
    assert result["params"]["runs"] == 4
    assert len(result["runs"]) == 4
    hits = sum(run["all_achieved"] for run in result["runs"])
    assert result["success_rate"] == hits / 4
    assert result == run_experiment(params)


def one_column_shift_oracle(count: int, steps: int, upward: bool) -> int:
    """Block arithmetic for the focal column of a forced single-direction
    plan: additions always land (the reservoir never empties), removals from
    an empty column do nothing."""
    if upward:
        return count + steps
    for _ in range(steps):
        if count > 0:
            count -= 1
    return count


def test_single_column_shifts_match_block_arithmetic():
    """Planner + simulator agree with direct block arithmetic on every
    single-column quality shift from a fresh observation.

    The second column is a reservoir sized so that the minimal plan is forced
    to act only between the two columns, `4k - 1` times for k quality steps.
    """
    top = DEFAULT_SCALE.qualities[-1].index
    for count in range(0, 13):
        start = classify(count, DEFAULT_SCALE).index
        for target in range(top + 1):
            k = target - start
            if k == 0:
                continue
            steps = 4 * abs(k) - 1
            if k > 0:
                spec = DomainSpec(
                    2, DEFAULT_SCALE, (count, 12),
                    (DEFAULT_SCALE.qualities[target], DEFAULT_SCALE.qualities[top - k]),
                )
                forced = Action(2, 1)
            else:
                spec = DomainSpec(
                    2, DEFAULT_SCALE, (count, 0),
                    (DEFAULT_SCALE.qualities[target], DEFAULT_SCALE.qualities[-k]),
                )
                forced = Action(1, 2)
            report = run_scenario(spec)
            assert report.outcome_kind == "Exact"
            assert report.plan == (forced,) * steps
            final = one_column_shift_oracle(count, steps, upward=k > 0)
            assert report.final_counts[0] == final
            assert report.achieved[0] == (classify(final, DEFAULT_SCALE).index == target)
