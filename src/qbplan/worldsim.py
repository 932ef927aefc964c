"""Ground-truth block simulator, belief trajectory tables, and experiments.

The robot never observes action outcomes, so a move from a physically empty
column is a silent no-op for the world while the belief engine still shifts
mass.  Goal achievement is judged by the quality band of each column's final
actual count.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .beliefs import (
    DEFAULT_SCALE,
    ColumnBelief,
    GoalSpec,
    Quality,
    QualityScale,
    apply_addition,
    apply_removal,
    classify,
    initial_beliefs,
    observe,
)
from .qbdl import MAX_COLUMNS, DomainSpec

if TYPE_CHECKING:
    from .sitcalc import Action

PRNG_NAME = "mt19937-sha256"  # per-run Mersenne Twister, seed = sha256(seed:run)[:8]


@dataclass(frozen=True, slots=True)
class WorldState:
    """Actual block counts per column (index 0 = column 1)."""

    counts: tuple[int, ...]


@dataclass(frozen=True)
class Report:
    """Outcome of planning in belief space and executing against the world."""

    domain: DomainSpec
    plan: tuple[Action, ...]
    outcome_kind: str
    final_counts: tuple[int, ...]
    final_believes: tuple[Quality, ...]
    achieved: tuple[bool, ...]
    all_achieved: bool
    failed_moves: tuple[int, ...]


@dataclass(frozen=True)
class ExperimentParams:
    runs: int
    columns: int
    max_initial: int
    seed: int

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if not 1 <= self.columns <= MAX_COLUMNS:
            raise ValueError(f"columns must be in 1..{MAX_COLUMNS}")
        if self.max_initial < 0:
            raise ValueError("max_initial must be non-negative")


def execute(world: WorldState, moves: tuple[Action, ...]) -> tuple[WorldState, list[int]]:
    """Apply moves to the actual counts; a move from an empty column changes
    nothing and its step index is recorded."""
    counts = list(world.counts)
    n = len(counts)
    failed: list[int] = []
    for step, action in enumerate(moves):
        if not (1 <= action.src <= n and 1 <= action.dst <= n):
            raise ValueError(f"action {action} references an unknown column")
        if counts[action.src - 1] > 0:
            counts[action.src - 1] -= 1
            counts[action.dst - 1] += 1
        else:
            failed.append(step)
    return WorldState(tuple(counts)), failed


def evaluate(final: WorldState, goal: GoalSpec, scale: QualityScale) -> list[bool]:
    """Per column: does the final actual count fall in the goal quality's band?"""
    if len(goal.targets) != len(final.counts):
        raise ValueError("goal and world column sets differ")
    return [classify(c, scale) == q for c, q in zip(final.counts, goal.targets)]


def run_scenario(spec: DomainSpec) -> Report:
    """Observe, plan in belief space, execute on the true world, evaluate."""
    from .planner import plan  # here, so that `qbplan trace` loads no planner

    state = initial_beliefs(spec.initial_counts, spec.scale)
    goal = GoalSpec(spec.goals)
    outcome = plan(state, goal)
    world, failed = execute(WorldState(spec.initial_counts), outcome.plan)
    achieved = evaluate(world, goal, spec.scale)
    return Report(
        domain=spec,
        plan=outcome.plan,
        outcome_kind=outcome.kind,
        final_counts=world.counts,
        final_believes=outcome.final_belief.believes(),
        achieved=tuple(achieved),
        all_achieved=all(achieved),
        failed_moves=tuple(failed),
    )


@dataclass(frozen=True)
class TrajectoryTable:
    """Belief degrees along a pure removal or addition trajectory.

    ``counts[j]`` is the nominal block count after j steps (clamped at 0 on
    the way down); ``beliefs[j]`` the belief vector.
    """

    scale: QualityScale
    counts: tuple[int, ...]
    beliefs: tuple[ColumnBelief, ...]


def trajectory_table(initial_count: int, scale: QualityScale, steps: int) -> TrajectoryTable:
    """Trace |steps| removals (steps < 0) or additions (steps > 0) from a
    fresh observation of ``initial_count`` blocks.  |steps| is capped at
    10 g^2: positions span 0..g(g-1), so every row is constant after at most
    g(g-1) steps."""
    limit = 10 * scale.granularity**2
    if abs(steps) > limit:
        raise ValueError(f"|steps| > {limit}")
    op = apply_removal if steps < 0 else apply_addition
    delta = -1 if steps < 0 else 1
    beliefs = [observe(initial_count, scale)]
    for _ in range(abs(steps)):
        beliefs.append(op(beliefs[-1]))
    counts = tuple(max(0, initial_count + delta * j) for j in range(abs(steps) + 1))
    return TrajectoryTable(scale, counts, tuple(beliefs))


def degree_rows(table: TrajectoryTable) -> dict[str, list[str]]:
    """One row per quality, top first, keyed by its name: its degree at every
    step as a ``k/g`` fraction, blank for a zero degree."""
    g = table.scale.granularity
    rows = {}
    for q in reversed(table.scale.qualities):
        i = q.index
        rows[q.name] = [f"{cb.numerators[i]}/{g}" if cb.numerators[i] else "" for cb in table.beliefs]
    return rows


def _align(rows: list[list[str]]) -> list[str]:
    """One text line per row, cells left-aligned in columns two spaces apart."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def format_trajectory(table: TrajectoryTable) -> str:
    """Text table: count header, then :func:`degree_rows` under the quality names."""
    rows = [["blocks"] + [str(c) for c in table.counts]]
    rows += [[name] + cells for name, cells in degree_rows(table).items()]
    return "\n".join(_align(rows)) + "\n"


def format_report(report: Report) -> str:
    """Human-readable outcome table, one column per domain column."""
    spec = report.domain
    lines = _align([
        ["Columns"] + [str(i + 1) for i in range(spec.columns)],
        ["Initially blocks in col."] + [str(c) for c in spec.initial_counts],
        ["Assigned qualities in initial sit."]
        + [classify(c, spec.scale).name for c in spec.initial_counts],
        ["Goal"] + [q.name for q in spec.goals],
        ["Finally blocks in col."] + [str(c) for c in report.final_counts],
        ["Goal achievement"] + ["yes" if a else "no" for a in report.achieved],
    ])
    lines.append(f"Plan: {len(report.plan)} moves ({report.outcome_kind})")
    if report.failed_moves:
        lines.append(f"Failed moves at steps: {', '.join(map(str, report.failed_moves))}")
    return "\n".join(lines) + "\n"


def _derived_seed(seed: int, run_index: int) -> int:
    import hashlib  # here, so that only `experiment` loads it

    digest = hashlib.sha256(f"{seed}:{run_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def random_scenario(params: ExperimentParams, run_index: int) -> DomainSpec:
    """Deterministic random domain for one run on the default scale: uniform
    counts in [0, max_initial], uniform goal qualities."""
    if not 0 <= run_index < params.runs:
        raise ValueError(f"run_index {run_index} outside [0, {params.runs})")
    rng = random.Random(_derived_seed(params.seed, run_index))
    counts = tuple(rng.randint(0, params.max_initial) for _ in range(params.columns))
    goals = tuple(rng.choice(DEFAULT_SCALE.qualities) for _ in range(params.columns))
    return DomainSpec(params.columns, DEFAULT_SCALE, counts, goals)


def report_json(report: Report) -> dict:
    """Interchange form of a single run's report."""
    return {
        "plan": [[a.src, a.dst] for a in report.plan],
        "final_counts": list(report.final_counts),
        "achieved": list(report.achieved),
        "all_achieved": report.all_achieved,
        "outcome_kind": report.outcome_kind,
    }


def run_experiment(params: ExperimentParams) -> dict:
    """Run every scenario of the experiment and assemble the JSON report,
    keeping only each run's JSON row."""
    runs, successes = [], 0
    for i in range(params.runs):
        report = run_scenario(random_scenario(params, i))
        runs.append(report_json(report))
        successes += report.all_achieved
    return {
        "params": {**asdict(params), "granularity": DEFAULT_SCALE.granularity},
        "prng": PRNG_NAME,
        "runs": runs,
        "success_rate": successes / params.runs,
    }
