"""corpus-c5: runs of the seeded ``experiment`` corpus at 5 columns.

The corpus is the one ``qbplan experiment --seed 0 --columns 5
--max-initial 12`` draws from.  A pass holds two heavy runs that the planner
work items target (run 1, a 30-move Exact plan of about 620k expansions, and
run 5, an exhaustive Closest search of about 390k expansions that returns
distance 1) plus every run among the first 500 whose plan expanded fewer than
12,000 states when the benchmark was defined.  The indices are pinned, so a
faster planner does not change the corpus.  A pass makes each heavy run once
and each light run three times, in three blocks split by the heavy runs, so
that every light run is timed at several moments of a run; an item's time is
its fastest execution.

The benchmark seed draws fresh true counts for every run, each inside the
band of the count it replaces.  The robot's observation, and so the planner's
problem, is the corpus's own on every seed, while final counts, silent no-op
moves and achievement flags change with the seed.  (Permuting the columns as
well moved the median light run's expansions by up to 10% between seeds,
which spread ``item_p50_ms`` too widely.)

One item is what ``run_experiment`` does for a run: ``random_scenario``, then
``run_scenario`` and ``report_json``; the new counts replace the drawn ones
between the first two.  A traced item makes the calls ``run_scenario`` is
made of, so that each layer gets its own span.
"""

from __future__ import annotations

import json
import random
import tracemalloc
from dataclasses import replace

HEAVY = (1, 5)
PEAK_ALLOC_MAX_EXPANDED = 50_000
LIGHT = (
    3, 7, 8, 9, 21, 29, 34, 35, 38, 50, 58, 60, 62, 65, 89, 97, 109, 117,
    122, 147, 152, 159, 163, 176, 178, 181, 184, 195, 196, 198, 204, 210, 225,
    232, 234, 236, 243, 255, 261, 262, 269, 279, 288, 295, 303, 304, 315, 322,
    328, 331, 339, 351, 353, 356, 375, 387, 392, 406, 412, 420, 437, 451, 452,
    456, 470, 474, 480, 490, 493, 494,
)


def draw_counts(q, rng, spec, perm, cap):
    """True counts for ``spec``'s columns taken in the order ``perm``, each
    drawn inside the band of the column's original count (at most ``cap``)."""
    counts = []
    for j in perm:
        lo, hi = spec.scale.band(q.beliefs.classify(spec.initial_counts[j], spec.scale))
        counts.append(rng.randint(lo, min(hi, cap)))
    return tuple(counts)


class Workload:
    def __init__(self, q, seed: int):
        self.q = q
        ws = q.worldsim
        self.params = ws.ExperimentParams(runs=500, columns=5, max_initial=12, seed=0)
        rng = random.Random(f"corpus-c5:{seed}")
        self.runs = HEAVY + LIGHT
        # Which run each position of a pass makes: every light run once in
        # each of three blocks, split by the heavy runs.
        light = list(range(len(HEAVY), len(self.runs)))
        self.slots = light + [0] + light + [1] + light
        columns = range(self.params.columns)
        self.counts = [
            draw_counts(q, rng, ws.random_scenario(self.params, i), columns, self.params.max_initial)
            for i in self.runs
        ]

    def __len__(self) -> int:
        return len(self.slots)

    def warm_up(self) -> None:
        for k in range(3):
            self.run(k, None)

    def run(self, k: int, tr):
        q, ws = self.q, self.q.worldsim
        run = self.runs[self.slots[k]]
        counts = self.counts[self.slots[k]]
        if tr is None:
            spec = replace(ws.random_scenario(self.params, run), initial_counts=counts)
            report = ws.run_scenario(spec)
            return spec, report, ws.report_json(report), None
        with tr.span("worldsim.random_scenario"):
            spec = ws.random_scenario(self.params, run)
        spec = replace(spec, initial_counts=counts)
        report, outcome = traced_run_scenario(q, tr, spec)
        with tr.span("worldsim.report_json"):
            payload = ws.report_json(report)
        return spec, report, payload, outcome

    def check(self, k: int, out) -> str | None:
        spec, report, payload, outcome = out
        return check_report(self.q, spec, report, payload, outcome)

    def record(self, k: int, out):
        spec, report, payload, outcome = out
        text = self.q.sitcalc.format_plan(report.plan) + json.dumps(payload, indent=2)
        counts = {"plan_moves": len(report.plan), "failed_moves": len(report.failed_moves)}
        if outcome is not None:
            counts["expanded"] = outcome.expanded
        return text.encode(), counts

    def layer_metrics(self, outs, tracer) -> dict:
        return {"planner.peak_alloc_mb": peak_alloc_mb(self.q, [(o[0], o[3]) for o in outs if o])}

    def close(self) -> None:
        pass


def traced_run_scenario(q, tr, spec):
    """What ``worldsim.run_scenario`` does, with a span around each call."""
    ws = q.worldsim
    with tr.span("beliefs.initial_beliefs"):
        state = q.beliefs.initial_beliefs(spec.initial_counts, spec.scale)
    goal = q.beliefs.GoalSpec(spec.goals)
    with tr.span("planner.plan") as span:
        outcome = q.planner.plan(state, goal)
        span[0] = f"planner.plan:{outcome.kind}"
    with tr.span("worldsim.execute"):
        world, failed = ws.execute(ws.WorldState(spec.initial_counts), outcome.plan)
    with tr.span("worldsim.evaluate"):
        achieved = ws.evaluate(world, goal, spec.scale)
    report = ws.Report(
        domain=spec,
        plan=outcome.plan,
        outcome_kind=outcome.kind,
        final_counts=world.counts,
        final_believes=outcome.final_belief.believes(),
        achieved=tuple(achieved),
        all_achieved=all(achieved),
        failed_moves=tuple(failed),
    )
    return report, outcome


def peak_alloc_mb(q, searches) -> float:
    """Peak memory tracemalloc sees while ``plan`` repeats the largest of the
    ``(spec, outcome)`` searches that expanded at most ``PEAK_ALLOC_MAX_EXPANDED``
    states.  tracemalloc slows planning about elevenfold, which rules out
    the two heavy corpus runs."""
    spec, traced = max(
        (s for s in searches if s[1].expanded <= PEAK_ALLOC_MAX_EXPANDED),
        key=lambda s: s[1].expanded,
    )
    state = q.beliefs.initial_beliefs(spec.initial_counts, spec.scale)
    tracemalloc.start()
    try:
        outcome = q.planner.plan(state, q.beliefs.GoalSpec(spec.goals))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if outcome.plan != traced.plan:
        raise RuntimeError("the plan under tracemalloc differs from the traced plan")
    return peak / 2**20


def check_report(q, spec, report, payload, outcome) -> str | None:
    """Check one run's report against the belief and world laws; None if sound."""
    b, p, ws = q.beliefs, q.planner, q.worldsim
    goal = b.GoalSpec(spec.goals)
    states = p.simulate_beliefs(b.initial_beliefs(spec.initial_counts, spec.scale), report.plan)
    final = states[-1]
    if report.outcome_kind == p.EXACT:
        if not p.goal_satisfied(final, goal):
            return "Exact plan does not reach the goal"
    elif report.outcome_kind == p.CLOSEST:
        if p.distance(final, goal) == 0:
            return "Closest plan reaches the goal"
    else:
        return f"unknown outcome kind {report.outcome_kind!r}"
    if final.believes() != report.final_believes:
        return "final believes differ from the replayed plan"
    if outcome is not None:
        if outcome.final_belief != final:
            return "final belief differs from the replayed plan"
        if outcome.distance != p.distance(outcome.final_belief, goal):
            return "outcome distance differs from distance(final_belief)"
    counts, failed = list(spec.initial_counts), []
    for step, a in enumerate(report.plan):
        if counts[a.src - 1]:
            counts[a.src - 1] -= 1
            counts[a.dst - 1] += 1
        else:
            failed.append(step)
    if sum(report.final_counts) != sum(spec.initial_counts):
        return "execute does not conserve blocks"
    if list(report.final_counts) != counts or list(report.failed_moves) != failed:
        return "execute differs from block arithmetic"
    achieved = ws.evaluate(ws.WorldState(report.final_counts), goal, spec.scale)
    if list(report.achieved) != achieved or report.all_achieved != all(achieved):
        return "achieved flags differ from evaluate"
    expected = {
        "plan": [[a.src, a.dst] for a in report.plan],
        "final_counts": counts,
        "achieved": achieved,
        "all_achieved": all(achieved),
        "outcome_kind": report.outcome_kind,
    }
    if payload != expected:
        return "report_json differs from the report"
    return None
