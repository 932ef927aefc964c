"""replay: belief replay and world execution of long action sequences.

The planner does no work here.  Set-up draws one domain for every pair of
granularity 2..8 and column count 3, 4, 6, 8, 10, 12 (uniform scales, seeded
counts and goals) and a poss-respecting random walk of ``MOVES`` actions from
its initial beliefs.  The sizes are fixed so that the cost of a pass does not
depend on the seed; the seed draws the counts, goals, walks and trajectory
requests.

One item takes one domain through the domain-file parser, replays its walk
twice through the belief layer (as a trace with
``planner.simulate_beliefs`` and as a fold of ``beliefs.apply_move``),
executes and evaluates it on the true counts, round-trips the plan text, and
renders a belief trajectory table.
"""

from __future__ import annotations

import contextlib
import random

MOVES = 1024
GRANULARITIES = range(2, 9)
COLUMNS = (3, 4, 6, 8, 10, 12)


class Workload:
    def __init__(self, q, seed: int):
        self.q = q
        rng = random.Random(f"replay:{seed}")
        self.cases = [
            _draw_case(q, rng, q.beliefs.uniform_scale(g), n)
            for g in GRANULARITIES
            for n in COLUMNS
        ]

    def __len__(self) -> int:
        return len(self.cases)

    def warm_up(self) -> None:
        for k in range(3):
            self.run(k, None)

    def run(self, k: int, tr):
        q = self.q
        b, ws, sc = q.beliefs, q.worldsim, q.sitcalc
        text, moves, count, steps = self.cases[k]
        span = tr.span if tr is not None else _no_span
        with span("qbdl.parse"):
            spec = q.qbdl.parse(text)
        with span("qbdl.serialize"):
            serialized = q.qbdl.serialize(spec)
        with span("beliefs.initial_beliefs"):
            initial = b.initial_beliefs(spec.initial_counts, spec.scale)
        with span("planner.simulate_beliefs"):
            states = q.planner.simulate_beliefs(initial, moves)
        with span("beliefs.apply_move"):
            final = initial
            for action in moves:
                final = b.apply_move(final, action)
        with span("worldsim.execute"):
            world, failed = ws.execute(ws.WorldState(spec.initial_counts), moves)
        with span("worldsim.evaluate"):
            achieved = ws.evaluate(world, b.GoalSpec(spec.goals), spec.scale)
        with span("sitcalc.format_plan"):
            plan_text = sc.format_plan(moves)
        with span("sitcalc.parse_plan"):
            parsed = sc.parse_plan(plan_text)
        with span("worldsim.trajectory_table"):
            table = ws.trajectory_table(count, spec.scale, steps)
        with span("worldsim.format_trajectory"):
            rendered = ws.format_trajectory(table)
        return spec, serialized, states, final, world, failed, achieved, parsed, table, rendered

    def check(self, k: int, out) -> str | None:
        text, moves, count, steps = self.cases[k]
        spec, serialized, states, final, world, failed, achieved, parsed, table, rendered = out
        if serialized != text:
            return "serialize(parse(text)) differs from text"
        if len(states) != len(moves) + 1 or states[-1] != final:
            return "simulate_beliefs and the apply_move fold disagree"
        counts, expected_failed = list(spec.initial_counts), []
        for step, a in enumerate(moves):
            if counts[a.src - 1]:
                counts[a.src - 1] -= 1
                counts[a.dst - 1] += 1
            else:
                expected_failed.append(step)
        if sum(world.counts) != sum(spec.initial_counts):
            return "execute does not conserve blocks"
        if list(world.counts) != counts or failed != expected_failed:
            return "execute differs from block arithmetic"
        bands = spec.scale.bands
        expected = [
            bands[g.index][0] <= c <= bands[g.index][1] or (c > bands[-1][1] and g.index == len(bands) - 1)
            for c, g in zip(world.counts, spec.goals)
        ]
        if achieved != expected:
            return "evaluate differs from the goal bands"
        if parsed != moves:
            return "parse_plan(format_plan(moves)) differs from moves"
        if len(table.beliefs) != abs(steps) + 1 or table.counts[0] != count:
            return "trajectory table has the wrong shape"
        if len(rendered.splitlines()) != spec.scale.granularity + 1:
            return "trajectory rendering has the wrong number of rows"
        return None

    def record(self, k: int, out):
        spec, serialized, states, final, world, failed, achieved, parsed, table, rendered = out
        beliefs = [(cb.numerators, cb.believe) for cb in final.columns]
        text = f"{serialized}{beliefs}\n{world.counts}\n{failed}\n{achieved}\n{rendered}"
        return text.encode(), {"plan_moves": len(parsed), "failed_moves": len(failed)}

    def layer_metrics(self, outs, tracer) -> dict:
        return {}

    def close(self) -> None:
        pass


def _draw_case(q, rng, scale, n):
    """Seeded counts, goals and a walk of ``MOVES`` poss-respecting moves.

    The walk avoids adding to a column whose belief is already saturated at
    the top while another destination exists, so belief mass is kept and
    the walk does not end with every column believed empty; a domain whose
    walk still gets stuck is drawn again.
    """
    b, Action = q.beliefs, q.sitcalc.Action
    g, top = scale.granularity, scale.bands[-1][1]
    while True:
        counts = tuple(rng.randint(0, top) for _ in range(n))
        goals = tuple(rng.choice(scale.qualities) for _ in range(n))
        state = b.initial_beliefs(counts, scale)
        moves = []
        while len(moves) < MOVES:
            sources = [c for c, cb in enumerate(state.columns, 1) if cb.believe]
            if not sources:
                break
            src = rng.choice(sources)
            others = [c for c in range(1, n + 1) if c != src]
            open_ = [c for c in others if state.columns[c - 1].numerators[-1] < g]
            moves.append(Action(src, rng.choice(open_ or others)))
            state = b.apply_move(state, moves[-1])
        if len(moves) == MOVES:
            text = q.qbdl.serialize(q.qbdl.DomainSpec(n, scale, counts, goals))
            steps = rng.choice((-1, 1)) * rng.randint(1, 2 * g * g)
            return text, tuple(moves), rng.randint(0, top), steps


def _no_span(name):
    return contextlib.nullcontext()
