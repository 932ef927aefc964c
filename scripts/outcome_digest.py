#!/usr/bin/env python3
"""Print SHA-256 digests of the planner's answers and work on a fixed set of
searches, so that two source trees can be compared:

    PYTHONPATH=path/to/src python3 scripts/outcome_digest.py

Six lines, ``<name> <hex digest>``:

- ``corpus-answers`` and ``corpus-work``: runs 0-199 of ``experiment --seed 0
  --columns 5 --max-initial 12``, each at the default limits and at
  ``max_depth = run % 9``;
- ``random-answers`` and ``random-work``: 1,500 random domains from
  ``random.Random(11)``: g in 2-8 or 16, 1-6 columns, 60% with counts of at
  least g(g - 1)/2 and targets in the lower half of the scale, roots walked
  0-10 random legal moves, and mixed depth and state limits;
- ``wide-answers`` and ``wide-work``: runs 0-59 of ``experiment --seed 0
  --max-initial 12`` at 6, 7 and 8 columns, each at ``max_states =
  400_000``, where a capped search can answer otherwise than an uncapped
  one.

An answer is the plan, the kind, the final belief and the distance; the work
is ``expanded``.  Only the public ``qbplan`` API is used.

With ``--list`` it prints one line per search instead, so that two trees can
be compared search by search:

    <set> <index> <max_depth> <max_states> <kind> <distance> <expanded> <plan>

where the plan is its moves as ``src-dst``.  Field 7 is the work, so
``awk '{$7 = ""; print}'`` leaves the answers alone.
"""

import argparse
import hashlib
import random

from qbplan import (
    Action,
    ExperimentParams,
    GoalSpec,
    PlannerConfig,
    apply_move,
    initial_beliefs,
    plan,
    poss,
    random_scenario,
    uniform_scale,
)

DEPTHS = (0, 1, 2, 3, 5, 8, 12, 20, 64)
STATES = (1, 10, 100, 1_000, 3_000, 20_000)


def corpus_searches(runs):
    params = ExperimentParams(runs=runs, columns=5, max_initial=12, seed=0)
    for run in range(runs):
        spec = random_scenario(params, run)
        initial, goal = initial_beliefs(spec.initial_counts, spec.scale), GoalSpec(spec.goals)
        yield initial, goal, PlannerConfig()
        yield initial, goal, PlannerConfig(max_depth=run % 9)


def random_searches(domains):
    rng = random.Random(11)
    for _ in range(domains):
        g, n = rng.choice((2, 3, 4, 5, 6, 7, 8, 16)), rng.randint(1, 6)
        scale = uniform_scale(g)
        if rng.random() < 0.6:  # roots where some addition must saturate
            counts = [rng.randint(g * (g - 1) // 2, g * g) for _ in range(n)]
            qualities = scale.qualities[:(g + 1) // 2]
        else:
            counts = [rng.randint(0, g * g) for _ in range(n)]
            qualities = scale.qualities
        goal = GoalSpec(tuple(rng.choice(qualities) for _ in range(n)))
        state = initial_beliefs(counts, scale)
        actions = [Action(s, d) for s in range(1, n + 1) for d in range(1, n + 1) if s != d]
        for _ in range(rng.randint(0, 10)):
            legal = [a for a in actions if poss(state, a)]
            if not legal:
                break
            state = apply_move(state, rng.choice(legal))
        cfg = PlannerConfig(max_depth=rng.choice(DEPTHS), max_states=rng.choice(STATES))
        yield state, goal, cfg


def wide_searches(runs):
    for columns in (6, 7, 8):
        params = ExperimentParams(runs=runs, columns=columns, max_initial=12, seed=0)
        for run in range(runs):
            spec = random_scenario(params, run)
            yield (initial_beliefs(spec.initial_counts, spec.scale), GoalSpec(spec.goals),
                   PlannerConfig(max_states=400_000))


def outcomes(corpus_runs=200, random_domains=1_500, wide_runs=60):
    """Each search's set, index, limits and outcome, over the first
    ``corpus_runs`` corpus runs, ``random_domains`` random domains and
    ``wide_runs`` runs at each wide column count."""
    for name, searches in (("corpus", corpus_searches(corpus_runs)),
                           ("random", random_searches(random_domains)),
                           ("wide", wide_searches(wide_runs))):
        for index, (initial, goal, cfg) in enumerate(searches):
            yield name, index, cfg, plan(initial, goal, cfg)


def listing(corpus_runs=200, random_domains=1_500, wide_runs=60):
    """The ``--list`` lines, one per search."""
    for name, index, cfg, o in outcomes(corpus_runs, random_domains, wide_runs):
        moves = " ".join(f"{a.src}-{a.dst}" for a in o.plan)
        yield (f"{name} {index} {cfg.max_depth} {cfg.max_states} {o.kind} {o.distance} "
               f"{o.expanded} {moves}".rstrip())


def digests(corpus_runs=200, random_domains=1_500, wide_runs=60):
    """The six digests, by name."""
    out = {f"{name}-{part}": hashlib.sha256() for name in ("corpus", "random", "wide")
           for part in ("answers", "work")}
    for name, _, _, o in outcomes(corpus_runs, random_domains, wide_runs):
        answer = ([(a.src, a.dst) for a in o.plan], o.kind, o.final_belief.columns, o.distance)
        out[f"{name}-answers"].update(repr(answer).encode() + b"\n")
        out[f"{name}-work"].update(b"%d\n" % o.expanded)
    return {name: digest.hexdigest() for name, digest in out.items()}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Digest or list the planner's answers "
                                                 "and work on a fixed set of searches.")
    parser.add_argument("--list", action="store_true", help="print one line per search")
    if parser.parse_args().list:
        for line in listing():
            print(line)
    else:
        for name, digest in digests().items():
            print(name, digest)
