"""Breadth-first planning in belief space with deterministic tie-breaking.

States are deduplicated on the full belief value (all degrees plus main
beliefs), packed into one int of per-column belief codes.  Successors
enumerate actions in ascending (src, dst) order, so the first goal state
found yields the shortest plan and, among shortest, the lexicographically
least action sequence.  When no goal state exists within the limits, the
closest visited state wins, ordered by (quality distance, plan length,
lexicographic actions).

Before searching, a conservation certificate bounds the reachable quality
distance from below (see :mod:`qbplan.certificate`).  The search stops as
soon as it generates a state at that bound: no later state can be closer,
so the answer is the one an exhaustive search would give, found sooner.
"""

from __future__ import annotations

from dataclasses import dataclass

from .beliefs import BeliefState, GoalSpec, NotPossibleError, apply_move, column_automaton
from .certificate import lower_bound
from .sitcalc import Action

EXACT = "Exact"
CLOSEST = "Closest"


class LimitsError(Exception):
    """The search configuration cannot expand even the root state."""

    code = "E_LIMITS"


@dataclass(frozen=True)
class PlannerConfig:
    """Search limits.  ``max_depth`` bounds plan length; ``max_states`` bounds
    the work: it is checked once per expansion, and the search stops once it
    holds more states (overshoot at most n(n-1)).  Memory follows the states
    held, n codes each, so one expansion of a wide domain can allocate
    n(n-1) such states before the cap is checked.  A search cut
    short returns the closest state generated so far (by distance, then plan
    length, then lexicographic actions) with kind Closest."""

    max_depth: int = 64
    max_states: int = 5_000_000


@dataclass(frozen=True)
class PlanOutcome:
    plan: tuple[Action, ...]
    kind: str  # EXACT or CLOSEST
    final_belief: BeliefState
    distance: int
    expanded: int


def goal_satisfied(state: BeliefState, goal: GoalSpec) -> bool:
    """True iff every column's main belief equals its goal quality."""
    if len(goal.targets) != len(state.columns):
        raise ValueError("goal and state column sets differ")
    return all(cb.believe == q.index for cb, q in zip(state.columns, goal.targets))


def distance(state: BeliefState, goal: GoalSpec) -> int:
    """Ordinal quality distance: sum over columns of |believe - goal| indices."""
    if len(goal.targets) != len(state.columns):
        raise ValueError("goal and state column sets differ")
    return sum(abs(cb.believe - q.index) for cb, q in zip(state.columns, goal.targets))


def simulate_beliefs(initial: BeliefState, plan: tuple[Action, ...]) -> list[BeliefState]:
    """Belief trace of replaying ``plan``; element 0 is ``initial``."""
    states = [initial]
    for step, action in enumerate(plan):
        try:
            states.append(apply_move(states[-1], action))
        except NotPossibleError:
            raise NotPossibleError(action, step=step) from None
    return states


def plan(initial: BeliefState, goal: GoalSpec, cfg: PlannerConfig | None = None) -> PlanOutcome:
    """Shortest poss-respecting action sequence whose belief state satisfies
    the goal, or the closest reachable state within the limits."""
    cfg = cfg or PlannerConfig()
    if cfg.max_states < 1 or cfg.max_depth < 0:
        raise LimitsError(f"unusable search limits: {cfg}")
    n = len(initial.columns)
    if len(goal.targets) != n:
        raise ValueError("goal and state column sets differ")

    automaton = column_automaton(initial.scale.granularity)
    vecs, believe = automaton.beliefs, automaton.believe
    root_codes = [automaton.code(cb) for cb in initial.columns]
    # A search state is one int: column c's automaton code sits in `bits` bits
    # at offset bits * c, and the state's quality distance sits above them all.
    bits = (len(vecs) - 1).bit_length()
    mask = (1 << bits) - 1
    shifts = [bits * c for c in range(n)]
    top = bits * n
    cost = [[abs(b - q.index) for b in believe] for q in goal.targets]

    def deltas(step: list[int]) -> list[list[int]]:
        """Per column and code: what applying ``step`` there adds to a state."""
        return [
            [((step[k] - k) << sh) + ((col[step[k]] - col[k]) << top) for k in range(len(vecs))]
            for sh, col in zip(shifts, cost)
        ]

    rem, add = deltas(automaton.removal), deltas(automaton.addition)
    moves = [[(s, d) for d in range(n)] for s in range(n)]
    others = [[d for d in range(n) if d != s] for s in range(n)]

    def decode(state: int) -> BeliefState:
        return BeliefState(initial.scale, tuple(vecs[(state >> sh) & mask] for sh in shifts))

    root_dist = sum(col[k] for col, k in zip(cost, root_codes))
    root = sum(k << sh for k, sh in zip(root_codes, shifts)) + (root_dist << top)
    targets = [q.index for q in goal.targets]
    roots = [(automaton.position[k], believe[k]) for k in root_codes]
    bound = root_dist and lower_bound(initial.scale.granularity, roots, targets, root_dist)
    kind = CLOSEST if bound else EXACT  # what a state at the bound is
    if root_dist == bound:
        return PlanOutcome((), kind, decode(root), bound, 0)

    # The BFS queue is also the parent store: states[i] was reached from
    # states[parents[i]] by actions[i].  Depth is counted at level boundaries.
    states = [root]
    parents = [0]
    actions: list[tuple[int, int] | None] = [None]

    def outcome(i: int, kind: str, expanded: int) -> PlanOutcome:
        state = states[i]
        out = []
        while i:
            s, d = actions[i]
            out.append(Action(s + 1, d + 1))
            i = parents[i]
        return PlanOutcome(tuple(reversed(out)), kind, decode(state), state >> top, expanded)

    bound_end = (bound + 1) << top  # states below this are at the bound
    best, best_end = 0, root_dist << top  # states below best_end are closer
    seen = {root}
    max_depth, max_states = cfg.max_depth, cfg.max_states
    depth, level_end = 0, 1
    expanded = 0
    i = 0
    while i < len(states):
        if i == level_end:
            depth, level_end = depth + 1, len(states)
        if depth >= max_depth or len(states) > max_states:
            break
        expanded += 1
        state = states[i]
        here = [(state >> sh) & mask for sh in shifts]
        adds = [col[k] for col, k in zip(add, here)]
        for s, k in enumerate(here):
            if believe[k] == 0:  # poss: source believed empty
                continue
            base = state + rem[s][k]
            row = moves[s]
            for d in others[s]:
                child = base + adds[d]
                if child in seen:
                    continue
                seen.add(child)
                states.append(child)
                parents.append(i)
                actions.append(row[d])
                if child < best_end:
                    if child < bound_end:  # nothing reachable is closer
                        return outcome(len(states) - 1, kind, expanded)
                    best, best_end = len(states) - 1, child >> top << top
        i += 1

    return outcome(best, CLOSEST, expanded)
