"""Breadth-first planning in belief space with deterministic tie-breaking.

States are deduplicated on the full belief value (all degrees plus main
beliefs), packed into one int of per-column belief codes.  Successors
enumerate actions in ascending (src, dst) order, so the first goal state
found yields the shortest plan and, among shortest, the lexicographically
least action sequence.  When no goal state exists within the limits, the
closest visited state wins, ordered by (quality distance, plan length,
lexicographic actions).

Before searching, a conservation certificate bounds the reachable quality
distance from below (see :mod:`qbplan.certificate`).  When the bound is
positive no plan reaches the goal, and the search stops as soon as it
generates a state at that bound: no later state can be closer, so the
answer is the one an exhaustive search would give, found sooner.

When the bound is 0, passes pruned by a bound on the moves left come first.
Each column needs at least so many removals and so many additions to
believe its target (:func:`qbplan.certificate.moves_needed`), and every
move is one removal and one addition, so h, the larger of the two sums over
the columns, never exceeds the moves left, and one move lowers it by at
most one.  A pass at limit L drops every child at depth d with d + h > L;
with such an h it still generates the lexicographically least shortest
plan first whenever L is at least that plan's length.  The limit starts at
h(root) and rises by one while each failed pass holds at least twice the
states of the one before.  Otherwise (the passes stop doubling, a pass
hits ``max_states``, or the limit would pass ``max_depth``) the full search
runs.  ``expanded`` is the sum over all passes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .beliefs import BeliefState, GoalSpec, NotPossibleError, apply_move, column_automaton
from .certificate import lower_bound, moves_needed
from .sitcalc import Action

EXACT = "Exact"
CLOSEST = "Closest"


class LimitsError(Exception):
    """The search configuration cannot expand even the root state."""

    code = "E_LIMITS"


@dataclass(frozen=True)
class PlannerConfig:
    """Search limits.  ``max_depth`` bounds plan length; ``max_states`` bounds
    the work: it is checked once per expansion, and a pass stops once it
    holds more states (overshoot at most n(n-1)).  Memory follows the states
    held, n codes each, and one expansion can add n(n-1) of them before the
    cap is checked (domain files and ``experiment`` allow n <= 64).  A
    pruned pass that reaches the goal within the cap answers Exact, even
    where the full search would have been cut short by it.  A search cut
    short returns the closest state the full search generated so far (by
    distance, then plan length, then lexicographic actions) with kind
    Closest."""

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

    g = initial.scale.granularity
    automaton = column_automaton(g)
    vecs, believe = automaton.beliefs, automaton.believe
    root_codes = [automaton.code(cb) for cb in initial.columns]
    targets = [q.index for q in goal.targets]
    # Per column and code: the fewest removals and the fewest additions the
    # column needs on its own to believe its target, and its quality distance.
    needs = [
        [(*moves_needed(p, b, t, g), abs(b - t)) for p, b in zip(automaton.position, believe)]
        for t in targets
    ]
    at_root = [sum(col[k][j] for col, k in zip(needs, root_codes)) for j in range(3)]
    root_dist = at_root[2]
    roots = [(automaton.position[k], believe[k]) for k in root_codes]
    bound = lower_bound(g, roots, targets)
    kind = CLOSEST if bound else EXACT  # what a state at the bound is
    if root_dist == bound:
        return PlanOutcome((), kind, initial, bound, 0)

    # A search state is one int: column c's automaton code sits in `bits` bits
    # at offset bits * c.  A pass with a limit carries above them the sums of
    # the columns' removals and additions, each in `width` bits under a guard
    # bit that stays 0.  The quality distance sits on top, so states order by
    # distance first.
    bits = (len(vecs) - 1).bit_length()
    mask = (1 << bits) - 1
    shifts = [bits * c for c in range(n)]
    low = bits * n
    width = max(sum(max(need[j] for need in col) for col in needs) for j in (0, 1)).bit_length()
    full = (1 << width) - 1
    others = [[d for d in range(n) if d != s] for s in range(n)]
    max_depth, max_states = cfg.max_depth, cfg.max_states

    layouts: dict[int, tuple[int, list[list[int]], list[list[int]]]] = {}

    def layout(carry: int) -> tuple[int, list[list[int]], list[list[int]]]:
        """The root and, per column and code, what one removal or addition
        there adds to a state, with each sum in ``carry`` bits (0: none)."""
        if carry in layouts:
            return layouts[carry]
        packed = [
            [(k << sh) + (carry and (r << low) + (a << low + carry)) + (d << low + 2 * carry)
             for k, (r, a, d) in enumerate(col)]
            for sh, col in zip(shifts, needs)
        ]
        rem = [[col[j] - col[k] for k, j in enumerate(automaton.removal)] for col in packed]
        add = [[col[j] - col[k] for k, j in enumerate(automaton.addition)] for col in packed]
        layouts[carry] = sum(col[k] for col, k in zip(packed, root_codes)), rem, add
        return layouts[carry]

    def decode(state: int) -> BeliefState:
        return BeliefState(initial.scale, tuple(vecs[(state >> sh) & mask] for sh in shifts))

    def search(limit: int | None, done: int) -> tuple[PlanOutcome, int]:
        """One breadth-first pass, after ``done`` expansions in earlier ones.
        With a ``limit``, a child at depth d is dropped where d + h exceeds
        it, h being the larger of its two sums; without one, nothing is.
        Returns the outcome and the number of states the pass held."""
        carry = 0 if limit is None else width + 1
        root, rem, add = layout(carry)
        top = low + 2 * carry
        spread = carry and (1 << low) + (1 << low + carry)  # each sum's lowest bit
        guards = spread << width

        def over(depth: int) -> int:
            """Added to a child at depth + 1, this sets a guard bit iff the
            child's h exceeds what the limit leaves it."""
            return spread and (full - min(limit - depth - 1, full)) * spread

        # The visited set and the plans in one map: each state held points to
        # the state it was reached from, the root to None.
        seen: dict[int, int | None] = {root: None}

        def step(parent: int, child: int) -> Action:
            """The first move, in the pass's order, from ``parent`` to ``child``,
            which is the one that found it: the guard depends only on the child
            and its depth, and a later move finds the child already held."""
            here = [(parent >> sh) & mask for sh in shifts]
            return next(Action(s + 1, d + 1) for s, k in enumerate(here) if believe[k]
                        for d in others[s] if parent + rem[s][k] + add[d][here[d]] == child)

        def outcome(state: int, kind: str) -> tuple[PlanOutcome, int]:
            out, final = [], state
            while (parent := seen[state]) is not None:
                out.append(step(parent, state))
                state = parent
            found = PlanOutcome(tuple(reversed(out)), kind, decode(final), final >> top,
                                done + expanded)
            return found, len(seen)

        bound_end = (bound + 1) << top  # states below this are at the bound
        best, best_end = root, root_dist << top  # states below best_end are closer
        frontier, expanded = [root], 0  # the states at depth `depth`
        for depth in range(max_depth):
            if not frontier:  # exhausted; max_depth may lie far past the last level
                break
            pad, reached = over(depth), []
            for state in frontier:
                if len(seen) > max_states:
                    return outcome(best, CLOSEST)
                expanded += 1
                here = [(state >> sh) & mask for sh in shifts]
                adds = [col[k] for col, k in zip(add, here)]
                for s, k in enumerate(here):
                    if believe[k] == 0:  # poss: source believed empty
                        continue
                    base = state + rem[s][k]
                    for d in others[s]:
                        child = base + adds[d]
                        if child in seen or (child + pad) & guards:
                            continue
                        seen[child] = state
                        reached.append(child)
                        if child < best_end:
                            if child < bound_end:  # nothing reachable is closer
                                return outcome(child, kind)
                            best, best_end = child, child >> top << top
            frontier = reached
        return outcome(best, CLOSEST)

    # Where an Exact plan may exist, passes at raised limits from h(root) come
    # first, while each holds at least twice the states of the one before.
    done = 0
    if not bound:
        limit, held = max(at_root[:2]), 0
        while limit <= max_depth:
            found, reached = search(limit, done)
            if found.kind == EXACT:
                return found
            done = found.expanded
            if reached > max_states or reached < 2 * held:
                break
            limit, held = limit + 1, reached
    return search(None, done)[0]
