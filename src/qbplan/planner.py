"""Breadth-first planning in belief space with deterministic tie-breaking.

States are deduplicated on the full belief value (all degrees plus main
beliefs), packed into one int of per-column belief codes.  Successors
enumerate actions in ascending (src, dst) order, so the first goal state
found yields the shortest plan and, among shortest, the lexicographically
least action sequence.  When no goal state exists within the limits, the
closest visited state wins, ordered by (quality distance, plan length,
lexicographic actions).

Before searching, a conservation certificate bounds the reachable quality
distance from below by B (see :mod:`qbplan.certificate`).  B = 0 allows a
plan to the goal; a positive B rules one out.  Either way the search stops
as soon as it generates a state at distance B: no later state can be
closer, so the answer is the one an exhaustive search would give, found
sooner.

Passes pruned by a bound on the moves left come first.  Each column needs
at least so many removals and so many additions to believe its target
(:func:`qbplan.certificate.moves_needed`), and every move is one removal
and one addition, so h, the larger of the two sums over the columns, never
exceeds the moves left to the goal, and one move lowers it by at most one.
A column at quality distance k from its target needs at most k * g + 1
moves of either kind, so a state at distance B has h <= C = B * (g + 1),
and h - C never exceeds the moves left to a state at distance B.  A pass at
limit L drops every child at depth d with d + h - C > L, and every child
deeper than L; it still generates the lexicographically least shortest
plan to a state at distance B first whenever L is at least that plan's
length.  The limit starts at max(1, h(root) - C) and rises by one while
each failed pass holds at least twice the states of the one before.
Otherwise (the passes stop doubling, a pass hits ``max_states``, or the
limit would pass ``max_depth``) the full search runs.  ``expanded`` is the
sum over all passes.

Every pass, the full search too, skips the moves that cannot find a new
state.  A state found by move a = (s1, d1) tries a move b = (s, d) that
comes before a only where the two do not commute (s = d1 or d = s1):
otherwise the child it gives is reached first by the lexicographically
earlier path that makes b before a, and is already held.
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
    pruned pass that reaches a state at the certified distance within the
    cap answers with it (Exact at the goal, Closest above it), even where
    the full search would have been cut short by it.  A search cut
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
    # tries[s1][d1][s]: the destinations that source s tries in a state found
    # by the move (s1, d1).  A move (s, d) before it commutes with it unless
    # s == d1 or d == s1, so a source below s1, d1 aside, tries only s1, and
    # s1 itself the destinations from d1 on.  The one-destination lists are
    # shared.
    single = [[d] for d in range(n)]
    tries = [
        [[others[s] if s > s1 or s == d1
          else others[s1][d1 - (d1 > s1):] if s == s1
          else single[s1] for s in range(n)] for d1 in range(n)]
        for s1 in range(n)
    ]
    slack = bound * (g + 1)  # at least h of any state at the bound
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
        With a ``limit``, the pass walks that many levels at most, and a
        child at depth d is dropped where d + h - slack exceeds the limit, h
        being the larger of its two sums; without one, nothing is.  Returns
        the outcome and the number of states the pass held."""
        carry = 0 if limit is None else width + 1
        root, rem, add = layout(carry)
        top = low + 2 * carry
        spread = carry and (1 << low) + (1 << low + carry)  # each sum's lowest bit
        guards = spread << width

        def over(depth: int) -> int:
            """Added to a child at depth + 1, this sets a guard bit iff the
            child's h exceeds what the limit leaves it."""
            return spread and (full - min(limit + slack - depth - 1, full)) * spread

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
        # The states at depth `depth`, and for each the destinations its
        # sources try, by the move that found it; the root tries every move.
        frontier, rows, expanded = [root], [others], 0
        for depth in range(max_depth if limit is None else min(limit, max_depth)):
            if not frontier:  # exhausted; max_depth may lie far past the last level
                break
            pad, reached, reached_rows = over(depth), [], []
            for state, row in zip(frontier, rows):
                if len(seen) > max_states:
                    return outcome(best, CLOSEST)
                expanded += 1
                here = [(state >> sh) & mask for sh in shifts]
                adds = [col[k] for col, k in zip(add, here)]
                for s, k in enumerate(here):
                    if believe[k] == 0:  # poss: source believed empty
                        continue
                    base = state + rem[s][k]
                    for d in row[s]:
                        child = base + adds[d]
                        if child in seen or (child + pad) & guards:
                            continue
                        seen[child] = state
                        reached.append(child)
                        reached_rows.append(tries[s][d])
                        if child < best_end:
                            if child < bound_end:  # nothing reachable is closer
                                return outcome(child, kind)
                            best, best_end = child, child >> top << top
            frontier, rows = reached, reached_rows
        return outcome(best, CLOSEST)

    # Passes at raised limits from h(root) - slack come first, while each
    # holds at least twice the states of the one before.
    done, limit, held = 0, max(1, max(at_root[:2]) - slack), 0
    while limit <= max_depth:
        found, reached = search(limit, done)
        if found.distance == bound:
            return found
        done = found.expanded
        if reached > max_states or reached < 2 * held:
            break
        limit, held = limit + 1, reached
    return search(None, done)[0]
