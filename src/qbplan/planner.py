"""Breadth-first planning in belief space with deterministic tie-breaking.

States are deduplicated on the full belief value (all degrees plus main
beliefs), packed into one int of per-column indices into the automaton
codes each column reaches within ``max_depth`` moves.  Successors
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

Passes pruned by a bound h on the moves left come first.  Each column needs
at least so many removals and so many additions to believe its target
(:func:`qbplan.certificate.moves_needed`), and every move is one removal
and one addition, so the larger of the two sums over the columns never
exceeds the moves left to the goal, and one move lowers it by at most one.
Toward the goal (B = 0), h adds the saturation law, a yes/no test against
the moves left (``beyond`` in :func:`plan`): an addition into a column at
the top position changes nothing, so where the total position is at least
what the targets allow, the removals it forces count too.  The sums and that
position excess ride in the packed state: h is the larger sum where the
excess is negative, and elsewhere a child is tested against the moves the
limit leaves it one column at a time, up to the first column that admits
it.  h stays admissible and consistent.  A column at quality distance
k from its target needs at most k * g + 1 moves of either kind, so a state
at distance B > 0 has the larger sum at most C = B * (g + 1), and h, that
sum less C, never exceeds the moves left to a state at distance B.  A pass
at limit L drops every child at depth d with d + h > L, and every child
deeper than L; it still generates the lexicographically least shortest plan
to a state at distance B first whenever L is at least that plan's length.
The limit starts at max(1, h(root)) and rises by one while each failed pass
holds at least twice the states of the one before.  Otherwise (the passes
stop doubling, a pass hits ``max_states``, or the limit would pass
``max_depth``) the full search runs.  ``expanded`` is the sum over all
passes.

Every pass, the full search too, skips the moves that cannot find a new
state.  A state found by move a = (s1, d1) tries a move b = (s, d) that
comes before a only where the two do not commute (s = d1 or d = s1):
otherwise the child it gives is reached first by the lexicographically
earlier path that makes b before a, and is already held.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .beliefs import BeliefState, GoalSpec, NotPossibleError, apply_move, column_automaton
from .certificate import lower_bound, moves_needed, saturation_facts
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
    cap is checked (domain files and ``experiment`` allow n <= 64); the
    tables built before it cover at most 2 * max_depth + 1 positions a
    column.  A pruned pass that reaches a state at the certified distance
    within the cap answers with it (Exact at the goal, Closest above it),
    even where the full search would have been cut short by it.  A search
    cut short returns the closest state the full search generated so far
    (by distance, then plan length, then lexicographic actions) with kind
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
    vecs, position, believe = automaton.beliefs, automaton.position, automaton.believe
    root_codes = [automaton.code(cb) for cb in initial.columns]
    targets = [q.index for q in goal.targets]
    max_depth, max_states = cfg.max_depth, cfg.max_states
    # A move shifts a column's position by at most one, so within max_depth
    # moves a column holds only the codes of its window: those whose position
    # lies within max_depth of its root's.  Tables cover the windows alone.
    order = sorted(range(len(vecs)), key=position.__getitem__)
    ends = [position[k] for k in order]
    windows = [order[bisect_left(ends, p - max_depth):bisect_right(ends, p + max_depth)]
               for p in (position[k] for k in root_codes)]
    index = [{k: i for i, k in enumerate(window)} for window in windows]
    # Per column and window entry: the fewest removals and the fewest
    # additions the column needs on its own to believe its target.
    needs = [[moves_needed(position[k], believe[k], t, g) for k in window]
             for window, t in zip(windows, targets)]
    # Per column: the highest position believing its target, and the removals
    # it needs from the top position.
    facts = [saturation_facts(t, g) for t in targets]
    roots = [(position[k], believe[k]) for k in root_codes]
    bound = lower_bound(g, roots, targets)
    kind = CLOSEST if bound else EXACT  # what a state at the bound is

    # A search state is one int: column c's index into its window sits in
    # `bits` bits at offset bits * c.  Above them sit the sums of the columns'
    # removals and additions, each in `width` bits under a guard bit that
    # stays 0, then 2**span plus the total position P less sum hi(t), and on
    # top the quality distance, so states order by distance first.
    bits = (max(map(len, windows), default=1) - 1).bit_length()
    mask = (1 << bits) - 1
    shifts = [bits * c for c in range(n)]
    low = bits * n
    width = max(sum(max(need[j] for need in col) for col in needs) for j in (0, 1)).bit_length()
    full, field = (1 << width) - 1, width + 1
    span = (n * g * (g - 1)).bit_length()  # 2**span exceeds P and sum hi(t)
    total = low + 2 * field
    top = total + span + 1
    spread = (1 << low) + (1 << low + field)  # each sum's lowest bit
    guards = spread << width
    # A column adds p - hi(t) to the position field; the sums are exact,
    # though one column's share may be negative.
    packed = [[(i << sh) + (r << low) + (a << low + field) + (position[k] - hi << total)
               + (abs(believe[k] - t) << top) for i, (k, (r, a)) in enumerate(zip(window, col))]
              for sh, window, col, t, (hi, _) in zip(shifts, windows, needs, targets, facts)]
    root = sum(col[at[k]] for col, at, k in zip(packed, index, root_codes)) + (1 << total + span)
    if root >> top == bound:
        return PlanOutcome((), kind, initial, bound, 0)
    # Per column and window entry, what one removal or addition there adds to
    # a state.  No expanded state steps out of its window, so such a step
    # reads as saturated; a removal where the column is believed empty is
    # None, as poss forbids it.
    rem = [[col[at.get(automaton.removal[k], i)] - col[i] if believe[k] else None
            for i, k in enumerate(window)] for window, at, col in zip(windows, index, packed)]
    add = [[col[at.get(automaton.addition[k], i)] - col[i] for i, k in enumerate(window)]
           for window, at, col in zip(windows, index, packed)]
    others = [[d for d in range(n) if d != s] for s in range(n)]
    # tries[s1 * n + d1][s]: the destinations that source s tries in a state
    # found by the move (s1, d1), built when such a state is first expanded;
    # the root, found by none, sits last and tries every move.  A move (s, d)
    # before (s1, d1) commutes with it unless s == d1 or d == s1, so a source
    # below s1, d1 aside, tries only s1, and s1 itself the destinations from
    # d1 on.  The one-destination lists are shared.
    single = [[d] for d in range(n)]
    tries: list[list[list[int]] | None] = [None] * (n * n) + [others]

    def row_of(move: int) -> list[list[int]]:
        s1, d1 = divmod(move, n)
        row = tries[move] = ([others[s] if s == d1 else single[s1] for s in range(s1)]
                             + [others[s1][d1 - (d1 > s1):]] + others[s1 + 1:])
        return row

    slack = bound * (g + 1)  # at least h of any state at the bound
    # An Exact search prunes by the saturation law, which exceeds the larger
    # sum only where P >= sum hi(t), that is where this bit of a state is set.
    saturated = 0 if bound else 1 << total + span

    # Per column and window entry, its share of the saturation law's test:
    # with room F = hi - p + R, D - R, 2D + F - R and R + F.  Built on the
    # first call of beyond, which most searches never make.
    shares: list[list[tuple[int, int, int]]] = []
    below = (1 << span) - 1

    def beyond(state: int, left: int) -> bool:
        """Whether the saturation law puts the goal more than ``left`` moves
        from a state whose saturated bit is set and whose R does not exceed
        ``left``.

        Every removal lowers the total position P by one, and every addition
        raises it by one unless it saturates, into a column at the top
        position T.  With sums R, A and F over the columns of the fewest
        removals, the fewest additions and the room ``F_c = hi - p + R_c``
        (:func:`qbplan.certificate.saturation_facts`), ``F - R = H - P`` for
        ``H = sum hi``.  Either no saturated addition is left, so P stays
        put and must already be at most H, that is ``F >= R``: then each of
        column c's R_c removals lands in another column, whose room is
        ``F - F_c``, and each beyond it costs one more removal (case A:
        ``R + max(0, max(R_c + F_c) - F)``).  Or some column r takes the last
        saturated addition: it sits at T then and still needs ``D_r``
        removals, and every later addition is non-saturated, so the other
        columns must take its ``D_r`` into their room (case B:
        ``R + min over r of (D_r - R_r) + max(0, D_r + F_r - F)``).  The law
        is the larger of A and the lesser case, never above the moves left,
        and lowered by at most one per move.  Without case A's pairing term
        it stays admissible but can drop by more than one on a move.  A
        column above its target has ``F <= 1``, so where ``F > R`` case A is
        R, and case B is no less: the law is then ``max(R, A)``.

        So with ``spare = left - R``, the law exceeds ``left`` on a state with
        ``A <= left`` iff every column refuses.  Column c admits the state
        where ``D - R_c <= spare`` and ``2D + F_c - R_c <= spare + F``; where
        F = R, so does every column having ``R_c + F_c <= spare + F``."""
        if not shares:
            shares.extend([(d - r, 2 * d + hi - position[k], hi - position[k] + 2 * r)
                           for k, (r, _) in zip(window, col)]
                          for window, col, (hi, d) in zip(windows, needs, facts))
        cap = left - (state >> total & below)  # spare + F, as F - R = sum hi - P
        spare, paired = left - (state >> low & full), cap == left
        for col, sh in zip(shares, shifts):
            shed, need, own = col[state >> sh & mask]
            if shed <= spare and need <= cap:
                return False
            paired = paired and own <= cap
        return not paired

    def decode(state: int) -> BeliefState:
        return BeliefState(initial.scale, tuple(vecs[window[(state >> sh) & mask]]
                                                for window, sh in zip(windows, shifts)))

    def search(limit: int | None, done: int) -> tuple[PlanOutcome, int]:
        """One breadth-first pass, after ``done`` expansions in earlier ones.
        With a ``limit``, the pass walks that many levels at most, and a
        child at depth d is dropped where d + h exceeds the limit; without
        one, nothing is.  Returns the outcome and the number of states the
        pass held."""
        # The visited set and the plans in one map: each state held points to
        # the state it was reached from, the root to None.
        seen: dict[int, int | None] = {root: None}

        def step(parent: int, child: int) -> Action:
            """The first move, in the pass's order, from ``parent`` to ``child``,
            which is the one that found it: the guard depends only on the child
            and its depth, and a later move finds the child already held."""
            here = [(parent >> sh) & mask for sh in shifts]
            return next(Action(s + 1, d + 1) for s, k in enumerate(here) if rem[s][k] is not None
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
        best, best_end = root, root >> top << top  # states below best_end are closer
        # The states at depth `depth`, and for each the move that found it.
        frontier, moves, expanded = [root], [n * n], 0
        for depth in range(max_depth if limit is None else min(limit, max_depth)):
            if not frontier:  # exhausted; max_depth may lie far past the last level
                break
            # Added to a child at depth + 1, pad sets a guard bit iff the
            # larger of the child's sums exceeds what the limit leaves it.
            # An Exact pass checks a child with the saturated bit set too.
            pad = 0 if limit is None else (full - min(limit + slack - depth - 1, full)) * spread
            checks, left = (guards, 0) if limit is None else (guards | saturated, limit - depth - 1)
            reached, reached_moves = [], []
            for state, move in zip(frontier, moves):
                if len(seen) > max_states:
                    return outcome(best, CLOSEST)
                expanded += 1
                row = tries[move] or row_of(move)
                here = [(state >> sh) & mask for sh in shifts]
                adds = [col[k] for col, k in zip(add, here)]
                for s, k in enumerate(here):
                    if (r := rem[s][k]) is None:  # poss: source believed empty
                        continue
                    base, first = state + r, s * n
                    for d in row[s]:
                        child = base + adds[d]
                        if child in seen or (over := (child + pad) & checks) and (
                                over & guards or beyond(child, left)):
                            continue
                        seen[child] = state
                        reached.append(child)
                        reached_moves.append(first + d)
                        if child < best_end:
                            if child < bound_end:  # nothing reachable is closer
                                return outcome(child, kind)
                            best, best_end = child, child >> top << top
            frontier, moves = reached, reached_moves
        return outcome(best, CLOSEST)

    # h(root): the larger sum, raised on a saturated Exact root while beyond
    # refuses it (h >= max(R, A) meets beyond's R <= left).
    h = max(root >> low & full, root >> low + field & full)
    while root & saturated and h <= max_depth and beyond(root, h):
        h += 1
    # Passes at raised limits from h(root) - slack come first, while each
    # holds at least twice the states of the one before.
    done, limit, held = 0, max(1, h - slack), 0
    while limit <= max_depth:
        found, reached = search(limit, done)
        if found.distance == bound:
            return found
        done = found.expanded
        if reached > max_states or reached < 2 * held:
            break
        limit, held = limit + 1, reached
    return search(None, done)[0]
