"""Planning in belief space with deterministic tie-breaking.

States are deduplicated on the full belief value (all degrees plus main
beliefs), packed into one int of per-column indices into the automaton
codes each column reaches within ``max_depth`` moves.  Successors
enumerate actions in ascending (src, dst) order, and the search returns the
shortest plan and, among shortest, the lexicographically least action
sequence.  When no goal state exists within the limits, the closest
visited state wins, ordered by (quality distance, plan length,
lexicographic actions).

Before searching, a conservation certificate bounds the reachable quality
distance from below by B (see :mod:`qbplan.certificate`).  B = 0 allows a
plan to the goal; a positive B rules one out.  Either way the search stops
as soon as it generates a state at distance B: no later state can be
closer, so the answer is the one an exhaustive search would give, found
sooner.

Depth-first passes pruned by a bound h on the moves left come first.  Each
column needs at least so many removals and so many additions to believe
its target (:func:`qbplan.certificate.moves_needed`), and every move is one
removal and one addition, so the larger of the two sums over the columns
never exceeds the moves left to the goal, and one move lowers it by at most
one.  Toward the goal (B = 0), h adds the saturation law, a yes/no test
against the moves left (``beyond`` in :func:`plan`): an addition into a
column at the top position changes nothing, so where the total position is
at least what the targets allow, the removals it forces count too.  The two
sums and that position excess ride in the packed state, in three fields of
one width: h is the larger sum where the excess is negative, and elsewhere
a child is tested against the moves the limit leaves it one column at a
time, up to the first column that admits it.  h stays admissible and
consistent.  A column at quality distance k from its target needs at most
k * g + 1 moves of either kind, so a state at distance B > 0 has the larger
sum at most C = B * (g + 1), and h, that sum less C, never exceeds the
moves left to a state at distance B.

A pass at limit L walks from the root depth first, with its own stack,
trying moves in that order.  It drops a child at depth d where d + h > L,
where the child is on the pass's line (the states from the root to the one
it expands), or where ``failed`` holds at least the L - d moves the child
has left.  ``failed``, which the search keeps across its passes, maps each
state to the most moves left with which a walk from it has failed to reach
distance B.  The first child generated at distance B is the answer.  The
limit starts at max(1, h(root) - C) and rises by one, so the pass that
answers has L equal to the shortest plan's length.  Up to that pass, a walk
that fails from a state proves that no plan of the moves it had left starts
there: one through a state of the line would give the root a plan shorter
than L.  So no entry of ``failed`` cuts the lexicographically least
shortest plan, and every plan the walk tries before it fails.

A pass counts the root and each child it admits, those at the limit too,
which enter ``failed`` at once, much as the full search counts the states
it holds.  Passes go on while each leaves at least twice the entries of
``failed`` of the one before, and ``failed`` holds at most ``max_states``.
Otherwise (the passes stop doubling, a pass's count passes ``max_states``,
or the limit would pass ``max_depth``) ``failed`` is freed and the full
breadth-first search runs, unpruned.  A pass cut short by the cap always
hands over to it: a walk at a longer limit could answer with a longer plan.
The full search keeps one dict from each state it holds to the state it
was reached from, the visited set and the plans at once.  ``expanded``
sums all passes and the full search; only the one that answers reads back
a plan, Exact at distance 0 and Closest above it.

Every pass, the full search too, skips the moves that cannot find a new
state.  A state found by move a = (s1, d1) tries a move b = (s, d) that
comes before a only where the two do not commute (s = d1 or d = s1):
otherwise the child it gives is reached first, at the same depth, by the
lexicographically earlier path that makes b before a.  The full search
holds it already; a walk has tried it, or ruled out the state between.
``children`` works the rule out from a on each expansion, with no table of
rows, and the plan is read back through it too.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
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
    the work and the memory.  A pass counts the root and each child it
    admits, checks the count once per expansion and stops once it passes
    the cap (overshoot at most n(n-1)); the passes also end once ``failed``
    holds more entries.  The full search checks the states it holds in the
    same way.  Memory follows the states held, n codes each (``failed``
    holds at most about twice the cap), and one expansion can add n(n-1) of
    them before the cap is checked (domain files and ``experiment`` allow
    n <= 64); the tables built before it cover at most 2 * max_depth + 1
    positions a column.  A pass that reaches a state at the certified
    distance within the cap answers with it (Exact at the goal, Closest
    above it), even where the full search would have been cut short by it.
    A search cut short returns the closest state the full search generated
    so far (by distance, then plan length, then lexicographic actions) with
    kind Closest."""

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
    if not all(0 <= q.index < g for q in goal.targets):
        raise ValueError("goal qualities outside the initial state's scale")

    automaton = column_automaton(g)
    vecs, position, believe = automaton.beliefs, automaton.position, automaton.believe
    root_codes = [automaton.code(cb) for cb in initial.columns]
    targets = [q.index for q in goal.targets]
    max_depth, max_states = cfg.max_depth, cfg.max_states
    # Within max_depth moves a column holds only the codes of its window,
    # whose positions lie within max_depth of its root's (a move shifts one by
    # at most one).  Codes run in position order, so a window is a code range,
    # with code k at k - window.start; tables cover the windows alone.
    windows = [range(bisect_left(position, p - max_depth), bisect_right(position, p + max_depth))
               for p in (position[k] for k in root_codes)]
    # Per column and window entry: the fewest removals and the fewest
    # additions the column needs on its own to believe its target.
    needs = [[moves_needed(position[k], believe[k], t, g) for k in window]
             for window, t in zip(windows, targets)]
    # Per column: the highest position believing its target, and the removals
    # it needs from the top position.
    facts = [saturation_facts(t, g) for t in targets]
    roots = [(position[k], believe[k]) for k in root_codes]
    bound = lower_bound(g, roots, targets)

    # A search state is one int: column c's index into its window sits in
    # `bits` bits at offset bits * c.  Above them sit three fields of span + 1
    # bits (each sum, P and sum hi(t) is at most n * g * (g - 1) < 2**span):
    # the removal and addition sums, each under a guard bit that stays 0, then
    # 2**span + P - sum hi(t).  The distance on top orders states by it first.
    bits = (max(map(len, windows), default=1) - 1).bit_length()
    mask = (1 << bits) - 1
    shifts = [bits * c for c in range(n)]
    low = bits * n
    span = (n * g * (g - 1)).bit_length()
    full, field = (1 << span) - 1, span + 1
    total = low + 2 * field
    top = total + field
    spread = (1 << low) + (1 << low + field)  # each sum's lowest bit
    guards = spread << span
    # A column adds p - hi(t) to the position field; the sums are exact,
    # though one column's share may be negative.
    packed = [[(i << sh) + (r << low) + (a << low + field) + (position[k] - hi << total)
               + (abs(believe[k] - t) << top) for i, (k, (r, a)) in enumerate(zip(window, col))]
              for sh, window, col, t, (hi, _) in zip(shifts, windows, needs, targets, facts)]
    root = sum(col[k - window.start] for col, window, k in zip(packed, windows, root_codes)) \
        + (1 << total + span)

    def answer(path: list[int], expanded: int) -> PlanOutcome:
        """The outcome at the end of ``path``, the states from the root on,
        Exact at distance 0, else Closest.  The plan is read back along the
        path through ``children``: each move is the first, in (src, dst)
        order, from one state to the next.  The drop tests read only the
        child, its depth and tables that stay put while one state's children
        are generated, so that is the move the search made."""
        moves = [next(found for child, found in children(parent, -1) if child == state)
                 for parent, state in zip(path, path[1:])]
        final = path[-1]
        columns = tuple(vecs[window[(final >> sh) & mask]] for window, sh in zip(windows, shifts))
        dist = final >> top
        return PlanOutcome(tuple(Action(m // n + 1, m % n + 1) for m in moves),
                           CLOSEST if dist else EXACT, BeliefState(initial.scale, columns),
                           dist, expanded)

    if root >> top == bound:
        return answer([root], 0)
    # Per column and window entry, what one removal or addition there adds to
    # a state: None for a removal poss forbids (believed empty), and 0, as if
    # saturated, for a step out of the window, which no expanded state takes:
    # below its start for a removal's code, past its end for an addition's.
    rem = [[(col[j] - col[i] if (j := automaton.removal[k] - window.start) >= 0 else 0)
            if believe[k] else None for i, k in enumerate(window)]
           for window, col in zip(windows, packed)]
    add = [[col[j] - col[i] if (j := automaton.addition[k] - window.start) < len(col) else 0
            for i, k in enumerate(window)] for window, col in zip(windows, packed)]
    others = [[d for d in range(n) if d != s] for s in range(n)]

    slack = bound * (g + 1)  # at least h of any state at the bound
    # An Exact search prunes by the saturation law, which exceeds the larger
    # sum only where P >= sum hi(t), that is where this bit of a state is set.
    saturated = 0 if bound else 1 << total + span
    checks = guards | saturated

    # Per column and window entry, its share of the saturation law's test:
    # with room F = hi - p + R, D - R, 2D + F - R and R + F.  No move raises
    # the total position P, so where the root's P is below sum hi(t) no state
    # has its saturated bit set and beyond is never called; where the root's
    # is set, h(root) calls it at once.
    shares = [[(d - r, 2 * d + hi - position[k], hi - position[k] + 2 * r)
               for k, (r, _) in zip(window, col)]
              for window, col, (hi, d) in zip(windows, needs, facts)] if root & saturated else []

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
        cap = left - (state >> total & full)  # spare + F, as F - R = sum hi - P
        spare, paired = left - (state >> low & full), cap == left
        for col, sh in zip(shares, shifts):
            shed, need, own = col[state >> sh & mask]
            if shed <= spare and need <= cap:
                return False
            paired = paired and own <= cap
        return not paired

    # failed[state]: the most moves left with which the walk from that state
    # has failed to reach the bound, kept across the passes of this search.
    # A state on the walk's line maps to on_line, more than any moves left,
    # so that one lookup skips both.
    failed: dict[int, int] = {}
    on_line = max_depth + 1
    bound_end = (bound + 1) << top  # states below this are at the bound

    def children(state: int, move: int) -> Iterator[tuple[int, int]]:
        """The children of ``state`` that poss allows, in ascending (src, dst)
        order, each with its move s * n + d, less the moves that commute with
        ``move``, the one that found ``state`` (-1 at the root, which comes
        before every move).  A move (s, d) before (s1, d1) commutes with it
        unless s == d1 or d == s1: so a source after s1, or d1, tries every
        destination, s1 itself those from d1 on, and any other only s1."""
        s1, d1 = divmod(move, n)
        here = [(state >> sh) & mask for sh in shifts]
        adds = [col[k] for col, k in zip(add, here)]
        for s, k in enumerate(here):
            if (r := rem[s][k]) is not None:  # poss: source believed empty
                base, first = state + r, s * n
                for d in (others[s] if s > s1 or s == d1 else (s1,) if s < s1
                          else others[s][d1 - (d1 > s):]):
                    yield base + adds[d], first + d

    def walk(limit: int) -> tuple[list[int] | None, int]:
        """One depth-first pass at ``limit``.  A child at depth d is dropped
        where d + h exceeds the limit, where it is on the line, or where
        ``failed`` holds at least the moves the limit leaves it.  Returns the
        line from the root to the first state generated at the bound ([] if
        the pass fails, None if it stops at ``max_states``) and the
        expansions.  The cap counts the root and each child admitted, as the
        full search counts the states it holds."""
        line: list[int] = []
        # todo[d]: the admitted children at depth d still to walk, last first,
        # each with the move that found it.
        todo = [[(root, -1)]]
        expanded, admitted = 0, 1
        while todo:
            level, left = todo[-1], limit - len(line)  # the moves left at depth len(line)
            if not level:  # every child has failed: so has the state above them
                todo.pop()
                if line:
                    failed[line.pop()] = left + 1
                continue
            state, move = level.pop()
            if failed.get(state, -1) >= left:  # walked as a sibling found by an earlier move
                continue
            if admitted > max_states:
                return None, expanded
            expanded += 1
            left -= 1
            # Added to a child, pad sets a guard bit iff the larger of its sums
            # exceeds what the limit leaves it.  An Exact pass checks a child
            # with the saturated bit set too.
            pad = (full - min(left + slack, full)) * spread
            kids = []
            for child, found in children(state, move):
                if child < bound_end:  # no guard, beyond or failed entry drops it
                    return line + [state, child], expanded
                if (over := (child + pad) & checks) & guards or failed.get(child, -1) >= left \
                        or over and beyond(child, left):
                    continue
                kids.append((child, found))
            # Children at the limit count too, as the full search would hold
            # them, and enter failed at once: only the bound test above could
            # use them.
            admitted += len(kids)
            if left:
                failed[state] = on_line
                line.append(state)
                kids.reverse()
                todo.append(kids)
            else:
                failed[state] = 1
                for child, _ in kids:
                    failed[child] = 0
        return [], expanded

    def search() -> tuple[int, dict[int, int | None], int]:
        """The full breadth-first search, at most ``max_depth`` levels, that
        nothing prunes.  Returns the first state generated at the bound, or
        else the closest held; ``seen``, the visited set and the plans in one
        map from each state held to the state it was reached from (the root
        to None); and the expansions."""
        seen: dict[int, int | None] = {root: None}
        best, best_end = root, root >> top << top  # states below best_end are closer
        # The states at depth `depth`, and for each the move that found it.
        frontier, moves, expanded = [root], [-1], 0
        for _ in range(max_depth):
            if not frontier:  # exhausted; max_depth may lie far past the last level
                break
            reached, reached_moves = [], []
            for state, move in zip(frontier, moves):
                if len(seen) > max_states:
                    return best, seen, expanded
                expanded += 1
                for child, found in children(state, move):
                    if child in seen:
                        continue
                    seen[child] = state
                    reached.append(child)
                    reached_moves.append(found)
                    if child < best_end:
                        if child < bound_end:  # nothing reachable is closer
                            return child, seen, expanded
                        best, best_end = child, child >> top << top
            frontier, moves = reached, reached_moves
        return best, seen, expanded

    # h(root): the larger sum, raised on a saturated Exact root while beyond
    # refuses it (h >= max(R, A) meets beyond's R <= left).
    h = max(root >> low & full, root >> low + field & full)
    while root & saturated and h <= max_depth and beyond(root, h):
        h += 1
    # Passes at raised limits from h(root) - slack come first, while each
    # leaves at least twice the failed entries of the one before.
    done = held = 0
    for limit in range(max(1, h - slack), max_depth + 1):
        line, expanded = walk(limit)
        done += expanded
        if line:
            return answer(line, done)
        before, held = held, len(failed)
        if line is None or held > max_states or held < 2 * before:
            break
    failed.clear()  # freed before the full search
    state, seen, expanded = search()
    path = [state]
    while (state := seen[state]) is not None:
        path.append(state)
    return answer(path[::-1], done + expanded)
