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
at the first state it reaches at distance B: no later state can be closer,
so the answer is the one an exhaustive search would give, found sooner.

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
consistent.  Toward a distance B > 0, h is h_B
(:func:`qbplan.certificate.budget_moves`): a state at distance at most B
gives each column a share of B, and the column needs only the moves toward
the nearest belief within its share of its target.  h_B is the larger of
the least removal sum and the least addition sum over the shares, a closed
form over two facts of each column kept with its tables.  A state at
distance B fixes one share, so h_B never exceeds the moves left to it; for
a fixed share a move lowers each sum by at most one, so h_B is consistent;
at B = 0 it is the larger sum.  It never exceeds the larger sum, so a pass
computes it only for a child whose larger sum exceeds the moves left.

A pass at limit L walks from the root depth first, trying moves in that
order.  Its stack holds one generator of children a depth, which drops a
child at depth d where d + h > L, and it takes each child only when it
reaches it: a state at distance B is the answer; one on the pass's line
(the states from the root to the one it expands), or one where ``failed``
holds at least the L - d moves it has left, is skipped; any other is
counted, and expanded unless at the limit.  ``failed``, which the search
keeps across its passes, maps each state to the most moves left with which
a walk from it has failed to reach distance B.  The limit starts at
max(1, h(root)) and rises by one, so the pass that answers has L equal
to the shortest plan's length, and meets distance B first at depth L,
where every sibling is at the limit: the first state taken at distance B
is the first one generated.  Up to that pass, a walk that fails from a
state proves that no plan of the moves it had left starts there: one
through a state of the line would give the root a plan shorter than L.  So
no entry of ``failed`` cuts the lexicographically least shortest plan, and
every plan the walk tries before it fails.

A pass checks its count before each expansion, so the count bounds its
expansions; the children it skips or never reaches count for nothing.
Passes go on while each leaves at least twice the entries of ``failed`` of
the one before, and ``failed`` holds at most ``max_states``.  Otherwise
(the passes stop doubling, a pass's count passes ``max_states``, or the
limit would pass ``max_depth``) ``failed`` is freed and the full
breadth-first search runs, unpruned.  A pass cut short by the cap always
hands over to it: a walk at a longer limit could answer with a longer plan.
The full search keeps one dict from each state it holds to the state it
was reached from, the visited set and the plans at once.  ``expanded`` sums
all passes and the full search; the one that answers gives the plan, Exact
at distance 0 and Closest above it.  A plan is the moves its search took,
as a situation is the actions that lead to it from S0.  A pass's line holds
each state with the move that found it.  The full search follows each
state's parent back to the root and, for each step, takes the first move
in (src, dst) order from the parent that gives the state.

Every pass, the full search too, skips the moves that cannot find a new
state.  A state found by move a = (s1, d1) tries a move b = (s, d) that
comes before a only where the two do not commute (s = d1 or d = s1):
otherwise the child it gives is reached first, at the same depth, by the
lexicographically earlier path that makes b before a.  The full search
holds it already; a walk has tried it, or ruled out the state between.
``children`` works the rule out from a on each expansion, with no table of
rows.  In a pass it also drops the children that h puts past the moves
left, and before pairing a move's halves, a source whose removal alone, or
a destination whose addition alone, takes its sum past them by more than
the slack B * (g + 1), the most a share of B saves: an addition never
lowers a column's fewest removals and a removal never lowers its fewest
additions.

Each column's tables, its share of a packed state, what one removal or
addition there adds to a state and its share of ``beyond``'s test, are
built once by ``_column_tables`` and shared by every later call that needs
the same column.  They are keyed by all they read: the granularity, the
column's target, its window of codes, its index's offset and where the
three fields start.  A least-recently-used cache holds at most
``qbdl.MAX_COLUMNS`` of them, as many columns as one maximal domain has.
Nothing of one problem (its root, bound, limits or outcome) is kept, and
the tables are tuples that no search changes, so a call reads the very
tables it would have built itself: its answer and ``expanded`` cannot
depend on the calls made before it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from .beliefs import (BeliefState, ColumnAutomaton, GoalSpec, NotPossibleError, column_automaton,
                      poss)
from .certificate import budget_moves, budget_unit, lower_bound, moves_needed, saturation_facts
from .qbdl import MAX_COLUMNS
from .sitcalc import Action

EXACT = "Exact"
CLOSEST = "Closest"


class LimitsError(Exception):
    """The search configuration cannot expand even the root state."""

    code = "E_LIMITS"


@dataclass(frozen=True)
class PlannerConfig:
    """Search limits.  ``max_depth`` bounds plan length; ``max_states`` bounds
    the work and the memory.  A pass counts the root and each state it
    takes, those at the limit too, less those on its line or failed before
    with the moves it has left, and stops before an expansion once the
    count passes the cap, so it expands at most ``max_states`` states; the
    passes also end once ``failed`` holds more entries.  The full search
    checks the states it holds before each expansion, which can add n(n-1)
    of them (domain files and ``experiment`` allow n <= 64).  Memory follows
    the states held, n codes each (``failed`` holds at most about twice the
    cap), as a pass's stack holds one generator of children a depth; the
    tables built before the search cover at most 2 * max_depth + 1
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
    return distance(state, goal) == 0


def distance(state: BeliefState, goal: GoalSpec) -> int:
    """Ordinal quality distance: sum over columns of |believe - goal| indices."""
    if len(goal.targets) != len(state.columns):
        raise ValueError("goal and state column sets differ")
    return sum(abs(cb.believe - q.index) for cb, q in zip(state.columns, goal.targets))


def simulate_beliefs(initial: BeliefState, plan: tuple[Action, ...]) -> list[BeliefState]:
    """Belief trace of replaying ``plan``; element 0 is ``initial``.

    The trace is the fold of :func:`qbplan.beliefs.apply_move`, stepped on
    automaton codes: a column's code is looked up the first time a move
    touches it, under the automaton of its own granularity, where
    ``apply_move`` would first look it up, and each move then indexes the
    removal and addition tables.  A column no move touches is never looked
    up, so a belief outside every automaton fails only once it is moved.
    """
    states = [initial]
    scale, columns = initial.scale, list(initial.columns)
    automata: list[ColumnAutomaton | None] = [None] * len(columns)
    codes = [0] * len(columns)

    def track(i: int) -> ColumnAutomaton:
        a = automata[i] = column_automaton(len(columns[i].numerators))
        codes[i] = a.code(columns[i])
        return a

    for step, action in enumerate(plan):
        if not poss(states[-1], action):
            raise NotPossibleError(action, step=step)
        s = action.src - 1
        a = automata[s] or track(s)
        codes[s] = k = a.removal[codes[s]]
        columns[s] = a.beliefs[k]
        d = action.dst - 1
        a = automata[d] or track(d)
        codes[d] = k = a.addition[codes[d]]
        columns[d] = a.beliefs[k]
        states.append(BeliefState(scale, tuple(columns)))
    return states


@lru_cache(maxsize=MAX_COLUMNS)
def _actions(n: int) -> tuple[Action | None, ...]:
    """Every move over ``n`` columns, shared by every ``plan`` call over as
    many: move s -> d (0-based) at index s * n + d, None where s == d."""
    return tuple(Action(s + 1, d + 1) if s != d else None for s in range(n) for d in range(n))


@lru_cache(maxsize=MAX_COLUMNS)
def _column_tables(g: int, target: int, start: int, stop: int, shift: int, low: int,
                   field: int) -> tuple[tuple[int, ...], tuple[int | None, ...], tuple[int, ...],
                                        tuple[tuple[int, int, int], ...],
                                        tuple[tuple[int, int] | None, ...],
                                        tuple[tuple[int, int] | None, ...]]:
    """One column's tables, shared by every ``plan`` call that asks for them:
    the column believes ``target`` of granularity ``g``, its window is the
    code range ``start..stop``, its index sits at bit ``shift`` and the
    layout's three fields of ``field`` bits start at bit ``low`` (see
    :func:`plan`).  They read nothing else, so no call can see another's.

    Per window entry: ``packed``, the column's share of a state; ``rem`` and
    ``add``, what one removal or one addition there adds to a state (None
    for a removal poss forbids, believed empty, and 0, as if saturated, for
    a step out of the window, which no expanded state takes: below its start
    for a removal's code, past its end for an addition's); ``shares``, its
    share of the saturation law's test in ``beyond``: with room ``F = hi - p
    + R``, D - R, 2D + F - R and R + F; and ``down`` and ``up``, its
    :func:`qbplan.certificate.budget_unit` facts for h_B's removal and
    addition sides, where it believes above and below its target (None
    elsewhere)."""
    automaton = column_automaton(g)
    position, believe = automaton.position, automaton.believe
    window = range(start, stop)
    total = low + 2 * field
    top = total + field
    # The fewest removals and the fewest additions the column needs on its own
    # to believe its target; the highest position believing it, and the
    # removals it needs from the top position.
    needs = [moves_needed(position[k], believe[k], target, g) for k in window]
    hi, d = saturation_facts(target, g)
    # A column adds p - hi(t) to the position field; the sums are exact,
    # though one column's share may be negative.
    packed = tuple((i << shift) + (r << low) + (a << low + field) + (position[k] - hi << total)
                   + (abs(believe[k] - target) << top)
                   for i, (k, (r, a)) in enumerate(zip(window, needs)))
    rem = tuple((packed[j] - packed[i] if (j := automaton.removal[k] - start) >= 0 else 0)
                if believe[k] else None for i, k in enumerate(window))
    add = tuple(packed[j] - packed[i] if (j := automaton.addition[k] - start) < len(packed) else 0
                for i, k in enumerate(window))
    shares = tuple((d - r, 2 * d + hi - position[k], hi - position[k] + 2 * r)
                   for k, (r, _) in zip(window, needs))
    down = tuple(budget_unit(position[k], believe[k], target, g) if believe[k] > target else None
                 for k in window)
    up = tuple(budget_unit(position[k], believe[k], target, g) if believe[k] < target else None
               for k in window)
    return packed, rem, add, shares, down, up


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
    rem_guard, add_guard = 1 << low + span, 1 << low + field + span
    guards = rem_guard | add_guard
    tables = [_column_tables(g, t, window.start, window.stop, sh, low, field)
              for t, window, sh in zip(targets, windows, shifts)]
    packed, rem, add, shares, down, up = zip(*tables) if tables else ((),) * 6
    root = sum(col[k - window.start] for col, window, k in zip(packed, windows, root_codes)) \
        + (1 << total + span)

    def answer(final: int, moves: list[int], expanded: int) -> PlanOutcome:
        """The outcome at ``final``, reached from the root by ``moves``, each
        s * n + d; Exact at distance 0, else Closest."""
        columns = tuple(vecs[window[(final >> sh) & mask]] for window, sh in zip(windows, shifts))
        dist = final >> top
        return PlanOutcome(tuple(map(_actions(n).__getitem__, moves)),
                           CLOSEST if dist else EXACT, BeliefState(initial.scale, columns), dist,
                           expanded)

    others = [[d for d in range(n) if d != s] for s in range(n)]

    # A share of the distance saves a column at most g + 1 moves a unit, so h_B
    # is at least the larger sum less this.
    slack = bound * (g + 1)
    # An Exact search prunes by the saturation law, which exceeds the larger
    # sum only where P >= sum hi(t), that is where this bit of a state is set.
    saturated = 0 if bound else 1 << total + span
    checks = guards | saturated

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

    def side(units: tuple[tuple[tuple[int, int] | None, ...], ...], state: int) -> int:
        """One side of h_B at a state (:func:`qbplan.certificate.budget_moves`),
        ``units`` its columns' ``down`` or ``up``; at most that side's sum."""
        return budget_moves([u for col, sh in zip(units, shifts) if (u := col[state >> sh & mask])],
                            bound, g)

    def past(state: int, left: int) -> bool:
        """Whether h_B puts the bound more than ``left`` moves from a state:
        a side whose sum exceeds ``left`` by more than the slack does, and
        only one whose sum exceeds ``left`` can."""
        removals, additions = (state >> low & full) - left, (state >> low + field & full) - left
        if removals > slack or additions > slack:
            return True
        return (additions > 0 and side(up, state) > left
                or removals > 0 and side(down, state) > left)

    # How a pass treats a child with a bit of `checks` set in child + pad: an
    # Exact pass drops it on a guard bit and else asks beyond; a Closest pass
    # asks h_B.
    drop, refuse = (0, past) if bound else (guards, beyond)

    # failed[state]: the most moves left with which the walk from that state
    # has failed to reach the bound, kept across the passes of this search.
    # A state on the walk's line maps to on_line, more than any moves left,
    # so that one lookup skips it and every state failed before.
    failed: dict[int, int] = {}
    on_line = max_depth + 1
    bound_end = (bound + 1) << top  # states below this are at the bound

    def children(state: int, move: int, left: int | None = None) -> Iterator[tuple[int, int]]:
        """The children of ``state`` that poss allows, in ascending (src, dst)
        order, each with its move s * n + d, less the moves that commute with
        ``move``, the one that found ``state`` (-1 at the root, which comes
        before every move).  A move (s, d) before (s1, d1) commutes with it
        unless s == d1 or d == s1: so a source after s1, or d1, tries every
        destination, s1 itself those from d1 on, and any other only s1.

        A pass gives ``left``, the moves its limit leaves each child, and gets
        only the children h puts within them: ``pad`` sets a guard bit of
        ``child + pad`` where the larger sum exceeds them, which drops the
        child in an Exact pass and has a Closest pass ask h_B, and an Exact
        pass asks ``beyond`` where the saturated bit is set.  A removal that
        alone sets the removal sum's guard bit of ``state + loose``, or an
        addition that alone sets the addition sum's, is dropped before
        pairing, where ``loose`` grants the slack too: an addition never
        lowers a column's fewest removals and a removal never lowers its
        fewest additions, so the whole move's sum exceeds the moves left by
        more than h_B can save."""
        s1, d1 = divmod(move, n)
        here = [(state >> sh) & mask for sh in shifts]
        if left is None:  # the full search, which drops no child
            pad = loose = test = 0
            adds = [col[k] for col, k in zip(add, here)]
        else:
            pad, test = (full - min(left, full)) * spread, checks
            loose = (full - min(left + slack, full)) * spread
            adds = [None if (state + loose + (a := col[k])) & add_guard else a
                    for col, k in zip(add, here)]
        padded = state + loose
        for s, k in enumerate(here):
            # poss: source believed empty
            if (r := rem[s][k]) is not None and not (padded + r) & rem_guard:
                base, first = state + r, s * n
                for d in (others[s] if s > s1 or s == d1 else (s1,) if s < s1
                          else others[s][d1 - (d1 > s):]):
                    if (a := adds[d]) is not None and not (test and (
                            (over := (base + a + pad) & test) & drop
                            or over and refuse(base + a, left))):
                        yield base + a, first + d

    def walk(limit: int) -> tuple[list[tuple[int, int]] | None, int]:
        """One depth-first pass at ``limit``, holding one generator of
        ``children`` a depth.  A state taken at the bound ends the pass; one
        on the line or failed before is skipped, uncounted; any other counts
        toward ``max_states`` and is expanded unless at the limit.  Returns
        the line from the root to the first state at the bound, each state
        with the move that found it ([] if the pass fails, None if it stops
        at ``max_states``), and the expansions."""
        line: list[tuple[int, int]] = []
        # todo[d]: the children of the state at depth d - 1 still to take (the
        # root alone at depth 0), each with the move that found it.
        todo = [iter([(root, -1)])]
        expanded = taken = 0
        while todo:
            left = limit - len(line)  # the moves left at depth len(line)
            if (kid := next(todo[-1], None)) is None:  # every child failed, so has its parent
                todo.pop()
                if line:
                    failed[line.pop()[0]] = left + 1
                continue
            state, move = kid
            if state < bound_end:  # no guard, beyond or failed entry drops it
                return line + [kid], expanded
            if failed.get(state, -1) >= left:  # on the line or failed before
                continue
            taken += 1
            if not left:  # at the limit
                continue
            if taken > max_states:
                return None, expanded
            expanded += 1
            failed[state] = on_line
            line.append(kid)
            todo.append(children(state, move, left - 1))
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

    # h(root): h_B, or the larger sum, raised on a saturated Exact root while
    # beyond refuses it (h >= max(R, A) meets beyond's R <= left).
    h = max(side(down, root), side(up, root)) if bound else max(root >> low & full,
                                                                 root >> low + field & full)
    while root & saturated and h <= max_depth and beyond(root, h):
        h += 1
    # Passes at raised limits from h(root) come first, while each leaves at
    # least twice the failed entries of the one before.
    done = held = 0
    for limit in range(max(1, h), max_depth + 1):
        line, expanded = walk(limit)
        done += expanded
        if line:
            return answer(line[-1][0], [move for _, move in line[1:]], done)
        before, held = held, len(failed)
        if line is None or held > max_states or held < 2 * before:
            break
    failed.clear()  # freed before the full search
    state, seen, expanded = search()
    path = [state]
    while (state := seen[state]) is not None:
        path.append(state)
    path.reverse()
    # At move -1 and with no `left`, children skips and prunes nothing, so the
    # first child that is the state comes with the least move between the two.
    moves = [next(m for child, m in children(parent, -1) if child == state)
             for parent, state in zip(path, path[1:])]
    return answer(path[-1], moves, done + expanded)
