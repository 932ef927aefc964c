"""Conservation certificate: a lower bound on the quality distance any
state reachable from a root can have.

It reads each column's facts off the column's root position and main
belief, as closed forms of :class:`qbplan.beliefs.ColumnAutomaton`'s walk.
"""

from __future__ import annotations


def column_facts(p: int, g: int):
    """What one column at position ``p`` can do on its own at granularity g
    (removal only where its believe is nonzero, as ``poss`` asks; addition
    anywhere).

    Returns the column's ``floor`` (least reachable position), ``lo[b]``
    (least reachable position believing b), ``up[b]`` (least position right
    after a switch up into b) and ``down`` (the beliefs a switch down enters).
    With ``i, r = divmod(p, g)``: removals stop once believe reaches 0, at
    ``(g - 1) // 2``; believe b >= 1 holds down to ``i = b - 1, 2r >= g`` (a
    tie keeps it) and is entered from below at ``2r > g``; every belief but
    the top is entered from above.
    """
    floor = min(p, (g - 1) // 2)
    lo = {0: floor} | {b: (b - 1) * g + (g + 1) // 2 for b in range(1, g)}
    up = {b: (b - 1) * g + g // 2 + 1 for b in range(1, g)}
    return floor, lo, up, set(range(g - 1))


def lower_bound(g: int, roots, targets, root_dist: int) -> int:
    """The least quality distance a reachable state could have by the
    conservation argument; at most ``root_dist``, the root's own distance.
    ``roots`` holds each column's (position, believe) at the root.

    A column's position is ``p = sum(i * numerators[i])``.  A move lowers the
    source's p by one and raises the destination's by one unless it is
    saturated, so the total P never exceeds its start P0.  A column ending
    with belief b ends at p >= lo(b), so a final assignment needs
    ``sum lo <= P0``.  Ties keep the old belief, so the last column whose
    last switch is upward (the riser) sits at up(b) when it switches.  At
    that moment every column that rose earlier or never switched is at
    p >= lo(b), and every column whose last switch is downward is at least
    at its floor; that sum must fit in P0 too.  Each column's choice of last
    switch (up, down or none) is allowed only where its automaton makes it.
    """
    budget = sum(p for p, _ in roots)
    # Per column, each final belief b: (b, lo(b), stay, rise).  ``stay`` is
    # how far below lo(b) the column may be when the riser switches, if it
    # can end at b without rising last; ``rise`` is the riser's overshoot
    # up(b) - lo(b), if it can rise into b.
    columns = []
    for p, believe in roots:
        floor, lo, up, down = column_facts(p, g)
        columns.append([
            (b, low,
             low - floor if b in down else 0 if b == believe else None,
             up[b] - low if b in up else None)
            for b, low in lo.items()
        ])
    # The goal assignment alone first, in O(n); the full search only if it fails.
    return _knapsack(columns, targets, budget, 1) and _knapsack(columns, targets, budget, root_dist)


def _knapsack(columns, targets, budget: int, limit: int) -> int:
    """The least distance below ``limit`` of a final assignment that passes
    both tests of :func:`lower_bound`, else ``limit``.

    A knapsack over columns with budget P0.  Key: (phase, sum lo, distance);
    value: the most (sum stay - riser overshoot).  Phase 0: no column rose
    last; 1: some did but the riser is not chosen; 2: the riser is chosen.
    """
    states = {(0, 0, 0): 0}
    for options, target in zip(columns, targets):
        nxt: dict[tuple[int, int, int], int] = {}

        def keep(phase: int, total: int, dist: int, value: int) -> None:
            # sum lo - value only grows, and it must fit once a column rose.
            if phase and total - value > budget:
                return
            if nxt.get((phase, total, dist), value - 1) < value:
                nxt[phase, total, dist] = value

        for (phase, total, dist), value in states.items():
            for b, low, stay, rise in options:
                to_dist, to_total = dist + abs(b - target), total + low
                if to_dist >= limit or to_total > budget:
                    continue
                if stay is not None:
                    keep(phase, to_total, to_dist, value + stay)
                if rise is not None:
                    keep(max(phase, 1), to_total, to_dist, value)
                    if phase < 2:
                        keep(2, to_total, to_dist, value - rise)
        states = nxt
    return min((dist for phase, _, dist in states if phase != 1), default=limit)
