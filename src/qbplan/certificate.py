"""Conservation certificate: a lower bound on the quality distance any
state reachable from a root can have.

It works on the codes of a :class:`qbplan.beliefs.ColumnAutomaton`: each
code's position, main belief and removal and addition successors.
"""

from __future__ import annotations


def _column_facts(root: int, automaton):
    """What one column can do on its own, over the codes it reaches from
    ``root`` (removal only where its believe is nonzero, as ``poss`` asks;
    addition anywhere).

    Returns the column's ``floor`` (least reachable position), ``lo[b]``
    (least reachable position believing b), ``up[b]`` (least position right
    after a switch up into b) and ``down`` (the beliefs a switch down enters).
    """
    pos, removal, addition, believe = (
        automaton.position, automaton.removal, automaton.addition, automaton.believe
    )
    lo: dict[int, int] = {}
    up: dict[int, int] = {}
    down: set[int] = set()
    seen, todo = {root}, [root]
    for k in todo:
        b = believe[k]
        lo[b] = min(lo.get(b, pos[k]), pos[k])
        for j in (removal[k], addition[k]) if b else (addition[k],):
            if believe[j] > b:
                up[believe[j]] = min(up.get(believe[j], pos[j]), pos[j])
            elif believe[j] < b:
                down.add(believe[j])
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return min(lo.values()), lo, up, down


def lower_bound(automaton, root_codes, targets, root_dist: int) -> int:
    """The least quality distance a reachable state could have by the
    conservation argument; at most ``root_dist``, the root's own distance.

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
    facts = {k: _column_facts(k, automaton) for k in set(root_codes)}
    budget = sum(automaton.position[k] for k in root_codes)
    # Per column, each final belief b: (b, lo(b), stay, rise).  ``stay`` is
    # how far below lo(b) the column may be when the riser switches, if it
    # can end at b without rising last; ``rise`` is the riser's overshoot
    # up(b) - lo(b), if it can rise into b.
    columns = []
    for k in root_codes:
        floor, lo, up, down = facts[k]
        columns.append([
            (b, low,
             low - floor if b in down else 0 if b == automaton.believe[k] else None,
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
