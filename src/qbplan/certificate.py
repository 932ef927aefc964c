"""Conservation certificate: a lower bound on the quality distance any
state reachable from a root can have, and on the moves a plan still needs.

It reads each column's facts off the column's position and main belief, as
closed forms of :class:`qbplan.beliefs.ColumnAutomaton`'s walk, and tests a
final belief assignment by one inequality at the last upward switch.
"""

from __future__ import annotations


def _up(b: int, g: int) -> int:
    """The least position right after a switch up into believe b >= 1."""
    return (b - 1) * g + g // 2 + 1


def column_facts(p: int, g: int):
    """What one column at position ``p`` can do on its own at granularity g
    (removal only where its believe is nonzero, as ``poss`` asks; addition
    anywhere).

    Returns ``lo[b]``, the least reachable position believing b (``lo[0]``
    is the column's floor, its least reachable position), and ``up[b]``,
    the least position right after a switch up into b.  With
    ``i, r = divmod(p, g)``: removals stop once believe reaches 0, at
    ``(g - 1) // 2``; believe b >= 1 holds down to ``i = b - 1, 2r >= g``
    (a tie keeps it) and is entered from below at ``2r > g``.  So ``lo`` is
    nondecreasing in b, and ``up[b] > lo[b]``.
    """
    lo = {0: min(p, (g - 1) // 2)} | {b: (b - 1) * g + (g + 1) // 2 for b in range(1, g)}
    return lo, {b: _up(b, g) for b in range(1, g)}


def moves_needed(p: int, believe: int, target: int, g: int) -> tuple[int, int]:
    """The fewest removals and the fewest additions that take one column at
    position ``p`` believing ``believe`` to believing ``target``.

    Down, a column first believes t at ``dn(t) = t * g + (g - 1) // 2``, and
    up at ``up(t)``; going one way needs no step the other way.  Every move
    is one removal and one addition, so over all columns
    ``max(sum removals, sum additions)`` never exceeds the moves left, and
    one move lowers either sum by at most one.
    """
    if target < believe:
        return p - (target * g + (g - 1) // 2), 0
    if target > believe:
        return 0, _up(target, g) - p
    return 0, 0


def lower_bound(g: int, roots, targets) -> int:
    """The least quality distance a reachable state could have by the
    conservation argument.  ``roots`` holds each column's (position,
    believe) at the root, ``targets`` each column's goal belief.

    A column's position is ``p = sum(i * numerators[i])``.  A move lowers the
    source's p by one and raises the destination's by one unless it is
    saturated, so the total P never exceeds its start P0, and only the
    destination can switch up.  If no column ever switches up, each ends at
    or below its root belief, where ``lo <= p``: the least distance there is
    ``sum max(0, t - b_root)``, at most the root's own.  Otherwise take the
    last upward switch, by column r into some b' >= b_r (its final belief).
    Every other column only switches down after it, so it then sits at
    ``lo(b_c)`` or above, and ``up(max(b_r, 1)) + sum over c != r of lo(b_c)
    <= P0``.  That implies the final ``sum lo <= P0``.  The bound is the
    least distance over both cases.
    """
    budget = sum(p for p, _ in roots)
    limit = sum(max(0, t - b) for (_, b), t in zip(roots, targets))
    lows = [column_facts(p, g)[0] for p, _ in roots]
    # Charged up(b_r) in place of lo(b_r), a riser ending at b_r >= 1 adds
    # 1 - g % 2, whichever column it is, and one ending at 0 adds more.  Some
    # column ends above 0 unless all end at 0, at distance sum(t) >= ``limit``,
    # so the riser adds 1 - g % 2.
    excess = sum(lo[t] for lo, t in zip(lows, targets)) + 1 - g % 2 - budget
    # Each unit of distance lowers one final belief b by one.  From b >= 2
    # that lowers lo(b) by exactly g, and there are ``steps`` such; from 1 to
    # 0 it lowers lo by lo(1) - lo(0) <= g.  So the fewest that clear the
    # excess are g-steps first, then the largest last drops.
    steps = sum(max(0, t - 1) for t in targets)
    if excess <= steps * g:
        return min(limit, max(0, -(-excess // g)))
    excess -= steps * g
    drops = sorted((lo[1] - lo[0] for lo, t in zip(lows, targets) if t), reverse=True)
    for taken, drop in enumerate(drops, steps + 1):
        excess -= drop
        if excess <= 0:
            return min(limit, taken)
    return limit
