"""Conservation certificate: a lower bound on the quality distance any
state reachable from a root can have, and each column's share of the moves
a plan still needs.

It reads each column's facts off the column's position and main belief, as
closed forms of :class:`qbplan.beliefs.ColumnAutomaton`'s walk, and tests a
final belief assignment by one inequality at the last upward switch.  The
planner sums the shares and applies the saturation law to them (see
``beyond`` in :func:`qbplan.planner.plan`).
"""

from __future__ import annotations

from itertools import accumulate


def _up(b: int, g: int) -> int:
    """The least position right after a switch up into believe b >= 1."""
    return (b - 1) * g + g // 2 + 1


def _lo(b: int, p: int, g: int) -> int:
    """The least position believing b that a column at position ``p``
    reaches on its own (removal only where its believe is nonzero, as
    ``poss`` asks; addition anywhere).  With ``i, r = divmod(p, g)``:
    removals stop once believe reaches 0, at ``(g - 1) // 2``, so ``lo(0)``
    is the column's floor; believe b >= 1 holds down to ``i = b - 1,
    2r >= g`` (a tie keeps it).  So ``lo`` is nondecreasing in b, and
    ``up(b) > lo(b)``."""
    return (b - 1) * g + (g + 1) // 2 if b else min(p, (g - 1) // 2)


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


def saturation_facts(target: int, g: int) -> tuple[int, int]:
    """What the saturation law needs of a column's target t: ``hi(t)``, the
    highest position believing t, and D, the removals that take the top
    position ``T = g * (g - 1)`` (believing g - 1) to believing t.

    ``hi(t) = t * g + g // 2``, since above it an addition switches up, and
    ``hi(g - 1) = T``.  A column at p that makes r removals and a
    non-saturated additions ends at ``p - r + a <= hi(t)``, so
    ``r >= a - (hi - p)``: with its fewest removals R it has room for
    ``F = hi - p + R`` additions.
    """
    top = g * (g - 1)
    return top if target == g - 1 else target * g + g // 2, moves_needed(top, g - 1, target, g)[0]


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
    # Charged up(b_r) in place of lo(b_r), a riser ending at b_r >= 1 adds
    # 1 - g % 2, whichever column it is, and one ending at 0 adds more.  Some
    # column ends above 0 unless all end at 0, at distance sum(t) >= ``limit``,
    # so the riser adds 1 - g % 2.
    excess = sum(_lo(t, p, g) for (p, _), t in zip(roots, targets)) + 1 - g % 2 - budget
    if excess <= 0:  # the targets themselves pass, with no cut
        return 0
    limit = sum(max(0, t - b) for (_, b), t in zip(roots, targets))
    # Each unit of distance lowers one final belief b by one: a cut of lo(b).
    # From b >= 2 it cuts exactly g, t - 1 times on a column with target t,
    # and from 1 to 0 it cuts lo(1) - lo(0) <= g.  So the fewest cuts that
    # clear the excess are the largest.
    cuts = sorted([g] * sum(max(0, t - 1) for t in targets)
                  + [_lo(1, p, g) - _lo(0, p, g) for (p, _), t in zip(roots, targets) if t],
                  reverse=True)
    return min(limit, next((taken for taken, cleared in enumerate(accumulate(cuts, initial=0))
                            if cleared >= excess), limit))
