"""Quantized column-height beliefs and the causal laws that update them.

A column's belief is an exact vector of degrees over the qualities of a
scale, always summing to 1, with mass on at most two adjacent qualities.
Moving a block shifts 1/g of mass one quality down on the source column and
one quality up on the destination column (g = granularity).  The main
``believe`` quality switches only when the gaining quality's degree strictly
exceeds 1/2, so exact ties keep the previous main belief.

Over a column's position ``p = sum(i * numerators[i])`` the law is a
clamped walk, one step per block: :class:`ColumnAutomaton` writes it in that
closed form once per granularity, and every belief update reads its tables.

The values (:class:`Quality`, :class:`QualityScale`, :class:`ColumnBelief`,
:class:`BeliefState` and :class:`GoalSpec`) are named tuples, hashed and
compared in C: each compares and hashes as the tuple of its fields.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

    from .sitcalc import Action


class NotPossibleError(Exception):
    """A move whose source column is believed empty was requested."""

    def __init__(self, action: Action, step: int | None = None):
        self.action = action
        self.step = step
        where = f" at step {step}" if step is not None else ""
        super().__init__(
            f"move {action.src} {action.dst} not possible{where}: "
            "source column is believed empty"
        )


# A column automaton holds up to g * g beliefs of g numerators each, so g is capped.
MAX_GRANULARITY = 64


class Quality(NamedTuple):
    """A symbolic height category; index 0 is always the empty quality."""

    index: int
    name: str


# QualityScale's fields: a NamedTuple body may not define the ``__new__``
# that validates them, so the subclass below does.
class _QualityScale(NamedTuple):
    qualities: tuple[Quality, ...]
    bands: tuple[tuple[int, int], ...]


class QualityScale(_QualityScale):
    """Ordered qualities with contiguous block-count bands.

    ``bands[i]`` is the inclusive count interval denoted by ``qualities[i]``;
    bands ascend contiguously from 0.  The granularity g is the number of
    qualities, and every belief degree is a multiple of 1/g.
    """

    __slots__ = ()

    def __new__(cls, qualities: tuple[Quality, ...],
                bands: tuple[tuple[int, int], ...]) -> QualityScale:
        if len(qualities) < 2:
            raise ValueError("a scale needs at least two qualities")
        if len(bands) != len(qualities):
            raise ValueError("one band per quality required")
        names = [q.name for q in qualities]
        if len(set(names)) != len(names):
            raise ValueError("quality names must be unique")
        for i, q in enumerate(qualities):
            if q.index != i:
                raise ValueError("quality indices must be consecutive from 0")
        if bands[0][0] != 0:
            raise ValueError("the first band must start at 0")
        for i, (lo, hi) in enumerate(bands):
            if lo > hi:
                raise ValueError(f"band {qualities[i].name}: {lo} > {hi}")
            if i and lo != bands[i - 1][1] + 1:
                raise ValueError("bands must be contiguous and ascending")
        return super().__new__(cls, qualities, bands)

    @classmethod
    def _make(cls, iterable: Iterable) -> QualityScale:
        # ``_replace`` builds through ``_make``, which skips ``__new__`` in the base.
        return cls(*iterable)

    @property
    def granularity(self) -> int:
        return len(self.qualities)

    def quality(self, name: str) -> Quality:
        for q in self.qualities:
            if q.name == name:
                return q
        raise KeyError(name)

    def band(self, quality: Quality) -> tuple[int, int]:
        return self.bands[quality.index]


DEFAULT_SCALE = QualityScale(
    qualities=(
        Quality(0, "zero"),
        Quality(1, "small"),
        Quality(2, "medium"),
        Quality(3, "large"),
    ),
    bands=((0, 0), (1, 4), (5, 8), (9, 12)),
)


def uniform_scale(granularity: int) -> QualityScale:
    """A zero band plus ``granularity - 1`` bands of width ``granularity``.

    At granularity 4 this is exactly :data:`DEFAULT_SCALE`.
    """
    if not 2 <= granularity <= MAX_GRANULARITY:
        raise ValueError(f"granularity must be in 2..{MAX_GRANULARITY}")
    if granularity == 4:
        return DEFAULT_SCALE
    qualities = [Quality(0, "zero")]
    bands = [(0, 0)]
    for i in range(1, granularity):
        qualities.append(Quality(i, f"q{i}"))
        bands.append(((i - 1) * granularity + 1, i * granularity))
    return QualityScale(tuple(qualities), tuple(bands))


class ColumnBelief(NamedTuple):
    """Exact belief vector for one column.

    ``numerators[i]`` is the degree numerator of quality i over the scale's
    granularity; ``believe`` is the index of the main-belief quality.
    """

    numerators: tuple[int, ...]
    believe: int

    def degree(self, quality: Quality | int) -> Fraction:
        from fractions import Fraction

        i = quality.index if isinstance(quality, Quality) else quality
        return Fraction(self.numerators[i], len(self.numerators))

    def support(self) -> tuple[int, ...]:
        """Indices of the qualities holding any belief mass."""
        return tuple(i for i, k in enumerate(self.numerators) if k)


class BeliefState(NamedTuple):
    """The robot's view: one belief vector per column of the domain."""

    scale: QualityScale
    columns: tuple[ColumnBelief, ...]

    def believes(self) -> tuple[Quality, ...]:
        return tuple(self.scale.qualities[cb.believe] for cb in self.columns)


class GoalSpec(NamedTuple):
    """Target main-belief quality per column; constant across situations."""

    targets: tuple[Quality, ...]


def classify(count: int, scale: QualityScale) -> Quality:
    """The quality whose band contains ``count``; counts above the top band
    map to the top quality."""
    if count < 0:
        raise ValueError("block counts are non-negative")
    for q, (lo, hi) in zip(scale.qualities, scale.bands):
        if lo <= count <= hi:
            return q
    return scale.qualities[-1]


def observe(count: int, scale: QualityScale) -> ColumnBelief:
    """Pure belief from seeing a column: full degree on the classified quality
    q, the first code at position q * g (no tie sits there)."""
    a = column_automaton(scale.granularity)
    return a.beliefs[bisect_left(a.position, classify(count, scale).index * scale.granularity)]


def initial_beliefs(counts: Iterable[int], scale: QualityScale) -> BeliefState:
    return BeliefState(scale, tuple(observe(c, scale) for c in counts))


class ColumnAutomaton:
    """Every belief a column can hold at granularity g, under integer codes.

    A belief is its position ``p = sum(i * numerators[i])`` in
    ``0..g(g - 1)`` and its main belief.  With ``i, r = divmod(p, g)`` it
    holds g - r on quality i and r on quality i + 1, and believes
    ``i + (2r > g)``; at a tie (``2r == g``, even g only) it keeps whichever
    of i and i + 1 it believed before.  The causal law moves p one down per
    block taken and one up per block added, clamped to ``0..g(g - 1)``.

    Codes run in ``(position, believe)`` order: ``beliefs[k]`` is the belief
    with code k, ``position[k]`` its p, ascending, and ``believe[k]`` its
    main belief; ``removal[k]`` and ``addition[k]`` are the codes one block
    taken or added away, k itself where a step saturates.
    """

    def __init__(self, g: int):
        top = g * (g - 1)
        # (p, believe) per code, sorted: every position with its majority (the
        # lower quality at a tie), and each tie's upper right after its lower.
        keys = sorted([(p, p // g + (2 * (p % g) > g)) for p in range(top + 1)]
                      + [(i * g + g // 2, i + 1) for i in range(g - 1) if g % 2 == 0])

        def step(k: int, to: int) -> int:
            if not 0 <= to <= top:
                return k
            i, r = divmod(to, g)
            return bisect_left(keys, (to, keys[k][1] if 2 * r == g else i + (2 * r > g)))

        def numerators(p: int) -> tuple[int, ...]:
            i, r = divmod(p, g)
            return tuple(g - r if j == i else r if j == i + 1 else 0 for j in range(g))

        self.beliefs = tuple(ColumnBelief(numerators(p), b) for p, b in keys)
        self._codes = {cb: k for k, cb in enumerate(self.beliefs)}
        self.position = tuple(p for p, _ in keys)
        self.believe = tuple(b for _, b in keys)
        self.removal = tuple(step(k, p - 1) for k, p in enumerate(self.position))
        self.addition = tuple(step(k, p + 1) for k, p in enumerate(self.position))

    def code(self, cb: ColumnBelief) -> int:
        """The code of ``cb``; ``ValueError`` for a belief outside the automaton."""
        try:
            return self._codes[cb]
        except KeyError:
            raise ValueError(f"{cb} is not reachable from an observation") from None


# The moving (non-saturating) steps of every automaton built so far, by belief
# value: one table serves every granularity, as their beliefs never compare equal.
_REMOVED: dict[ColumnBelief, ColumnBelief] = {}
_ADDED: dict[ColumnBelief, ColumnBelief] = {}


@cache
def column_automaton(granularity: int) -> ColumnAutomaton:
    """The column automaton of ``granularity``, built on first use."""
    if not 2 <= granularity <= MAX_GRANULARITY:
        raise ValueError(f"granularity must be in 2..{MAX_GRANULARITY}")
    a = ColumnAutomaton(granularity)
    for moved, table in ((_REMOVED, a.removal), (_ADDED, a.addition)):
        moved.update((a.beliefs[k], a.beliefs[j]) for k, j in enumerate(table) if j != k)
    return a


def _unmoved(cb: ColumnBelief, moved: dict[ColumnBelief, ColumnBelief]) -> ColumnBelief:
    """``cb``'s step in ``moved`` once its automaton is built: ``cb`` itself
    where the step saturates, ``ValueError`` outside the automaton."""
    column_automaton(len(cb.numerators)).code(cb)
    return moved.get(cb, cb)


def apply_removal(cb: ColumnBelief) -> ColumnBelief:
    """Belief effect of taking one block: shift 1/g of mass one quality down.

    Saturates (no change) only when the whole mass already sits on the
    empty quality.
    """
    return _REMOVED.get(cb) or _unmoved(cb, _REMOVED)


def apply_addition(cb: ColumnBelief) -> ColumnBelief:
    """Mirror of :func:`apply_removal`: shift 1/g of mass one quality up."""
    return _ADDED.get(cb) or _unmoved(cb, _ADDED)


def poss(state: BeliefState, action: Action) -> bool:
    """A move is possible iff the source column is not believed empty.

    The destination is unconstrained; the test is purely belief-level, so a
    possible move may still fail physically.
    """
    n = len(state.columns)
    if not (1 <= action.src <= n and 1 <= action.dst <= n):
        raise ValueError(f"action {action} references an unknown column")
    return state.columns[action.src - 1].believe != 0


def apply_move(state: BeliefState, action: Action) -> BeliefState:
    """Belief successor state: removal on the source, addition on the
    destination, every other column untouched."""
    if not poss(state, action):
        raise NotPossibleError(action)
    cols = list(state.columns)
    cols[action.src - 1] = apply_removal(cols[action.src - 1])
    cols[action.dst - 1] = apply_addition(cols[action.dst - 1])
    return BeliefState(state.scale, tuple(cols))
