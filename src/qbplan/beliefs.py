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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .sitcalc import Action


class NotPossibleError(Exception):
    """A move whose source column is believed empty was requested."""

    code = "E_NOT_POSSIBLE"

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


@dataclass(frozen=True, slots=True)
class Quality:
    """A symbolic height category; index 0 is always the empty quality."""

    index: int
    name: str


@dataclass(frozen=True, slots=True)
class QualityScale:
    """Ordered qualities with contiguous block-count bands.

    ``bands[i]`` is the inclusive count interval denoted by ``qualities[i]``;
    bands ascend contiguously from 0.  The granularity g is the number of
    qualities, and every belief degree is a multiple of 1/g.
    """

    qualities: tuple[Quality, ...]
    bands: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.qualities) < 2:
            raise ValueError("a scale needs at least two qualities")
        if len(self.bands) != len(self.qualities):
            raise ValueError("one band per quality required")
        names = [q.name for q in self.qualities]
        if len(set(names)) != len(names):
            raise ValueError("quality names must be unique")
        for i, q in enumerate(self.qualities):
            if q.index != i:
                raise ValueError("quality indices must be consecutive from 0")
        if self.bands[0][0] != 0:
            raise ValueError("the first band must start at 0")
        for i, (lo, hi) in enumerate(self.bands):
            if lo > hi:
                raise ValueError(f"band {self.qualities[i].name}: {lo} > {hi}")
            if i and lo != self.bands[i - 1][1] + 1:
                raise ValueError("bands must be contiguous and ascending")

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


@dataclass(frozen=True, slots=True)
class ColumnBelief:
    """Exact belief vector for one column.

    ``numerators[i]`` is the degree numerator of quality i over the scale's
    granularity; ``believe`` is the index of the main-belief quality.
    """

    numerators: tuple[int, ...]
    believe: int

    def degree(self, quality: Quality | int) -> Fraction:
        i = quality.index if isinstance(quality, Quality) else quality
        return Fraction(self.numerators[i], len(self.numerators))

    def support(self) -> tuple[int, ...]:
        """Indices of the qualities holding any belief mass."""
        return tuple(i for i, k in enumerate(self.numerators) if k)


@dataclass(frozen=True, slots=True)
class BeliefState:
    """The robot's view: one belief vector per column of the domain."""

    scale: QualityScale
    columns: tuple[ColumnBelief, ...]

    def believes(self) -> tuple[Quality, ...]:
        return tuple(self.scale.qualities[cb.believe] for cb in self.columns)


@dataclass(frozen=True, slots=True)
class GoalSpec:
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
    """Pure belief from seeing a column: full degree on the classified quality."""
    return column_automaton(scale.granularity).beliefs[classify(count, scale).index]


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

    ``beliefs[k]`` is the belief with code k (code q is the pure observation
    of quality q), ``position[k]`` its p and ``believe[k]`` its main belief;
    ``removal[k]`` and ``addition[k]`` are the codes one block taken or
    added away, k itself where a step saturates.
    """

    def __init__(self, g: int):
        top = g * (g - 1)
        # (p, believe) per code: the pure observations, every other position
        # with its majority (the lower quality at a tie), then the ties' upper.
        keys = [(q * g, q) for q in range(g)]
        keys += [(p, p // g + (2 * (p % g) > g)) for p in range(top) if p % g]
        keys += [(i * g + g // 2, i + 1) for i in range(g - 1) if g % 2 == 0]
        codes = {key: k for k, key in enumerate(keys)}

        def step(p: int, b: int, to: int) -> int:
            if not 0 <= to <= top:
                return codes[p, b]
            i, r = divmod(to, g)
            return codes[to, b if 2 * r == g else i + (2 * r > g)]

        def numerators(p: int) -> tuple[int, ...]:
            i, r = divmod(p, g)
            return tuple(g - r if j == i else r if j == i + 1 else 0 for j in range(g))

        self.beliefs = tuple(ColumnBelief(numerators(p), b) for p, b in keys)
        self._codes = {cb: k for k, cb in enumerate(self.beliefs)}
        self.position = tuple(p for p, _ in keys)
        self.believe = tuple(b for _, b in keys)
        self.removal = tuple(step(p, b, p - 1) for p, b in keys)
        self.addition = tuple(step(p, b, p + 1) for p, b in keys)

    def code(self, cb: ColumnBelief) -> int:
        """The code of ``cb``; ``ValueError`` for a belief outside the automaton."""
        try:
            return self._codes[cb]
        except KeyError:
            raise ValueError(f"{cb} is not reachable from an observation") from None


_AUTOMATA: dict[int, ColumnAutomaton] = {}
# The moving (non-saturating) steps of every automaton built so far, by belief
# value: one table serves every granularity, as their beliefs never compare equal.
_REMOVED: dict[ColumnBelief, ColumnBelief] = {}
_ADDED: dict[ColumnBelief, ColumnBelief] = {}


def column_automaton(granularity: int) -> ColumnAutomaton:
    """The column automaton of ``granularity``, built on first use."""
    if granularity not in _AUTOMATA:
        if not 2 <= granularity <= MAX_GRANULARITY:
            raise ValueError(f"granularity must be in 2..{MAX_GRANULARITY}")
        a = _AUTOMATA[granularity] = ColumnAutomaton(granularity)
        for moved, table in ((_REMOVED, a.removal), (_ADDED, a.addition)):
            moved.update((a.beliefs[k], a.beliefs[j]) for k, j in enumerate(table) if j != k)
    return _AUTOMATA[granularity]


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
