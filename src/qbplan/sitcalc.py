"""Situations as finite action histories, plus the ordering relations on them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, slots=True)
class Action:
    """Move the top block of column ``src`` onto column ``dst`` (1-based ids)."""

    src: int
    dst: int

    def __post_init__(self) -> None:
        if self.src < 1 or self.dst < 1:
            raise ValueError(f"column ids are 1-based, got ({self.src}, {self.dst})")
        if self.src == self.dst:
            raise ValueError(f"self-move rejected: column {self.src}")


@dataclass(frozen=True, slots=True)
class Situation:
    """A finite history of actions; the empty history is the initial situation."""

    history: tuple[Action, ...] = ()


S0 = Situation()


def do(action: Action, s: Situation) -> Situation:
    """Successor situation reached by performing ``action`` in ``s``."""
    return Situation(s.history + (action,))


def predecessor(s: Situation) -> tuple[Action, Situation] | None:
    """The unique (action, situation) pair with do(action, situation) == s.

    Returns None exactly for the initial situation.
    """
    if not s.history:
        return None
    return s.history[-1], Situation(s.history[:-1])


def precedes(s: Situation, t: Situation) -> bool:
    """Strict order: s's history is a proper prefix of t's."""
    return len(s.history) < len(t.history) and t.history[: len(s.history)] == s.history


def precedes_eq(s: Situation, t: Situation) -> bool:
    """Reflexive closure of :func:`precedes`."""
    return s == t or precedes(s, t)


def format_plan(actions: Iterable[Action]) -> str:
    """Plan text: one ``move <src> <dst>`` line per action, newline-terminated."""
    return "".join(f"move {a.src} {a.dst}\n" for a in actions)


def parse_plan(text: str) -> tuple[Action, ...]:
    """Inverse of :func:`format_plan`; blank lines are ignored.

    Each distinct line is parsed once: a repeat is one lookup of the raw
    line.  Only lines that parse to an action are kept, so the first bad
    line raises, with its own number.
    """
    actions = []
    parsed: dict[str, Action] = {}
    for number, raw in enumerate(text.splitlines(), 1):
        action = parsed.get(raw)
        if action is None:
            parts = raw.split()
            if not parts:
                continue
            if len(parts) != 3 or parts[0] != "move":
                raise ValueError(f"plan line {number}: expected 'move <src> <dst>'")
            try:
                action = parsed[raw] = Action(int(parts[1]), int(parts[2]))
            except ValueError as exc:
                raise ValueError(f"plan line {number}: {exc}") from None
        actions.append(action)
    return tuple(actions)
