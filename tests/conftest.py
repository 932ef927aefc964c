"""Shared helpers: scenario paths, trace-text parsing, belief checks, walks."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from qbplan import (
    Action,
    QualityScale,
    WorldState,
    apply_addition,
    apply_move,
    apply_removal,
    execute,
    initial_beliefs,
    poss,
)
from qbplan.beliefs import ColumnBelief

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SRC = Path(__file__).resolve().parent.parent / "src"


def scenario(name: str) -> str:
    return str(SCENARIOS / f"{name}.qbd")


def fuzz_lines(valid_lines: list[str]) -> st.SearchStrategy[str]:
    """Domain-file lines: ``valid_lines``, keyed lines with fuzzed values, and raw text."""
    keys = st.sampled_from(["columns", "granularity", "bands", "initial", "goal"])
    values = st.text(max_size=30) | st.text(alphabet="0123456789 ,.=+-#zqsml", max_size=30)
    return (st.sampled_from(valid_lines)
            | st.builds("{}: {}".format, keys, values)
            | st.text(max_size=40))


def parse_trace(text: str) -> tuple[list[str], dict[str, list[Fraction]]]:
    """Read a trajectory table back: count labels plus per-quality degree rows
    (blank cells become 0).  Cells are recovered by the header's column
    offsets, so blanks keep their position."""
    lines = text.splitlines()
    header = lines[0]
    assert header.startswith("blocks")
    offsets = [0]
    for i in range(1, len(header)):
        if header[i] != " " and header[i - 1] == " ":
            offsets.append(i)
    bounds = list(zip(offsets, offsets[1:] + [10**9]))
    labels = [header[a:b].strip() for a, b in bounds][1:]
    rows: dict[str, list[Fraction]] = {}
    for line in lines[1:]:
        cells = [line[a:b].strip() for a, b in bounds]
        rows[cells[0]] = [Fraction(c) if c else Fraction(0) for c in cells[1:]]
    return labels, rows


def assert_belief_invariants(cb: ColumnBelief) -> None:
    g = len(cb.numerators)
    assert sum(cb.numerators) == g, "degrees must sum to 1"
    support = cb.support()
    assert len(support) in (1, 2), "support is one quality or two"
    if len(support) == 2:
        assert support[1] - support[0] == 1, "support qualities must be adjacent"
    assert 2 * cb.numerators[cb.believe] >= g, "main belief holds at least half"


def assert_round_trip(cb: ColumnBelief) -> None:
    """Removal and addition undo each other off saturation; degrees always,
    the main belief except when starting from an exact tie (hysteresis)."""
    g = len(cb.numerators)
    if cb.numerators[0] != g:  # removal does not saturate
        back = apply_addition(apply_removal(cb))
        assert back.numerators == cb.numerators
        if back.believe != cb.believe:
            assert 2 * cb.numerators[cb.believe] == g
            assert back.believe in cb.support()
    if cb.numerators[-1] != g:  # addition does not saturate
        back = apply_removal(apply_addition(cb))
        assert back.numerators == cb.numerators
        if back.believe != cb.believe:
            assert 2 * cb.numerators[cb.believe] == g
            assert back.believe in cb.support()


def run_walk_case(rng: random.Random, scale: QualityScale, max_count: int,
                  min_columns: int = 3, max_columns: int = 5, max_steps: int = 16) -> None:
    """One random poss-respecting walk; checks belief invariants, round trips,
    the frame property, and block conservation under execution."""
    ncols = rng.randint(min_columns, max_columns)
    counts = tuple(rng.randint(0, max_count) for _ in range(ncols))
    state = initial_beliefs(counts, scale)
    all_actions = [Action(s, d) for s in range(1, ncols + 1)
                   for d in range(1, ncols + 1) if s != d]
    taken: list[Action] = []
    for _ in range(rng.randint(0, max_steps)):
        legal = [a for a in all_actions if poss(state, a)]
        if not legal:
            break
        action = rng.choice(legal)
        previous = state
        state = apply_move(previous, action)
        taken.append(action)
        for i, (old, new) in enumerate(zip(previous.columns, state.columns), 1):
            if i in (action.src, action.dst):
                assert_belief_invariants(new)
                assert_round_trip(new)
            else:
                assert new == old, "untouched columns must stay bit-identical"
    final, _failed = execute(WorldState(counts), tuple(taken))
    assert sum(final.counts) == sum(counts), "execution must conserve blocks"
