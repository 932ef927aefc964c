"""Parser and serializer for the line-oriented block-domain file format.

Grammar (UTF-8, lines end at LF, CR LF or CR, ``#`` starts a comment, blank
lines ignored, keys in any order, each exactly once)::

    columns: <int in 1..64>
    granularity: <int in 2..64>        # must equal the number of bands
    bands: <name>=<lo>..<hi>(, <name>=<lo>..<hi>)*
    initial: <int>{columns}            # actual block counts, space-separated
    goal: <name>{columns}              # quality names, space-separated

Bands must ascend contiguously from 0.  ``parse`` raises :class:`ParseError`
with a machine-readable code and the offending 1-based line number; errors
are reported in document order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial

from .beliefs import MAX_GRANULARITY, Quality, QualityScale

# One search expansion holds up to n(n - 1) children of n codes each, so the
# column count n is capped.
MAX_COLUMNS = 64
# A domain file is read up to this many bytes.  The largest comment-free
# document the limits allow (64 columns, integers at the interpreter's
# 4,300-digit limit) takes about 0.83 MB.
MAX_DOCUMENT_BYTES = 1 << 20

_BAND_RE = re.compile(r"^([A-Za-z_]\w*)=(\d+)\.\.(\d+)$")
_INT_RE = re.compile(r"^[+-]?\d+$")
_BREAK_RE = re.compile(r"\r\n?|\n")  # str.splitlines also breaks at \f, U+2028 and more


def line_at(data: bytes, offset: int) -> int:
    """The 1-based line of an encoded document that holds byte ``offset``."""
    return len(_BREAK_RE.findall(data.decode("latin-1"), 0, offset)) + 1  # bytes kept 1:1


class ParseError(Exception):
    """Domain-file rejection with a category code and 1-based line number."""

    def __init__(self, code: str, line: int, message: str):
        self.code = code
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {code}: {message}")


@dataclass(frozen=True)
class DomainSpec:
    """A validated domain: column count, scale, true initial counts, goals."""

    columns: int
    scale: QualityScale
    initial_counts: tuple[int, ...]
    goals: tuple[Quality, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.columns <= MAX_COLUMNS:
            raise ValueError(f"a domain needs 1..{MAX_COLUMNS} columns")
        if len(self.initial_counts) != self.columns or len(self.goals) != self.columns:
            raise ValueError("initial counts and goals must cover every column")
        if any(c < 0 for c in self.initial_counts):
            raise ValueError("block counts are non-negative")
        for q in self.goals:
            if q not in self.scale.qualities:
                raise ValueError(f"goal quality {q.name!r} not declared in the scale")


def _parse_int(value: str, line: int, key: str) -> int:
    if not _INT_RE.match(value):
        raise ParseError("E_PARSE", line, f"{key}: expected an integer, got {value!r}")
    try:
        return int(value)
    except ValueError:  # past the interpreter's limit on int-string digits
        raise ParseError("E_PARSE", line,
                         f"{key}: {len(value)}-digit integer is too long") from None


def _parse_bounded(key: str, lo: int, hi: int, value: str, line: int) -> int:
    n = _parse_int(value, line, key)
    if not lo <= n <= hi:
        raise ParseError("E_PARSE", line, f"{key} must be in {lo}..{hi}")
    return n


def _parse_bands(value: str, line: int) -> list[tuple[str, int, int]]:
    bands: list[tuple[str, int, int]] = []
    for item in value.split(","):
        item = item.strip()
        m = _BAND_RE.match(item)
        if not m:
            raise ParseError("E_PARSE", line, f"bad band {item!r}, expected <name>=<lo>..<hi>")
        name = m.group(1)
        lo, hi = (_parse_int(digits, line, f"band {name}") for digits in m.group(2, 3))
        if any(name == b[0] for b in bands):
            raise ParseError("E_PARSE", line, f"duplicate band name {name!r}")
        if lo > hi:
            raise ParseError("E_BANDS_ORDER", line, f"band {name}: {lo} > {hi}")
        bands.append((name, lo, hi))
    if len(bands) < 2:
        raise ParseError("E_PARSE", line, "at least two bands required")
    for (pname, plo, _), (name, lo, _) in zip(bands, bands[1:]):
        if lo < plo:
            raise ParseError("E_BANDS_ORDER", line, f"band {name} starts before band {pname}")
    if bands[0][1] != 0:
        raise ParseError("E_BANDS_GAP", line, f"counts below {bands[0][1]} are uncovered")
    for (pname, _, phi), (name, lo, _) in zip(bands, bands[1:]):
        if lo <= phi:
            raise ParseError("E_BANDS_OVERLAP", line, f"bands {pname} and {name} overlap")
        if lo > phi + 1:
            raise ParseError("E_BANDS_GAP", line, f"counts {phi + 1}..{lo - 1} are uncovered")
    return bands


def _parse_counts(value: str, line: int) -> tuple[int, ...]:
    counts = []
    for token in value.split():
        n = _parse_int(token, line, "initial")
        if n < 0:
            raise ParseError("E_COUNT_NEGATIVE", line, f"negative count {n}")
        counts.append(n)
    return tuple(counts)


# Each key's value parser, in the order missing keys are reported.
_PARSERS = {
    "columns": partial(_parse_bounded, "columns", 1, MAX_COLUMNS),
    "granularity": partial(_parse_bounded, "granularity", 2, MAX_GRANULARITY),
    "bands": _parse_bands,
    "initial": _parse_counts,
    "goal": lambda value, line: tuple(value.split()),
}


def parse(text: str) -> DomainSpec:
    """Parse and validate a domain document; raises :class:`ParseError`."""
    entries: dict[str, tuple[int, str]] = {}
    lines = _BREAK_RE.split(text)
    for number, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("E_PARSE", number, "expected '<key>: <value>'")
        key, _, value = line.partition(":")
        key = key.strip()
        if key not in _PARSERS:
            raise ParseError("E_PARSE", number, f"unknown key {key!r}")
        if key in entries:
            raise ParseError("E_DUP_KEY", number, f"duplicate key {key!r}")
        entries[key] = (number, value.strip())

    for key in _PARSERS:
        if key not in entries:
            raise ParseError("E_MISSING_KEY", max(1, len(lines) - (not lines[-1])),
                             f"missing key {key!r}")

    # Per-key syntax in document order, which entries keeps, then cross-key
    # checks likewise.
    values = {key: _PARSERS[key](value, line) for key, (line, value) in entries.items()}
    columns, granularity, bands, initial, goal_names = (values[key] for key in _PARSERS)
    band_names = [b[0] for b in bands]

    checks = {
        "granularity": [(granularity == len(bands), "E_PARSE",
                         f"granularity {granularity} does not match {len(bands)} bands")],
        "initial": [(len(initial) == columns, "E_ARITY",
                     f"expected {columns} counts, got {len(initial)}")],
        "goal": [(len(goal_names) == columns, "E_ARITY",
                  f"expected {columns} goals, got {len(goal_names)}")]
        + [(name in band_names, "E_UNKNOWN_QUALITY", f"unknown quality {name!r}")
           for name in goal_names],
    }
    for key, (line, _) in entries.items():
        for ok, code, message in checks.get(key, ()):
            if not ok:
                raise ParseError(code, line, message)

    scale = QualityScale(
        qualities=tuple(Quality(i, name) for i, (name, _, _) in enumerate(bands)),
        bands=tuple((lo, hi) for _, lo, hi in bands),
    )
    goals = tuple(scale.quality(name) for name in goal_names)
    return DomainSpec(columns, scale, initial, goals)


def serialize(spec: DomainSpec) -> str:
    """Canonical document: fixed key order, single spaces; parse round-trips."""
    bands = ", ".join(
        f"{q.name}={lo}..{hi}" for q, (lo, hi) in zip(spec.scale.qualities, spec.scale.bands)
    )
    return (
        f"columns: {spec.columns}\n"
        f"granularity: {spec.scale.granularity}\n"
        f"bands: {bands}\n"
        f"initial: {' '.join(str(c) for c in spec.initial_counts)}\n"
        f"goal: {' '.join(q.name for q in spec.goals)}\n"
    )
