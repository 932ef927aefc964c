"""Spans recorded by the benchmark around its calls into qbplan, and the
statistics it reports.

A span is ``(name, start, end, parent, item)``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``item`` the id of the benchmark item
that caused it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self._stack: list[int] = []
        self.item = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        label = [name]  # the body may refine the name once it knows the outcome
        start = time.perf_counter()
        try:
            yield label
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (label[0], start, end, parent, self.item)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
        return totals

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "item")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def tail_percentile(n: int) -> float:
    """The highest of the usual percentiles with at least ten samples beyond it."""
    best = 50.0
    for p in (75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Linearly interpolated percentile of ``values`` (p in [0, 100])."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
