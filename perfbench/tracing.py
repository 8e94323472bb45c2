"""In-memory spans around the benchmark's calls into naplespf's layers.

A span is ``[name, start, end, parent]``: start and end come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans from different
processes share one time base) and ``parent`` is the index of the enclosing
span in the same list, or -1.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

#: Prefix of the stderr line on which ``cli_traced.py`` reports its spans.
SPANS_MARKER = "PERFBENCH_SPANS "


class Tracer:
    """Records one span per ``with tracer.span(name):`` block."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded elsewhere, hanging their roots under ``parent``."""
        base = len(self.spans)
        for name, start, end, p in spans:
            self.spans.append([name, start, end, parent if p < 0 else base + p])

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs; records nothing."""

    enabled = False
    spans: list[list] = []
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def current(self) -> int:
        return -1


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls, busy time and self time per span name.

    Busy time is the summed span duration; self time subtracts the part
    covered by child spans.  Children of one span run one after another in
    one thread (or one child process), so their durations do not overlap.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - covered[i]
    return stats
