"""In-memory spans and counters for the traced benchmark run.

A span is (name, start, end, parent index); spans nest strictly because the
engine is single-threaded, so a parent's self time is its duration minus
the summed durations of its direct children. Counters are recorded at the
same boundaries as the spans. Everything stays in memory and is dumped once
at the end of the run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def begin(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock() if start is None else start, None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._stack.pop()
        self.spans[index][2] = self.clock()

    def inside(self, name: str) -> bool:
        """True when a span called `name` is open on the stack."""
        return any(self.spans[k][0] == name for k in self._stack)

    def wrap(self, name: str, fn, after=None):
        """`fn` timed under span `name`; after(tracer, args, kwargs, result)
        records counters once the span is closed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the summed
    durations of its direct children."""
    child_total = defaultdict(float)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_total[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        totals[name] += (end - start) - child_total[index]
    return dict(totals)


def inclusive_times(spans) -> dict[str, float]:
    """Total duration per span name, children included."""
    totals: dict[str, float] = defaultdict(float)
    for name, start, end, _parent in spans:
        totals[name] += end - start
    return dict(totals)
