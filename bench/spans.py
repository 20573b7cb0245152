"""Spans recorded by the benchmark around its calls into the program.

A span has a name, start, end, parent span and operation id.  Spans stay
in memory and are written out once, when the run ends.  A span's self time
is its duration minus the time its child spans cover.  Untraced rounds use
:data:`NULL`, whose spans cost one attribute lookup and record nothing.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counters: dict[str, float] = defaultdict(int)
        self.maxima: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child_time[i]
        return totals


class _NullTracer:
    def span(self, name: str):
        return _NULL_CONTEXT

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass


_NULL_CONTEXT = contextlib.nullcontext()
NULL = _NullTracer()


def dump(tracers: list[Tracer], path) -> None:
    """Write the spans of each traced round as one JSON list per round."""
    keys = ("name", "start", "end", "parent", "op")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[dict(zip(keys, s)) for s in t.spans] for t in tracers], fh)
