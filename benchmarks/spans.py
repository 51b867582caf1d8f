"""Spans and counters recorded around the benchmark's calls into the program.

A span is [name, start, end, parent index]; parents come from a stack, so a
workload op opened with ``call`` is the parent of the layer calls made while
it runs.  Everything stays in memory until the run writes it out.  The
untraced run uses :class:`NullTracer`, which only forwards the call.
"""
from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class NullTracer:
    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, amount=1):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def call(self, name, fn, *args):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self.spans.append(span)
        self._open.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self._open.pop()

    def count(self, name, amount=1):
        self.counts[name] += amount

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Per layer (the span name up to its first dot): duration minus child spans.

        Children of one span run one after another, so the part of the
        parent's interval they cover is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name.split(".", 1)[0]] += end - start - covered
        return out
