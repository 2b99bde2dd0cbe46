"""Spans around the benchmark's calls into the program, kept in memory.

A span is (name, start_ns, end_ns, parent), where parent is the index of the
span that was open when this one started, or -1 at top level.  The program
itself is not instrumented: the benchmark calls wrapped versions of public
functions, so a span covers one call from the benchmark (or from a program
function the benchmark handed a wrapped callback, such as `diff=`).
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict


class NullTracer:
    """Untraced runs: wrapping returns the function itself, at no cost."""

    def wrap(self, name, fn, count=None):
        return fn


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """Return fn recording a span per call, its zero results and, if
        given, ``count(result)`` summed under ``name + ".out"``."""
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if not result:
                counters[name + ".zero"] += 1
            if count is not None:
                counters[name + ".out"] += count(result)
            return result

        return traced

    def span(self, name, fn, *args):
        """Call fn(*args) once inside a span."""
        return self.wrap(name, fn)(*args)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, total seconds, self seconds (minus child spans)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += (end - start) / 1e9
            row["self_s"] += (end - start - inner) / 1e9
        return out

    def top_level_s(self, since_ns: int, until_ns: int) -> float:
        """Seconds covered by top-level spans inside a window."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0 and start >= since_ns and end <= until_ns) / 1e9

    def write(self, path) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
