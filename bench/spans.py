"""Span tracer and the arithmetic the benchmark reports.

A span is ``(name, start, end, parent, request)``: ``parent`` is the index of
the enclosing span in the tracer's list (-1 for none) and ``request`` the id
of the request it belongs to.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request = -1
        self.failures: Counter = Counter()  # (span name, request id, exception type) -> count
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.request))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        name, start, _, parent, request = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, request)
        self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""

        def call(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.failures[name, self.request, type(exc).__name__] += 1
                raise
            finally:
                self.end(idx)

        return call

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            out.write("name,start,end,parent,request\n")
            for name, start, end, parent, request in self.spans:
                out.write(f"{name},{start:.9f},{end:.9f},{parent},{request}\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_busy(spans: list[tuple], requests: set | None = None) -> dict[str, tuple[float, int]]:
    """Per layer (the part of a span name before the first dot): self time,
    calls; over the spans of the given request ids, or of all requests."""
    busy: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for span, own in zip(spans, self_times(spans)):
        if requests is not None and span[4] not in requests:
            continue
        entry = busy[span[0].split(".", 1)[0]]
        entry[0] += own
        entry[1] += 1
    return {layer: (b, n) for layer, (b, n) in busy.items()}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of the
    samples at or below it."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(sorted_values) - 1e-9))
    return sorted_values[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q`` percentile."""
    return n - max(1, math.ceil(q * n - 1e-9))
