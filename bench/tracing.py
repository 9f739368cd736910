"""In-memory span recorder and the order statistics the benchmark reports.

Pure Python with no dependency on magsat, so the self-tests can exercise it
without running a scenario.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict


class Tracer:
    """Records spans as [name, start, end, parent, step] lists, in memory.

    A span opened while another is open becomes its child, so a field sample
    taken inside `solve` nests under the solve span. `step` tags every span
    opened until it is changed (-1 outside the per-step loop).
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self.step = -1
        self._open: list[int] = []
        self._clock = clock

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self._clock(), 0.0, parent, self.step])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self._clock()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)


def span_cost_s(calls: int = 20_000, batches: int = 5) -> float:
    """Host seconds Tracer.call adds to one call: the median over batches of no-op calls."""

    def noop():
        return None

    costs = []
    for _ in range(batches):
        tracer = Tracer()
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            tracer.call("noop", noop)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children = defaultdict(list)
    for name, start, end, parent, step in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children.get(i, ()), start, end)
        for i, (name, start, end, parent, step) in enumerate(spans)
    ]


def layer_table(spans) -> dict:
    """Per span name: number of calls, summed duration and summed self time."""
    table: dict = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += own
    return table


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of values at or below it.

    Always one of the observed values, so a p90 over few solves is a real
    solve time rather than an interpolation between two.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) / 100.0)  # q*n is exact; q/100 is not
    return ordered[max(rank, 1) - 1]
