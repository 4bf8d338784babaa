"""Spans and counters recorded around the benchmark's calls into perron.

The benchmark never patches the package: every library call a workload makes
goes through ``tracer.call(name, fn, *args)``.  ``NullTracer`` calls straight
through (the timed end-to-end run); ``Tracer`` also records one span per call,
parented to the operation that issued it, and keeps per-name aggregates from
which the per-layer metrics are derived.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Direct calls, no bookkeeping."""

    enabled = False

    def begin_op(self, op_id: int) -> None:
        pass

    def end_op(self, start: float, end: float) -> None:
        pass

    def call(self, name, fn, *args):
        return fn(*args)

    def record(self, name: str, start: float, end: float, calls: int = 1) -> None:
        pass

    def observe(self, name: str, total: float, count: int = 1) -> None:
        pass

    def add(self, name: str, value: float) -> None:
        pass

    def wrap_predicate(self, pred, counter: str) -> None:
        pass


class Tracer(NullTracer):
    """In-memory spans plus per-name call counts, busy time and samples."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (span id, parent id, op id, name, start, end, calls)
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.totals: dict[str, float] = defaultdict(int)
        self.samples: dict[str, list] = {}  # name -> [sum, count, max]
        self._op = -1
        self._op_span = None

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._op_span = len(self.spans)
        self.spans.append(None)  # filled by end_op

    def end_op(self, start: float, end: float) -> None:
        self.spans[self._op_span] = (self._op_span, None, self._op, "op", start, end, 1)

    def call(self, name, fn, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.record(name, start, perf_counter())

    def record(self, name: str, start: float, end: float, calls: int = 1) -> None:
        self.spans.append((len(self.spans), self._op_span, self._op, name, start, end, calls))
        self.calls[name] += calls
        self.busy[name] += end - start

    def observe(self, name: str, total: float, count: int = 1) -> None:
        """Add `count` samples summing to `total`; the peak is of their means."""
        agg = self.samples.setdefault(name, [0, 0, total / count])
        agg[0] += total
        agg[1] += count
        agg[2] = max(agg[2], total / count)

    def add(self, name: str, value: float) -> None:
        self.totals[name] += value

    def mean(self, name: str) -> float:
        total, count, _ = self.samples.get(name, (0, 0, None))
        return total / count if count else 0.0

    def peak(self, name: str) -> float:
        return self.samples.get(name, (0, 0, 0))[2]

    def wrap_predicate(self, pred, counter: str) -> None:
        """Count classify calls in place, keeping the predicate's fast-path
        attributes (``allowed``, ``is_all``) that a fresh wrapper would drop."""
        inner = pred.classify
        totals = self.totals

        def counted(word):
            totals[counter] += 1
            return inner(word)

        pred.classify = counted

    def write_spans(self, path, header: dict) -> None:
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for span_id, parent, op, name, start, end, calls in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end, "calls": calls},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
