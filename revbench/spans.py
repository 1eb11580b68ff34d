"""Spans and counters for the traced run, kept in memory until the run ends.

The workloads call every layer through ``tracer.span(name)`` and wrap the
callables they pass in with ``tracer.wrap(fn)``; ``tracer.take(name, fn)``
then adds the calls the wrapped callable received to a per-round counter. A
timed run uses ``NULL``, whose span is a shared no-op context manager and
whose ``wrap`` returns the callable unchanged, so the timed rounds carry no
tracing work beyond one method call per layer call.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NOOP = nullcontext()


class _Counted:
    """A callable that counts its calls."""

    __slots__ = ("fn", "n")

    def __init__(self, fn):
        self.fn = fn
        self.n = 0

    def __call__(self, x):
        self.n += 1
        return self.fn(x)


class NullTracer:
    """Tracer for the timed runs: records nothing."""

    def span(self, name: str):
        return _NOOP

    def count(self, name: str, n: int = 1) -> None:
        pass

    def wrap(self, fn):
        return fn

    def take(self, name: str, fn) -> None:
        pass

    def start_round(self, index: int) -> None:
        pass


NULL = NullTracer()


class Tracer:
    """Spans (name, round, start, end) and per-round counters, in memory.

    Each span's cause is the round it belongs to; layer calls do not nest
    inside one another in the benchmark's own code, so a span's duration is
    also its self time.
    """

    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.round = -1

    def start_round(self, index: int) -> None:
        self.round = index

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, self.round, t0, time.perf_counter()))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.round][name] += n

    def wrap(self, fn):
        return _Counted(fn)

    def take(self, name: str, fn) -> None:
        """Add the calls ``fn`` (a wrapped callable) received since the last
        take to counter ``name``."""
        self.counts[self.round][name] += fn.n
        fn.n = 0

    def per_round_seconds(self) -> dict[str, list[float]]:
        """For each span name, its total duration in every traced round."""
        rounds = sorted({r for _, r, _, _ in self.spans} | set(self.counts))
        totals: dict[str, dict[int, float]] = defaultdict(lambda: dict.fromkeys(rounds, 0.0))
        for name, r, t0, t1 in self.spans:
            totals[name][r] += t1 - t0
        return {name: [by_round[r] for r in rounds] for name, by_round in totals.items()}

    def layer_metrics(self, time_names: list[str], count_names: list[str]
                      ) -> tuple[dict[str, float], bool]:
        """Median per-round seconds for each time metric and the per-round
        value of each count. The second item is False when a count differs
        between traced rounds, which would mean the work is not the same in
        every round."""
        secs = self.per_round_seconds()
        out = {name: statistics.median(secs[name]) if name in secs else 0.0
               for name in time_names}
        steady = True
        per_round = [self.counts[r] for r in sorted(self.counts)]
        for name in count_names:
            values = {c.get(name, 0) for c in per_round} or {0}
            steady = steady and len(values) == 1
            out[name] = max(values)
        return out, steady

    def write(self, path: str) -> None:
        """Write every span as one JSON line, once, at the end of the run."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, r, t0, t1 in self.spans:
                fh.write(json.dumps({"name": name, "round": r,
                                     "start": t0, "end": t1}) + "\n")
            for r in sorted(self.counts):
                fh.write(json.dumps({"round": r, "counts": dict(self.counts[r])}) + "\n")
