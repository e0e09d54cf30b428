"""Spans around the benchmark's own calls into relp.

Every call the benchmark makes into a relp module goes through
``Tracer.call`` under a metric name such as ``"solver.solve_s"``; the
part before the first dot is the layer.  With tracing off the call is
passed straight through.  With tracing on, each call becomes a span
(name, job id, parent span, start, end) kept in memory; the benchmark
writes the spans out when it ends.  Nothing inside ``src/`` is touched.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

JOB = "job"  # name of the root span of one job; not a layer


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    parent: int | None
    job: str | None
    name: str
    start: float
    end: float


class Tracer:
    def __init__(self, on: bool) -> None:
        self.on = on
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job: str | None = None
        self._next = 0

    def call(self, name: str, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        with self._span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def job(self, job_id: str):
        """Root span of one job; the spans opened inside carry its id."""
        self._job = job_id
        try:
            if self.on:
                with self._span(JOB):
                    yield
            else:
                yield
        finally:
            self._job = None

    @contextmanager
    def _span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, self._job, name, start, end))


def self_times(spans: list[Span], scale: dict[str | None, float]) -> dict[str, float]:
    """Seconds per span name, minus the time covered by child spans.

    Calls run one at a time, so children of one span never overlap and
    their durations can simply be subtracted.  A span's self-time is
    multiplied by the ``scale`` of its job.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += ((s.end - s.start) - child_time[s.id]) * scale[s.job]
    return dict(out)
