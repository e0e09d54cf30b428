"""Follow the machine's speed with a fixed reference loop.

A shared machine's speed can drift by a quarter or more within minutes,
and halve for a second at a time, in a process's CPU time as much as in
its wall time, as other tenants come and go.  The benchmark runs one
``tick()``, a short fixed loop of pure-Python work (``Fraction``
arithmetic, dict, tuple and frozenset traffic, like relp's own), before
the first job of a batch and after every job.  A job's measured time,
multiplied by the ``job_factor()`` of the ticks around it, becomes
seconds at the nominal speed: the speed at which one tick takes
``NOMINAL_TICK_S``.  The ticks used are those within one job-length of
the job on either side, and at least the two adjacent ones.  The speed
changes within a second, so a short job gets the speed of its moment;
a long job gets the speed over a span like its own, where the two ticks
at its ends would sample only two instants of it.  The reference is
part of the benchmark, not of relp, and runs with the garbage collector
off, so that a collection of objects relp keeps alive cannot land
inside a tick and move the factor.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

NOMINAL_TICK_S = 0.010  # one tick's time on a 2-core x86-64 VM at a calm moment
_ROUNDS = 1000


def tick() -> float:
    """Measured seconds of one pass of the reference loop."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_loop()
    finally:
        if was_enabled:
            gc.enable()


def _timed_loop() -> float:
    start = perf_counter()
    x = Fraction(1, 3)
    seen: dict[tuple[int, int], frozenset[int]] = {}
    acc = frozenset()
    for i in range(_ROUNDS):
        x = (x * Fraction(i % 97 + 1, 89) + Fraction(1, i + 2)) / Fraction(i % 13 + 2, 7)
        if x.denominator > 10**30:
            x = Fraction(x.numerator % 1009, 997)
        key = (i % 211, x.denominator % 7)
        acc = (acc | {i % 61}) - {(i * 7) % 61}
        seen[key] = acc
    return perf_counter() - start


def job_factor(ticks: list[tuple[float, float]], start: float, end: float) -> float:
    """Nominal over measured speed for work that ran from ``start`` to ``end``.

    ``ticks`` holds the (start time, seconds) of every tick of the batch,
    among them one that ended as the work started and one that started
    as it ended.  Measured seconds of the work times this are nominal
    seconds.
    """
    span = end - start
    near = [s for at, s in ticks if at <= end + span and at + s >= start - span]
    return NOMINAL_TICK_S * len(near) / sum(near)
