"""Interpreter-speed calibration, so that timings survive a noisy host.

On a shared machine the speed of Python code drifts by 20% or more within
seconds, in wall-clock and CPU time alike, because of other tenants.  The
benchmark therefore runs a fixed calibration unit next to every job and
scales the job's time to a reference speed:

    scaled = measured * REF_UNIT_S / (seconds per calibration unit nearby)

The unit does the same kind of work as effrew (small frozen dataclass
trees, a recursive generator walk, string keys, dict counts), so it slows
down with the engine when the host is busy.  It uses only the standard
library and must not change: every recorded baseline depends on it.

Jobs that run for seconds outlast the drift, so ``Sampler`` also times a
unit every SAMPLE_INTERVAL_S while a job runs, from a SIGALRM handler in
the same thread; the handler's time is taken out of the job's time.
Every timed unit follows an untimed one, so it runs with warm caches
however much memory the job before it touched.
"""

from __future__ import annotations

import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

# seconds per unit at the reference speed; about the typical speed of the
# 2-vCPU Xeon VM the baseline was recorded on
REF_UNIT_S = 0.0008


@dataclass(frozen=True)
class _Node:
    tag: str
    kids: tuple


def _build(depth: int, width: int) -> _Node:
    if depth == 0:
        return _Node("leaf", ())
    return _Node("n%d" % (depth % 3), tuple(_build(depth - 1, width) for _ in range(width)))


def _walk(t: _Node, pos=()):
    yield pos, t
    for i, k in enumerate(t.kids):
        yield from _walk(k, pos + (i,))


def _key(t: _Node) -> str:
    return "(" + t.tag + "".join(" " + _key(k) for k in t.kids) + ")"


def unit() -> int:
    t = _build(5, 3)
    depth_sum = 0
    tags: dict[str, int] = {}
    for pos, s in _walk(t):
        depth_sum += len(pos)
        tags[s.tag] = tags.get(s.tag, 0) + 1
    return len(_key(t)) + depth_sum + len(tags)


def seconds_per_unit(min_s: float) -> float:
    """After one untimed unit, run whole units for at least min_s (at
    least one unit); return the mean seconds per timed unit."""
    unit()
    n = 0
    start = perf_counter()
    while True:
        unit()
        n += 1
        elapsed = perf_counter() - start
        if elapsed >= min_s:
            return elapsed / n


SAMPLE_INTERVAL_S = 0.1


class Sampler:
    """Speed samples taken while a job runs.  ``start`` arms the interval
    timer; ``stop`` disarms it and returns the samples (seconds per unit)
    and the seconds the handler took away from the job."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        entered = perf_counter()
        try:
            unit()
            start = perf_counter()
            unit()
            self.samples.append(perf_counter() - start)
        except RecursionError:
            # interrupted near the recursion limit: skip this sample and
            # leave the job's own code to meet the limit, if it does
            pass
        self.spent += perf_counter() - entered

    def start(self) -> None:
        self.samples = []
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> tuple[list[float], float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.samples, self.spent

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def local_unit_s(before: float, after: float, samples: list[float]) -> float:
    """Seconds per unit around one job: the mean of the calibrations just
    before and after it and of the samples taken while it ran.  Samples
    come at even intervals, so their mean follows the job's average speed."""
    return statistics.fmean([before, after, *samples])
