"""Host-speed calibration: a fixed pure-Python task timed between operations.

The machines this benchmark is run on share their cores with other
tenants, and the speed of pure-Python code drifts with their load: on
unchanged code and inputs, ten consecutive 28 s runs of verify-small gave
37 to 71 operations per second.  No bound of 25% survives that, so every
duration the benchmark reports is rescaled to a reference host speed:

    reported = measured * REFERENCE_S / (local duration of the task)

where the local duration is the median of the calibration samples
nearest in time (samples are taken every INTERVAL_S, between operations,
in the process being measured).  The task is the benchmark's own code,
never the program's, so a change to the program cannot move it.  The raw
durations are kept in the per-run results.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from time import perf_counter

# About the median duration of task() in a workload process on a 2-core
# Xeon at 2.0 GHz (Python 3.11) while the host is quiet.
REFERENCE_S = 0.0008
INTERVAL_S = 0.1
NEAREST = 21

_BASIS = (7, 11, 13, 17)


def task() -> int:
    """Memoised recursive membership counts: calls, tuple keys, dict lookups, int ops."""
    memo: dict[tuple[int, int], bool] = {}

    def rep(a: int, j: int) -> bool:
        if j == 1:
            return a % _BASIS[0] == 0
        key = (a, j)
        hit = memo.get(key)
        if hit is not None:
            return hit
        top = _BASIS[j - 1]
        result = False
        for k in range(a // top + 1):
            if rep(a - k * top, j - 1):
                result = True
                break
        memo[key] = result
        return result

    return sum(rep(a, len(_BASIS)) for a in range(400))


def sample() -> tuple[float, float]:
    """(start time, duration) of one run of the task."""
    t0 = perf_counter()
    task()
    return t0, perf_counter() - t0


class Calibration:
    """Calibration samples of one process, and the speed scale they give."""

    def __init__(self, samples=()) -> None:
        self.samples = sorted(map(tuple, samples))
        self._last = self.samples[-1][0] if self.samples else float("-inf")

    def maybe_sample(self) -> None:
        """Take a sample if INTERVAL_S has passed since the last one."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(sample())
            self._last = self.samples[-1][0]

    def scale_overall(self) -> float:
        """REFERENCE_S over the median duration of all samples."""
        return REFERENCE_S / statistics.median(d for _, d in self.samples)

    def scale(self, t: float | None = None) -> float:
        """REFERENCE_S over the median duration of the samples nearest t (default: latest)."""
        if t is None:
            near = self.samples[-NEAREST:]
        else:
            i = bisect_left(self.samples, (t,))
            near = self.samples[max(0, i - NEAREST // 2): i + NEAREST // 2 + 1]
        return REFERENCE_S / statistics.median(d for _, d in near)
