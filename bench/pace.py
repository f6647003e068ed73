"""Host-speed sampling for the timed measurements.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same fixed computation takes up to twice as long in a slow phase, and the
phases last from seconds to minutes, longer than a run.  A ``Pace`` sampler
measures that speed while the program runs.  Every ``interval`` seconds a
SIGALRM handler times one fixed pure-Python kernel (0.4 to 0.7 ms on the
reference host) in the main thread.  A measured region's time in
reference-host seconds is

    (wall time - time spent in the kernel) * REF_KERNEL_S / mean kernel time

A sample is the median of three kernel runs, so that one run preempted by
the scheduler does not count.  Python runs the handler only between
bytecodes, so a tick that falls into a long numpy or LAPACK call waits for
its end, and the ticks during it coalesce into one.  The mean is therefore
a time average: each stretch of program time between two samples counts
with the mean of those two samples, as in the trapezoid rule.  A late tick
ends a long stretch, so it takes the median of nine runs instead.
The kernel does a fixed amount of work and never touches the program, so a
change that makes the program faster moves the scaled time by the same share
as the raw one.  Raw times stay in the detail line of every run.
"""

from __future__ import annotations

import signal
import statistics
import time

KERNEL_N = 4000
# the kernel's time at reference speed: its median on the 2-core reference
# host ranged over 0.4-0.7 ms from one second to the next
REF_KERNEL_S = 0.0005


def kernel() -> int:
    s = 0
    d = {}
    for i in range(KERNEL_N):
        s += (i * i) % 7
        d[i & 63] = s
    return s


def time_average(samples: list[float], gaps: list[float]) -> float:
    """Kernel time averaged over program time: ``gaps[i]`` is the program
    time that ends with ``samples[i]``; the first gap counts with its own
    sample, every later one with the mean of the samples at its two ends."""
    ends = [samples[0]] + [(a + b) / 2 for a, b in zip(samples, samples[1:])]
    return sum(e * g for e, g in zip(ends, gaps)) / sum(gaps)


class Pace:
    """Samples the kernel's time on a SIGALRM timer while installed."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[float] = []  # kernel times
        self.gaps: list[float] = []  # program time since the previous sample
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        gap = t0 - self._last
        runs = []
        for _ in range(9 if gap > 2 * self.interval else 3):
            t = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - t)
        self._last = time.perf_counter()
        self.samples.append(statistics.median(runs))
        self.gaps.append(gap)
        self.spent += self._last - t0

    def __enter__(self) -> "Pace":
        self._last = time.perf_counter()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def summary(self) -> dict:
        """What the parent needs to scale a wall time measured around it."""
        return {"spent_s": self.spent, "kernel_s": time_average(self.samples, self.gaps)}


def scaled(wall: float, pace: dict) -> float:
    """``wall`` in reference-host seconds, without the kernel's own time."""
    return (wall - pace["spent_s"]) * REF_KERNEL_S / pace["kernel_s"]
