"""Machine-speed probe.

The machines this benchmark runs on are shared: the same pure-Python loop
takes anywhere from 1x to 2x its best time, in phases lasting seconds to
minutes.  Process CPU time rises with wall time in those phases, so the
CPU runs slower rather than being taken away, and the drift is larger than
any bound a benchmark could hold.  While a run measures, a timer signal
interrupts it every ``INTERVAL_S`` and times a fixed piece of Python work
(dictionary updates with complex values, as in the kernel).  A measured
interval is then reported in *reference seconds*: its wall time, less the
probe's own time, times ``REFERENCE_S`` over the mean probe time inside the
interval.  The program itself runs unchanged.

The probe runs in the program's own process, on the CPU the program runs
on.  A probe in a second process sees the other CPU, whose speed drifts
separately, and corrected less of the drift.  The price is that the probe
shares the process's caches and allocator, so a change that slowed the
probe itself would be partly divided out; the benchmark therefore prints
the unscaled times and the scale factor beside every scaled result.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.1
REFERENCE_S = 1.0e-3  # probe time that defines one reference second
_PROBE_ITEMS = 2500

perf = time.perf_counter


def reference_work():
    amps = {}
    for i in range(_PROBE_ITEMS):
        amps[i * 7 % 509] = complex(i, 1) * 0.5
    return amps


def probe_times(count: int) -> list[float]:
    """Durations of ``count`` back-to-back runs of the probe."""
    times = []
    for _ in range(count):
        t0 = perf()
        reference_work()
        times.append(perf() - t0)
    return times


class SpeedProbe:
    """Samples the probe's duration every INTERVAL_S while entered."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []

    def _sample(self, _signum, _frame):
        t0 = perf()
        reference_work()
        t1 = perf()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """(probe seconds spent inside [t0, t1], reference seconds per wall
        second there).  An interval too short to hold a sample takes the
        nearest one."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        inside = self.durations[lo:hi]
        if inside:
            return sum(inside), REFERENCE_S * len(inside) / sum(inside)
        if not self.durations:
            raise RuntimeError("the speed probe took no sample")
        nearest = min(max(lo, 0), len(self.durations) - 1)
        return 0.0, REFERENCE_S / self.durations[nearest]

