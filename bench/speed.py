"""A speed probe of the host, to put times taken at different host speeds
on one scale.

The benchmark runs on a share of a host whose speed drifts: the same fixed
loop runs up to twice as long in one stretch as in another, with the
process on the CPU all the while (CPU time drifts with wall time).  So
while a run measures, a ``Sampler`` runs a short probe, a fixed piece of
pure-Python work that does not touch solvquot, every INTERVAL_S
seconds from a timer signal.  A measured time is then scaled by
REFERENCE_S / (the mean probe time in and around it): a scaled time is
the time the work would have taken at the speed at which the probe takes
REFERENCE_S.  The probes' own time is taken out of the measured time
before it is scaled.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right


# A typical probe time on the reference machine (the median over the runs
# whose figures README.md gives), so that scaled times read close to wall
# times there.  Only the ratio of two figures scaled by it means anything.
REFERENCE_S = 0.0045
INTERVAL_S = 0.1
# A time is scaled by the probes of at least this much wall time around it.
WINDOW_S = 1.0
# Share of the probe times cut from each end before they are averaged.
TRIM = 0.1


def probe():
    """Seconds taken by one fixed piece of work: fill a dict with 20000 int
    keys spread over a million (the table outgrows the core's own caches
    while it is resized), then read it all back.  Of the probes tried, this
    one's time followed that of the lifting loop and of the subgroup search
    most closely."""
    t0 = time.perf_counter()
    seen = {}
    for i in range(20000):
        seen[(i * 2654435761) & 0xFFFFF] = i
    total = 0
    for k in seen:
        total += seen[k]
    return time.perf_counter() - t0


def trimmed_mean(values):
    """The mean of ``values`` without the lowest and the highest TRIM of
    them.  A mean, not a median: a stretch of work takes as long as the sum
    of its slices, so a slow spell covering a third of it counts for a
    third; the trim keeps one probe caught by a stray interruption from
    counting for more."""
    v = sorted(values)
    cut = int(len(v) * TRIM)
    v = v[cut:len(v) - cut]
    return sum(v) / len(v)


class Sampler:
    """Probes the host every INTERVAL_S seconds while it is active (a
    context manager).  The probe runs in the SIGALRM handler, so it
    interrupts the work being measured between two bytecodes."""

    def __init__(self):
        self.at = array("d")  # start of each probe
        self.took = array("d")  # its duration
        self._busy = False
        self._old = None

    def _on_alarm(self, _signum, _frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            took = probe()
            self.at.append(t0)
            self.took.append(took)
        finally:
            self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def probe_seconds(self, t0, t1):
        """Time spent probing between t0 and t1."""
        lo, hi = bisect_left(self.at, t0), bisect_right(self.at, t1)
        return sum(self.took[lo:hi])

    def scale(self, t0, t1):
        """Factor that takes a time measured between t0 and t1 to the
        reference speed: from the probes in [t0, t1], widened about its
        middle to WINDOW_S when shorter."""
        if t1 - t0 < WINDOW_S:
            mid = (t0 + t1) / 2
            t0, t1 = mid - WINDOW_S / 2, mid + WINDOW_S / 2
        lo, hi = bisect_left(self.at, t0), bisect_right(self.at, t1)
        if hi - lo < 3:  # too few probes near: fall back on all of them
            lo, hi = 0, len(self.at)
        if hi == lo:
            return 1.0
        return REFERENCE_S / trimmed_mean(self.took[lo:hi])

    def scaled(self, t0, t1):
        """The time from t0 to t1 less the probes run in it, scaled to the
        reference speed."""
        return (t1 - t0 - self.probe_seconds(t0, t1)) * self.scale(t0, t1)

    def median_probe(self):
        return statistics.median(self.took) if self.took else 0.0
