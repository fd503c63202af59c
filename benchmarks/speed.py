"""Times expressed in units of a fixed reference kernel.

The benchmark is meant for shared machines whose speed drifts: on the
two-vCPU host it was sized on, the same pure-Python work ran at its best
speed or up to about 1.7x slower, flipping between the two within
seconds.  Process and thread CPU time slow down with the wall clock
there, so neither removes the drift, and raw figures differ between runs
by more than any useful regression bound.

So while work runs, a timer samples a reference kernel (pure-Python
``Fraction`` arithmetic, the same kind of work starbimod does, and no
starbimod code) every ``INTERVAL_S`` seconds.  Intervals are read on
``Sampler.clock``, which leaves out the time the samples took.  An
interval is scaled by ``NOMINAL_S / r``, where r is the mean kernel time
sampled during it and one interval either side.  A scaled second is the
time the work would take on a host where the kernel runs in
``NOMINAL_S``: a slow spell slows the work and the kernel alike and
cancels out.  The cyclic garbage collector is paused while the kernel
runs, so a collection set off by the kernel's allocations, which would
walk the program's live objects, is not billed to the kernel.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.0005
INTERVAL_S = 0.02
KERNEL = "Fraction(i, 3) * Fraction(3, 7) + Fraction(1, i) for i in 1..99"


def _kernel():
    for i in range(1, 100):
        Fraction(i, 3) * Fraction(3, 7) + Fraction(1, i)


class Sampler:
    """Samples the kernel from a SIGALRM timer while the ``with`` block runs.

    Only for the main thread of a process that uses no other SIGALRM timer.
    """

    def __init__(self):
        self.times = []  # on clock(), when each sample started
        self.durations = []
        self.stolen = 0.0  # total time spent sampling

    def clock(self) -> float:
        """perf_counter() less the time spent sampling so far."""
        while True:
            stolen = self.stolen
            now = perf_counter()
            if self.stolen == stolen:  # no sample ran between the two reads
                return now - stolen

    def _sample(self, signum=None, frame=None):
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _kernel()
        end = perf_counter()
        if collecting:
            gc.enable()
        self.times.append(start - self.stolen)
        self.durations.append(end - start)
        self.stolen += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean kernel time sampled around [start, end] on clock()."""
        lo = bisect_left(self.times, start - INTERVAL_S)
        hi = bisect_right(self.times, end + INTERVAL_S)
        if lo == hi:  # the timer was held up by one long native call
            lo, hi = max(0, lo - 1), min(len(self.times), lo + 1)
        window = self.durations[lo:hi]
        return NOMINAL_S * len(window) / sum(window)

    def summary(self) -> dict:
        ordered = sorted(self.durations)
        return {
            "kernel": KERNEL,
            "nominal_s": NOMINAL_S,
            "interval_s": INTERVAL_S,
            "samples": len(ordered),
            "min_s": ordered[0],
            "median_s": ordered[len(ordered) // 2],
            "max_s": ordered[-1],
            "sampling_s": self.stolen,
        }
