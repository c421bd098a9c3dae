"""The host's pace, sampled around and during each timed call.

The reference machine is a VM on a shared host whose speed changes by up
to 3x, in spells of seconds to minutes, on both vCPUs at once (see
`design.json`).  Wall times taken minutes apart are therefore not
comparable.  This module measures how fast the host runs *now* with a
fixed calibration kernel, so that a verdict's wall time can be converted
to *reference seconds*: the time the same work takes when the kernel runs
in `REFERENCE_KERNEL_S`.

The kernel does what chainalg does most -- Python-level integer
arithmetic, small tuples as dict keys, `Fraction` additions -- and its
time tracks chainalg's own under the host's slow spells (a log-log slope
of 0.94 against homology verdict times, correlation 0.95).  It runs with
the garbage collector off, so that no collection of the program's heap
is timed as part of a sample.

`Pacer.start()` takes three kernel samples and arms a 50 ms interval
timer whose SIGALRM handler takes one sample each time it fires;
`Pacer.stop()` disarms it and takes three more.  The time the handler
spent inside the timed call is returned by `stop()`, to be subtracted
from the call's wall time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# Kernel time at the reference pace: the median kernel time on the
# reference machine in its fast state (2 vCPUs, Python 3.11.7).
REFERENCE_KERNEL_S = 0.0002
INTERVAL_S = 0.05
EDGE_SAMPLES = 3


def kernel(n: int = 300):
    """A fixed piece of chainalg-like work, about 0.2 ms."""
    table = {}
    acc = Fraction(0)
    x = 1
    for i in range(n):
        x = (x * 48271 + i) % 2147483647
        key = (i % 97, x % 13)
        table[key] = table.get(key, 0) + x
        if i % 8 == 0:
            acc += Fraction(x % 101 + 1, i % 7 + 1)
    return len(table), acc


def kernel_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def warm_up(times: int = 20) -> None:
    """Run the kernel until the interpreter has specialised it, so that the
    first samples of a run are not slower than the rest."""
    for _ in range(times):
        kernel_seconds()


class Pacer:
    """Samples the kernel before, during and after one timed call."""

    def __init__(self):
        self._previous = signal.SIG_DFL
        self.before = []
        self.during = []
        self.after = []

    def _on_alarm(self, signum, frame):
        self.during.append(kernel_seconds())

    def start(self) -> None:
        self.before = [kernel_seconds() for _ in range(EDGE_SAMPLES)]
        self.during = []
        self.after = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """Disarm the timer; return the seconds spent sampling since
        `start()` returned."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.after = [kernel_seconds() for _ in range(EDGE_SAMPLES)]
        return sum(self.during)

    def scale(self) -> float:
        """Reference seconds per wall second over the sampled interval.

        The samples taken during the call are evenly spaced in time, so the
        mean of REFERENCE_KERNEL_S / kernel time over them (with the median
        of each edge triple as one more sample at each end) weights each
        stretch of the call by how fast the host ran then.
        """
        points = ([statistics.median(self.before)] + self.during
                  + [statistics.median(self.after)])
        return statistics.fmean(REFERENCE_KERNEL_S / c for c in points)
