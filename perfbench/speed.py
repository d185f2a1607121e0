"""Machine-speed probe for the timed runs.

The benchmark shares a few cores, their caches and their memory bus with
other tenants of the host, and the speed those leave it changes over
seconds to minutes: on a shared 2-core machine a fixed quadrature timed
back to back ranged over +-15% in phases several seconds long, and the
median batch of ten `stability` runs spread by up to 0.3 of its median
from run to run. Batches medianed within a run cannot take out phases
longer than the run. To take them out, a
``Sampler`` runs a fixed calibration slice every ``PERIOD_S`` seconds of a
timed run, from a SIGALRM handler in the driver process, so the slices fall
inside the package calls as well as between them. The time of every slice
is taken out of the time of the operation it interrupted, and the slice
durations measure the speed of the machine while the operation ran.

A time is then reported in reference seconds: the measured time times
``REF_SLICE_S`` over the median slice duration seen during it. On a machine
whose slices take ``REF_SLICE_S`` the two are the same. A change to the
package moves the measured time and not the slices, so it shows in full.

The slice is the same kind of work as the package's hot loops: elementwise
numpy expressions over arrays larger than a core's L2 cache, as in the
quadrature, then a short interpreted loop, as in the searches around it.
Slices that reuse preallocated, cache-warm buffers were tried and rejected:
a busy neighbour core slowed them two- to threefold while it slowed the
quadrature by a few percent, so they would have overcorrected.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
# typical median slice on the reference machine, a shared 2-core x86_64
# Xeon guest with numpy 2.4 and Python 3.11 (17.8-24 ms over ten runs)
REF_SLICE_S = 0.020

_N = 1 << 19
_LOOP = 1000
_rng = np.random.default_rng(20240607)
_A = _rng.random(_N) + 0.1
_B = _rng.random(_N) - 0.5
_W = _rng.random(_N)


def kernel():
    """One calibration slice; its result is fixed. Like the quadrature it
    allocates a fresh 4 MB array for each intermediate, so the allocator
    and page faults cost it what they cost the package."""
    t2 = _A * _A + _B * _B
    denom = (t2 + 1.3) ** 2 - (0.7 * _B) ** 2
    f = (0.5 * t2 + 1.1) ** -0.25 * np.abs(_B) / denom
    acc = float((f * _W).sum())
    for i in range(_LOOP):
        acc += math.sqrt(i + acc) * 1e-9
    return acc


def probe():
    """Time of one slice."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Sampler:
    """Runs ``kernel`` every ``period`` seconds while started.

    ``spent`` is the total time spent in the handler; ``slices`` holds
    the time of each slice, in order.
    """

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.slices = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.slices.append(probe())
        self.spent += time.perf_counter() - t0

    def start(self):
        probe()                     # first run, outside any timing
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None


def factor(slices):
    """Reference seconds per measured second for these slice durations."""
    return REF_SLICE_S / statistics.median(slices)
