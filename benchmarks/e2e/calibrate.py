"""Host-speed calibration: a fixed kernel timed between the pieces of a run.

The reference box is a 2-vCPU microVM on a shared host whose speed drifts
by 1.0-1.8x in phases of 5-60 s (other tenants on the sibling threads and
the shared cache; the guest sees no steal time, CPU time swings with wall
time).  Every estimator on raw seconds — median, best of N, the
per-segment minimum over deterministic repeats — spread 10-30 % between
runs of the same commit.  What is steady is the program's time *relative
to the host's speed at that moment*: a kernel that belongs to the
benchmark (interpreter work plus NumPy work, nothing of ``repro``) is
timed every few milliseconds between the steps of a run, and a time is
reported as

    measured seconds x REFERENCE_S / typical kernel seconds in the same window

i.e. in seconds of the calm reference box.  A change to the program
moves the numerator only, so a gain or a regression reads as it would on
a quiet machine; a slow phase of the host moves both and cancels (over
30 repeats each: ``sim_contended`` 7.9 % -> 2.8 % inter-quartile spread,
``train_conv_serial`` 16.7 % -> 4.5 %, ``train_rec_elastic`` 18.4 % ->
5.4 %; log-log slope of run time against kernel time 0.9-1.3).
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: the kernel's time on the reference box when the host is calm; a unit
#: constant, not a measurement: changing it rescales every reported time
REFERENCE_S = 65e-6
#: one sample per this much run time (with the pass that is not timed the
#: kernel costs ~3 % of a run; its time is never counted as the program's)
EVERY_S = 0.006
#: most samples taken in one place (a 50 ms training step earns 8)
BURST = 8
#: share of the samples dropped at each end before averaging: one
#: descheduled sample of 170 would otherwise move the mean by a third
TRIM = 0.1

_A = np.linspace(-1.0, 1.0, 64 * 64, dtype=np.float32).reshape(64, 64)
_B = np.linspace(0.5, 1.5, 64 * 64, dtype=np.float32).reshape(64, 64)


def kernel() -> float:
    """Fixed work of the kinds the workloads do: dict/str/sort, then NumPy.

    Only ints and strings are allocated in the loop: containers would
    advance the garbage collector's counters and make collections of the
    program's heap happen here, off the program's clock.
    """
    table = {}
    for i in range(320):
        table[(i * 7919) % 211] = str(i)
    ordered = sorted(table.values())
    product = _A @ _B
    np.maximum(product, 0.0, out=product)
    return len(ordered[0]) + float(product.sum())


class HostSpeed:
    """Samples of the kernel's duration and a clock that skips them."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: seconds spent in the kernel so far: not the program's time
        self.paused = 0.0
        self._last = 0.0

    def sample(self, count: int = 1) -> None:
        """Time the kernel ``count`` times, after one pass that is not timed.

        The first pass after a piece of the program finds the caches the
        program left and, after a blocking call, a core that was idle:
        it would measure the program's footprint, not the host's speed.
        """
        start = time.perf_counter()
        kernel()
        for _ in range(count):
            begin = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - begin)
        self._last = time.perf_counter()
        self.paused += self._last - start

    def tick(self) -> None:
        """One sample per ``EVERY_S`` passed since the last, at most ``BURST``.

        Called wherever the run is between two pieces of the program's
        work, however far apart those places are.
        """
        due = int((time.perf_counter() - self._last) / EVERY_S)
        if due:
            self.sample(min(due, BURST))

    def now(self) -> float:
        """``perf_counter`` without the time spent in the kernel."""
        return time.perf_counter() - self.paused

    def take(self) -> List[float]:
        """The samples since the last ``take`` (one window of the run)."""
        taken, self.samples = self.samples, []
        return taken


def factor(samples: List[float]) -> float:
    """Multiplier that turns seconds measured over ``samples``' window
    into seconds of the calm reference box (trimmed mean of the samples)."""
    ordered = sorted(samples)
    drop = int(len(ordered) * TRIM)
    kept = ordered[drop:len(ordered) - drop]
    return REFERENCE_S * len(kept) / sum(kept)
