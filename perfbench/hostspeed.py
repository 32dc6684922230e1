"""The host's current speed, sampled with a fixed reference kernel.

On a shared host the same code runs up to 1.8x slower while other
tenants load the physical cores, in bursts of seconds and in phases of
half an hour. The slowdown is charged to the process as CPU time, so
process CPU time moves with it as much as wall time does, and there is
no hardware counter in the guest to count instructions instead. The
reference kernel below, pure Python like iotak, slows down by about the
same factor.

A HostSpeed runs the kernel every PERIOD_S seconds from an interval
timer, also in the middle of a long library call, and scales a measured
interval by NOMINAL_S over the harmonic mean kernel time of the
samples during it: the result is the time the interval takes when the host runs at the
speed where one kernel run takes NOMINAL_S. The signal handler runs in
the main thread, between bytecodes, so the workload stays one thread;
the time the handler takes is subtracted from every interval.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Tuple

# one kernel run at the fast speed of a 2-vCPU Intel Xeon (Sapphire
# Rapids) KVM guest; it only sets the scale of normalized times
NOMINAL_S = 0.00045
# a short kernel sampled often tracks the speed better than a long one
# sampled seldom; the handler takes about 6% of the run
PERIOD_S = 0.01
ROWS = 40
TERMS = 600
WARMUP_RUNS = 20


class _Term:
    __slots__ = ("key", "coef")

    def __init__(self, key, coef):
        self.key = key
        self.coef = coef

    def plus(self, other: "_Term") -> "_Term":
        return _Term(self.key, self.coef ^ other.coef)


def kernel() -> int:
    """Fixed pure-Python work in iotak's idiom: GF(2) elimination on int
    bitsets, dict-of-dict updates and small objects. Same work every call."""
    piv = {}
    x = 0x9E3779B97F4A7C15
    for i in range(ROWS):
        x = (x * 6364136223846793005 + 1442695040888963407) & ((1 << 160) - 1)
        row = x
        while row:
            h = row.bit_length() - 1
            if h in piv:
                row ^= piv[h]
            else:
                piv[h] = row
                break
    table = {}
    for i in range(TERMS):
        inner = table.setdefault(i % 37, {})
        term = _Term((i % 11, i % 7), i & 0xFF)
        old = inner.get(term.key)
        inner[term.key] = term if old is None else old.plus(term)
    return len(piv) + sum(len(v) for v in table.values())


class HostSpeed:
    """Use as a context manager around the measured part of a run."""

    def __init__(self):
        self.mids: List[float] = []  # midpoint of each kernel run
        self.kernel_s: List[float] = []  # and its duration
        self.spent = 0.0  # seconds spent in the handler so far
        self._busy = False

    def _sample(self, *_) -> None:
        if self._busy:  # a kernel run that took longer than the period
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.mids.append((start + end) / 2)
        self.kernel_s.append(end - start)
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        for _ in range(WARMUP_RUNS):
            kernel()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def clock(self) -> float:
        """Wall time without the handler's time."""
        return time.perf_counter() - self.spent

    def now(self) -> Tuple[float, float]:
        """A mark for interval(): wall time and handler time so far."""
        return time.perf_counter(), self.spent

    def interval(self, mark: Tuple[float, float]) -> Tuple[float, float, float]:
        """(start, end, seconds) since `mark`, the seconds without the
        handler's time; normalize it once the samples after it exist."""
        start, spent = mark
        end = time.perf_counter()
        return start, end, (end - start) - (self.spent - spent)

    def normalize(self, interval: Tuple[float, float, float]) -> float:
        """The interval's seconds at the nominal speed: scaled by the
        harmonic mean kernel time of the samples within it, widened by
        one period on each side so that short intervals have samples.
        The harmonic mean is the mean speed over the interval; a kernel
        run that was descheduled for a moment weighs little in it."""
        start, end, seconds = interval
        lo = bisect.bisect_left(self.mids, start - PERIOD_S)
        hi = bisect.bisect_right(self.mids, end + PERIOD_S)
        near = self.kernel_s[lo:hi] or self.kernel_s
        return seconds * NOMINAL_S / statistics.harmonic_mean(near)
