"""A clock that measures work in units of the host's speed at that moment.

On a shared virtual machine the same pure-Python big-integer loop can take
anywhere from 1x to 1.8x its best time, and the speed swings on a scale of
seconds.  Raw wall time of a multi-second operation then repeats only to
within tens of percent.  This clock divides time by the local speed instead:

* A ``setitimer(ITIMER_REAL)`` signal fires every ``INTERVAL_S`` seconds.
  Its handler runs a fixed calibration kernel (``int`` and ``Fraction``
  arithmetic only, about 1.5 ms) and times it.
* Each wall interval between two kernels is divided by the local kernel
  time, the mean of the two kernels that bracket it, and added up.  The
  kernels' own time is left out.  Wider windows (medians of 3 to 15
  kernels) tracked the speed worse: it changes within a few samples.
* ``REFERENCE_KERNEL_S`` converts the sum from kernel units back to seconds.

The kernel imports nothing from the program under test and never touches
mpmath's global context, which the program may be in the middle of using
when the signal arrives.  Signal handlers run in the main thread only, so the
clock must be used from a single-threaded process.
"""

from __future__ import annotations

import math
import signal
import time
from fractions import Fraction

#: Median kernel time during the workloads on the machine the benchmark was
#: tuned on (2 vCPU Xeon, CPython 3.11), so that calibrated seconds read close
#: to wall seconds there.  A fixed constant: calibrated seconds stay
#: comparable across runs and commits.
REFERENCE_KERNEL_S = 0.00165

#: Seconds between calibration samples.
INTERVAL_S = 0.04

# The kernel mixes six kinds of work in about equal time, because the host's
# speed swings do not slow every kind of work alike: fixed-point series at
# high (3400-bit) and low (400-bit) precision, as in mpmath's pure-Python
# backend; Fraction products like the exact term recurrences; a Fraction
# normalisation of 6000-bit numbers; plain object and dict code; and large
# integer products.  One sample of all six tracked a repeated operation's
# speed better than any one of them.
_P = 3400
_Y = (1 << _P) // 100003
_LOW = 400
_F1 = math.factorial(700)
_F2 = math.factorial(650) * 3 ** 300
_BA = 7 ** 2500
_BB = 11 ** 2000


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def step(self, c):
        return _Pair(self.b, (self.a + c) & 0xFFFF)


def _atanh_fixed(y: int, shift: int, terms: int) -> int:
    y2 = (y * y) >> shift
    term, total = y, 0
    for k in range(1, 2 * terms, 2):
        if not term:
            break
        total += term // k
        term = (term * y2) >> shift
    return total


def kernel() -> int:
    """Fixed calibration work, about 1.45 ms on the reference machine."""
    acc = _atanh_fixed(_Y, _P, 12)
    for c in (3, 5, 7, 11, 13):
        acc ^= _atanh_fixed((1 << _LOW) // c, _LOW, _LOW)
    t = Fraction(1)
    for n in range(25):
        t = t * Fraction((6 * n + 1) * (6 * n + 5), 1296 * (n + 1) * (n + 2))
        t = t * Fraction(130 * n + 109, 2 * n + 3)
    acc ^= t.numerator
    for i in range(6):
        acc ^= Fraction(_F1 + i, _F2 + 7 * i).numerator
    pair, table = _Pair(1, 2), {}
    for i in range(350):
        pair = pair.step(i)
        table[i & 63] = pair.a
    acc ^= pair.a
    for i in range(4):
        acc ^= (_BA + i) * _BB
    return acc


class CalibratedClock:
    """Calibrated seconds since ``start()``; see the module docstring."""

    def __init__(self):
        #: every kernel time taken, in seconds
        self.kernel_times = []
        # (calibrated units so far, perf_counter at the last kernel's end,
        # last kernel time); replaced as one tuple so ``now`` reads a
        # consistent triple even if the signal lands between its steps
        self._state = (0.0, 0.0, 1.0)
        self._busy = False
        self._previous_handler = None
        self.wall_start = 0.0

    def start(self) -> None:
        for _ in range(3):
            kernel()
        t0, t1 = self._time_kernel()
        self.wall_start = t1
        self._state = (0.0, t1, t1 - t0)
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def __enter__(self) -> "CalibratedClock":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _time_kernel(self) -> tuple:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.kernel_times.append(t1 - t0)
        return t0, t1

    def _sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            units, last_end, before = self._state
            t0, t1 = self._time_kernel()
            after = t1 - t0
            local = (before + after) / 2
            self._state = (units + (t0 - last_end) / local, t1, after)
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def now(self) -> float:
        """Calibrated seconds, interpolated from the last sample."""
        while True:
            state = self._state
            t = time.perf_counter()
            if state is self._state:
                break
        units, last_end, local = state
        return (units + (t - last_end) / local) * REFERENCE_KERNEL_S

    def mark(self) -> float:
        """Take a sample now, then read the clock; use at operation bounds."""
        self._sample()
        return self.now()

    def wall(self) -> float:
        """Raw wall seconds since ``start()``, for information only."""
        return time.perf_counter() - self.wall_start
