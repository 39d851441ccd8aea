"""Host-speed calibration for the timed loop.

The host this benchmark was built on gives it cores whose speed switches,
every few seconds, between a fast state and one about 1.7 times slower (a
busy neighbour on the same physical core). Wall times then move with the
neighbour, not with the program. A fixed reference kernel -- a pure-Python
loop and a chain of small numpy operations, the two kinds of work retline
does -- slows down in the same proportion, so the benchmark times it next to
the program and converts the program's wall time into reference seconds:

    ref_seconds = wall_seconds * REF_KERNEL_S / kernel_seconds_at_that_time

REF_KERNEL_S is the kernel's fast-state time on the reference host (2-vCPU
Intel Xeon VM, CPython 3.11, numpy 2.4 with one OpenBLAS thread), so there a
wall second in the fast state is one reference second. It only fixes the
unit: a program twice as fast does twice the items per reference second.

`Sampler` runs the kernel from a SIGALRM interval timer every INTERVAL_S of
wall time while the closed loop runs. The handler runs on the main thread
between bytecodes, so it interrupts the program and never runs beside it;
`account` takes its time out of the call it interrupted and gives each piece
of the call the speed of the kernel samples on either side of it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REF_KERNEL_S = 0.0097
INTERVAL_S = 0.25
WINDOW = 1
PY_ITERATIONS = 30000
NP_ITERATIONS = 400

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((16, 64))
_W = _rng.standard_normal((64, 64)) / 8


def kernel():
    """Fixed work: an integer and dict loop, then small matrix products and
    elementwise numpy operations on a 16x64 array."""
    total, table = 0, {}
    for i in range(PY_ITERATIONS):
        total += i * 3 % 7
        table[i & 255] = total
    x = _X
    for _ in range(NP_ITERATIONS):
        y = x @ _W + 1.0
        y = np.exp(-y * y)
        x = y - y.mean(axis=1, keepdims=True)
    return total, x


class Sampler:
    """Kernel samples (start, seconds), taken on a timer while active."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _record(self, *_):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def burst(self, n: int) -> list:
        """Take `n` samples now; returns their times."""
        for _ in range(n):
            self._record()
        return [s for _, s in self.samples[-n:]]

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._record)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _seconds_near(self, before: int, after: int) -> float:
        """Median kernel time over the samples `before` and `after` and
        WINDOW more on either side: robust to a single slow sample, and
        still following a change of host state within about a second."""
        lo = max(0, before - WINDOW)
        times = [s for _, s in self.samples[lo:after + WINDOW + 1]]
        return statistics.median(times)

    def account(self, start: float, end: float):
        """(wall seconds, reference seconds) of a call from `start` to `end`,
        both without the kernel samples taken inside it."""
        starts = [t for t, _ in self.samples]
        first = bisect.bisect_left(starts, start)
        stop = bisect.bisect_left(starts, end)
        wall = ref = 0.0
        cursor = start
        for i in range(first, stop + 1):
            piece_end = self.samples[i][0] if i < stop else end
            piece = piece_end - cursor
            wall += piece
            ref += piece * REF_KERNEL_S / self._seconds_near(i - 1, i)
            if i < stop:
                cursor = self.samples[i][0] + self.samples[i][1]
        return wall, ref
