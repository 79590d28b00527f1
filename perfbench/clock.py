"""A clock that calibrates itself against the machine's current speed.

On a shared two-core box the same pure-Python loop runs anywhere from 0.6x
to 1.0x of its best speed, in phases that last tens of seconds, and process
time moves with wall time.  Raw times from two runs minutes apart can differ
by a quarter with no change to the code.

So the worker samples a fixed reference loop every ``INTERVAL_S`` seconds
from a timer signal, in between the program's own bytecodes.  The sampler's
own time is taken out of both clocks, so ``now()`` and ``cpu()`` advance only
while the program runs.  Each sample gives a speed factor
``REFERENCE_S / measured``; a time spent in the program, multiplied by the
mean factor of the samples taken meanwhile, is in *reference seconds*: the
seconds it would have taken had the reference loop run in ``REFERENCE_S``.
Every time the benchmark reports is in reference seconds, next to the raw
value it came from.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter, process_time

__all__ = ["SpeedClock", "reference_loop"]

INTERVAL_S = 0.15
# About the reference loop's time in the slow phases of the machine the
# benchmark was defined on (Intel Xeon, 2 vCPUs, Python 3.11).  It only sets
# the scale of reference seconds; changing it rescales every reported time.
REFERENCE_S = 0.0035


def reference_loop() -> int:
    """Fixed pure-Python work: integer arithmetic, lists, tuples and a dict."""
    table: dict[tuple[int, int], int] = {}
    rows = [[(i * 7 + j * 3) % 11 - 5 for j in range(80)] for i in range(80)]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            key = (j, x)
            table[key] = table.get(key, 0) + i * x
    return sum(table.values())


class SpeedClock:
    """Program-only wall and CPU clocks plus timed speed samples."""

    def __init__(self) -> None:
        self._paused_wall = 0.0
        self._paused_cpu = 0.0
        self._times: list[float] = []      # now() at each sample
        self._factors: list[float] = []
        self._previous = None
        self._sampling = False

    def now(self) -> float:
        return perf_counter() - self._paused_wall

    def cpu(self) -> float:
        return process_time() - self._paused_cpu

    def sample(self, *_signal_args) -> None:
        if self._sampling:    # a timer signal arrived while sampling
            return
        self._sampling = True
        # The collector stays off during the loop, so a sample measures the
        # machine and not the program's heap; its collections stay its own.
        gc_was_on = gc.isenabled()
        gc.disable()
        w0, c0 = perf_counter(), process_time()
        reference_loop()
        w1 = perf_counter()
        if gc_was_on:
            gc.enable()
        self._times.append(w0 - self._paused_wall)
        self._factors.append(REFERENCE_S / (w1 - w0))
        self._paused_wall += perf_counter() - w0
        self._paused_cpu += process_time() - c0
        self._sampling = False

    def start(self) -> None:
        """Take one sample now, then one every interval from SIGALRM."""
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self.sample()

    def factor(self, start: float, end: float) -> float:
        """Mean speed factor of the samples in [start, end] on the ``now()``
        clock and of the nearest sample on each side of it."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        near = self._factors[max(lo - 1, 0):hi + 1]
        return statistics.fmean(near) if near else 1.0

    @property
    def samples(self) -> int:
        return len(self._factors)
