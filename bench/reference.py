"""A fixed stdlib-only loop whose time stands for the machine's current speed.

On a shared machine the CPU speed of the same code drifts by up to 85%
over seconds to minutes, as neighbours come and go.  Dividing an op's time
by the time of this loop, sampled while the op runs, cancels most of that
drift: over the same periods the ratio of a crossn op to this loop moved by
5 to 10%.  The loop mixes the kinds of work crossn does (a scattered walk
over a heap larger than the CPU caches, Fraction arithmetic, small frozen
dataclasses, tuple sorting and recursion) and calls no crossn code, so no
change to crossn can move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import List


@dataclass(frozen=True, slots=True)
class _Cell:
    sign: int
    index: int


def _walk(i: int, depth: int) -> int:
    return i if depth == 0 else _walk((i * 7 + 3) % 1009, depth - 1) + 1


# A heap of small objects well beyond the CPU caches, walked in a fixed
# scattered order, so that the loop also waits on memory as crossn's large
# tables do.
_HEAP = [_Cell(i & 1, i) for i in range(1 << 17)]
_WALK = [(i * 40503) % len(_HEAP) for i in range(4000)]


def _loop():
    heap = _HEAP
    reach = sum(heap[i].index for i in _WALK)
    acc = Fraction(reach % 7)
    for i in range(1, 120):
        acc += Fraction(i, 3) * Fraction(7, i + 1)
    cells = [_Cell(1 - 2 * (i & 1), i) for i in range(600)]
    rows = sorted((c.sign, c.index) for c in cells)
    return acc, rows[0], sum(_walk(i, 12) for i in range(150))


def measure(repeats: int = 3) -> float:
    """Median seconds of one loop, about 3 ms on a 2-core cloud VM."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        _loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Sampler:
    """Times the reference loop from a wall-clock timer signal.

    The signal handler runs between bytecodes of whatever is executing, so
    long ops are sampled while they run.  ``stolen`` adds up the handler's
    own time, which callers subtract from the ops they time.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.times: List[float] = []  # when each sample was taken
        self.loops: List[float] = []  # seconds of one loop, per sample
        self.stolen = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        self.times.append(start)
        self.loops.append(measure(repeats=1))
        self.stolen += perf_counter() - start

    def __enter__(self):
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def speed(self, start: float, end: float) -> float:
        """Mean loop time over ``[start, end]``, with the samples either side."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = min(bisect.bisect_right(self.times, end) + 1, len(self.times))
        window = self.loops[lo:hi]
        return sum(window) / len(window)
