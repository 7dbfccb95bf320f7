"""Machine speed, so that times can be reported at a fixed reference speed.

The cores this benchmark runs on are shared, and their speed drifts by tens
of percent over seconds to minutes; repeating the work does not average that
out.  So every timed interval is paired with timings of a fixed loop of
integer and rational arithmetic that does not use cosym3, taken on the same
core at the same time, and reported as

    wall time * REFERENCE_LOOP_S / loop time

which is the wall time the work would have taken at the speed where the loop
takes REFERENCE_LOOP_S.  The loop allocates little and runs with the garbage
collector off, so the program's heap barely changes its cost.  Raw wall
times are reported next to the scaled ones.
"""

from __future__ import annotations

import gc
import os
import random
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

REFERENCE_LOOP_S = 0.004
PERIOD_S = 0.2
WINDOW_S = 1.0


_RNG = random.Random(0)
_MATRIX = [[Fraction(_RNG.randint(-5, 5)) for _ in range(7)] for _ in range(6)]


def _integer_loop() -> None:
    total = 0
    for i in range(30_000):
        total += i * i % 7


def _fraction_elimination() -> None:
    """Exact elimination on a fixed 6 x 7 rational matrix."""
    m = [row[:] for row in _MATRIX]
    for col in range(6):
        pivot = next((i for i in range(col, 6) if m[i][col]), None)
        if pivot is None:
            continue
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        for i in range(6):
            if i != col and m[i][col]:
                factor = m[i][col] * inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[col])]


def loop_time() -> float:
    """Seconds taken by the fixed speed loop: integer and rational arithmetic."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _integer_loop()
        _fraction_elimination()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(loops: list[float]) -> float:
    """Factor from wall time to time at the reference speed.

    The median loop time is used: a loop stretched by an interrupt or a
    context switch then does not move it.
    """
    return REFERENCE_LOOP_S / statistics.median(loops)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one core.

    The cores can run at different speeds at the same moment, so the loop
    must be timed on the core that does the work.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class SpeedProbe:
    """Times the loop every PERIOD_S from a timer signal while work runs."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.loops: list[float] = []
        self.spent = 0.0
        self._previous = None

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        self.at.append(t0)
        self.loops.append(loop_time())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.sample()
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor to the reference speed for work done between start and end."""
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        return scale(self.loops[lo:hi] or self.loops)
