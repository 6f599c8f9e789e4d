"""Machine-speed samples, for timing on a shared host whose speed drifts.

On a shared virtual machine the same code runs up to 1.8 times slower
from one second to the next, and the mix of fast and slow stretches
drifts over minutes, so a bare stopwatch reading of a multi-second op
spreads by a quarter or more between runs.  `Pace` samples the speed in
the measured thread itself: every ``INTERVAL_S`` of wall time a SIGALRM
handler times ``reference_loop``, a fixed pure-Python loop that allocates
nothing the garbage collector tracks, so its cost does not depend on the
program's heap.  `at_reference_speed` turns an interval's wall time into
the time it would have taken at the speed where the loop takes
``NOMINAL_LOOP_S``: the wall time, less the sampler's own time, times
``NOMINAL_LOOP_S`` over the loop's mean time in that interval.

Signals reach Python code between bytecodes, so a long call into C code
delays the next sample; the samples then describe the Python-level parts
of the interval.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
LOOP_ITERATIONS = 300
# About the loop's time on the development machine (2 vCPU Xeon VM,
# Python 3.11) in its fast stretches; a fixed scale, not a calibration.
NOMINAL_LOOP_S = 80e-6


def reference_loop() -> complex:
    acc = 0j
    x = 1.0
    for i in range(LOOP_ITERATIONS):
        acc += complex(x, i) * 0.5
        x = x * 1.0000001 + 1e-9
    return acc


class Pace:
    """Counts reference-loop samples and their total time since `start`."""

    def __init__(self) -> None:
        self.samples = 0
        self.loop_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.loop_s += time.perf_counter() - t0
        self.samples += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> list:
        """[samples, loop seconds] so far; subtract two marks for an interval."""
        return [self.samples, self.loop_s]


def since(pace_mark: list, earlier: list) -> list:
    return [pace_mark[0] - earlier[0], pace_mark[1] - earlier[1]]


def at_reference_speed(wall_s: float, interval: list, fallback_loop_s: float) -> float:
    """WALL_S of an interval with sampler counts INTERVAL, at nominal speed.

    An interval without a sample (one long call into C code) takes the
    loop's mean time FALLBACK_LOOP_S over the whole run.
    """
    samples, loop_s = interval
    mean = loop_s / samples if samples else fallback_loop_s
    return (wall_s - loop_s) * NOMINAL_LOOP_S / mean
