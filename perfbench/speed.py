"""Interpreter-speed sampling, to take the shared machine's drift out of timings.

On a shared 2-vCPU box the same pure-Python loop takes anywhere from 0.15
to 0.25 s, as other tenants come and go.  The speed changes within a
second as well as over minutes: one 0.12 s ``analyze`` call, repeated,
took 0.11 to 0.23 s, and its time followed the loop's.  Raw seconds of one
run therefore spread by 20-30% between runs.  While a pass runs, a SIGALRM
timer runs a fixed calibration loop every PERIOD_S seconds.  Seconds are
then scaled by REFERENCE_S / (mean loop time): "seconds at reference
speed".  A pass is scaled by all of its samples, and a call by the samples
taken during it and the one on either side.  The time the samples take is
kept out of the pass's own clock.

Set-up is timed in fresh interpreters, which are mostly process start and
imports.  The loop does not track their speed, but a bare interpreter start
does: over ten runs of eleven probes, set-up medians spread 0.23 raw and
0.07 once scaled by START_REFERENCE_S / (median bare start).
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

LOOP = 10_000
REFERENCE_S = 1.0e-3  # the loop's nominal time; scaled seconds assume it
PERIOD_S = 0.02
START_REFERENCE_S = 0.07  # a bare `python -c pass`'s nominal time; scaled set-up assumes it


def calibration_loop() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Context manager: samples the loop on a timer while the block runs.

    ``clock()`` is ``perf_counter`` minus the time spent sampling, so code
    timed with it does not pay for the samples.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stamps: list[float] = []  # clock() at each sample
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.stamps.append(t0 - self.spent)
        self.samples.append(calibration_loop())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Multiplier from measured seconds to seconds at reference speed.

        It uses the samples taken from ``start`` to ``end`` (``clock()``
        values) and the nearest one on either side; by default all of them.
        """
        if not self.samples:  # a block shorter than one period
            self.stamps.append(self.clock())
            self.samples.append(calibration_loop())
        lo = max(bisect.bisect_left(self.stamps, start) - 1, 0)
        hi = bisect.bisect_right(self.stamps, end) + 1
        return REFERENCE_S / statistics.mean(self.samples[lo:hi])

