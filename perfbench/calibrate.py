"""Calibration loop that rescales measured times to a reference speed.

The machines this benchmark runs on are shared: the speed of one core drifts
by tens of percent over minutes, with other tenants' load, and the drift
lasts longer than one run.  Medians within a run cannot remove it.  So each
run also times this fixed loop of pure-Python work of the kind the library
does (61-bit modular powers, ``Fraction`` sums, tuple-keyed dicts), several
times spread over the run, and each time metric is reported scaled by
``REFERENCE_MS / median loop time``: milliseconds on a machine where the
loop takes ``REFERENCE_MS``.  The loop does not touch the library, so a
change to the library moves the scaled times exactly as it moves the raw
ones.  The raw times are in the report line next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# About the loop's time on a quiet core of the 2-core Xeon the baseline in
# README.md was measured on.
REFERENCE_MS = 5.0

# A sample is scaled by the median of the WINDOW loop times nearest to it.
WINDOW = 5


def _loop() -> int:
    p = (1 << 61) - 1
    x = 12345
    table = {}
    acc = Fraction(0)
    for i in range(1500):
        x = x * x % p
        table[(i & 63, i)] = pow(x, p - 2, p) if i % 50 == 0 else x
        acc = Fraction(i + 1, 7) + Fraction(3, i + 2)
    return len(table) + acc.denominator


def calibration_ms() -> float:
    """Milliseconds one pass of the loop takes now."""
    start = time.perf_counter()
    _loop()
    return (time.perf_counter() - start) * 1000


def scale_factor(calibrations: list[float], cal_before: list[int], index: int) -> float:
    """Factor from measured time to time at the reference speed for sample
    ``index`` (-1: before the first), where loop time ``calibrations[k]`` was
    taken after ``cal_before[k]`` samples."""
    after = bisect.bisect_right(cal_before, index)
    lo = max(0, min(after - (WINDOW + 1) // 2, len(calibrations) - WINDOW))
    return REFERENCE_MS / statistics.median(calibrations[lo:lo + WINDOW])
