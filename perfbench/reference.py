"""A fixed loop that measures how fast the host runs the benchmark right now.

On a shared host the speed one CPU gives a process drifts by tens of percent,
in steps that last from seconds to minutes (other tenants' work on the same
physical cores). Wall time then follows the host as much as the program. The
worker times ``unit`` just before every stage call of an untraced repetition
and once after it, and divides the repetition's wall time by the mean of those
samples: the repetition's length in reference units. The drift slows the loop
and the pipeline alike, so the ratio follows the program.

The loop imports nothing from ``gistrank``, so no change to the program can
move it. Do not change it: every recorded ``wall_ref`` is in units of it.
"""

from __future__ import annotations

import time

_ITERATIONS = 40_000


def unit() -> int:
    """One reference unit: a pure-Python integer loop of a few milliseconds."""
    total = 0
    for i in range(_ITERATIONS):
        total += i * i % 7
    return total


def sample() -> float:
    """Seconds one reference unit takes now."""
    start = time.perf_counter()
    unit()
    return time.perf_counter() - start
