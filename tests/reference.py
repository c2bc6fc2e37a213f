"""Test-side references for values that no production path reads."""

from __future__ import annotations

import math


def members(spec) -> list[int]:
    """The marked labels of an instance, ascending."""
    return [spec.s + r * spec.p for r in range(spec.m)]


def unmarked_amplitude(n: int, m: int, schedule) -> float:
    """The amplitude each unmarked label holds after the schedule's k
    rounds, cos((2k+1) theta) / sqrt(n - m), and 0 at m = n."""
    return 0.0 if m == n else math.cos((2 * schedule.k + 1) * schedule.theta) / math.sqrt(n - m)


def g_ladder(x1: int, p: int, t: int) -> list[int]:
    """The probe ladder [g(0), ..., g(t-1)], g(x) = max(0, x1 - (x+1)*p).

    Needs p >= 1.  The positive rungs step down by p; the rest are 0.
    """
    rungs = list(range(x1 - p, max(x1 - (t + 1) * p, 0), -p))
    return rungs + [0] * (t - len(rungs))
