"""Test-side references for values that no production path reads."""

from __future__ import annotations

import math
from fractions import Fraction


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


def walk_rounds_mean(m: int, s: int) -> Fraction:
    """The exact mean ``iterations`` of the decreasing walk, over a start
    uniform on the m members, with t the least power of two >= m.

    From a member with r members below it (r <= m - 1 < t, so each lies on
    the ladder), a round measures the marked image uniformly.  At s > 0 the
    image is those r members, so E(r) = 1 + (1/r) * sum_{r' < r} E(r'),
    which is the harmonic number H_r.  At s = 0 the t - r + 1 padding rungs
    are label 0, the offset, and the image is all t rungs, so
    E(r) = 1 + (1/t) * sum_{r'=1}^{r-1} E(r').  E(0) = 0: the start is the
    offset.
    """
    t = 1 << (m - 1).bit_length()
    below = Fraction(0)  # sum of E(r') over r' < r; E(0) = 0 adds nothing
    for r in range(1, m):
        expected = 1 + below / (r if s > 0 else t)
        below += expected
    return below / m


def counting_failure_rate(m: int, s: int) -> Fraction:
    """The exact rate at which the counting search fails its pair test,
    over a start uniform on the m members.

    A start at the offset returns before any count.  At s > 0, from r >= 1
    members below, the counter is exact with probability 2/3 and otherwise
    reports r - 1 or r + 1, both in 0..t, whose candidates s + p and
    s - p (or label 0) both fail the pair test: a failure with probability
    1/3.  At s = 0 the count is t, and its one near-miss t - 1 still lands
    on label 0, the offset: no failure.
    """
    return Fraction(m - 1, 3 * m) if s > 0 else Fraction(0)
