"""Closed-form per-frequency probabilities and the amplification ratio bounds.

With sin(theta) = sqrt(m/n), k = floor(pi/(4 theta)), and the kernel ratio

    R(y) = sin^2(pi*m*p*y/n) / sin^2(pi*p*y/n),

the measurement probability of frequency y is, by case:

    case       amplified                         qft            qhs
    zero       cos^2(2k theta)                   (1-2m/n)^2     1 - 2m(n-m)/n^2
    resonant   tan^2(theta) sin^2(2k theta)      4 m^2/n^2      2 m^2/n^2
    generic    (same) * R(y) / m^2               (4/n^2) R(y)   (2/n^2) R(y)
    null       0                                 0              0

One evaluator, :func:`closed_form_at`, computes this at any set of
frequencies.  It classifies each y from the integer residues r = p*y mod n
and r*m mod n (see :mod:`lpq.spectrum`), never by floating point: the
zero, resonant and null cases are exact constants, the null one an exact
0.0.  At a generic y both sines of R are taken at the residue folded into
[0, n/2], away from the cancellation-prone arguments near multiples of pi.

Pr(y) depends on y only through p*y mod n, and Pr(n - y) = Pr(y), so
:func:`closed_form_table` evaluates at most n/2 + 1 frequencies.  When p
shares a factor with n these are y = 0 and one period y = 1..n/gcd(n, p),
tiled over the rest of the spectrum; otherwise they are y = 0..n/2,
mirrored onto the y above n/2.

The amplified/baseline probability ratio is the same constant at every
resonant and generic frequency, sandwiched (for 2m <= n) between

    upper = n^2 / (c*m*(n-m))        c = 4 for qft, 2 for qhs
    lower = (n-2m)^2 / (c*m*(n-m))

with upper - lower exactly 4/c.  Each bound is its int quotient rounded
once, so the computed upper - lower is 4/c within a few ulps of upper,
which grows with n/(c*m).  The upper bound is also the baseline's
expected runs 1/(1 - Pr(0)), since 1 - Pr(0) = c*m*(n-m)/n^2 for both
plain pipelines.  :func:`expected_runs` is the one implementation of
1/(1 - Pr(0)) for every pipeline, and so of that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .oracle import OracleSpec
from .simulator import grover_schedule
from .spectrum import Algorithm, ProbabilityTable, case_codes, make_table

_Y_BLOCK = 1 << 16

# c in n/(c*m), the proven lower bound on the expected runs of the plain
# pipelines, 4 for qft and 2 for qhs; the amplified one has no such bound.
BOUND_DIVISOR = {Algorithm.QFT: 4, Algorithm.QHS: 2}

# The relative slack of RatioBounds.admits: a ratio of two computed
# probabilities, each a few roundings from exact, sits a few ulps from its
# true value, which the bounds hold.
RATIO_SLACK = 8 * np.finfo(np.float64).eps


def _folded_sines(residues: np.ndarray, n: int) -> np.ndarray:
    """|sin(pi*r/n)| for residues r in 0..n-1, from the representative in [0, n/2]."""
    x = np.minimum(residues, n - residues) * np.pi
    x /= n
    return np.sin(x, out=x)


def _amplified_zero(n: int, m: int, schedule) -> float:
    """Pr(0) = cos^2(2k theta) after the schedule's k rounds; at 2m = n,
    where theta = pi/4, exactly cos^2(k pi/2): 0 at odd k, 1 at even k."""
    if 2 * m == n:
        return float(schedule.k % 2 == 0)
    return math.cos(2 * schedule.k * schedule.theta) ** 2


def closed_form_at(
    spec: OracleSpec, algorithm: Algorithm, ys, iterations: int | None = None
) -> np.ndarray:
    """Closed-form probability of measuring each frequency in ``ys``.

    ``ys`` is a 1-D sequence of frequencies in 0..n-1; ``iterations``
    overrides the amplified pipeline's round count.  Frequencies are
    evaluated in blocks of _Y_BLOCK, so the temporaries stay small.
    """
    algorithm = Algorithm(algorithm)
    n, m = spec.n, spec.m
    p = spec.p % n
    if (n - 1) * max(m, p) >= 1 << 63:
        raise ValidationError(
            f"closed form needs residue products below 2**63 (n={n}, m={m}, p={p})"
        )
    if algorithm is Algorithm.AMPLIFIED:
        schedule = grover_schedule(n, m, iterations)
        line = math.tan(schedule.theta) ** 2 * math.sin(2 * schedule.k * schedule.theta) ** 2
        zero, resonant, factor = _amplified_zero(n, m, schedule), line, line / m**2
    elif algorithm is Algorithm.QFT:
        zero, resonant, factor = (1 - 2 * m / n) ** 2, 4.0 * m**2 / n**2, 4.0 / n**2
    else:
        zero, resonant, factor = 1 - 2 * m * (n - m) / n**2, 2.0 * m**2 / n**2, 2.0 / n**2
    ys = np.asarray(ys, dtype=np.int64)
    if ys.size and not (0 <= ys.min() and ys.max() < n):
        raise ValidationError(f"frequencies must lie in 0..{n - 1}")
    pr = np.empty(ys.shape)
    for start in range(0, ys.size, _Y_BLOCK):
        y = ys[start : start + _Y_BLOCK]
        r = y * p
        r %= n
        rm = r * m
        rm %= n
        out = pr[start : start + _Y_BLOCK]
        # factor * R(y) everywhere; the 0/0 at r = 0 is overwritten below
        with np.errstate(invalid="ignore"):
            np.divide(_folded_sines(rm, n), _folded_sines(r, n), out=out)
        np.square(out, out=out)
        out *= factor
        special = np.flatnonzero(rm == 0)  # the zero, resonant and null frequencies
        resonance = r[special] == 0
        out[special] = np.where(resonance, np.where(y[special] == 0, zero, resonant), 0.0)
    return pr


def closed_form_table(
    spec: OracleSpec, algorithm: Algorithm, iterations: int | None = None
) -> ProbabilityTable:
    """Whole-spectrum closed-form table for one pipeline, from one period
    or one half of the spectrum (module docstring)."""
    n = spec.n
    codes = case_codes(n, spec.m, spec.p)
    period = n // math.gcd(n, spec.p)
    # Allocate the table before any temporary and fill its head a block at
    # a time: the temporaries stay small and sit above the table in the
    # heap, so freeing them leaves no table-sized hole below it.
    pr = np.empty(n)
    h = min(period, n // 2) + 1
    for start in range(0, h, _Y_BLOCK):
        ys = np.arange(start, min(start + _Y_BLOCK, h))
        pr[start : start + ys.size] = closed_form_at(spec, algorithm, ys, iterations)
    if period < n:  # y = 0, then y = 1..period over and over
        pr[h : n - period + 1].reshape(-1, period)[:] = pr[1:h]
        pr[n - period + 1 :] = pr[1:period]
    else:  # y = 0..n//2, then the mirror
        pr[h:] = pr[(n + 1) // 2 - 1 : 0 : -1]
    return make_table(pr, codes)


@dataclass(frozen=True)
class RatioBounds:
    """Sandwich for the amplified/baseline probability ratio."""

    lower: float
    upper: float
    approx: float

    @property
    def gap(self) -> float:
        """upper - lower: 4/c, 1 against qft and 2 against qhs, within
        a few ulps of upper (module docstring)."""
        return self.upper - self.lower

    def admits(self, ratio: np.ndarray) -> np.ndarray:
        """Whether each computed ratio lies in [lower, upper], give or take
        RATIO_SLACK times the bound, 8 to 16 ulps of it.  The ratio is
        about n/(c*m), so an absolute slack shrinks to an ulp as n grows."""
        return (self.lower * (1 - RATIO_SLACK) <= ratio) & (ratio <= self.upper * (1 + RATIO_SLACK))


def expected_runs(n: int, m: int, algorithm: Algorithm) -> float | None:
    """1/(1 - Pr(0)), a pipeline's expected runs when every nonzero
    frequency counts as a success, or None where Pr(0) = 1: the amplified
    pipeline past 2m = n, where k = 0, and every one at m = n.

    Amplified, Pr(0) = cos^2(2k theta) is small wherever k >= 1, so 1
    minus it cancels nothing.  For qft and qhs it is the int quotient
    n^2 / (c*m*(n - m)) rounded once, also the upper ratio bound (module
    docstring): 1 minus a rounded Pr(0) would lose about log2(n/(c*m))
    bits.
    """
    if algorithm is Algorithm.AMPLIFIED:
        hits = 1.0 - _amplified_zero(n, m, grover_schedule(n, m))
        return 1.0 / hits if hits else None
    return n * n / (BOUND_DIVISOR[algorithm] * m * (n - m)) if m < n else None


def runs_lower_bound(n: int, m: int, algorithm: Algorithm) -> float | None:
    """n/(c*m), the proven lower bound on a plain pipeline's expected runs
    and the ratio bounds' approximation, or None for the amplified
    pipeline, which has no such bound."""
    c = BOUND_DIVISOR.get(algorithm)
    return None if c is None else n / (c * m)


def ratio_bounds(n: int, m: int, baseline: Algorithm = Algorithm.QFT) -> RatioBounds:
    """Bounds on amplified/baseline probability at off-zero frequencies."""
    baseline = Algorithm(baseline)
    if 2 * m > n:
        raise ValidationError(f"ratio bounds need 2*m <= n, got m={m}, n={n}")
    if baseline not in BOUND_DIVISOR:
        raise ValidationError("baseline must be qft or qhs")
    lower = (n - 2 * m) ** 2 / (BOUND_DIVISOR[baseline] * m * (n - m))
    return RatioBounds(lower, expected_runs(n, m, baseline), runs_lower_bound(n, m, baseline))
