"""Closed-form per-frequency probabilities and the amplification ratio bounds.

With sin(theta) = sqrt(m/n), k = floor(pi/(4 theta)), and the kernel ratio

    R(y) = sin^2(pi*m*p*y/n) / sin^2(pi*p*y/n),

the measurement probability of frequency y is, by case:

    case       amplified                         qft            qhs
    zero       cos^2(2k theta)                   (1-2m/n)^2     1 - 2m(n-m)/n^2
    resonant   tan^2(theta) sin^2(2k theta)      4 m^2/n^2      2 m^2/n^2
    generic    (same) * R(y) / m^2               (4/n^2) R(y)   (2/n^2) R(y)
    null       0                                 0              0

R is evaluated from the reduced residues p*y mod n and m*p*y mod n, folded
into [0, n/2], so the sines stay away from the cancellation-prone arguments
near multiples of pi; the null case returns an exact 0.0 decided by integer
classification, never by floating point.

The amplified/baseline probability ratio is the same constant at every
resonant and generic frequency, sandwiched (for 2m <= n) between

    upper = (n/cm) * n/(n-m)        c = 4 for qft, 2 for qhs
    lower = upper * (1 - 2m/n)^2

with upper - lower exactly 4/c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CaseMismatch, ValidationError
from .oracle import OracleSpec
from .spectrum import (
    CODE_GENERIC,
    CODE_RESONANT,
    CODE_ZERO,
    Algorithm,
    ProbabilityTable,
    SpectrumCase,
    case_codes,
    classify,
    make_table,
)

if TYPE_CHECKING:
    from .simulator import GroverSchedule

__all__ = [
    "SpectrumCase",
    "classify",
    "dirichlet_ratio",
    "amplified_pr",
    "qft_pr",
    "qhs_pr",
    "case_probabilities",
    "closed_form_table",
    "RatioBounds",
    "ratio_bounds",
    "pr_ratio_bounds",
]


def _folded_sin(residue: int, n: int) -> float:
    # |sin(pi * residue / n)| via the representative in [0, n/2]
    return math.sin(math.pi * min(residue, n - residue) / n)


def dirichlet_ratio(y: int, spec: OracleSpec) -> float:
    """Kernel ratio R(y); exact 0.0 in the null case, and always <= m^2."""
    case = classify(y, spec)
    if case in (SpectrumCase.ZERO, SpectrumCase.RESONANT):
        raise CaseMismatch(f"y={y} is {case.value}; R(y) is defined off the resonances")
    if case is SpectrumCase.NULL:
        return 0.0
    n = spec.n
    num = _folded_sin((spec.m * spec.p * y) % n, n)
    den = _folded_sin((spec.p * y) % n, n)
    return (num / den) ** 2


def _default_schedule(spec: OracleSpec, schedule: "GroverSchedule | None"):
    if schedule is not None:
        return schedule
    from .simulator import grover_schedule

    return grover_schedule(spec.n, spec.m)


def amplified_pr(y: int, spec: OracleSpec, schedule: "GroverSchedule | None" = None) -> float:
    """Amplified-pipeline probability of measuring y."""
    schedule = _default_schedule(spec, schedule)
    case = classify(y, spec)
    if case is SpectrumCase.ZERO:
        return math.cos(2 * schedule.k * schedule.theta) ** 2
    if case is SpectrumCase.NULL:
        return 0.0
    line = math.tan(schedule.theta) ** 2 * math.sin(2 * schedule.k * schedule.theta) ** 2
    if case is SpectrumCase.RESONANT:
        return line
    return line * dirichlet_ratio(y, spec) / spec.m**2


def qft_pr(y: int, spec: OracleSpec) -> float:
    """Plain-transform probability of measuring y."""
    n, m = spec.n, spec.m
    case = classify(y, spec)
    if case is SpectrumCase.ZERO:
        return (1 - 2 * m / n) ** 2
    if case is SpectrumCase.RESONANT:
        return 4 * m**2 / n**2
    if case is SpectrumCase.NULL:
        return 0.0
    return 4 / n**2 * dirichlet_ratio(y, spec)


def qhs_pr(y: int, spec: OracleSpec) -> float:
    """Two-register pipeline probability of measuring y."""
    n, m = spec.n, spec.m
    case = classify(y, spec)
    if case is SpectrumCase.ZERO:
        return 1 - 2 * m * (n - m) / n**2
    if case is SpectrumCase.RESONANT:
        return 2 * m**2 / n**2
    if case is SpectrumCase.NULL:
        return 0.0
    return 2 / n**2 * dirichlet_ratio(y, spec)


_Y_BLOCK = 1 << 16


def _put_generic(pr: np.ndarray, codes: np.ndarray, m: int, p: int, factor: float) -> None:
    """Write factor * R(y) into pr at every generic frequency y.

    Both sines are read from one table of sin(pi*r/n) over the folded
    residues r in 0..n/2, so each is evaluated once however often p*y and
    m*p*y repeat it; the values equal evaluating the sine per frequency.
    Blocks of _Y_BLOCK frequencies keep the temporaries small.
    """
    n = pr.size
    sines = np.pi * np.arange(n // 2 + 1)
    sines /= n
    np.sin(sines, out=sines)

    def folded(y: np.ndarray, c: int) -> np.ndarray:
        # |{c*y}_n|, the residue folded into 0..n/2 as in the scalar path
        r = y * c
        r %= n
        return np.minimum(r, n - r, out=r)

    for start in range(0, n, _Y_BLOCK):
        y = np.flatnonzero(codes[start : start + _Y_BLOCK] == CODE_GENERIC)
        y += start
        ratios = sines[folded(y, m * p)]
        ratios /= sines[folded(y, p)]
        np.square(ratios, out=ratios)
        ratios *= factor
        pr[y] = ratios


def case_probabilities(
    spec: OracleSpec,
    algorithm: Algorithm,
    schedule: "GroverSchedule | None" = None,
    iterations: int | None = None,
) -> tuple[float, float, float]:
    """Pr(0), the probability of each resonant y, and the factor that
    multiplies R(y) at each generic y, for one pipeline."""
    algorithm = Algorithm(algorithm)
    n, m = spec.n, spec.m
    if algorithm is Algorithm.AMPLIFIED:
        if schedule is None:
            from .simulator import grover_schedule

            schedule = grover_schedule(n, m, iterations)
        line = math.tan(schedule.theta) ** 2 * math.sin(2 * schedule.k * schedule.theta) ** 2
        return math.cos(2 * schedule.k * schedule.theta) ** 2, line, line / m**2
    scale = 4.0 if algorithm is Algorithm.QFT else 2.0
    if algorithm is Algorithm.QFT:
        zero = (1 - 2 * m / n) ** 2
    else:
        zero = 1 - 2 * m * (n - m) / n**2
    return zero, scale * m**2 / n**2, scale / n**2


def closed_form_table(
    spec: OracleSpec,
    algorithm: Algorithm,
    schedule: "GroverSchedule | None" = None,
    iterations: int | None = None,
) -> ProbabilityTable:
    """Whole-spectrum closed-form table for one pipeline."""
    n = spec.n
    zero, resonant, generic = case_probabilities(spec, algorithm, schedule, iterations)
    codes = case_codes(n, spec.m, spec.p)
    pr = np.zeros(n, dtype=float)
    pr[codes == CODE_ZERO] = zero
    pr[codes == CODE_RESONANT] = resonant
    _put_generic(pr, codes, spec.m, spec.p, generic)
    return make_table(n, pr, codes, "closed-form")


@dataclass(frozen=True)
class RatioBounds:
    """Sandwich for the amplified/baseline probability ratio."""

    lower: float
    upper: float
    approx: float
    baseline: Algorithm

    @property
    def gap(self) -> float:
        """upper - lower; identically 1 against qft and 2 against qhs."""
        return self.upper - self.lower


def ratio_bounds(n: int, m: int, baseline: Algorithm = Algorithm.QFT) -> RatioBounds:
    """Bounds on amplified/baseline probability at off-zero frequencies."""
    baseline = Algorithm(baseline)
    if 2 * m > n:
        raise ValidationError(f"ratio bounds need 2*m <= n, got m={m}, n={n}")
    if baseline is Algorithm.QFT:
        approx = n / (4 * m)
    elif baseline is Algorithm.QHS:
        approx = n / (2 * m)
    else:
        raise ValidationError("baseline must be qft or qhs")
    upper = approx * n / (n - m)
    lower = upper * (1 - 2 * m / n) ** 2
    return RatioBounds(lower, upper, approx, baseline)


def pr_ratio_bounds(spec: OracleSpec, baseline: Algorithm = Algorithm.QFT) -> RatioBounds:
    return ratio_bounds(spec.n, spec.m, baseline)
