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


def _kernel_ratios(n: int, m: int, p: int, codes: np.ndarray) -> np.ndarray:
    """Vectorized R(y): zeros except at generic frequencies."""
    y = np.arange(n, dtype=np.int64)
    a = (p * y) % n
    b = (m * p * y) % n
    a = np.minimum(a, n - a)
    b = np.minimum(b, n - b)
    ratios = np.zeros(n, dtype=float)
    gen = codes == CODE_GENERIC
    num = np.sin(np.pi * b[gen] / n)
    den = np.sin(np.pi * a[gen] / n)
    ratios[gen] = (num / den) ** 2
    return ratios


def closed_form_table(
    spec: OracleSpec,
    algorithm: Algorithm,
    schedule: "GroverSchedule | None" = None,
    iterations: int | None = None,
) -> ProbabilityTable:
    """Whole-spectrum closed-form table for one pipeline."""
    algorithm = Algorithm(algorithm)
    n, m = spec.n, spec.m
    codes = case_codes(n, m, spec.p)
    ratios = _kernel_ratios(n, m, spec.p, codes)
    pr = np.zeros(n, dtype=float)
    if algorithm is Algorithm.AMPLIFIED:
        if schedule is None:
            from .simulator import grover_schedule

            schedule = grover_schedule(n, m, iterations)
        line = math.tan(schedule.theta) ** 2 * math.sin(2 * schedule.k * schedule.theta) ** 2
        pr[codes == CODE_ZERO] = math.cos(2 * schedule.k * schedule.theta) ** 2
        pr[codes == CODE_RESONANT] = line
        gen = codes == CODE_GENERIC
        pr[gen] = line / m**2 * ratios[gen]
    else:
        scale = 4.0 if algorithm is Algorithm.QFT else 2.0
        if algorithm is Algorithm.QFT:
            pr[codes == CODE_ZERO] = (1 - 2 * m / n) ** 2
        else:
            pr[codes == CODE_ZERO] = 1 - 2 * m * (n - m) / n**2
        pr[codes == CODE_RESONANT] = scale * m**2 / n**2
        gen = codes == CODE_GENERIC
        pr[gen] = scale / n**2 * ratios[gen]
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
