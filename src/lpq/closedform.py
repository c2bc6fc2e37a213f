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
mirrored onto the y above n/2.  :func:`spectral_kernel` evaluates R(y)
once for all three pipelines, and :func:`pipeline_constants` holds each
pipeline's column of the case table.

Edges of the running sum.  Monte-Carlo reads the CDF only at a few f, as
E(f) = Pr(0) + ... + Pr(f - 1).  Off y = 0 every case is factor * R(y),
with R = m^2 at a resonance and 0 at a null, and Fejer's identity
R(y) = m + 2 * sum_{d=1}^{m-1} (m - d) cos(2 pi d p y / n) sums over y < f:

    E(f) = Pr(0) + factor * (m*f + 2 * sum_d (m - d) C_d(f) - m^2),
    C_d(f) = sin(pi a f/n) cos(pi a (f-1)/n) / sin(pi a/n),   a = d*p,

and 2 C_d(f) = 1 + sin(pi a (2f-1)/n) / sin(pi a/n), so that

    E(f) = Pr(0) + factor * ((2f - m - 1) * m/2 + sum_d w_d S_d),
    w_d = (m - d) / sin(pi a/n),   S_d = sin(pi a (2f-1)/n),

O(m) work per edge.  As the marked set fits, 0 < d*p < n, so no
denominator vanishes and n never divides d*p.  Each a*(2f - 1) is reduced
mod 2n in integers before it becomes a float, and each sine is taken at
its residue folded into [0, n/2].  E(0) = 0.

The bound.  :func:`closed_form_edges` returns, next to each E(f), a
slack(f) >= |E(f) - cdf[f - 1]|, where cdf = np.cumsum(table.pr) is the
running sum of :func:`closed_form_table` that Monte-Carlo's sampler
reads.  In units of u = eps/2 (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed.), taking each float sine within 4 ulps
(8u) of the sine of its argument, and every partial sum at most P =
1 + (n + 64)*eps:

* the running sum adds f entries one after another, so it lies within
  (f - 1)*P of the exact sum of the entries (recursive summation,
  section 4.2);
* each entry's folded sines are within 3u + 8u = 11u, so R(y) within
  4*11u + 3u and the entry, scaled once more, within 48u of factor*R(y);
  Pr(0) is the same float on both sides, a null is 0 on both, and a
  resonant entry is within 4u of factor*m^2.  The entries are within
  48*P of factor * sum R(y) + Pr(0) in all;
* in E(f), w_d and S_d are within 12u and 11u, so each w_d*S_d within
  24u, and the sum of the m - 1 of them within (m + 22)u of sum |w_d S_d|
  <= sum (m - d)(2f - 1) <= m^2*f, as |sin(k x)| <= k |sin x|.  The
  linear term, the sum, the scaling and the add of Pr(0) round four more
  times: at most 5*factor*m^2*f + P.

In all |E(f) - cdf[f - 1]| <= P*(f + 48) + (m + 27)*factor*m^2*f units,
first order in u, rounded up to P*(f + 52) + (m + 32)*factor*m^2*(f + 1)
for the higher orders; slack(f) is _EDGE_SLACK = 8 times that.  The
edge f = n is cdf[-1] raised to 1, which Monte-Carlo places past every
uniform itself.

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
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .oracle import OracleSpec
from .simulator import grover_schedule
from .spectrum import Algorithm, ProbabilityTable, case_codes, make_table

_Y_BLOCK = 1 << 16
# (m - 1) * _EDGE_BLOCK entries: the largest temporary of closed_form_edges
_EDGE_BLOCK = 1 << 14
_EPS = float(np.finfo(np.float64).eps)
# slack(f) of closed_form_edges over the bound of the module docstring: the
# bound is first order in eps, and eight times it leaves room for the
# higher-order terms many times over.  Monte-Carlo reads an edge as exact
# only where a uniform lies farther from it than its slack.
_EDGE_SLACK = 8

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


class PipelineConstants(NamedTuple):
    """One pipeline's column of the case table: Pr(0), Pr at a resonance,
    and the factor of R(y) at a generic frequency."""

    algorithm: Algorithm
    zero: float
    resonant: float
    factor: float


def pipeline_constants(
    spec: OracleSpec, algorithm: Algorithm, iterations: int | None
) -> PipelineConstants:
    """The case table's constants for one pipeline (module docstring);
    ``iterations`` overrides the amplified pipeline's round count."""
    algorithm = Algorithm(algorithm)
    n, m = spec.n, spec.m
    if algorithm is Algorithm.AMPLIFIED:
        schedule = grover_schedule(n, m, iterations)
        line = math.tan(schedule.theta) ** 2 * math.sin(2 * schedule.k * schedule.theta) ** 2
        return PipelineConstants(algorithm, _amplified_zero(n, m, schedule), line, line / m**2)
    if algorithm is Algorithm.QFT:
        return PipelineConstants(algorithm, (1 - 2 * m / n) ** 2, 4.0 * m**2 / n**2, 4.0 / n**2)
    return PipelineConstants(
        algorithm, 1 - 2 * m * (n - m) / n**2, 2.0 * m**2 / n**2, 2.0 / n**2
    )


class SpectralKernel(NamedTuple):
    """R(y) at a set of frequencies, the part of the closed form that every
    pipeline shares.  ``ratio`` holds R(y) off ``special``, the indices of
    the null, resonant and zero frequencies (m*p*y = 0 mod n), where the
    case table's constants stand instead; ``case`` is 0, 1 or 2 at each
    special index, in that order."""

    ratio: np.ndarray
    special: np.ndarray
    case: np.ndarray

    def probabilities(self, constants: PipelineConstants, out: np.ndarray) -> np.ndarray:
        """One pipeline's probability at each frequency, written to ``out``,
        which may be ``ratio`` itself."""
        np.multiply(self.ratio, constants.factor, out=out)
        out[self.special] = np.array([0.0, constants.resonant, constants.zero])[self.case]
        return out


def spectral_kernel(spec: OracleSpec, ys) -> SpectralKernel:
    """R(y) at each frequency in ``ys``, a 1-D sequence in 0..n-1, from the
    integer residues r = p*y mod n and r*m mod n, in blocks of _Y_BLOCK
    frequencies so the temporaries stay small."""
    n, m = spec.n, spec.m
    p = spec.p % n
    if (n - 1) * max(m, p) >= 1 << 63:
        raise ValidationError(
            f"closed form needs residue products below 2**63 (n={n}, m={m}, p={p})"
        )
    ys = np.asarray(ys, dtype=np.int64)
    if ys.size and not (0 <= ys.min() and ys.max() < n):
        raise ValidationError(f"frequencies must lie in 0..{n - 1}")
    ratio = np.empty(ys.shape)
    special, case = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for start in range(0, ys.size, _Y_BLOCK):
        y = ys[start : start + _Y_BLOCK]
        r = y * p
        r %= n
        rm = r * m
        rm %= n
        out = ratio[start : start + _Y_BLOCK]
        # R(y) everywhere; the 0/0 at r = 0 is at a special index
        with np.errstate(invalid="ignore"):
            np.divide(_folded_sines(rm, n), _folded_sines(r, n), out=out)
        np.square(out, out=out)
        at = np.flatnonzero(rm == 0)
        special.append(start + at)
        case.append(np.add(r[at] == 0, y[at] == 0, dtype=np.intp))  # y = 0 is also resonant
    if len(special) == 2:  # one block: no copy
        return SpectralKernel(ratio, special[1], case[1])
    return SpectralKernel(ratio, np.concatenate(special), np.concatenate(case))


def closed_form_at(spec: OracleSpec, algorithm: Algorithm, ys) -> np.ndarray:
    """Closed-form probability of measuring each frequency in ``ys``.

    ``ys`` is a 1-D sequence of frequencies in 0..n-1.  The pipeline's
    constants scale the kernel R(y) in place.
    """
    kernel = spectral_kernel(spec, ys)
    return kernel.probabilities(pipeline_constants(spec, algorithm, None), kernel.ratio)


def closed_form_table(spec: OracleSpec, algorithm: Algorithm) -> ProbabilityTable:
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
        pr[start : start + ys.size] = closed_form_at(spec, algorithm, ys)
    if period < n:  # y = 0, then y = 1..period over and over
        pr[h : n - period + 1].reshape(-1, period)[:] = pr[1:h]
        pr[n - period + 1 :] = pr[1:period]
    else:  # y = 0..n//2, then the mirror
        pr[h:] = pr[(n + 1) // 2 - 1 : 0 : -1]
    return make_table(pr, codes)


def _signed_sines(t: np.ndarray, n: int) -> np.ndarray:
    """sin(pi*t/n) for int64 t in 0..2n-1: the folded sine of t mod n,
    negated past n."""
    x = _folded_sines(t % n, n)
    return np.negative(x, out=x, where=t >= n)


def closed_form_edges(
    spec: OracleSpec, algorithm: Algorithm, fs
) -> tuple[np.ndarray, np.ndarray]:
    """E(f) = Pr(0) + ... + Pr(f - 1) at each f in ``fs``, a 1-D sequence in
    0..n, in closed form at O(m) cost each, and slack(f), eight times the
    bound on its distance from the running sum of the closed-form table
    (module docstring).

    Edges are evaluated in blocks, so that no (m-1)-row temporary holds
    more than _EDGE_BLOCK entries.  The arguments a*(2f - 1) are reduced
    mod 2n in int64 while they fit, up to n = 2**31, and in Python ints
    past that.
    """
    constants = pipeline_constants(spec, algorithm, None)
    n, m = spec.n, spec.m
    fs = np.asarray(fs, dtype=np.int64)
    wide = 2 * n * n > 1 << 63  # a*(2f - 1) < 2n^2
    a = np.arange(1, m, dtype=np.int64) * spec.p  # 0 < d*p < n, as the marked set fits
    weights = np.arange(m - 1, 0, -1) / _signed_sines(a, n)
    a = (a.astype(object) if wide else a)[:, None]
    edges = (2.0 * fs - (m + 1)) * (0.5 * m)
    block = max(1, _EDGE_BLOCK // max(m - 1, 1))
    for start in range(0, fs.size, block):
        f = fs[start : start + block]
        t = a * (2 * (f.astype(object) if wide else f) - 1)
        t %= 2 * n
        edges[start : start + block] += weights @ _signed_sines(t.astype(np.int64, copy=False), n)
    edges *= constants.factor
    edges += constants.zero
    # the bound of the module docstring, P*(f + 52) + (m + 32)*factor*m^2*(f + 1)
    # units of eps/2, as per_f*f + at_0
    partial_sums = 1 + (n + 64) * _EPS
    kernel_sum = (m + 32) * constants.factor * m * m
    per_f = _EDGE_SLACK * _EPS / 2 * (partial_sums + kernel_sum)
    at_0 = _EDGE_SLACK * _EPS / 2 * (52 * partial_sums + kernel_sum)
    slack = per_f * fs + at_0
    at_zero = fs == 0  # cdf[-1], the empty sum: 0 exactly
    edges[at_zero] = slack[at_zero] = 0.0
    return edges, slack


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
