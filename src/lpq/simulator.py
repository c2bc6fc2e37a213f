"""Exact statevector simulation of the three measurement pipelines.

Labels are 0..n-1 for any integer n >= 1 (no power-of-two restriction),
and the Fourier step is the order-n transform with kernel
omega = exp(-2*pi*i/n),

    out(y) = n**-0.5 * sum_z omega**(z*y) * in(z).

Each pipeline builds one real float64 register and transforms it once:
amplified, the uniform state after k amplification rounds; qft, the
oracle's phase kickback on the uniform state (-1/sqrt(n) on marked labels,
1/sqrt(n) elsewhere); qhs, the marked column of the two-register state,
mask / sqrt(n).  Sign flips and reflections about the mean keep amplitudes
real, so ``dft`` returns only the half spectrum y = 0..n//2 (numpy's
``rfft``, exact for any n); out(n - y) = conj(out(y)), so the table is the
squared half, mirrored.  The tests hold ``dft`` to a direct summation.
For qhs the unmarked column is delta(y) minus the marked one h(y), since
the all-ones vector transforms to n at y = 0 and to 0 elsewhere: the
probability is 2|h(y)|^2 off y = 0, and h0^2 + (1 - h0)^2 at y = 0.

The amplification rounds run on a :class:`GroverRegister`, which holds the
amplitudes as ``sign * base + shift`` with a running ``total = base.sum()``.
The diffusion 2|u><u| - I is -I plus a rank-one term, so a reflection
about the mean only flips ``sign`` and moves ``shift``, and the oracle
rewrites just the m marked entries of ``base``: a round costs O(m), and
the amplified register costs O(n + k*m) to build (the uniform state, k
rounds, one read-out pass) before its one transform.  This is exact
algebra on the same operators, not the two-level closed form, so the
simulation stays an independent derivation.  ``grover_iterate`` updates
its register in place and returns it; every other operation returns a
fresh array and leaves its inputs alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInstance, ValidationError
from .oracle import OracleSpec
from .spectrum import Algorithm, ProbabilityTable, case_codes, make_table

def marked_mask(spec: OracleSpec) -> np.ndarray:
    """Boolean indicator of the marked set over 0..n-1."""
    mask = np.zeros(spec.n, dtype=bool)
    mask[spec.s : spec.s + (spec.m - 1) * spec.p + 1 : spec.p] = True
    return mask


def uniform_state(n: int) -> np.ndarray:
    if n < 1:
        raise DegenerateInstance(f"need n >= 1, got {n}")
    return np.full(n, 1.0 / math.sqrt(n))


@dataclass(frozen=True)
class GroverSchedule:
    """Amplification geometry: rotation angle, round count, and the
    amplitude each marked label holds after k rounds."""

    theta: float
    k: int
    a_k: float


def grover_schedule(n: int, m: int, iterations: int | None = None) -> GroverSchedule:
    """sin(theta) = sqrt(m/n), k = floor(pi / (4 theta)) unless overridden by
    ``iterations``, which must be >= 0."""
    if m < 1:
        raise DegenerateInstance(f"need m >= 1, got {m}")
    if m > n:
        raise DegenerateInstance(f"need m <= n, got m={m}, n={n}")
    if iterations is not None and iterations < 0:
        raise ValidationError(f"need iterations >= 0, got {iterations}")
    if 2 * m == n:
        # theta is pi/4 and k is 1; asin(sqrt(1/2)) lands one ulp above pi/4,
        # where pi/(4*theta) would round to 0.9999999999999999.  By Niven's
        # theorem 1/2 is the only rational m/n at which the true pi/(4*theta)
        # is an integer.  That does not make the rounded quotient floor the
        # same way elsewhere: next to a step of k it can be off by one past
        # about 2^43 (ROADMAP item 15).
        theta = math.pi / 4
    else:
        theta = math.asin(math.sqrt(m / n))
    k = math.floor(math.pi / (4 * theta)) if iterations is None else int(iterations)
    return GroverSchedule(theta, k, math.sin((2 * k + 1) * theta) / math.sqrt(m))


class GroverRegister:
    """Amplitudes held as ``sign * base + shift``, with ``total == base.sum()``.

    ``base`` is the array passed in, not a copy: it holds the amplitudes
    again only after :meth:`amplitudes` folds the form back into it.
    """

    __slots__ = ("base", "sign", "shift", "total")

    def __init__(self, amplitudes: np.ndarray):
        self.base = amplitudes
        self.sign = 1.0
        self.shift = 0.0
        self.total = amplitudes.sum()

    def amplitudes(self) -> np.ndarray:
        """Fold the form into ``base`` in one in-place pass and return it."""
        base = self.base
        if self.sign < 0:
            np.subtract(self.shift, base, out=base)
        else:
            base += self.shift
        self.total = self.sign * self.total + base.size * self.shift
        self.sign, self.shift = 1.0, 0.0
        return base


def grover_iterate(register: GroverRegister, spec: OracleSpec) -> GroverRegister:
    """One amplification round in O(m), in place: flip the sign of every
    marked amplitude, then reflect all amplitudes about their mean.

    ``register`` is updated and returned.
    """
    marked = register.base[spec.s : spec.s + (spec.m - 1) * spec.p + 1 : spec.p]
    before = marked.sum()
    # -(sign*b + shift) == sign*b' + shift for b' = -b - 2*sign*shift.
    # Not np.negative(marked, out=marked): under numpy 2.4.6 it skips some
    # elements of a strided float64 view that it writes over in place.
    marked *= -1.0
    marked -= 2.0 * register.sign * register.shift
    register.total += marked.sum() - before
    # 2*mean - (sign*b + shift) == (-sign)*b + (2*mean - shift)
    mean = register.sign * register.total / register.base.size + register.shift
    register.sign = -register.sign
    register.shift = 2.0 * mean - register.shift
    return register


def dft(register: np.ndarray) -> np.ndarray:
    """Half spectrum of a real register: out(y) for y = 0..n//2.

    out(y) = n**-0.5 * sum_z omega**(z*y) * register(z), through
    ``np.fft.rfft``; the rest of the spectrum is out(n - y) = conj(out(y)).
    """
    if np.iscomplexobj(register):
        raise ValidationError("dft takes a real register")
    half = np.fft.rfft(register)
    half /= math.sqrt(register.shape[-1])
    return half


def _amplified_register(spec: OracleSpec, iterations: int | None = None) -> np.ndarray:
    register = GroverRegister(uniform_state(spec.n))
    for _ in range(grover_schedule(spec.n, spec.m, iterations).k):
        grover_iterate(register, spec)
    return register.amplitudes()


def simulated_table(
    spec: OracleSpec, algorithm: Algorithm, iterations: int | None = None
) -> ProbabilityTable:
    """Brute-force measurement distribution for one pipeline: build its real
    register, transform it once, and square the half spectrum."""
    algorithm = Algorithm(algorithm)
    n = spec.n
    if algorithm is Algorithm.AMPLIFIED:
        register = _amplified_register(spec, iterations)
    else:
        mask = marked_mask(spec)
        if algorithm is Algorithm.QFT:
            # One oracle application by phase kickback: amplitude (1-2)/sqrt(n)
            # on marked labels, 1/sqrt(n) elsewhere (the ancilla is dropped).
            register = np.where(mask, -1.0, 1.0) / math.sqrt(n)
        else:
            # The marked column of the two-register state (1/sqrt(n)) sum_x |x>|f(x)>.
            register = mask / math.sqrt(n)
    half = dft(register)
    del register  # free each n-sized array before the next one is allocated
    h = half.size
    h0 = half[0].real
    pr = np.empty(n)
    np.abs(half, out=pr[:h])
    del half
    pr[:h] **= 2
    if algorithm is Algorithm.QHS:
        # The unmarked column is delta(y) - (marked column): the same modulus
        # off y = 0, and 1 - h0 at y = 0.
        pr[1:h] *= 2.0
        pr[0] += (1.0 - h0) ** 2
    pr[h:] = pr[n - h : 0 : -1]
    return make_table(pr, case_codes(n, spec.m, spec.p))
