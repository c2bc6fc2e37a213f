"""Exact statevector simulation of the three measurement pipelines.

Everything lives in C^n for an arbitrary integer n >= 1 (no power-of-two
restriction): labels are ring elements and the Fourier step is the order-n
transform with kernel omega = exp(-2*pi*i/n),

    out(y) = n**-0.5 * sum_z omega**(z*y) * in(z).

numpy's FFT computes that sum exactly for any n; ``dft(method="direct")``
keeps the O(n^2) direct-summation reference path available, and the test
suite holds the fast path to it within 1e-9.

Registers before the transform are real float64 ndarrays: the uniform
state, the oracle's sign flips and the reflection about the mean all keep
amplitudes real, so only ``dft`` produces complex arrays.

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
import os
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateInstance, NotUnitary, ValidationError
from .oracle import OracleSpec
from .spectrum import Algorithm, ProbabilityTable, case_codes, make_table

DEFAULT_SOFT_N_LIMIT = 1 << 16


def soft_n_limit() -> int:
    """Full-spectrum size ceiling; override with LPQ_SOFT_N_LIMIT."""
    return int(os.environ.get("LPQ_SOFT_N_LIMIT", DEFAULT_SOFT_N_LIMIT))


def _check_desk_scale(n: int) -> None:
    limit = soft_n_limit()
    if n > limit:
        warnings.warn(
            f"n={n} exceeds the soft full-spectrum ceiling {limit}; "
            "expect long runtimes and reduced accuracy margins",
            RuntimeWarning,
            stacklevel=3,
        )


def marked_mask(spec: OracleSpec) -> np.ndarray:
    """Boolean indicator of the marked set over 0..n-1."""
    mask = np.zeros(spec.n, dtype=bool)
    mask[spec.s : spec.s + (spec.m - 1) * spec.p + 1 : spec.p] = True
    return mask


def uniform_state(n: int) -> np.ndarray:
    if n < 1:
        raise DegenerateInstance(f"need n >= 1, got {n}")
    _check_desk_scale(n)
    return np.full(n, 1.0 / math.sqrt(n))


@dataclass(frozen=True)
class GroverSchedule:
    """Amplification geometry: rotation angle, round count, and the two
    amplitude levels the state reaches after k rounds."""

    n: int
    m: int
    theta: float
    k: int
    a_k: float
    b_k: float

    @property
    def good_probability(self) -> float:
        """Total probability on the marked set after k rounds."""
        return math.sin((2 * self.k + 1) * self.theta) ** 2


def grover_schedule(n: int, m: int, iterations: int | None = None) -> GroverSchedule:
    """sin(theta) = sqrt(m/n), k = floor(pi / (4 theta)) unless overridden."""
    if m < 1:
        raise DegenerateInstance(f"need m >= 1, got {m}")
    if m > n:
        raise DegenerateInstance(f"need m <= n, got m={m}, n={n}")
    theta = math.asin(math.sqrt(m / n))
    k = math.floor(math.pi / (4 * theta)) if iterations is None else int(iterations)
    a_k = math.sin((2 * k + 1) * theta) / math.sqrt(m)
    b_k = 0.0 if m == n else math.cos((2 * k + 1) * theta) / math.sqrt(n - m)
    return GroverSchedule(n, m, theta, k, a_k, b_k)


class GroverRegister:
    """Amplitudes held as ``sign * base + shift``, with ``total == base.sum()``.

    ``base`` is the array passed in, not a copy: it holds the amplitudes
    again only after :meth:`amplitudes` folds the form back into it.  Real
    and complex arrays both work.
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


def dft(state: np.ndarray, inverse: bool = False, method: str = "fft") -> np.ndarray:
    """Order-n transform with kernel exp(-2*pi*i*z*y/n) (conjugated when
    ``inverse``); norm preserving.

    The forward fast path takes real input through ``np.fft.rfft``, which
    gives y = 0..n//2, and mirrors the rest: out(n - y) = conj(out(y)).
    The full length-n spectrum is returned either way.
    """
    state = np.asarray(state)
    n = state.shape[-1]
    if method == "fft" and not inverse and not np.iscomplexobj(state):
        half = np.fft.rfft(state)
        half /= math.sqrt(n)
        out = np.empty(state.shape[:-1] + (n,), dtype=complex)
        h = half.shape[-1]
        out[..., :h] = half
        np.conjugate(half[..., n - h : 0 : -1], out=out[..., h:])
        return out
    state = state.astype(complex, copy=False)
    if method == "fft":
        out = np.fft.ifft(state) * n if inverse else np.fft.fft(state)
        return out / math.sqrt(n)
    if method != "direct":
        raise ValidationError(f"unknown dft method {method!r}")
    sign = 2j if inverse else -2j
    out = np.empty(n, dtype=complex)
    z = np.arange(n)
    for start in range(0, n, 512):  # bound the twiddle block to ~4 MB
        y = np.arange(start, min(start + 512, n))
        out[y] = np.exp(sign * np.pi / n * np.outer(y, z)) @ state
    return out / math.sqrt(n)


def _amplified_register(spec: OracleSpec, iterations: int | None = None) -> np.ndarray:
    register = GroverRegister(uniform_state(spec.n))
    for _ in range(grover_schedule(spec.n, spec.m, iterations).k):
        grover_iterate(register, spec)
    return register.amplitudes()


def amplified_qft_state(spec: OracleSpec, iterations: int | None = None) -> np.ndarray:
    """k amplification rounds on the uniform state, then the transform."""
    return dft(_amplified_register(spec, iterations))


def _kicked_register(spec: OracleSpec) -> np.ndarray:
    # Single oracle application via phase kickback: amplitude (1-2)/sqrt(n)
    # on marked labels, 1/sqrt(n) elsewhere (the ancilla is dropped).
    return np.where(marked_mask(spec), -1.0, 1.0) / math.sqrt(spec.n)


def qft_state(spec: OracleSpec) -> np.ndarray:
    """Oracle phase kickback on the uniform state, then the transform."""
    _check_desk_scale(spec.n)
    return dft(_kicked_register(spec))


def qhs_state(spec: OracleSpec) -> np.ndarray:
    """Two-register pipeline: amplitudes as an (n, 2) array.

    Column b holds, for each frequency y, (1/n) * sum over labels x with
    oracle value b of omega**(x*y).
    """
    _check_desk_scale(spec.n)
    n = spec.n
    # Columns are stored as the rows of a (2, n) array, so the FFT runs in
    # place on a contiguous row and allocates no n-sized temporaries.
    out = np.empty((2, n), dtype=complex)
    f = out[1]
    f[:] = marked_mask(spec)
    np.fft.fft(f, out=f)
    # The unmarked indicator is 1 - mask, and the all-ones vector transforms
    # to n at y = 0 and to 0 elsewhere, so one FFT gives both columns.
    np.divide(f, -n, out=out[0])
    np.subtract(f[:1], n, out=out[0, :1])
    np.divide(out[0, :1], -n, out=out[0, :1])
    np.divide(f, n, out=f)
    return out.T


def qhs_distribution(spec: OracleSpec) -> ProbabilityTable:
    """Measurement distribution of the first register: the squared norms of
    the two-register columns, summed per frequency."""
    state = qhs_state(spec)
    pr = np.abs(state[:, 0]) ** 2 + np.abs(state[:, 1]) ** 2
    del state  # 32 bytes a frequency: free it before the table is built
    return make_table(spec.n, pr, case_codes(spec.n, spec.m, spec.p), "simulated")


def _as_transform(transform) -> Callable[[np.ndarray], np.ndarray]:
    if callable(transform):
        return transform
    matrix = np.asarray(transform, dtype=complex)
    return lambda v: matrix @ v


def _spot_check_unitary(apply_u: Callable, n: int, tol: float = 1e-8) -> None:
    rng = np.random.default_rng(0x5EED)
    for _ in range(3):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        if abs(np.linalg.norm(apply_u(v)) - 1.0) > tol:
            raise NotUnitary("transform does not preserve norm on probe vectors")


def general_unitary_state(
    spec: OracleSpec,
    transform,
    amplified: bool = True,
    iterations: int | None = None,
) -> np.ndarray:
    """Run either pipeline with the final transform replaced by ``transform``
    (an (n, n) matrix or a callable on state vectors)."""
    apply_u = _as_transform(transform)
    _spot_check_unitary(apply_u, spec.n)
    register = _amplified_register(spec, iterations) if amplified else _kicked_register(spec)
    return apply_u(register)


def simulated_table(
    spec: OracleSpec, algorithm: Algorithm, iterations: int | None = None
) -> ProbabilityTable:
    """Brute-force measurement distribution for one pipeline."""
    algorithm = Algorithm(algorithm)
    if algorithm is Algorithm.QHS:
        return qhs_distribution(spec)
    if algorithm is Algorithm.AMPLIFIED:
        state = amplified_qft_state(spec, iterations)
    else:
        state = qft_state(spec)
    pr = np.abs(state) ** 2
    return make_table(spec.n, pr, case_codes(spec.n, spec.m, spec.p), "simulated")


def sample(table: ProbabilityTable, seed) -> int:
    """One frequency drawn from the table; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(table.pr)
    return int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
