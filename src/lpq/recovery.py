"""Recovering the period from a measured frequency via continued fractions.

A measured y is useful when y/n sits within 1/(2*q^2) of a reduced fraction
d/q with q equal to the true period: the classical convergence theorem then
guarantees d/q appears among the convergents of y/n, so the period can be
read off a denominator.  ``recover_period`` never consults the oracle; the
caller verifies candidates with the probe tests in :mod:`lpq.offset`.

Remainder identity.  Euclid on the unreduced pair (y, n) divides y by n,
then n by the remainder, and so on; step k gives a quotient a_k and a
remainder r_k.  The quotients are those of the reduced fraction, so the
recurrences d_k = a_k*d_{k-1} + d_{k-2} and q_k = a_k*q_{k-1} + q_{k-2},
from d_{-2}/q_{-2} = 0/1 and d_{-1}/q_{-1} = 1/0, give the convergents
d_k/q_k of y/n.  By induction on those recurrences, y*q_k - d_k*n is
(-1)^k * r_k, so the 1/(2q^2) test |y/n - d_k/q_k| <= 1/(2*q_k^2) reads
2*q_k*r_k <= n and needs no numerator.  Two loops use it:
``recover_period`` walks one exact ladder in Python ints, at any n, and
``accepted_denominators`` walks a batch of ladders in int64, for n below
2**63.

Residue conventions.  {a}_n denotes the representative of a mod n in the
half-open window (-n/2, n/2].  The frequency window

    Y = { y : -p/2 < {p*y}_n <= p/2 }

is in bijection with the multipliers d in 0..p-1 via d(y) = round(p*y/n)
and y(d) = round(n*d/p), both rounding half up.  Keeping the window
half-open on the same side as {a}_n is what makes the bijection total;
with a closed window both endpoints of a |{p*y}_n| = p/2 tie would land on
the same d (for example n=18, p=4, y in {4, 5}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .oracle import OracleSpec


class Convergent(NamedTuple):
    d: int
    q: int


class RecoveryStatus(str, Enum):
    RECOVERED = "recovered"
    NO_CANDIDATE = "no-candidate"
    REJECTED = "rejected"


@dataclass
class RecoveryResult:
    y: int
    candidates: list[Convergent]
    accepted: int | None
    status: RecoveryStatus


_Y_BLOCK = 4096


def accepted_denominators(n: int, ys) -> np.ndarray:
    """The period candidate :func:`recover_period` accepts, for each y in ys.

    ``ys`` is a 1-D sequence of frequencies in 0..n-1; entry i is
    ``recover_period(ys[i], n).accepted``, with 0 where that is
    None.  Euclid on y/n unreduced runs fused with the recurrence for the
    convergent denominators q_k, and the 1/(2q^2) test reads q_k*r_k <= n/2
    by the remainder identity (module docstring).  Every y still on its ladder
    advances one convergent per numpy step, in blocks of _Y_BLOCK
    frequencies so the temporaries stay small.

    Each y is folded to min(y, n - y) first; both have the same candidate.
    Any reduced d/q with q >= 2 and |x - d/q| <= 1/(2q^2) is a convergent
    of x (Legendre's theorem, whose proof admits equality once q >= 2), so
    the candidate is the largest such q <= isqrt(n), and d/q -> (q-d)/q
    carries those fractions for x = y/n onto those for 1 - x.
    """
    q_max = math.isqrt(n)
    ys = np.asarray(ys, dtype=np.int64)
    if ys.size and not (0 <= ys.min() and ys.max() < n):
        raise ValidationError(f"frequencies must lie in 0..{n - 1}")
    folded = np.minimum(ys, n - ys)
    half = n // 2
    best = np.zeros(ys.size, dtype=np.int64)
    for start in range(0, ys.size, _Y_BLOCK):
        # y = 0 has no candidate.  For y >= 1 the first convergent is 0/1,
        # whose q = 1 is never a candidate, so each ladder starts at
        # Euclid's second step, (n, y), with (q_{-1}, q_0) = (0, 1).  A
        # folded y <= n/2 makes that step's quotient, and so every q, >= 2.
        at = start + np.flatnonzero(folded[start : start + _Y_BLOCK])
        num, den = np.full(at.size, n, dtype=np.int64), folded[at]
        q_prev2, q_prev = np.zeros_like(at), np.ones_like(at)
        while at.size:
            a, rem = np.divmod(num, den)
            q = a * q_prev + q_prev2
            # A ladder stops past q_max; the test is not read there, so its
            # products cannot overflow where they count.
            live = q <= q_max
            ok = np.flatnonzero(live & (q * rem <= half))
            best[at[ok]] = q[ok]
            go = np.flatnonzero(live & (rem != 0))  # indices: faster than a mask here
            at, num, den = at[go], den[go], rem[go]
            q_prev2, q_prev = q_prev[go], q[go]
    return best


def acceptance_window(n: int, q: int) -> np.ndarray:
    """Every y in 1..n-1 that passes the 1/(2q^2) test for q, ascending.

    These are the y with 2*q*|y*q - d*n| <= n for some d in 1..q-1 coprime
    to q: the integers from ceil((2*q*d*n - n) / (2*q^2)) to
    floor((2*q*d*n + n) / (2*q^2)) for each such d, a run that lies inside
    1..n-1 and below the next d's.  Convergents are reduced, so a y whose
    candidate in :func:`accepted_denominators` is q lies here.  The bounds
    are Python ints; the labels are returned as int64, so n must stay
    below 2**63.
    """
    if n >= 1 << 63:
        raise ValidationError(f"acceptance window needs n below 2**63 (n={n})")
    den = 2 * q * q
    bounds = [
        (-((n - 2 * q * d * n) // den), (2 * q * d * n + n) // den)
        for d in range(1, q)
        if math.gcd(d, q) == 1
    ]
    lo, hi = np.array(bounds, dtype=np.int64).reshape(-1, 2).T
    sizes = hi - lo + 1
    # the runs back to back: run i starts at lo[i], at position sum(sizes[:i])
    return np.repeat(lo - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())


def recover_period(y: int, n: int, q_max: int | None = None) -> RecoveryResult:
    """Largest convergent denominator q in 2..q_max with |y/n - d/q| <= 1/(2q^2).

    One pass of Euclid on (y, n) builds the convergent ladder and tests
    each step by the remainder identity (module docstring), in Python ints,
    so n may be any size.  q_max defaults to isqrt(n), the largest period
    the convergence theorem covers; ``candidates`` holds the whole ladder,
    up to y/n itself.  y = 0 and q = 1 carry no period information and
    come back as no-candidate.  Smaller-q false positives are possible and
    must be weeded out by oracle verification downstream.  A y outside
    0..n-1 is a ValidationError.
    """
    if not 0 <= y < n:
        raise ValidationError(f"y={y} outside 0..{n - 1}")
    if q_max is None:
        q_max = math.isqrt(n)
    ladder = []
    accepted = None
    num, den = y, n
    d_prev2, d_prev, q_prev2, q_prev = 0, 1, 1, 0
    while den:
        a, rem = divmod(num, den)
        d, q = a * d_prev + d_prev2, a * q_prev + q_prev2
        ladder.append(Convergent(d, q))
        if 2 <= q <= q_max and 2 * q * rem <= n:
            accepted = q
        num, den = den, rem
        d_prev2, d_prev, q_prev2, q_prev = d_prev, d, q_prev, q
    status = RecoveryStatus.NO_CANDIDATE if accepted is None else RecoveryStatus.RECOVERED
    return RecoveryResult(y, ladder, accepted, status)


def d_to_y(d: int, n: int, p: int) -> int:
    """Frequency y(d) = round(n*d/p), rounding half up."""
    return (2 * n * d + p) // (2 * p)


def success_set(spec: OracleSpec) -> np.ndarray:
    """Frequencies at which the period is certified recovered and verified.

    These are the nonzero y in the window -p/2 < {p*y}_n <= p/2 with d(y)
    coprime to p, that is y(d) for the d in 1..p-1 coprime to p (module
    docstring): phi(p) of them, the same for every algorithm.  It is empty,
    as no run can succeed, at m = 1, p = 1 or p > isqrt(n): recovery returns
    no q = 1 and no q past isqrt(n), at m >= 2 the probes accept only q = p,
    and at m = 1 they reject every candidate.  Otherwise every y in it
    recovers p: d/p passes the 1/(2q^2) test, and a later convergent with
    p < q' <= isqrt(n) would need 2*q' <= p*q'^2/n + p <= 2*p.
    y(d) is int64, so ValidationError is raised where 2*n*(p-1) + p reaches
    2**63.  That guard also bounds memory: the d array alone takes 8*(p-1)
    bytes, so without it p = 2^31 at n = 2^62 would ask for 16 GiB, and
    p = isqrt(n) at n = 2^63 - 1 for 22.6 GiB, where both exit 2 instead.
    """
    n, p = spec.n, spec.p
    if spec.m < 2 or not 2 <= p <= math.isqrt(n):
        return np.empty(0, dtype=np.int64)
    if 2 * n * (p - 1) + p >= 1 << 63:
        raise ValidationError(f"success set needs products below 2**63 (n={n}, p={p})")
    d = np.arange(1, p, dtype=np.int64)
    return d_to_y(d[np.gcd(d, p) == 1], n, p)
