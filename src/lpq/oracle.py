"""Problem instances: a 0/1 oracle marking an arithmetic progression.

An instance over the labels {0..n-1} marks the m labels
{s, s+p, ..., s+(m-1)p}; the oracle is the indicator of that set, wrapped
behind a query counter so search procedures can report their cost.  Every
handle wraps a validated :class:`OracleSpec`, so amplification can always
read n, m, p and s off ``handle.spec``.  One query is one label in
0..n-1 put to the handle, and the tally counts exactly those: one per
``OracleHandle.__call__``, which raises on a label outside that range, and
one per in-range label of ``OracleHandle.query_many``, which reads 0 for
the others without charging them.  Both test membership by the same
arithmetic on x - s; the tally has no lock, since nothing in lpq queries
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInstance,
    LabelOutOfRange,
    MarkedSetTooLarge,
    OverflowsLabelSpace,
    PeriodTooLarge,
)


@dataclass(frozen=True)
class OracleSpec:
    """Validated instance parameters.

    n: label-space size, m: marked-set size, p: period, s: offset.
    Construct through :func:`build_oracle` to get the invariants checked.
    """

    n: int
    m: int
    p: int
    s: int

    def members(self) -> list[int]:
        """The marked labels, ascending."""
        return [self.s + r * self.p for r in range(self.m)]


def build_oracle(n: int, m: int, p: int, s: int, strict: bool = True) -> OracleSpec:
    """Validate (n, m, p, s) and return the spec.

    Strict mode additionally enforces p*p <= n and 2*m <= n; turn it off
    for exploratory instances that the closed-form bounds do not cover.
    """
    if n <= 0 or m <= 0:
        raise DegenerateInstance(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if p < 1:
        raise DegenerateInstance(f"period must be >= 1, got {p}")
    if not 0 <= s <= n - 1:
        raise OverflowsLabelSpace(f"offset {s} outside 0..{n - 1}")
    if s + (m - 1) * p > n - 1:
        raise OverflowsLabelSpace(
            f"marked set ends at {s + (m - 1) * p}, past the last label {n - 1}"
        )
    if strict and p * p > n:
        raise PeriodTooLarge(f"strict mode needs p*p <= n, got {p}**2 > {n}")
    if strict and 2 * m > n:
        raise MarkedSetTooLarge(f"strict mode needs 2*m <= n, got m={m}, n={n}")
    return OracleSpec(n, m, p, s)


class OracleHandle:
    """The oracle as a callable with a query tally.

    ``handle(x)`` returns 1 iff x is marked, and bumps ``query_count``:
    it tests x - s against the stored period and span.  ``query_many``
    asks a batch of labels at once.
    """

    def __init__(self, spec: OracleSpec):
        self.spec = spec
        self._n = spec.n
        self._s = spec.s
        self._p = spec.p
        self._span = (spec.m - 1) * spec.p
        self._count = 0

    @property
    def n(self) -> int:
        return self._n

    @property
    def query_count(self) -> int:
        return self._count

    def __call__(self, x: int) -> int:
        if not 0 <= x < self._n:
            raise LabelOutOfRange(f"label {x} outside 0..{self._n - 1}")
        self._count += 1
        d = x - self._s
        return 1 if 0 <= d <= self._span and d % self._p == 0 else 0

    def query_many(self, xs) -> np.ndarray:
        """``handle(x)`` for each label x in the 1-D int64 sequence ``xs``, as
        an int8 array; a label outside 0..n-1 reads 0 and is not charged.
        The arithmetic is int64, so n must stay below 2**63."""
        xs = np.asarray(xs, dtype=np.int64)
        inside = (xs >= 0) & (xs < self._n)
        self._count += int(np.count_nonzero(inside))
        d = xs - self._s  # may wrap outside the range, where ``inside`` masks it
        return (inside & (d >= 0) & (d <= self._span) & (d % self._p == 0)).view(np.int8)
