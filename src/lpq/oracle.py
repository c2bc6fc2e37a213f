"""Problem instances: a 0/1 oracle marking an arithmetic progression.

An instance over the labels {0..n-1} marks the m labels
{s, s+p, ..., s+(m-1)p}; the oracle is the indicator of that set, wrapped
behind a query counter so search procedures can report their cost.  Every
handle wraps a validated :class:`OracleSpec`, so amplification can always
read n, m, p and s off ``handle.spec``.  One query is one label in
0..n-1 put to the handle, and the tally counts exactly those: one per
``OracleHandle.__call__``, which raises on a label outside that range.
``OracleHandle.probe``, the one lenient read, reads 0 there uncharged; it
puts a single label through ``__call__`` and charges a batch one query
per in-range label.  Both test membership by the same arithmetic:
s <= x <= s + (m-1)*p, the last member, which the handle stores at
construction, and (x - s) mod p = 0.  The tally has no lock, since nothing
in lpq queries concurrently.
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
    it tests x against the stored offset, last member and period.
    ``probe`` reads one label or a batch, 0 outside the label space.
    """

    def __init__(self, spec: OracleSpec):
        self.spec = spec
        self._n = spec.n
        self._s = spec.s
        self._p = spec.p
        self._last = spec.s + (spec.m - 1) * spec.p
        self._count = 0

    @property
    def query_count(self) -> int:
        return self._count

    def __call__(self, x: int) -> int:
        if not 0 <= x < self._n:
            raise LabelOutOfRange(f"label {x} outside 0..{self._n - 1}")
        self._count += 1
        return 1 if self._s <= x <= self._last and (x - self._s) % self._p == 0 else 0

    def probe(self, x):
        """``handle(x)`` for one int label x, or 0 uncharged outside 0..n-1;
        any other x is a batch, read as a 1-D int64 array, and gives an int8
        array of those reads, with each in-range label charged.  The batch
        arithmetic is int64, so n must stay below 2**63."""
        if isinstance(x, (int, np.integer)):
            return self(x) if 0 <= x < self._n else 0
        xs = np.asarray(x, dtype=np.int64)
        inside = (xs >= 0) & (xs < self._n)
        self._count += int(np.count_nonzero(inside))
        # 0 <= s and last <= n - 1, so a marked label is in range; xs - s
        # wraps only below s, where the first test already fails
        marked = (xs >= self._s) & (xs <= self._last) & ((xs - self._s) % self._p == 0)
        return marked.view(np.int8)
