"""Shared spectral vocabulary: algorithms, per-frequency cases, tables.

Every frequency y in 0..n-1 falls in exactly one case, decided by integer
arithmetic alone (never by floating point):

    zero       y == 0
    resonant   p*y == 0 (mod n), y != 0
    generic    p*y != 0 and m*p*y != 0 (mod n)
    null       p*y != 0 but m*p*y == 0 (mod n)

Null frequencies carry exactly zero probability under all three pipelines,
so tables store an exact 0.0 there, taken from the integer classification.
Every other entry keeps its computed value, however small: a generic
frequency's true probability can sit far below any fixed threshold once n
is large, and zeroing it would break normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError


class Algorithm(str, Enum):
    AMPLIFIED = "amplified"
    QFT = "qft"
    QHS = "qhs"


# Small-int codes used in bulk arrays; CASE_NAMES maps code -> case name.
CASE_NAMES = ("zero", "resonant", "generic", "null")
CODE_ZERO, CODE_RESONANT, CODE_GENERIC, CODE_NULL = range(4)

NORMALIZATION_TOL = 1e-9


def case_codes(n: int, m: int, p: int) -> np.ndarray:
    """Vectorized classification: int8 codes for every y in 0..n-1.

    p*y == 0 (mod n) iff n/gcd(n, p) divides y, and m*p*y == 0 (mod n) iff
    n/gcd(n, m*p) divides y; the first stride is a multiple of the second,
    so two strided writes over a generic fill mark every case.  numpy
    cannot index n >= 2**63 entries, a ValidationError.
    """
    if n >= 1 << 63:
        raise ValidationError(f"a table needs n below 2**63 (n={n})")
    codes = np.full(n, CODE_GENERIC, dtype=np.int8)
    codes[:: n // math.gcd(n, m * p)] = CODE_NULL
    codes[:: n // math.gcd(n, p)] = CODE_RESONANT
    codes[0] = CODE_ZERO
    return codes


@dataclass
class ProbabilityTable:
    """Per-frequency measurement probabilities with case annotations.

    Every table is mirror-symmetric bit for bit: ``pr[n - y] == pr[y]`` and
    ``codes[n - y] == codes[y]`` for y in 1..n-1, since every builder
    copies the rows above n/2 from the rows below (or tiles one period,
    whose residues p*y and -p*y fold to the same sines).  The CLI relies on
    this to format each table's rows y = 0..n//2 only.
    """

    pr: np.ndarray
    codes: np.ndarray


def check_entries(pr: np.ndarray) -> None:
    """ValidationError unless every probability in ``pr`` is finite and
    non-negative: each is a square or a sum of squares, so any negative or
    non-finite one is a defect, not rounding."""
    finite = np.isfinite(pr)
    if not finite.all():
        raise ValidationError(f"non-finite probability {pr[~finite][0]} in table")
    if pr.min() < 0:
        raise ValidationError(f"negative probability {pr.min()} in table")


def check_total(total: float) -> None:
    """ValidationError unless a table's probabilities sum to ``total``
    within NORMALIZATION_TOL of 1."""
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValidationError(f"table sums to {total}, not 1")


def make_table(pr: np.ndarray, codes: np.ndarray) -> ProbabilityTable:
    """Zero the null frequencies, enforce normalization, and build the table.

    Takes ownership of ``pr``, a fresh float64 array: its null entries are
    zeroed in place and it becomes the table's ``pr``, with no copy.
    """
    check_entries(pr)
    # The rounding dust a simulation leaves on null frequencies becomes the
    # exact zero the classification proves; nothing else is touched.
    pr[codes == CODE_NULL] = 0.0
    check_total(pr.sum())
    return ProbabilityTable(pr, codes)
