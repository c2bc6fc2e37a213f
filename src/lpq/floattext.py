"""Exact bulk formatting of float64 arrays as the text that Python prints.

``float_cells(values, fmt, suffix)`` gives ``fmt % x + suffix`` for every
x in values, as a numpy str array, where fmt is "%.17g" or "%r" (repr).

The fast path follows Ryu (Adams, PLDI 2018) in numpy.  A positive normal
x, with decimal exponent X, is scaled to y = x * 10^(16 - X) in
[10^16, 10^17) in double-double arithmetic: Dekker's exact product of x
and the double nearest the power of ten, plus x times that double's
rounding error; both doubles are built from exact Python ints on first
use.  y is then within about 1e-14 of exact, in units of its last digit,
so the floor I of y and the fraction f = y - I decide every rounding of x
to 17 or fewer significant digits, and whether it reads back as x, unless
x lies within _WINDOW of a tie or of half an ulp from that rounding.

* "%.17g" prints the 17 digits of y rounded to an integer.
* repr prints the shortest digit string that reads back as x and, among
  those, the one nearest x: the rounding of x to the fewest digits that
  lies within half an ulp of x.  A rounding to n + 1 digits is at least as
  near x as one to n, so that count is found by counting down from 17.

The text is then one gather per value.  Its digits come four at a time
from a lookup table into a row of source bytes, next to the exponent's
sign and digits, a "0", a ".", an "e" and the suffix.  A table, indexed
by the notation X calls for (exponent, leading "0." and zeros, or the
point after digit X) and the count of digits shown, lists which source
byte each byte of the text takes.

Python formats what the fast path cannot certify, each distinct value
once; fallback_reasons says which values these are and why.
"""

from __future__ import annotations

import functools

import numpy as np

# Why a value is formatted by Python; FAST marks one that is not.
FAST = 0
NOT_POSITIVE_NORMAL = 1  # 0, negative, subnormal, inf or nan
OUTSIDE_WINDOW = 2  # decimal exponent outside _X_MIN.._X_MAX
NEAR_TIE = 3  # within _WINDOW of a rounding tie or of half an ulp of x
POWER_OF_TWO = 4  # repr only: the ulp below x is half the ulp above it

FORMATS = ("%.17g", "%r")
# Slack around a tie, in units of the last digit kept: 1e5 times the error
# of the double-double y.
_WINDOW = 1e-9
# Decimal exponents of the fast path.  Their powers of ten, and x itself,
# times the splitter stay finite and far above the subnormals.
_X_MIN, _X_MAX = -270, 280
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
_E16, _E17 = 10**16, 10**17
# Values per pass, and per gather of their text, which bound the
# temporaries: the gather indexes every byte of every text.
_CHUNK, _TAKE = 1 << 14, 1 << 12
# Columns of the source row of a value: "0", ".", "e", the 17 digits, the
# exponent's sign and three digits, the suffix and NUL.  The digits from
# the second on, and the exponent, sit in aligned 4-byte words.
_ZERO, _POINT, _E, _DIGIT, _SIGN, _SUFFIX = 0, 1, 2, 3, 20, 24


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """For X in _X_MIN.._X_MAX, at index X - _X_MIN: the double nearest
    10^(16 - X), its Veltkamp halves, and the double nearest what it
    misses by."""
    hi, lo = [], []
    for x in range(_X_MIN, _X_MAX + 1):
        # 10^(16 - x) = num / den, and hi = a / b; int / int rounds correctly
        num, den = 10 ** max(16 - x, 0), 10 ** max(x - 16, 0)
        hi.append(num / den)
        a, b = hi[-1].as_integer_ratio()
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    c = _SPLIT * hi
    top = c - (c - hi)
    return hi, top, hi - top, np.array(lo)


@functools.cache
def _groups() -> tuple[np.ndarray, np.ndarray]:
    """For 0..9999: the ASCII of its four digits as one 4-byte word, and
    the count of its trailing zero digits (4 for 0)."""
    g = np.arange(10_000)
    ascii_ = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + 48
    zeros = (g % 10 == 0).astype(np.int8)
    for power in (100, 1000, 10_000):
        zeros += g % power == 0
    return ascii_.astype(np.uint8).view(np.uint32).ravel(), zeros


@functools.cache
def _exponents() -> np.ndarray:
    """The sign and three digits of X as one 4-byte word, at X - _X_MIN
    for X in _X_MIN.._X_MAX + 1."""
    text = [b"%+04d" % x for x in range(_X_MIN, _X_MAX + 2)]
    return np.frombuffer(b"".join(text), dtype=np.uint32)


def _sources(notation: int, count: int) -> list[int]:
    """The source column of each byte of a text with ``count`` digits
    shown, in a notation numbered as _notation numbers them."""
    digits = list(range(_DIGIT, _DIGIT + count))
    if notation < 2:  # d.ddde+XX, or with three exponent digits
        point = [_POINT, *digits[1:]] if count > 1 else []
        return [digits[0], *point, _E, _SIGN, *range(_SIGN + 2 - notation, _SIGN + 4)]
    if notation < 6:  # 0.000ddd
        return [_ZERO, _POINT, *[_ZERO] * (notation - 2), *digits]
    whole = notation - 5  # digits before the point
    return digits[:whole] + ([_POINT, *digits[whole:]] if count > whole else [])


@functools.cache
def _notation(fmt: str) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """For X in _X_MIN.._X_MAX + 1, at index X - _X_MIN: the notation fmt
    prints X in, and the fewest digits it shows; and the source columns of
    the text in notation a with c digits, at index 18 * a + c.

    The notations are exponent notation with two exponent digits (0) or
    three (1), "0." and -X - 1 zeros before the digits (1 - X, for X in
    -4..-1), and the point after digit X (6 + X, for X from 0 to below
    top: 17 for "%.17g", 16 for repr).  Exponent notation shows the point
    only if digits follow it; fixed notation shows every digit before the
    point, and repr at least one after it ("1.0").
    """
    top = 17 if fmt == "%.17g" else 16
    notation, least = [], []
    for x in range(_X_MIN, _X_MAX + 2):
        if -4 <= x < 0:
            notation.append(1 - x), least.append(1)
        elif 0 <= x < top:
            notation.append(6 + x), least.append(x + 1 + (top == 16))
        else:
            notation.append(int(abs(x) >= 100)), least.append(1)
    sources = [_sources(a, c) if c else [] for a in range(6 + top) for c in range(18)]
    return np.array(notation, dtype=np.int64), np.array(least, dtype=np.int64), sources


@functools.cache
def _gather_table(fmt: str, width: int) -> np.ndarray:
    """_notation's source columns followed by a suffix of ``width``
    bytes, padded with the NUL column."""
    nul = _SUFFIX + width
    rows = [row + list(range(_SUFFIX, nul)) for row in _notation(fmt)[2]]
    longest = max(map(len, rows))
    padded = [row + [nul] * (longest - len(row)) for row in rows]
    return np.array(padded, dtype=np.min_scalar_type(nul))


def _scaled(x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The floor I and the fraction f of x * 10^(16 - e), in double-double."""
    hi, bh, bl, lo = (table[e - _X_MIN] for table in _powers())
    prod = x * hi
    c = _SPLIT * x
    xh = c - (c - x)
    xl = x - xh
    t = (((xh * bh - prod) + xh * bl + xl * bh) + xl * bl) + x * lo
    top = prod + t
    bottom = t - (top - prod)  # top + bottom = prod + t exactly
    whole = top.astype(np.int64)  # top >= 2^53 is an integer
    rest = (top - whole) + bottom
    floor = np.floor(rest)
    return whole + floor.astype(np.int64), rest - floor


def _rounded(i: np.ndarray, f: np.ndarray, unit: int) -> tuple[np.ndarray, np.ndarray]:
    """(I + f) / unit rounded to an integer, and whether it lies within
    _WINDOW of a tie."""
    q = i // unit
    frac = ((i - q * unit) + f) / unit
    return q + (frac > 0.5), np.abs(frac - 0.5) <= _WINDOW


def fallback_reasons(x: np.ndarray, fmt: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Why each x needs Python's formatter (FAST where it does not), and,
    for the FAST ones in order, the 17-digit integer D and the exponent E
    with fmt % x printing the significant digits of D * 10^(E - 16)."""
    reason = np.full(x.shape, NOT_POSITIVE_NORMAL, dtype=np.int8)
    biased = x.view(np.int64) >> 52  # the sign bit and the exponent field
    fast = np.flatnonzero((biased > 0) & (biased < 0x7FF))
    e = np.floor(np.log10(x[fast])).astype(np.int64)
    inside = (e >= _X_MIN) & (e <= _X_MAX)
    reason[fast[~inside]] = OUTSIDE_WINDOW
    fast, e = fast[inside], e[inside]
    i, f = _scaled(x[fast], e)
    # log10 can miss a power of ten by one: scale those again
    step = (i >= _E17).astype(np.int64) - (i < _E16)
    again = np.flatnonzero(step)
    if again.size:
        e[again] += step[again]
        again = again[(e[again] >= _X_MIN) & (e[again] <= _X_MAX)]
        i[again], f[again] = _scaled(x[fast[again]], e[again])
        inside = (i >= _E16) & (i < _E17)
        reason[fast[~inside]] = OUTSIDE_WINDOW
        fast, e, i, f = fast[inside], e[inside], i[inside], f[inside]
    xs = x[fast]
    digits, tie = _rounded(i, f, 1)
    why = np.where(tie, NEAR_TIE, FAST).astype(np.int8)
    if fmt == "%r":
        why[(xs.view(np.int64) & ((1 << 52) - 1)) == 0] = POWER_OF_TWO
        # half an ulp of x, in units of y's last digit
        half = np.spacing(xs) * _powers()[0][e - _X_MIN] * 0.5
        # Take the rounding to n digits while it reads back, n from 16
        # down: if one to n digits reads back, the one to n + 1 does.
        rows = np.flatnonzero(why == FAST)
        for n in range(16, 0, -1):
            unit = 10 ** (17 - n)
            d, tie = _rounded(i[rows], f[rows], unit)
            miss = np.abs((i[rows] - d * unit) + f[rows])
            back = miss < half[rows] - _WINDOW
            unsure = tie | (~back & (miss <= half[rows] + _WINDOW))
            why[rows[unsure]] = NEAR_TIE
            keep = back & ~unsure
            rows = rows[keep]
            digits[rows] = d[keep] * unit
            if not rows.size:
                break
    reason[fast] = why
    ok = why == FAST
    digits, e = digits[ok], e[ok]
    carry = digits == _E17  # rounded up to the next power of ten
    return reason, np.where(carry, _E16, digits), e + carry


def _texts(digits: np.ndarray, e: np.ndarray, fmt: str, suffix: bytes) -> np.ndarray:
    """The ASCII of the text of each 17-digit D at exponent E
    (fallback_reasons) and the suffix, one NUL-padded row each."""
    words, zeros = _groups()
    at = e - _X_MIN
    table = _gather_table(fmt, len(suffix))
    row = b"0.e".ljust(_SUFFIX, b"\0") + suffix
    # then NUL, padded to whole 4-byte words
    row = np.frombuffer(row.ljust(-(-(len(row) + 1) // 4) * 4, b"\0"), dtype=np.uint8)
    source = np.tile(row, (digits.size, 1))
    quads = source.view(np.uint32)
    quads[:, _SIGN // 4] = _exponents()[at]
    first = digits // _E16
    rest = digits - first * _E16
    source[:, _DIGIT] = first + 48
    groups = []
    for k, power in enumerate((10**12, 10**8, 10**4, 1)):
        groups.append(rest // power)
        rest -= groups[-1] * power
        quads[:, 1 + k] = words[groups[-1]]
    trailing = np.zeros(digits.size, dtype=np.int64)  # zero digits at the end
    more = np.ones(digits.size, dtype=bool)  # the groups after this one are all zeros
    for group in reversed(groups):
        trailing += more * zeros[group]
        more &= group == 0
    notation, least, _ = _notation(fmt)
    shown = np.maximum(17 - trailing, least[at])
    index = np.take(table, notation[at] * 18 + shown, axis=0)
    out = np.empty(index.shape, dtype=np.uint8)
    for a in range(0, digits.size, _TAKE):
        b = min(a + _TAKE, digits.size)
        flat = np.add(index[a:b], (np.arange(a, b) * row.size)[:, None], dtype=np.intp)
        np.take(source.ravel(), flat, out=out[a:b])
    return out


def float_cells(values: np.ndarray, fmt: str, suffix: str = "") -> np.ndarray:
    """``fmt % x + suffix`` for every float64 x in values, as a numpy str
    array."""
    if fmt not in FORMATS:
        raise ValueError(f"fmt must be one of {FORMATS}, got {fmt!r}")
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    tail = suffix.encode("ascii")
    parts, slow = [], []  # (rows of x, the ASCII of their texts); rows for Python
    for start in range(0, x.size, _CHUNK):
        chunk = x[start : start + _CHUNK]
        reason, digits, e = fallback_reasons(chunk, fmt)
        fast = np.flatnonzero(reason == FAST) + start
        rows = slice(start, start + chunk.size) if fast.size == chunk.size else fast
        parts.append((rows, _texts(digits, e, fmt, tail)))
        slow.append(np.flatnonzero(reason != FAST) + start)
    slow = np.concatenate(slow) if slow else np.empty(0, dtype=np.int64)
    if slow.size:
        bits, inverse = np.unique(x[slow].view(np.int64), return_inverse=True)
        texts = [(fmt % v + suffix).encode() for v in bits.view(np.float64).tolist()]
        parts.append((slow, np.array(texts).view(np.uint8).reshape(len(texts), -1)[inverse]))
    # widening each byte to a UCS4 code point makes the str array
    width = max((texts.shape[1] for _, texts in parts), default=1)
    out = np.zeros((x.size, width), dtype=np.uint32)
    for rows, texts in parts:
        out[rows, : texts.shape[1]] = texts
    return out.view(f"U{width}").ravel()
