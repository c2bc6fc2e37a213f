"""Differential tests of lpq.floattext against Python's own formatting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpq import floattext
from lpq.floattext import FORMATS, float_cells, fallback_reasons

# The suffixes the tables attach, and none.
SUFFIXES = ["", ",", "\n", ',\n   "pr_simulated": ', '",\n   "']
# The fallback reasons each format gives: only repr sees the asymmetric
# rounding interval of a power of two.
REASONS = {
    "%.17g": {floattext.NOT_POSITIVE_NORMAL, floattext.OUTSIDE_WINDOW, floattext.NEAR_TIE},
    "%r": {floattext.NOT_POSITIVE_NORMAL, floattext.OUTSIDE_WINDOW, floattext.NEAR_TIE,
           floattext.POWER_OF_TWO},
}
LARGEST = np.finfo(np.float64).max


def python_cells(values, fmt, suffix):
    return [fmt % x + suffix for x in values.tolist()]


def random_patterns(count, seed):
    """Doubles from uniform bit patterns over the whole finite range, both
    signs, with 0, the subnormal extremes and the largest double."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 0x7FF0000000000000, count, dtype=np.int64)
    x = bits.view(np.float64) * np.where(rng.random(count) < 0.9, 1.0, -1.0)
    edges = [0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, LARGEST]
    return np.concatenate([x, edges])


def near(values, ulps=2):
    """values and their neighbours up to ``ulps`` ulps away on each side."""
    out = [values]
    up = down = values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        out += [up, down]
    return np.concatenate(out)


def near_ties(count, seed):
    """x = N / 4 for odd N with 17 digits before the point, whose exact
    decimal ends in 25 or 75, so that 17 digits round a tie."""
    rng = np.random.default_rng(seed)
    return (rng.integers(2 * 10**15, 4 * 10**15, count) * 2 + 1) / 4


def table_like(count, seed):
    """Probabilities and deviations as the tables hold them: 1/n-scaled
    values and few-ulp differences, with a run of repeats."""
    rng = np.random.default_rng(seed)
    pr = rng.random(count) * 10.0 ** rng.integers(-12, 1, count)
    dev = np.abs(pr - np.nextafter(pr, 1.0)) * rng.integers(0, 4, count)
    return np.concatenate([pr, dev, np.repeat(pr[:10], 50)])


CASES = {
    "random-patterns": random_patterns(60_000, 1),
    "decades": near(10.0 ** np.arange(-300, 301)),
    "powers-of-two": np.ldexp(1.0, np.arange(-1074, 1024)),
    "thresholds": near(np.array([1e-5, 1e-4, 1e16, 1e17]), ulps=4),
    "near-ties": near_ties(2_000, 2),
    "table-like": table_like(20_000, 3),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_python(case, fmt):
    values = CASES[case]
    suffix = SUFFIXES[sorted(CASES).index(case) % len(SUFFIXES)]
    got = float_cells(values, fmt, suffix).tolist()
    want = python_cells(values, fmt, suffix)
    bad = [(x, g, w) for x, g, w in zip(values.tolist(), got, want) if g != w]
    assert bad == [], bad[:5]


@pytest.mark.parametrize("fmt", FORMATS)
def test_every_fallback_reason_is_hit(fmt):
    reasons, _, _ = fallback_reasons(np.concatenate(list(CASES.values())), fmt)
    hit = set(np.unique(reasons).tolist())
    assert hit == REASONS[fmt] | {floattext.FAST}


def test_empty_and_unknown_format():
    assert float_cells(np.empty(0), "%r", ",").tolist() == []
    with pytest.raises(ValueError):
        float_cells(np.ones(3), "%.16g")


def test_values_past_one_pass_keep_their_order():
    values = table_like(floattext._CHUNK // 2 + 7, 4)
    assert values.size > floattext._CHUNK
    assert float_cells(values, "%r", ",").tolist() == python_cells(values, "%r", ",")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0), min_size=1, max_size=40),
    st.sampled_from(FORMATS),
    st.sampled_from(SUFFIXES),
)
def test_hypothesis_floats(values, fmt, suffix):
    x = np.array(values, dtype=np.float64)
    assert float_cells(x, fmt, suffix).tolist() == python_cells(x, fmt, suffix)
