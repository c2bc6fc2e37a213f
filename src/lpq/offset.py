"""Finding the offset once a period candidate is in hand.

Three-probe verification: if p1 >= 1 and f(s1) = 1, f(s1 + p1) = 1 and
f(s1 + (m-1)*p1) = 1 then (s1, p1) is the true pair — any smaller p1 misses
the member next to s, any larger one (or any wrong s1) runs past the top of
the marked set; p1 < 1 is rejected unqueried.  Probes outside 0..n-1
evaluate to 0 rather than erroring, which makes the tests total.  For m = 1
the pair test rejects every candidate (s + p1 is never marked when s is the
only member), so the search procedures return the single member directly.

Two seeded searches recover the offset from a measured member x1 = s + r*p.
Both run in one frame: it rejects p < 1 before any query, measures x1 by
amplification (or checks a given ``x_start`` with one charged probe;
LabelOutOfRange, uncharged, outside 0..n-1), returns x1 at once for m = 1,
and charges every query the search made to ``oracle_queries``.  At each
member x a descent reaches, one probe of x - p decides: marked means x is
above the offset; unmarked means x is the offset if the pair test accepts
(x, p), and otherwise that p is wrong (VerificationFailed).

* counting: an idealized counter reports how many, R, of the t probe
  points g(x) = max(0, x1 - (x+1)*p) are marked: the exact count with
  probability >= 2/3, an adversarial near-miss otherwise.  The candidate
  is x1 - R*p, or label 0 below that: the points past the positive rungs
  are label 0, marked only at s = 0, so only there can an exact R pass
  them.  At s > 0 a wrong count (at any s a wrong period) is caught by the
  pair test and surfaces as VerificationFailed.  Its cost is charged as
  sqrt((R+1)(t-R+1)) oracle applications.

* decreasing: amplify the t-point register on the marked g-image, measure
  a member strictly below the current one, and repeat; the walk halves the
  remaining multiplier on average, so it ends at s after O(log2 m) rounds.

The ladder (``g_ladder``) is built only after x - p probed marked, so
every rung lies in 0..x - p and costs one plain oracle call, as charged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .errors import NonTermination, ValidationError, VerificationFailed
from .oracle import OracleHandle, OracleSpec
from .simulator import grover_schedule

_MEASURE_RETRIES = 16


def _probe(handle: OracleHandle, x: int) -> int:
    # Labels outside the space cannot be marked; don't charge a query.
    if 0 <= x <= handle.n - 1:
        return handle(x)
    return 0


def test_period_known_s(handle: OracleHandle, s: int, p1: int, m: int) -> bool:
    """Three probes decide whether (s, p1) is the true pair; p1 < 1 costs none."""
    if p1 < 1:
        return False
    probes = (_probe(handle, s), _probe(handle, s + p1), _probe(handle, s + (m - 1) * p1))
    return all(b == 1 for b in probes)


def amplified_measure_member(handle: OracleHandle, rng: np.random.Generator) -> int:
    """Measure the register after the full amplification schedule.

    Samples the exact two-level distribution (a_k^2 on each member, the
    rest evenly off it); lands on a member with probability
    sin^2((2k+1) theta) >= 1 - m/n.
    The caller still checks membership through the oracle.
    """
    spec = handle.spec
    schedule = grover_schedule(spec.n, spec.m)
    if rng.random() < spec.m * schedule.a_k**2:
        return spec.s + int(rng.integers(spec.m)) * spec.p
    return _unmarked_label(spec, int(rng.integers(spec.n - spec.m)))


def _unmarked_label(spec: OracleSpec, i: int) -> int:
    """The i-th unmarked label in ascending order, 0 <= i < n - m.

    The s labels below the first member come first, then m - 1 gaps of
    p - 1 labels between consecutive members, then the labels past the
    last member.
    """
    if i < spec.s:
        return i
    i -= spec.s
    gaps = (spec.m - 1) * (spec.p - 1)
    if i < gaps:  # never true at p = 1, where the gaps are empty
        gap, offset = divmod(i, spec.p - 1)
        return spec.s + gap * spec.p + 1 + offset
    return spec.s + (spec.m - 1) * spec.p + 1 + (i - gaps)


def g_ladder(x1: int, p: int, t: int) -> list[int]:
    """The probe ladder [g(0), ..., g(t-1)], g(x) = max(0, x1 - (x+1)*p).

    Needs p >= 1.  The positive rungs step down by p; the rest are 0.
    """
    rungs = list(range(x1 - p, max(x1 - (t + 1) * p, 0), -p))
    return rungs + [0] * (t - len(rungs))


def _pow2_at_least(m: int) -> int:
    return 1 << max(0, (m - 1).bit_length())


def _idealized_count(true_count: int, t: int, rng: np.random.Generator) -> int:
    """The count an idealized counter reports: exact with probability 2/3."""
    if rng.random() < 2.0 / 3.0:
        return true_count
    # Adversarial failure: a near-miss, the hardest wrong answer to spot.
    wrong = [c for c in (true_count - 1, true_count + 1) if 0 <= c <= t]
    return wrong[int(rng.integers(len(wrong)))]  # rng.choice(wrong)'s draw, without its array


@dataclass
class OffsetSearchResult:
    """Transcript of one offset search."""

    method: str
    offset: int
    history: list[int] = field(default_factory=list)
    iterations: int = 0
    oracle_queries: int = 0
    counting_cost: float = 0.0


def _measure_starting_member(handle, rng, x_start):
    if x_start is not None:
        if handle(x_start) != 1:
            raise ValidationError(f"x_start={x_start} is not a marked label")
        return x_start
    for _ in range(_MEASURE_RETRIES):
        x1 = amplified_measure_member(handle, rng)
        if handle(x1) == 1:
            return x1
    raise NonTermination(f"no member measured in {_MEASURE_RETRIES} amplified attempts")


def _at_offset(handle: OracleHandle, x: int, p: int, m: int) -> bool:
    """Whether the member x is the offset, by one probe of x - p and, if
    that is unmarked, the pair test; VerificationFailed if it rejects."""
    if _probe(handle, x - p):
        return False
    if test_period_known_s(handle, x, p, m):
        return True
    raise VerificationFailed(f"pair (s={x}, p={p}) rejected by probes")


def _search(method: str, descend, handle: OracleHandle, p: int, m: int, seed, x_start):
    """The frame both searches share (module docstring);
    ``descend(handle, p, m, rng, result)`` moves ``result`` from the
    starting member down to the offset."""
    if p < 1:
        raise ValidationError(f"period candidate must be >= 1, got {p}")
    rng = np.random.default_rng(seed)
    queries_before = handle.query_count
    x1 = _measure_starting_member(handle, rng, x_start)
    result = OffsetSearchResult(method, x1, history=[x1])
    if m > 1:  # at m = 1, x1 is the only member, hence the offset: no pair to test
        descend(handle, p, m, rng, result)
    result.oracle_queries = handle.query_count - queries_before
    return result


def _count_down(handle: OracleHandle, p: int, m: int, rng, result: OffsetSearchResult) -> None:
    x1 = result.offset
    if _at_offset(handle, x1, p, m):
        return
    t = _pow2_at_least(m)
    reported = _idealized_count(sum(map(handle, g_ladder(x1, p, t))), t, rng)
    candidate = max(x1 - reported * p, 0)
    result.counting_cost = math.sqrt((reported + 1) * (t - reported + 1))
    result.iterations = 1
    if not test_period_known_s(handle, candidate, p, m):
        raise VerificationFailed(
            f"pair (s={candidate}, p={p}) rejected by probes (count={reported})"
        )
    result.offset = candidate
    result.history.append(candidate)


def _walk_down(handle: OracleHandle, p: int, m: int, rng, result: OffsetSearchResult) -> None:
    max_rounds = 64 * math.ceil(math.log2(m) + 1)
    t = _pow2_at_least(m)
    x = result.offset
    while not _at_offset(handle, x, p, m):
        if result.iterations >= max_rounds:
            raise NonTermination(f"offset walk exceeded {max_rounds} rounds")
        # Mark the probe ladder below x and amplify over the t-point register.
        ladder = g_ladder(x, p, t)
        marked = list(map(handle, ladder))
        good = sum(marked)  # >= 1: the top rung x - p probed marked
        schedule = grover_schedule(t, good)
        for _ in range(_MEASURE_RETRIES):
            if rng.random() < good * schedule.a_k**2:
                break  # landed on the marked image; else retry the round
        else:
            raise NonTermination(f"{_MEASURE_RETRIES} off-image measurements in a row")
        x = list(compress(ladder, marked))[int(rng.integers(good))]
        handle(x)  # membership confirmation probe
        result.history.append(x)
        result.iterations += 1
    result.offset = x


def find_offset_counting(
    handle: OracleHandle, p: int, m: int, seed, x_start: int | None = None
) -> OffsetSearchResult:
    """Offset via one idealized count of the marked probe ladder.

    Raises VerificationFailed when the pair test rejects the candidate,
    exactly when p is wrong or the counter lied at s > 0; the caller should
    rerun period finding.  Raises ValidationError for p < 1 or an x_start
    that is not a member.
    """
    return _search("counting", _count_down, handle, p, m, seed, x_start)


def find_offset_decreasing(
    handle: OracleHandle, p: int, m: int, seed, x_start: int | None = None
) -> OffsetSearchResult:
    """Offset via a strictly decreasing walk of amplified measurements.

    Raises VerificationFailed when p is wrong, NonTermination if the
    walk exceeds its iteration guard, and ValidationError for p < 1 or an
    x_start that is not a member.
    """
    return _search("decreasing", _walk_down, handle, p, m, seed, x_start)
