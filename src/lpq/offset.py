"""Finding the offset once a period candidate is in hand.

Three-probe verification: if p1 >= 1 and f(s1) = 1, f(s1 + p1) = 1 and
f(s1 + (m-1)*p1) = 1 then (s1, p1) is the true pair — any smaller p1 misses
the member next to s, any larger one (or any wrong s1) runs past the top of
the marked set; p1 < 1 is rejected unqueried.  ``probes_accept`` alone
forms the three probes, by ``OracleHandle.probe``: outside 0..n-1 it reads
0 rather than erroring, which makes the test total.  For m = 1 the pair
test rejects every candidate (s + p1 is never marked when s is the only
member), so the search procedures return the single member directly.

Two seeded searches recover the offset from a measured member x1 = s + r*p.
Both run in one frame: it rejects p < 1 before any query, measures x1 by
amplification, each attempt checked by one charged probe, returns x1 at
once for m = 1, descends only from an x1 above the offset, and charges
every query the search made to ``oracle_queries``.  At x1 and at each
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


def probes_accept(handle: OracleHandle, s: int, p1, m: int):
    """Three probes decide whether (s, p1) is the true pair: a bool for one
    candidate, where p1 < 1 costs no query, or a bool array for an int64
    array of candidates >= 1, which probes s once and the rest in batches."""
    if np.ndim(p1) == 0 and p1 < 1:
        return False
    return handle.probe(s) + handle.probe(s + p1) + handle.probe(s + (m - 1) * p1) == 3


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


def _measure_starting_member(handle, rng):
    for _ in range(_MEASURE_RETRIES):
        x1 = amplified_measure_member(handle, rng)
        if handle(x1) == 1:
            return x1
    raise NonTermination(f"no member measured in {_MEASURE_RETRIES} amplified attempts")


def _at_offset(handle: OracleHandle, x: int, p: int, m: int) -> bool:
    """Whether the member x is the offset, by one probe of x - p and, if
    that is unmarked, the pair test; VerificationFailed if it rejects."""
    if handle.probe(x - p):
        return False
    if probes_accept(handle, x, p, m):
        return True
    raise VerificationFailed(f"pair (s={x}, p={p}) rejected by probes")


def _search(method: str, descend, handle: OracleHandle, p: int, m: int, seed):
    """The frame both searches share (module docstring); ``descend(handle,
    p, m, t, rng, result)`` moves ``result`` from a member above the offset
    down to it by t-point ladders, t the least power of two >= m."""
    if p < 1:
        raise ValidationError(f"period candidate must be >= 1, got {p}")
    rng = np.random.default_rng(seed)
    queries_before = handle.query_count
    x1 = _measure_starting_member(handle, rng)
    result = OffsetSearchResult(method, x1, history=[x1])
    if m > 1 and not _at_offset(handle, x1, p, m):
        descend(handle, p, m, 1 << (m - 1).bit_length(), rng, result)
    result.oracle_queries = handle.query_count - queries_before
    return result


def _marked_image(handle: OracleHandle, x: int, p: int, t: int) -> list[int]:
    """The marked points, in ladder order, of the t-point probe ladder
    g(i) = max(0, x - (i+1)*p) below x: the rungs x - p, x - 2p, ..., then
    label 0.  Each point is queried once, in ladder order, and only after
    x - p probed marked, so every rung lies in 0..x - p and costs one
    plain oracle call, as charged."""
    ladder = list(range(x - p, max(x - (t + 1) * p, 0), -p))
    ladder += [0] * (t - len(ladder))
    return list(compress(ladder, map(handle, ladder)))


def _count_down(handle: OracleHandle, p: int, m: int, t: int, rng, result: OffsetSearchResult):
    x1 = result.offset
    reported = _idealized_count(len(_marked_image(handle, x1, p, t)), t, rng)
    candidate = max(x1 - reported * p, 0)
    result.counting_cost = math.sqrt((reported + 1) * (t - reported + 1))
    result.iterations = 1
    if not probes_accept(handle, candidate, p, m):
        raise VerificationFailed(
            f"pair (s={candidate}, p={p}) rejected by probes (count={reported})"
        )
    result.offset = candidate
    result.history.append(candidate)


def _walk_down(handle: OracleHandle, p: int, m: int, t: int, rng, result: OffsetSearchResult):
    max_rounds = 64 * math.ceil(math.log2(m) + 1)
    x = result.offset
    while True:  # x is a member above the offset
        if result.iterations >= max_rounds:
            raise NonTermination(f"offset walk exceeded {max_rounds} rounds")
        # Amplify the t-point register on the marked image and measure it.
        image = _marked_image(handle, x, p, t)
        good = len(image)  # >= 1: the top rung x - p probed marked
        schedule = grover_schedule(t, good)
        for _ in range(_MEASURE_RETRIES):
            if rng.random() < good * schedule.a_k**2:
                break  # landed on the marked image; else retry the round
        else:
            raise NonTermination(f"{_MEASURE_RETRIES} off-image measurements in a row")
        x = image[int(rng.integers(good))]
        handle(x)  # membership confirmation probe
        result.history.append(x)
        result.iterations += 1
        if _at_offset(handle, x, p, m):
            result.offset = x
            return


def find_offset_counting(handle: OracleHandle, p: int, m: int, seed) -> OffsetSearchResult:
    """Offset via one idealized count of the marked probe ladder.

    Raises VerificationFailed when the pair test rejects the candidate,
    exactly when p is wrong or the counter lied at s > 0; the caller should
    rerun period finding.  Raises ValidationError for p < 1.
    """
    return _search("counting", _count_down, handle, p, m, seed)


def find_offset_decreasing(handle: OracleHandle, p: int, m: int, seed) -> OffsetSearchResult:
    """Offset via a strictly decreasing walk of amplified measurements.

    Raises VerificationFailed when p is wrong, NonTermination if the
    walk exceeds its iteration guard, and ValidationError for p < 1.
    """
    return _search("decreasing", _walk_down, handle, p, m, seed)
