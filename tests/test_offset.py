import dataclasses
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lpq import (
    NonTermination,
    OracleHandle,
    ValidationError,
    VerificationFailed,
    amplified_measure_member,
    build_oracle,
    find_offset_counting,
    find_offset_decreasing,
    grover_schedule,
    probes_accept,
)
from lpq.offset import _idealized_count, _marked_image, _unmarked_label
from lpq.oracle import OracleSpec
from reference import counting_failure_rate, g_ladder, members, walk_rounds_mean

SPEC163 = build_oracle(16, 3, 4, 1)


def handle163():
    return OracleHandle(SPEC163)


@pytest.fixture
def start_at(monkeypatch):
    """``start_at(x)`` lands every amplified measurement of the starting
    member on the label x.  The pinned measurement draws nothing from the
    search's rng, and the search still checks x with one charged probe."""

    def pin(x):
        monkeypatch.setattr("lpq.offset.amplified_measure_member", lambda handle, rng: x)

    return pin


class TestPeriodProbes:
    def test_true_pair(self):
        assert probes_accept(handle163(), 1, 4, 3)

    def test_too_small(self):
        assert not probes_accept(handle163(), 1, 2, 3)

    def test_too_large(self):
        assert not probes_accept(handle163(), 1, 6, 3)

    def test_costs_three_queries(self):
        h = handle163()
        probes_accept(h, 1, 4, 3)
        assert h.query_count == 3

    def test_exhaustive_small(self):
        # the probes accept exactly the true period, for every p1 <= n
        for n, m, p, s in [(64, 4, 8, 3), (100, 5, 9, 2), (121, 3, 11, 7)]:
            h = OracleHandle(build_oracle(n, m, p, s))
            for p1 in range(1, n + 1):
                assert probes_accept(h, s, p1, m) == (p1 == p)

    @pytest.mark.parametrize("p1", [0, -4])
    def test_below_one_rejected_without_query(self, p1):
        # at p1 = 0 all three probes would land on the member s
        h = handle163()
        assert not probes_accept(h, 1, p1, 3)
        assert h.query_count == 0


class TestPairProbes:
    def test_true_pair(self):
        assert probes_accept(handle163(), 1, 4, 3)

    def test_offset_too_small(self):
        assert not probes_accept(handle163(), 0, 4, 3)

    def test_offset_shifted_by_period(self):
        # s1 = s + p pushes the last probe past the top of the marked set
        assert not probes_accept(handle163(), 5, 4, 3)

    def test_out_of_range_probe_is_zero_not_error(self):
        assert not probes_accept(handle163(), 14, 4, 3)


def _passing_offsets(handle, candidates, p1, m):
    return [s1 for s1 in candidates if probes_accept(handle, s1, p1, m)]


class TestExhaustOffsets:
    """Scanning candidate offsets: the pair test passes only the true pair."""

    def test_finds_true_pair(self):
        assert _passing_offsets(handle163(), range(16), 4, 3) == [1]

    def test_true_offset_missing(self):
        assert _passing_offsets(handle163(), [0, 2, 3, 5, 9], 4, 3) == []

    def test_wrong_period(self):
        for p1 in (-1, 0, 1, 2, 3, 5, 8):
            assert _passing_offsets(handle163(), range(16), p1, 3) == []


class TestAmplifiedMeasurement:
    def test_quarter_ratio_always_member(self):
        # m/n = 1/4 amplifies to probability 1 on the marked set
        spec = build_oracle(16, 4, 4, 1, strict=False)
        h = OracleHandle(spec)
        marked = set(members(spec))
        sched = grover_schedule(16, 4)
        assert math.sin((2 * sched.k + 1) * sched.theta) ** 2 == pytest.approx(1.0, abs=1e-12)
        for seed in range(200):
            assert amplified_measure_member(h, np.random.default_rng(seed)) in marked

    def test_membership_frequency_three_sigma(self):
        spec = build_oracle(64, 3, 8, 2)
        h = OracleHandle(spec)
        marked = set(members(spec))
        sched = grover_schedule(64, 3)
        good = math.sin((2 * sched.k + 1) * sched.theta) ** 2  # marked mass after k rounds
        draws = 10_000
        hits = sum(
            amplified_measure_member(h, np.random.default_rng(seed)) in marked
            for seed in range(draws)
        )
        sigma = math.sqrt(good * (1 - good) / draws)
        assert abs(hits / draws - good) <= 3 * sigma


    def test_unmarked_label_matches_enumeration(self):
        # every instance with n <= 16: s = 0, p = 1 and sets ending at n-1
        for n in range(1, 17):
            for p in range(1, n + 1):
                for m in range(1, (n - 1) // p + 2):
                    for s in range(n - (m - 1) * p):
                        spec = OracleSpec(n, m, p, s)
                        marked = set(members(spec))
                        unmarked = [x for x in range(n) if x not in marked]
                        got = [_unmarked_label(spec, i) for i in range(n - m)]
                        assert got == unmarked, spec

    def test_draws_match_label_scan(self):
        # same stream and labels as drawing the index, then scanning 0..n-1
        # m/n = 1/2 lands off the marked set half the time
        spec = build_oracle(16, 8, 2, 1)
        h = OracleHandle(spec)
        good = spec.m * grover_schedule(spec.n, spec.m).a_k ** 2
        unmarked = sorted(set(range(spec.n)) - set(members(spec)))
        off = 0
        for seed in range(400):
            rng = np.random.default_rng(seed)
            if rng.random() < good:
                expected = spec.s + int(rng.integers(spec.m)) * spec.p
            else:
                expected = unmarked[int(rng.integers(spec.n - spec.m))]
                off += 1
            assert amplified_measure_member(h, np.random.default_rng(seed)) == expected
        assert off > 100


class TestGFunction:
    """``g_ladder(x1, p, t)`` lists g(x) = max(0, x1 - (x+1)*p), x < t."""

    def test_ladder_from_9(self):
        assert g_ladder(9, 4, 3) == [5, 1, 0]

    def test_below_period_clamps(self):
        assert g_ladder(3, 4, 5) == [0] * 5

    def test_monotone(self):
        ladder = g_ladder(57, 5, 20)
        assert all(b <= a for a, b in zip(ladder, ladder[1:]))

    def test_matches_formula(self):
        rng = random.Random(1234)
        cases = [(0, 1, 1), (3, 4, 5), (4, 4, 3), (8, 4, 1), (8, 4, 4), (100, 1, 128)]
        cases += [(rng.randrange(0, 5000), rng.randrange(1, 300), rng.randrange(1, 70)) for _ in range(500)]
        zero_tails = below_period = 0
        for x1, p, t in cases:
            expected = [max(0, x1 - (x + 1) * p) for x in range(t)]
            assert g_ladder(x1, p, t) == expected, (x1, p, t)
            zero_tails += expected[-1] == 0
            below_period += x1 < p
        assert zero_tails > 100 and below_period > 10


class TestMarkedImage:
    """``_marked_image(handle, x, p1, t)`` against the ladder reference:
    the marked points of ``g_ladder(x, p1, t)`` in ladder order, read by
    one query per point, in ladder order, from every member x."""

    @pytest.mark.parametrize(
        "n,m,p,s,p1",
        [
            (64, 5, 4, 0, 4),  # s = 0: the padding label 0 is marked
            (64, 5, 4, 3, 4),  # s > 0
            (256, 40, 6, 7, 6),  # starts with up to 39 members below, past t
            (64, 5, 4, 3, 3),  # wrong periods: too small, too large, a multiple
            (64, 5, 4, 3, 5),
            (64, 9, 4, 0, 8),
        ],
    )
    def test_matches_the_ladder(self, n, m, p, s, p1):
        spec = build_oracle(n, m, p, s)
        h = OracleHandle(spec)
        marked = set(members(spec))
        queried = []

        def recording(x):
            queried.append(x)
            return h(x)

        for x in members(spec):
            for t in (2, 4, 8, 16):
                ladder = g_ladder(x, p1, t)
                before, queried[:] = h.query_count, []
                assert _marked_image(recording, x, p1, t) == [r for r in ladder if r in marked]
                assert queried == ladder
                assert h.query_count - before == t


def _lying_counter_seed():
    # a seed whose first uniform draw exceeds 2/3, so the counter misreports
    for seed in range(1000):
        if np.random.default_rng(seed).random() >= 2 / 3:
            return seed
    raise AssertionError("no lying seed found")


def _honest_counter_seed():
    for seed in range(1000):
        if np.random.default_rng(seed).random() < 2 / 3:
            return seed
    raise AssertionError("no honest seed found")


class TestCountingSearch:
    def test_ladder_count_from_9(self, start_at):
        # x1 = 9 = s + 2p: marks at g in {5, 1}, so R = 2 and s = 9 - 2*4
        start_at(9)
        result = find_offset_counting(handle163(), 4, 3, seed=_honest_counter_seed())
        assert result.offset == 1
        assert result.counting_cost == pytest.approx(math.sqrt(3 * 3))

    def test_start_at_offset_returns_directly(self, start_at):
        start_at(1)
        result = find_offset_counting(handle163(), 4, 3, seed=0)
        assert result.offset == 1
        assert result.iterations == 0

    def test_wrong_period_fails_verification(self, start_at):
        start_at(9)
        with pytest.raises(VerificationFailed):
            find_offset_counting(handle163(), 3, 3, seed=_honest_counter_seed())

    def test_lying_counter_fails_verification(self, start_at):
        start_at(9)
        with pytest.raises(VerificationFailed):
            find_offset_counting(handle163(), 4, 3, seed=_lying_counter_seed())

    def test_offset_zero_from_a_member_above_it(self, start_at):
        # at s = 0 the padding of the ladder is the marked label 0, so the
        # exact count is t = 8, past the two rungs 128 and 64: label 0
        spec = build_oracle(4096, 5, 64, 0)
        h = OracleHandle(spec)
        start_at(3 * 64)
        result = find_offset_counting(h, 64, 5, seed=_honest_counter_seed())
        assert (result.offset, result.history) == (0, [192, 0])
        assert result.counting_cost == pytest.approx(math.sqrt(9 * 1))

    @pytest.mark.parametrize(
        "spec", [build_oracle(4096, 5, 64, 0), build_oracle(256, 16, 1, 0, strict=False)]
    )
    def test_offset_zero_at_every_seed(self, spec, start_at):
        # a near-miss past label 0 names label 0 too, so no count fails here
        for seed in range(100):
            result = find_offset_counting(OracleHandle(spec), spec.p, spec.m, seed)
            assert result.offset == 0
        for start in members(spec)[1:]:
            start_at(start)
            for seed in range(8):
                result = find_offset_counting(OracleHandle(spec), spec.p, spec.m, seed)
                assert result.offset == 0

    def test_single_member(self):
        spec = build_oracle(10, 1, 1, 7)
        result = find_offset_counting(OracleHandle(spec), 1, 1, seed=0)
        assert result.offset == 7

    def test_multiple_of_true_period_rejected(self, start_at):
        spec = build_oracle(256, 8, 4, 3)
        h = OracleHandle(spec)
        start_at(3 + 7 * 4)
        with pytest.raises(VerificationFailed):
            find_offset_counting(h, 8, 8, seed=_honest_counter_seed())


def reference_count(true_count: int, t: int, rng: np.random.Generator) -> int:
    """The idealized counter with its near-miss drawn by rng.choice: the
    reference for _idealized_count's draw."""
    if rng.random() < 2.0 / 3.0:
        return true_count
    wrong = [c for c in (true_count - 1, true_count + 1) if 0 <= c <= t]
    return int(rng.choice(wrong))


class TestIdealizedCount:
    # near-miss lists of length 1 (at 0 and at t) and of length 2
    @pytest.mark.parametrize("true_count,t", [(0, 8), (8, 8), (3, 8)])
    def test_same_stream_as_choice(self, true_count, t):
        missed = 0
        for seed in range(2000):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _idealized_count(true_count, t, rng)
            assert got == reference_count(true_count, t, ref)
            assert rng.random() == ref.random()  # the next draw agrees too
            missed += got != true_count
        assert 600 < missed < 730  # about a third of the seeds draw a near-miss


class _PinnedGenerator(np.random.Generator):
    """Every measurement lands on the marked image, on its first member."""

    def random(self, *args, **kwargs):
        return 0.0

    def integers(self, *args, **kwargs):
        return 0


class _MissingGenerator(np.random.Generator):
    """Every amplified measurement lands off the marked set or image."""

    def random(self, *args, **kwargs):
        return 1.0


class TestMeasurementGuards:
    @pytest.mark.parametrize("search", [find_offset_counting, find_offset_decreasing])
    def test_no_starting_member(self, search):
        # each of the 16 attempts measures an unmarked label, probed once
        h = handle163()
        with pytest.raises(NonTermination, match="no member measured in 16 amplified attempts"):
            search(h, 4, 3, _MissingGenerator(np.random.PCG64(0)))
        assert h.query_count == 16

    def test_walk_off_image(self, start_at):
        # the starting member's probe, the x - p probe and the 4-point
        # ladder below x = 9, then 16 misses
        h = handle163()
        start_at(9)
        with pytest.raises(NonTermination, match="16 off-image measurements in a row"):
            find_offset_decreasing(h, 4, 3, _MissingGenerator(np.random.PCG64(0)))
        assert h.query_count == 1 + 1 + 4


class TestDecreasingSearch:
    @pytest.mark.parametrize("start_r", [1, 2])
    def test_recovers_from_any_member(self, start_r, start_at):
        start_at(1 + start_r * 4)
        result = find_offset_decreasing(handle163(), 4, 3, seed=11)
        assert result.offset == 1
        assert result.history == sorted(result.history, reverse=True)
        assert len(set(result.history)) == len(result.history)

    def test_seeded_runs_all_recover(self):
        spec = build_oracle(512, 16, 8, 37)
        for seed in range(50):
            result = find_offset_decreasing(OracleHandle(spec), 8, 16, seed=seed)
            assert result.offset == 37
            hist = result.history
            assert all(a > b for a, b in zip(hist, hist[1:]))

    def test_single_member_zero_iterations(self):
        spec = build_oracle(10, 1, 1, 7)
        result = find_offset_decreasing(OracleHandle(spec), 1, 1, seed=4)
        assert result.offset == 7
        assert result.iterations == 0

    def test_wrong_period_fails(self):
        with pytest.raises(VerificationFailed):
            find_offset_decreasing(handle163(), 3, 3, seed=2)

    def test_query_accounting(self):
        spec = build_oracle(1024, 32, 16, 100)
        t = 32  # smallest power of two >= m
        for seed in range(20):
            h = OracleHandle(spec)
            result = find_offset_decreasing(h, 16, 32, seed=seed)
            assert result.oracle_queries == h.query_count
            assert result.oracle_queries <= (result.iterations + 1) * (t + 3) + 16

    def test_iteration_guard_on_degenerate_candidate(self, start_at):
        # a measurement pinned to the top rung steps down by one period per
        # round: 1023 steps from 2046 outrun the 64 * 11 = 704 round guard
        spec = build_oracle(4096, 1024, 2, 0)
        h = OracleHandle(spec)
        start_at(2046)
        with pytest.raises(NonTermination, match="704 rounds"):
            find_offset_decreasing(h, 2, 1024, _PinnedGenerator(np.random.PCG64(0)))
        # the starting member's probe, then per round: the x - p probe,
        # 1024 rungs and a confirmation probe, then the last x - p probe
        assert h.query_count == 1 + 704 * (1 + 1024 + 1) + 1


class TestPeriodBelowOne:
    """The three-probe argument needs p >= 1; smaller candidates are typed
    errors before any query, wherever the measurement would land."""

    @pytest.mark.parametrize("search", [find_offset_counting, find_offset_decreasing])
    @pytest.mark.parametrize("p", [0, -4])
    @pytest.mark.parametrize("start", [None, 9])
    def test_raises_before_any_query(self, search, p, start, start_at):
        if start is not None:
            start_at(start)
        h = OracleHandle(build_oracle(64, 3, 4, 1))
        with pytest.raises(ValidationError, match="period candidate"):
            search(h, p, 3, 1)
        assert h.query_count == 0


class TestStartingMember:
    """Each measured starting member is checked by one charged probe: an
    unmarked label is measured again, a member starts the search."""

    @pytest.mark.parametrize("search", [find_offset_counting, find_offset_decreasing])
    @pytest.mark.parametrize("start", [0, 2, 15])
    def test_non_member(self, search, start, start_at):
        # below s, between two members and past the last one
        h = handle163()
        start_at(start)
        with pytest.raises(NonTermination, match="no member measured in 16 amplified attempts"):
            search(h, 4, 3, 0)
        assert h.query_count == 16

    @pytest.mark.parametrize("search", [find_offset_counting, find_offset_decreasing])
    def test_member_costs_one_probe(self, search, start_at):
        # at s the x - p probe is out of range and free, and the pair test
        # then probes s, s + p and s + 2p
        h = handle163()
        start_at(1)
        result = search(h, 4, 3, 0)
        assert result.offset == 1
        assert result.oracle_queries == h.query_count == 1 + 3


class _CallCounter:
    """Counts ``OracleHandle.__call__`` from outside, as the benchmark does."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = OracleHandle.__call__

        def counted(handle, x):
            self.calls += 1
            return original(handle, x)

        monkeypatch.setattr(OracleHandle, "__call__", counted)


class TestQueryReconcile:
    """Each charged query is one ``__call__``: wrapped calls, the reported
    ``oracle_queries`` and the ``query_count`` delta agree."""

    @pytest.mark.parametrize("search", [find_offset_counting, find_offset_decreasing])
    @pytest.mark.parametrize(
        "spec,start",
        [
            (build_oracle(1024, 32, 16, 100), None),
            (build_oracle(1024, 32, 16, 100), 100 + 31 * 16),
            (build_oracle(1024, 32, 16, 100), 100),
            (build_oracle(4096, 1, 1, 77), None),
            (build_oracle(4096, 5, 64, 0), None),
            (build_oracle(256, 16, 1, 0, strict=False), 15),
        ],
    )
    def test_calls_match_reported(self, monkeypatch, search, spec, start, start_at):
        counter = _CallCounter(monkeypatch)
        if start is not None:
            start_at(start)
        h = OracleHandle(spec)
        for seed in range(8):
            before_calls, before_count = counter.calls, h.query_count
            try:
                result = search(h, spec.p, spec.m, seed)
            except VerificationFailed:
                # the counting search's counter lies with probability 1/3,
                # which the pair test catches unless the offset is label 0
                assert search is find_offset_counting and spec.s > 0
            else:
                assert result.offset == spec.s
                assert result.oracle_queries == counter.calls - before_calls
            assert counter.calls - before_calls == h.query_count - before_count > 0

    @pytest.mark.parametrize("search", [find_offset_counting, find_offset_decreasing])
    @pytest.mark.parametrize("period", [1, 15, 17, 32, 48])
    def test_wrong_period(self, monkeypatch, search, period):
        counter = _CallCounter(monkeypatch)
        h = OracleHandle(build_oracle(1024, 32, 16, 100))
        for seed in range(4):
            before_calls, before_count = counter.calls, h.query_count
            with pytest.raises(VerificationFailed):
                search(h, period, 32, seed)
            assert counter.calls - before_calls == h.query_count - before_count > 0


def test_mean_rounds_scale_with_log_m():
    spec = build_oracle(4096, 32, 64, 5)
    rounds = []
    for seed in range(100):
        result = find_offset_decreasing(OracleHandle(spec), 64, 32, seed=seed)
        assert result.offset == 5
        rounds.append(result.iterations)
    assert np.mean(rounds) <= 4 * math.log2(32)


# The offset searches' exact expectations (reference.py), each held to its
# seeded mean within 4 standard errors, at s > 0 and at s = 0.  A walk at
# m = 512 makes about 3,000 oracle queries, so it runs on fewer seeds.
EXPECTATION_CASES = [
    (m, s, seeds)
    for m, seeds in [(2, 600), (3, 600), (4, 600), (64, 400), (512, 300)]
    for s in (5, 0)
]


@pytest.mark.parametrize("m,s,seeds", EXPECTATION_CASES)
def test_walk_mean_rounds_is_exact(m, s, seeds):
    spec = build_oracle(4096, m, 7, s)
    rounds = [
        find_offset_decreasing(OracleHandle(spec), 7, m, seed).iterations for seed in range(seeds)
    ]
    error = 4 * np.std(rounds, ddof=1) / math.sqrt(seeds)
    assert abs(np.mean(rounds) - float(walk_rounds_mean(m, s))) <= error


@pytest.mark.parametrize("m,s,seeds", EXPECTATION_CASES)
def test_counting_failure_rate_is_exact(m, s, seeds):
    spec = build_oracle(4096, m, 7, s)
    failures = 0
    for seed in range(seeds):
        try:
            assert find_offset_counting(OracleHandle(spec), 7, m, seed).offset == s
        except VerificationFailed:
            failures += 1
    rate = counting_failure_rate(m, s)  # 0 at s = 0, where no run may fail
    assert abs(failures / seeds - rate) <= 4 * math.sqrt(rate * (1 - rate) / seeds)


def test_walk_expectation_is_the_harmonic_number():
    # at s > 0 the recurrence over r gives H_m - 1 exactly
    for m in (1, 2, 3, 4, 64, 512):
        assert walk_rounds_mean(m, 5) == sum(Fraction(1, k) for k in range(2, m + 1))


# Full find-offset transcripts, held fixed: (method, n, m, p, s, seed,
# --period or None for the true one) -> (exit code, output object).
_TRANSCRIPTS = [
    (("counting", 1024, 32, 16, 100, 0, None), 0, {"counting_cost": 17.0, "history": [356, 100], "iterations": 1, "method": "counting", "offset": 100, "oracle_queries": 37, "period_candidate": 16, "schema": 1}),
    (("decreasing", 1024, 32, 16, 100, 0, None), 0, {"counting_cost": 0.0, "history": [356, 276, 244, 116, 100], "iterations": 4, "method": "decreasing", "offset": 100, "oracle_queries": 141, "period_candidate": 16, "schema": 1}),
    (("counting", 4096, 9, 60, 77, 0, None), 0, {"counting_cost": 8.06225774829855, "history": [317, 77], "iterations": 1, "method": "counting", "offset": 77, "oracle_queries": 21, "period_candidate": 60, "schema": 1}),
    (("decreasing", 4096, 9, 60, 77, 0, None), 0, {"counting_cost": 0.0, "history": [317, 197, 137, 77], "iterations": 3, "method": "decreasing", "offset": 77, "oracle_queries": 59, "period_candidate": 60, "schema": 1}),
    (("counting", 1 << 20, 300, 1000, 4321, 0, None), 0, {"counting_cost": 235.457002444183, "history": [157321, 4321], "iterations": 1, "method": "counting", "offset": 4321, "oracle_queries": 517, "period_candidate": 1000, "schema": 1}),
    (("decreasing", 1 << 20, 300, 1000, 4321, 0, None), 0, {"counting_cost": 0.0, "history": [157321, 115321, 95321, 20321, 4321], "iterations": 4, "method": "decreasing", "offset": 4321, "oracle_queries": 2061, "period_candidate": 1000, "schema": 1}),
    (("counting", 64, 4, 4, 3, 4, None), 4, {"error": "pair (s=0, p=4) rejected by probes (count=4)", "period_candidate": 4, "schema": 1}),
    (("counting", 64, 1, 4, 3, 4, None), 0, {"counting_cost": 0.0, "history": [3], "iterations": 0, "method": "counting", "offset": 3, "oracle_queries": 1, "period_candidate": 4, "schema": 1}),
    (("decreasing", 64, 1, 4, 3, 4, None), 0, {"counting_cost": 0.0, "history": [3], "iterations": 0, "method": "decreasing", "offset": 3, "oracle_queries": 1, "period_candidate": 4, "schema": 1}),
    (("decreasing", 1024, 32, 16, 100, 0, 17), 4, {"error": "pair (s=356, p=17) rejected by probes", "period_candidate": 17, "schema": 1}),
]


@pytest.mark.parametrize("case,code,expected", _TRANSCRIPTS)
def test_find_offset_transcripts(case, code, expected, capsys):
    from lpq.cli import main

    method, n, m, p, s, seed, period = case
    argv = ["find-offset", "--method", method, "--seed", seed, "--n", n, "--m", m, "--p", p, "--s", s]
    argv += [] if period is None else ["--period", period]
    rows = [f"{k},{json.dumps(v)}" for k, v in sorted(expected.items())]
    for fmt, text in (
        ("json", json.dumps(expected, indent=1, sort_keys=True) + "\n"),
        ("csv", "\n".join(["# schema=1", "field,value", *rows, ""])),
    ):
        assert main([str(a) for a in argv] + ["--format", fmt]) == code
        assert capsys.readouterr() == (text, "")


@pytest.mark.parametrize(
    "search,expected",
    [
        (find_offset_counting, {"method": "counting", "offset": 100, "history": [596, 100], "iterations": 1, "oracle_queries": 37, "counting_cost": 8.0}),
        (find_offset_decreasing, {"method": "decreasing", "offset": 100, "history": [596, 212, 100], "iterations": 2, "oracle_queries": 73, "counting_cost": 0.0}),
    ],
)
def test_search_transcript_from_the_top_member(search, expected, start_at):
    h = OracleHandle(build_oracle(1024, 32, 16, 100))
    start_at(100 + 31 * 16)
    result = search(h, 16, 32, 1)
    assert dataclasses.asdict(result) == expected
    assert h.query_count == expected["oracle_queries"]
