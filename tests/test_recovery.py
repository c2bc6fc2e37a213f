import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpq import (
    OracleHandle,
    RecoveryStatus,
    ValidationError,
    acceptance_window,
    accepted_denominators,
    build_oracle,
    d_to_y,
    recover_period,
    success_set,
    verified_recovery,
)
from lpq.closedform import closed_form_table, ratio_bounds
from lpq.oracle import OracleSpec
from lpq.spectrum import Algorithm
from test_analysis import success_probability

# Test references for the residue conventions of lpq.recovery: the scalar
# maps that d_to_y and success_set are checked against.


def smallest_residue(a: int, n: int) -> int:
    """Representative of a mod n in (-n/2, n/2]."""
    r = a % n
    return r - n if 2 * r > n else r


def y_to_d(y: int, n: int, p: int) -> int:
    """Multiplier d(y) = round(p*y/n), consistent with {p*y}_n = p*y - n*d."""
    return (p * y - smallest_residue(p * y, n)) // n


def euler_phi(p: int) -> int:
    """Totient by trial division."""
    result = p
    q = 2
    while q * q <= p:
        if p % q == 0:
            while p % q == 0:
                p //= q
            result -= result // q
        q += 1
    if p > 1:
        result -= result // p
    return result


def totient_ratio(p: int) -> float:
    """phi(p)/p, the chance a uniform multiplier is coprime to p."""
    return euler_phi(p) / p


def cf_value(quotients) -> Fraction:
    """The rational [a0; a1, a2, ...] that partial quotients stand for."""
    acc = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        acc = a + 1 / acc
    return acc


def partial_quotients(ladder) -> list[int]:
    """The a_k of a convergent ladder, read back off d_0 = a_0 and
    q_k = a_k*q_{k-1} + q_{k-2}, with q_{-1} = 0."""
    qs = [0] + [c.q for c in ladder]
    return [ladder[0].d] + [(qs[k + 1] - qs[k - 1]) // qs[k] for k in range(1, len(ladder))]


def fractions_below_one(max_n: int):
    """(y, n) with 0 <= y < n <= max_n: a frequency and its label count."""
    return st.integers(1, max_n).flatmap(lambda n: st.tuples(st.integers(0, n - 1), st.just(n)))


def largest_passing_q(n: int, q_max: int) -> list[int | None]:
    """The candidate period of every y in 0..n-1 by brute force, with no
    continued fraction.

    Only the d nearest y*q/n can pass the 1/(2q^2) test for q >= 2, and
    every reduced d/q that passes is a convergent of y/n (Legendre's
    theorem), so the candidate is the largest q in 2..q_max whose nearest
    d is coprime to q and passes, 2*q*|y*q - d*n| <= n in exact integers.
    """
    y = np.arange(n)[:, None]
    q = np.arange(2, q_max + 1)
    d = (2 * y * q + n) // (2 * n)
    passing = (np.gcd(d, q) == 1) & (2 * q * np.abs(y * q - d * n) <= n)
    best = np.where(passing, q, 0).max(axis=1, initial=0)
    return [int(c) or None for c in best]


class TestContinuedFraction:
    # the expansion recover_period walks, read back off its ladder

    def test_5_16(self):
        # Euclid by hand: 16 = 3*5 + 1, 5 = 5*1
        assert partial_quotients(recover_period(5, 16).candidates) == [0, 3, 5]

    def test_zero(self):
        assert partial_quotients(recover_period(0, 7).candidates) == [0]

    def test_half(self):
        assert partial_quotients(recover_period(1, 2).candidates) == [0, 2]

    def test_zero_denominator(self):
        # n = 0 leaves no frequency in range, y = 0 included
        for y in (0, 5):
            with pytest.raises(ValidationError, match=rf"^y={y} outside 0\.\.-1$"):
                recover_period(y, 0)

    @given(fractions_below_one(10_000))
    def test_reconstruction(self, frequency):
        y, n = frequency
        ladder = recover_period(y, n).candidates
        assert Fraction(*ladder[-1]) == Fraction(y, n)
        assert cf_value(partial_quotients(ladder)) == Fraction(y, n)

    @given(fractions_below_one(10_000))
    def test_canonical_final_quotient(self, frequency):
        quotients = partial_quotients(recover_period(*frequency).candidates)
        if len(quotients) > 1:
            assert quotients[-1] >= 2


class TestConvergents:
    def test_5_16_ladder(self):
        ladder = recover_period(5, 16).candidates
        assert [(c.d, c.q) for c in ladder] == [(0, 1), (1, 3), (5, 16)]

    def test_single(self):
        ladder = recover_period(0, 5).candidates
        assert [(c.d, c.q) for c in ladder] == [(0, 1)]

    def test_fibonacci_denominators(self):
        # 5/8 = [0; 1, 1, 1, 2]: ratios of Fibonacci numbers, where the
        # canonical final quotient 2 steps over 3/5
        ladder = recover_period(5, 8).candidates
        assert [(c.d, c.q) for c in ladder] == [(0, 1), (1, 1), (1, 2), (2, 3), (5, 8)]

    @given(fractions_below_one(5000))
    def test_reduced_and_increasing(self, frequency):
        y, n = frequency
        ladder = recover_period(y, n).candidates
        assert all(math.gcd(c.d, c.q) == 1 for c in ladder)
        qs = [c.q for c in ladder]
        assert all(a <= b for a, b in zip(qs, qs[1:]))
        assert all(a < b for a, b in zip(qs[1:], qs[2:]))
        assert ladder[-1] == (y // math.gcd(y, n), n // math.gcd(y, n))


class TestRecoverPeriod:
    def test_resonant_frequency(self):
        result = recover_period(4, 16, q_max=4)
        assert result.accepted == 4
        assert result.status is RecoveryStatus.RECOVERED

    def test_zero_frequency(self):
        result = recover_period(0, 16)
        assert result.accepted is None
        assert result.status is RecoveryStatus.NO_CANDIDATE

    def test_false_candidate(self):
        # |5/16 - 1/3| = 1/48 <= 1/18, so q=3 is accepted; when the true
        # period is 4 the oracle check downstream must throw it out.
        result = recover_period(5, 16, q_max=4)
        assert result.accepted == 3

    def test_approximation_soundness(self):
        for n in range(2, 200):
            for y in range(n):
                result = recover_period(y, n)
                if result.accepted is None:
                    continue
                q = result.accepted
                d = next(c.d for c in result.candidates if c.q == q)
                assert abs(Fraction(y, n) - Fraction(d, q)) <= Fraction(1, 2 * q * q)

    @pytest.mark.parametrize("y,n", [(20, 16), (-3, 16)])  # n = 0: test_zero_denominator
    def test_frequency_out_of_range(self, y, n):
        with pytest.raises(ValidationError, match=rf"^y={y} outside 0\.\.{n - 1}$"):
            recover_period(y, n)

    def test_largest_passing_q(self):
        # against the brute-force reference, which knows no continued fractions
        for n in range(1, 201):
            for q_max in (None, 1, 2, 3, n):
                expected = largest_passing_q(n, math.isqrt(n) if q_max is None else q_max)
                got = [recover_period(y, n, q_max).accepted for y in range(n)]
                assert got == expected, (n, q_max)

    @pytest.mark.parametrize("n", [(1 << 64) + 13, (1 << 100) + 7])
    def test_exact_past_int64(self, n):
        # y = round(n*d/q) is within 1/(2n) <= 1/(2q^2) of d/q, and the next
        # convergent's denominator is at least 2n/q - q, far past isqrt(n)
        for q in (2, 3, 97, 1000, 65537, (1 << 20) - 3, 1 << 20):
            for d in (1, q // 2 - 1, q - 1):
                if math.gcd(d, q) == 1:
                    y = (2 * n * d + q) // (2 * q)
                    result = recover_period(y, n)
                    assert result.accepted == q, (n, d, q)
                    assert (d, q) in result.candidates

    def test_fast_path_agrees(self):
        # the vectorized table against the scalar ladder, one y at a time
        for n in [*range(1, 160), 4096, 4099, 65536]:
            table = accepted_denominators(n, np.arange(n))
            expected = [recover_period(y, n).accepted or 0 for y in range(n)]
            assert table.tolist() == expected, n

    @pytest.mark.parametrize("n", [2, 17, 160, 4099, 65536, (1 << 20) + 7])
    def test_subset_ladder_agrees(self, n):
        # any subset, in any order, with repeats and both halves of 0..n-1
        rng = np.random.default_rng(n)
        ys = np.concatenate([[0, n - 1, n // 2, (n + 1) // 2], rng.integers(0, n, 300)])
        ys = np.concatenate([ys, ys[::7]])
        got = accepted_denominators(n, ys)
        expected = [recover_period(int(y), n).accepted or 0 for y in ys]
        assert got.tolist() == expected

    def test_subset_ladder_edge_cases(self):
        assert accepted_denominators(64, []).tolist() == []
        assert accepted_denominators(64, [16, 48, 0]).tolist() == [4, 4, 0]
        for ys in ([64], [-1], [3, 70]):
            with pytest.raises(ValidationError, match="0..63"):
                accepted_denominators(64, ys)


def window_by_search(n: int, q: int) -> list[int]:
    """The y in 1..n-1 passing the 1/(2q^2) test for q with a coprime d in
    1..q-1; the only d that can pass is the one nearest y*q/n."""
    y = np.arange(1, n)
    d = (2 * y * q + n) // (2 * n)
    ok = (2 * q * np.abs(y * q - d * n) <= n) & (d >= 1) & (d <= q - 1) & (np.gcd(d, q) == 1)
    return y[ok].tolist()


class TestAcceptanceWindow:
    def test_lists_the_passing_frequencies(self):
        for n in range(1, 301):
            for q in range(1, math.isqrt(n) + 2):
                assert acceptance_window(n, q).tolist() == window_by_search(n, q), (n, q)

    def test_accepted_candidate_lies_in_its_window(self):
        # convergents are reduced, so the candidate q of y always comes
        # with a coprime d, and y is inside the window of q
        for n in range(2, 301):
            windows = {q: set(acceptance_window(n, q).tolist()) for q in range(2, math.isqrt(n) + 1)}
            for y in range(n):
                q = recover_period(y, n).accepted
                if q is not None:
                    assert y in windows[q], (n, y, q)

    def test_bounds_exact_past_int64_products(self):
        # 2*q*d*n passes 2**63 for most d here, and each run is 2 or 3 labels
        # wide; every listed y passes the test in Python ints, and the label
        # just outside each run fails
        n, q = (1 << 33) + 17, 65535
        ys = acceptance_window(n, q).tolist()

        def passes(y):
            d = (2 * y * q + n) // (2 * n)
            return 2 * q * abs(y * q - d * n) <= n and 1 <= d < q and math.gcd(d, q) == 1

        assert 2 * q * (q - 1) * n >= 1 << 63
        assert len(ys) > 10_000 and ys == sorted(set(ys))
        assert all(passes(y) for y in ys)
        starts = [y for i, y in enumerate(ys) if i == 0 or ys[i - 1] != y - 1]
        ends = [y for i, y in enumerate(ys) if i + 1 == len(ys) or ys[i + 1] != y + 1]
        assert len(starts) == len(ends) == sum(math.gcd(d, q) == 1 for d in range(1, q))
        assert not any(passes(y - 1) for y in starts)
        assert not any(passes(y + 1) for y in ends)

    def test_rejects_labels_past_int64(self):
        with pytest.raises(ValidationError, match="below 2\\*\\*63"):
            acceptance_window(1 << 63, 2)


class TestResidues:
    @pytest.mark.parametrize("a,expected", [(7, 7), (9, -7), (8, 8), (0, 0), (16, 0)])
    def test_examples_mod_16(self, a, expected):
        assert smallest_residue(a, 16) == expected

    @given(st.integers(-(10**9), 10**9), st.integers(1, 10**6))
    def test_congruent_and_in_window(self, a, n):
        r = smallest_residue(a, n)
        assert (a - r) % n == 0
        assert -n < 2 * r <= n


class TestMultiplierMaps:
    def test_16_4_grid(self):
        assert [d_to_y(d, 16, 4) for d in range(4)] == [0, 4, 8, 12]
        assert [y_to_d(y, 16, 4) for y in (0, 4, 8, 12)] == [0, 1, 2, 3]

    def test_d0_maps_to_zero(self):
        for n, p in [(16, 4), (100, 7), (31, 5)]:
            assert d_to_y(0, n, p) == 0
            assert y_to_d(0, n, p) == 0

    def test_residue_identity(self):
        # {p*y}_n = p*y - n*d(y) by construction
        for n, p in [(18, 4), (16, 4), (97, 9)]:
            for y in range(n):
                assert smallest_residue(p * y, n) == p * y - n * y_to_d(y, n, p)

    def test_bijection_exhaustive(self):
        # the window Y = {y : -p/2 < {p*y}_n <= p/2} has exactly p elements
        # and the maps invert each other on it, for every n <= 512
        for n in range(2, 513):
            for p in range(1, math.isqrt(n) + 1):
                y = np.arange(n, dtype=np.int64)
                r = (p * y) % n
                r = np.where(2 * r > n, r - n, r)
                window = y[(2 * r > -p) & (2 * r <= p)]
                assert len(window) == p
                for yy in window:
                    assert d_to_y(y_to_d(int(yy), n, p), n, p) == yy
                for d in range(p):
                    assert y_to_d(d_to_y(d, n, p), n, p) == d

    def test_closed_window_tie(self):
        # in the tied instance n=18, p=4 both y=4 and y=5 sit at distance
        # p/2; the half-open window keeps only y=5, preserving |Y| = p
        assert smallest_residue(4 * 4, 18) == -2
        assert smallest_residue(4 * 5, 18) == 2
        assert y_to_d(4, 18, 4) == y_to_d(5, 18, 4) == 1
        assert d_to_y(1, 18, 4) == 5


class TestSuccessSet:
    def test_163(self):
        assert set(success_set(build_oracle(16, 3, 4, 1))) == {4, 12}

    def test_prime_period_size(self):
        for n, p in [(30, 5), (121, 11), (64, 7), (53, 7)]:
            spec = build_oracle(n, 2, p, 0)
            assert len(success_set(spec)) == p - 1

    def test_composite_period_size_is_totient(self):
        for n, p in [(100, 10), (145, 12), (64, 8)]:
            spec = build_oracle(n, 2, p, 0)
            assert len(success_set(spec)) == euler_phi(p)

    def test_excludes_zero_and_offset_independent(self):
        a = success_set(build_oracle(60, 4, 6, 1))
        b = success_set(build_oracle(60, 4, 6, 13))
        assert 0 not in a
        assert (a == b).all()

    def test_matches_window_scan(self):
        # y(d) over the coprime d against a scan of every y for the window's
        # definition, at every p in 2..isqrt(n), where the set is not empty
        for n in range(4, 200):
            y = np.arange(n)
            p = np.arange(2, math.isqrt(n) + 1)[:, None]  # one row per period
            r = p * y % n
            r[2 * r > n] -= n
            d = (p * y - r) // n
            keep = (2 * r > -p) & (2 * r <= p) & (y != 0) & (np.gcd(d, p) == 1)
            for row, period in enumerate(p[:, 0].tolist()):
                got = success_set(OracleSpec(n, 2, period, 0))
                assert got.tolist() == y[keep[row]].tolist(), (n, period)

    def test_empty_where_no_run_succeeds(self):
        # m = 1 (the probes reject every candidate), p = 1 and p*p > n (no
        # candidate q = p): no product is formed, even past int64
        for n in range(1, 200):
            for p in range(1, 2 * n + 3):
                assert success_set(OracleSpec(n, 1, p, 0)).size == 0, (n, p)
                if p == 1 or p * p > n:
                    assert success_set(OracleSpec(n, 2, p, 0)).size == 0, (n, p)
        for n, m, p in [(16, 2, 2**65), (2**62, 2, 1), (2**62, 1, 2), (2**41, 2, 2**21 + 1)]:
            assert success_set(OracleSpec(n, m, p, 0)).dtype == np.int64
            assert success_set(OracleSpec(n, m, p, 0)).size == 0

    @pytest.mark.parametrize("n,p", [(2**60, 4), (2**62 - 1, 1), (2**59, 7), (2**50, 2**12)])
    def test_multipliers_match_python_ints_below_the_bound(self, n, p):
        expected = [(2 * n * d + p) // (2 * p) for d in range(1, p) if math.gcd(d, p) == 1]
        assert success_set(OracleSpec(n, 2, p, 0)).tolist() == expected

    @pytest.mark.parametrize("n,p", [(2**60, 5), (2**50, 2**12 + 1)])
    def test_rejects_products_past_int64(self, n, p):
        with pytest.raises(ValidationError, match="below 2\\*\\*63"):
            success_set(OracleSpec(n, 2, p, 0))

    def test_every_member_recovers(self):
        for n, m, p, s in [(16, 3, 4, 1), (229, 7, 15, 11), (128, 8, 8, 3)]:
            spec = build_oracle(n, m, p, s)
            for y in success_set(spec):
                assert recover_period(int(y), n).accepted == p


class TestSuccessProbability:
    def test_matches_simulation_mass(self):
        from lpq import simulated_table

        spec = build_oracle(16, 3, 4, 1)
        succ = success_set(spec)
        for alg in Algorithm:
            closed = success_probability(alg, spec)
            sim = float(simulated_table(spec, alg).pr[succ].sum())
            assert closed == pytest.approx(sim, abs=1e-9)

    def test_summed_ratio_in_bounds(self):
        for n, m, p, s in [(64, 3, 5, 2), (100, 5, 9, 4), (255, 6, 15, 1)]:
            spec = build_oracle(n, m, p, s)
            amp = success_probability(Algorithm.AMPLIFIED, spec)
            for baseline in (Algorithm.QFT, Algorithm.QHS):
                bounds = ratio_bounds(n, m, baseline)
                ratio = amp / success_probability(baseline, spec)
                assert bounds.lower - 1e-9 <= ratio <= bounds.upper + 1e-9


class TestTotient:
    @pytest.mark.parametrize("p,expected", [(4, 0.5), (7, 6 / 7), (12, 1 / 3), (1, 1.0)])
    def test_values(self, p, expected):
        assert totient_ratio(p) == pytest.approx(expected)

    @given(st.integers(1, 10_000))
    def test_phi_by_gcd_count(self, p):
        assert euler_phi(p) == sum(1 for d in range(1, p + 1) if math.gcd(d, p) == 1)


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.floats(0.01, 100.0, allow_nan=False), st.floats(0.01, 100.0, allow_nan=False)
        ),
        min_size=1,
        max_size=10,
    )
)
def test_ratio_of_sums_stays_in_band(pairs):
    # if every termwise ratio sits in (b, a) then so does sum/sum
    ratios = [x / y for x, y in pairs]
    lo, hi = min(ratios) - 1e-9, max(ratios) + 1e-9
    total = sum(x for x, _ in pairs) / sum(y for _, y in pairs)
    assert lo <= total <= hi


def test_verified_recovery_rejects_false_candidate():
    handle = OracleHandle(build_oracle(16, 3, 4, 1))
    result = verified_recovery(handle, 5)
    assert result.status is RecoveryStatus.REJECTED
    assert result.status.value == "rejected"
    assert result.accepted is None
    good = verified_recovery(handle, 4)
    assert good.status is RecoveryStatus.RECOVERED and good.accepted == 4


def test_recovery_on_aperiodic_set_is_graceful():
    # arbitrary subsets have no period; whatever recovery proposes must be
    # rejected by the probes rather than crash anything
    from lpq import probes_accept

    class SubsetOracle:
        """A 0/1 oracle for a subset with no period, with a query tally."""

        n = 64
        query_count = 0

        def __call__(self, x):
            self.query_count += 1
            return int(x in (3, 11, 24, 50))

        def probe(self, x):  # the lenient read: 0 and no charge outside 0..n-1
            return self(x) if 0 <= x < self.n else 0

    handle = SubsetOracle()
    proposals = 0
    for y in range(64):
        result = recover_period(y, 64)
        if result.accepted is not None:
            proposals += 1
            assert not probes_accept(handle, 3, result.accepted, 4)
    assert proposals > 0
    assert handle.query_count == 3 * proposals
