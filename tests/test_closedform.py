import functools
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpq import (
    ValidationError,
    build_oracle,
    closed_form_at,
    closed_form_table,
    grover_schedule,
    ratio_bounds,
    simulated_table,
    workfactor_comparison,
)
from lpq.closedform import RATIO_SLACK
from lpq.spectrum import (
    CASE_NAMES,
    CODE_GENERIC,
    CODE_NULL,
    CODE_RESONANT,
    CODE_ZERO,
    Algorithm,
    case_codes,
)

SPEC163 = build_oracle(16, 3, 4, 1)


def classify(y: int, spec) -> str:
    """The spectral case of frequency y, one frequency at a time: the
    reference for the vectorized ``case_codes``."""
    if y == 0:
        return "zero"
    if (spec.p * y) % spec.n == 0:
        return "resonant"
    if (spec.m * spec.p * y) % spec.n == 0:
        return "null"
    return "generic"


@functools.cache
def case_constants(n: int, m: int, algorithm: Algorithm) -> tuple[float, float, float]:
    """Pr at y = 0, Pr at a resonance, and the factor of R(y) at a generic y."""
    if algorithm is Algorithm.AMPLIFIED:
        sched = grover_schedule(n, m)
        zero = math.cos(2 * sched.k * sched.theta) ** 2
        if 2 * m == n:  # theta = pi/4: cos^2(k pi/2) is exactly 0 or 1
            zero = float(round(math.cos(sched.k * math.pi / 2) ** 2))
        resonant = math.tan(sched.theta) ** 2 * math.sin(2 * sched.k * sched.theta) ** 2
        return zero, resonant, resonant / m**2
    if algorithm is Algorithm.QFT:
        return (1 - 2 * m / n) ** 2, 4 * m**2 / n**2, 4 / n**2
    return 1 - 2 * m * (n - m) / n**2, 2 * m**2 / n**2, 2 / n**2


def reference_pr(y: int, spec, algorithm: Algorithm) -> float:
    """The paper's case table written out for one frequency: the reference
    for ``closed_form_at``.  The kernel ratio R(y) takes both sines at the
    exact residue folded into [0, n/2]."""
    n, m, p = spec.n, spec.m, spec.p
    zero, resonant, generic = case_constants(n, m, algorithm)
    case = classify(y, spec)
    if case == "zero":
        return zero
    if case == "resonant":
        return resonant
    if case == "null":
        return 0.0
    num, den = (m * p * y) % n, (p * y) % n
    num = math.sin(math.pi * min(num, n - num) / n)
    den = math.sin(math.pi * min(den, n - den) / n)
    return generic * (num / den) ** 2


def small_instances():
    """Every (n, m, p) with n <= 64, non-strict ones (p*p > n, 2m > n) included."""
    for n in range(1, 65):
        for p in range(1, n + 1):
            for m in range(1, (n - 1) // p + 2):
                yield build_oracle(n, m, p, 0, strict=False)


def strict_specs(seed, count):
    """Deterministic sample of strict instances for cross-checks."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(4, 300))
        p = int(rng.integers(1, math.isqrt(n) + 1))
        m_cap = min(n // 2, (n - 1) // p + 1)
        m = int(rng.integers(1, m_cap + 1))
        s = int(rng.integers(0, n - (m - 1) * p))
        out.append(build_oracle(n, m, p, s))
    return out


class TestClassify:
    def test_resonant(self):
        assert classify(4, SPEC163) == "resonant"
        assert case_codes(16, 3, 4)[4] == CODE_RESONANT

    def test_generic(self):
        assert classify(1, SPEC163) == "generic"
        assert case_codes(16, 3, 4)[1] == CODE_GENERIC

    def test_null(self):
        spec = build_oracle(16, 4, 4, 1, strict=False)
        assert classify(1, spec) == "null"
        assert case_codes(16, 4, 4)[1] == CODE_NULL

    def test_zero(self):
        assert classify(0, SPEC163) == "zero"
        assert case_codes(16, 3, 4)[0] == CODE_ZERO

    def test_partition_is_total(self):
        names = np.array(CASE_NAMES)
        for spec in small_instances():
            n, m, p = spec.n, spec.m, spec.p
            expected = [classify(y, spec) for y in range(n)]
            assert names[case_codes(n, m, p)].tolist() == expected, (n, m, p)


class TestDirichletRatio:
    """R(y), read off the qft pipeline's generic entries: (n^2/4) Pr(y)."""

    @staticmethod
    def kernel(spec, ys):
        return closed_form_at(spec, Algorithm.QFT, ys) * spec.n**2 / 4

    def test_m1_is_one(self):
        spec = build_oracle(16, 1, 3, 2)
        generic = np.flatnonzero(case_codes(16, 1, 3) == CODE_GENERIC)
        assert generic.size == 15
        assert self.kernel(spec, generic) == pytest.approx(np.ones(15), abs=1e-12)

    def test_null_is_exact_zero(self):
        spec = build_oracle(16, 4, 4, 1, strict=False)
        for alg in Algorithm:
            assert closed_form_at(spec, alg, [1, 2, 3]).tolist() == [0.0, 0.0, 0.0]

    def test_163_y1_is_one(self):
        # sin^2(3 pi/4) / sin^2(pi/4) = 1; cross-check by direct geometric sum
        assert self.kernel(SPEC163, [1])[0] == pytest.approx(1.0, abs=1e-12)
        total = sum(np.exp(-2j * np.pi * r * 4 * 1 / 16) for r in range(3))
        assert abs(total) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_resonances_take_case_constants(self):
        # R(y) is 0/0 at the resonances; they get the exact case constants,
        # with no floating-point warning
        with np.errstate(all="raise"):
            pr = closed_form_at(SPEC163, Algorithm.QFT, [0, 4, 8, 12])
        assert pr.tolist() == [0.390625, 0.140625, 0.140625, 0.140625]

    def test_matches_geometric_sum_and_bound(self):
        for spec in strict_specs(seed=7, count=25):
            codes = case_codes(spec.n, spec.m, spec.p)
            ys = np.flatnonzero((codes == CODE_GENERIC) | (codes == CODE_NULL))
            ratios = self.kernel(spec, ys)
            for y, ratio in zip(ys.tolist(), ratios.tolist()):
                total = sum(
                    np.exp(-2j * np.pi * r * spec.p * y / spec.n) for r in range(spec.m)
                )
                assert ratio == pytest.approx(abs(total) ** 2, abs=1e-8)
                assert 0.0 <= ratio <= spec.m**2 + 1e-9


class TestPointValues:
    """Paper headline values on the (16, 3, 4, 1) instance, via rationals."""

    def test_qft_zero(self):
        exact = Fraction(16 - 2 * 3, 16) ** 2
        assert exact == Fraction(100, 256)
        assert closed_form_at(SPEC163, Algorithm.QFT, [0])[0] == 0.390625

    def test_qhs_zero(self):
        exact = 1 - Fraction(2 * 3 * 13, 256)
        assert exact == Fraction(178, 256)
        assert closed_form_at(SPEC163, Algorithm.QHS, [0])[0] == 0.6953125

    def test_qhs_resonant(self):
        pr = closed_form_at(SPEC163, Algorithm.QHS, [4])[0]
        assert pr == pytest.approx(float(Fraction(18, 256)), abs=1e-12)

    def test_qft_resonant(self):
        pr = closed_form_at(SPEC163, Algorithm.QFT, [4])[0]
        assert pr == pytest.approx(float(Fraction(36, 256)), abs=1e-12)

    def test_amplified_zero_from_schedule(self):
        sched = grover_schedule(16, 3)
        assert closed_form_at(SPEC163, Algorithm.AMPLIFIED, [0])[0] == pytest.approx(
            math.cos(2 * sched.k * sched.theta) ** 2, abs=1e-15
        )

    def test_amplified_resonant_bounds(self):
        n, m = 16, 3
        pr = closed_form_at(SPEC163, Algorithm.AMPLIFIED, [4])[0]
        upper = (m / n) * (n / (n - m))
        assert upper + 1e-12 >= pr >= upper * (1 - 2 * m / n) ** 2 - 1e-12


def assert_matches_reference(spec, alg, ys):
    got = closed_form_at(spec, alg, ys)
    want = np.array([reference_pr(y, spec, alg) for y in ys.tolist()])
    # equal to 1e-12 relative; the null entries (want == 0) exactly
    assert (np.abs(got - want) <= 1e-12 * want).all(), (spec, alg)


class TestTables:
    @pytest.mark.parametrize("alg", list(Algorithm))
    def test_scalar_matches_vectorized(self, alg):
        # closed_form_at against the case table at every y of every small instance
        for spec in small_instances():
            assert_matches_reference(spec, alg, np.arange(spec.n))

    @pytest.mark.parametrize("n,m,p", [(1 << 20, 4, 700), (1 << 20, 64, 127)])
    def test_scalar_matches_vectorized_at_2e20(self, n, m, p):
        spec = build_oracle(n, m, p, 0)
        rng = np.random.default_rng(n + m + p)
        period = n // math.gcd(n, p)
        ys = np.concatenate(
            [
                rng.integers(0, n, 3000),  # mostly generic
                np.arange(0, n, period),  # zero and the resonances
                (n // math.gcd(n, m * p)) * np.arange(1, 40) % n,  # resonant and null
                [1, n // 2, n - 1],
            ]
        )
        for alg in Algorithm:
            assert_matches_reference(spec, alg, ys)

    @pytest.mark.parametrize(
        "n,m,p",
        [(4096, 4, 16), (4096, 3, 64), (4099, 3, 64), (1000, 5, 31), (1000, 5, 40),
         (65536, 8, 200), (65536, 8, 201), (1024, 1, 512), (12, 4, 3), (1, 1, 1), (2, 1, 2)],
    )
    def test_table_is_all_y_evaluation(self, n, m, p):
        # the period fill and the mirror reproduce the all-y evaluation bit for bit
        spec = build_oracle(n, m, p, 0, strict=False)
        for alg in Algorithm:
            table = closed_form_table(spec, alg)
            assert table.pr.tobytes() == closed_form_at(spec, alg, np.arange(n)).tobytes()
            assert table.codes.tolist() == case_codes(n, m, p).tolist()

    def test_rejects_residue_overflow(self):
        # (n-1)*m >= 2**63 would wrap the int64 residue products
        spec = build_oracle(1 << 33, 1 << 31, 1, 0)
        with pytest.raises(ValidationError, match="2\\*\\*63"):
            closed_form_at(spec, Algorithm.QFT, [1])
        spec = build_oracle(1 << 32, 1 << 30, 1, 0)
        assert_matches_reference(spec, Algorithm.QFT, np.array([0, 3, 1 << 31, (1 << 32) - 5]))

    def test_rejects_out_of_range_frequencies(self):
        for ys in ([16], [-1], [0, 3, 17]):
            with pytest.raises(ValidationError, match="0..15"):
                closed_form_at(SPEC163, Algorithm.QFT, ys)
        assert closed_form_at(SPEC163, Algorithm.QFT, []).size == 0

    def test_iterations_override(self):
        # no round leaves the uniform state, whose spectrum is a delta at 0
        table = closed_form_table(SPEC163, Algorithm.AMPLIFIED, iterations=0)
        assert table.pr.tolist() == [1.0] + [0.0] * 15
        table = closed_form_table(SPEC163, Algorithm.AMPLIFIED, iterations=3)
        every = closed_form_at(SPEC163, Algorithm.AMPLIFIED, np.arange(16), iterations=3)
        assert table.pr.tobytes() == every.tobytes()

    @pytest.mark.parametrize("p", [127, 700])  # mirror and period tile
    def test_traced_peak_at_2e20(self, p):
        # The 8 MiB table, 1 MiB of case codes and a few block-sized
        # temporaries: no second table-sized array (19 MiB with one).
        spec = build_oracle(1 << 20, 4, p, 3)
        closed_form_table(spec, Algorithm.QFT)
        tracemalloc.start()
        try:
            closed_form_table(spec, Algorithm.QFT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * 2**20

    @pytest.mark.parametrize("alg", list(Algorithm))
    def test_normalized_and_matches_simulation(self, alg):
        for spec in strict_specs(seed=13, count=20):
            table = closed_form_table(spec, alg)
            assert table.pr.sum() == pytest.approx(1.0, abs=1e-9)
            sim = simulated_table(spec, alg)
            assert np.abs(table.pr - sim.pr).max() < 1e-9


class TestRatioBounds:
    def test_approx_value(self):
        bounds = ratio_bounds(16, 3, Algorithm.QFT)
        assert bounds.approx == pytest.approx(16 / 12)

    def test_gap_identities(self):
        for spec in strict_specs(seed=17, count=30):
            qft = ratio_bounds(spec.n, spec.m, Algorithm.QFT)
            qhs = ratio_bounds(spec.n, spec.m, Algorithm.QHS)
            assert qft.gap == pytest.approx(1.0, abs=1e-9)
            assert qhs.gap == pytest.approx(2.0, abs=1e-9)
            assert qft.lower == pytest.approx(qft.upper * (1 - 2 * spec.m / spec.n) ** 2)

    def test_sandwich_and_y_independence(self):
        for spec in strict_specs(seed=19, count=20):
            tables = {alg: closed_form_table(spec, alg).pr for alg in Algorithm}
            codes = case_codes(spec.n, spec.m, spec.p)
            live = (codes == CODE_RESONANT) | (codes == CODE_GENERIC)
            if not live.any():
                continue
            for baseline in (Algorithm.QFT, Algorithm.QHS):
                bounds = ratio_bounds(spec.n, spec.m, baseline)
                ratios = tables[Algorithm.AMPLIFIED][live] / tables[baseline][live]
                assert ratios.max() - ratios.min() < 1e-9
                assert ratios.min() >= bounds.lower - 1e-9
                assert ratios.max() <= bounds.upper + 1e-9

    @pytest.mark.parametrize("baseline,c", [(Algorithm.QFT, 4), (Algorithm.QHS, 2)])
    def test_upper_is_correctly_rounded_expected_runs(self, baseline, c):
        # one rounding of n^2/(c*m*(n - m)), so it is the same double as
        # the baseline's expected runs in the work-factor table; (1001, 3)
        # and (65536, 6) came out one ulp off when rounded three times
        rng = np.random.default_rng(29)
        pairs = [(1001, 3), (65536, 6)] + [
            (n, int(rng.integers(1, min(64, n // 2) + 1)))
            for n in map(int, rng.integers(2, 1 << 40, 200))
        ]
        for n, m in pairs:
            upper = ratio_bounds(n, m, baseline).upper
            assert upper == float(Fraction(n * n, c * m * (n - m))), (n, m)
        spec = build_oracle(1001, 3, 31, 0)
        runs = {r.algorithm: r.expected_runs for r in workfactor_comparison(spec)}
        assert ratio_bounds(1001, 3, baseline).upper == runs[baseline]

    def test_requires_strict_m(self):
        with pytest.raises(ValidationError):
            ratio_bounds(8, 5)

    def test_rejects_amplified_baseline(self):
        with pytest.raises(ValidationError, match="baseline must be qft or qhs"):
            ratio_bounds(16, 3, Algorithm.AMPLIFIED)

    @pytest.mark.parametrize("n", [1 << 24, 1 << 40])
    @pytest.mark.parametrize("baseline", [Algorithm.QFT, Algorithm.QHS])
    def test_admits_ulps_around_each_bound(self, n, baseline):
        # At m = 1 the ratio is about n/(c*m), whose ulp is 9.3e-10 at 2^24
        # and 6.1e-5 at 2^40, so an absolute slack of 1e-9 is at most one
        # ulp there.  The slack is 8 eps of the bound, 8 to 16 ulps, and
        # an ulp below a power of two is half the one above it.
        bounds = ratio_bounds(n, 1, baseline)

        def ulps(x, k):
            for _ in range(abs(k)):
                x = np.nextafter(x, np.inf if k > 0 else -np.inf)
            return x

        for bound, outward in ((bounds.lower, -1), (bounds.upper, 1)):
            admitted = [ulps(bound, outward * k) for k in (0, 1, 8)]
            admitted += [ulps(bound, -outward * k) for k in (1, 8, 64)]
            assert bounds.admits(np.array(admitted)).all()
            rejected = [ulps(bound, outward * k) for k in (33, 64)]
            assert not bounds.admits(np.array(rejected)).any()
        beyond = ulps(bounds.upper, 2)
        assert beyond > bounds.upper + 1e-9  # FAIL under the absolute slack
        assert bounds.admits(beyond)

    @pytest.mark.parametrize("baseline,c", [(Algorithm.QFT, 4), (Algorithm.QHS, 2)])
    def test_bounds_against_exact_fractions(self, baseline, c):
        # lower, upper and approx are each one rounding of an exact quotient,
        # also where 2m nears n and lower cancels.  Every pair is a strict
        # instance's, with p = 2.
        rng = np.random.default_rng(31)
        pairs = [(5, 2), (1001, 500), (1001, 417), (2**20 + 1, 2**19),
                 (1086708537377, 543354268688)] + [
            (n, m)
            for n in map(int, rng.integers(4, 1 << 40, 100))
            for m in (1, int(rng.integers(1, n // 2 + 1)), n // 2 - 1, n // 2)
        ]
        for n, m in pairs:
            bounds = ratio_bounds(n, m, baseline)
            assert bounds.upper == float(Fraction(n * n, c * m * (n - m))), (n, m)
            assert bounds.lower == float(Fraction((n - 2 * m) ** 2, c * m * (n - m))), (n, m)
            assert bounds.approx == float(Fraction(n, c * m)), (n, m)
            gap = abs(Fraction(bounds.gap) - Fraction(4, c))
            assert gap <= Fraction(np.finfo(float).eps) * (bounds.upper + 1), (n, m)


# (n, m, p, s, strict): even and odd n, with gcd(n, p) = 1 and > 1, and the
# one-, two- and three-row tables
MIRROR_INSTANCES = [(64, 4, 4, 3, True), (1000, 5, 31, 7, True), (1001, 5, 10, 7, True),
                    (999, 3, 27, 1, True), (4096, 4, 6, 3, True), (4097, 6, 17, 5, True),
                    (1, 1, 1, 0, False), (2, 1, 1, 1, False), (3, 1, 1, 0, False)]


@pytest.mark.parametrize("instance", MIRROR_INSTANCES, ids=lambda i: "-".join(map(str, i)))
@pytest.mark.parametrize("iterations", [None, 0, 3])
@pytest.mark.parametrize("build", [closed_form_table, simulated_table])
def test_tables_are_mirror_symmetric(instance, iterations, build):
    # the CLI formats rows y = 0..n//2 and repeats them above (ProbabilityTable)
    n, m, p, s, strict = instance
    spec = build_oracle(n, m, p, s, strict=strict)
    for alg in Algorithm:
        table = build(spec, alg, iterations=iterations)
        assert table.pr[1:].tobytes() == table.pr[:0:-1].tobytes()
        assert table.codes[1:].tolist() == table.codes[:0:-1].tolist()


@settings(max_examples=50)
@given(st.integers(2, 64), st.integers(0, 1000))
def test_null_case_is_exact_zero(n, salt):
    # engineered null frequencies: m*p*y = n with p*y != n requires m | n
    rng = np.random.default_rng(salt)
    m = int(rng.integers(2, max(3, n // 2 + 1))) if n >= 4 else 2
    spec = build_oracle(n * m, m, n, 0, strict=False)
    table = closed_form_table(spec, Algorithm.QFT)
    null_rows = case_codes(spec.n, m, n) == CODE_NULL
    if null_rows.any():
        assert (table.pr[null_rows] == 0.0).all()


EPS = np.finfo(np.float64).eps
# The worst relative error of closed_form_at against the 50-digit anchor
# is 4.3 eps for the amplified pipeline and 3.1 eps for qft and qhs on the
# test's 150 instances, and 5.4 and 3.7 eps over 600 instances (samplers
# seeded 1, 2, 3 and 24); the test holds it to ANCHOR_EPS.
ANCHOR_EPS = 8


def anchor_pr(n: int, m: int, p: int, y: int, algorithm: Algorithm) -> mpmath.mpf:
    """The case table of the module docstring evaluated in mpmath at the
    working precision, with the case taken from exact integer residues."""
    r = p * y % n
    rm = r * m % n
    if r and not rm:
        return mpmath.mpf(0)  # null
    if algorithm is Algorithm.AMPLIFIED:
        if 2 * m == n:
            # theta = pi/4 and k = 1, as grover_schedule sets them: the
            # floor of pi/(4 theta) lands within 1e-50 of 1, on either side
            theta, k = mpmath.pi / 4, 1
            zero = mpmath.cospi(mpmath.mpf(k) / 2) ** 2  # exactly 0
        else:
            theta = mpmath.asin(mpmath.sqrt(mpmath.mpf(m) / n))
            k = int(mpmath.floor(mpmath.pi / (4 * theta)))
            zero = mpmath.cos(2 * k * theta) ** 2
        assert k == grover_schedule(n, m).k
        resonant = mpmath.tan(theta) ** 2 * mpmath.sin(2 * k * theta) ** 2
        factor = resonant / m**2
    elif algorithm is Algorithm.QFT:
        zero = (1 - mpmath.mpf(2 * m) / n) ** 2
        resonant, factor = mpmath.mpf(4 * m * m) / n**2, mpmath.mpf(4) / n**2
    else:
        zero = 1 - mpmath.mpf(2 * m * (n - m)) / n**2
        resonant, factor = mpmath.mpf(2 * m * m) / n**2, mpmath.mpf(2) / n**2
    if y == 0:
        return zero
    if r == 0:
        return resonant
    return factor * (mpmath.sin(mpmath.pi * rm / n) / mpmath.sin(mpmath.pi * r / n)) ** 2


def anchor_instances(seed: int, count: int):
    """(n, m, p) with 2m <= n and the marked set inside 0..n-1, n up to
    2^62, m and p log-uniform, and every residue product below the int64
    guard of closed_form_at."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1 << 8, 1 << rng.randint(9, 62))
        m = rng.randint(1, 1 << rng.randint(0, 6))
        p = rng.randint(1, min(math.isqrt(n), 1 << rng.randint(1, 20)))
        if 2 * m <= n and (m - 1) * p < n and (n - 1) * max(m, p) < 1 << 63:
            out.append((n, m, p))
    return out


# Instances at 2m = n, where theta = pi/4 and k = 1, so the amplified y = 0
# value cos^2(pi/2) is exactly 0; p is 1 or 2, since (m - 1) p < n.
ANCHOR_HALF = [(16, 8, 1), (16, 8, 2), (1000, 500, 2), (4096, 2048, 1), (4096, 2048, 2),
               (99_999_998, 49_999_999, 2), ((1 << 31) - 2, (1 << 30) - 1, 1),
               (1 << 31, 1 << 30, 2)]


def anchor_ys(n: int, p: int) -> list[int]:
    """The sampled frequencies of an anchor instance: y = 0, 6 uniform y,
    and a resonance where p shares a factor with n."""
    rng = random.Random(n)
    ys = [0, *(rng.randrange(n) for _ in range(6))]
    g = math.gcd(n, p)
    if g > 1:
        ys.append(n // g * rng.randint(1, g - 1))
    return ys


def test_closed_form_within_eps_of_the_anchor():
    # 150 instances and ANCHOR_HALF, the anchor_ys of each, for all three
    # pipelines: about 0.4 s.  At y = 0 the amplified value is
    # cos^2(2k theta) with 2k theta within 2 theta of pi/2: the angle's
    # rounding, an eps or so of pi/2, leaves cos a few eps off in absolute
    # terms only, so that value is held to eps*sqrt(Pr).  At 2m = n it is
    # exactly 0, and so is the computed value.
    with mpmath.workdps(50):
        for n, m, p in anchor_instances(24, 150) + ANCHOR_HALF:
            ys = anchor_ys(n, p)
            spec = build_oracle(n, m, p, 0, strict=False)
            for alg in Algorithm:
                for y, got in zip(ys, closed_form_at(spec, alg, ys)):
                    ref = anchor_pr(n, m, p, y, alg)
                    if ref == 0:
                        assert got == 0.0, (n, m, p, y, alg)
                    elif alg is Algorithm.AMPLIFIED and y == 0:
                        assert abs(got - ref) <= ANCHOR_EPS * EPS * mpmath.sqrt(ref), (n, m, p)
                    else:
                        assert abs(got - ref) <= ANCHOR_EPS * EPS * ref, (n, m, p, y, alg)


@pytest.mark.parametrize("n,m,p", ANCHOR_HALF[:4])
def test_amplified_zero_at_half_is_exact(n, m, p):
    # at 2m = n every round count gives cos^2(k pi/2), 1 at even k and 0 at
    # odd k, as the simulation does; the expected runs 1/(1 - 0) are 1.0
    spec = build_oracle(n, m, p, 0, strict=False)
    amplified = [closed_form_at(spec, Algorithm.AMPLIFIED, [0], k)[0] for k in range(6)]
    assert amplified == [1.0, 0.0] * 3
    assert simulated_table(spec, Algorithm.AMPLIFIED).pr[0] == 0.0
    runs = {r.algorithm: r.expected_runs for r in workfactor_comparison(spec)}
    assert runs[Algorithm.AMPLIFIED] == 1.0


def test_ratios_within_slack_of_the_anchor():
    # The amp/qft and amp/qhs ratio at every resonant and generic sampled y,
    # computed from closed_form_at as compare computes it, within RATIO_SLACK
    # relative of the anchor's ratio: the slack RatioBounds.admits grants
    # each bound, so no valid row is refused for the ratio's own rounding.
    # The worst is 3.25 eps, at (n, m, p) = (460893646, 2, 13), y = 350478131,
    # over 900 instances (samplers seeded 24, 1, 2, 3, 5 and 6: 11,468
    # ratios, every one admitted).  About 0.5 s.
    with mpmath.workdps(50):
        for n, m, p in anchor_instances(24, 150):
            ys = [y for y in anchor_ys(n, p) if y and anchor_pr(n, m, p, y, Algorithm.QFT)]
            spec = build_oracle(n, m, p, 0, strict=False)
            amplified = closed_form_at(spec, Algorithm.AMPLIFIED, ys)
            for den in (Algorithm.QFT, Algorithm.QHS):
                ratios = amplified / closed_form_at(spec, den, ys)
                assert ratio_bounds(n, m, den).admits(ratios).all(), (n, m, p, den)
                for y, got in zip(ys, ratios):
                    ref = anchor_pr(n, m, p, y, Algorithm.AMPLIFIED) / anchor_pr(n, m, p, y, den)
                    assert abs(got - ref) <= RATIO_SLACK * ref, (n, m, p, y, den)
