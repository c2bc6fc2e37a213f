import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpq import (
    CaseMismatch,
    SpectrumCase,
    ValidationError,
    amplified_pr,
    build_oracle,
    classify,
    closed_form_table,
    dirichlet_ratio,
    grover_schedule,
    pr_ratio_bounds,
    qft_pr,
    qhs_pr,
    simulated_table,
)
from lpq.spectrum import Algorithm, case_codes

SPEC163 = build_oracle(16, 3, 4, 1)


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
        assert classify(4, SPEC163) is SpectrumCase.RESONANT

    def test_generic(self):
        assert classify(1, SPEC163) is SpectrumCase.GENERIC

    def test_null(self):
        spec = build_oracle(16, 4, 4, 1, strict=False)
        assert classify(1, spec) is SpectrumCase.NULL

    def test_zero(self):
        assert classify(0, SPEC163) is SpectrumCase.ZERO

    def test_partition_is_total(self):
        # every instance with n <= 64, non-strict ones (p*p > n, 2m > n) included
        names = np.array(["zero", "resonant", "generic", "null"])
        for n in range(1, 65):
            for p in range(1, n + 1):
                for m in range(1, (n - 1) // p + 2):
                    spec = build_oracle(n, m, p, 0, strict=False)
                    expected = [classify(y, spec).value for y in range(n)]
                    assert names[case_codes(n, m, p)].tolist() == expected, (n, m, p)


class TestDirichletRatio:
    def test_m1_is_one(self):
        spec = build_oracle(16, 1, 3, 2)
        for y in range(16):
            if classify(y, spec) is SpectrumCase.GENERIC:
                assert dirichlet_ratio(y, spec) == pytest.approx(1.0, abs=1e-12)

    def test_null_is_exact_zero(self):
        spec = build_oracle(16, 4, 4, 1, strict=False)
        assert dirichlet_ratio(1, spec) == 0.0

    def test_163_y1_is_one(self):
        # sin^2(3 pi/4) / sin^2(pi/4) = 1; cross-check by direct geometric sum
        assert dirichlet_ratio(1, SPEC163) == pytest.approx(1.0, abs=1e-12)
        total = sum(np.exp(-2j * np.pi * r * 4 * 1 / 16) for r in range(3))
        assert abs(total) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_resonant(self):
        with pytest.raises(CaseMismatch):
            dirichlet_ratio(4, SPEC163)
        with pytest.raises(CaseMismatch):
            dirichlet_ratio(0, SPEC163)

    def test_matches_geometric_sum_and_bound(self):
        for spec in strict_specs(seed=7, count=25):
            for y in range(spec.n):
                if classify(y, spec) not in (SpectrumCase.GENERIC, SpectrumCase.NULL):
                    continue
                ratio = dirichlet_ratio(y, spec)
                total = sum(
                    np.exp(-2j * np.pi * r * spec.p * y / spec.n) for r in range(spec.m)
                )
                assert ratio == pytest.approx(abs(total) ** 2, abs=1e-8)
                assert -1e-12 <= ratio <= spec.m**2 + 1e-9


class TestPointValues:
    """Paper headline values on the (16, 3, 4, 1) instance, via rationals."""

    def test_qft_zero(self):
        exact = Fraction(16 - 2 * 3, 16) ** 2
        assert exact == Fraction(100, 256)
        assert qft_pr(0, SPEC163) == pytest.approx(float(exact), abs=1e-12)
        assert qft_pr(0, SPEC163) == 0.390625

    def test_qhs_zero(self):
        exact = 1 - Fraction(2 * 3 * 13, 256)
        assert exact == Fraction(178, 256)
        assert qhs_pr(0, SPEC163) == pytest.approx(float(exact), abs=1e-12)
        assert qhs_pr(0, SPEC163) == 0.6953125

    def test_qhs_resonant(self):
        assert qhs_pr(4, SPEC163) == pytest.approx(float(Fraction(18, 256)), abs=1e-12)

    def test_qft_resonant(self):
        assert qft_pr(4, SPEC163) == pytest.approx(float(Fraction(36, 256)), abs=1e-12)

    def test_amplified_zero_from_schedule(self):
        sched = grover_schedule(16, 3)
        assert amplified_pr(0, SPEC163) == pytest.approx(
            math.cos(2 * sched.k * sched.theta) ** 2, abs=1e-15
        )

    def test_amplified_resonant_bounds(self):
        n, m = 16, 3
        pr = amplified_pr(4, SPEC163)
        upper = (m / n) * (n / (n - m))
        assert upper + 1e-12 >= pr >= upper * (1 - 2 * m / n) ** 2 - 1e-12


class TestTables:
    @pytest.mark.parametrize("alg", list(Algorithm))
    def test_scalar_matches_vectorized(self, alg):
        fn = {"amplified": amplified_pr, "qft": qft_pr, "qhs": qhs_pr}[alg.value]
        for spec in strict_specs(seed=11, count=10):
            table = closed_form_table(spec, alg)
            for y in range(spec.n):
                assert fn(y, spec) == pytest.approx(float(table.pr[y]), abs=1e-12)

    @pytest.mark.parametrize("alg", list(Algorithm))
    def test_normalized_and_matches_simulation(self, alg):
        for spec in strict_specs(seed=13, count=20):
            table = closed_form_table(spec, alg)
            assert table.total() == pytest.approx(1.0, abs=1e-9)
            sim = simulated_table(spec, alg)
            assert np.abs(table.pr - sim.pr).max() < 1e-9


class TestRatioBounds:
    def test_approx_value(self):
        bounds = pr_ratio_bounds(SPEC163, Algorithm.QFT)
        assert bounds.approx == pytest.approx(16 / 12)

    def test_gap_identities(self):
        for spec in strict_specs(seed=17, count=30):
            qft = pr_ratio_bounds(spec, Algorithm.QFT)
            qhs = pr_ratio_bounds(spec, Algorithm.QHS)
            assert qft.gap == pytest.approx(1.0, abs=1e-9)
            assert qhs.gap == pytest.approx(2.0, abs=1e-9)
            assert qft.lower == pytest.approx(qft.upper * (1 - 2 * spec.m / spec.n) ** 2)

    def test_sandwich_and_y_independence(self):
        for spec in strict_specs(seed=19, count=20):
            tables = {alg: closed_form_table(spec, alg).pr for alg in Algorithm}
            codes = case_codes(spec.n, spec.m, spec.p)
            live = (codes == 1) | (codes == 2)
            if not live.any():
                continue
            for baseline in (Algorithm.QFT, Algorithm.QHS):
                bounds = pr_ratio_bounds(spec, baseline)
                ratios = tables[Algorithm.AMPLIFIED][live] / tables[baseline][live]
                assert ratios.max() - ratios.min() < 1e-9
                assert ratios.min() >= bounds.lower - 1e-9
                assert ratios.max() <= bounds.upper + 1e-9

    def test_requires_strict_m(self):
        spec = build_oracle(8, 5, 1, 0, strict=False)
        with pytest.raises(ValidationError):
            pr_ratio_bounds(spec)


@settings(max_examples=50)
@given(st.integers(2, 64), st.integers(0, 1000))
def test_null_case_is_exact_zero(n, salt):
    # engineered null frequencies: m*p*y = n with p*y != n requires m | n
    rng = np.random.default_rng(salt)
    m = int(rng.integers(2, max(3, n // 2 + 1))) if n >= 4 else 2
    spec = build_oracle(n * m, m, n, 0, strict=False)
    table = closed_form_table(spec, Algorithm.QFT)
    null_rows = case_codes(spec.n, m, n) == 3
    if null_rows.any():
        assert (table.pr[null_rows] == 0.0).all()
