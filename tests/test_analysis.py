import math
import re
from fractions import Fraction

import numpy as np
import pytest

import lpq.analysis
from lpq.analysis import _BUCKETS, _bucket_codes, _odd_flips
from lpq import (
    BoundViolated,
    InvalidProbability,
    NonTermination,
    OracleHandle,
    ValidationError,
    build_oracle,
    closed_form_at,
    grover_schedule,
    marked_mask,
    monte_carlo_trials,
    ratio_bounds,
    recover_period,
    success_set,
    verified_recovery,
    workfactor_comparison,
)
from lpq.closedform import closed_form_table
from lpq.offset import test_period_known_s as probes_accept
from lpq.recovery import accepted_denominators
from lpq.simulator import _amplified_register
from lpq.spectrum import Algorithm

STRICT_SPECS = [
    build_oracle(64, 3, 5, 2),
    build_oracle(256, 8, 16, 3),
    build_oracle(250, 50, 5, 0),
    build_oracle(1000, 12, 31, 7),
]

# Fixed strict instances (n, m, p, s) with n <= 2^10 and m >= 2, where the
# probes can accept.
WORKFACTOR_SPECS = [
    build_oracle(n, m, p, s)
    for n, m, p, s in [
        (16, 4, 4, 0), (32, 2, 5, 3), (64, 3, 5, 2), (64, 7, 8, 1), (100, 2, 9, 40),
        (128, 2, 11, 5), (128, 5, 6, 20), (200, 4, 13, 9), (250, 50, 5, 0), (256, 8, 16, 3),
        (256, 2, 3, 100), (300, 6, 17, 1), (500, 9, 21, 33), (512, 4, 22, 7), (512, 16, 2, 0),
        (600, 3, 24, 11), (729, 5, 27, 100), (1000, 12, 31, 7), (1024, 2, 32, 0),
        (1024, 4, 19, 500), (1024, 32, 10, 2), (1023, 7, 29, 64),
    ]
]


def pipeline_success_probability(algorithm: Algorithm, spec) -> float:
    """Exact per-run success probability of the full decision procedure.

    Sums the closed-form probability of every frequency whose recovered
    candidate is the true period (verification accepts exactly those); the
    reference that the Monte-Carlo means are held to.
    """
    table = closed_form_table(spec, Algorithm(algorithm))
    return float(table.pr[accepted_denominators(spec.n, np.arange(spec.n)) == spec.p].sum())


def success_probability(algorithm: Algorithm, spec) -> float:
    """Closed-form probability mass of the certified success set: the
    certified per-run success probability of the work-factor rows."""
    return float(closed_form_at(spec, algorithm, success_set(spec)).sum())


def patch_success_mass(monkeypatch, mass, only=None):
    """Make the work-factor rows read a success-set mass of ``mass``, for
    pipeline ``only`` or for every one."""
    real = lpq.analysis.closed_form_at

    def patched(spec, algorithm, ys):
        if only not in (None, algorithm):
            return real(spec, algorithm, ys)
        return np.full(len(ys), mass / len(ys))

    monkeypatch.setattr(lpq.analysis, "closed_form_at", patched)


class TestGeometricStats:
    # The certified expected trials are the geometric mean 1/p, at the
    # success-set mass p; a mass outside (0, 1] is no probability.
    @pytest.mark.parametrize("p", [0.0, -0.1, 1.5])
    def test_rejects_bad_probability(self, p, monkeypatch):
        patch_success_mass(monkeypatch, p)
        with pytest.raises(InvalidProbability, match="need 0 < p <= 1"):
            workfactor_comparison(STRICT_SPECS[1])


class TestExpectedTrials:
    @pytest.mark.parametrize("spec", STRICT_SPECS)
    def test_headline_lower_bounds(self, spec):
        n, m = spec.n, spec.m
        reports = {r.algorithm: r for r in workfactor_comparison(spec)}
        for alg, bound in ((Algorithm.QFT, n / (4 * m)), (Algorithm.QHS, n / (2 * m))):
            assert reports[alg].expected_runs >= bound
            assert reports[alg].certified_expected_trials >= bound

    @pytest.mark.parametrize("alg", [Algorithm.QFT, Algorithm.QHS])
    def test_violated_bound_raises(self, alg, monkeypatch):
        # a certified p of 1 would mean one expected trial, below n/(4m)
        patch_success_mass(monkeypatch, 1.0, only=alg)
        with pytest.raises(BoundViolated, match=f"{alg.value} expects 1.0 trials"):
            workfactor_comparison(STRICT_SPECS[1])


class TestPipelineSuccess:
    def test_sandwiched_between_certified_and_zero_bound(self):
        for spec in STRICT_SPECS:
            for alg in Algorithm:
                certified = success_probability(alg, spec)
                pipeline = pipeline_success_probability(alg, spec)
                pr0 = float(closed_form_table(spec, alg).pr[0])
                assert certified - 1e-12 <= pipeline <= 1 - pr0 + 1e-12

    @pytest.mark.parametrize("spec", STRICT_SPECS)
    def test_matches_per_frequency_recovery(self, spec):
        for alg in Algorithm:
            pr = closed_form_table(spec, alg).pr
            expected = sum(
                pr[y] for y in range(spec.n) if recover_period(y, spec.n).accepted == spec.p
            )
            assert pipeline_success_probability(alg, spec) == pytest.approx(expected, abs=1e-12)


class TestWorkfactor:
    def test_costs_and_ratio(self):
        spec = build_oracle(4096, 4, 5, 17)
        sched = grover_schedule(4096, 4)
        reports = {r.algorithm: r for r in workfactor_comparison(spec)}
        amp = reports[Algorithm.AMPLIFIED]
        assert amp.per_run_cost == sched.k + 1
        assert amp.total_cost == (sched.k + 1) * amp.expected_runs
        assert amp.ratio_vs_amplified == 1.0
        assert amp.per_run_cost <= math.pi / (4 * math.sqrt(4 / 4096)) + 1
        for alg in (Algorithm.QFT, Algorithm.QHS):
            rep = reports[alg]
            assert rep.per_run_cost == 1.0
            assert rep.total_cost == rep.expected_runs
            assert rep.ratio_vs_amplified == rep.expected_runs / amp.total_cost

    @pytest.mark.parametrize("spec", WORKFACTOR_SPECS, ids=str)
    def test_ratio_is_the_exact_success_ratio(self, spec):
        # Recovery and verification succeed at the same y for every
        # pipeline, so the ratio of expected totals is exactly
        # p_good(amplified) / ((k + 1) p_good(plain)), with p_good the
        # closed-form mass of the y where a verified recovery succeeds.
        handle = OracleHandle(spec)
        good = [verified_recovery(handle, y).accepted is not None for y in range(spec.n)]
        p_good = {alg: float(closed_form_table(spec, alg).pr[good].sum()) for alg in Algorithm}
        reports = {r.algorithm: r for r in workfactor_comparison(spec)}
        k1 = reports[Algorithm.AMPLIFIED].per_run_cost
        for alg in (Algorithm.QFT, Algorithm.QHS):
            exact = p_good[Algorithm.AMPLIFIED] / (k1 * p_good[alg])
            assert reports[alg].ratio_vs_amplified == pytest.approx(exact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec", STRICT_SPECS)
    def test_expected_runs_from_table_zero(self, spec):
        # The amplified Pr(0) comes from the closed form without a table; it
        # must be the very value the table holds at y = 0.  The plain runs
        # are 1/(1 - Pr(0)) rounded once, which at a power-of-two n, where
        # the table's Pr(0) is exact, is also 1/(1 - pr0) in floating point.
        n, m = spec.n, spec.m
        exact_pr0 = {
            Algorithm.QFT: Fraction(n - 2 * m, n) ** 2,
            Algorithm.QHS: 1 - Fraction(2 * m * (n - m), n * n),
        }
        for rep in workfactor_comparison(spec):
            pr0 = float(closed_form_table(spec, rep.algorithm).pr[0])
            if rep.algorithm is Algorithm.AMPLIFIED:
                assert rep.expected_runs == 1.0 / (1.0 - pr0)
                continue
            assert rep.expected_runs == float(1 / (1 - exact_pr0[rep.algorithm]))
            if n & (n - 1) == 0:
                assert rep.expected_runs == 1.0 / (1.0 - pr0)

    def test_expected_runs_correctly_rounded_past_2e29(self):
        # Against exact rationals, at n where 1 - Pr(0) cancels most bits of
        # a rounded Pr(0): every plain figure rounds n^2 / (c m (n - m)) once
        # and so never breaks the bound n/(c m) it exceeds by n/(n - m).
        rng = np.random.default_rng(16)
        for _ in range(300):
            n = int(rng.integers(1 << 14, 1 << 56))
            m = int(rng.integers(1, 65))
            spec = build_oracle(n, m, 3, int(rng.integers(0, n - 3 * (m - 1))))
            for rep in workfactor_comparison(spec):
                c = {Algorithm.QFT: 4, Algorithm.QHS: 2}.get(rep.algorithm)
                if c is not None:
                    assert rep.expected_runs == float(Fraction(n * n, c * m * (n - m))), spec
                    assert rep.expected_runs >= n / (c * m)

    @pytest.mark.parametrize("n", [2, 8, 128, 4096])
    def test_half_marked_takes_one_round(self, n):
        # at 2m = n, theta = pi/4 and k = 1: one round leaves Pr(0) at ~0
        spec = build_oracle(n, n // 2, 1, 0)
        assert grover_schedule(n, n // 2).k == 1
        reports = {r.algorithm: r for r in workfactor_comparison(spec)}
        assert reports[Algorithm.AMPLIFIED].per_run_cost == 2
        assert reports[Algorithm.AMPLIFIED].expected_runs == 1.0
        assert reports[Algorithm.QFT].expected_runs == 1.0
        assert float(closed_form_table(spec, Algorithm.AMPLIFIED).pr[0]) < 1e-30

    @pytest.mark.parametrize("n,m", [(8, 5), (7, 7), (1, 1), (100, 99)])
    def test_no_round_past_half_raises(self, n, m):
        # past 2m = n, k = 0 and Pr(0) = 1: no run ever measures y != 0
        spec = build_oracle(n, m, 1, 0, strict=False)
        assert grover_schedule(n, m).k == 0
        with pytest.raises(NonTermination, match="no run measures a nonzero frequency"):
            workfactor_comparison(spec)

    def test_certified_trials_equal_expected_trials(self):
        # the one evaluation per pipeline gives, bit for bit, 1/p at the
        # reference success probability p; p = 1 certifies nothing
        rng = np.random.default_rng(15)
        specs = [*STRICT_SPECS, build_oracle(1 << 14, 4, 97, 3), build_oracle(1 << 14, 2, 127, 0)]
        while len(specs) < 80:
            spec = random_instance(rng)
            if spec.p * spec.p <= spec.n and 2 * spec.m <= spec.n:
                specs.append(spec)
        for spec in specs:
            for rep in workfactor_comparison(spec):
                if spec.p == 1:
                    assert rep.certified_expected_trials is None
                else:
                    expected = 1.0 / success_probability(rep.algorithm, spec)
                    assert rep.certified_expected_trials == expected, (spec, rep.algorithm)

    def test_certified_bound_violation_raises(self, monkeypatch):
        # the work-factor rows hold the certified count to the same bound
        patch_success_mass(monkeypatch, 1.0)
        with pytest.raises(BoundViolated, match="qft expects 1.0 trials"):
            workfactor_comparison(STRICT_SPECS[1])

    @pytest.mark.parametrize(
        "n,m,p,error,message",
        [
            # Pr(0) is below 1 for every pipeline, but 2n(p-1) + p is past int64
            (1 << 62, 1, 2, ValidationError, "success set needs products below 2"),
            (1 << 58, 20, 20, ValidationError, "success set needs products below 2"),
            (1 << 62, 4, 4, ValidationError, "closed form needs residue products below 2"),
        ],
    )
    def test_error_order_past_int64(self, n, m, p, error, message):
        with pytest.raises(error, match=re.escape(message)):
            workfactor_comparison(build_oracle(n, m, p, 0))

    def test_ratio_monotone_in_n(self):
        ratios = []
        n = 256
        while n <= 16384:
            spec = build_oracle(n, 4, 4, 1)
            rep = next(
                r for r in workfactor_comparison(spec) if r.algorithm is Algorithm.QFT
            )
            ratios.append(rep.ratio_vs_amplified)
            n *= 2
        assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))


class TestMonteCarlo:
    def test_deterministic(self):
        spec = build_oracle(256, 4, 5, 3)
        a = monte_carlo_trials(Algorithm.QFT, spec, runs=40, seed=7)
        b = monte_carlo_trials(Algorithm.QFT, spec, runs=40, seed=7)
        assert (a.trial_counts == b.trial_counts).all()
        assert a.mean == b.mean

    def test_high_probability_amplified_means_few_trials(self):
        # marked set = every seventh label: the spectrum lives entirely on
        # the resonances, all of which carry a good multiplier for a prime
        # period, and 2k*theta lands almost on top of pi/2
        spec = build_oracle(343, 49, 7, 0)
        p = pipeline_success_probability(Algorithm.AMPLIFIED, spec)
        assert p > 0.99
        stats = monte_carlo_trials(Algorithm.AMPLIFIED, spec, runs=300, seed=5)
        assert stats.mean == pytest.approx(1 / p, abs=4 * math.sqrt((1 - p) / p**2 / 300) + 1e-9)

    def test_trial_guard_raises_non_termination(self):
        spec = build_oracle(256, 4, 5, 3)
        with pytest.raises(NonTermination, match="2 trials"):
            monte_carlo_trials(Algorithm.QFT, spec, runs=50, seed=7, max_trials=2)

    def test_qft_mean_tracks_pipeline_probability(self):
        spec = build_oracle(256, 4, 5, 3)
        p = pipeline_success_probability(Algorithm.QFT, spec)
        stats = monte_carlo_trials(Algorithm.QFT, spec, runs=400, seed=21)
        sigma = math.sqrt((1 - p) / p**2 / 400)
        assert abs(stats.mean - 1 / p) <= 3 * sigma
        lo, hi = stats.ci95
        assert lo <= stats.mean <= hi


def reference_trial_counts(algorithm, spec, runs, seed, max_trials=10**6):
    """One rng.random() per trial, then searchsorted, recover_period and the
    probe test: the per-trial loop the batched Monte-Carlo must reproduce."""
    cdf = np.cumsum(closed_form_table(spec, algorithm).pr)
    cdf[-1] = max(cdf[-1], 1.0)
    rng = np.random.default_rng(seed)
    handle = OracleHandle(spec)
    counts = []
    for _ in range(runs):
        trials = 0
        while True:
            trials += 1
            assert trials <= max_trials
            y = int(np.searchsorted(cdf, rng.random(), side="right"))
            candidate = recover_period(y, spec.n).accepted
            if candidate is not None and probes_accept(handle, spec.s, candidate, spec.m):
                break
        counts.append(trials)
    return counts


class TestMonteCarloReference:
    # (343, 49, 7, 0) succeeds almost every trial, (256, 4, 5, 3) needs tens
    # of trials per run, and (4099, 5, 37, 11) has a prime n
    @pytest.mark.parametrize(
        "spec,runs,seed",
        [
            (build_oracle(256, 4, 5, 3), 60, 11),
            (build_oracle(343, 49, 7, 0), 200, 5),
            (build_oracle(4099, 5, 37, 11), 12, 201),
        ],
    )
    @pytest.mark.parametrize("alg", list(Algorithm))
    def test_trial_counts_equal_per_trial_loop(self, spec, runs, seed, alg):
        stats = monte_carlo_trials(alg, spec, runs=runs, seed=seed)
        assert stats.trial_counts.tolist() == reference_trial_counts(alg, spec, runs, seed)

    def test_guard_is_per_run(self):
        # the guard bounds each run, not the total: the longest run of three
        # decides whether the call finishes
        spec = build_oracle(256, 4, 5, 3)
        counts = reference_trial_counts(Algorithm.QFT, spec, 3, 7)
        longest = max(counts)
        assert counts.index(longest) > 0 and sum(counts) > longest
        stats = monte_carlo_trials(Algorithm.QFT, spec, 3, 7, max_trials=longest)
        assert stats.trial_counts.tolist() == counts
        with pytest.raises(NonTermination, match=f"{longest - 1} trials"):
            monte_carlo_trials(Algorithm.QFT, spec, 3, 7, max_trials=longest - 1)

    def test_no_verified_mass_raises_before_drawing(self):
        # at p = 1 no candidate q >= 2 passes the probes
        spec = build_oracle(256, 4, 1, 3)
        with pytest.raises(NonTermination, match="no run can succeed"):
            monte_carlo_trials(Algorithm.QFT, spec, runs=1, seed=0)


def direct_trial_counts(algorithm, spec, runs, seed, max_trials):
    """Trial counts from the candidate of every frequency and a search of the
    whole CDF per uniform: the batched Monte-Carlo without its windows or
    buckets.  Returns the counts, or the NonTermination message."""
    table = closed_form_table(spec, algorithm)
    handle = OracleHandle(spec)
    candidates = accepted_denominators(spec.n, np.arange(spec.n))
    verdict = {q: probes_accept(handle, spec.s, q, spec.m) for q in set(candidates.tolist()) - {0}}
    good = np.array([verdict.get(q, False) for q in candidates.tolist()])
    if float(table.pr[good].sum()) == 0.0:
        return "no run can succeed"
    cdf = np.cumsum(table.pr)
    cdf[-1] = max(cdf[-1], 1.0)
    rng = np.random.default_rng(seed)
    counts, drawn, last = [], 0, 0  # last: trials drawn up to the previous success
    while True:
        hits = good[np.searchsorted(cdf, rng.random(1000), side="right")]
        for i in np.flatnonzero(hits).tolist():
            if drawn + i + 1 - last > max_trials:
                return f"no success within {max_trials} trials"
            counts.append(drawn + i + 1 - last)
            last = drawn + i + 1
            if len(counts) == runs:
                return counts
        drawn += hits.size
        if drawn - last >= max_trials:
            return f"no success within {max_trials} trials"


def random_instance(rng):
    """A valid instance with n <= 600; p <= isqrt(n) 70% of the time."""
    n = int(rng.integers(2, 601))
    p = int(rng.integers(1, (math.isqrt(n) if rng.random() < 0.7 else n + 1) + 1))
    m = int(rng.integers(1, min(60, (n - 1) // p + 1) + 1))
    s = int(rng.integers(0, n - (m - 1) * p))
    return build_oracle(n, m, p, s, strict=p * p <= n and 2 * m <= n)


class TestMonteCarloDifferential:
    def test_trial_counts_equal_direct_search(self):
        # 360 seeded instances, many of them non-strict; a small guard on
        # some of them exercises the NonTermination paths too
        rng = np.random.default_rng(14)
        outcomes = {"counts": 0, "guard": 0, "no success": 0, "non-strict": 0}
        for i in range(360):
            spec = random_instance(rng)
            outcomes["non-strict"] += not (spec.p * spec.p <= spec.n and 2 * spec.m <= spec.n)
            alg = list(Algorithm)[i % 3]
            runs, seed = int(rng.integers(1, 30)), int(rng.integers(1 << 31))
            max_trials = int(rng.choice([5, 50, 20_000]))
            expected = direct_trial_counts(alg, spec, runs, seed, max_trials)
            try:
                got = monte_carlo_trials(alg, spec, runs, seed, max_trials).trial_counts.tolist()
            except NonTermination as exc:
                got = str(exc)
            if isinstance(expected, list):
                outcomes["counts"] += 1
                assert got == expected, (spec, alg, runs, seed, max_trials)
            else:
                outcomes["guard" if "within" in expected else "no success"] += 1
                assert isinstance(got, str) and got.endswith(expected), (spec, alg, got)
        assert min(outcomes.values()) >= 20, outcomes

    @pytest.mark.parametrize("runs", [0, -1])
    def test_rejects_runs_below_one(self, runs):
        with pytest.raises(ValidationError, match=f"runs >= 1, got {runs}"):
            monte_carlo_trials(Algorithm.QFT, build_oracle(256, 4, 5, 3), runs, 7)


class TestBucketLookup:
    def check(self, edges, u):
        edges = np.sort(np.asarray(edges, dtype=float))
        u = np.asarray(u, dtype=float)
        expected = np.searchsorted(edges, u, side="right") & 1
        assert _odd_flips(edges, _bucket_codes(edges), u).tolist() == expected.tolist()

    def test_edges_and_uniforms_on_bucket_bounds(self):
        # an edge on b/B sits inside bucket b, and a uniform on b/B is
        # counted past it, as searchsorted(side="right") counts it
        rng = np.random.default_rng(3)
        grid = np.arange(_BUCKETS) / _BUCKETS
        for size in (1, 2, 7, 160, 3000):
            edges = rng.choice(grid, size)  # repeats included
            self.check(edges, grid)
            self.check(np.append(edges, [0.0, 1.0, 1.0 + 2**-52]), grid)

    def test_random_edges_and_uniforms(self):
        rng = np.random.default_rng(4)
        for size in (0, 1, 5, 160, 5000):
            edges = rng.random(size)
            u = np.concatenate([rng.random(20_000), edges[edges < 1.0]])
            self.check(edges, u)
            self.check(np.repeat(edges, 2), u)

    def test_codes(self):
        codes = _bucket_codes(np.array([0.0, 0.5, 0.5 + 2**-40, 1.0]))
        b = _BUCKETS // 2
        assert codes[0] == 2 and codes[b] == 2
        assert set(codes[1:b].tolist()) == {1} and set(codes[b + 1 :].tolist()) == {1}


def general_unitary_ratio(n, m):
    """The paper's amplified/plain amplitude ratio at any frequency where the
    transform sums to zero over all labels but not over the marked ones:
    (n / (-2m)) * tan(theta) * sin(2k theta), whatever the transform."""
    sched = grover_schedule(n, m)
    return (n / (-2.0 * m)) * math.tan(sched.theta) * math.sin(2 * sched.k * sched.theta)


class TestGeneralUnitaryRatio:
    def test_sign_and_square(self):
        amp_ratio = general_unitary_ratio(64, 4)
        bounds = ratio_bounds(64, 4, Algorithm.QFT)
        assert amp_ratio < 0
        sched = grover_schedule(64, 4)
        pr_ratio = (64**2 / (4 * 4**2)) * math.tan(sched.theta) ** 2 * math.sin(
            2 * sched.k * sched.theta
        ) ** 2
        assert amp_ratio**2 == pytest.approx(pr_ratio, abs=1e-12)
        assert bounds.lower - 1e-9 <= pr_ratio <= bounds.upper + 1e-9

    def test_matches_measured_ratio_for_one_unitary(self):
        n, m = 32, 3
        spec = build_oracle(n, m, 5, 4)
        rng = np.random.default_rng(123)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        # deflate the uniform direction into axis 0, so every other row sums to zero
        w = q @ (np.ones(n) / math.sqrt(n))
        v = w - np.linalg.norm(w) * np.eye(n)[0] * np.exp(1j * np.angle(w[0]))
        house = np.eye(n) - 2 * np.outer(v, v.conj()) / np.vdot(v, v).real
        u = house @ q
        assert np.abs(u @ u.conj().T - np.eye(n)).max() < 1e-12
        zero_rows = np.abs(u.sum(axis=1)) < 1e-12
        assert zero_rows.sum() == n - 1 and not zero_rows[0]
        # the plain register is one phase-kickback oracle application
        plain = u @ (np.where(marked_mask(spec), -1.0, 1.0) / math.sqrt(n))
        amped = u @ _amplified_register(spec)
        ratio = amped[zero_rows] / plain[zero_rows]
        assert np.abs(ratio - general_unitary_ratio(n, m)).max() < 1e-8