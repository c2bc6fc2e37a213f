import math

import numpy as np
import pytest

import lpq.simulator
from lpq import (
    DegenerateInstance,
    GroverRegister,
    OracleSpec,
    ValidationError,
    build_oracle,
    dft,
    grover_iterate,
    grover_schedule,
    marked_mask,
    simulated_table,
    uniform_state,
)
from lpq.closedform import closed_form_table
from lpq.simulator import _amplified_register
from lpq.spectrum import CODE_NULL, Algorithm, case_codes, make_table
from reference import unmarked_amplitude

SPEC163 = build_oracle(16, 3, 4, 1)

# Hand-derived spectra for the (16, 3, 4, 1) instance.  With theta =
# asin(sqrt(3)/4): a_1 = sin(3 theta)/sqrt(3) = 9/16, b_1 = cos(3 theta)/
# sqrt(13) = 1/16, and the kernel ratio is 1 at every generic frequency, so
# all three tables are exact dyadic rationals.
AMP163 = np.array([25, 1, 1, 1, 9, 1, 1, 1, 9, 1, 1, 1, 9, 1, 1, 1]) / 64
QFT163 = np.array([100, 4, 4, 4, 36, 4, 4, 4, 36, 4, 4, 4, 36, 4, 4, 4]) / 256
QHS163 = np.array([178, 2, 2, 2, 18, 2, 2, 2, 18, 2, 2, 2, 18, 2, 2, 2]) / 256


def reference_transform(state):
    """Direct-summation transform, coded without numpy's FFT: one row of
    the kernel per y, with the phase z*y reduced mod n in integers."""
    n = len(state)
    z = np.arange(n)
    out = [np.exp(-2j * np.pi * (z * y % n) / n) @ state for y in range(n)]
    return np.array(out) / math.sqrt(n)


def full_spectrum(half, n):
    """The length-n spectrum of a real register from its half, through
    out(n - y) = conj(out(y))."""
    return np.concatenate([half, np.conj(half[n - half.size : 0 : -1])])


def kicked_register(spec):
    """The plain pipeline's register: one phase-kickback oracle application
    on the uniform state."""
    return np.where(marked_mask(spec), -1.0, 1.0) / math.sqrt(spec.n)


def two_register_table(spec):
    """Dense qhs reference: both columns of the two-register state
    transformed on their own, squared and summed per frequency."""
    mask = marked_mask(spec)
    marked = np.fft.fft(mask.astype(float)) / spec.n
    unmarked = np.fft.fft((~mask).astype(float)) / spec.n
    return np.abs(marked) ** 2 + np.abs(unmarked) ** 2


def dense_round(state, spec):
    """One amplification round on a plain array: flip the marked labels,
    then reflect about the mean."""
    flipped = np.where(marked_mask(spec), -state, state)
    return 2 * flipped.mean() - flipped


def random_states(n, count, seed, real=False):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        v = rng.standard_normal(n)
        if not real:
            v = v + 1j * rng.standard_normal(n)
        yield v / np.linalg.norm(v)


class TestUniformState:
    def test_n4(self):
        assert np.allclose(uniform_state(4), 0.5)

    def test_n1(self):
        assert np.allclose(uniform_state(1), [1.0])

    def test_n16_norm(self):
        state = uniform_state(16)
        assert np.allclose(state, 0.25)
        assert abs(np.linalg.norm(state) - 1) < 1e-12

    def test_real_float64(self):
        assert uniform_state(16).dtype == np.float64

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_empty_label_space(self, n):
        with pytest.raises(DegenerateInstance, match=f"need n >= 1, got {n}"):
            uniform_state(n)


class TestGroverSchedule:
    def test_single_marked_quarter(self):
        # m/n = 1/4 is the exactly-solvable rotation: theta = pi/6
        sched = grover_schedule(4, 1)
        assert sched.theta == pytest.approx(math.pi / 6, abs=1e-15)
        assert sched.k == 1
        assert sched.a_k == pytest.approx(1.0, abs=1e-12)
        assert unmarked_amplitude(4, 1, sched) == pytest.approx(0.0, abs=1e-12)

    def test_all_marked(self):
        sched = grover_schedule(7, 7)
        assert sched.theta == pytest.approx(math.pi / 2)
        assert sched.k == 0
        assert math.sin((2 * sched.k + 1) * sched.theta) ** 2 == pytest.approx(1.0)

    def test_16_3_exact_amplitudes(self):
        # sin(3t) = 3 sin t - 4 sin^3 t with sin t = sqrt(3)/4 gives exact
        # dyadic amplitudes: a_1 = 9/16, b_1 = 1/16.
        sched = grover_schedule(16, 3)
        assert sched.k == 1
        assert sched.a_k == pytest.approx(9 / 16, abs=1e-14)
        assert unmarked_amplitude(16, 3, sched) == pytest.approx(1 / 16, abs=1e-14)

    @pytest.mark.parametrize("n,m", [(16, 3), (100, 7), (255, 13), (4096, 4), (9, 4)])
    def test_two_level_normalization(self, n, m):
        sched = grover_schedule(n, m)
        b_k = unmarked_amplitude(n, m, sched)
        assert m * sched.a_k**2 + (n - m) * b_k**2 == pytest.approx(1.0, abs=1e-10)
        assert m * sched.a_k**2 >= 1 - m / n - 1e-12

    def test_rejects_empty(self):
        with pytest.raises(DegenerateInstance):
            grover_schedule(8, 0)

    def test_rejects_more_marked_than_labels(self):
        with pytest.raises(DegenerateInstance, match="need m <= n, got m=9, n=8"):
            grover_schedule(8, 9)

    def test_iteration_override(self):
        sched = grover_schedule(64, 2, iterations=3)
        assert sched.k == 3

    def test_negative_iteration_override_rejected(self):
        # the closed form would read k = -1 while the simulator ran no round
        assert grover_schedule(64, 2, iterations=0).k == 0
        with pytest.raises(ValidationError, match="iterations >= 0, got -1"):
            grover_schedule(64, 2, iterations=-1)


class TestGroverIterate:
    def test_exact_search_n4(self):
        spec = build_oracle(4, 1, 1, 2)
        state = grover_iterate(GroverRegister(uniform_state(4)), spec).amplitudes()
        expected = np.zeros(4)
        expected[2] = 1.0
        assert np.abs(dense_round(uniform_state(4), spec) - expected).max() < 1e-12
        assert np.abs(state - expected).max() < 1e-12

    def test_all_marked_is_negated_reflection(self):
        spec = OracleSpec(8, 8, 1, 0)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        inverted = 2 * v.mean() - v
        dense = dense_round(v, spec)
        out = grover_iterate(GroverRegister(v.copy()), spec).amplitudes()
        assert np.abs(dense + inverted).max() < 1e-12
        assert np.abs(out + inverted).max() < 1e-12
        assert np.abs(out - dense).max() < 1e-15

    def test_k_fold_matches_two_level(self):
        for spec in (SPEC163, build_oracle(1000, 3, 31, 7)):
            sched = grover_schedule(spec.n, spec.m)
            register = GroverRegister(uniform_state(spec.n))
            dense = uniform_state(spec.n)
            for _ in range(sched.k):
                register = grover_iterate(register, spec)
                dense = dense_round(dense, spec)
            expected = np.where(marked_mask(spec), sched.a_k, unmarked_amplitude(spec.n, spec.m, sched))
            state = register.amplitudes()
            assert np.abs(dense - expected).max() < 1e-10
            assert np.abs(state - expected).max() < 1e-10
            assert np.abs(state - dense).max() < 1e-14

    # (182, 19, 8, 0) is a strided view on which numpy's in-place
    # np.negative skips two of the nineteen marked labels.
    @pytest.mark.parametrize("spec", [SPEC163, build_oracle(182, 19, 8, 0)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_updates_argument_in_place(self, spec, dtype):
        state = uniform_state(spec.n).astype(dtype)
        expected = dense_round(state, spec)
        register = GroverRegister(state)
        out = grover_iterate(register, spec)
        assert out is register
        assert out.base is state
        # the second round starts from sign = -1 and a nonzero shift
        expected = dense_round(expected, spec)
        assert grover_iterate(register, spec) is register
        assert abs(register.total - state.sum()) < 1e-12
        amplitudes = register.amplitudes()
        assert amplitudes is state
        assert amplitudes.dtype == dtype
        assert np.abs(state - expected).max() < 1e-15
        assert abs(register.total - state.sum()) < 1e-12

    def test_k_rounds_two_level_at_2e16(self):
        # the production register, read out through the identity transform
        spec = build_oracle(1 << 16, 4, 16, 3)
        sched = grover_schedule(spec.n, spec.m)
        register = _amplified_register(spec)
        assert register.dtype == np.float64
        expected = np.where(marked_mask(spec), sched.a_k, unmarked_amplitude(spec.n, spec.m, sched))
        assert np.abs(register - expected).max() < 1e-12

    @pytest.mark.parametrize("n", [8, 16, 60, 128, 255])
    def test_norm_preserved(self, n):
        spec = build_oracle(n, 2, math.isqrt(n), 1)
        for v in random_states(n, 100, seed=n):
            dense = dense_round(v, spec)
            out = grover_iterate(GroverRegister(v.copy()), spec).amplitudes()
            assert abs(np.linalg.norm(out) - 1) < 1e-9
            assert np.abs(out - dense).max() < 1e-14


class TestDft:
    def test_uniform_to_delta(self):
        out = dft(uniform_state(12))
        expected = np.zeros(7)
        expected[0] = 1.0
        assert np.abs(out - expected).max() < 1e-12

    def test_delta_to_uniform(self):
        state = np.zeros(9)
        state[0] = 1.0
        assert np.abs(dft(state) - 1 / 3).max() < 1e-12

    @pytest.mark.parametrize("n", [8, 16, 60, 128, 255])
    def test_unitary(self, n):
        for v in random_states(n, 100, seed=1000 + n, real=True):
            assert abs(np.linalg.norm(full_spectrum(dft(v), n)) - 1) < 1e-9

    @pytest.mark.parametrize("n", [5, 16, 31, 64])
    def test_matches_direct_summation(self, n):
        # the mirrored half is the whole spectrum of a real register
        for v in random_states(n, 5, seed=n, real=True):
            assert np.abs(full_spectrum(dft(v), n) - reference_transform(v)).max() < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 31, 64, 4099])
    def test_real_input_through_rfft(self, n):
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        before = v.copy()
        out = dft(v)
        assert out.shape == (n // 2 + 1,) and out.dtype == complex
        assert np.abs(out - reference_transform(v)[: n // 2 + 1]).max() < 1e-9
        assert (v == before).all()

    def test_rejects_complex_register(self):
        with pytest.raises(ValidationError, match="real register"):
            dft(np.ones(4, dtype=complex))

    @pytest.mark.parametrize("alg", [Algorithm.AMPLIFIED, Algorithm.QFT])
    def test_real_register_tables_at_4099(self, alg):
        spec = build_oracle(4099, 3, 64, 2)
        sim = simulated_table(spec, alg)
        closed = closed_form_table(spec, alg)
        assert np.abs(sim.pr - closed.pr).max() < spec.n * np.finfo(float).eps

    def test_amplified_spectrum_matches_closed_form(self):
        state = np.where(marked_mask(SPEC163), 9 / 16, 1 / 16)
        pr = np.abs(full_spectrum(dft(state), 16)) ** 2
        closed = closed_form_table(SPEC163, Algorithm.AMPLIFIED).pr
        assert np.abs(pr - closed).max() < 1e-9


class TestPipelines:
    def test_amplified_frozen_table(self):
        pr = simulated_table(SPEC163, Algorithm.AMPLIFIED).pr
        assert np.abs(pr - AMP163).max() < 1e-12

    def test_amplified_zero_is_cos(self):
        sched = grover_schedule(16, 3)
        pr0 = simulated_table(SPEC163, Algorithm.AMPLIFIED).pr[0]
        assert pr0 == pytest.approx(math.cos(2 * sched.k * sched.theta) ** 2, abs=1e-9)

    def test_qft_frozen_table(self):
        pr = simulated_table(SPEC163, Algorithm.QFT).pr
        assert np.abs(pr - QFT163).max() < 1e-12

    def test_qft_zero_vanishes_at_half(self):
        spec = build_oracle(8, 4, 1, 0)
        assert simulated_table(spec, Algorithm.QFT).pr[0] < 1e-20

    def test_qft_all_marked_is_delta(self):
        # every label marked: all mass at y = 0, (1 - 2m/n)^2 = 1
        pr = simulated_table(build_oracle(4, 4, 1, 0, strict=False), Algorithm.QFT).pr
        assert pr.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_qhs_frozen_table(self):
        table = simulated_table(SPEC163, Algorithm.QHS)
        assert np.abs(table.pr - QHS163).max() < 1e-12
        assert table.pr.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "n,m,p,s",
        [(16, 3, 4, 1), (1000, 5, 31, 7), (4099, 3, 64, 2), (1, 1, 1, 0), (2, 1, 1, 1),
         (7, 7, 1, 0), (255, 12, 15, 30)],
    )
    def test_qhs_columns_from_one_transform(self, n, m, p, s):
        # The table transforms the marked column only, taking the unmarked
        # one as n*delta - fft(mask) over n; hold it to both columns done densely.
        spec = build_oracle(n, m, p, s, strict=False)
        sim = simulated_table(spec, Algorithm.QHS)
        assert np.abs(sim.pr - two_register_table(spec)).max() < n * np.finfo(float).eps

    @pytest.mark.parametrize(
        "n,m,p,s", [(36, 5, 6, 2), (100, 9, 10, 5), (255, 12, 15, 30), (128, 64, 1, 0)]
    )
    def test_simulated_matches_closed_form(self, n, m, p, s):
        spec = build_oracle(n, m, p, s)
        for alg in Algorithm:
            sim = simulated_table(spec, alg)
            closed = closed_form_table(spec, alg)
            assert np.abs(sim.pr - closed.pr).max() < 1e-9
            assert sim.pr.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("alg", list(Algorithm))
    @pytest.mark.parametrize("iterations", [None, 0, 3])
    def test_one_transform_per_table(self, alg, iterations, monkeypatch):
        calls = {"dft": 0, "grover_iterate": 0}
        for name in calls:
            real = getattr(lpq.simulator, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(lpq.simulator, name, counted)
        spec = build_oracle(1000, 5, 31, 7)
        simulated_table(spec, alg, iterations)
        rounds = grover_schedule(spec.n, spec.m, iterations).k if alg is Algorithm.AMPLIFIED else 0
        assert calls == {"dft": 1, "grover_iterate": rounds}


class TestGeneralUnitary:
    """The pipelines' registers under a dense transform matrix."""

    def test_dft_reproduces_pipeline(self):
        # the kernel matrix itself, applied to each real register
        kernel = np.array([reference_transform(e) for e in np.eye(16)]).T
        for alg, register in (
            (Algorithm.AMPLIFIED, _amplified_register(SPEC163)),
            (Algorithm.QFT, kicked_register(SPEC163)),
        ):
            pr = np.abs(kernel @ register) ** 2
            assert np.abs(pr - simulated_table(SPEC163, alg).pr).max() < 1e-12

    def test_identity_gives_two_level(self):
        sched = grover_schedule(16, 3)
        out = np.eye(16) @ _amplified_register(SPEC163)
        expected = np.where(marked_mask(SPEC163), sched.a_k, unmarked_amplitude(16, 3, sched)) ** 2
        assert np.abs(np.abs(out) ** 2 - expected).max() < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_make_table_rejects_non_finite(bad):
    # NaN slips past both the sign and the normalization comparisons.
    pr = np.full(64, 1 / 64)
    pr[5] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        make_table(pr, case_codes(64, 4, 4))


def test_make_table_rejects_negative():
    pr = np.full(64, 1 / 64)
    pr[5] = -1e-300
    with pytest.raises(ValidationError, match="negative probability -1e-300"):
        make_table(pr, case_codes(64, 4, 4))


@pytest.mark.parametrize("scale", [0.5, 1 + 1e-8])
def test_make_table_rejects_unnormalized(scale):
    pr = np.full(64, scale / 64)
    with pytest.raises(ValidationError, match="table sums to .*, not 1"):
        make_table(pr, case_codes(64, 4, 4))


def test_make_table_takes_ownership():
    pr = np.zeros(64)
    pr[0], pr[8] = 1.0, 1e-12  # rounding dust on the null frequency 8
    codes = case_codes(64, 4, 4)
    table = make_table(pr, codes)
    assert table.pr is pr and table.codes is codes
    assert pr[8] == 0.0


@pytest.mark.parametrize("alg", list(Algorithm))
def test_no_warning_past_2e16(alg, recwarn):
    simulated_table(build_oracle((1 << 16) + 1, 4, 16, 3), alg)
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("alg", [Algorithm.QFT, Algorithm.QHS])
def test_tables_normalized_past_2e16(alg):
    # Generic probabilities here fall far below 1e-12: zeroing by an absolute
    # threshold would erase ~1e-7 of mass and fail normalization.
    spec = build_oracle(1 << 17, 4, 16, 3)
    closed = closed_form_table(spec, alg)
    sim = simulated_table(spec, alg)
    assert abs(closed.pr.sum() - 1) < 1e-12
    assert abs(sim.pr.sum() - 1) < 1e-12
    assert np.abs(sim.pr - closed.pr).max() < spec.n * np.finfo(float).eps
    null = sim.codes == CODE_NULL
    assert (sim.pr[null] == 0).all() and (closed.pr[null] == 0).all()
    assert (sim.pr[~null] > 0).all() and sim.pr[~null].min() < 1e-12


def test_amplified_register_at_2e20(monkeypatch):
    # O(m) rounds make the whole k = 402 schedule at 2^20 affordable here.
    spec = build_oracle(1 << 20, 4, 700, 123)
    sched = grover_schedule(spec.n, spec.m)
    rounds = []
    iterate = lpq.simulator.grover_iterate

    def counting(register, spec):
        rounds.append(spec)
        return iterate(register, spec)

    monkeypatch.setattr(lpq.simulator, "grover_iterate", counting)
    register = _amplified_register(spec)
    assert len(rounds) == sched.k == 402
    expected = np.where(marked_mask(spec), sched.a_k, unmarked_amplitude(spec.n, spec.m, sched))
    assert np.abs(register - expected).max() < 1e-12
    del register, expected
    sim = simulated_table(spec, Algorithm.AMPLIFIED)
    assert len(rounds) == 2 * 402
    closed = closed_form_table(spec, Algorithm.AMPLIFIED)
    assert np.abs(sim.pr - closed.pr).max() < spec.n * np.finfo(float).eps
