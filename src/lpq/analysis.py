"""Trials-to-success statistics and the work-factor comparison.

Each full run of a pipeline either yields a frequency from which the period
is recovered and verified, or it fails and the pipeline is rerun; the run
count is geometric, E[X] = 1/p and Var[X] = (1-p)/p^2.

Three different per-run success probabilities show up and all three are
exposed, because they answer different questions:

* ``success_probability`` (recovery module): mass of the certified window
  around each good multiplier — a provable lower bound on success.
* ``pipeline_success_probability``: exact mass of every frequency the
  decision procedure actually accepts and verifies, including lucky
  convergents outside the certified window; this is what Monte-Carlo
  measures.
* the y = 0 idealization 1 - Pr(0), which counts every nonzero frequency
  as a success.  It upper-bounds both of the above and is the quantity
  behind the headline E[X] >= n/(4m) (plain) and >= n/(2m) (two-register)
  lower bounds, so the work-factor table is built from it.

Costs are counted in oracle/transform applications: k + 1 per amplified
run, 1 per plain run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import RatioBounds, ratio_bounds
from .errors import BoundViolated, InvalidProbability, NonTermination
from .offset import test_period_known_s
from .oracle import OracleHandle, OracleSpec
from .recovery import accepted_denominator, recover_period, success_probability
from .simulator import grover_schedule
from .spectrum import Algorithm


@dataclass(frozen=True)
class GeometricStats:
    """Trials-to-first-success law for per-trial success probability p."""

    p: float
    expected_trials: float
    variance: float


def geometric_stats(p: float) -> GeometricStats:
    if not 0.0 < p <= 1.0:
        raise InvalidProbability(f"need 0 < p <= 1, got {p}")
    return GeometricStats(p, 1.0 / p, (1.0 - p) / p**2)


def expected_trials(algorithm: Algorithm, spec: OracleSpec) -> GeometricStats:
    """Geometric statistics at the certified success probability."""
    algorithm = Algorithm(algorithm)
    stats = geometric_stats(success_probability(algorithm, spec))
    n, m = spec.n, spec.m
    # The certified p never exceeds 1 - Pr(0), so these hold a fortiori.
    bound = {Algorithm.QFT: n / (4 * m), Algorithm.QHS: n / (2 * m)}.get(algorithm)
    if bound is not None and stats.expected_trials < bound:
        raise BoundViolated(
            f"{algorithm.value} expects {stats.expected_trials} trials, "
            f"below the proven lower bound {bound}"
        )
    return stats


def pipeline_success_probability(algorithm: Algorithm, spec: OracleSpec) -> float:
    """Exact per-run success probability of the full decision procedure.

    Enumerates every frequency, keeps those whose recovered candidate is
    the true period (verification accepts exactly those), and sums their
    closed-form probabilities.
    """
    from .closedform import closed_form_table

    table = closed_form_table(spec, Algorithm(algorithm))
    mask = np.fromiter(
        (accepted_denominator(y, spec.n) == spec.p for y in range(spec.n)),
        dtype=bool,
        count=spec.n,
    )
    return float(table.pr[mask].sum())


@dataclass(frozen=True)
class WorkfactorReport:
    """Expected cost of solving one instance with one pipeline."""

    algorithm: Algorithm
    per_run_cost: float
    expected_runs: float
    total_cost: float
    ratio_vs_amplified: float


def workfactor_comparison(spec: OracleSpec) -> list[WorkfactorReport]:
    """Cost table for the three pipelines on one instance.

    Expected runs use the y = 0 idealization (see module docstring); the
    amplified pipeline is charged k + 1 applications for its single run,
    the others one application per run.
    """
    from .closedform import closed_form_table

    schedule = grover_schedule(spec.n, spec.m)
    amplified_cost = schedule.k + 1
    reports = []
    for algorithm in Algorithm:
        pr0 = float(closed_form_table(spec, algorithm).pr[0])
        runs = 1.0 / (1.0 - pr0)
        if algorithm is Algorithm.AMPLIFIED:
            reports.append(WorkfactorReport(algorithm, amplified_cost, runs, amplified_cost, 1.0))
        else:
            reports.append(
                WorkfactorReport(algorithm, 1.0, runs, runs, runs / amplified_cost)
            )
    return reports


@dataclass(frozen=True)
class EmpiricalTrials:
    """Monte-Carlo trials-to-success summary over independent runs."""

    runs: int
    mean: float
    variance: float
    ci95: tuple[float, float]
    trial_counts: np.ndarray

    def to_json_obj(self) -> dict:
        return {
            "runs": self.runs,
            "mean": self.mean,
            "variance": self.variance,
            "ci95": list(self.ci95),
        }


def monte_carlo_trials(
    algorithm: Algorithm,
    spec: OracleSpec,
    runs: int,
    seed,
    max_trials: int = 10_000_000,
) -> EmpiricalTrials:
    """Run the sample -> recover -> verify loop to first success, ``runs`` times.

    The true offset is known to the harness only through the verification
    probes.  Deterministic for a fixed seed.
    """
    from .closedform import closed_form_table

    table = closed_form_table(spec, Algorithm(algorithm))
    cdf = np.cumsum(table.pr)
    cdf[-1] = max(cdf[-1], 1.0)
    rng = np.random.default_rng(seed)
    handle = OracleHandle(spec)
    counts = np.empty(runs, dtype=np.int64)
    n, s, m = spec.n, spec.s, spec.m
    for i in range(runs):
        trials = 0
        while True:
            trials += 1
            if trials > max_trials:
                raise NonTermination(f"no success within {max_trials} trials")
            y = int(np.searchsorted(cdf, rng.random(), side="right"))
            candidate = accepted_denominator(y, n)
            if candidate is None:
                continue
            if test_period_known_s(handle, s, candidate, m):
                break
        counts[i] = trials
    mean = float(counts.mean())
    variance = float(counts.var(ddof=1)) if runs > 1 else 0.0
    half = 1.96 * math.sqrt(variance / runs) if runs > 1 else 0.0
    return EmpiricalTrials(runs, mean, variance, (mean - half, mean + half), counts)


def general_unitary_ratio(n: int, m: int) -> tuple[RatioBounds, float]:
    """Amplified/plain amplitude ratio under any norm-killing transform.

    At any frequency where the transform sums to zero over all labels but
    not over the marked ones, amplified and plain amplitudes differ by the
    constant (n / (-2m)) * tan(theta) * sin(2k theta), independent of the
    transform and of the frequency; its square obeys the usual bounds.
    """
    schedule = grover_schedule(n, m)
    amp_ratio = (n / (-2.0 * m)) * math.tan(schedule.theta) * math.sin(
        2 * schedule.k * schedule.theta
    )
    return ratio_bounds(n, m, Algorithm.QFT), amp_ratio


def verified_recovery(handle: OracleHandle, y: int, q_max: int | None = None):
    """Recovery plus oracle verification against the handle's instance.

    A candidate the probes reject comes back with status gcd-obstruction
    and no accepted period.
    """
    from .recovery import RecoveryStatus

    spec = handle.spec
    result = recover_period(y, spec.n, q_max)
    if result.accepted is None:
        return result
    if test_period_known_s(handle, spec.s, result.accepted, spec.m):
        return result
    result.accepted = None
    result.status = RecoveryStatus.GCD_OBSTRUCTION
    return result
