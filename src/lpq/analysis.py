"""Trials-to-success statistics and the work-factor comparison.

Each full run of a pipeline either yields a frequency from which the period
is recovered and verified, or it fails and the pipeline is rerun; the run
count is geometric, E[X] = 1/p and Var[X] = (1-p)/p^2.

Two per-run success probabilities are exposed, because they answer
different questions:

* ``success_probability`` (recovery module): mass of the certified window
  around each good multiplier — a provable lower bound on success.
* the y = 0 idealization 1 - Pr(0), which counts every nonzero frequency
  as a success.  It upper-bounds the above and the exact per-run success
  probability that Monte-Carlo measures, and it is the quantity behind the
  headline E[X] >= n/(4m) (plain) and >= n/(2m) (two-register) lower
  bounds, so the work-factor table is built from it.

Costs are counted in oracle/transform applications: k + 1 per amplified
run, 1 per plain run.

Monte-Carlo draws in bulk.  Every candidate period is a q in
2..isqrt(n), and each is verified once with the oracle probes.  A
frequency whose candidate is q lies in the acceptance window of q (the y
within n/(2q^2) of n*d/q for a d coprime to q), so ``accepted_denominators``
runs only on the windows of the q that passed; that marks the frequencies
where a trial succeeds, and no other can.  Uniforms then come from one
``default_rng(seed)`` stream in batches.  Each is judged a success or a
failure exactly as ``searchsorted(cdf, u, side="right")`` on the
closed-form CDF followed by that mark would judge it, but from the CDF
edges of the marked frequencies only: a table of 2^12 buckets of [0, 1)
decides every uniform whose bucket holds no edge, and the rest are
searched among the edges.  The stream is cut after each success into
per-run trial counts.  Since ``Generator.random(k)`` yields the same
doubles as k single draws, the counts equal those of a loop drawing one
frequency per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import closed_form_at, closed_form_table
from .errors import BoundViolated, InvalidProbability, NonTermination, ValidationError
from .offset import test_period_known_s
from .oracle import OracleHandle, OracleSpec
from .recovery import (
    RecoveryStatus,
    accepted_denominators,
    acceptance_window,
    recover_period,
    success_probability,
)
from .simulator import grover_schedule
from .spectrum import Algorithm

# Largest number of uniforms Monte-Carlo draws at once (64 KiB of doubles).
_MC_BATCH_CAP = 1 << 13
# Buckets of [0, 1) in the Monte-Carlo lookup.  A power of two, so u * _BUCKETS
# and its floor are exact for every double u.
_BUCKETS = 1 << 12


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

    Expected runs use the y = 0 idealization (see module docstring), with
    Pr(0) from the closed form; the amplified pipeline is charged k + 1
    applications for its single run, the others one application per run.
    A pipeline with Pr(0) = 1 never measures a nonzero frequency and raises
    NonTermination: the amplified one past 2m = n, where k = 0, and every
    one at m = n.
    """
    amplified_cost = grover_schedule(spec.n, spec.m).k + 1
    reports = []
    for algorithm in Algorithm:
        pr0 = float(closed_form_at(spec, algorithm, [0])[0])
        if pr0 >= 1.0:
            raise NonTermination(
                f"{algorithm.value}: Pr(0) = 1, so no run measures a nonzero frequency"
            )
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
    probes.  Deterministic for a fixed seed.  ``runs`` below 1 raises
    ValidationError.  A run needing more than ``max_trials`` trials, or an
    instance where no verified frequency has any probability, raises
    NonTermination.
    """
    if runs < 1:
        raise ValidationError(f"need runs >= 1, got {runs}")
    table = closed_form_table(spec, Algorithm(algorithm))
    n = spec.n
    # A trial succeeds exactly when its frequency's candidate, a q in
    # 2..isqrt(n), passes the probes.  Each q is verified once; a frequency
    # whose candidate is q lies in the acceptance window of q, so the ladder
    # runs only on the windows of the q that passed, and every frequency
    # outside them fails.
    handle = OracleHandle(spec)
    passed = np.zeros(math.isqrt(n) + 1, dtype=bool)
    for q in range(2, passed.size):
        passed[q] = test_period_known_s(handle, spec.s, q, spec.m)
    good = np.zeros(n, dtype=bool)
    for q in np.flatnonzero(passed).tolist():
        good[acceptance_window(n, q)] = True
    ys = np.flatnonzero(good)
    good[ys] = passed[accepted_denominators(n, ys)]
    p_good = float(table.pr[good].sum())
    if p_good == 0.0:
        raise NonTermination(
            "no candidate period passes verification at a frequency of nonzero "
            "probability, so no run can succeed"
        )
    cdf = np.cumsum(table.pr)
    cdf[-1] = max(cdf[-1], 1.0)
    # A uniform u lands on y = searchsorted(cdf, u, side="right"), the
    # number of CDF entries <= u.  Call f a flip where good[f] differs from
    # good[f - 1] (good[-1] = False); good[y] is the parity of the flips
    # f <= y.  As the CDF is monotone, f <= y iff the left CDF edge of f,
    # cdf[f - 1] (0 at f = 0), is <= u.  So a trial succeeds iff an odd
    # number of flip edges are <= u, which _odd_flips decides from a
    # bucket table over those few edges instead of all n CDF entries.
    flips = np.flatnonzero(np.diff(good, prepend=False, append=False))
    edges = np.where(flips > 0, cdf[flips - 1], 0.0)
    del cdf
    codes = _bucket_codes(edges)
    rng = np.random.default_rng(seed)
    counts = np.empty(runs, dtype=np.int64)
    done = pending = 0  # finished runs; trials of the current run so far
    while done < runs:
        # a quarter more draws than the remaining runs need on average
        batch = math.ceil(min(_MC_BATCH_CAP, 1.25 * (runs - done) / p_good))
        hit = _odd_flips(edges, codes, rng.random(batch))
        # 1-based positions of the successes this batch needs
        ends = np.flatnonzero(hit)[: runs - done] + 1
        if ends.size:
            gaps = np.diff(ends, prepend=-pending)
            counts[done : done + ends.size] = gaps
            done += ends.size
            pending = batch - int(ends[-1])
            longest = int(gaps.max())
        else:
            pending += batch
            longest = 0
        # a run with max_trials failures behind it would need one trial more
        if longest > max_trials or (done < runs and pending >= max_trials):
            raise NonTermination(f"no success within {max_trials} trials")
    mean = float(counts.mean())
    variance = float(counts.var(ddof=1)) if runs > 1 else 0.0
    half = 1.96 * math.sqrt(variance / runs) if runs > 1 else 0.0
    return EmpiricalTrials(runs, mean, variance, (mean - half, mean + half), counts)


def _bucket_codes(edges: np.ndarray) -> np.ndarray:
    """Per bucket [b/B, (b+1)/B) of [0, 1), B = _BUCKETS: the parity of
    ``searchsorted(edges, b/B, side="left")``, the edges below b/B, or 2
    when an edge lies inside the bucket.

    For u in a bucket with no edge inside, the edges <= u are exactly the
    edges < b/B, so the parity is the bucket's; only a bucket holding an
    edge needs a search.  An edge e lies in bucket floor(e*B), which is
    exact, and below b/B iff that bucket is below b; edges past 1 share
    bucket B, which no uniform reaches.
    """
    inside = np.bincount(
        np.minimum((edges * _BUCKETS).astype(np.intp), _BUCKETS), minlength=_BUCKETS + 1
    )
    below = np.cumsum(inside) - inside
    codes = (below[:-1] & 1).astype(np.int8)
    codes[inside[:-1] > 0] = 2
    return codes


def _odd_flips(edges: np.ndarray, codes: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(edges, u, side="right") & 1`` for uniforms u in [0, 1),
    read from the bucket codes of :func:`_bucket_codes` wherever they
    decide it, and searched for only where the bucket holds an edge."""
    hit = codes[(u * _BUCKETS).astype(np.intp)]
    slow = np.flatnonzero(hit == 2)
    hit[slow] = np.searchsorted(edges, u[slow], side="right") & 1
    return hit


def verified_recovery(handle: OracleHandle, y: int, q_max: int | None = None):
    """Recovery plus oracle verification against the handle's instance.

    A candidate the probes reject comes back with status gcd-obstruction
    and no accepted period.
    """
    spec = handle.spec
    result = recover_period(y, spec.n, q_max)
    if result.accepted is None:
        return result
    if test_period_known_s(handle, spec.s, result.accepted, spec.m):
        return result
    result.accepted = None
    result.status = RecoveryStatus.GCD_OBSTRUCTION
    return result
