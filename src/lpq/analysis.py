"""Trials-to-success statistics and the work-factor comparison.

Each full run of a pipeline either yields a frequency from which the period
is recovered and verified, or it fails and the pipeline is rerun; the run
count is geometric, with mean 1/p for a per-run success probability p.

Two per-run success probabilities enter the work-factor table, because
they answer different questions:

* the certified one: the closed-form mass of the success set
  (:func:`lpq.recovery.success_set`), the window around each good
  multiplier — a provable lower bound on success, empty where no run can
  pass recovery and the probes: at m = 1, p = 1 or p*p > n.
* the y = 0 idealization 1 - Pr(0), which counts every nonzero frequency
  as a success.  It upper-bounds the above and the exact per-run success
  probability that Monte-Carlo measures, and it is the quantity behind the
  headline E[X] >= n/(c*m) lower bounds, c = 4 for the plain pipeline
  (qft) and 2 for the two-register one (qhs), so the expected runs are
  built from it, by :func:`lpq.closedform.expected_runs` for all three.
  Each report's bound verdict holds those runs to n/(c*m).

Costs are counted in oracle/transform applications: k + 1 per amplified
run, 1 per plain run, so each pipeline's total is its per-run cost times
its expected runs.  Off y = 0 the amplified spectrum is a constant multiple
of each plain one, and recovery and verification depend on y alone, so the
ratio of two pipelines' exact per-run success probabilities is the ratio
of their 1 - Pr(0): the y = 0 idealization cancels from the ratio of two
totals.

Monte-Carlo draws in bulk.  Every candidate period is a q in
2..isqrt(n), and all of them are verified at once: the three probes of
(s, q) share the probe of s, so one probe of s and two batched queries,
of s + q and of s + (m-1)*q over every q, decide them all.  A frequency
whose candidate is q lies in the acceptance window of q (the y within
n/(2q^2) of n*d/q for a d coprime to q), so ``accepted_denominators``
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

from .closedform import closed_form_at, closed_form_table, expected_runs, runs_lower_bound
from .errors import BoundViolated, InvalidProbability, NonTermination, ValidationError
from .offset import test_period_known_s
from .oracle import OracleHandle, OracleSpec
from .recovery import (
    RecoveryStatus,
    accepted_denominators,
    acceptance_window,
    recover_period,
    success_set,
)
from .simulator import grover_schedule
from .spectrum import Algorithm

# Largest number of uniforms Monte-Carlo draws at once (64 KiB of doubles).
_MC_BATCH_CAP = 1 << 13
# Buckets of [0, 1) in the Monte-Carlo lookup.  A power of two, so u * _BUCKETS
# and its floor are exact for every double u.
_BUCKETS = 1 << 12


def _certified_trials(algorithm: Algorithm, p: float, bound: float | None) -> float:
    """Expected trials 1/p at the certified success probability p, held to
    the proven lower bound on the expected runs (BoundViolated)."""
    if not 0.0 < p <= 1.0:
        raise InvalidProbability(f"need 0 < p <= 1, got {p}")
    trials = 1.0 / p
    # The certified p never exceeds 1 - Pr(0), so the bound holds a fortiori.
    if bound is not None and trials < bound:
        raise BoundViolated(
            f"{algorithm.value} expects {trials} trials, below the proven lower bound {bound}"
        )
    return trials


@dataclass(frozen=True)
class WorkfactorReport:
    """Expected cost of solving one instance with one pipeline.

    ``certified_expected_trials`` is 1/p at the certified success
    probability p, the closed-form mass of the success set, or None where
    that set is empty (m = 1, p = 1 or p*p > n): no run can succeed there.
    ``bound_verdict`` is "FAIL" where ``expected_runs`` falls below the
    proven lower bound n/(c*m), else "pass".
    """

    algorithm: Algorithm
    per_run_cost: float
    expected_runs: float
    total_cost: float
    ratio_vs_amplified: float
    certified_expected_trials: float | None
    bound_verdict: str


def workfactor_comparison(spec: OracleSpec) -> list[WorkfactorReport]:
    """Cost table for the three pipelines on one instance.

    Expected runs use the y = 0 idealization (see module docstring); the
    amplified pipeline is charged k + 1 applications a run, the others one,
    and each ratio_vs_amplified is a total over the amplified total.  A
    pipeline with Pr(0) = 1 never measures a nonzero frequency and raises
    NonTermination: the amplified one past 2m = n, where k = 0, and every
    one at m = n.  Each pipeline's closed form is evaluated once, at the
    success set, for the certified probability.
    """
    n, m = spec.n, spec.m
    amplified_cost = grover_schedule(n, m).k + 1
    # The closed form's guard and a pipeline with Pr(0) = 1 are reported
    # before a success set too large for int64, so that guard waits.  It
    # stays a guard: it is also the only bound on the success set's
    # phi(p)-sized arrays, which past it reach 16 GiB at p = 2^31.
    try:
        succ, too_large = success_set(spec), None
    except ValidationError as exc:
        succ, too_large = np.empty(0, dtype=np.int64), exc
    reports = []
    for algorithm in Algorithm:  # amplified first: the others divide by its total
        pr = closed_form_at(spec, algorithm, succ)
        runs = expected_runs(n, m, algorithm)
        if runs is None:
            raise NonTermination(
                f"{algorithm.value}: Pr(0) = 1, so no run measures a nonzero frequency"
            )
        bound = runs_lower_bound(n, m, algorithm)
        certified = _certified_trials(algorithm, float(pr.sum()), bound) if succ.size else None
        cost = amplified_cost if algorithm is Algorithm.AMPLIFIED else 1.0
        total = cost * runs
        if algorithm is Algorithm.AMPLIFIED:
            amplified_total = total
        verdict = "pass" if bound is None or runs >= bound else "FAIL"
        reports.append(
            WorkfactorReport(
                algorithm, cost, runs, total, total / amplified_total, certified, verdict
            )
        )
    if too_large is not None:
        raise too_large
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
    # 2..isqrt(n), passes the probes.  Every q is verified at once; a frequency
    # whose candidate is q lies in the acceptance window of q, so the ladder
    # runs only on the windows of the q that passed, and every frequency
    # outside them fails.
    handle = OracleHandle(spec)
    passed = np.zeros(math.isqrt(n) + 1, dtype=bool)
    # the three probes of test_period_known_s, batched over q: f(s) is the
    # same for every q
    if handle(spec.s):
        q = np.arange(2, passed.size, dtype=np.int64)
        passed[2:] = handle.query_many(spec.s + q) & handle.query_many(spec.s + (spec.m - 1) * q)
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

    A candidate the probes reject comes back with status rejected and no
    accepted period: the probes show that it is not the period, not why.
    """
    spec = handle.spec
    result = recover_period(y, spec.n, q_max)
    if result.accepted is None:
        return result
    if test_period_known_s(handle, spec.s, result.accepted, spec.m):
        return result
    result.accepted = None
    result.status = RecoveryStatus.REJECTED
    return result
