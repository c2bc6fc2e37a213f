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
2..isqrt(n), and one call of ``probes_accept`` verifies them all: the
three probes of (s, q) share the probe of s, so one probe of s and two
batches, of s + q and of s + (m-1)*q over every q, decide them.  A frequency
whose candidate is q lies in the acceptance window of q (the y within
n/(2q^2) of n*d/q for a d coprime to q), so ``accepted_denominators``
runs only on the windows of the q that passed; that marks the frequencies
where a trial succeeds, and no other can; they are kept as a sorted
array, never as an n-entry mask.  Uniforms then come from one
``default_rng(seed)`` stream in batches.  Each is judged a success or a
failure exactly as ``searchsorted(cdf, u, side="right")`` on the running
sum of the closed-form table followed by that mark would judge it, but
from the CDF edges of the marked runs only, about 2*phi(p) of them.  Each
edge is computed in closed form at O(m) cost, with a certified slack
(:func:`lpq.closedform.closed_form_edges`) around it.  A uniform outside
every such interval is decided, as no running-sum edge can lie on its
other side: a table of 2^12 buckets of [0, 1) decides every uniform whose
bucket holds no interval end, and the rest are searched among the ends.
Only a uniform inside an interval needs the exact edges: then, once per
call, the whole table and its running sum are built and decide it.  At
n = 2^14 the slack is at most 1.5e-11, and none of the 3.7M uniforms of
the bench's Monte-Carlo ops at seven seeds fell inside an interval.
The stream is cut after each success into per-run trial counts.
Since ``Generator.random(k)`` yields the same doubles as k single draws,
the counts equal those of a loop drawing one frequency per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import (
    closed_form_at,
    closed_form_edges,
    closed_form_table,
    expected_runs,
    pipeline_constants,
    runs_lower_bound,
    spectral_kernel,
)
from .errors import BoundViolated, InvalidProbability, NonTermination, ValidationError
from .offset import probes_accept
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
# Most trials one Monte-Carlo run may take before it gives up (NonTermination).
_MAX_TRIALS = 10_000_000
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
    one at m = n.  The kernel R(y) is evaluated once, at the success set,
    and each pipeline's constants scale it into that pipeline's closed
    form, for the certified probability.
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
    kernel = spectral_kernel(spec, succ)
    reports = []
    for algorithm in Algorithm:  # amplified first: the others divide by its total
        pr = kernel.probabilities(pipeline_constants(spec, algorithm, None), np.empty(succ.size))
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


def monte_carlo_trials(algorithm: Algorithm, spec: OracleSpec, runs: int, seed) -> EmpiricalTrials:
    """Run the sample -> recover -> verify loop to first success, ``runs`` times.

    The true offset is known to the harness only through the verification
    probes.  Deterministic for a fixed seed.  ``runs`` below 1 raises
    ValidationError.  A run needing more than ``_MAX_TRIALS`` trials, or an
    instance where no verified frequency has any probability, raises
    NonTermination.
    """
    if runs < 1:
        raise ValidationError(f"need runs >= 1, got {runs}")
    algorithm = Algorithm(algorithm)
    n = spec.n
    # A trial succeeds exactly when its frequency's candidate q passes the
    # probes, and only the windows of the q that pass hold such frequencies.
    handle = OracleHandle(spec)
    passed = np.zeros(math.isqrt(n) + 1, dtype=bool)
    passed[2:] = probes_accept(handle, spec.s, np.arange(2, passed.size, dtype=np.int64), spec.m)
    windows = [acceptance_window(n, q) for q in np.flatnonzero(passed).tolist()]
    ys = np.concatenate([np.empty(0, dtype=np.int64), *windows])
    if len(windows) > 1:  # windows may overlap; np.unique's first call imports numpy.ma
        ys = np.sort(ys)
        ys = ys[np.diff(ys, prepend=-1) != 0]
    good = ys[passed[accepted_denominators(n, ys)]]  # ascending
    # the values of table.pr[good], in the same order, so the same sum
    p_good = float(closed_form_at(spec, algorithm, good).sum())
    if p_good == 0.0:
        raise NonTermination(
            "no candidate period passes verification at a frequency of nonzero "
            "probability, so no run can succeed"
        )
    # A uniform u lands on y = searchsorted(cdf, u, side="right") for the
    # running sum cdf of the closed-form table, the number of its entries
    # <= u.  Call f a flip where y = f is good and y = f - 1 is not, or the
    # reverse: the first good y of each run of consecutive ones, and the y
    # past its last.  A good y is one an odd number of flips f <= y lead
    # to, and as the running sum is monotone, f <= y iff the edge of f,
    # cdf[f - 1] (0 at f = 0), is <= u.  So a trial succeeds iff an odd
    # number of flip edges are <= u.  Each edge lies within slack(f) of its
    # closed-form E(f) (lpq.closedform), so those intervals decide every
    # uniform outside them (_odd_flips), and the exact edges, built at most
    # once a call, decide the few inside.
    gap = np.flatnonzero(np.diff(good) != 1)  # a run ends at each, and the next starts past it
    flips = np.empty(2 * gap.size + 2, dtype=np.int64)
    flips[0], flips[-1] = good[0], good[-1] + 1
    flips[1:-1:2] = good[gap] + 1
    flips[2:-1:2] = good[gap + 1]
    edges, slack = closed_form_edges(spec, algorithm, flips)
    lo, hi = edges - slack, edges + slack
    if flips[-1] == n:  # the edge max(cdf[-1], 1), past every uniform
        lo[-1] = hi[-1] = 1.0
    # Each edge lies in its interval and the edges rise with f, so the
    # interval ends may rise with f too, which lets them be searched.
    lo, hi = np.maximum.accumulate(lo), np.minimum.accumulate(hi[::-1])[::-1]
    codes = _bucket_codes(lo, hi)
    exact = None  # the edges from the running sum, once a uniform needs them
    rng = np.random.default_rng(seed)
    counts = np.empty(runs, dtype=np.int64)
    done = pending = 0  # finished runs; trials of the current run so far
    while done < runs:
        # a quarter more draws than the remaining runs need on average
        batch = math.ceil(min(_MC_BATCH_CAP, 1.25 * (runs - done) / p_good))
        u = rng.random(batch)
        hit, unsure = _odd_flips(lo, hi, codes, u)
        if unsure.size:
            if exact is None:
                exact = _exact_edges(spec, algorithm, flips)
            hit[unsure] = np.searchsorted(exact, u[unsure], side="right") & 1
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
        # a run with _MAX_TRIALS failures behind it would need one trial more
        if longest > _MAX_TRIALS or (done < runs and pending >= _MAX_TRIALS):
            raise NonTermination(f"no success within {_MAX_TRIALS} trials")
    mean = float(counts.mean())
    variance = float(counts.var(ddof=1)) if runs > 1 else 0.0
    half = 1.96 * math.sqrt(variance / runs) if runs > 1 else 0.0
    return EmpiricalTrials(runs, mean, variance, (mean - half, mean + half), counts)


def _exact_edges(spec: OracleSpec, algorithm: Algorithm, flips: np.ndarray) -> np.ndarray:
    """The edge cdf[f - 1] of each flip f, from the running sum of the
    whole closed-form table, with cdf[-1] raised to 1."""
    cdf = np.cumsum(closed_form_table(spec, algorithm).pr)
    cdf[-1] = max(cdf[-1], 1.0)
    return np.where(flips > 0, cdf[flips - 1], 0.0)


def _bucket_codes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per bucket [b/B, (b+1)/B) of [0, 1), B = _BUCKETS, for intervals
    [lo, hi) around rising edges, with lo and hi rising too: 2 if an
    interval end lies inside the bucket; else, for every u in it, 2 if u
    lies inside an interval, and otherwise the parity of the edges <= u.

    Among the ends <= u, more ends lo than ends hi means u lies inside an
    interval; otherwise the edges <= u are those of the ends lo <= u.  So
    the code changes only at an end: it is taken after each end, in
    ascending order, and holds up to the bucket of the next.  An end x
    lies in bucket floor(x*B), which is exact; ends below 0 share bucket
    0, and ends past 1 bucket B, which no uniform reaches.
    """
    ends = np.concatenate((lo, hi))
    order = np.argsort(ends, kind="stable")
    at = np.minimum(np.maximum(ends[order] * _BUCKETS, 0), _BUCKETS).astype(np.intp)
    lows = np.cumsum(order < lo.size)  # the ends lo among the first j + 1
    state = np.zeros(at.size + 1, dtype=np.int8)  # before any end: no edge
    state[1:] = np.where(2 * lows > np.arange(1, at.size + 1), 2, lows & 1)
    runs = np.empty(at.size + 2, dtype=np.intp)  # where each state starts
    runs[0], runs[-1] = 0, _BUCKETS
    np.minimum(at + 1, _BUCKETS, out=runs[1:-1])
    codes = np.repeat(state, np.diff(runs))
    codes[at[at < _BUCKETS]] = 2
    return codes


def _odd_flips(lo: np.ndarray, hi: np.ndarray, codes: np.ndarray, u: np.ndarray):
    """``searchsorted(edges, u, side="right") & 1`` for uniforms u in [0, 1)
    outside every interval [lo, hi) of :func:`_bucket_codes`, read from its
    codes wherever they decide it and searched for among the interval ends
    where the bucket holds one; and the indices of the uniforms inside an
    interval, which no edge inside it decides."""
    hit = codes[(u * _BUCKETS).astype(np.intp)]
    slow = np.flatnonzero(hit == 2)
    ends_lo = np.searchsorted(lo, u[slow], side="right")
    hit[slow] = ends_lo & 1
    return hit, slow[ends_lo > np.searchsorted(hi, u[slow], side="right")]


def verified_recovery(handle: OracleHandle, y: int, q_max: int | None = None):
    """Recovery plus oracle verification against the handle's instance.

    A candidate the probes reject comes back with status rejected and no
    accepted period: the probes show that it is not the period, not why.
    """
    spec = handle.spec
    result = recover_period(y, spec.n, q_max)
    if result.accepted is None:
        return result
    if probes_accept(handle, spec.s, result.accepted, spec.m):
        return result
    result.accepted = None
    result.status = RecoveryStatus.REJECTED
    return result
