"""Batched brute-force engine behind the exhaustive sweeps.

Tables do not depend on the offset, but the sweeps must prove that, so for
each (n, m, p) every legal offset is simulated at once: row i of each batch
is the honest full-vector pipeline for offset s = i.  Everything here is
coded against numpy primitives only, independently of the library's
per-instance simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from lpq import build_oracle, grover_schedule
from lpq.closedform import closed_form_table, ratio_bounds
from lpq.recovery import success_set
from lpq.spectrum import CODE_GENERIC, CODE_RESONANT, Algorithm, case_codes
from reference import unmarked_amplitude


def strict_triples(n_max: int, n_min: int = 2):
    """All (n, m, p) with p*p <= n, 2m <= n and a marked set that fits."""
    for n in range(n_min, n_max + 1):
        for p in range(1, math.isqrt(n) + 1):
            m_cap = min(n // 2, (n - 1) // p + 1)
            for m in range(1, m_cap + 1):
                yield n, m, p


def offset_masks(n: int, m: int, p: int) -> np.ndarray:
    """Boolean (s_count, n) indicator matrix, one row per legal offset."""
    s_count = n - (m - 1) * p
    mask = np.zeros((s_count, n), dtype=bool)
    cols = np.arange(s_count)[:, None] + np.arange(m)[None, :] * p
    mask[np.arange(s_count)[:, None], cols] = True
    return mask


def simulate_all_offsets(n: int, m: int, p: int):
    """Brute-force spectra for every legal offset of one (n, m, p).

    Returns (amplified, qft, qhs) probability batches plus the worst
    deviation of the iterated register from its two-level form.
    """
    mask = offset_masks(n, m, p)
    sched = grover_schedule(n, m)
    state = np.full(mask.shape, 1.0 / math.sqrt(n))
    for _ in range(sched.k):
        state = np.where(mask, -state, state)
        state = 2.0 * state.mean(axis=1, keepdims=True) - state
    two_level = np.where(mask, sched.a_k, unmarked_amplitude(n, m, sched))
    two_level_dev = float(np.abs(state - two_level).max())
    amp = np.abs(np.fft.fft(state, axis=1)) ** 2 / n
    qft = np.abs(np.fft.fft((1.0 - 2.0 * mask) / math.sqrt(n), axis=1)) ** 2 / n
    marked = np.abs(np.fft.fft(mask.astype(float), axis=1)) ** 2
    unmarked = np.abs(np.fft.fft((~mask).astype(float), axis=1)) ** 2
    qhs = (marked + unmarked) / n**2
    return amp, qft, qhs, two_level_dev, sched


@dataclass
class SweepReport:
    """Worst-case figures accumulated over an exhaustive sweep."""

    triples: int = 0
    offsets: int = 0
    table_dev: dict = field(
        default_factory=lambda: {a: 0.0 for a in Algorithm}
    )
    norm_dev: float = 0.0
    two_level_dev: float = 0.0
    good_prob_margin: float = math.inf
    ratio_violation: float = -math.inf
    ratio_spread: float = 0.0
    gap_dev: float = 0.0
    summed_ratio_violation: float = -math.inf


def run_sweep(n_max: int, n_min: int = 2) -> SweepReport:
    report = SweepReport()
    for n, m, p in strict_triples(n_max, n_min):
        spec = build_oracle(n, m, p, 0)
        closed = {alg: closed_form_table(spec, alg).pr for alg in Algorithm}
        amp, qft, qhs, two_dev, sched = simulate_all_offsets(n, m, p)
        batches = {Algorithm.AMPLIFIED: amp, Algorithm.QFT: qft, Algorithm.QHS: qhs}
        for alg, batch in batches.items():
            report.table_dev[alg] = max(
                report.table_dev[alg], float(np.abs(batch - closed[alg]).max())
            )
            report.norm_dev = max(
                report.norm_dev,
                float(np.abs(batch.sum(axis=1) - 1.0).max()),
                abs(float(closed[alg].sum()) - 1.0),
            )
        report.two_level_dev = max(report.two_level_dev, two_dev)
        good = math.sin((2 * sched.k + 1) * sched.theta) ** 2  # marked mass after k rounds
        report.good_prob_margin = min(report.good_prob_margin, good - (1.0 - m / n))
        _ratio_checks(report, spec, closed)
        report.triples += 1
        report.offsets += amp.shape[0]
    return report


def _ratio_checks(report: SweepReport, spec, closed) -> None:
    codes = case_codes(spec.n, spec.m, spec.p)
    live = (codes == CODE_RESONANT) | (codes == CODE_GENERIC)
    if not live.any():
        return
    succ = success_set(spec)
    for baseline in (Algorithm.QFT, Algorithm.QHS):
        bounds = ratio_bounds(spec.n, spec.m, baseline)
        ratios = closed[Algorithm.AMPLIFIED][live] / closed[baseline][live]
        report.ratio_violation = max(
            report.ratio_violation,
            float(bounds.lower - ratios.min()),
            float(ratios.max() - bounds.upper),
        )
        report.ratio_spread = max(report.ratio_spread, float(ratios.max() - ratios.min()))
        expected_gap = 1.0 if baseline is Algorithm.QFT else 2.0
        report.gap_dev = max(report.gap_dev, abs(bounds.gap - expected_gap))
        if len(succ):
            summed = float(
                closed[Algorithm.AMPLIFIED][succ].sum() / closed[baseline][succ].sum()
            )
            report.summed_ratio_violation = max(
                report.summed_ratio_violation, bounds.lower - summed, summed - bounds.upper
            )
