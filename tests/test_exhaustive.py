"""Tier-1 wiring of the batched all-offset brute-force engine.

``exhaustive.run_sweep(32)`` simulates every strict (n, m, p) with n <= 32
at every legal offset (839 triples, 11,838 offsets) and takes about 0.5 s;
holding the production simulator to row 0 of each batch doubles that.
The engine is coded against numpy alone, so agreement here is agreement
between independent derivations: closed form, per-instance simulation and
the batched all-offset simulation.
"""

import numpy as np
import pytest

from exhaustive import run_sweep, simulate_all_offsets, strict_triples
from lpq import build_oracle, simulated_table
from lpq.spectrum import Algorithm

N_MAX = 32
# Tables and norms agree to a few hundred ulps at these sizes (worst seen:
# table 8.3e-16, norm 2.0e-15); the bounds leave a 100x margin.
TABLE_TOL = 1e-13
NORM_TOL = 1e-13
# Scalar identities (ratio sandwich, gap, two-level form) are rounding-exact.
IDENTITY_TOL = 1e-12


@pytest.fixture(scope="module")
def report():
    return run_sweep(N_MAX)


def test_sweep_covers_every_offset(report):
    assert report.triples == sum(1 for _ in strict_triples(N_MAX))
    assert report.offsets > report.triples


def test_batched_tables_match_closed_form(report):
    for alg in Algorithm:
        assert report.table_dev[alg] < TABLE_TOL, alg
    assert report.norm_dev < NORM_TOL


def test_register_is_two_level(report):
    assert report.two_level_dev < IDENTITY_TOL


def test_amplification_meets_bbht_guarantee(report):
    # sin^2((2k+1) theta) >= 1 - m/n at every triple
    assert report.good_prob_margin > -IDENTITY_TOL


def test_ratio_sandwich(report):
    assert report.ratio_violation < IDENTITY_TOL
    assert report.summed_ratio_violation < IDENTITY_TOL
    assert report.gap_dev < IDENTITY_TOL
    # the amplified/baseline ratio is one constant per instance
    assert report.ratio_spread < IDENTITY_TOL


def test_production_simulator_matches_batch_row_zero():
    worst = 0.0
    for n, m, p in strict_triples(N_MAX):
        amp, qft, qhs, *_ = simulate_all_offsets(n, m, p)
        batches = {Algorithm.AMPLIFIED: amp, Algorithm.QFT: qft, Algorithm.QHS: qhs}
        spec = build_oracle(n, m, p, 0)
        for alg, batch in batches.items():
            worst = max(worst, float(np.abs(simulated_table(spec, alg).pr - batch[0]).max()))
    assert worst < TABLE_TOL
