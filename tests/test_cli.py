import argparse
import contextlib
import errno
import hashlib
import io
import json
import math
import os
import re
import string
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpq.analysis
import lpq.closedform
import lpq.recovery
from lpq import build_oracle, cli
from lpq.cli import main
from lpq.closedform import closed_form_table, pipeline_constants, ratio_bounds, spectral_kernel
from lpq.recovery import success_set
from lpq.simulator import simulated_table
from lpq.spectrum import CASE_NAMES, Algorithm, ProbabilityTable, case_codes


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


SPEC_FLAGS = ["--n", "16", "--m", "3", "--p", "4", "--s", "1"]
KEPT = b"an --out file that a failing run leaves as it was\n"


def check_out_kept(argv, code, err, tmp_path, capsys):
    """main(argv) with --out to a file that exists exits with code and err,
    writes nothing to stdout and leaves the file's bytes as they were: every
    check comes before the first byte is written."""
    out = tmp_path / "kept.out"
    out.write_bytes(KEPT)
    assert main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr() == ("", err)
    assert out.read_bytes() == KEPT


def failing_run(argv, tmp_path, capsys) -> tuple[int, str]:
    """main's exit code and stderr for argv, which writes nothing: not to
    stdout, and not to an --out file that exists (check_out_kept)."""
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    check_out_kept(argv, code, captured.err, tmp_path, capsys)
    return code, captured.err


# The full text of work-factor rows: column order, the int amplified cost
# beside the float plain ones, and empty or null certified cells.
TRIALS_TEXT = {
    ((256, 4, 4, 1), "csv"): (
        "# schema=1\n"
        "algorithm,per_run_cost,expected_runs,total_cost,ratio_vs_amplified,certified_expected_trials,bound_verdict\n"
        "amplified,7,1.0044839320744692,7.0313875245212838,1,31.641243860345782,pass\n"
        "qft,1,16.253968253968253,16.253968253968253,2.3116302717328709,512,pass\n"
        "qhs,1,32.507936507936506,32.507936507936506,4.6232605434657419,1024,pass\n"
    ),
    ((256, 4, 4, 1), "json"): (
        "{\n"
        ' "schema": 1,\n'
        ' "workfactor": [\n'
        "  {\n"
        '   "algorithm": "amplified",\n'
        '   "bound_verdict": "pass",\n'
        '   "certified_expected_trials": 31.64124386034578,\n'
        '   "expected_runs": 1.0044839320744692,\n'
        '   "per_run_cost": 7,\n'
        '   "ratio_vs_amplified": 1.0,\n'
        '   "total_cost": 7.031387524521284\n'
        "  },\n"
        "  {\n"
        '   "algorithm": "qft",\n'
        '   "bound_verdict": "pass",\n'
        '   "certified_expected_trials": 512.0,\n'
        '   "expected_runs": 16.253968253968253,\n'
        '   "per_run_cost": 1.0,\n'
        '   "ratio_vs_amplified": 2.311630271732871,\n'
        '   "total_cost": 16.253968253968253\n'
        "  },\n"
        "  {\n"
        '   "algorithm": "qhs",\n'
        '   "bound_verdict": "pass",\n'
        '   "certified_expected_trials": 1024.0,\n'
        '   "expected_runs": 32.507936507936506,\n'
        '   "per_run_cost": 1.0,\n'
        '   "ratio_vs_amplified": 4.623260543465742,\n'
        '   "total_cost": 32.507936507936506\n'
        "  }\n"
        " ]\n"
        "}\n"
    ),
    ((1024, 1, 32, 0), "csv"): (
        "# schema=1\n"
        "algorithm,per_run_cost,expected_runs,total_cost,ratio_vs_amplified,certified_expected_trials,bound_verdict\n"
        "amplified,26,1.0000646749733146,26.001681549306181,1,,pass\n"
        "qft,1,256.25024437927664,256.25024437927664,9.8551412489748884,,pass\n"
        "qhs,1,512.50048875855327,512.50048875855327,19.710282497949777,,pass\n"
    ),
    ((1024, 1, 32, 0), "json"): (
        "{\n"
        ' "schema": 1,\n'
        ' "workfactor": [\n'
        "  {\n"
        '   "algorithm": "amplified",\n'
        '   "bound_verdict": "pass",\n'
        '   "certified_expected_trials": null,\n'
        '   "expected_runs": 1.0000646749733146,\n'
        '   "per_run_cost": 26,\n'
        '   "ratio_vs_amplified": 1.0,\n'
        '   "total_cost": 26.00168154930618\n'
        "  },\n"
        "  {\n"
        '   "algorithm": "qft",\n'
        '   "bound_verdict": "pass",\n'
        '   "certified_expected_trials": null,\n'
        '   "expected_runs": 256.25024437927664,\n'
        '   "per_run_cost": 1.0,\n'
        '   "ratio_vs_amplified": 9.855141248974888,\n'
        '   "total_cost": 256.25024437927664\n'
        "  },\n"
        "  {\n"
        '   "algorithm": "qhs",\n'
        '   "bound_verdict": "pass",\n'
        '   "certified_expected_trials": null,\n'
        '   "expected_runs": 512.5004887585533,\n'
        '   "per_run_cost": 1.0,\n'
        '   "ratio_vs_amplified": 19.710282497949777,\n'
        '   "total_cost": 512.5004887585533\n'
        "  }\n"
        " ]\n"
        "}\n"
    ),
}
SWEEP_N512_CSV = (
    "# schema=1\n"
    "algorithm,per_run_cost,expected_runs,total_cost,ratio_vs_amplified,certified_expected_trials,bound_verdict\n"
    "amplified,9,1.0243302942800603,9.218972648520543,1,65.04497368678382,pass\n"
    "qft,1,32.251968503937007,32.251968503937007,3.4984341242310539,2048,pass\n"
    "qhs,1,64.503937007874015,64.503937007874015,6.9968682484621079,4096,pass\n"
)
SWEEP_BAND = (
    "n=256 ratio/sqrt(n/m)=0.28895378396660887\n"
    "n=512 ratio/sqrt(n/m)=0.30922081159727483\n"
    "n=1024 ratio/sqrt(n/m)=0.30739564302235078\n"
)


class TestSpectrum:
    def test_past_2e16_writes_nothing_to_stderr(self, tmp_path):
        # a process of its own, so stderr is what a shell would see
        out, n = tmp_path / "table.csv", (1 << 16) + 1
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        argv = ["spectrum", "--n", str(n), "--m", "4", "--p", "16", "--s", "3",
                "--alg", "qft", "--out", str(out)]
        done = subprocess.run([sys.executable, "-m", "lpq", *argv], env=env,
                              capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        assert out.read_text().count("\n") == 2 + n + 1  # schema, header, rows, trailer

    def test_csv_table(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = main(["spectrum", *SPEC_FLAGS, "--alg", "qft", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1] == "y,case,pr_closedform,pr_simulated,abs_deviation"
        assert len([l for l in lines if not l.startswith("#")]) == 17
        row0 = lines[2].split(",")
        assert row0[0] == "0" and row0[1] == "zero"
        assert float(row0[2]) == 0.390625
        max_dev = float(lines[-1].split("=")[1])
        assert max_dev < 1e-9

    def test_probabilities_round_trip(self, tmp_path):
        out = tmp_path / "table.csv"
        main(["spectrum", *SPEC_FLAGS, "--alg", "amplified", "--out", str(out)])
        table = closed_form_table(build_oracle(16, 3, 4, 1), "amplified")
        for line in out.read_text().splitlines():
            if line.startswith("#") or line.startswith("y,"):
                continue
            y, _, pr, *_ = line.split(",")
            assert abs(float(pr) - table.pr[int(y)]) < 1e-15

    def test_byte_identical_repeats(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(["spectrum", *SPEC_FLAGS, "--alg", "qhs", "--format", "json", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_validation_exit(self, capsys):
        assert main(["spectrum", "--n", "16", "--m", "3", "--p", "5", "--s", "0"]) == 2
        assert "p*p <= n" in capsys.readouterr().err

    def test_negative_iterations_override_exit(self, tmp_path, capsys):
        argv = ["spectrum", *SPEC_FLAGS, "--alg", "amplified", "--iterations-override", "-1"]
        assert failing_run(argv, tmp_path, capsys) == (2, "error: need iterations >= 0, got -1\n")


class TestCompare:
    def test_bounds_and_exclusions(self, tmp_path):
        out = tmp_path / "cmp.json"
        code = main(["compare", *SPEC_FLAGS, "--format", "json", "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        summary = obj["summary"]
        assert summary["bounds"]["qft"]["gap"] == pytest.approx(1.0, abs=1e-9)
        assert summary["bounds"]["qhs"]["gap"] == pytest.approx(2.0, abs=1e-9)
        assert summary["all_rows_within_bounds"] is True
        assert summary["success_set"] == [4, 12]
        zero_row = next(r for r in obj["rows"] if r[0] == "0")
        assert zero_row[2] == "excluded"

    def test_ratios_at_2e16(self, tmp_path):
        # generic qft probabilities here fall below 1e-12 and are divisors
        out = tmp_path / "cmp.json"
        code = main(
            ["compare", "--n", "65536", "--m", "4", "--p", "16", "--s", "3",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["summary"]["all_rows_within_bounds"] is True

    def test_zero_probability_divisor_is_bound_violation(self, monkeypatch, tmp_path, capsys):
        # a zero qft probability at a resonant or generic frequency leaves
        # the ratio undefined: exit 1 with one error line, not a traceback
        original = lpq.closedform.pipeline_constants

        def zeroed(spec, alg, *args):
            constants = original(spec, alg, *args)
            return constants._replace(factor=0.0) if Algorithm(alg) is Algorithm.QFT else constants

        monkeypatch.setattr(lpq.closedform, "pipeline_constants", zeroed)
        assert failing_run(["compare", *SPEC_FLAGS], tmp_path, capsys) == (
            1, "error: qft probability 0 at a resonant or generic frequency\n"
        )


# Every closed-form value a table prints is checked as make_table checks a
# table, before the first byte: a pipeline factor scaled by nan, -1 or 2
# makes non-finite, negative or unnormalized probabilities.
@pytest.mark.parametrize("cmd", ["spectrum", "compare"])
@pytest.mark.parametrize("scale,message", [
    (math.nan, r"non-finite probability nan in table"),
    (-1.0, r"negative probability -\S+ in table"),
    (2.0, r"table sums to 1\.\d+, not 1"),
])
def test_closed_form_checked_before_the_first_byte(cmd, scale, message, monkeypatch, tmp_path,
                                                   capsys):
    original = lpq.closedform.pipeline_constants

    def scaled(spec, alg, *args):
        constants = original(spec, alg, *args)
        return constants._replace(factor=constants.factor * scale)

    monkeypatch.setattr(lpq.closedform, "pipeline_constants", scaled)
    code, err = failing_run([cmd, "--n", "4096", "--m", "4", "--p", "63", "--s", "3"], tmp_path,
                            capsys)
    assert code == 2 and re.fullmatch(f"error: {message}\n", err), err


class TestRecover:
    def test_accepted(self, capsys):
        assert main(["recover", "--n", "16", "--y", "4"]) == 0
        out = capsys.readouterr().out
        assert "# accepted=4" in out

    def test_no_candidate_exit(self, capsys):
        assert main(["recover", "--n", "16", "--y", "0"]) == 3

    def test_false_candidate_rejected_by_verify(self, capsys):
        assert main(["recover", *SPEC_FLAGS, "--y", "5", "--verify"]) == 4
        assert capsys.readouterr().out.splitlines()[-2:] == ["# accepted=None", "# status=rejected"]

    def test_rejected_candidate_that_does_not_divide_the_period(self, capsys):
        # 3 does not divide 5: the probes show a wrong candidate, not a common factor
        argv = ["recover", "--n", "64", "--y", "21", "--m", "4", "--p", "5", "--s", "1", "--verify"]
        assert main(argv) == 4
        assert capsys.readouterr() == (
            "# schema=1\nd,q\n0,1\n1,3\n21,64\n# accepted=None\n# status=rejected\n", ""
        )
        assert main(argv + ["--format", "json"]) == 4
        obj = json.loads(capsys.readouterr().out)
        assert (obj["accepted"], obj["status"]) == (None, "rejected")

    def test_verified_accept(self, capsys):
        assert main(["recover", *SPEC_FLAGS, "--y", "4", "--verify"]) == 0

    @pytest.mark.parametrize("verify", [[], ["--verify"]])
    def test_y_out_of_range(self, verify, capsys):
        argv = ["recover", "--n", "64", "--m", "4", "--p", "4", "--s", "3", "--y", "200"]
        assert main(argv + verify) == 2
        assert "y=200 outside 0..63" in capsys.readouterr().err

    def test_y_from_config(self, tmp_path, capsys):
        config = tmp_path / "y.json"
        config.write_text(json.dumps({"y": 5, "n": 16}))
        assert main(["--config", str(config), "recover"]) == 0
        from_config = capsys.readouterr()
        assert main(["recover", "--n", "16", "--y", "5"]) == 0
        assert capsys.readouterr() == from_config
        assert "# accepted=3" in from_config.out

    def test_missing_y_is_one_error_line(self, tmp_path, capsys):
        assert failing_run(["recover", "--n", "16"], tmp_path, capsys) == (
            2, "error: missing required option --y\n"
        )


class TestFindOffset:
    @pytest.mark.parametrize("method", ["counting", "decreasing"])
    def test_recovers_offset(self, method, tmp_path):
        out = tmp_path / "offset.json"
        code = main(
            ["find-offset", *SPEC_FLAGS, "--method", method, "--seed", "3",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["offset"] == 1

    def test_wrong_period_exit(self, tmp_path):
        out = tmp_path / "offset.json"
        code = main(
            ["find-offset", *SPEC_FLAGS, "--method", "decreasing", "--seed", "3",
             "--period", "3", "--out", str(out)]
        )
        assert code == 4

    @pytest.mark.parametrize("method,period,seed", [("counting", 0, 1), ("decreasing", -4, 3)])
    def test_period_below_one_is_validation_error(self, method, period, seed, tmp_path, capsys):
        # three probes at p = 0 all land on the measured member, which
        # used to "verify" it as the offset
        argv = ["find-offset", "--n", "64", "--m", "3", "--p", "4", "--s", "1",
                "--period", str(period), "--method", method, "--seed", str(seed)]
        assert failing_run(argv, tmp_path, capsys) == (
            2, f"error: period candidate must be >= 1, got {period}\n"
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_verification_failure_in_format(self, fmt, capsys):
        # the counting search draws an adversarial count at this seed
        code = main(
            ["find-offset", "--n", "64", "--m", "4", "--p", "4", "--s", "3",
             "--method", "counting", "--seed", "4", "--format", fmt]
        )
        assert code == 4
        out = capsys.readouterr().out
        error = "pair (s=0, p=4) rejected by probes (count=4)"
        if fmt == "json":
            assert json.loads(out) == {"error": error, "period_candidate": 4, "schema": 1}
        else:
            assert out.splitlines() == [
                "# schema=1",
                "field,value",
                f"error,{json.dumps(error)}",
                "period_candidate,4",
                "schema,1",
            ]

    def test_single_member_immediate(self, tmp_path):
        out = tmp_path / "offset.json"
        code = main(
            ["find-offset", "--n", "10", "--m", "1", "--p", "1", "--s", "7",
             "--method", "counting", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["offset"] == 7 and obj["iterations"] == 0


# SHA-256 of the JSON and the CSV output of each trials op, at n = 2^14, of
# the bench's mc-2e14 cycle at seed 7: (alg, runs, seed, m, p, s) -> digests.
MC_SEED7_DIGESTS = {
    ("qft", 1, 1862494042, 4, 123, 2471): (
        "f1fbd2e1aa0132e7a344672af0cf2eab7ee42365addf01b70679b2b056e7779c",
        "4ea9eb822ea94ac89002306ce1379c0b12fe41cc9f4ea700e3d8f92152c83ac0"),
    ("qhs", 1, 1796035739, 4, 123, 2471): (
        "52c88e135ea2682d01b391a5ca1a4e3942910df88de51438e3d8359334a0f4f2",
        "b7361ff110f0e1ca2c5aee3c530b45c15a25c2bfbf232d989a2f5eb3bf8c1485"),
    ("amplified", 525, 300026767, 4, 123, 2471): (
        "e5f2dfc1f135c61848b457ec687b26733d947dfc89e7d93122cfab8375076385",
        "65a6be877c6132b79125063c1071ab5ddcf673c0a83ac92dd80db68d4d5ff26f"),
    ("qft", 1, 1033639716, 5, 85, 791): (
        "b3686ca386d678e10a1e8a7e32ecd9fbf2da8b38c1f96381f820a762b20486ce",
        "01b473ef7be2647ff0e3464ac66d73e68b665250fe1986e1d79f28c5c2256bee"),
    ("qhs", 1, 389609433, 5, 85, 791): (
        "26ac92d646dfddbf9004d729f4db36f574edaf8560c31f8245cb46de4d824042",
        "7108aa98d8c310cabeef170ebf4449f0473bb508074cd3cc1f50e972f04fff27"),
    ("amplified", 1066, 1823296038, 5, 85, 791): (
        "c3c9b3c2b989d9c5c2af6074c14934766845957ecc329c3f9ec5c98dd23fd391",
        "673ae59419fbbc703b69d8a247823d8fd2e6463bf9d06abc1c578643ee635b5c"),
    ("qft", 1, 253877686, 3, 6, 1408): (
        "d137a92f51f7c5d04dd16a4256f4e5a57a6f4ec86854d9699caa47e5bc7e66a3",
        "8d6f602e3f724e2d7e3db0db3bec2c4597b1b520922184db66f7e2893c81c495"),
    ("qhs", 1, 531725347, 3, 6, 1408): (
        "fa5a546a0ede7ac8e35aade34cf70f05d3bc74cd17afe83fd5c282fdee358847",
        "a790716a19f96c24a9893d451fc00b44f48c945f065396be0cd3ce95ba37b892"),
    ("amplified", 384, 958804057, 3, 6, 1408): (
        "2fd5c70a3c2714b1e2941d1646f992985a9c8ebfd9c528e86035827fe80989d7",
        "16eb78f5f4a36102f41359ba6ad2cca518a1144ccb835bb23f47d4ea34e45251"),
}


class TestTrials:
    def test_workfactor_rows(self, tmp_path):
        out = tmp_path / "trials.json"
        code = main(
            ["trials", "--n", "256", "--m", "4", "--p", "4", "--s", "1",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        rows = {r["algorithm"]: r for r in json.loads(out.read_text())["workfactor"]}
        from lpq import grover_schedule

        assert rows["amplified"]["per_run_cost"] == grover_schedule(256, 4).k + 1
        assert rows["qft"]["bound_verdict"] == "pass"
        assert rows["qhs"]["bound_verdict"] == "pass"
        assert rows["qft"]["expected_runs"] >= 256 / 16

    def test_monte_carlo_block(self, tmp_path):
        out = tmp_path / "trials.json"
        code = main(
            ["trials", "--n", "256", "--m", "4", "--p", "5", "--s", "1",
             "--alg", "amplified", "--runs", "50", "--seed", "9",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        mc = json.loads(out.read_text())["monte_carlo"]
        assert mc["runs"] == 50 and mc["mean"] >= 1.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_period_one_has_no_certified_trials(self, fmt, tmp_path):
        # p = 1 leaves the certified success set empty; the work-factor
        # table still exists, with no certified trial count.
        out = tmp_path / f"trials.{fmt}"
        code = main(
            ["trials", "--n", "256", "--m", "4", "--p", "1", "--s", "3",
             "--format", fmt, "--out", str(out)]
        )
        assert code == 0
        if fmt == "json":
            rows = json.loads(out.read_text())["workfactor"]
            assert [r["algorithm"] for r in rows] == ["amplified", "qft", "qhs"]
            assert all(r["certified_expected_trials"] is None for r in rows)
            assert all(r["bound_verdict"] == "pass" for r in rows)
        else:
            lines = out.read_text().splitlines()
            column = lines[1].split(",").index("certified_expected_trials")
            assert len(lines) == 5
            assert all(line.split(",")[column] == "" for line in lines[2:])

    def test_runs_below_the_bound_print_fail(self, monkeypatch, capsys):
        # the verdict holds qft to n/(4m) and qhs to n/(2m): 16 and 32 here
        monkeypatch.setattr(lpq.analysis, "expected_runs", lambda n, m, algorithm: 20.0)
        assert main(["trials", "--n", "256", "--m", "4", "--p", "4", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["workfactor"]
        assert [r["bound_verdict"] for r in rows] == ["pass", "pass", "FAIL"]

    @pytest.mark.parametrize("n,m", [(10251538783812443, 47), (1 << 57, 4)])
    def test_no_fail_verdict_past_2e29(self, n, m, tmp_path):
        # 1 - Pr(0) of qft and qhs is taken without cancellation, so their
        # expected runs keep the factor n/(n - m) above the proven bound
        out = tmp_path / "trials.json"
        argv = ["trials", "--n", n, "--m", m, "--p", 3, "--format", "json", "--out", out]
        assert main([str(a) for a in argv]) == 0
        rows = json.loads(out.read_text())["workfactor"]
        assert [r["bound_verdict"] for r in rows] == ["pass"] * 3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_period_one_runs_fail_fast(self, fmt, tmp_path, capsys):
        # no candidate period survives verification at p = 1, so no run can
        # succeed; Monte-Carlo says so before drawing anything
        argv = ["trials", "--n", "256", "--m", "4", "--p", "1", "--s", "3", "--runs", "1",
                "--format", fmt]
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 1.0
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        check_out_kept(argv, code, captured.err, tmp_path, capsys)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_runs_exit(self, fmt, tmp_path, capsys):
        argv = ["trials", *SPEC_FLAGS, "--runs", "-1", "--format", fmt]
        assert failing_run(argv, tmp_path, capsys) == (2, "error: need runs >= 1, got -1\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_zero_runs_exit(self, fmt, tmp_path, capsys):
        # only an omitted --runs leaves the monte_carlo block out; 0 runs is
        # refused like -1
        assert main(["trials", *SPEC_FLAGS, "--format", fmt]) == 0
        assert "monte_carlo" not in capsys.readouterr().out
        argv = ["trials", *SPEC_FLAGS, "--runs", "0", "--format", fmt]
        assert failing_run(argv, tmp_path, capsys) == (2, "error: need runs >= 1, got 0\n")

    @pytest.mark.parametrize(
        "instance,fmt", list(TRIALS_TEXT), ids=[f"{i}-{fmt}" for i, fmt in TRIALS_TEXT]
    )
    def test_rows_byte_exact(self, instance, fmt, capsys):
        flags = [f"--{k}={v}" for k, v in zip("nmps", instance)]
        assert main(["trials", *flags, "--format", fmt]) == 0
        assert capsys.readouterr().out == TRIALS_TEXT[instance, fmt]

    @pytest.mark.parametrize("op", list(MC_SEED7_DIGESTS), ids=lambda op: "-".join(map(str, op)))
    def test_monte_carlo_bytes_pinned(self, op, capsys):
        # every digit of the work-factor rows and the Monte-Carlo summary:
        # a bit that moves in the closed form or a trial count that moves
        # in the sampler changes a digest
        alg, runs, seed, m, p, s = op
        argv = ["trials", "--alg", alg, "--runs", runs, "--seed", seed, "--n", 1 << 14,
                "--m", m, "--p", p, "--s", s]
        for fmt, digest in zip(("json", "csv"), MC_SEED7_DIGESTS[op]):
            assert main([str(a) for a in argv] + ["--format", fmt]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


SEEDED = {
    "find-offset": ["find-offset", *SPEC_FLAGS],
    "trials": ["trials", *SPEC_FLAGS, "--runs", "5"],
}


@pytest.mark.parametrize("cmd", sorted(SEEDED))
@pytest.mark.parametrize("via", ["flag", "config"])
def test_negative_seed_is_validation_error(cmd, via, tmp_path, capsys):
    if via == "flag":
        argv = [*SEEDED[cmd], "--seed", "-3"]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": -3}))
        argv = ["--config", str(config), *SEEDED[cmd]]
    assert failing_run(argv, tmp_path, capsys) == (2, "error: need seed >= 0, got -3\n")


@pytest.mark.parametrize("cmd", ["trials"])
def test_success_set_overflow_is_validation_error(cmd, tmp_path, capsys):
    # 2n(p - 1) + p = 19 * 2**59 + 20 is past int64: one error line, not an
    # OverflowError
    argv = [cmd, "--n", str(2**58), "--m", "20", "--p", "20"]
    assert failing_run(argv, tmp_path, capsys) == (
        2, f"error: success set needs products below 2**63 (n={2**58}, p=20)\n"
    )


@pytest.mark.parametrize("cmd", ["spectrum", "compare"])
@pytest.mark.parametrize(
    "n,code,message",
    [
        # 2**48 one-byte case codes are 256 TiB, past any host's address space
        (2**48, 1, r"Unable to allocate 256.* TiB for an array .* int8"),
        (2**60, 1, r"Unable to allocate .* for an array .* int8"),
        (2**63, 2, r"a table needs n below 2\*\*63 \(n=9223372036854775808\)"),
        (2**64, 2, r"a table needs n below 2\*\*63 \(n=18446744073709551616\)"),
    ],
)
def test_table_past_memory_is_one_error_line(cmd, n, code, message, tmp_path, capsys):
    argv = [cmd, "--n", str(n), "--m", "2", "--p", "3"]
    got, err = failing_run(argv, tmp_path, capsys)
    assert got == code
    assert re.fullmatch(f"error: {message}\n", err)


@pytest.mark.parametrize("p", [2, 17, 2**65])
def test_compare_one_member_certifies_nothing(p, capsys):
    # at m = 1 the probes reject every candidate: no success set, zero
    # success probability and null summed ratios, with no product formed
    assert main(["compare", "--n", "16", "--m", "1", "--p", str(p), "--no-strict"]) == 0
    assert capsys.readouterr().out.splitlines()[-4:-1] == [
        "# success_set=[]",
        '# success_probability={"amplified": 0.0, "qft": 0.0, "qhs": 0.0}',
        '# summed_ratio={"qft": null, "qhs": null}',
    ]


NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@pytest.mark.parametrize(
    "argv,out,reason",
    [
        (["spectrum", *SPEC_FLAGS], "missing/x.csv", "No such file or directory"),
        (["trials", *SPEC_FLAGS], "", "Is a directory"),
        (["recover", "--n", "64", "--y", "8"], "", "Is a directory"),
        # a file where sweep's directory should be
        (["sweep", "--m", "2", "--p", "2"], "file", "File exists"),
        # a full device fails the writes and the close; 16411 rows are
        # three blocks of 8192
        pytest.param(["spectrum", "--n", "4096", "--m", "3", "--p", "7"], "/dev/full",
                     "No space left on device", marks=NEEDS_DEV_FULL),
        pytest.param(["compare", "--n", "16411", "--m", "3", "--p", "7"], "/dev/full",
                     "No space left on device", marks=NEEDS_DEV_FULL),
        # an empty path is a path, not stdout (out None: the path is "")
        (["spectrum", "--n", "16", "--m", "3", "--p", "4"], None, "No such file or directory"),
        (["recover", "--n", "16", "--y", "5"], None, "No such file or directory"),
    ],
    ids=["spectrum-missing-dir", "trials-dir", "recover-dir", "sweep-file", "spectrum-full",
         "compare-full-blocks", "spectrum-empty", "recover-empty"],
)
def test_unwritable_out_is_one_error_line(argv, out, reason, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    path = "" if out is None else str(tmp_path / out)  # an absolute out replaces tmp_path
    assert main([*argv, "--out", path]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {path!r}: {reason}\n")


# Each subcommand's stdout writes: a table in blocks, a small document,
# and sweep's band lines after its files.
STDOUT_ARGV = {
    "spectrum": ["spectrum", "--n", "4096", "--m", "3", "--p", "7"],
    "compare": ["compare", "--n", "16411", "--m", "3", "--p", "7"],
    "recover": ["recover", "--n", "64", "--y", "8"],
    "find-offset": ["find-offset", *SPEC_FLAGS],
    "trials": ["trials", *SPEC_FLAGS, "--runs", "5", "--format", "json"],
    "sweep": ["sweep", "--m", "2", "--p", "2", "--n-max", "1024"],
}
NO_SPACE = "error: cannot write stdout: No space left on device\n"


def run_lpq(argv, stdout, cwd) -> tuple[int, str]:
    """``python -m lpq argv`` with the given stdout, block-buffered as by
    default (PYTHONUNBUFFERED would hide bytes left in its buffer after a
    failed write): its exit code and stderr."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-m", "lpq", *argv], env=env, cwd=cwd, stdout=stdout,
                          stderr=subprocess.PIPE, text=True)
    return done.returncode, done.stderr


@NEEDS_DEV_FULL
@pytest.mark.parametrize("cmd", ["spectrum", "compare", "recover", "trials", "sweep"])
def test_full_stdout_is_one_error_line(cmd, tmp_path):
    with open("/dev/full", "w") as full:
        assert run_lpq(STDOUT_ARGV[cmd], full, tmp_path) == (2, NO_SPACE)


@pytest.mark.parametrize(
    "argv",
    [
        # 2^16 rows would outlast the pipe's buffer even if the reader
        # closed later, as in `lpq ... | head -1`
        ["spectrum", "--n", "65536", "--m", "3", "--p", "151", "--s", "100"],
        # a few lines, which stay in stdout's buffer until the flush fails
        STDOUT_ARGV["recover"],
        STDOUT_ARGV["sweep"],
    ],
    ids=["spectrum", "recover", "sweep"],
)
def test_closed_pipe_is_one_error_line(argv, tmp_path):
    # the reader closes before lpq starts
    read, write = os.pipe()
    os.close(read)
    with os.fdopen(write, "w") as pipe:
        assert run_lpq(argv, pipe, tmp_path) == (2, "error: cannot write stdout: Broken pipe\n")


@pytest.mark.parametrize("cmd", sorted(STDOUT_ARGV))
def test_stdout_write_error_is_one_error_line(cmd, tmp_path, monkeypatch, capsys):
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.chdir(tmp_path)  # sweep's files
    with contextlib.redirect_stdout(Full()):
        assert main(STDOUT_ARGV[cmd]) == 2
    assert capsys.readouterr() == ("", NO_SPACE)


class TestHalfMarked:
    @pytest.mark.parametrize("n,p", [(8, 1), (128, 1), (256, 2)])
    def test_one_round_at_2m_equal_n(self, n, p, tmp_path):
        # theta = pi/4 and k = 1, so Pr(0) ~ 0 and one amplified run suffices
        out = tmp_path / "trials.json"
        argv = ["trials", "--n", n, "--m", n // 2, "--p", p, "--s", 0, "--format", "json"]
        assert main([*map(str, argv), "--out", str(out)]) == 0
        rows = {r["algorithm"]: r for r in json.loads(out.read_text())["workfactor"]}
        assert rows["amplified"]["per_run_cost"] == 2
        assert rows["amplified"]["expected_runs"] == 1
        assert all(r["bound_verdict"] == "pass" for r in rows.values())

    @pytest.mark.parametrize("cmd", ["trials", "sweep"])
    def test_past_2m_equal_n_exits_4(self, cmd, tmp_path, capsys):
        # k = 0 leaves Pr(0) = 1: no run measures a nonzero frequency
        argv = ["--m", "5", "--p", "1", "--s", "0", "--no-strict"]
        if cmd == "trials":
            argv += ["--n", "8"]
        else:
            argv += ["--n-min", "8", "--n-max", "8", "--out", str(tmp_path)]
        assert main([cmd, *argv]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "amplified: Pr(0) = 1, so no run measures a nonzero frequency"
        assert captured.err == f"error: {message}\n"
        if cmd == "trials":  # sweep's --out is the directory above
            check_out_kept([cmd, *argv], 4, captured.err, tmp_path, capsys)


def _count_calls(monkeypatch, original, skip=()) -> list:
    """Wrap every lpq binding of ``original``, except those in the modules
    named in ``skip``, with a call counter."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "lpq" or name.startswith("lpq.")) and name not in skip:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def _count_closed_form_tables(monkeypatch) -> list:
    return _count_calls(monkeypatch, lpq.closedform.closed_form_table)


def _count_closed_form_evaluations(monkeypatch) -> tuple[list, list]:
    # the evaluations inside lpq.closedform count as the caller's: a table's
    # blocks as the table, closed_form_at's kernel as closed_form_at
    return (
        _count_calls(monkeypatch, lpq.closedform.closed_form_at, skip={"lpq.closedform"}),
        _count_calls(monkeypatch, lpq.closedform.spectral_kernel, skip={"lpq.closedform"}),
    )


class TestClosedFormTablesPerInstance:
    # The work-factor rows read at most phi(p) + 1 closed-form values per
    # pipeline, and Monte-Carlo reads its edges in closed form; a whole
    # table is built only for the exact edges, where a uniform lands within
    # the slack of an edge.
    def test_trials_builds_only_the_monte_carlo_table(self, monkeypatch, capsys):
        calls = _count_closed_form_tables(monkeypatch)
        argv = ["trials", "--n", "4096", "--m", "4", "--p", "16", "--s", "3"]
        assert main(argv) == 0
        assert main([*argv, "--runs", "3", "--alg", "qhs"]) == 0
        assert calls == []
        # a slack that covers [0, 1] leaves every uniform to the exact edges
        monkeypatch.setattr(lpq.closedform, "_EDGE_SLACK", 2.0**100)
        assert main([*argv, "--runs", "3", "--alg", "qhs"]) == 0
        assert [args[1] for args in calls] == [Algorithm.QHS]

    def test_trials_p1_builds_only_the_monte_carlo_table(self, monkeypatch, capsys):
        # p = 1 certifies nothing, and no run can succeed, which Monte-Carlo
        # finds before it needs any edge
        calls = _count_closed_form_tables(monkeypatch)
        assert main(["trials", "--n", "256", "--m", "4", "--p", "1", "--s", "3"]) == 0
        argv = ["trials", "--n", "256", "--m", "4", "--p", "1", "--s", "3", "--runs", "1"]
        assert main(argv) == 4
        assert calls == []

    def test_sweep_builds_none(self, monkeypatch, tmp_path, capsys):
        calls = _count_closed_form_tables(monkeypatch)
        code = main(
            ["sweep", "--m", "4", "--p", "4", "--s", "1", "--n-min", "256",
             "--n-max", "1024", "--out", str(tmp_path)]
        )
        assert code == 0
        assert calls == []

    # One success set per instance, one kernel evaluation at it for the
    # three pipelines' certified probabilities, and one closed-form
    # evaluation of Monte-Carlo's pipeline at its verified frequencies.
    @pytest.mark.parametrize("p,runs", [(16, None), (16, 40), (97, 40), (1, None)])
    def test_three_evaluations_one_success_set(self, p, runs, monkeypatch, capsys):
        evaluations, kernels = _count_closed_form_evaluations(monkeypatch)
        success_sets = _count_calls(monkeypatch, lpq.recovery.success_set)
        tables = _count_closed_form_tables(monkeypatch)
        argv = ["trials", "--n", "16384", "--m", "4", "--p", str(p), "--s", "3", "--alg", "qft"]
        if runs is not None:
            argv += ["--runs", str(runs)]
        assert main(argv) == 0
        assert len(kernels) == 1
        assert [args[1] for args in evaluations] == [Algorithm.QFT] * (runs is not None)
        assert len(success_sets) == 1
        assert tables == []

    def test_sweep_per_doubling(self, monkeypatch, tmp_path, capsys):
        evaluations, kernels = _count_closed_form_evaluations(monkeypatch)
        success_sets = _count_calls(monkeypatch, lpq.recovery.success_set)
        argv = ["sweep", "--m", "4", "--p", "4", "--s", "1", "--n-min", "256", "--n-max", "1024",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        assert (len(evaluations), len(kernels), len(success_sets)) == (0, 3, 3)

    # spectrum and compare build no table either.  Where p shares a factor
    # with n, one kernel at y = 0..P//2 and y = P serves every row and all
    # three pipelines.  Where p is coprime to n, spectrum evaluates rows
    # 0..n//2 once, and compare one block of them at a time, for each pass:
    # 3 blocks of 1,024 in the checks before the first byte, then one per
    # block written, 4 of 1,024 rows.  compare's success-set sums are three
    # evaluations at the success set.
    @pytest.mark.parametrize("cmd,p,points", [
        ("spectrum", 16, [130]), ("compare", 16, [130]),
        ("spectrum", 63, [2049]), ("compare", 63, [1024, 1024, 1] + [1024] * 4),
    ])
    def test_tables_one_kernel_per_block(self, cmd, p, points, monkeypatch, tmp_path, capsys):
        # every binding, lpq.closedform's too: cli calls through the module
        kernels = _count_calls(monkeypatch, lpq.closedform.spectral_kernel)
        evaluations = _count_calls(monkeypatch, lpq.closedform.closed_form_at)
        tables = _count_closed_form_tables(monkeypatch)
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 1024)
        argv = [cmd, "--n", "4096", "--m", "4", "--p", str(p), "--s", "3"]
        assert main([*argv, "--out", str(tmp_path / "table")]) == 0
        # closed_form_at passes its frequencies on to the kernel
        rows = [args[1] for args in kernels if all(args[1] is not e[2] for e in evaluations)]
        assert [len(ys) for ys in rows] == points
        assert [args[1] for args in evaluations] == [*Algorithm] * (cmd == "compare")
        succ = success_set(build_oracle(4096, 4, p, 3)).tolist()
        assert all(list(args[2]) == succ for args in evaluations)
        assert tables == []


# The traced peak of a command written to a file at n = 2^18: a few
# block-sized temporaries and the n-entry case codes, and for spectrum the
# simulation's n-sized arrays.  When they built n-entry closed-form tables,
# compare peaked at 17.1 MiB and spectrum at 13.1-13.6 MiB.
@pytest.mark.parametrize("cmd,p,mib", [("compare", 127, 4), ("compare", 100, 4),
                                       ("spectrum", 127, 10), ("spectrum", 128, 10)])
def test_traced_peak_at_2e18(cmd, p, mib, tmp_path):
    argv = [cmd, "--m", "5", "--p", str(p), "--s", "11", "--format", "json",
            "--out", str(tmp_path / "table")]
    assert main([*argv, "--n", str(1 << 14)]) == 0  # imports and caches first
    tracemalloc.start()
    try:
        assert main([*argv, "--n", str(1 << 18)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20


class TestSweep:
    def test_one_file_per_n(self, tmp_path, capsys):
        code = main(
            ["sweep", "--m", "4", "--p", "4", "--s", "1", "--n-min", "256",
             "--n-max", "1024", "--out", str(tmp_path), "--format", "json"]
        )
        assert code == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["workfactor_n1024.json", "workfactor_n256.json", "workfactor_n512.json"]
        band = capsys.readouterr().out
        for line in band.strip().splitlines():
            value = float(line.split("=")[-1])
            assert 0.25 <= value <= 4.0

    @pytest.mark.parametrize("m", [1, 4, 7])
    def test_band_tends_to_headline_constant(self, m, tmp_path, capsys):
        # expected runs ~ n/(4m) for qft and n/(2m) for qhs, against k + 1 ~
        # (pi/4) sqrt(n/m) amplified applications, so ratio/sqrt(n/m) tends
        # to 1/pi and 2/pi, within O(sqrt(m/n))
        argv = ["sweep", "--m", m, "--p", 3, "--n-min", 256, "--n-max", 1 << 60,
                "--format", "json", "--out", tmp_path]
        assert main([str(a) for a in argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 53
        for line in lines:
            n = int(line.split()[0].removeprefix("n="))
            rows = json.loads((tmp_path / f"workfactor_n{n}.json").read_text())["workfactor"]
            ratio = {r["algorithm"]: r["ratio_vs_amplified"] for r in rows}
            assert float(line.split("=")[-1]) == ratio["qft"] / math.sqrt(n / m)
            for alg, target in (("qft", 1 / math.pi), ("qhs", 2 / math.pi)):
                band = ratio[alg] / math.sqrt(n / m)
                assert abs(band / target - 1) <= 2 * math.sqrt(m / n), (n, alg)
            assert all(r["bound_verdict"] == "pass" for r in rows)

    def test_file_byte_exact(self, tmp_path, capsys):
        argv = ["sweep", "--m", "4", "--p", "4", "--s", "1", "--n-min", "256", "--n-max", "1024",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().out == SWEEP_BAND
        assert (tmp_path / "workfactor_n512.csv").read_text() == SWEEP_N512_CSV

    def test_past_2e16(self, tmp_path, capsys):
        code = main(
            ["sweep", "--m", "4", "--p", "16", "--n-min", "65536", "--n-max", "131072",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 2


class TestConfig:
    def test_config_file_with_overrides(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n": 16, "m": 3, "p": 4, "s": 1, "alg": "qft"}))
        out = tmp_path / "a.csv"
        code = main(["--config", str(config), "spectrum", "--out", str(out)])
        assert code == 0
        assert "0.390625" in out.read_text()
        # flag overrides config: amplified table instead
        out2 = tmp_path / "b.csv"
        code = main(["--config", str(config), "spectrum", "--alg", "amplified", "--out", str(out2)])
        assert code == 0
        assert out.read_text() != out2.read_text()

    def test_missing_required_option(self, capsys):
        assert main(["spectrum", "--n", "16", "--m", "3"]) == 2
        assert "--p" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"seed": "5"}', 'config option seed must be an integer, got "5"'),
            ('{"n": 16.5}', "config option n must be an integer, got 16.5"),
            ('{"seed": true}', "config option seed must be an integer, got true"),
            ('{"format": "xml"}', 'config option format must be one of csv, json, got "xml"'),
            ('{"alg": 1}', "config option alg must be one of amplified, qft, qhs, got 1"),
            ('{"strict": "no"}', 'config option strict must be true or false, got "no"'),
            ('{"out": 7}', "config option out must be a string, got 7"),
            ("[16, 3, 4, 1]", "config file {path} must hold a JSON object"),
            ('"n=16"', "config file {path} must hold a JSON object"),
        ],
    )
    def test_bad_value_is_validation_error(self, text, message, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(text)
        argv = ["--config", str(config), "trials", *SPEC_FLAGS, "--runs", "2"]
        message = message.format(path=repr(str(config)))  # a path is quoted
        assert failing_run(argv, tmp_path, capsys) == (2, f"error: {message}\n")

    def test_value_is_checked_even_when_a_flag_overrides_it(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n": 16.5}))
        assert main(["--config", str(config), "trials", *SPEC_FLAGS]) == 2
        assert capsys.readouterr().err == "error: config option n must be an integer, got 16.5\n"

    @pytest.mark.parametrize("kind", ["missing", "directory", "malformed", "not utf-8", "empty",
                                      "empty ="])
    def test_unreadable_file_is_validation_error(self, kind, tmp_path, capsys):
        path = tmp_path / "run.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "malformed":
            path.write_text('{"n": 16')
        elif kind == "not utf-8":
            path.write_bytes(b'{"n": "\xff"}')
        elif kind.startswith("empty"):  # a path, not a flag left unset, nor "."
            path = ""
        flags = [f"--config={path}"] if kind == "empty =" else ["--config", str(path)]
        code, err = failing_run([*flags, "trials", *SPEC_FLAGS], tmp_path, capsys)
        assert code == 2
        assert err.startswith(f"error: cannot read config file {str(path)!r}: ")
        assert err.count("\n") == 1
        # an OSError gives its reason alone, so the path is quoted once
        reason = {"directory": "Is a directory", "malformed": None, "not utf-8": None}.get(
            kind, "No such file or directory"
        )
        if reason is not None:
            assert err == f"error: cannot read config file {str(path)!r}: {reason}\n"

    def test_key_no_subcommand_takes_is_validation_error(self, tmp_path, capsys):
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({"sed": 5}))
        argv = ["--config", str(config), "trials", "--n", "256", "--m", "4", "--p", "4",
                "--runs", "3"]
        assert failing_run(argv, tmp_path, capsys) == (
            2, f"error: config file {str(config)!r} has options no subcommand takes: sed\n"
        )

    def test_one_file_serves_trials_and_find_offset(self, tmp_path, capsys):
        # runs is trials' option and method find-offset's: each ignores the other
        config = tmp_path / "shared.json"
        config.write_text(json.dumps(
            {"n": 16, "m": 3, "p": 4, "s": 1, "seed": 5, "runs": 3, "method": "counting"}
        ))
        for flags in (["trials", "--runs", "3"], ["find-offset", "--method", "counting"]):
            assert main(["--config", str(config), flags[0]]) == 0
            from_config = capsys.readouterr()
            assert main([*flags, *SPEC_FLAGS, "--seed", "5"]) == 0
            assert capsys.readouterr() == from_config

    def test_seed_is_ignored_by_a_subcommand_without_one(self, tmp_path, capsys):
        # spectrum takes no seed, so a bad one in a shared file is another
        # subcommand's key and is not checked
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": -1, **dict(zip("nmps", (16, 3, 4, 1)))}))
        assert main(["--config", str(config), "spectrum"]) == 0
        from_config = capsys.readouterr()
        assert main(["spectrum", *SPEC_FLAGS]) == 0
        assert capsys.readouterr() == from_config

    def test_typed_values_apply_and_unknown_keys_are_ignored(self, tmp_path, capsys):
        # alg and n_min are other subcommands' options, which find-offset ignores
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"n": 16, "m": 3, "p": 4, "s": 1, "seed": 5, "strict": True, "format": "json",
             "method": "counting", "alg": "qft", "n_min": 32}
        ))
        assert main(["--config", str(config), "find-offset"]) == 0
        from_config = capsys.readouterr()
        flags = ["find-offset", *SPEC_FLAGS, "--seed", "5", "--strict", "--format", "json",
                 "--method", "counting"]
        assert main(flags) == 0
        assert capsys.readouterr() == from_config


# Serializer goldens: the CLI's bulk output against the same tables
# serialized row by row, with format(x, ".17g") for CSV cells and one
# json.dumps of the whole object for JSON.  Past 10,000 rows the thousands
# piece of a y cell has two digits.
GOLDEN_INSTANCES = {64: (4, 4, 3), 1000: (5, 31, 7), 4099: (3, 64, 2), 10007: (5, 97, 3)}
# A ratio passes within 8 eps of each bound, relative, as RatioBounds.admits.
RATIO_SLACK = 8 * sys.float_info.epsilon


def reference_spectrum(spec, alg, fmt, iterations=None):
    if iterations is None:
        closed = closed_form_table(spec, alg)
    else:  # the table takes no round count: the every-y closed form with its constants
        kernel = spectral_kernel(spec, np.arange(spec.n))
        pr = kernel.probabilities(pipeline_constants(spec, alg, iterations), kernel.ratio)
        closed = ProbabilityTable(pr, case_codes(spec.n, spec.m, spec.p))
    simulated = simulated_table(spec, alg, iterations=iterations)
    dev = np.abs(closed.pr - simulated.pr)
    if fmt == "json":
        obj = {
            "schema": 1,
            "instance": {"n": spec.n, "m": spec.m, "p": spec.p, "s": spec.s},
            "algorithm": alg,
            "max_abs_deviation": float(dev.max()),
            "rows": [
                {
                    "y": y,
                    "case": CASE_NAMES[closed.codes[y]],
                    "pr_closedform": float(closed.pr[y]),
                    "pr_simulated": float(simulated.pr[y]),
                    "abs_deviation": float(dev[y]),
                }
                for y in range(spec.n)
            ],
        }
        return json.dumps(obj, indent=1, sort_keys=True) + "\n"
    lines = ["# schema=1", "y,case,pr_closedform,pr_simulated,abs_deviation"]
    for y in range(spec.n):
        cells = [closed.pr[y], simulated.pr[y], dev[y]]
        case = CASE_NAMES[closed.codes[y]]
        lines.append(",".join([str(y), case, *(format(float(x), ".17g") for x in cells)]))
    lines.append(f"# max_abs_deviation={format(float(dev.max()), '.17g')}")
    return "\n".join(lines) + "\n"


def reference_compare(spec, fmt):
    tables = {alg: closed_form_table(spec, alg) for alg in Algorithm}
    bounds = {alg: ratio_bounds(spec.n, spec.m, alg) for alg in (Algorithm.QFT, Algorithm.QHS)}
    succ = success_set(spec)
    sums = {alg: float(tables[alg].pr[succ].sum()) for alg in Algorithm}
    rows, verdicts = [], []
    for y in range(spec.n):
        case = CASE_NAMES[tables[Algorithm.QFT].codes[y]]
        if case in ("zero", "null"):
            rows.append([str(y), case, "excluded", "excluded", "excluded"])
            continue
        amp = float(tables[Algorithm.AMPLIFIED].pr[y])
        cells, ok = [], True
        for alg, b in bounds.items():
            ratio = amp / float(tables[alg].pr[y])
            cells.append(format(ratio, ".17g"))
            ok &= b.lower * (1 - RATIO_SLACK) <= ratio <= b.upper * (1 + RATIO_SLACK)
        verdicts.append(ok)
        rows.append([str(y), case, *cells, "pass" if ok else "FAIL"])
    summary = {
        "bounds": {
            alg.value: {"lower": b.lower, "upper": b.upper, "approx": b.approx, "gap": b.gap}
            for alg, b in bounds.items()
        },
        "success_set": [int(y) for y in succ],
        "success_probability": {alg.value: sums[alg] for alg in Algorithm},
        "summed_ratio": {
            alg.value: (sums[Algorithm.AMPLIFIED] / sums[alg] if sums[alg] else None)
            for alg in (Algorithm.QFT, Algorithm.QHS)
        },
        "all_rows_within_bounds": all(verdicts),
    }
    if fmt == "json":
        return json.dumps({"schema": 1, "summary": summary, "rows": rows}, indent=1, sort_keys=True) + "\n"
    lines = ["# schema=1", "y,case,ratio_vs_qft,ratio_vs_qhs,verdict"]
    lines += [",".join(row) for row in rows]
    lines += [f"# {k}={json.dumps(v, sort_keys=True)}" for k, v in summary.items()]
    return "\n".join(lines) + "\n"


SINKS = ("out", "stdout-file", "stringio")


def straddling_rows(n: int) -> int:
    """An odd number of rows per block, about n/6, that starts no block at
    row n//2 + 1 and leaves the last block short: blocks straddle the first
    mirror row and end partway at the last row."""
    rows = max(n // 6, 1) | 1
    while (n // 2 + 1) % rows == 0 or n % rows == 0:
        rows += 2
    return rows


def cli_outputs(tmp_path, monkeypatch, fmt, *argv) -> dict[str, str]:
    """The text main(argv) writes in fmt through each of SINKS: --out, stdout
    on a file, and an io.StringIO, which takes the table as one block.  The
    other two take blocks of straddling_rows(n) rows."""
    argv = [*map(str, argv), "--format", fmt]
    monkeypatch.setattr(cli, "_BLOCK_ROWS", straddling_rows(int(argv[argv.index("--n") + 1])))
    out, stdout, text = tmp_path / f"out.{fmt}", tmp_path / "stdout", io.StringIO()
    assert main([*argv, "--out", str(out)]) == 0
    with open(stdout, "w") as f, contextlib.redirect_stdout(f):
        assert main(argv) == 0
    with contextlib.redirect_stdout(text):
        assert main(argv) == 0
    return dict(zip(SINKS, (out.read_text(), stdout.read_text(), text.getvalue())))


@pytest.mark.parametrize("n", sorted(GOLDEN_INSTANCES))
@pytest.mark.parametrize("fmt", ["csv", "json"])
class TestBulkSerializer:
    @pytest.mark.parametrize("alg", [a.value for a in Algorithm])
    def test_spectrum_bytes(self, n, fmt, alg, tmp_path, monkeypatch):
        m, p, s = GOLDEN_INSTANCES[n]
        got = cli_outputs(tmp_path, monkeypatch, fmt, "spectrum", "--alg", alg,
                          "--n", n, "--m", m, "--p", p, "--s", s)
        assert got == dict.fromkeys(SINKS, reference_spectrum(build_oracle(n, m, p, s), alg, fmt))

    def test_compare_bytes(self, n, fmt, tmp_path, monkeypatch):
        m, p, s = GOLDEN_INSTANCES[n]
        got = cli_outputs(tmp_path, monkeypatch, fmt, "compare",
                          "--n", n, "--m", m, "--p", p, "--s", s)
        assert got == dict.fromkeys(SINKS, reference_compare(build_oracle(n, m, p, s), fmt))


class TestBulkSerializerAt2e16:
    def test_spectrum_and_compare_bytes(self, tmp_path, monkeypatch):
        # odd p coprime to n: about n/2 distinct probabilities
        n, m, p, s = 1 << 16, 4, 255, 17
        flags = ["--n", n, "--m", m, "--p", p, "--s", s]
        got = cli_outputs(tmp_path, monkeypatch, "csv", "spectrum", *flags)
        want = reference_spectrum(build_oracle(n, m, p, s), "amplified", "csv")
        assert got == dict.fromkeys(SINKS, want)
        got = cli_outputs(tmp_path, monkeypatch, "csv", "compare", *flags)
        assert got == dict.fromkeys(SINKS, reference_compare(build_oracle(n, m, p, s), "csv"))


# The edges of the bulk join, as (n, m, p, s, strict): a one-row and a
# two-row table, too small for any strict instance, where the first cell
# is also in the last row and the trimmed run-on is the whole separator;
# odd n with p coprime to n, whose closed form mirrors one half; and even
# p at n = 4096, whose null frequencies fall between generic ones, so
# excluded compare rows sit among kept ones.  Compare needs 2m <= n.
EDGE_INSTANCES = [(1, 1, 1, 0, False), (2, 1, 1, 1, False), (1001, 5, 10, 7, True),
                  (4096, 4, 6, 3, True)]


def edge_argv(n, m, p, s, strict):
    return ["--n", n, "--m", m, "--p", p, "--s", s, "--strict" if strict else "--no-strict"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
class TestBulkSerializerEdges:
    @pytest.mark.parametrize("alg", [a.value for a in Algorithm])
    @pytest.mark.parametrize("instance", EDGE_INSTANCES, ids=lambda i: "-".join(map(str, i)))
    def test_spectrum_bytes(self, instance, fmt, alg, tmp_path, monkeypatch):
        got = cli_outputs(tmp_path, monkeypatch, fmt, "spectrum", "--alg", alg,
                          *edge_argv(*instance))
        n, m, p, s, strict = instance
        want = reference_spectrum(build_oracle(n, m, p, s, strict=strict), alg, fmt)
        assert got == dict.fromkeys(SINKS, want)

    @pytest.mark.parametrize(
        "instance", [i for i in EDGE_INSTANCES if 2 * i[1] <= i[0]],
        ids=lambda i: "-".join(map(str, i)),
    )
    def test_compare_bytes(self, instance, fmt, tmp_path, monkeypatch):
        got = cli_outputs(tmp_path, monkeypatch, fmt, "compare", *edge_argv(*instance))
        n, m, p, s, strict = instance
        want = reference_compare(build_oracle(n, m, p, s, strict=strict), fmt)
        assert got == dict.fromkeys(SINKS, want)

    @pytest.mark.parametrize("alg", [a.value for a in Algorithm])
    @pytest.mark.parametrize("iterations", [0, 3])
    def test_spectrum_iterations_override_bytes(self, iterations, fmt, alg, tmp_path,
                                                monkeypatch):
        n, (m, p, s) = 1000, GOLDEN_INSTANCES[1000]
        got = cli_outputs(tmp_path, monkeypatch, fmt, "spectrum", "--alg", alg,
                          "--iterations-override", iterations, "--n", n, "--m", m, "--p", p,
                          "--s", s)
        want = reference_spectrum(build_oracle(n, m, p, s), alg, fmt, iterations=iterations)
        assert got == dict.fromkeys(SINKS, want)


# (n, m, p, s): p sharing 2, 4, 8 and 128 with n, p coprime to n, odd n
# with p sharing 7 with it and coprime to it, and 2m = n.  Where p shares a
# factor with n, the CLI evaluates the closed form once at y = 0..P//2 and
# y = P, P = n/gcd(n, p), and every row takes the value at its fold.
FOLD_INSTANCES = [(4096, 5, 6, 7), (4096, 5, 12, 1), (4096, 5, 40, 3), (16384, 5, 128, 11),
                  (4096, 5, 63, 2), (1001, 5, 14, 7), (1001, 5, 10, 7), (64, 32, 2, 0)]


def table_rows(text: str, fmt: str) -> list[list[str]]:
    """The rows of a spectrum or compare table as cells, in the CSV column
    order: y, case, then the first value column."""
    if fmt == "json":
        rows = json.loads(text)["rows"]
        if isinstance(rows[0], dict):  # spectrum
            return [[str(r["y"]), r["case"], repr(r["pr_closedform"])] for r in rows]
        return rows
    return [line.split(",") for line in text.splitlines()[2:] if not line.startswith("#")]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("instance", FOLD_INSTANCES, ids=lambda i: "-".join(map(str, i)))
class TestFoldedRows:
    def test_spectrum_bytes(self, instance, fmt, tmp_path, monkeypatch):
        n, m, p, s = instance
        got = cli_outputs(tmp_path, monkeypatch, fmt, "spectrum", "--n", n, "--m", m, "--p", p,
                          "--s", s)
        spec = build_oracle(n, m, p, s)
        assert got == dict.fromkeys(SINKS, reference_spectrum(spec, "amplified", fmt))
        # y = P and 2P are resonant, each with the resonant constant, and
        # y = 0 alone is the zero frequency
        pr = closed_form_table(spec, Algorithm.AMPLIFIED).pr
        resonant = pipeline_constants(spec, Algorithm.AMPLIFIED, None).resonant
        rows = table_rows(got["out"], fmt)
        period = n // math.gcd(n, p)
        assert rows[0][:2] == ["0", "zero"]
        for y in range(period, n, period)[:2]:
            assert rows[y][:2] == [str(y), "resonant"]
            assert float(rows[y][2]) == pr[y] == resonant != pr[0]

    def test_compare_bytes(self, instance, fmt, tmp_path, monkeypatch):
        n, m, p, s = instance
        got = cli_outputs(tmp_path, monkeypatch, fmt, "compare", "--n", n, "--m", m, "--p", p,
                          "--s", s)
        assert got == dict.fromkeys(SINKS, reference_compare(build_oracle(n, m, p, s), fmt))
        # y = 0 is excluded, and y = P and 2P are resonant rows with ratios
        rows = table_rows(got["out"], fmt)
        period = n // math.gcd(n, p)
        assert rows[0] == ["0", "zero", "excluded", "excluded", "excluded"]
        for y in range(period, n, period)[:2]:
            assert rows[y][:2] == [str(y), "resonant"] and rows[y][4] == "pass"
            assert "excluded" not in rows[y][2:]


class TestBlocks:
    @pytest.mark.parametrize("cmd", ["spectrum", "compare"])
    def test_every_block_size_at_small_n(self, cmd, monkeypatch):
        # every block start and end, the first row above n/2 among them,
        # against the table as one block, which an io.StringIO takes
        for n in range(2, 10):
            argv = [cmd, "--n", str(n), "--m", "1", "--p", "3", "--no-strict", "--format", "json"]
            whole = io.StringIO()
            with contextlib.redirect_stdout(whole):
                assert main(argv) == 0
            for rows in range(1, n + 1):
                monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
                blocks = io.TextIOWrapper(io.BytesIO(), write_through=True)
                with contextlib.redirect_stdout(blocks):
                    assert main(argv) == 0
                assert blocks.buffer.getvalue().decode() == whole.getvalue(), (n, rows)

    def test_a_stream_without_bytes_gets_one_write(self, monkeypatch):
        # 64 rows in blocks of 13 are five writes to a stream with a byte
        # buffer beneath it; an io.StringIO, which holds the whole text
        # anyway, gets the table in one
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 13)
        writes = []

        class Text(io.StringIO):
            def write(self, s):
                writes.append("text")
                return super().write(s)

        class Bytes(io.TextIOWrapper):
            def write(self, s):
                writes.append("bytes")
                return super().write(s)

        for stream in (Text(), Bytes(io.BytesIO())):
            with contextlib.redirect_stdout(stream):
                assert main(["spectrum", "--n", "64", "--m", "4", "--p", "4", "--s", "3"]) == 0
        assert writes == ["text"] + ["bytes"] * 5


class RecordingNamespace(argparse.Namespace):
    """A namespace that records the names read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "__dict__").setdefault("_read", set()).add(name)
        return object.__getattribute__(self, name)


# Runs that between them read every option their subcommand reads: recover
# reads the instance only with --verify, and trials the seed only with --runs.
READING_RUNS = {
    "spectrum": [["spectrum", *SPEC_FLAGS]],
    "compare": [["compare", *SPEC_FLAGS]],
    "recover": [["recover", "--n", "16", "--y", "4"], ["recover", "--verify", "--y", "4", *SPEC_FLAGS]],
    "find-offset": [["find-offset", *SPEC_FLAGS]],
    "trials": [["trials", *SPEC_FLAGS, "--runs", "2"]],
    "sweep": [["sweep", "--m", "3", "--p", "4", "--n-max", "512"]],
}

# (subcommand, flag) pairs that were parsed and then ignored
REMOVED_OPTIONS = [
    ("spectrum", "--seed"), ("spectrum", "--q-max"),
    ("compare", "--seed"), ("compare", "--q-max"), ("compare", "--iterations-override"),
    ("recover", "--seed"), ("recover", "--iterations-override"),
    ("find-offset", "--q-max"), ("find-offset", "--iterations-override"),
    ("trials", "--q-max"), ("trials", "--iterations-override"),
    ("sweep", "--n"), ("sweep", "--seed"), ("sweep", "--q-max"), ("sweep", "--iterations-override"),
]


# Values argparse cannot take for a flag: it reads a token led by '-' as a
# flag unless it is a negative number.
_PLAIN_TEXT = st.text(string.ascii_letters + string.digits + "./_ -", max_size=12).filter(
    lambda text: not text.startswith("-")
)


def option_tokens(key: str):
    """The argv tokens of one valid use of option ``key``: its flag and a
    value of its type, one of its choices or, for a switch, either form."""
    option, flag = cli._OPTIONS[key], f"--{key.replace('_', '-')}"
    if option.get("action") is argparse.BooleanOptionalAction:
        return st.sampled_from([[flag], [f"--no-{flag[2:]}"]])
    if "action" in option:
        return st.just([flag])
    if "choices" in option:
        values = st.sampled_from(option["choices"])
    elif option["type"] is int:
        values = st.integers(-(2**70), 2**70).map(str)
    else:
        values = _PLAIN_TEXT
    return st.tuples(values, st.booleans()).map(
        lambda v: [f"{flag}={v[0]}"] if v[1] else [flag, v[0]]
    )


@st.composite
def subcommand_argv(draw, command: str):
    """argv for ``command``: leading --config flags, in either form, then a
    subset of its options in any order, each with a valid value."""
    leading = []
    for config, equals in draw(st.lists(st.tuples(_PLAIN_TEXT, st.booleans()), max_size=2)):
        leading += [f"--config={config}"] if equals else ["--config", config]
    keys = draw(st.lists(st.sampled_from(sorted(cli._SUBCOMMANDS[command][1])), unique=True))
    return [*leading, command, *(token for key in keys for token in draw(option_tokens(key)))]


class TestParsePath:
    @pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_namespace_equals_full_parser(self, command, data):
        argv = data.draw(subcommand_argv(command))
        parser = cli._build_parser()[0]
        expected, unknown = parser.parse_known_args(argv)
        assert unknown == []
        with mock.patch.object(parser, "parse_known_args", side_effect=AssertionError(argv)):
            assert cli._parse_args(argv) == expected

    def test_success_never_runs_the_top_level_parser(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text('{"s": 1}')
        parser = cli._build_parser()[0]
        with mock.patch.object(parser, "parse_known_args", side_effect=AssertionError):
            for command, runs in sorted(READING_RUNS.items()):
                for argv in runs:
                    out = ["--out", str(tmp_path / command)]  # sweep's is a directory
                    assert main([*argv, *out]) == 0, argv
                    assert main(["--config", str(config), *argv, *out]) == 0, argv
                    assert main([f"--config={config}", *argv, *out]) == 0, argv
        assert capsys.readouterr().err == ""


class TestParser:
    @pytest.mark.parametrize("command", sorted(READING_RUNS))
    def test_every_option_offered_is_read(self, command, tmp_path, capsys):
        func, names = cli._SUBCOMMANDS[command]
        read = set()
        for argv in READING_RUNS[command]:
            args = cli._build_parser()[0].parse_args([*argv, "--out", str(tmp_path / "out")])
            offered = set(vars(args)) - {"command", "config"}
            assert offered == names
            cli._apply_config(args, names)
            recording = RecordingNamespace(**vars(args))
            assert func(recording) == 0
            read |= recording._read
        assert sorted(offered - read) == []

    @pytest.mark.parametrize("command,flag", REMOVED_OPTIONS)
    def test_removed_option_exits_2(self, command, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*READING_RUNS[command][0], "--out", str(tmp_path / "out"), flag, "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: unrecognized arguments: {flag} 3\n")

    @pytest.mark.parametrize("argv,message", [
        (["spectrum", "--n", "16", "--m", "2", "--p", "3", "--iter", "0"],
         "error: unrecognized arguments: --iter 0\n"),
        (["recover", "--n", "16", "--y", "5", "--q", "2"], "error: unrecognized arguments: --q 2\n"),
        (["--conf", "lpq.json", "compare", *SPEC_FLAGS], "lpq: error: unrecognized arguments: --conf\n"),
    ], ids=["spectrum-iter", "recover-q", "top-conf"])
    def test_prefix_flag_exits_2(self, argv, message, capsys):
        # a flag is taken only as spelled, never as the prefix of a longer one
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("command", sorted(READING_RUNS))
    def test_unknown_flag_under_subcommand_usage(self, command, tmp_path, capsys):
        # the usage line that lists the subcommand's own flags
        with pytest.raises(SystemExit) as exc:
            main([*READING_RUNS[command][0], "--out", str(tmp_path / "out"), "--bogus", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: lpq {command} [-h]")
        assert "--out OUT" in captured.err
        assert captured.err.endswith(f"lpq {command}: error: unrecognized arguments: --bogus 1\n")

    @pytest.mark.parametrize("argv,flag", [
        (["--conf", "cfg.json", "spectrum", "--n", "16", "--m", "2", "--p", "3"], "--conf"),
        (["--bogus", "spectrum", "--n", "16", "--m", "2", "--p", "3"], "--bogus"),
        (["--config", "cfg.json", "--bogus", "spectrum", "--n", "16", "--m", "2", "--p", "3"], "--bogus"),
        (["--bogus"], "--bogus"),
    ], ids=["conf-value", "before-subcommand", "after-config", "alone"])
    def test_unknown_flag_before_subcommand_under_lpq_usage(self, argv, flag, capsys):
        # not its value taken for the subcommand, nor the subcommand's usage line
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: lpq [-h] [--config CONFIG]\n")
        assert captured.err.endswith(f"\nlpq: error: unrecognized arguments: {flag}\n")

    def test_config_with_equals_sign_is_not_an_unknown_flag(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"p": 3}')
        assert main([f"--config={path}", "spectrum", "--n", "16", "--m", "2"]) == 0
        assert capsys.readouterr().err == ""

    def test_sweep_out_help_names_a_directory(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        assert "for sweep, a directory (default .)" in " ".join(capsys.readouterr().out.split())

    def test_every_option_is_taken_by_a_subcommand(self):
        # so that a config key outside _OPTIONS is exactly one no subcommand takes
        taken = set().union(*(names for _, names in cli._SUBCOMMANDS.values()))
        assert taken == cli._OPTIONS.keys()

    def test_python_dash_m_runs_the_cli(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-m", "lpq", "--help"], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert "find-offset" in done.stdout

    def test_not_built_at_import(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        probe = "import lpq.cli as c; print(c._build_parser.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "0"

    def test_reused_parser_keeps_no_state(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n": 64, "m": 4, "p": 4, "s": 3, "alg": "qhs", "format": "json"}))
        flags = ["--n", "64", "--m", "4", "--p", "4", "--s", "3"]
        calls = [
            ["--config", str(config), "spectrum"],
            [f"--config={config}", "find-offset", "--seed", "2"],
            ["spectrum", *flags],  # must not inherit qhs/json from the config
            ["compare", *flags, "--format", "json"],
            ["spectrum", "--alg", "bogus", *flags],  # argparse error, exit 2
            ["recover", "--n", "64", "--y", "16"],
            ["find-offset", *flags, "--seed", "3", "--method", "counting"],
            ["trials", *flags, "--runs", "3", "--seed", "1"],
            ["spectrum", *flags, "--alg", "qft", "--format", "json"],
        ]

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first = []
        for argv in calls:  # each with a parser of its own
            cli._build_parser.cache_clear()
            first.append(call(argv))
        assert first[4][0] == 2 and "invalid choice" in first[4][2]
        assert '"algorithm": "qhs"' in first[0][1]
        assert '"period_candidate": 4' in first[1][1]  # json from the config
        assert first[2][1].startswith("# schema=1") and ",generic," in first[2][1]
        for order in (range(len(calls)), reversed(range(len(calls)))):
            for i in order:
                assert call(calls[i]) == first[i]
