import json
import math

import numpy as np
import pytest

from lpq.cli import main


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


SPEC_FLAGS = ["--n", "16", "--m", "3", "--p", "4", "--s", "1"]


class TestSpectrum:
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
        from lpq import build_oracle
        from lpq.closedform import closed_form_table

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


class TestRecover:
    def test_accepted(self, capsys):
        assert main(["recover", "--n", "16", "--y", "4"]) == 0
        out = capsys.readouterr().out
        assert "# accepted=4" in out

    def test_no_candidate_exit(self, capsys):
        assert main(["recover", "--n", "16", "--y", "0"]) == 3

    def test_false_candidate_rejected_by_verify(self, capsys):
        assert main(["recover", *SPEC_FLAGS, "--y", "5", "--verify"]) == 4
        assert "gcd-obstruction" in capsys.readouterr().out

    def test_verified_accept(self, capsys):
        assert main(["recover", *SPEC_FLAGS, "--y", "4", "--verify"]) == 0

    @pytest.mark.parametrize("verify", [[], ["--verify"]])
    def test_y_out_of_range(self, verify, capsys):
        argv = ["recover", "--n", "64", "--m", "4", "--p", "4", "--s", "3", "--y", "200"]
        assert main(argv + verify) == 2
        assert "y=200 outside 0..63" in capsys.readouterr().err


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

    def test_single_member_immediate(self, tmp_path):
        out = tmp_path / "offset.json"
        code = main(
            ["find-offset", "--n", "10", "--m", "1", "--p", "1", "--s", "7",
             "--method", "counting", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["offset"] == 7 and obj["iterations"] == 0


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
