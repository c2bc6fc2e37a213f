import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import lpq.closedform
import lpq.recovery
from lpq import build_oracle, cli
from lpq.cli import main
from lpq.closedform import closed_form_table, ratio_bounds
from lpq.recovery import success_set
from lpq.simulator import simulated_table
from lpq.spectrum import CASE_NAMES, CODE_GENERIC, Algorithm


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

    def test_negative_iterations_override_exit(self, capsys):
        code = main(["spectrum", *SPEC_FLAGS, "--alg", "amplified", "--iterations-override", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need iterations >= 0, got -1\n"


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

    def test_zero_probability_divisor_is_bound_violation(self, monkeypatch, capsys):
        # a zero qft probability at a resonant or generic frequency leaves
        # the ratio undefined: exit 1 with one error line, not a traceback
        original = lpq.closedform.closed_form_table

        def zeroed(spec, alg, *args, **kwargs):
            table = original(spec, alg, *args, **kwargs)
            if Algorithm(alg) is Algorithm.QFT:
                table.pr[table.codes == CODE_GENERIC] = 0.0
            return table

        monkeypatch.setattr(lpq.closedform, "closed_form_table", zeroed)
        assert main(["compare", *SPEC_FLAGS]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: qft probability 0 at a resonant or generic frequency\n"


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

    @pytest.mark.parametrize("method,period,seed", [("counting", 0, 1), ("decreasing", -4, 3)])
    def test_period_below_one_is_validation_error(self, method, period, seed, capsys):
        # three probes at p = 0 all land on the measured member, which
        # used to "verify" it as the offset
        code = main(
            ["find-offset", "--n", "64", "--m", "3", "--p", "4", "--s", "1",
             "--period", str(period), "--method", method, "--seed", str(seed)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: period candidate must be >= 1, got {period}\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_verification_failure_in_format(self, fmt, capsys):
        # the counting search draws an adversarial count at this seed
        code = main(
            ["find-offset", "--n", "64", "--m", "4", "--p", "4", "--s", "3",
             "--method", "counting", "--seed", "4", "--format", fmt]
        )
        assert code == 4
        out = capsys.readouterr().out
        error = "pair (s=-1, p=4) rejected by probes (count=4)"
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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_period_one_runs_fail_fast(self, fmt, capsys):
        # no candidate period survives verification at p = 1, so no run can
        # succeed; Monte-Carlo says so before drawing anything
        start = time.perf_counter()
        code = main(
            ["trials", "--n", "256", "--m", "4", "--p", "1", "--s", "3",
             "--runs", "1", "--format", fmt]
        )
        assert time.perf_counter() - start < 1.0
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_runs_exit(self, fmt, capsys):
        code = main(["trials", *SPEC_FLAGS, "--runs", "-1", "--format", fmt])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need runs >= 1, got -1\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_zero_runs_has_no_monte_carlo_block(self, fmt, capsys):
        assert main(["trials", *SPEC_FLAGS, "--format", fmt]) == 0
        without = capsys.readouterr().out
        assert main(["trials", *SPEC_FLAGS, "--runs", "0", "--format", fmt]) == 0
        assert capsys.readouterr().out == without
        assert "monte_carlo" not in without


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
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need seed >= 0, got -3\n"


@pytest.mark.parametrize("cmd", ["trials", "compare"])
def test_success_set_overflow_is_validation_error(cmd, capsys):
    # 15 * 2**65 is past int64: one error line, not an OverflowError
    argv = [cmd, "--n", "16", "--m", "1", "--p", str(2**65), "--s", "3", "--no-strict"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: success set needs products below 2**63 (n=16, p={2**65})\n"


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


def _count_closed_form_evaluations(monkeypatch) -> list:
    # the table's own block evaluations (in lpq.closedform) count as the table
    return _count_calls(monkeypatch, lpq.closedform.closed_form_at, skip={"lpq.closedform"})


class TestClosedFormTablesPerInstance:
    # The work-factor rows read at most phi(p) + 1 closed-form values per
    # pipeline; only Monte-Carlo needs a whole table.
    def test_trials_builds_only_the_monte_carlo_table(self, monkeypatch, capsys):
        calls = _count_closed_form_tables(monkeypatch)
        argv = ["trials", "--n", "4096", "--m", "4", "--p", "16", "--s", "3"]
        assert main(argv) == 0
        assert calls == []
        assert main([*argv, "--runs", "3", "--alg", "qhs"]) == 0
        assert [args[1] for args in calls] == [Algorithm.QHS]

    def test_trials_p1_builds_only_the_monte_carlo_table(self, monkeypatch, capsys):
        # p = 1 certifies nothing, so only --runs needs a table
        calls = _count_closed_form_tables(monkeypatch)
        assert main(["trials", "--n", "256", "--m", "4", "--p", "1", "--s", "3"]) == 0
        assert calls == []
        argv = ["trials", "--n", "256", "--m", "4", "--p", "1", "--s", "3", "--runs", "1"]
        assert main(argv) == 4
        assert len(calls) == 1

    def test_sweep_builds_none(self, monkeypatch, tmp_path, capsys):
        calls = _count_closed_form_tables(monkeypatch)
        code = main(
            ["sweep", "--m", "4", "--p", "4", "--s", "1", "--n-min", "256",
             "--n-max", "1024", "--out", str(tmp_path)]
        )
        assert code == 0
        assert calls == []

    # One success set per instance, and one closed-form evaluation per
    # pipeline that gives both Pr(0) and the certified probability.
    @pytest.mark.parametrize("p,runs", [(16, None), (16, 40), (97, 40), (1, None)])
    def test_three_evaluations_one_success_set(self, p, runs, monkeypatch, capsys):
        evaluations = _count_closed_form_evaluations(monkeypatch)
        success_sets = _count_calls(monkeypatch, lpq.recovery.success_set)
        tables = _count_closed_form_tables(monkeypatch)
        argv = ["trials", "--n", "16384", "--m", "4", "--p", str(p), "--s", "3", "--alg", "qft"]
        if runs is not None:
            argv += ["--runs", str(runs)]
        assert main(argv) == 0
        assert [args[1] for args in evaluations] == list(Algorithm)
        assert len(success_sets) == 1
        assert len(tables) == (runs is not None)

    def test_sweep_per_doubling(self, monkeypatch, tmp_path, capsys):
        evaluations = _count_closed_form_evaluations(monkeypatch)
        success_sets = _count_calls(monkeypatch, lpq.recovery.success_set)
        argv = ["sweep", "--m", "4", "--p", "4", "--s", "1", "--n-min", "256", "--n-max", "1024",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        assert (len(evaluations), len(success_sets)) == (9, 3)


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
        assert main(["--config", str(config), "trials", *SPEC_FLAGS, "--runs", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(path=config)}\n"

    def test_value_is_checked_even_when_a_flag_overrides_it(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n": 16.5}))
        assert main(["--config", str(config), "trials", *SPEC_FLAGS]) == 2
        assert capsys.readouterr().err == "error: config option n must be an integer, got 16.5\n"

    @pytest.mark.parametrize("kind", ["missing", "directory", "malformed", "not utf-8"])
    def test_unreadable_file_is_validation_error(self, kind, tmp_path, capsys):
        path = tmp_path / "run.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "malformed":
            path.write_text('{"n": 16')
        elif kind == "not utf-8":
            path.write_bytes(b'{"n": "\xff"}')
        assert main(["--config", str(path), "trials", *SPEC_FLAGS]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read config file {path}: ")
        assert captured.err.count("\n") == 1

    def test_typed_values_apply_and_unknown_keys_are_ignored(self, tmp_path, capsys):
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
# json.dumps of the whole object for JSON.
GOLDEN_INSTANCES = {64: (4, 4, 3), 1000: (5, 31, 7), 4099: (3, 64, 2)}


def reference_spectrum(spec, alg, fmt):
    closed = closed_form_table(spec, alg)
    simulated = simulated_table(spec, alg)
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
            ok &= b.lower - 1e-9 <= ratio <= b.upper + 1e-9
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


@pytest.mark.parametrize("n", sorted(GOLDEN_INSTANCES))
@pytest.mark.parametrize("fmt", ["csv", "json"])
class TestBulkSerializer:
    def cli_output(self, tmp_path, fmt, *argv):
        out = tmp_path / f"out.{fmt}"
        assert main([*map(str, argv), "--format", fmt, "--out", str(out)]) == 0
        return out.read_text()

    @pytest.mark.parametrize("alg", [a.value for a in Algorithm])
    def test_spectrum_bytes(self, n, fmt, alg, tmp_path):
        m, p, s = GOLDEN_INSTANCES[n]
        got = self.cli_output(tmp_path, fmt, "spectrum", "--alg", alg,
                              "--n", n, "--m", m, "--p", p, "--s", s)
        assert got == reference_spectrum(build_oracle(n, m, p, s), alg, fmt)

    def test_compare_bytes(self, n, fmt, tmp_path):
        m, p, s = GOLDEN_INSTANCES[n]
        got = self.cli_output(tmp_path, fmt, "compare", "--n", n, "--m", m, "--p", p, "--s", s)
        assert got == reference_compare(build_oracle(n, m, p, s), fmt)


class TestParser:
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
        assert first[3][0] == 2 and "invalid choice" in first[3][2]
        assert '"algorithm": "qhs"' in first[0][1]
        assert first[1][1].startswith("# schema=1") and ",generic," in first[1][1]
        for order in (range(len(calls)), reversed(range(len(calls)))):
            for i in order:
                assert call(calls[i]) == first[i]
