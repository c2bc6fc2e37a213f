"""Corruption self-test: every output check must pass the real output and
reject a corrupted copy of it.

    python3 bench/selftest.py     # from the root of a source checkout

Corruptions: a flipped case label (csv and json), a probability shifted
past tolerance, a wrong offset, a Monte-Carlo mean times ten, and a
miscounted Grover round.
"""

from __future__ import annotations

import json
import sys

import checks
import run as bench
from tracing import Tracer


def _expect(name: str, problems: list[str], reject: bool, failures: list[str]) -> None:
    if bool(problems) != reject:
        verdict = "accepted a corrupted output" if reject else f"rejected a good output: {problems}"
        failures.append(f"{name}: check {verdict}")


def _flip_case_csv(text: str) -> str:
    lines = text.splitlines(keepends=True)
    for i in range(2, len(lines) - 1):
        if ",generic," in lines[i]:
            lines[i] = lines[i].replace(",generic,", ",null,", 1)
            return "".join(lines)
    raise AssertionError("no generic row to flip")


def _shift_probability_json(text: str, n: int) -> str:
    obj = json.loads(text)
    row = obj["rows"][1]
    row["pr_simulated"] += 4 * checks.SUM_TOL_NEPS * n * checks.EPS
    return json.dumps(obj)


def run(verbose: bool = False) -> bool:
    lpq = run_module_lpq()
    failures: list[str] = []
    n, m, p, s = 256, 3, 11, 40
    ref = checks.case_codes(n, m, p)
    args = bench.instance_args(n, m, p, s)

    csv_out = bench.cli_call(["spectrum", "--alg", "qft", "--format", "csv"] + args).stdout
    _expect("spectrum csv", checks.check_spectrum(csv_out, "csv", n, ref), False, failures)
    _expect("flipped case label (csv)",
            checks.check_spectrum(_flip_case_csv(csv_out), "csv", n, ref), True, failures)

    json_out = bench.cli_call(["spectrum", "--alg", "amplified", "--format", "json"] + args).stdout
    _expect("spectrum json", checks.check_spectrum(json_out, "json", n, ref), False, failures)
    flipped = json.loads(json_out)
    flipped["rows"][next(i for i, c in enumerate(ref) if c == 2)]["case"] = "resonant"
    _expect("flipped case label (json)",
            checks.check_spectrum(json.dumps(flipped), "json", n, ref), True, failures)
    _expect("shifted probability",
            checks.check_spectrum(_shift_probability_json(json_out, n), "json", n, ref), True, failures)

    found = bench.cli_call(["find-offset", "--method", "decreasing", "--format", "json"] + args).stdout
    _expect("find-offset", checks.check_find_offset(0, found, s), False, failures)
    wrong = json.loads(found)
    wrong["offset"] += p
    _expect("wrong offset", checks.check_find_offset(0, json.dumps(wrong), s), True, failures)

    for alg in ("qft", "qhs", "amplified"):
        success = checks.pipeline_success(alg, n, m, p, s)
        out = bench.cli_call(["trials", "--alg", alg, "--runs", "20", "--seed", "7", "--format", "json"]
                           + args).stdout
        obj = json.loads(out)
        _expect(f"trials {alg}", checks.check_trials(obj, 20, success), False, failures)
        obj["monte_carlo"]["mean"] *= 10
        _expect(f"MC mean x10 ({alg})", checks.check_trials(obj, 20, success), True, failures)

    tracer = Tracer()
    op = bench.spectrum_op(n, m, p, s, "amplified", "csv")
    tracer.install()
    try:
        record = bench.execute(op, tracer)
    finally:
        tracer.uninstall()
    rounds = tracer.count("simulator.grover_iterate", tracer.subtree(record.span))
    expected = lpq.simulator.grover_schedule(n, m).k
    _expect("grover rounds", checks.check_count("grover", rounds, expected), False, failures)
    _expect("miscounted grover round", checks.check_count("grover", rounds + 1, expected), True, failures)
    _expect("per-layer names match BENCHMARK.json", _benchmark_names_problems(), False, failures)

    for line in failures:
        print("selftest:", line)
    if verbose:
        print("selftest:", "ok" if not failures else f"{len(failures)} FAILED")
    return not failures


def _benchmark_names_problems() -> list[str]:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [e["name"] for e in spec["per_layer"]] != list(bench.PER_LAYER):
        problems.append("per_layer names differ from run.PER_LAYER")
    if [e["name"] for e in spec["end_to_end"]] != list(bench.END_TO_END):
        problems.append("end_to_end names differ from run.END_TO_END")
    if sorted(e["name"] for e in spec["workloads"]) != sorted(bench.WORKLOADS):
        problems.append("workload names differ from run.WORKLOADS")
    return problems


def run_module_lpq():
    if bench.lpq is None:
        bench.load_lpq()
    return bench.lpq


if __name__ == "__main__":
    sys.exit(0 if run(verbose=True) else 1)
