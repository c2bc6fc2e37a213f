"""Command-line front end.

Subcommands: spectrum, compare, recover, find-offset, trials, sweep.
Options can also come from a JSON config file (flat object keyed like the
long flags, with underscores: q_max); explicit flags override the file.
Each value must be what its flag takes: an integer for an integer option,
a string for a string one, one of the choices where there are choices, and
true or false for a switch.  A file that cannot be read or parsed, is not
a JSON object, or holds a value of another kind is a validation error.
Keys that the subcommand has no option for are ignored, so one file can
serve several subcommands.  Runs are fully determined by their options,
including the seed, so output files are byte-identical across repeats.

Per-frequency tables (spectrum, compare) are emitted in bulk: each float
column is formatted once per distinct value and each row is one
%-template over the resulting strings, so a 2^16-row table never goes
through per-row numpy indexing or the json encoder. The output is
byte-identical to formatting every value with format(x, ".17g") and
dumping the whole object with json.dumps(indent=1, sort_keys=True).

Exit codes:

    0  success
    1  any other lpq error (a computed figure broke a proven bound)
    2  validation failure: a bad instance, option or argument
    3  no recovery candidate
    4  verification failed: the oracle probes rejected the candidate, or a
       seeded search gave up (for Monte-Carlo, when no candidate period
       survives verification, so no run can succeed; for the work factor,
       when a pipeline's runs all measure y = 0)

Errors print one ``error: ...`` line on stderr, not a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, closedform, offset, recovery, simulator
from .errors import BoundViolated, LpqError, NonTermination, ValidationError, VerificationFailed
from .oracle import OracleHandle, build_oracle
from .spectrum import CASE_NAMES, CODE_GENERIC, CODE_RESONANT, Algorithm

EXIT_OK = 0
EXIT_LPQ_ERROR = 1
EXIT_VALIDATION = 2
EXIT_NO_CANDIDATE = 3
EXIT_VERIFICATION = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# Bulk row emission.  Each float column is formatted through _column and
# each row is one ``template % row`` over those strings: "%.17g" prints a
# Python float exactly as format(x, ".17g"), and "%r" prints a finite one
# exactly as json.dumps does.  A JSON template lays out one element of a
# top-level "rows" list the way json.dumps(indent=1, sort_keys=True) does
# (depth 2, keys sorted), so _write_json can splice the rendered rows into a
# dump of the other fields.
_CASE_NAMES = np.array(CASE_NAMES)
_FLOAT_FORMAT = {"csv": "%.17g", "json": "%r"}
_SPECTRUM_ROW = {
    "csv": "%d,%s,%s,%s,%s",
    "json": '  {\n   "abs_deviation": %s,\n   "case": "%s",\n   "pr_closedform": %s,\n'
    '   "pr_simulated": %s,\n   "y": %d\n  }',
}
# compare rows are lists of strings in JSON
_COMPARE_ROW = {
    "csv": "%d,%s,%s,%s,%s",
    "json": '  [\n   "%d",\n   "%s",\n   "%s",\n   "%s",\n   "%s"\n  ]',
}
_ROWS_KEY = '\n "rows": []'  # the top-level key: only it sits one space in


def _column(values: np.ndarray, fmt: str) -> np.ndarray:
    """``fmt % x`` for every float64 x in values, as an object array.

    Each distinct bit pattern is formatted once: a table's probabilities
    depend on p*y mod n, and its deviations are mostly 0 or a few ulps, so
    a column usually holds far fewer distinct values than rows.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([fmt % x for x in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse]


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _write_json(out: str | None, obj, rows: list[str] | None = None) -> None:
    """Write json.dumps(obj, indent=1, sort_keys=True) and a newline.

    ``rows``, rendered by a JSON row template, become obj's "rows" list;
    the bytes equal those of dumping the whole object.
    """
    text = json.dumps(obj if rows is None else {**obj, "rows": []}, indent=1, sort_keys=True)
    if rows:
        head, tail = text.split(_ROWS_KEY)
        text = "".join((head, '\n "rows": [\n', ",\n".join(rows), "\n ]", tail))
    _write_text(out, text + "\n")


def _csv_lines(header: list[str], rows: list[str], trailer: list[str] = ()) -> str:
    return "\n".join(["# schema=1", ",".join(header), *rows, *trailer, ""])


def _require(args, *keys) -> None:
    for key in keys:
        if getattr(args, key, None) is None:
            raise ValidationError(f"missing required option --{key}")


def _spec_from(args):
    _require(args, "n", "m", "p")
    return build_oracle(args.n, args.m, args.p, args.s, strict=args.strict)


def cmd_spectrum(args) -> int:
    spec = _spec_from(args)
    alg = Algorithm(args.alg)
    closed = closedform.closed_form_table(spec, alg, iterations=args.iterations_override)
    simulated = simulator.simulated_table(spec, alg, iterations=args.iterations_override)
    dev = np.abs(closed.pr - simulated.pr)
    y, case = range(spec.n), _CASE_NAMES[closed.codes].tolist()
    fmt = _FLOAT_FORMAT[args.format]
    pr_closed, pr_simulated, deviation = (
        _column(v, fmt).tolist() for v in (closed.pr, simulated.pr, dev)
    )
    template = _SPECTRUM_ROW[args.format]
    if args.format == "json":
        rows = [template % row for row in zip(deviation, case, pr_closed, pr_simulated, y)]
        head = {
            "schema": 1,
            "instance": {"n": spec.n, "m": spec.m, "p": spec.p, "s": spec.s},
            "algorithm": alg.value,
            "max_abs_deviation": float(dev.max()),
        }
        _write_json(args.out, head, rows)
    else:
        rows = [template % row for row in zip(y, case, pr_closed, pr_simulated, deviation)]
        _write_text(
            args.out,
            _csv_lines(
                ["y", "case", "pr_closedform", "pr_simulated", "abs_deviation"],
                rows,
                [f"# max_abs_deviation={_fmt(dev.max())}"],
            ),
        )
    return EXIT_OK


def cmd_compare(args) -> int:
    spec = _spec_from(args)
    tables = {alg: closedform.closed_form_table(spec, alg) for alg in Algorithm}
    bounds = {
        alg: closedform.ratio_bounds(spec.n, spec.m, alg) for alg in (Algorithm.QFT, Algorithm.QHS)
    }
    succ = recovery.success_set(spec)
    sums = {alg: float(tables[alg].pr[succ].sum()) for alg in Algorithm}
    # Zero and null frequencies are excluded; every other one gets the two
    # ratios and a verdict.
    codes = tables[Algorithm.QFT].codes
    kept = (codes == CODE_RESONANT) | (codes == CODE_GENERIC)
    amp = tables[Algorithm.AMPLIFIED].pr[kept]
    cells = np.full((3, spec.n), "excluded", dtype=object)  # vs qft, vs qhs, verdict
    ok = np.ones(amp.size, dtype=bool)
    for i, (alg, b) in enumerate(bounds.items()):
        den = tables[alg].pr[kept]
        if not den.all():
            raise BoundViolated(f"{alg.value} probability 0 at a resonant or generic frequency")
        ratio = amp / den
        ok &= (b.lower - 1e-9 <= ratio) & (ratio <= b.upper + 1e-9)
        cells[i, kept] = _column(ratio, "%.17g")
    cells[2, kept] = np.where(ok, "pass", "FAIL")
    template = _COMPARE_ROW[args.format]
    rows = [
        template % row
        for row in zip(range(spec.n), _CASE_NAMES[codes].tolist(), *cells.tolist())
    ]
    summary = {
        "bounds": {
            alg.value: {
                "lower": b.lower,
                "upper": b.upper,
                "approx": b.approx,
                "gap": b.gap,
            }
            for alg, b in bounds.items()
        },
        "success_set": [int(y) for y in succ],
        "success_probability": {alg.value: sums[alg] for alg in Algorithm},
        "summed_ratio": {
            alg.value: (sums[Algorithm.AMPLIFIED] / sums[alg] if sums[alg] else None)
            for alg in (Algorithm.QFT, Algorithm.QHS)
        },
        "all_rows_within_bounds": bool(ok.all()),
    }
    if args.format == "json":
        _write_json(args.out, {"schema": 1, "summary": summary}, rows)
    else:
        trailer = [f"# {k}={json.dumps(v, sort_keys=True)}" for k, v in summary.items()]
        _write_text(
            args.out,
            _csv_lines(["y", "case", "ratio_vs_qft", "ratio_vs_qhs", "verdict"], rows, trailer),
        )
    return EXIT_OK


def cmd_recover(args) -> int:
    spec = _spec_from(args) if args.verify else None
    _require(args, "n")
    n = args.n
    if not 0 <= args.y < n:
        raise ValidationError(f"y={args.y} outside 0..{n - 1}")
    if spec is None:
        result = recovery.recover_period(args.y, n, args.q_max)
    else:
        result = analysis.verified_recovery(OracleHandle(spec), args.y, args.q_max)
    obj = result.to_json_obj()
    obj["n"] = n
    if args.format == "json":
        _write_json(args.out, obj)
    else:
        rows = [f"{c.d},{c.q}" for c in result.candidates]
        trailer = [
            f"# accepted={result.accepted}",
            f"# status={result.status.value}",
        ]
        _write_text(args.out, _csv_lines(["d", "q"], rows, trailer))
    if result.status is recovery.RecoveryStatus.NO_CANDIDATE:
        return EXIT_NO_CANDIDATE
    if result.status is recovery.RecoveryStatus.GCD_OBSTRUCTION:
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_find_offset(args) -> int:
    spec = _spec_from(args)
    handle = OracleHandle(spec)
    search = (
        offset.find_offset_counting
        if args.method == "counting"
        else offset.find_offset_decreasing
    )
    period = args.period if args.period is not None else spec.p
    try:
        result = search(handle, period, spec.m, args.seed)
    except VerificationFailed as exc:
        obj, code = {"error": str(exc)}, EXIT_VERIFICATION
    else:
        obj, code = dataclasses.asdict(result), EXIT_OK
    obj["schema"] = 1
    obj["period_candidate"] = period
    if args.format == "json":
        _write_json(args.out, obj)
    else:
        rows = [f"{k},{json.dumps(v)}" for k, v in sorted(obj.items())]
        _write_text(args.out, _csv_lines(["field", "value"], rows))
    return code


def _workfactor_rows(spec) -> list[dict]:
    """The work-factor rows: one per pipeline."""
    rows = []
    for rep in analysis.workfactor_comparison(spec):
        if rep.algorithm is Algorithm.QFT:
            verdict = rep.expected_runs >= spec.n / (4 * spec.m)
        elif rep.algorithm is Algorithm.QHS:
            verdict = rep.expected_runs >= spec.n / (2 * spec.m)
        else:
            verdict = True
        rows.append(
            {
                "algorithm": rep.algorithm.value,
                "per_run_cost": rep.per_run_cost,
                "expected_runs": rep.expected_runs,
                "total_cost": rep.total_cost,
                "ratio_vs_amplified": rep.ratio_vs_amplified,
                "certified_expected_trials": rep.certified_expected_trials,
                "bound_verdict": "pass" if verdict else "FAIL",
            }
        )
    return rows


def _workfactor_csv(rows: list[dict], trailer: list[str] = ()) -> str:
    def cell(value) -> str:
        if value is None:
            return ""
        return _fmt(value) if isinstance(value, float) else str(value)

    header = list(rows[0])
    return _csv_lines(header, [",".join(cell(r[k]) for k in header) for r in rows], trailer)


def cmd_trials(args) -> int:
    spec = _spec_from(args)
    alg = Algorithm(args.alg)
    rows = _workfactor_rows(spec)
    payload = {"schema": 1, "workfactor": rows}
    if args.runs:
        stats = analysis.monte_carlo_trials(alg, spec, args.runs, args.seed)
        payload["monte_carlo"] = {"algorithm": args.alg, **stats.to_json_obj()}
    if args.format == "json":
        _write_json(args.out, payload)
    else:
        trailer = []
        if "monte_carlo" in payload:
            trailer = [f"# monte_carlo={json.dumps(payload['monte_carlo'], sort_keys=True)}"]
        _write_text(args.out, _workfactor_csv(rows, trailer))
    return EXIT_OK


def cmd_sweep(args) -> int:
    _require(args, "m", "p")
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    n = args.n_min
    band = []
    while n <= args.n_max:
        spec = build_oracle(n, args.m, args.p, args.s, strict=args.strict)
        rows = _workfactor_rows(spec)
        path = out_dir / f"workfactor_n{n}.{args.format}"
        if args.format == "json":
            _write_json(str(path), {"schema": 1, "n": n, "workfactor": rows})
        else:
            _write_text(str(path), _workfactor_csv(rows))
        qft_row = next(r for r in rows if r["algorithm"] == "qft")
        band.append((n, qft_row["ratio_vs_amplified"] / math.sqrt(n / args.m)))
        n *= 2
    for n, value in band:
        sys.stdout.write(f"n={n} ratio/sqrt(n/m)={_fmt(value)}\n")
    return EXIT_OK


_COMMON = {
    "n": dict(type=int, help="label-space size"),
    "m": dict(type=int, help="marked-set size"),
    "p": dict(type=int, help="period"),
    "s": dict(type=int, help="offset"),
    "seed": dict(type=int, help="PRNG seed (default 0)"),
    "out": dict(type=str, help="output path (default stdout)"),
    "format": dict(choices=["csv", "json"], help="output format (default csv)"),
    "q_max": dict(type=int, help="largest candidate period (default isqrt(n))"),
    "iterations_override": dict(type=int, help="override the amplification round count"),
}

# Defaults live here, not in the parser, so that a config value can fill
# any option a flag left unset.
_DEFAULTS = {
    "s": 0,
    "seed": 0,
    "format": "csv",
    "strict": True,
    "alg": "amplified",
    "verify": False,
    "method": "decreasing",
    "n_min": 256,
    "n_max": 16384,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused; parsing
    leaves it unchanged, since every parse fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="lpq",
        description="Exact simulation and analysis of period finding on marked arithmetic progressions",
    )
    parser.add_argument("--config", type=str, help="JSON file with default options")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, extra=()):
        sp = sub.add_parser(name)
        options = [
            sp.add_argument(f"--{key.replace('_', '-')}", default=None, **_COMMON[key])
            for key in ("n", "m", "p", "s", "seed", "out", "format", "q_max", "iterations_override")
        ]
        strict = sp.add_argument("--strict", action=argparse.BooleanOptionalAction, default=None)
        options.append(strict)
        options += [sp.add_argument(flag, **kwargs) for flag, kwargs in extra]
        # the subcommand's actions, by dest, for checking config values
        sp.set_defaults(func=func, options={action.dest: action for action in options})
        return sp

    add("spectrum", cmd_spectrum, [("--alg", dict(choices=[a.value for a in Algorithm], default=None))])
    add("compare", cmd_compare)
    add(
        "recover",
        cmd_recover,
        [
            ("--y", dict(type=int, required=True, help="measured frequency")),
            (
                "--verify",
                dict(action="store_true", default=None,
                     help="check the candidate against the oracle"),
            ),
        ],
    )
    add(
        "find-offset",
        cmd_find_offset,
        [
            ("--method", dict(choices=["counting", "decreasing"], default=None)),
            ("--period", dict(type=int, default=None, help="period candidate (default: the true one)")),
        ],
    )
    add(
        "trials",
        cmd_trials,
        [
            ("--alg", dict(choices=[a.value for a in Algorithm], default=None)),
            ("--runs", dict(type=int, default=None, help="Monte-Carlo runs")),
        ],
    )
    add(
        "sweep",
        cmd_sweep,
        [
            ("--n-min", dict(type=int, default=None)),
            ("--n-max", dict(type=int, default=None)),
        ],
    )
    return parser


def _read_config(path: str) -> dict:
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise ValidationError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(config, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    return config


def _config_value(key: str, value, action: argparse.Action):
    """``value`` if it is what the flag behind ``action`` takes (module
    docstring), else ValidationError."""
    if action.choices is not None:
        ok, wanted = value in action.choices, f"one of {', '.join(action.choices)}"
    elif action.type is None:  # a switch: --strict/--no-strict, --verify
        ok, wanted = isinstance(value, bool), "true or false"
    else:  # bool is an int subclass, so compare the exact type
        ok = type(value) is action.type
        wanted = {int: "an integer", str: "a string"}[action.type]
    if not ok:
        raise ValidationError(f"config option {key} must be {wanted}, got {json.dumps(value)}")
    return value


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    config = _read_config(args.config) if args.config else {}
    for key, action in args.options.items():
        if key in config:
            value = _config_value(key, config[key], action)
            if getattr(args, key) is None:
                setattr(args, key, value)
        if getattr(args, key) is None and key in _DEFAULTS:
            setattr(args, key, _DEFAULTS[key])
    return args


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args)
        if args.seed < 0:
            raise ValidationError(f"need seed >= 0, got {args.seed}")
        return args.func(args)
    except LpqError as exc:
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, ValidationError):
            return EXIT_VALIDATION
        if isinstance(exc, NonTermination):
            return EXIT_VERIFICATION
        return EXIT_LPQ_ERROR


if __name__ == "__main__":
    sys.exit(main())
