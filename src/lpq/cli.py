"""Command-line front end.

Subcommands: spectrum, compare, recover, find-offset, trials, sweep.
Each subcommand takes only the options it reads: every option is declared
once, in _OPTIONS, and _SUBCOMMANDS names the ones each subcommand takes.
Options can also come from a JSON config file (flat object keyed like the
long flags, with underscores: q_max); explicit flags override the file.
Each value must be what its flag takes: an integer for an integer option,
a string for a string one, one of the choices where there are choices, and
true or false for a switch.  A file that cannot be read or parsed, is not
a JSON object, or holds a value of another kind is a validation error.
Keys that only other subcommands have an option for are ignored, so one
file can serve several subcommands; a key that no subcommand has an option
for, such as a misspelled one, is a validation error.  Runs are fully
determined by their options, including the seed, so output files are
byte-identical across repeats.

Per-frequency tables (spectrum, compare) are emitted in bulk, with no
per-row Python template and no str made per row: every cell is built with
the literal text that follows it in its row attached, rows above n/2 reuse
the cells of their mirror rows, y cells are two pieces shared between
rows, and the whole document is one str.join over the pieces, row by row.
Float cells are formatted a column at a time in numpy by lpq.floattext,
which leaves to Python only the values it cannot certify; a column of
mostly repeated values is formatted once per distinct value.  A 2^16-row
table never goes through per-row numpy indexing or the json encoder.  The
output is byte-identical to formatting every value with format(x, ".17g")
and dumping the whole object with json.dumps(indent=1, sort_keys=True).

Exit codes:

    0  success
    1  any other lpq error (a computed figure broke a proven bound), or
       too little memory for an n-entry table
    2  validation failure: a bad instance, option or argument, or a table
       of n >= 2**63 entries
    3  no recovery candidate
    4  verification failed: the oracle probes rejected the candidate, or a
       seeded search gave up (for Monte-Carlo, when no candidate period
       survives verification, so no run can succeed; for the work factor,
       when a pipeline's runs all measure y = 0)

Errors print one ``error: ...`` line on stderr, not a traceback.

argv is parsed once.  Only --config, as ``--config F`` or ``--config=F``,
may come before the subcommand; a scan of those leading flags exits 2 at
any other flag there, and finds the subcommand, whose own parser then
reads the rest of argv into a namespace that already holds the command
and the last --config value.  The top-level parser reads argv only where
no known subcommand follows the leading flags (help, a missing or unknown
subcommand, a --config with no value: each ends in help or an error) or
where a --config value starts with '-', which argparse may read as a
flag.  Either way the namespace is the one the top-level parser would
give, and argparse writes every usage and error message.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis, closedform, offset, recovery, simulator
from .errors import BoundViolated, LpqError, NonTermination, ValidationError, VerificationFailed
from .floattext import float_cells
from .oracle import OracleHandle, build_oracle
from .spectrum import CASE_NAMES, CODE_GENERIC, CODE_RESONANT, Algorithm

EXIT_OK = 0
EXIT_LPQ_ERROR = 1
EXIT_VALIDATION = 2
EXIT_NO_CANDIDATE = 3
EXIT_VERIFICATION = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# Bulk table emission.  A row template, split at its %(field)s and
# %(field)d places, gives the text before a row's first cell (the head) and
# the text after each cell (its suffix).  The last cell's suffix runs on
# through the row separator into the next row's head, so the rows of a
# table are exactly its cells with their suffixes, taken row by row.  Cells
# are built suffix and all, for rows y = 0..n//2 only: every table is
# mirror-symmetric (ProbabilityTable), so _write_table fills the rows above
# from these by reversed slicing.  Float cells come from float_cells
# ("%.17g" prints a Python float exactly as format(x, ".17g"), and "%r"
# prints a finite one exactly as json.dumps does).  _column formats each
# distinct value once and takes every row's cell with one _gather, except
# where nearly every value is distinct: the probabilities at p coprime to
# n.  A y cell
# is two pieces made once per table and repeated by list repetition:
# y // 1000, empty below 1000, then the last three digits and the suffix,
# zero-padded from 1000 up.  _write_table interleaves the pieces by slice
# assignment and joins the document once, trimming the run-on from the
# last piece.  A JSON template lays out one element of a top-level "rows"
# list the way json.dumps(indent=1, sort_keys=True) does (depth 2, keys
# sorted), so _json_frame can splice the table into a dump of the other
# fields.  A CSV row is a line, newline included, so CSV rows need no
# separator; a CSV template's field names, in order, are its header.
_FIELD = re.compile(r"%\((\w+)\)[sd]")
_ROW_SEP = {"csv": "", "json": ",\n"}
_FLOAT_FORMAT = {"csv": "%.17g", "json": "%r"}
_ROWS_KEY = '\n "rows": []'  # the top-level key: only it sits one space in


@dataclasses.dataclass(frozen=True)
class _Layout:
    """A row template split at its fields: ``head`` comes before a row's
    first cell and ``suffix[field]`` after that field's cell.  The last
    field's suffix ends with the row separator and the next row's head,
    ``trim`` characters that the table's last cell drops."""

    head: str
    fields: tuple[str, ...]
    suffix: dict[str, str]
    trim: int

    @classmethod
    def parse(cls, template: str, sep: str) -> _Layout:
        head, *parts = _FIELD.split(template)
        fields, texts = parts[0::2], parts[1::2]
        texts[-1] += sep + head
        return cls(head, tuple(fields), dict(zip(fields, texts)), len(sep) + len(head))


def _layouts(**templates: str) -> dict[str, _Layout]:
    return {fmt: _Layout.parse(template, _ROW_SEP[fmt]) for fmt, template in templates.items()}


_SPECTRUM_ROW = _layouts(
    csv="%(y)d,%(case)s,%(pr_closedform)s,%(pr_simulated)s,%(abs_deviation)s\n",
    json='  {\n   "abs_deviation": %(abs_deviation)s,\n   "case": "%(case)s",\n'
    '   "pr_closedform": %(pr_closedform)s,\n   "pr_simulated": %(pr_simulated)s,\n'
    '   "y": %(y)d\n  }',
)
# compare rows are lists of strings in JSON
_COMPARE_ROW = _layouts(
    csv="%(y)d,%(case)s,%(ratio_vs_qft)s,%(ratio_vs_qhs)s,%(verdict)s\n",
    json='  [\n   "%(y)d",\n   "%(case)s",\n   "%(ratio_vs_qft)s",\n'
    '   "%(ratio_vs_qhs)s",\n   "%(verdict)s"\n  ]',
)
_VERDICTS = ("excluded", "pass", "FAIL")  # compare's verdict codes 0, 1, 2


def _distinct(values: np.ndarray, fmt: str, suffix: str) -> tuple[list[str], np.ndarray]:
    """``fmt % x + suffix`` for each distinct float64 x in values, and the
    index of every value's cell among them.

    Each distinct bit pattern is formatted once, by float_cells: a table's
    probabilities depend on p*y mod n, and its deviations are mostly 0 or
    a few ulps, so a column usually holds far fewer distinct values than
    rows.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return float_cells(bits.view(np.float64), fmt, suffix).tolist(), inverse


def _gather(cells: list[str], index: np.ndarray) -> list[str]:
    """``cells[i]`` for every i in index."""
    return np.array(cells, dtype=object)[index].tolist()


def _column(values: np.ndarray, fmt: str, suffix: str, distinct: bool = True) -> list[str]:
    """``fmt % x + suffix`` for every float64 x in values, each distinct
    value formatted once unless ``distinct`` is false."""
    if not distinct:
        return float_cells(values, fmt, suffix).tolist()
    return _gather(*_distinct(values, fmt, suffix))


def _names(names, suffix: str, codes: np.ndarray) -> list[str]:
    """``names[code] + suffix`` for every code."""
    return _gather([name + suffix for name in names], codes)


def _y_pieces(n: int, suffix: str) -> tuple[list[str], list[str]]:
    """The two pieces of the y cells of rows 0..n-1 (bulk emission comment)."""
    low = [f"{y}{suffix}" for y in range(min(n, 1000))]
    blocks = (n - 1) // 1000  # full or partial thousands past the first
    thousands = [""] * len(low)
    for t in range(1, blocks + 1):
        thousands += [str(t)] * 1000
    digits = low + [f"{y:03d}{suffix}" for y in range(1000)] * blocks
    del thousands[n:], digits[n:]
    return thousands, digits


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _write_json(out: str | None, obj) -> None:
    """Write json.dumps(obj, indent=1, sort_keys=True) and a newline."""
    _write_text(out, json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _json_frame(obj: dict) -> tuple[str, str]:
    """The text before and after the rows of obj plus a "rows" list, dumped
    as _write_json does."""
    head, tail = json.dumps({**obj, "rows": []}, indent=1, sort_keys=True).split(_ROWS_KEY)
    return head + '\n "rows": [\n', "\n ]" + tail + "\n"


def _csv_frame(header, trailer=()) -> tuple[str, str]:
    """The text before and after the rows of a CSV table, which are lines:
    the schema line and the header before, the trailer lines after."""
    return f"# schema=1\n{','.join(header)}\n", "".join(f"{line}\n" for line in trailer)


def _write_table(out: str | None, layout: _Layout, n: int, columns: dict[str, list[str]],
                 frame: tuple[str, str]) -> None:
    """Write the n-row table inside the frame's text before and after it.

    ``columns`` holds by field, each cell followed by its suffix, the cells
    of rows y = 0..n//2 of every field but y; row n - y repeats row y.
    """
    width = len(layout.fields) + 1  # a y cell is two pieces
    h = n // 2 + 1
    pieces = [""] * (width * n)
    i = 0
    for field in layout.fields:  # row-major, interleaved in C
        if field == "y":
            pieces[i::width], pieces[i + 1 :: width] = _y_pieces(n, layout.suffix["y"])
            i += 1
        else:
            half = columns[field]
            pieces[i : h * width : width] = half
            pieces[(n - 1) * width + i : (h - 1) * width + i : -width] = half[1 : n - h + 1]
        i += 1
    before, after = frame
    pieces[0] = before + layout.head + pieces[0]
    pieces[-1] = pieces[-1][: len(pieces[-1]) - layout.trim] + after
    _write_text(out, "".join(pieces))


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
    h = spec.n // 2 + 1  # the rows _write_table takes
    dev = np.abs(closed.pr[:h] - simulated.pr[:h])
    layout = _SPECTRUM_ROW[args.format]
    suffix, fmt = layout.suffix, _FLOAT_FORMAT[args.format]
    # At p coprime to n, no two of the rows share p*y mod n up to sign, and
    # nearly all their probabilities differ: a search for the distinct
    # ones would cost more than it saves.
    distinct = math.gcd(spec.p, spec.n) > 1
    columns = {
        "case": _names(CASE_NAMES, suffix["case"], closed.codes[:h]),
        "pr_closedform": _column(closed.pr[:h], fmt, suffix["pr_closedform"], distinct),
        "pr_simulated": _column(simulated.pr[:h], fmt, suffix["pr_simulated"], distinct),
        "abs_deviation": _column(dev, fmt, suffix["abs_deviation"]),
    }
    if args.format == "json":
        frame = _json_frame(
            {
                "schema": 1,
                "instance": {"n": spec.n, "m": spec.m, "p": spec.p, "s": spec.s},
                "algorithm": alg.value,
                "max_abs_deviation": float(dev.max()),
            }
        )
    else:
        frame = _csv_frame(layout.fields, [f"# max_abs_deviation={_fmt(dev.max())}"])
    _write_table(args.out, layout, spec.n, columns, frame)
    return EXIT_OK


def cmd_compare(args) -> int:
    spec = _spec_from(args)
    tables = {alg: closedform.closed_form_table(spec, alg) for alg in Algorithm}
    bounds = {
        alg: closedform.ratio_bounds(spec.n, spec.m, alg) for alg in (Algorithm.QFT, Algorithm.QHS)
    }
    succ = recovery.success_set(spec)
    sums = {alg: float(tables[alg].pr[succ].sum()) for alg in Algorithm}
    layout = _COMPARE_ROW[args.format]
    suffix = layout.suffix
    # Zero and null frequencies are excluded; every other one gets the two
    # ratios and a verdict.  Rows y = 0..n//2 hold every value of the table.
    h = spec.n // 2 + 1
    codes = tables[Algorithm.QFT].codes[:h]
    kept = (codes == CODE_RESONANT) | (codes == CODE_GENERIC)
    amp = tables[Algorithm.AMPLIFIED].pr[:h][kept]
    columns = {"case": _names(CASE_NAMES, suffix["case"], codes)}
    ok = np.ones(amp.size, dtype=bool)
    for alg, b in bounds.items():
        den = tables[alg].pr[:h][kept]
        if not den.all():
            raise BoundViolated(f"{alg.value} probability 0 at a resonant or generic frequency")
        ratio = amp / den
        ok &= b.admits(ratio)
        field = f"ratio_vs_{alg.value}"
        cells, inverse = _distinct(ratio, "%.17g", suffix[field])
        index = np.full(h, len(cells))  # the excluded cell, after the distinct ratios
        index[kept] = inverse
        columns[field] = _gather([*cells, "excluded" + suffix[field]], index)
    verdicts = np.zeros(h, dtype=np.int8)
    verdicts[kept] = np.where(ok, 1, 2)
    columns["verdict"] = _names(_VERDICTS, suffix["verdict"], verdicts)
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
        frame = _json_frame({"schema": 1, "summary": summary})
    else:
        trailer = [f"# {k}={json.dumps(v, sort_keys=True)}" for k, v in summary.items()]
        frame = _csv_frame(layout.fields, trailer)
    _write_table(args.out, layout, spec.n, columns, frame)
    return EXIT_OK


def cmd_recover(args) -> int:
    spec = _spec_from(args) if args.verify else None
    _require(args, "n", "y")
    n = args.n
    if spec is None:
        result = recovery.recover_period(args.y, n, args.q_max)
    else:
        result = analysis.verified_recovery(OracleHandle(spec), args.y, args.q_max)
    obj = result.to_json_obj()
    obj["n"] = n
    if args.format == "json":
        _write_json(args.out, obj)
    else:
        trailer = [f"# accepted={result.accepted}", f"# status={result.status.value}"]
        before, after = _csv_frame(["d", "q"], trailer)
        rows = "".join(f"{c.d},{c.q}\n" for c in result.candidates)
        _write_text(args.out, before + rows + after)
    if result.status is recovery.RecoveryStatus.NO_CANDIDATE:
        return EXIT_NO_CANDIDATE
    if result.status is recovery.RecoveryStatus.REJECTED:
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
        obj, code = dict(vars(result)), EXIT_OK  # its fields: no deep copy
    obj["schema"] = 1
    obj["period_candidate"] = period
    if args.format == "json":
        _write_json(args.out, obj)
    else:
        before, after = _csv_frame(["field", "value"])
        rows = "".join(f"{k},{json.dumps(v)}\n" for k, v in sorted(obj.items()))
        _write_text(args.out, before + rows + after)
    return code


def _workfactor_rows(spec) -> list[dict]:
    """The work-factor rows: one per pipeline, its report's fields in order."""
    return [
        {**vars(rep), "algorithm": rep.algorithm.value}
        for rep in analysis.workfactor_comparison(spec)
    ]


def _workfactor_csv(rows: list[dict], trailer: list[str] = ()) -> str:
    def cell(value) -> str:
        if value is None:
            return ""
        return _fmt(value) if isinstance(value, float) else str(value)

    header = list(rows[0])
    before, after = _csv_frame(header, trailer)
    return before + "".join(",".join(cell(r[k]) for k in header) + "\n" for r in rows) + after


def cmd_trials(args) -> int:
    spec = _spec_from(args)
    alg = Algorithm(args.alg)
    rows = _workfactor_rows(spec)
    payload = {"schema": 1, "workfactor": rows}
    if args.runs is not None:
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


# Every option of every subcommand, by dest: its argparse keywords, with
# its default if it has one.  The parser adds each option with
# default=None, so that a config value can fill any option a flag left
# unset; _apply_config puts the default in after that.
_OPTIONS = {
    "n": dict(type=int, help="label-space size"),
    "m": dict(type=int, help="marked-set size"),
    "p": dict(type=int, help="period"),
    "s": dict(type=int, default=0, help="offset"),
    "seed": dict(type=int, default=0, help="PRNG seed (default 0)"),
    "out": dict(type=str, help="output file (default stdout); for sweep, a directory (default .)"),
    "format": dict(choices=["csv", "json"], default="csv", help="output format (default csv)"),
    "q_max": dict(type=int, help="largest candidate period (default isqrt(n))"),
    "iterations_override": dict(type=int, help="override the amplification round count"),
    "strict": dict(action=argparse.BooleanOptionalAction, default=True),
    "alg": dict(choices=[a.value for a in Algorithm], default="amplified"),
    "y": dict(type=int, help="measured frequency"),
    "verify": dict(action="store_true", default=False, help="check the candidate against the oracle"),
    "method": dict(choices=["counting", "decreasing"], default="decreasing"),
    "period": dict(type=int, help="period candidate (default: the true one)"),
    "runs": dict(type=int, help="Monte-Carlo runs"),
    "n_min": dict(type=int, default=256),
    "n_max": dict(type=int, default=16384),
}

# Each subcommand's function and the options it reads.  recover reads m,
# p, s and strict only with --verify.
_SHARED = {"n", "m", "p", "s", "strict", "out", "format"}  # the instance and the output
_SUBCOMMANDS = {
    "spectrum": (cmd_spectrum, _SHARED | {"iterations_override", "alg"}),
    "compare": (cmd_compare, _SHARED),
    "recover": (cmd_recover, _SHARED | {"q_max", "y", "verify"}),
    "find-offset": (cmd_find_offset, _SHARED | {"seed", "method", "period"}),
    "trials": (cmd_trials, _SHARED | {"seed", "alg", "runs"}),
    "sweep": (cmd_sweep, _SHARED - {"n"} | {"n_min", "n_max"}),
}


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and each subcommand's parser by name, built on
    first use and then reused; parsing leaves them unchanged, since every
    parse fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="lpq",
        allow_abbrev=False,
        description="Exact simulation and analysis of period finding on marked arithmetic progressions",
    )
    parser.add_argument("--config", type=str, help="JSON file with default options")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, names) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        for key, option in _OPTIONS.items():
            if key in names:
                sp.add_argument(f"--{key.replace('_', '-')}", **{**option, "default": None})
    return parser, sub.choices


def _read_config(path: str) -> dict:
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise ValidationError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(config, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    return config


def _check_config_value(key: str, value) -> None:
    """ValidationError unless ``value`` is what option ``key``'s flag takes
    (module docstring)."""
    option = _OPTIONS[key]
    if "choices" in option:
        ok, wanted = value in option["choices"], f"one of {', '.join(option['choices'])}"
    elif "type" not in option:  # a switch: --strict/--no-strict, --verify
        ok, wanted = isinstance(value, bool), "true or false"
    else:  # bool is an int subclass, so compare the exact type
        ok = type(value) is option["type"]
        wanted = {int: "an integer", str: "a string"}[option["type"]]
    if not ok:
        raise ValidationError(f"config option {key} must be {wanted}, got {json.dumps(value)}")


def _apply_config(args: argparse.Namespace, names) -> None:
    """Fill the options in ``names`` that no flag set from the config file,
    else from their defaults."""
    config = _read_config(args.config) if args.config else {}
    unknown = sorted(config.keys() - _OPTIONS.keys())
    if unknown:
        raise ValidationError(
            f"config file {args.config} has options no subcommand takes: {', '.join(unknown)}"
        )
    for key, option in _OPTIONS.items():
        if key in names:
            if key in config:
                _check_config_value(key, config[key])
            if getattr(args, key) is None:
                setattr(args, key, config.get(key, option.get("default")))


def _check_leading_flags(
    parser: argparse.ArgumentParser, argv: list[str]
) -> tuple[int | None, str | None]:
    """The index of the first token past the leading --config flags and the
    last --config value, or (None, None) where a value starts with '-' (an
    option or a negative number: argparse decides) or no token is left.

    Exit 2 under lpq's usage line at an unknown flag before the subcommand,
    which argparse would report under the subcommand's usage line, or whose
    value it would take for the subcommand."""
    tokens = enumerate(argv)
    config, plain = None, True
    for i, token in tokens:
        if token == "--config":
            _, config = next(tokens, (i, ""))  # no value left: the loop ends
            plain = plain and not config.startswith("-")
        elif token.startswith("--config="):
            config = token[len("--config="):]
        elif token in ("-", "--", "-h", "--help") or not token.startswith("-"):
            return (i, config) if plain else (None, None)
        else:
            parser.error(f"unrecognized arguments: {token}")
    return None, None


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed once, by the subcommand's own parser where the leading
    flags are followed by a known one (module docstring)."""
    parser, commands = _build_parser()
    i, config = _check_leading_flags(parser, argv)
    command = argv[i] if i is not None else None
    if command in commands:
        namespace = argparse.Namespace(config=config, command=command)
        args, unknown = commands[command].parse_known_args(argv[i + 1 :], namespace)
    else:  # help, no known subcommand, or a --config value argparse must read
        args, unknown = parser.parse_known_args(argv)
    if unknown:  # under the subcommand's usage line, which lists its flags
        commands[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    func, names = _SUBCOMMANDS[args.command]
    try:
        _apply_config(args, names)
        if "seed" in names and args.seed < 0:
            raise ValidationError(f"need seed >= 0, got {args.seed}")
        return func(args)
    except (LpqError, MemoryError) as exc:  # numpy's MemoryError names the array it lacks
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, ValidationError):
            return EXIT_VALIDATION
        if isinstance(exc, NonTermination):
            return EXIT_VERIFICATION
        return EXIT_LPQ_ERROR


if __name__ == "__main__":
    sys.exit(main())
