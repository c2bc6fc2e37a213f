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
the cells of their mirror rows, and y cells are two pieces shared between
rows.  A table is formatted, joined and written in blocks of rows, each
one str.join over its pieces, row by row, so the text held at once is one
block's whatever n; --out is opened once and receives every block.  A
text stream with no byte buffer beneath it, such as an io.StringIO, gets
the whole table as one block and one write instead: a sink that keeps the
whole text in memory gains nothing from blocks, and one block reads each
half row once, where blocks read every mirror row again.  No n-entry
closed-form table is built: one spectral kernel, scaled for each pipeline
a table prints, gives the closed form of the rows of a block, or, where p
shares a factor with n, of the few frequencies every row repeats, once.
Float cells are formatted in numpy by lpq.floattext, which leaves to
Python only the values it cannot certify; a column of mostly repeated
values is formatted once per distinct value.  A 2^16-row table never goes
through per-row numpy indexing or the json encoder.  The output is
byte-identical to formatting every value with format(x, ".17g") and
dumping the whole object with json.dumps(indent=1, sort_keys=True).
Every check that can fail a run comes before the first byte of its
output, so a run that ends in an error line writes nothing to stdout and
leaves an --out file as it was; sweep checks each n before it writes that
n's file.  For a table, a first pass over its rows in blocks checks every
closed-form value as make_table checks a table and finds what heads the
table, keeping only the distinct values of the deviation or ratio columns.

Exit codes:

    0  success
    1  any other lpq error (a computed figure broke a proven bound), or
       too little memory for an n-entry table
    2  validation failure: a bad instance, option or argument, a table of
       n >= 2**63 entries, or an output, stdout or --out, that cannot
       be written
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
import contextlib
import dataclasses
import errno
import functools
import json
import math
import os
import re
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import analysis, closedform, offset, recovery, simulator
from .errors import BoundViolated, LpqError, NonTermination, ValidationError, VerificationFailed
from .floattext import float_cells
from .oracle import OracleHandle, build_oracle
from .spectrum import (
    CASE_NAMES,
    CODE_GENERIC,
    CODE_RESONANT,
    Algorithm,
    case_codes,
    check_entries,
    check_total,
)

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
# table are exactly its cells with their suffixes, taken row by row.  A
# table is a function from a range of rows y = 0..n//2 to each field's
# cells, suffix and all: every table is mirror-symmetric (ProbabilityTable),
# so _block fills the rows above n/2 from their mirror rows by reversed
# slicing.  Its closed-form values come from _ClosedForm, which folds each
# row onto the frequency whose value it repeats.  Float cells come from
# float_cells ("%.17g" prints a Python float exactly as format(x, ".17g"),
# and "%r" prints a finite one exactly as json.dumps does), a list of str.
# _Distinct formats each distinct value of a column once, and a range's
# cells are one gather from those, except where nearly every value is
# distinct, the probabilities at p coprime to n: there each range's values
# are formatted as it is taken.  A y cell is two pieces: y // 1000, empty
# below 1000, then the last three digits and the suffix, zero-padded from
# 1000 up; each block slices both from tuples made once.  _write_table
# takes the table _BLOCK_ROWS rows at a time: _block interleaves a block's
# pieces by slice assignment, and each block is joined once and written at
# once, the last trimmed of its run-on.  So the text held at any time is one
# block's, whatever n.  At n = 2^16, 4,096 rows a block wrote sixteen
# spectrum and compare tables to a file in 0.43 s, against 0.47 s with
# 2,048 or 8,192 rows; at 2^22, 4,096 and 8,192 rows tied within the
# host's noise, and the smaller block holds half the text.  The exception
# is a text stream with no byte buffer beneath it (an io.StringIO, as
# contextlib.redirect_stdout callers pass): it keeps the whole text in
# memory, so blocks save it nothing, and it gets the whole table as one
# block, which reads each half row once.  Blocks read every mirror row
# again, and at p coprime to n evaluate and format it again.  A JSON
# template lays out one element of a top-level "rows" list the way
# json.dumps(indent=1, sort_keys=True) does (depth 2, keys sorted), so
# _json_frame can splice the table into a dump of the other fields.  A CSV
# row is a line, newline included, so CSV rows need no separator; a CSV
# template's field names, in order, are its header.
_FIELD = re.compile(r"%\((\w+)\)[sd]")
_ROW_SEP = {"csv": "", "json": ",\n"}
_FLOAT_FORMAT = {"csv": "%.17g", "json": "%r"}
_ROWS_KEY = '\n "rows": []'  # the top-level key: only it sits one space in
_BLOCK_ROWS = 1 << 12
# a table: the cells of rows lo..hi-1, by field
_Cells = Callable[[int, int], dict[str, list[str]]]


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


class _Distinct:
    """The column cells ``fmt % x + suffix`` of a set of float64 values,
    each distinct bit pattern formatted once by float_cells, followed by
    the ``extra`` cells.  ``at`` gives the cells of the values the set was
    built from, and ``index`` where the cell of any value from among them
    is in ``cells``."""

    def __init__(self, values: np.ndarray, fmt: str, suffix: str, extra: tuple[str, ...]):
        self.bits, self.inverse = np.unique(values.view(np.int64), return_inverse=True)
        cells = float_cells(self.bits.view(np.float64), fmt, suffix)
        self.cells = np.array([*cells, *extra], dtype=object)

    def at(self, rows) -> list[str]:
        """The cells of the values at ``rows`` (an index or a slice) of
        the values the set was built from."""
        return self.cells[self.inverse[rows]].tolist()

    def index(self, values: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.bits, values.view(np.int64))


def _distinct_bits(values: np.ndarray) -> np.ndarray:
    """The distinct bit patterns among float64 values, sorted.  np.unique
    does this too, but without return_inverse it imports numpy.ma, whose
    memory then shows in a run's peak."""
    bits = np.sort(values.view(np.int64))
    first = np.ones(bits.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    return bits[first]


def _names(names, suffix: str) -> Callable[[np.ndarray], list[str]]:
    """The cells ``names[code] + suffix`` of a range of rows' codes."""
    table = np.array([name + suffix for name in names], dtype=object)
    return lambda codes: table[codes].tolist()


class _ClosedForm:
    """The closed form of some pipelines at rows y = 0..n//2 of an n-row
    table, from one spectral kernel scaled by each pipeline's constants.

    Row y takes the value at its fold point.  With P = n/gcd(n, p), these
    are y = 0..P//2 and, where P < n, y = P: y = 0 folds to y = 0, a
    resonant row (P divides y, y > 0) to y = P, and any other to y mod P
    or P - (y mod P), whichever is at most P//2.  Where P = n every row is
    its own fold point.  closed_form_at reads y only through p*y mod n,
    folded to min(r, n - r), so each value is the closed-form table's bit
    for bit.  The kernel is evaluated once at every fold point, and
    ``points`` holds each pipeline's values there, where P < n or where
    ``whole`` asks for it; otherwise ``points`` is None, and each range of
    rows is evaluated as it is asked for.
    """

    def __init__(self, spec, algorithms, iterations: int | None, whole: bool):
        n = spec.n
        self.spec, self.period = spec, n // math.gcd(n, spec.p)
        self.constants = [closedform.pipeline_constants(spec, a, iterations) for a in algorithms]
        self.points = None
        if self.period < n:
            self.points = self._evaluate(np.append(np.arange(self.period // 2 + 1), self.period))
        elif whole:
            self.points = self._evaluate(np.arange(n // 2 + 1))

    def _evaluate(self, ys: np.ndarray) -> list[np.ndarray]:
        kernel = closedform.spectral_kernel(self.spec, ys)
        outs = [np.empty(ys.size) for _ in self.constants[1:]] + [kernel.ratio]
        return [kernel.probabilities(c, out) for c, out in zip(self.constants, outs)]

    def fold(self, lo: int, hi: int) -> np.ndarray:
        """The fold of each row lo..hi-1, in 0..n//2, as its index among the
        points y = 0..P//2 and y = P; where P = n, the row itself."""
        ys = np.arange(lo, hi)
        if self.period == self.spec.n:
            return ys
        r = ys % self.period
        fold = np.minimum(r, self.period - r)
        fold[(r == 0) & (ys != 0)] = self.period // 2 + 1  # y = P, kept apart from y = 0
        return fold

    def at(self, points: np.ndarray) -> list[np.ndarray]:
        """Each pipeline's values at the given points, as fold gives them."""
        if self.points is None:
            return self._evaluate(points)
        return [values[points] for values in self.points]

    def checked(self):
        """Rows 0..n//2 in blocks, as (lo, hi, their values), each block
        checked as make_table checks a table before it is yielded: every
        value finite and non-negative.  After the last block, each
        pipeline's sum over the n rows of the table, where row y stands
        for rows y and n - y, must lie within NORMALIZATION_TOL of 1."""
        n = self.spec.n
        totals = [0.0] * len(self.constants)
        for lo in range(0, n // 2 + 1, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n // 2 + 1)
            values = self.at(self.fold(lo, hi))
            ys = np.arange(lo, hi)
            weights = 2.0 - (ys == 0) - (2 * ys == n)
            for k, pr in enumerate(values):
                check_entries(pr)
                totals[k] += float(pr @ weights)
            yield lo, hi, values
        for total in totals:
            check_total(total)


@functools.cache
def _y_digits(suffix: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Each y below 1000, and each three-digit group 000..999, followed by
    suffix."""
    low = tuple(f"{y}{suffix}" for y in range(1000))
    return low, tuple(f"{y:03d}{suffix}" for y in range(1000))


def _y_pieces(a: int, b: int, suffix: str) -> tuple[list[str], list[str]]:
    """The two pieces of the y cells of rows a..b-1 (bulk emission comment)."""
    low, groups = _y_digits(suffix)
    thousands, digits = [], []
    for t in range(a // 1000, (b + 999) // 1000):
        lo, hi = max(a - 1000 * t, 0), min(b - 1000 * t, 1000)
        thousands += [str(t) if t else ""] * (hi - lo)
        digits += (groups if t else low)[lo:hi]
    return thousands, digits


@contextlib.contextmanager
def _opened(out: str | None):
    """The write method of the file ``out``, opened once, or of stdout as
    it is at call time; the one way any output leaves the CLI.  An OSError
    from opening, writing, flushing or closing either is a ValidationError;
    stdout's descriptor then points at os.devnull, so that the bytes its
    buffer kept do not fail again in the flush at exit (exit code 120)."""
    try:
        with contextlib.nullcontext(sys.stdout) if out is None else open(out, "w") as f:
            yield f.write
            f.flush()
    except OSError as exc:
        if out is None:
            with contextlib.suppress(AttributeError, OSError):  # a sink with no descriptor
                fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
        raise _unwritable(out, exc) from None


def _unwritable(path, exc: OSError) -> ValidationError:
    target = "stdout" if path is None else repr(str(path))  # quoted: "" shows as ''
    return ValidationError(f"cannot write {target}: {exc.strerror}")


def _write_text(out: str | None, text: str) -> None:
    with _opened(out) as write:
        write(text)


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


def _cell(value) -> str:
    """A CSV cell: empty for None, _fmt of a float, else str."""
    if value is None:
        return ""
    return _fmt(value) if isinstance(value, float) else str(value)


def _write_csv(out: str | None, header, rows, trailer=()) -> None:
    """Write a CSV table, one line of _cell texts per row."""
    before, after = _csv_frame(header, trailer)
    _write_text(out, before + "".join(",".join(map(_cell, row)) + "\n" for row in rows) + after)


def _block(layout: _Layout, n: int, cells: _Cells, a: int, b: int) -> list[str]:
    """The pieces of rows a..b-1 of the n-row table, row by row."""
    width = len(layout.fields) + 1  # a y cell is two pieces

    def half(y: int) -> int:  # row y repeats this row of y = 0..n//2
        return min(y, n - y)

    # half(y) rises to n//2 and falls after it, so the block reads rows lo..hi-1
    lo, hi = min(half(a), half(b - 1)), half(min(max(n // 2, a), b - 1)) + 1
    mid = min(max(a, n // 2 + 1), b)  # rows a..mid-1 read themselves, mid..b-1 their mirrors
    columns = cells(lo, hi)
    pieces = [""] * (width * (b - a))
    i = 0
    for field in layout.fields:  # row-major, interleaved in C
        if field == "y":
            pieces[i::width], pieces[i + 1 :: width] = _y_pieces(a, b, layout.suffix["y"])
            i += 1
        else:
            column = columns[field]
            pieces[i : (mid - a) * width : width] = column[a - lo : mid - lo]
            # rows b-1 down to mid take rows n-b+1 up to n-mid
            mirrors = column[n - b + 1 - lo : n - mid + 1 - lo]
            stop = (mid - a - 1) * width + i if mid > a else None
            pieces[(b - a - 1) * width + i : stop : -width] = mirrors
        i += 1
    return pieces


def _write_table(out: str | None, layout: _Layout, n: int, cells: _Cells,
                 frame: tuple[str, str]) -> None:
    """Write the n-row table inside the frame's text before and after it,
    a block of rows at a time (bulk emission comment).

    ``cells`` gives the cells of a range of rows y = 0..n//2 for every
    field but y, each followed by its suffix; row n - y repeats row y.
    """
    rows = n if out is None and getattr(sys.stdout, "buffer", None) is None else _BLOCK_ROWS
    before, after = frame
    with _opened(out) as write:
        for a in range(0, n, rows):
            b = min(a + rows, n)
            pieces = _block(layout, n, cells, a, b)
            if a == 0:
                pieces[0] = before + layout.head + pieces[0]
            if b == n:
                pieces[-1] = pieces[-1][: len(pieces[-1]) - layout.trim] + after
            write("".join(pieces))


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
    codes = case_codes(spec.n, spec.m, spec.p)  # the first n-entry array: a too-large n fails here
    simulated = simulator.simulated_table(spec, alg, iterations=args.iterations_override).pr
    # The closed form at every fold point, once: half the simulated
    # column's size, held after the simulation's larger arrays are freed.
    closed = _ClosedForm(spec, [alg], args.iterations_override, whole=True)
    # The largest deviation heads the table, so every row's comes first:
    # each block's distinct deviations, and each row's index among them,
    # then among the distinct deviations of all rows.
    deviation, blocks, largest = np.empty(spec.n // 2 + 1, dtype=np.int32), [], 0.0
    for lo, hi, (pr,) in closed.checked():
        dev = np.abs(pr - simulated[lo:hi])
        largest = max(largest, float(dev.max()))
        bits, deviation[lo:hi] = np.unique(dev.view(np.int64), return_inverse=True)
        blocks.append((lo, hi, bits))
    layout = _SPECTRUM_ROW[args.format]
    suffix, fmt = layout.suffix, _FLOAT_FORMAT[args.format]
    case = _names(CASE_NAMES, suffix["case"])
    # At p coprime to n, no two of the rows share p*y mod n up to sign, and
    # nearly all their probabilities differ: a search for the distinct
    # ones would cost more than it saves.
    periodic = closed.period < spec.n
    if periodic:
        closed_column = _Distinct(closed.points[0], fmt, suffix["pr_closedform"], ())
        simulated_column = _Distinct(simulated[: spec.n // 2 + 1], fmt, suffix["pr_simulated"], ())
    bits = np.concatenate([bits for _, _, bits in blocks])
    deviation_column = _Distinct(bits.view(np.float64), fmt, suffix["abs_deviation"], ())
    for lo, hi, bits in blocks:
        deviation[lo:hi] = deviation_column.index(bits.view(np.float64))[deviation[lo:hi]]

    def cells(lo: int, hi: int) -> dict[str, list[str]]:
        fold = closed.fold(lo, hi)
        if periodic:
            pr_cells, sim_cells = closed_column.at(fold), simulated_column.at(slice(lo, hi))
        else:
            pr_cells = float_cells(closed.at(fold)[0], fmt, suffix["pr_closedform"])
            sim_cells = float_cells(simulated[lo:hi], fmt, suffix["pr_simulated"])
        return {
            "case": case(codes[lo:hi]),
            "pr_closedform": pr_cells,
            "pr_simulated": sim_cells,
            "abs_deviation": deviation_column.cells[deviation[lo:hi]].tolist(),
        }

    if args.format == "json":
        frame = _json_frame(
            {
                "schema": 1,
                "instance": {"n": spec.n, "m": spec.m, "p": spec.p, "s": spec.s},
                "algorithm": alg.value,
                "max_abs_deviation": largest,
            }
        )
    else:
        frame = _csv_frame(layout.fields, [f"# max_abs_deviation={_fmt(largest)}"])
    _write_table(args.out, layout, spec.n, cells, frame)
    return EXIT_OK


def cmd_compare(args) -> int:
    spec = _spec_from(args)
    codes = case_codes(spec.n, spec.m, spec.p)  # the first n-entry array: a too-large n fails here
    closed = _ClosedForm(spec, list(Algorithm), None, whole=False)  # amplified first
    bounds = {
        alg: closedform.ratio_bounds(spec.n, spec.m, alg) for alg in (Algorithm.QFT, Algorithm.QHS)
    }
    succ = recovery.success_set(spec)
    sums = {alg: float(closedform.closed_form_at(spec, alg, succ).sum()) for alg in Algorithm}

    def ratios(lo: int, hi: int, values) -> tuple[np.ndarray, dict]:
        """Which of rows lo..hi-1 have ratios, and each baseline's ratios
        there.  Zero and null frequencies are excluded; every other one
        gets the two ratios and a verdict."""
        kept = (codes[lo:hi] == CODE_RESONANT) | (codes[lo:hi] == CODE_GENERIC)
        amp, *dens = (pr[kept] for pr in values)
        for alg, den in zip(bounds, dens):
            if not den.all():
                raise BoundViolated(
                    f"{alg.value} probability 0 at a resonant or generic frequency"
                )
        return kept, {alg: amp / den for alg, den in zip(bounds, dens)}

    # Whether every row is within the bounds heads the table, so every
    # row's ratios come first; only their distinct values are kept.
    ok, found = True, {alg: [] for alg in bounds}
    for lo, hi, values in closed.checked():
        for alg, ratio in ratios(lo, hi, values)[1].items():
            ok = ok and bool(bounds[alg].admits(ratio).all())
            found[alg].append(_distinct_bits(ratio))
    layout = _COMPARE_ROW[args.format]
    suffix = layout.suffix
    case, verdict = _names(CASE_NAMES, suffix["case"]), _names(_VERDICTS, suffix["verdict"])
    columns = {
        alg: _Distinct(np.concatenate(found[alg]).view(np.float64), "%.17g",
                       suffix[f"ratio_vs_{alg.value}"],
                       ("excluded" + suffix[f"ratio_vs_{alg.value}"],))
        for alg in bounds
    }

    def cells(lo: int, hi: int) -> dict[str, list[str]]:
        kept, got = ratios(lo, hi, closed.at(closed.fold(lo, hi)))
        row = {"case": case(codes[lo:hi])}
        passed = np.ones(np.count_nonzero(kept), dtype=bool)
        for alg, ratio in got.items():
            column = columns[alg]
            index = np.full(hi - lo, column.bits.size)  # the excluded cell
            index[kept] = column.index(ratio)
            row[f"ratio_vs_{alg.value}"] = column.cells[index].tolist()
            passed &= bounds[alg].admits(ratio)
        verdicts = np.zeros(hi - lo, dtype=np.int8)
        verdicts[kept] = np.where(passed, 1, 2)
        row["verdict"] = verdict(verdicts)
        return row

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
        "all_rows_within_bounds": ok,
    }
    if args.format == "json":
        frame = _json_frame({"schema": 1, "summary": summary})
    else:
        trailer = [f"# {k}={json.dumps(v, sort_keys=True)}" for k, v in summary.items()]
        frame = _csv_frame(layout.fields, trailer)
    _write_table(args.out, layout, spec.n, cells, frame)
    return EXIT_OK


def cmd_recover(args) -> int:
    spec = _spec_from(args) if args.verify else None
    _require(args, "n", "y")
    n = args.n
    if spec is None:
        result = recovery.recover_period(args.y, n, args.q_max)
    else:
        result = analysis.verified_recovery(OracleHandle(spec), args.y, args.q_max)
    status = result.status.value
    if args.format == "json":
        convergents = [[c.d, c.q] for c in result.candidates]
        _write_json(args.out, {"n": n, "y": result.y, "convergents": convergents,
                               "accepted": result.accepted, "status": status})
    else:
        trailer = [f"# accepted={result.accepted}", f"# status={status}"]
        _write_csv(args.out, ["d", "q"], result.candidates, trailer)
    if result.status is recovery.RecoveryStatus.NO_CANDIDATE:
        return EXIT_NO_CANDIDATE
    if result.status is recovery.RecoveryStatus.REJECTED:
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_find_offset(args) -> int:
    spec = _spec_from(args)
    handle = OracleHandle(spec)
    counting = args.method == "counting"
    search = offset.find_offset_counting if counting else offset.find_offset_decreasing
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
        rows = [(k, json.dumps(v)) for k, v in sorted(obj.items())]
        _write_csv(args.out, ["field", "value"], rows)
    return code


def _workfactor_rows(spec) -> list[dict]:
    """The work-factor rows: one per pipeline, its report's fields in order."""
    return [
        {**vars(rep), "algorithm": rep.algorithm.value}
        for rep in analysis.workfactor_comparison(spec)
    ]


def cmd_trials(args) -> int:
    spec = _spec_from(args)
    alg = Algorithm(args.alg)
    rows = _workfactor_rows(spec)
    payload = {"schema": 1, "workfactor": rows}
    if args.runs is not None:
        stats = analysis.monte_carlo_trials(alg, spec, args.runs, args.seed)
        payload["monte_carlo"] = {"algorithm": args.alg, "runs": stats.runs, "mean": stats.mean,
                                  "variance": stats.variance, "ci95": list(stats.ci95)}
    _write_workfactor(args.out, args.format, payload)
    return EXIT_OK


def _write_workfactor(out: str | None, fmt: str, payload: dict) -> None:
    """Write the payload as JSON, or its work-factor rows as a CSV table
    under a header of their keys, with a Monte-Carlo summary as a trailer."""
    if fmt == "json":
        _write_json(out, payload)
        return
    rows, mc = payload["workfactor"], payload.get("monte_carlo")
    trailer = [] if mc is None else [f"# monte_carlo={json.dumps(mc, sort_keys=True)}"]
    _write_csv(out, list(rows[0]), [r.values() for r in rows], trailer)


def cmd_sweep(args) -> int:
    _require(args, "m", "p")
    out_dir = Path(args.out or ".")  # --out "" is the current directory too
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unwritable(out_dir, exc) from None
    n = args.n_min
    band = []
    while n <= args.n_max:
        spec = build_oracle(n, args.m, args.p, args.s, strict=args.strict)
        rows = _workfactor_rows(spec)
        path = out_dir / f"workfactor_n{n}.{args.format}"
        _write_workfactor(str(path), args.format, {"schema": 1, "n": n, "workfactor": rows})
        qft_row = next(r for r in rows if r["algorithm"] == "qft")
        band.append((n, qft_row["ratio_vs_amplified"] / math.sqrt(n / args.m)))
        n *= 2
    _write_text(None, "".join(f"n={n} ratio/sqrt(n/m)={_fmt(value)}\n" for n, value in band))
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
        if not path:  # Path("") is the current directory, which is no file
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        config = json.loads(Path(path).read_text())
    except OSError as exc:  # the path is quoted once, before the reason
        raise ValidationError(f"cannot read config file {path!r}: {exc.strerror}") from None
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise ValidationError(f"cannot read config file {path!r}: {exc}") from None
    if not isinstance(config, dict):
        raise ValidationError(f"config file {path!r} must hold a JSON object")
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
    config = _read_config(args.config) if args.config is not None else {}
    unknown = sorted(config.keys() - _OPTIONS.keys())
    if unknown:
        raise ValidationError(
            f"config file {args.config!r} has options no subcommand takes: {', '.join(unknown)}"
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
