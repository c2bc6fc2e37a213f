"""Layered benchmark for lpq.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke          # all workloads at tiny sizes, plus the self-test

Run from the root of a source checkout: the package is imported from
./src and nowhere else.  One process, one thread, one client in a closed
loop: each operation is a call to ``lpq.cli.main(argv)`` or a library
function and starts when the previous one has ended.  Operations come in
cycles generated from the seed; the loop runs the first cycle whole, then
the ops of the next cycles in order until ``--seconds`` have passed.  Every operation's output is checked against
the independent references in ``checks.py``.  ``attempted`` and
``failed`` count distinct operations: an operation repeated in every
cycle is attempted once, and fails if any of its repetitions fails, so
the counts depend on the seed and not on how many cycles fit in the run.

With ``--trace 0`` the last line carries the gated end-to-end metrics:
setup_s, work_per_s (the workload's throughput in its own unit of work,
timed by each op's median repetition in the run) and peak_rss_mb (of a
child process that runs one cycle of the ops with no checks).  The two
timings are in calibrated seconds (``calibrate.py``), except work_per_s on
the WALL_CLOCK workloads: each is divided by the time of an lpq-free
reference kernel run next to it, so that the slowdowns the shared host
imposes on everything cancel; the report line gives them in wall seconds
too.
With ``--trace 1`` each operation runs twice, untraced and then under the
spans of ``tracing.py``; the last line carries the per-layer metrics, the
tracing overhead and the reconciliation of executed work against the cost
model.  The line before it is a full report of the run, including
all seven end-to-end metrics the workloads are defined for and every
failure by kind.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import calibrate
import checks
import provenance
from tracing import ORACLE_CALL, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = Path(__file__).resolve().parent / ".scratch"
SETUP_AT_ENDS = 3  # set-up samples before and after the loop
SETUP_EVERY = 2.0  # seconds between two set-up samples inside the loop
MC_TARGET_TRIALS = 25_000  # expected trials per Monte-Carlo op, 0.1-0.3 s: 10+ repetitions a run
MC_MIN_SUCCESS = 5e-6  # instances whose single run expects over 2e5 trials are redrawn

lpq = None  # the package under test, imported from SRC by load_lpq()


def load_lpq():
    global lpq
    if not (SRC / "lpq" / "__init__.py").is_file():
        sys.stderr.write(f"error: no lpq sources under {SRC}; run from a source checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import lpq.cli

    if Path(lpq.__file__).resolve().parent != SRC / "lpq":
        sys.stderr.write(f"error: imported lpq from {lpq.__file__}, not from {SRC}\n")
        sys.exit(2)
    warnings.simplefilter("ignore", RuntimeWarning)  # n above the soft ceiling is intended


# --- operations ---------------------------------------------------------------


@dataclass
class Outcome:
    code: int
    stdout: str = ""
    value: object = None  # library result, or sweep files


@dataclass
class Op:
    kind: str
    n: int
    run: Callable[[io.TextIOBase | None], Outcome]  # argument: output sink, None to capture
    check: Callable[[Outcome], list[str]]
    exits: tuple = (0,)
    facts: Callable[[Outcome], dict] = lambda out: {}
    grover_rounds: int | None = None  # charged rounds, for amplified table ops
    dft_calls: int | None = None  # charged transforms, for amplified and qft table ops


def cli_call(argv: list[str], sink: io.TextIOBase | None = None) -> Outcome:
    """``lpq.cli.main(argv)`` with stdout captured, or written to ``sink``."""
    out = io.StringIO() if sink is None else sink
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(sink or io.StringIO()):
        code = lpq.cli.main(argv)
    return Outcome(code, out.getvalue() if sink is None else "")


def instance_args(n, m, p, s) -> list[str]:
    return ["--n", str(n), "--m", str(m), "--p", str(p), "--s", str(s)]


def draw_instance(rng: random.Random, n: int, m_lo: int, m_hi: int):
    """A strict instance: m in [m_lo, m_hi], 2 <= p <= sqrt(n), the
    progression inside 0..n-1."""
    m = rng.randint(m_lo, m_hi)
    p = rng.randint(2, min(int(n**0.5), (n - 1) // (m - 1)))
    s = rng.randint(0, n - 1 - (m - 1) * p)
    return m, p, s


def strata(lo: int, hi: int, k: int) -> list[tuple[int, int]]:
    """[lo, hi] cut into k consecutive ranges, so that instances drawn one
    per range cover the whole range whatever the seed."""
    width = (hi - lo + 1) / k
    return [(lo + round(i * width), lo + round((i + 1) * width) - 1) for i in range(k)]


def table_facts(n: int) -> Callable[[Outcome], dict]:
    return lambda out: {"freq": n, "rows": n}


def spectrum_op(n, m, p, s, alg, fmt) -> Op:
    argv = ["spectrum", "--alg", alg, "--format", fmt] + instance_args(n, m, p, s)
    amplified = alg == "amplified"
    return Op(
        f"spectrum-{alg}",
        n,
        lambda sink: cli_call(argv, sink),
        lambda out: checks.check_spectrum(out.stdout, fmt, n, checks.case_codes(n, m, p)),
        facts=table_facts(n),
        grover_rounds=lpq.simulator.grover_schedule(n, m).k if amplified else None,
        dft_calls=1 if alg != "qhs" else None,
    )


def compare_op(n, m, p, s, fmt) -> Op:
    argv = ["compare", "--format", fmt] + instance_args(n, m, p, s)
    return Op(
        "compare", n, lambda sink: cli_call(argv, sink),
        lambda out: checks.check_compare(out.stdout, fmt), facts=table_facts(n),
    )


def table_op(n, m, p, s, alg) -> Op:
    """Library path: simulate, tabulate the closed form, take the deviation."""

    def run(sink):
        spec = lpq.build_oracle(n, m, p, s)
        simulated = lpq.simulator.simulated_table(spec, alg)
        closed = lpq.closedform.closed_form_table(spec, alg)
        deviation = float(np.abs(closed.pr - simulated.pr).max())
        return Outcome(0, value=(closed, simulated, deviation))

    def check(out):
        closed, simulated, _ = out.value
        ref = checks.case_codes(n, m, p)
        return checks.check_table(closed.codes, closed.pr, simulated.pr, n, ref)

    amplified = alg == "amplified"
    return Op(
        f"table-{alg}-m{m}", n, run, check, facts=lambda out: {"freq": n},
        grover_rounds=lpq.simulator.grover_schedule(n, m).k if amplified else None,
        dft_calls=1 if alg != "qhs" else None,
    )


def sweep_op(n_min, n_max, m, p, s) -> Op:
    out_dir = SCRATCH / "sweep"
    argv = ["sweep", "--n-min", str(n_min), "--n-max", str(n_max), "--out", str(out_dir),
            "--m", str(m), "--p", str(p), "--s", str(s)]

    def run(sink):
        shutil.rmtree(out_dir, ignore_errors=True)
        out = cli_call(argv, sink)
        out.value = {f.name: f.read_text() for f in out_dir.glob("*")} if out_dir.is_dir() else {}
        return out

    def facts(out):
        sizes = [int(line.split()[0][2:]) for line in out.stdout.splitlines() if line.startswith("n=")]
        return {"freq": sum(sizes), "rows": 3 * len(sizes),
                "bytes": sum(len(text) for text in out.value.values())}

    return Op("sweep", n_max, run,
              lambda out: checks.check_sweep(out.stdout, out.value, n_min, n_max), facts=facts)


def trials_op(n, m, p, s, alg, runs, seed, p_success) -> Op:
    argv = ["trials", "--alg", alg, "--runs", str(runs), "--seed", str(seed), "--format", "json"]
    argv += instance_args(n, m, p, s)

    def facts(out):
        mc = json.loads(out.stdout)["monte_carlo"]
        return {"trials": checks.trials_total(mc["mean"], runs), "runs": runs, "rows": 3}

    return Op(
        f"trials-{alg}", n, lambda sink: cli_call(argv, sink),
        lambda out: checks.check_trials(json.loads(out.stdout), runs, p_success),
        facts=facts,
    )


def find_offset_op(n, m, p, s, method, seed) -> Op:
    argv = ["find-offset", "--method", method, "--seed", str(seed), "--format", "json"]
    argv += instance_args(n, m, p, s)

    def facts(out):
        if out.code != 0:
            return {"verification_failed": 1, "rows": 1}
        obj = json.loads(out.stdout)
        return {"oracle_queries": obj["oracle_queries"], "iterations": obj["iterations"],
                "counting_cost": obj["counting_cost"], "rows": 1}

    return Op(
        f"find-offset-{method}", n, lambda sink: cli_call(argv, sink),
        lambda out: checks.check_find_offset(out.code, out.stdout, s),
        exits=(0, 4) if method == "counting" else (0,), facts=facts,
    )


def recover_op(n, m, p, s, y) -> Op:
    argv = ["recover", "--verify", "--y", str(y), "--format", "json"] + instance_args(n, m, p, s)
    return Op(
        "recover-verify", n, lambda sink: cli_call(argv, sink),
        lambda out: checks.check_recover(out.code, out.stdout, p),
        exits=(0, 3, 4), facts=lambda out: {"rows": 1},
    )


# --- workloads ------------------------------------------------------------------
#
# Each workload is a generator of cycles (lists of ops) drawn from the seed;
# ``small`` shrinks the sizes for the smoke mode.


def cli_workload(seed: int, small: bool) -> Iterator[list[Op]]:
    """lpq spectrum for all three pipelines plus lpq compare, 3 instances,
    one m from each third of [2, 8] (the Grover round count falls with m),
    csv and json alternating across instances."""
    n = 1 << (8 if small else 16)
    rng = random.Random(seed)
    cycle = []
    for i, (m_lo, m_hi) in enumerate(strata(2, 8, 3)):
        m, p, s = draw_instance(rng, n, m_lo, m_hi)
        fmt = "csv" if i % 2 == 0 else "json"
        cycle += [spectrum_op(n, m, p, s, alg, fmt) for alg in ("amplified", "qft", "qhs")]
        cycle.append(compare_op(n, m, p, s, fmt))
    while True:
        yield cycle


def state_workload(seed: int, small: bool) -> Iterator[list[Op]]:
    """Library tables at n = 2^20: amplified m=4 and m=64, qft and qhs m=4;
    one lpq sweep from n/256 to n, in the first cycle only."""
    n = 1 << (10 if small else 20)
    n_min = n >> (4 if small else 8)
    rng = random.Random(seed)
    p_sweep = rng.randint(2, int(n_min**0.5))
    sweep = sweep_op(n_min, n, 4, p_sweep, rng.randint(0, n_min - 1 - 3 * p_sweep))
    cycle = []
    for alg, m in (("amplified", 4), ("amplified", 16 if small else 64), ("qft", 4), ("qhs", 4)):
        m, p, s = draw_instance(rng, n, m, m)
        cycle.append(table_op(n, m, p, s, alg))
    yield [sweep] + cycle
    while True:
        yield cycle


def mc_workload(seed: int, small: bool) -> Iterator[list[Op]]:
    """lpq trials for each pipeline on 3 instances at n = 2^14, m in [2, 8];
    the run count of each op targets MC_TARGET_TRIALS expected trials, so
    the fixed per-op cost stays a small share of every op."""
    n = 1 << (8 if small else 14)
    rng = random.Random(seed)
    instances = []
    while len(instances) < 3:
        m, p, s = draw_instance(rng, n, 2, 8)
        success = {alg: checks.pipeline_success(alg, n, m, p, s) for alg in ("qft", "qhs", "amplified")}
        if min(success.values()) >= MC_MIN_SUCCESS:
            instances.append((m, p, s, success))
    target = MC_TARGET_TRIALS // (100 if small else 1)
    cycle = []
    for m, p, s, success in instances:
        for alg, p_success in success.items():
            runs = max(1, round(target * p_success))
            cycle.append(trials_op(n, m, p, s, alg, runs, rng.randrange(1 << 31), p_success))
    while True:
        yield cycle


def offset_workload(seed: int, small: bool) -> Iterator[list[Op]]:
    """lpq find-offset with both methods and lpq recover --verify (one y near
    a multiple of n/p, one uniform y) on 32 instances at n = 2^20, one m from
    each 32nd of [64, 512], since the walk's cost grows with m."""
    n = 1 << (10 if small else 20)
    m_lo, m_hi = (4, 16) if small else (64, 512)
    rng = random.Random(seed)
    instances = [draw_instance(rng, n, lo, hi) for lo, hi in strata(m_lo, m_hi, 4 if small else 32)]
    cycle = []
    for m, p, s in instances:
        near = (2 * n * rng.randint(1, p - 1) + p) // (2 * p)
        cycle += [
            find_offset_op(n, m, p, s, "counting", rng.randrange(1 << 31)),
            find_offset_op(n, m, p, s, "decreasing", rng.randrange(1 << 31)),
            recover_op(n, m, p, s, near),
            recover_op(n, m, p, s, rng.randrange(n)),
        ]
    while True:
        yield cycle


WORKLOADS = {
    "cli-2e16": cli_workload,
    "state-2e20": state_workload,
    "mc-2e14": mc_workload,
    "offset-2e20": offset_workload,
}


# --- execution -------------------------------------------------------------------


@dataclass(slots=True)
class Record:
    """One executed op.  Holds only what the metrics need, not the op, so
    the benchmark's own memory stays flat however many ops a run makes."""

    kind: str
    n: int
    start: float  # perf_counter when the op began
    wall: float
    slot: int  # id() of the op; the same op recurs in every cycle
    failure: str | None = None  # exception type, "exit N" or "wrong-output"
    problems: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    span: int | None = None
    traced: bool = False
    grover_rounds: int | None = None
    dft_calls: int | None = None
    calibrated: float = 0.0  # wall in calibrated seconds, set by run_loop

    @property
    def completed(self) -> bool:
        return self.failure is None


def execute(op: Op, tracer: Tracer | None = None) -> Record:
    span = tracer.open("bench.op") if tracer else None
    outcome, failure = None, None
    t0 = time.perf_counter()
    try:
        outcome = op.run(None)
    except Exception as exc:  # a crash is a failed op, recorded by type
        failure = type(exc).__name__
    except SystemExit as exc:
        failure = f"SystemExit {exc.code}"
    wall = time.perf_counter() - t0
    if tracer:
        tracer.close(span)
    record = Record(op.kind, op.n, t0, wall, id(op), failure, span=span, traced=tracer is not None,
                    grover_rounds=op.grover_rounds, dft_calls=op.dft_calls)
    if outcome is None:
        return record
    if outcome.code not in op.exits:
        record.failure = f"exit {outcome.code}"
        return record
    try:
        record.problems = op.check(outcome)
        record.facts = op.facts(outcome)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        record.problems = [f"unparseable output: {exc!r}"]
    record.facts["bytes"] = record.facts.get("bytes", 0) + len(outcome.stdout)
    if record.problems:
        record.failure = "wrong-output"
    return record


def run_loop(cycles: Iterator[list[Op]], seconds: float, trace: bool, calibrated: bool = True,
             setup: SetupTimer | None = None) -> tuple[list[Record], Tracer | None]:
    """Closed loop: the whole first cycle, then the ops of the next cycles
    in order until ``seconds`` have passed.  With ``trace`` each op runs
    untraced and then traced.  With ``calibrated`` the reference kernel
    runs between ops and every record gets its calibrated time (else its
    wall time); the set-up samples of ``setup``, when given, are taken
    between ops too."""
    tracer = Tracer() if trace else None
    calibrator = calibrate.Calibrator() if calibrated else None
    records = []
    deadline = time.perf_counter() + seconds
    for cycle_no, cycle in enumerate(cycles):
        for op in cycle:
            if cycle_no and time.perf_counter() >= deadline:
                break
            for traced in (False, True) if tracer else (False,):
                if traced:
                    tracer.install()
                try:
                    records.append(execute(op, tracer if traced else None))
                finally:
                    if traced:
                        tracer.uninstall()
                if calibrator:
                    calibrator.after_op(records[-1].wall)
            if setup:
                setup.between_ops()
        if time.perf_counter() >= deadline:
            break
    for r in records:
        r.calibrated = calibrator.calibrated(r.wall, r.start) if calibrator else r.wall
    return records, tracer


def warm_up(workload: str, seed: int) -> None:
    """One small cycle first, so lazy imports and allocator growth are not
    charged to the first timed op."""
    for op in next(WORKLOADS[workload](seed, small=True)):
        execute(op)


def child_env() -> dict:
    """Environment of the fresh interpreters: lpq from SRC, and a bytecode
    cache under SCRATCH, whatever PYTHONDONTWRITEBYTECODE says.  Without
    that, whether sources are compiled on each import (which costs time
    and memory) would depend on the caller's environment and on whether
    the tree already has ``__pycache__`` directories."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(SCRATCH / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class SetupTimer:
    """Wall times of ``import lpq.cli``, each in a fresh interpreter, with
    the median of three reference kernel times taken in the same
    interpreter after the import (which has loaded numpy by then).

    Samples are taken before the loop, every SETUP_EVERY seconds between
    its ops and after it, so that a run's median covers the whole run and
    not a slow or fast spell of the machine at one end.  An untimed import
    fills the bytecode cache of ``child_env`` first, so that every timed
    import finds it warm, as an installed package's is."""

    CODE = (
        "import statistics, sys, time\n"
        "t = time.perf_counter()\n"
        "import lpq.cli\n"
        "t = time.perf_counter() - t\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "import calibrate\n"
        "ref = statistics.median(calibrate.time_kernel() for _ in range(3))\n"
        "sys.stdout.write(repr(t) + ' ' + repr(ref) + ' ' + lpq.__file__)\n"
    )

    def __init__(self):
        self.env = child_env()
        self.samples: list[tuple[float, float]] = []  # (wall, calibrated) seconds
        self._import()
        self.last = time.perf_counter()

    def _import(self) -> tuple[float, float]:
        proc = subprocess.run(
            [sys.executable, "-c", self.CODE], cwd=ROOT, env=self.env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        seconds, ref, path = proc.stdout.split(" ", 2)
        if Path(path).resolve().parent != SRC / "lpq":
            raise RuntimeError(f"fresh interpreter imported lpq from {path}")
        return float(seconds), float(seconds) / float(ref) * calibrate.REF_SECONDS

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            self.samples.append(self._import())
        self.last = time.perf_counter()

    def between_ops(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY:
            self.sample()


def measure_peak_rss(workload: str, seed: int) -> float:
    """Peak RSS in MiB of a fresh interpreter that runs the first cycle of
    the workload's ops with output sent to /dev/null and no checks, so the
    figure is lpq's own and not the checker's.  An interpreter that only
    imports this module runs first: it fills the bytecode cache, since
    compiling the benchmark's modules in the measured interpreter would
    leave its heap laid out differently and add up to 7 MiB to the peak."""
    importer = f"import sys\nsys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\nimport run\n"
    for code in (importer, importer + f"print(run.cycle_peak_rss({workload!r}, {seed!r}))\n"):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.split()[-1])


def cycle_peak_rss(workload: str, seed: int) -> float:
    """Body of ``measure_peak_rss``, run in the child process."""
    load_lpq()
    try:
        with open(os.devnull, "w") as sink:
            for op in next(WORKLOADS[workload](seed, small=False)):
                try:
                    op.run(sink)
                except (Exception, SystemExit):  # failures are counted by the timed run
                    pass
    finally:
        shutil.rmtree(SCRATCH / "sweep", ignore_errors=True)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- metrics ---------------------------------------------------------------------

END_TO_END = ("setup_s", "work_per_s", "peak_rss_mb")  # the final line of an untraced run

# Per-layer metrics, in the order of the final line of a traced run.
PER_LAYER = {
    "simulator.grover_iterate.calls": "count",
    "simulator.grover_iterate.self_ms": "ms",
    "simulator.grover_ns_per_elem": "ns",
    "simulator.marked_mask.calls": "count",
    "simulator.marked_mask.self_ms": "ms",
    "simulator.dft.calls": "count",
    "simulator.dft.self_ms": "ms",
    "simulator.qhs_state.self_ms": "ms",
    "simulator.simulated_table.self_ms": "ms",
    "cli.main.calls": "count",
    "cli.self_ms": "ms",
    "cli.ns_per_row": "ns",
    "cli.bytes_written": "bytes",
    "closedform.closed_form_table.calls": "count",
    "closedform.closed_form_table.self_ms": "ms",
    "spectrum.case_codes.calls": "count",
    "spectrum.case_codes.self_ms": "ms",
    "spectrum.make_table.calls": "count",
    "spectrum.make_table.self_ms": "ms",
    "recovery.accepted_denominator.calls": "count",
    "recovery.accepted_denominator.self_ms": "ms",
    "recovery.accepted_denominator.ns_per_call": "ns",
    "recovery.recover_period.calls": "count",
    "recovery.recover_period.self_ms": "ms",
    "recovery.success_set.self_ms": "ms",
    "recovery.success_probability.self_ms": "ms",
    "analysis.monte_carlo_trials.self_ms": "ms",
    "analysis.mc_trials": "count",
    "analysis.mc_ns_per_trial": "ns",
    "analysis.mc_candidate_ratio": "ratio",
    "analysis.mc_success_ratio": "ratio",
    "analysis.workfactor_comparison.self_ms": "ms",
    "analysis.expected_trials.self_ms": "ms",
    "oracle.queries": "count",
    "oracle.query_ns": "ns",
    "offset.find_offset_counting.self_ms": "ms",
    "offset.find_offset_decreasing.self_ms": "ms",
    "offset.amplified_measure_member.calls": "count",
    "offset.walk_rounds": "count",
    "offset.counting_cost": "count",
    "offset.verification_failed_ratio": "ratio",
    "trace.overhead_frac": "ratio",
    "reconcile.grover_rounds.checked": "count",
    "reconcile.grover_rounds.mismatches": "count",
    "reconcile.dft_calls.checked": "count",
    "reconcile.dft_calls.mismatches": "count",
    "reconcile.oracle_queries.checked": "count",
    "reconcile.oracle_queries.mismatches": "count",
    "reconcile.mc_trials.checked": "count",
    "reconcile.mc_trials.mismatches": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values), q))


# The unit of work_per_s on each workload.  freq: frequencies tabulated
# (n per table, the sizes' sum per sweep).  trials: Monte-Carlo trials, since
# the trials per op are random.  oracle_queries: queries a find-offset op
# reports; an op's time grows with them, while the op count would weigh a
# 3-query recover op the same as a 3000-query walk.
WORK_UNIT = {"cli-2e16": "freq", "state-2e20": "freq", "mc-2e14": "trials",
             "offset-2e20": "oracle_queries"}

# Workloads whose work_per_s is in wall seconds.  state-2e20's completed
# op is a 6-13 s Grover loop over a 16 MiB state that spends a sixth of
# its time in the kernel on page faults (about 2e5 per op).  It averages
# the machine's fast swings over its own length, and its speed does not
# follow the reference kernel's (correlation -0.03 over twelve
# repetitions), so calibrating it only adds the kernel's noise.
WALL_CLOCK = {"state-2e20"}


def throughput(records: list[Record], unit: str, calibrated: bool = True) -> float:
    """Work per (calibrated, else wall-clock) second over the completed ops
    that do work in ``unit``.

    Each op is timed by the median of its repetitions in the run: an op
    recurs unchanged in every cycle and does the same work each time, and
    the median is the figure that other load on the machine, which slows
    single repetitions by tens of percent, moves least (the fastest
    repetition moves more: how fast the quietest moment of a run was is
    itself a matter of chance).  Each kind of op (``trials-qhs``,
    ``spectrum-amplified``, ...) then weighs the same: the result is the
    rate at which equal work of every kind would be done.  Pooling the work
    instead would let random draws (a geometric trial count, a counting
    search that ends in exit 4) decide how much each kind's rate counts.
    """
    walls: dict[int, tuple[str, float, list[float]]] = {}
    for r in records:
        work = r.facts.get(unit, 0)
        if r.completed and work:
            walls.setdefault(r.slot, (r.kind, work, []))[2].append(
                r.calibrated if calibrated else r.wall)
    kinds: dict[str, list[float]] = {}
    for kind, work, times in walls.values():
        wall = statistics.median(times)
        total = kinds.setdefault(kind, [0.0, 0.0])
        total[0] += work
        total[1] += wall
    return _ratio(len(kinds), sum(wall / work for work, wall in kinds.values()))


def end_to_end(workload: str, records: list[Record], setup: list[tuple[float, float]],
               peak_rss_mb: float) -> dict:
    """All seven end-to-end metrics (None where a workload does not define
    one), plus work_per_s: the workload's throughput in WORK_UNIT, which is
    freq_per_s or trials_per_s where those are defined.  setup_s and the
    throughputs are in calibrated seconds, except on WALL_CLOCK workloads;
    op_s_p50 and op_s_p90 are in wall seconds, and the *_wall entries give
    the gated figures in wall seconds too."""
    done = [r for r in records if r.completed]
    times = [r.wall for r in done]
    attempted, failed = failed_ops(records)
    calibrated = workload not in WALL_CLOCK
    return {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "freq_per_s": throughput(records, "freq", calibrated) if WORK_UNIT[workload] == "freq" else None,
        "trials_per_s": throughput(records, "trials", calibrated) if workload == "mc-2e14" else None,
        "op_s_p50": quantile(times, 0.5) if times and workload != "mc-2e14" else None,
        "op_s_p90": quantile(times, 0.9) if len(times) >= 100 and workload == "offset-2e20" else None,
        "failed_frac": _ratio(failed, attempted),
        "peak_rss_mb": peak_rss_mb,
        "work_per_s": throughput(records, WORK_UNIT[workload], calibrated),
        "setup_s_wall": statistics.median(wall for wall, _ in setup),
        "work_per_s_wall": throughput(records, WORK_UNIT[workload], calibrated=False),
    }


UNITS = {"setup_s": "s", "freq_per_s": "1/s", "trials_per_s": "1/s", "op_s_p50": "s",
         "op_s_p90": "s", "failed_frac": "ratio", "peak_rss_mb": "MiB", "work_per_s": "1/s",
         "setup_s_wall": "s", "work_per_s_wall": "1/s"}


def reconcile(tracer: Tracer, traced: list[Record]) -> tuple[dict, list[str]]:
    """Executed work in each completed traced op against what the cost model
    charges: k Grover rounds and one transform per amplified table, one
    transform per qft table, the reported oracle queries per find-offset
    op, and one recovery per Monte-Carlo trial."""
    stats = {key: [0, 0] for key in ("grover_rounds", "dft_calls", "oracle_queries", "mc_trials")}
    problems = []

    def compare(key, label, observed, expected):
        if observed is None:
            return
        found = checks.check_count(label, observed, expected)
        stats[key][0] += 1
        stats[key][1] += bool(found)
        problems.extend(found)

    for r in traced:
        if not r.completed:
            continue
        span = tracer.subtree(r.span)
        label = f"{r.kind} n={r.n}"
        if r.grover_rounds is not None:
            compare("grover_rounds", f"{label} grover_iterate",
                    tracer.count("simulator.grover_iterate", span), r.grover_rounds)
        if r.dft_calls is not None:
            compare("dft_calls", f"{label} dft", tracer.count("simulator.dft", span), r.dft_calls)
        if "oracle_queries" in r.facts:
            compare("oracle_queries", f"{label} oracle calls",
                    tracer.count(ORACLE_CALL, span), r.facts["oracle_queries"])
        if "trials" in r.facts:
            mc = [i for i in span if tracer.spans[i].name == "analysis.monte_carlo_trials"]
            if mc:
                compare("mc_trials", f"{label} accepted_denominator in monte_carlo_trials",
                        tracer.count("recovery.accepted_denominator", mc), r.facts["trials"])
    return stats, problems


def per_layer(tracer: Tracer, records: list[Record]) -> tuple[dict, list[str]]:
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    indices = [i for r in traced for i in tracer.subtree(r.span)]
    agg = tracer.summary(indices)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def ms(name):
        return get(name, "self_ns") / 1e6

    elems = sum((tracer.count("simulator.grover_iterate", tracer.subtree(r.span)) or 0) * r.n
                for r in traced)
    rows = sum(r.facts.get("rows", 0) for r in traced)
    trials = sum(r.facts.get("trials", 0) for r in traced if r.completed)
    runs = sum(r.facts.get("runs", 0) for r in traced if r.completed)
    mc_ns = get("analysis.monte_carlo_trials", "ns")
    counting = [r for r in traced if r.kind == "find-offset-counting"]
    tally_ad = "recovery.accepted_denominator"
    metrics = {
        "simulator.grover_iterate.calls": get("simulator.grover_iterate", "calls"),
        "simulator.grover_iterate.self_ms": ms("simulator.grover_iterate"),
        "simulator.grover_ns_per_elem": _ratio(get("simulator.grover_iterate", "self_ns"), elems),
        "simulator.marked_mask.calls": get("simulator.marked_mask", "calls"),
        "simulator.marked_mask.self_ms": ms("simulator.marked_mask"),
        "simulator.dft.calls": get("simulator.dft", "calls"),
        "simulator.dft.self_ms": ms("simulator.dft"),
        "simulator.qhs_state.self_ms": ms("simulator.qhs_state"),
        "simulator.simulated_table.self_ms": ms("simulator.simulated_table"),
        "cli.main.calls": get("cli.main", "calls"),
        "cli.self_ms": ms("cli.main"),
        "cli.ns_per_row": _ratio(get("cli.main", "self_ns"), rows),
        "cli.bytes_written": sum(r.facts.get("bytes", 0) for r in traced),
        "closedform.closed_form_table.calls": get("closedform.closed_form_table", "calls"),
        "closedform.closed_form_table.self_ms": ms("closedform.closed_form_table"),
        "spectrum.case_codes.calls": get("spectrum.case_codes", "calls"),
        "spectrum.case_codes.self_ms": ms("spectrum.case_codes"),
        "spectrum.make_table.calls": get("spectrum.make_table", "calls"),
        "spectrum.make_table.self_ms": ms("spectrum.make_table"),
        "recovery.accepted_denominator.calls": get(tally_ad, "calls"),
        "recovery.accepted_denominator.self_ms": ms(tally_ad),
        "recovery.accepted_denominator.ns_per_call": _ratio(get(tally_ad, "ns"), get(tally_ad, "calls")),
        "recovery.recover_period.calls": get("recovery.recover_period", "calls"),
        "recovery.recover_period.self_ms": ms("recovery.recover_period"),
        "recovery.success_set.self_ms": ms("recovery.success_set"),
        "recovery.success_probability.self_ms": ms("recovery.success_probability"),
        "analysis.monte_carlo_trials.self_ms": ms("analysis.monte_carlo_trials"),
        "analysis.mc_trials": trials,
        "analysis.mc_ns_per_trial": _ratio(mc_ns, trials),
        "analysis.mc_candidate_ratio": _ratio(get(tally_ad, "truthy"), get(tally_ad, "calls")),
        "analysis.mc_success_ratio": _ratio(runs, trials),
        "analysis.workfactor_comparison.self_ms": ms("analysis.workfactor_comparison"),
        "analysis.expected_trials.self_ms": ms("analysis.expected_trials"),
        "oracle.queries": get(ORACLE_CALL, "calls"),
        "oracle.query_ns": _ratio(get(ORACLE_CALL, "ns"), get(ORACLE_CALL, "calls")),
        "offset.find_offset_counting.self_ms": ms("offset.find_offset_counting"),
        "offset.find_offset_decreasing.self_ms": ms("offset.find_offset_decreasing"),
        "offset.amplified_measure_member.calls": get("offset.amplified_measure_member", "calls"),
        "offset.walk_rounds": sum(r.facts.get("iterations", 0) for r in traced
                                  if r.kind == "find-offset-decreasing"),
        "offset.counting_cost": sum(r.facts.get("counting_cost", 0.0) for r in traced),
        "offset.verification_failed_ratio": _ratio(
            sum(r.facts.get("verification_failed", 0) for r in counting), len(counting)),
        "trace.overhead_frac": _ratio(
            sum(r.calibrated for r in traced) - sum(r.calibrated for r in untraced),
            sum(r.calibrated for r in untraced)),
    }
    stats, problems = reconcile(tracer, traced)
    for key, (checked, mismatches) in stats.items():
        metrics[f"reconcile.{key}.checked"] = checked
        metrics[f"reconcile.{key}.mismatches"] = mismatches
    return metrics, problems


# --- reporting -------------------------------------------------------------------


def failed_ops(records: list[Record]) -> tuple[int, int]:
    """(attempted, failed) distinct ops: an op that recurs in every cycle
    counts once, as failed if any repetition of it failed."""
    slots = {r.slot for r in records}
    return len(slots), len({r.slot for r in records if r.failure})


def failures_by_kind(records: list[Record]) -> dict:
    """Distinct failed ops by failure (exception type or exit code) and kind."""
    out: dict[str, dict[str, int]] = {}
    for failure, kind, _ in sorted({(r.failure, r.kind, r.slot) for r in records if r.failure}):
        by_op = out.setdefault(failure, {})
        by_op[kind] = by_op.get(kind, 0) + 1
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    try:
        setup = SetupTimer()
        setup.sample(SETUP_AT_ENDS)
        peak_rss_mb = measure_peak_rss(workload, seed)
        warm_up(workload, seed)
        records, tracer = run_loop(WORKLOADS[workload](seed, small=False), seconds, trace,
                                   workload not in WALL_CLOCK, setup)
        setup.sample(SETUP_AT_ENDS)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    wrong = [f"{r.kind}: {p}" for r in records for p in r.problems]
    attempted, failed = failed_ops(records)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "executions": len(records),
        "failed_executions": sum(not r.completed for r in records),
        "failures": failures_by_kind(records),
        "wrong_outputs": wrong[:20],
        "provenance": provenance.environment(),
    }
    metrics = end_to_end(workload, [r for r in records if not r.traced], setup.samples, peak_rss_mb)
    report["setup_sample_count"] = len(setup.samples)
    report["end_to_end"] = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    report["op_sample_count"] = sum(r.completed for r in records if not r.traced)
    if trace:
        layer, mismatches = per_layer(tracer, records)
        report["absent"] = tracer.absent
        report["reconcile_problems"] = mismatches[:20]
        final = {k: {"value": layer[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    else:
        mismatches = []
        final = {k: {"value": metrics[k], "unit": UNITS[k]} for k in END_TO_END}
    report["correct"] = not wrong and not mismatches
    return report, final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, self-test")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    load_lpq()
    if args.smoke:
        return smoke(args.seed)
    report, final = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": final}))
    return 0


def smoke(seed: int) -> int:
    """Every workload at tiny sizes, traced, for one cycle; then the
    corruption self-test.  Exit 0 when every check holds."""
    import selftest

    ok = True
    for workload, make in WORKLOADS.items():
        records, tracer = run_loop(make(seed, small=True), 0.0, trace=True)
        shutil.rmtree(SCRATCH, ignore_errors=True)
        _, mismatches = per_layer(tracer, records)
        wrong = [p for r in records for p in r.problems]
        crashed = failures_by_kind(records)
        print(f"{workload}: {len(records)} ops, failures {crashed}, wrong {wrong[:3]}, "
              f"reconcile {mismatches[:3]}, absent {tracer.absent}")
        ok &= not wrong and not mismatches and not crashed
    ok &= selftest.run(verbose=True)
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
