"""Output checks and the independent references they compare against.

Nothing here imports ``lpq``: the case classification, the recovery rule,
the measurement distributions and the Monte-Carlo acceptance band are
recomputed from the paper's definitions with plain numpy, so a defect in
the package cannot hide by being shared with its own check.

Every ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

EPS = float(np.finfo(float).eps)
CASE_NAMES = ("zero", "resonant", "generic", "null")
# Rounding in a table of n probabilities stays within n*eps of the exact
# values; the deviation between two derivations is held to that.  The
# normalization residual gets 64*n*eps: a sum of n terms carries n*eps of
# summation error, and the package zeroes probabilities below 1e-12, which
# at n = 2^16 costs 18-28 n*eps of mass.
DEV_TOL_NEPS = 1.0
SUM_TOL_NEPS = 64.0
MC_FALSE_REJECT = 1e-6


# --- independent references -------------------------------------------------


def case_codes(n: int, m: int, p: int) -> np.ndarray:
    """0 zero, 1 resonant, 2 generic, 3 null, decided by integers alone."""
    y = np.arange(n, dtype=np.int64)
    py0 = (p * y) % n == 0
    mpy0 = (m * p * y) % n == 0
    codes = np.where(py0, 1, np.where(mpy0, 3, 2)).astype(np.int8)
    codes[0] = 0
    return codes


def accepted_q(n: int) -> np.ndarray:
    """For every y in 0..n-1, the largest convergent denominator q of y/n
    with q <= isqrt(n) and 2q|yq - dn| <= n; 0 where y = 0 or q <= 1."""
    q_max = math.isqrt(n)
    y = np.arange(n, dtype=np.int64)
    g = np.gcd(y, n)
    num, den = y // g, n // g
    d1, d0 = np.ones(n, np.int64), np.zeros(n, np.int64)
    q1, q0 = np.zeros(n, np.int64), np.ones(n, np.int64)
    best = np.zeros(n, np.int64)
    live = np.ones(n, bool)
    while live.any():
        safe = np.where(live, den, 1)
        a = num // safe
        d, q = a * d1 + d0, a * q1 + q0
        live &= q <= q_max
        ok = live & (2 * q * np.abs(y * q - d * n) <= n)
        best = np.where(ok, q, best)
        d0, d1 = d1, d
        q0, q1 = q1, q
        num, den = safe, num - a * safe
        live &= den != 0
    best[(y == 0) | (best <= 1)] = 0
    return best


def distribution(alg: str, n: int, m: int, p: int, s: int) -> np.ndarray:
    """Measurement distribution by direct statevector simulation."""
    mask = np.zeros(n, bool)
    mask[s : s + (m - 1) * p + 1 : p] = True
    if alg == "qhs":
        return (np.abs(np.fft.fft(mask)) ** 2 + np.abs(np.fft.fft(~mask)) ** 2) / n**2
    if alg == "qft":
        state = np.where(mask, -1.0, 1.0)
    else:
        state = np.full(n, 1.0)
        for _ in range(grover_rounds(n, m)):
            state = np.where(mask, -state, state)
            state = 2.0 * state.mean() - state
    return np.abs(np.fft.fft(state)) ** 2 / n**2


def grover_rounds(n: int, m: int) -> int:
    """k = floor(pi / (4 theta)) with sin(theta) = sqrt(m/n)."""
    return math.floor(math.pi / (4 * math.asin(math.sqrt(m / n))))


def pipeline_success(alg: str, n: int, m: int, p: int, s: int) -> float:
    """Per-run success probability of sample -> recover -> verify.  For
    m >= 2 the three verification probes accept q exactly when q = p."""
    return float(distribution(alg, n, m, p, s)[accepted_q(n) == p].sum())


def _kl(a: float, p: float) -> float:
    if a >= 1.0:
        return -math.log(p)
    if a <= 0.0:
        return -math.log1p(-p)
    return a * math.log(a / p) + (1 - a) * math.log((1 - a) / (1 - p))


def trials_band(p: float, runs: int, delta: float = MC_FALSE_REJECT) -> tuple[int, int]:
    """(lo, hi) such that the total trial count S of ``runs`` independent
    Geometric(p) runs satisfies P(S <= lo) + P(S > hi) < delta.

    S <= a iff Binomial(a, p) >= runs, and S > b iff Binomial(b, p) < runs;
    both tails are bounded by Chernoff, exp(-N * KL(runs/N || p)).
    """
    if p >= 1.0:
        return runs - 1, runs

    def lower_tail(a: int) -> float:  # bound on P(S <= a)
        if a < runs:
            return 0.0
        return math.exp(-a * _kl(runs / a, p)) if runs / a > p else 1.0

    def upper_tail(b: int) -> float:  # bound on P(S > b)
        return math.exp(-b * _kl((runs - 1) / b, p)) if (runs - 1) / b < p else 1.0

    mid = math.ceil(runs / p)
    lo_a, hi_a = runs - 1, mid  # largest a in [lo_a, hi_a) with lower_tail <= delta/2
    while hi_a - lo_a > 1:
        a = (lo_a + hi_a) // 2
        lo_a, hi_a = (a, hi_a) if lower_tail(a) <= delta / 2 else (lo_a, a)
    lo_b, hi_b = mid, mid
    while upper_tail(hi_b) > delta / 2:
        lo_b, hi_b = hi_b, 2 * hi_b
    while hi_b - lo_b > 1:  # smallest b with upper_tail <= delta/2
        b = (lo_b + hi_b) // 2
        lo_b, hi_b = (lo_b, b) if upper_tail(b) <= delta / 2 else (b, hi_b)
    return lo_a, hi_b


# --- table checks -----------------------------------------------------------


def check_table(codes, closed, simulated, n: int, ref_codes) -> list[str]:
    """Shared spectrum check: cases, deviation and normalization."""
    problems = []
    if len(codes) != n or len(closed) != n or len(simulated) != n:
        return [f"expected {n} rows, got {len(codes)}"]
    bad = np.flatnonzero(np.asarray(codes) != ref_codes)
    if bad.size:
        problems.append(f"{bad.size} case labels differ from the classification, first y={bad[0]}")
    dev = float(np.abs(closed - simulated).max())
    if dev > DEV_TOL_NEPS * n * EPS:
        problems.append(f"closed vs simulated deviation {dev:.3g} > {DEV_TOL_NEPS:g} n eps")
    for label, pr in (("closed-form", closed), ("simulated", simulated)):
        residual = abs(float(pr.sum()) - 1.0)
        if residual > SUM_TOL_NEPS * n * EPS:
            problems.append(f"{label} sums to 1{residual:+.3g}, past {SUM_TOL_NEPS:g} n eps")
    return problems


def parse_spectrum(text: str, fmt: str):
    """(codes, closed, simulated, reported max deviation) from CLI output."""
    index = {name: i for i, name in enumerate(CASE_NAMES)}
    if fmt == "json":
        obj = json.loads(text)
        rows = obj["rows"]
        codes = [index.get(r["case"], -1) for r in rows]
        closed = np.array([r["pr_closedform"] for r in rows], float)
        simulated = np.array([r["pr_simulated"] for r in rows], float)
        return np.array(codes), closed, simulated, float(obj["max_abs_deviation"])
    lines = text.splitlines()
    trailer = lines[-1]
    if not trailer.startswith("# max_abs_deviation="):
        raise ValueError("missing max_abs_deviation trailer")
    cols = list(zip(*(line.split(",") for line in lines[2:-1])))
    codes = np.array([index.get(c, -1) for c in cols[1]])
    closed = np.array(cols[2], float)
    simulated = np.array(cols[3], float)
    return codes, closed, simulated, float(trailer.split("=", 1)[1])


def check_spectrum(text: str, fmt: str, n: int, ref_codes) -> list[str]:
    try:
        codes, closed, simulated, reported = parse_spectrum(text, fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparseable spectrum output: {exc!r}"]
    problems = check_table(codes, closed, simulated, n, ref_codes)
    if not problems and reported != float(np.abs(closed - simulated).max()):
        problems.append(f"reported max_abs_deviation {reported!r} disagrees with the rows")
    return problems


def check_compare(text: str, fmt: str) -> list[str]:
    if fmt == "json":
        verdict = json.loads(text)["summary"]["all_rows_within_bounds"]
    else:
        tag = "# all_rows_within_bounds="
        verdict = next(
            (json.loads(line[len(tag):]) for line in text.splitlines() if line.startswith(tag)),
            None,
        )
    return [] if verdict is True else [f"all_rows_within_bounds={verdict!r}"]


def trials_total(mean: float, runs: int) -> int:
    return round(mean * runs)


def check_trials(obj: dict, runs: int, p_success: float) -> list[str]:
    problems = [
        f"{row['algorithm']} bound_verdict={row['bound_verdict']}"
        for row in obj["workfactor"]
        if row["bound_verdict"] != "pass"
    ]
    mc = obj.get("monte_carlo")
    if mc is None or mc["runs"] != runs:
        return problems + ["monte_carlo block missing or wrong run count"]
    lo, hi = trials_band(p_success, runs)
    total = trials_total(mc["mean"], runs)
    if not lo < total <= hi:
        problems.append(
            f"MC mean {mc['mean']:.6g} outside ({lo / runs:.6g}, {hi / runs:.6g}] "
            f"around 1/p={1 / p_success:.6g}"
        )
    return problems


def check_find_offset(code: int, text: str, s: int) -> list[str]:
    """Exit 0 must name the true offset; the caller allows the documented
    exit 4 for the counting method only."""
    if code != 0:
        return []
    offset = json.loads(text)["offset"]
    return [] if offset == s else [f"offset {offset} != true offset {s}"]


def check_recover(code: int, text: str, p: int) -> list[str]:
    """Exit 0 must accept the true period; exits 3 and 4 are allowed."""
    accepted = json.loads(text)["accepted"]
    if code == 0 and accepted != p:
        return [f"exit 0 with accepted={accepted}, true period {p}"]
    return []


def check_sweep(stdout: str, files: dict, n_min: int, n_max: int) -> list[str]:
    """One band line and one file per doubling, every verdict pass."""
    sizes = []
    n = n_min
    while n <= n_max:
        sizes.append(n)
        n *= 2
    reported = [int(line.split()[0][2:]) for line in stdout.splitlines() if line.startswith("n=")]
    problems = [] if reported == sizes else [f"band lines for {reported}, expected {sizes}"]
    for n in sizes:
        text = files.get(f"workfactor_n{n}.csv")
        if text is None:
            problems.append(f"missing workfactor_n{n}.csv")
        elif any(line.endswith(",FAIL") for line in text.splitlines()):
            problems.append(f"bound verdict FAIL at n={n}")
    return problems


# --- reconciliation of executed work with the cost model ---------------------


def check_count(label: str, observed: int | None, expected: int) -> list[str]:
    """A wrapped-call count against what the cost model charges.  ``None``
    means the wrapped function no longer exists; that is reported as absent
    by the tracer, not as a mismatch."""
    if observed is None or observed == expected:
        return []
    return [f"{label}: executed {observed}, charged {expected}"]
