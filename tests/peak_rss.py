"""Peak RSS and wall time of lpq's table commands at n = 2^22.

    python tests/peak_rss.py [--check] [--repeat K]

Runs each command of CEILINGS as ``python -m lpq`` in a child process of
its own, with stdout on a temporary file, and reads the child's peak RSS
from os.wait4.  Prints one line per command: its peak in MiB, its wall
time in seconds and its argv.  With --repeat K each command runs K times
and the line gives the lowest peak and wall.  With --check, exits 1 if a
peak lies above 1.25 times its ceiling.

The ceilings are the peaks measured when they were recorded, on Linux
with Python 3.11.7 and numpy 2.4.6 (see CHANGES.md).  The package is
imported from the src directory next to this file's directory, unless
PYTHONPATH names another.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

INSTANCE = ["--n", str(1 << 22), "--m", "5", "--s", "11"]
# argv -> peak RSS in MiB when recorded
CEILINGS = {
    ("compare", "--p", "127"): 37.1,
    ("compare", "--p", "100"): 50.4,
    ("spectrum", "--format", "json", "--p", "127"): 162.2,
    ("spectrum", "--format", "json", "--p", "100"): 233.4,
}
SLACK = 1.25


def measure(argv: list[str]) -> tuple[float, float]:
    """Peak RSS in MiB and wall seconds of ``python -m lpq argv``."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.environ.get("PYTHONPATH") or str(src)}
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "lpq", *argv], stdout=out, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    if child.returncode:
        raise SystemExit(f"exit {child.returncode}: python -m lpq {' '.join(argv)}")
    return usage.ru_maxrss / 1024, wall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="fail above 1.25x a ceiling")
    parser.add_argument("--repeat", type=int, default=1, help="runs per command (default 1)")
    args = parser.parse_args()
    over = []
    for command, ceiling in CEILINGS.items():
        argv = [*command, *INSTANCE]
        peak, wall = map(min, zip(*(measure(argv) for _ in range(args.repeat))))
        print(f"{peak:7.1f} MiB {wall:6.2f} s  {' '.join(argv)}", flush=True)
        if peak > SLACK * ceiling:
            over.append(f"{' '.join(command)}: {peak:.1f} MiB > {SLACK} x {ceiling} MiB")
    if args.check and over:
        print("\n".join(over), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
