"""Write bench/provenance.json: where each workload comes from and how its
working set compares with the caches of the machine that ran this script.

    python3 bench/provenance.py      # from the root of a source checkout

The benchmark itself reads nothing outside its checkout, so the cache
sizes are read here, once, from /sys (or lscpu when /sys has no cache
entries) and stored next to the benchmark.  Working-set bytes are
computed from array sizes, not measured.  ``environment()`` is also
stamped into the report of every benchmark run.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _size_bytes(text: str) -> int:
    text = text.strip().upper()
    for suffix, scale in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if text.endswith(suffix):
            return int(text[:-1]) * scale
    return int(text)


def caches() -> dict:
    """Per-instance size of each unified or data cache level of cpu0."""
    out = {}
    for index in sorted(CACHE_DIR.glob("index*")):
        kind = (index / "type").read_text().strip()
        if kind in ("Data", "Unified"):
            level = (index / "level").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
            out[f"L{level}"] = {"bytes": _size_bytes((index / "size").read_text()),
                                "shared_cpu_list": shared, "source": str(index)}
    if not out:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, check=True).stdout
        out = {"lscpu": [line for line in text.splitlines() if "cache" in line]}
    return out


def working_sets() -> dict:
    """Bytes of the arrays one op of each workload holds at once."""
    c16, f8 = 16, 8
    n16, n20, n14 = 1 << 16, 1 << 20, 1 << 14
    return {
        "cli-2e16": {"statevector": c16 * n16, "tables": 2 * f8 * n16,
                     "note": "complex128 state of n = 2^16, two float64 tables"},
        "state-2e20": {"statevector": c16 * n20, "tables": 2 * f8 * n20,
                       "note": "complex128 state of n = 2^20, two float64 tables"},
        "mc-2e14": {"statevector": 0, "tables": 2 * f8 * n14,
                    "note": "closed-form table and its cdf at n = 2^14; no statevector"},
        "offset-2e20": {"statevector": 0, "tables": 0,
                        "note": "no arrays: a probe ladder of at most 512 labels"},
    }


def commit(root: Path) -> str | None:
    """HEAD of the git repository at ``root``; None when ``root`` has none.
    Git is pointed at ``root/.git`` so that it searches no directory above."""
    try:
        proc = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    """What a run's figures depend on besides the code: the interpreter,
    numpy, the processor count and the commit."""
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "commit": commit(Path(__file__).resolve().parent.parent),
        "client": "one process, one thread, one client, closed loop",
    }


def main() -> int:
    import run  # here, not at the top: run imports this module for environment()

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    cache = caches()
    sets = working_sets()
    workloads = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        gen = run.WORKLOADS[name]
        total = sets[name]["statevector"] + sets[name]["tables"]
        fits = {level: total <= info["bytes"] for level, info in cache.items() if "bytes" in info}
        workloads[name] = {
            "why": entry["why"],
            "generator": f"bench/run.py:{gen.__name__}",
            "instances": " ".join(gen.__doc__.split()),
            "seed": "--seed N seeds random.Random(N); the same seed gives the same ops",
            "client": "one process, one thread, one client in a closed loop: each op starts "
                      "when the previous one ends (or the reference kernel that calibrates it); "
                      "the first cycle runs whole, then ops in cycle order until --seconds pass",
            "calibrated": name not in run.WALL_CLOCK,
            "working_set_bytes_computed": {**sets[name], "total": total, "fits": fits},
        }
    record = {
        "workloads": workloads,
        "caches": cache,
        **environment(),
        "machine": platform.machine(),
    }
    # The commit is HEAD when this file was written, so the file's own
    # commit is the one after it.
    record["generated_at_commit"] = record.pop("commit")
    (Path(__file__).resolve().parent / "provenance.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
