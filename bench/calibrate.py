"""Machine-speed calibration: an lpq-free reference kernel timed between ops.

The host this benchmark runs on shares its cores with other load, which
slows everything running here, lpq and this kernel alike, by up to 1.8x
for minutes at a time.  Dividing an op's wall time by the kernel's time
measured next to it cancels that common slowdown, while a change to lpq
moves only the op's time.  A calibrated time is that ratio times
``REF_SECONDS``, so it reads as the op's wall time on a machine where the
kernel takes ``REF_SECONDS``.

The kernel mixes the two kinds of work lpq's ops do: interpreted Python
that formats numbers into text, and numpy passes over an 8 MiB array,
larger than a core's L2, so that it competes for memory bandwidth too.
"""

from __future__ import annotations

import bisect
import functools
import statistics
import time

import numpy as np

REF_SECONDS = 0.01  # the kernel's time on an idle machine of the kind the figures were taken on
REF_SHARE = 0.15  # kernel time run per second of op time
REF_NEAREST = 15  # kernel samples that calibrate one op, at the least


@functools.cache
def _inputs() -> tuple[list[float], np.ndarray]:
    """Built on first use, so that importing this module allocates nothing
    (the peak-RSS child imports it)."""
    return [i / 7 for i in range(3000)], np.linspace(0.0, 1.0, 1 << 19) * (1 + 1j)


def reference_kernel() -> float:
    floats, array = _inputs()
    text = "".join(f"{i},{x!r},{x * x:.17g}\n" for i, x in enumerate(floats))
    acc = array * 0.5
    for _ in range(3):
        acc += array
    return len(text) + float(np.abs(acc[:: 1 << 12]).sum())


def time_kernel() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class Calibrator:
    """Runs the kernel for ``REF_SHARE`` of the op time that precedes it and
    keeps every sample, so that each op can be scaled by the kernel times
    nearest to it."""

    def __init__(self):
        self.mids: list[float] = []  # perf_counter at the middle of each kernel run
        self.walls: list[float] = []
        self._owed = 0.0

    def after_op(self, op_wall: float) -> None:
        self._owed += REF_SHARE * op_wall
        while self._owed > 0 or not self.walls:
            t0 = time.perf_counter()
            reference_kernel()
            wall = time.perf_counter() - t0
            self.mids.append(t0 + wall / 2)
            self.walls.append(wall)
            self._owed -= wall

    def kernel_seconds(self, start: float, end: float) -> float:
        """Median kernel time over the samples within one op length of the
        op that ran over [start, end], or over the ``REF_NEAREST`` samples
        nearest to it if that window holds fewer.

        The window grows with the op because a long op averages the
        machine's speed over its whole length: an op of several seconds
        is steadier than the kernel samples of the second after it, so it
        is scaled by the kernel's speed over a stretch as long as itself."""
        span = end - start
        lo = bisect.bisect_left(self.mids, start - span)
        hi = bisect.bisect_right(self.mids, end + span)
        picked = self.walls[lo:hi]
        before, after = lo - 1, hi
        while len(picked) < REF_NEAREST and (before >= 0 or after < len(self.mids)):
            gap_before = start - self.mids[before] if before >= 0 else float("inf")
            gap_after = self.mids[after] - end if after < len(self.mids) else float("inf")
            if gap_before <= gap_after:
                picked.append(self.walls[before])
                before -= 1
            else:
                picked.append(self.walls[after])
                after += 1
        return statistics.median(picked)

    def calibrated(self, wall: float, start: float) -> float:
        """``wall`` seconds that began at ``start``, in calibrated seconds."""
        return wall / self.kernel_seconds(start, start + wall) * REF_SECONDS
