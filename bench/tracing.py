"""Spans around lpq's public functions, installed from outside the package.

``install`` replaces every module-level binding in ``lpq.*`` whose value is
one of the functions in ``SPANNED`` or ``TALLIED`` (and
``OracleHandle.__call__``) with a wrapper that passes arguments and results
through unchanged; ``uninstall`` puts the originals back.  A function a
later refactor removes is listed in ``Tracer.absent`` instead of failing.

Spanned functions record (name, start, end, parent) per call.  Tallied
ones run at the microsecond scale, so each call only adds to a
(calls, ns, truthy results) tally kept on the enclosing span.  Everything
stays in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter_ns

SPANNED = {
    "simulator": ("grover_iterate", "marked_mask", "dft", "qhs_state", "simulated_table"),
    "spectrum": ("case_codes", "make_table"),
    "closedform": ("closed_form_table",),
    "recovery": ("recover_period", "success_set", "success_probability"),
    "analysis": ("monte_carlo_trials", "workfactor_comparison", "expected_trials"),
    "offset": ("find_offset_counting", "find_offset_decreasing", "amplified_measure_member"),
    "cli": ("main",),
}
TALLIED = {"recovery": ("accepted_denominator",)}
ORACLE_CALL = "oracle.OracleHandle.__call__"


@dataclass
class Span:
    name: str
    parent: int | None
    start: int = 0
    end: int = 0
    tallies: dict = field(default_factory=dict)  # name -> [calls, ns, truthy]

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, self.stack[-1] if self.stack else None))
        self.stack.append(idx)
        self.spans[idx].start = perf_counter_ns()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter_ns()
        self.stack.pop()

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _tallied(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            truthy = 0
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                truthy = 1 if result else 0
                return result
            finally:
                dt = perf_counter_ns() - t0
                tally = self.spans[self.stack[-1]].tallies.setdefault(name, [0, 0, 0])
                tally[0] += 1
                tally[1] += dt
                tally[2] += truthy

        return wrapper

    # -- installation --

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items() if key == "lpq" or key.startswith("lpq.")]
        for kinds, make in ((SPANNED, self._spanned), (TALLIED, self._tallied)):
            for short, names in kinds.items():
                module = importlib.import_module(f"lpq.{short}")
                for fname in names:
                    fn = getattr(module, fname, None)
                    if not callable(fn):
                        self.absent.append(f"{short}.{fname}")
                        continue
                    wrapper = make(f"{short}.{fname}", fn)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is fn:
                                self._restore.append((mod, attr, fn))
                                setattr(mod, attr, wrapper)
        cls = getattr(importlib.import_module("lpq.oracle"), "OracleHandle", None)
        call = vars(cls).get("__call__") if cls is not None else None
        if call is None:
            self.absent.append(ORACLE_CALL)
        else:
            self._restore.append((cls, "__call__", call))
            cls.__call__ = self._tallied(ORACLE_CALL, call)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- queries --

    def subtree(self, root: int) -> range:
        """Indices of ``root`` and its descendants (spans are appended in
        call order, so a subtree is contiguous)."""
        end = root + 1
        while end < len(self.spans) and self._under(end, root):
            end += 1
        return range(root, end)

    def _under(self, idx: int, root: int) -> bool:
        while idx is not None and idx > root:
            idx = self.spans[idx].parent
        return idx == root

    def count(self, name: str, indices) -> int | None:
        """Calls of ``name`` within ``indices``; None if it is absent."""
        if name in self.absent:
            return None
        total = 0
        for i in indices:
            span = self.spans[i]
            total += span.name == name
            tally = span.tallies.get(name)
            if tally:
                total += tally[0]
        return total

    def summary(self, indices) -> dict:
        """name -> {calls, ns, self_ns, truthy} over ``indices``.  Self time
        is a span's duration minus the time of its spans and tallies."""
        indices = list(indices)
        child_ns = dict.fromkeys(indices, 0)
        out: dict[str, dict] = {}
        for i in indices:
            span = self.spans[i]
            if span.parent in child_ns:
                child_ns[span.parent] += span.ns
            for name, (calls, ns, truthy) in span.tallies.items():
                child_ns[i] += ns
                agg = out.setdefault(name, dict(calls=0, ns=0, self_ns=0, truthy=0))
                agg["calls"] += calls
                agg["ns"] += ns
                agg["self_ns"] += ns
                agg["truthy"] += truthy
        for i in indices:
            span = self.spans[i]
            agg = out.setdefault(span.name, dict(calls=0, ns=0, self_ns=0, truthy=0))
            agg["calls"] += 1
            agg["ns"] += span.ns
            agg["self_ns"] += span.ns - child_ns[i]
        return out
