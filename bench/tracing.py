"""Operation accounting and span tracing for the benchmark.

Every public urnmix call (or CLI process) the benchmark makes goes through a
``Recorder``.  With tracing off it keeps only what the end-to-end metrics
need: one latency per operation, whether the operation failed, and summed
time per call name.  With tracing on it also keeps one span per call, held
in memory and written out when the run ends.

A span is (id, parent id, operation id, layer, name, start, end).  Each
workload task (one curve, one sweep, one CLI process ...) opens a root span
in the ``bench`` layer; the calls it makes are its children.  Calls that
belong to one operation share its operation id, e.g. the step span of one
``evolve_sequence`` curve point and the tv and l2 spans of its law.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

FAILED = object()
"""Returned by ``Recorder.call`` in place of a result when the call raised."""


class Op:
    """One operation: a public call, a generator, or a CLI process."""

    __slots__ = ("id", "name", "latency", "failed")

    def __init__(self, op_id: int, name: str):
        self.id = op_id
        self.name = name
        self.latency = 0.0
        self.failed = False


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.ops: list[Op] = []
        self.time_in: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.samples: defaultdict[str, list] = defaultdict(list)
        self.spans: list[tuple] = []
        self.failures: list[str] = []
        self._stack: list[int] = []
        self._clock = time.perf_counter

    # -- operations ---------------------------------------------------------

    def new_op(self, name: str) -> Op:
        op = Op(len(self.ops), name)
        self.ops.append(op)
        return op

    def fail(self, op: Op, why: str) -> None:
        """Mark an operation failed; keep the first reasons for the report."""
        op.failed = True
        if len(self.failures) < 20:
            self.failures.append(f"{op.name}: {why}")

    def check(self, op: Op, ok: bool, why: str) -> bool:
        """Record an output check against the operation that produced the output."""
        if not ok:
            self.fail(op, why)
        return ok

    def mark(self) -> tuple:
        """Totals so far, to take per-pass differences against."""
        return dict(self.time_in), dict(self.counts), len(self.ops)

    # -- timing -------------------------------------------------------------

    @contextmanager
    def task(self, name: str):
        """Root span around one workload task; checks run inside it."""
        if not self.traced:
            yield
            return
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = self._clock()
        try:
            yield
        finally:
            t1 = self._clock()
            self._stack.pop()
            self.spans[sid] = (sid, parent, None, "bench", name, t0, t1)

    def timed(self, op: Op, layer: str, name: str, fn, *args, **kwargs):
        """Run fn as (part of) op; add its time to op and to ``time_in[name]``.

        Exceptions propagate; ``call`` is the catching form.
        """
        clock = self._clock
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = clock()
            op.latency += t1 - t0
            self.time_in[name] += t1 - t0
            if self.traced:
                parent = self._stack[-1] if self._stack else None
                self.spans.append((len(self.spans), parent, op.id, layer, name, t0, t1))

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """One public call as one operation; returns FAILED if it raised."""
        op = self.new_op(name)
        try:
            return self.timed(op, layer, name, fn, *args, **kwargs)
        except Exception as exc:  # the run must go on; the failure is counted
            self.fail(op, f"{type(exc).__name__}: {exc}")
            return FAILED

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span duration minus the time its children cover.

        Children of one span never overlap (one caller, one thread), so the
        covered time is the sum of their durations.
        """
        child_time: defaultdict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[1] is not None:
                child_time[s[1]] += s[6] - s[5]
        out: defaultdict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s[3]] += (s[6] - s[5]) - child_time[s[0]]
        return dict(out)

    def span_records(self) -> list[dict]:
        keys = ("id", "parent", "op", "layer", "name", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans]
