"""In-memory spans and counters for the benchmark's traced run.

A span is recorded around one call the benchmark makes into the package:
name ``<module>.<function>``, start, end, parent span and cycle id.  Spans
nest the way the calls nest, so a span's self time is its duration minus
the durations of its direct children.  Nothing inside the package is
patched: the finest boundary visible here is a public function call.

Parts are the benchmark's own timed steps.  They are always timed (the
end-to-end metrics are built from them) and become spans only when
tracing is on; layer spans are no-ops when it is off.

Spans and parts run on ``cpu_ns``, the CPU time of this process and of its
finished children.  Time in which another tenant holds the CPU, or the
hypervisor takes it (steal), is not counted.

On a shared host the CPU time of fixed work still swings by up to 40%, in
phases of seconds to minutes, because other tenants share the cores'
caches, memory bandwidth and hyperthreads.  So a fixed speed probe (see
``probe_ns``) runs just before and just after every part, outside the
timed region.  A part's reference-speed time is its CPU time scaled by
``PROBE_REFERENCE_NS`` over the mean of the two probes: the time it would
have taken at the speed where the probe takes ``PROBE_REFERENCE_NS``.  The
probe never calls the package, so a change to the package moves only the
part's own time.  Parts also keep their raw CPU and wall time.
"""

from __future__ import annotations

import contextlib
import json
import resource
import time
from collections import defaultdict

import numpy as np

_NULL = contextlib.nullcontext()

# the probe's CPU time at the reference speed: its typical time on the
# 2-vCPU x86_64 machine the benchmark's bounds were set on
PROBE_REFERENCE_NS = 400_000


def cpu_ns() -> int:
    """User and system CPU nanoseconds of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + round((children.ru_utime + children.ru_stime) * 1e9)


def _probe_work() -> int:
    # an interpreted loop and small numpy calls, the mix of the package's
    # hot paths, with no call into the package
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    x = np.arange(64.0)
    for _ in range(100):
        x = np.sqrt(x * x + 1.0)
    return acc


def probe_ns(repeats: int = 3) -> int:
    """CPU nanoseconds of the fixed probe work, fastest of ``repeats``."""
    best = None
    for _ in range(repeats):
        start = time.process_time_ns()
        _probe_work()
        elapsed = time.process_time_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class _Span:
    __slots__ = ("rec", "name", "tag", "index", "start")

    def __init__(self, rec: "Recorder", name: str, tag):
        self.rec = rec
        self.name = name
        self.tag = tag

    def __enter__(self):
        rec = self.rec
        self.index = len(rec.spans)
        parent = rec._stack[-1] if rec._stack else -1
        rec.spans.append([self.name, self.tag, 0, 0, parent, rec.cycle])
        rec._stack.append(self.index)
        self.start = cpu_ns()
        return self

    def __exit__(self, *exc):
        end = cpu_ns()
        rec = self.rec
        rec._stack.pop()
        record = rec.spans[self.index]
        record[2] = self.start
        record[3] = end
        return False


class _Part:
    """Always-on timer for one benchmark step, bracketed by speed probes;
    also a span when tracing."""

    __slots__ = ("rec", "name", "span", "start", "wall_start", "probe_before")

    def __init__(self, rec: "Recorder", name: str):
        self.rec = rec
        self.name = name
        self.span = _Span(rec, "bench." + name, None) if rec.enabled else None

    def __enter__(self):
        rec = self.rec
        if rec.last_probe is None:
            rec.last_probe = probe_ns()
        self.probe_before = rec.last_probe
        if self.span is not None:
            self.span.__enter__()
        self.wall_start = time.perf_counter_ns()
        self.start = cpu_ns()
        return self

    def __exit__(self, *exc):
        elapsed = cpu_ns() - self.start
        wall = time.perf_counter_ns() - self.wall_start
        if self.span is not None:
            self.span.__exit__(*exc)
        rec = self.rec
        rec.last_probe = probe_ns()
        scale = 2 * PROBE_REFERENCE_NS / (self.probe_before + rec.last_probe)
        for table, ns in ((rec.parts, elapsed * scale), (rec.cpu, elapsed), (rec.wall, wall)):
            table[self.name] = table.get(self.name, 0.0) + ns * 1e-9
        return False


class Recorder:
    """Holds the spans and counters of one run; ``enabled`` turns tracing on.

    ``parts``, ``cpu`` and ``wall`` accumulate the reference-speed, CPU
    and wall seconds of each benchmark step until ``take_parts`` hands them
    over (once per session).  ``last_probe`` is the latest speed probe; a
    part that starts right after another reuses it.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []  # [name, tag, start, end (cpu_ns), parent index, cycle]
        self.counters: list = []  # (name, value, cycle)
        self.parts: dict = {}
        self.cpu: dict = {}
        self.wall: dict = {}
        self.last_probe = None
        self.cycle = None
        self._stack: list = []

    def start_cycle(self, cycle):
        self.cycle = cycle

    def take_parts(self) -> tuple:
        """(reference-speed, CPU, wall) seconds per step since the last call;
        the next part probes the speed afresh."""
        out = (self.parts, self.cpu, self.wall)
        self.parts, self.cpu, self.wall = {}, {}, {}
        self.last_probe = None
        return out

    def span(self, name: str, tag=None):
        return _Span(self, name, tag) if self.enabled else _NULL

    def part(self, name: str) -> _Part:
        return _Part(self, name)

    def count(self, name: str, value):
        if self.enabled:
            self.counters.append((name, value, self.cycle))

    def self_seconds(self) -> list:
        """Self time of every span, index-aligned with ``spans``."""
        child = [0] * len(self.spans)
        for name, tag, start, end, parent, cycle in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[3] - s[2] - child[i]) * 1e-9 for i, s in enumerate(self.spans)]

    def totals(self, cycles) -> dict:
        """{(name, tag): {cycle: self seconds}} over the given cycles."""
        selfs = self.self_seconds()
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, tag, start, end, parent, cycle) in enumerate(self.spans):
            if cycle in cycles:
                out[(name, tag)][cycle] += selfs[i]
        return out

    def write(self, path, header: dict):
        """Write ``header``, then spans and counters, as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, tag, start, end, parent, cycle) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": name, "tag": tag, "start_cpu_ns": start,
                                     "end_cpu_ns": end, "parent": parent, "cycle": cycle}) + "\n")
            for name, value, cycle in self.counters:
                fh.write(json.dumps({"counter": name, "value": value, "cycle": cycle}) + "\n")
