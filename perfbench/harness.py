"""Closed-loop round runner, spans and the estimators.

One caller drives the library from one thread and waits for each answer
before it asks again.  A run is a sequence of whole rounds.  Every round
holds the same slots, in the same order; slot k of every round is the same
kind of operation on fresh inputs of the same shape.  Each round generates
its own inputs, sets them up (parses, builds problems, enumerates), runs
its operations and then checks their outputs.  Only the operations are
timed as work; set-up is timed on its own, and checking is not timed.
"""
from __future__ import annotations

import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

perf = time.perf_counter


class Tracer:
    """Spans (name, start, end, parent, op) around calls into the library.

    Disabled, `call` costs one extra Python call and records nothing.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.op = -1
        self.parent = -1

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, perf(), self.parent, self.op))

    def count(self, name: str, amount=1):
        if self.enabled:
            self.counts[name] += amount

    def open(self, name: str, op: int) -> int:
        """Reserve a span that later spans name as their parent."""
        self.op = op
        self.parent = len(self.spans)
        self.spans.append((name, perf(), None, -1, op))
        return self.parent

    def close(self, sid: int):
        name, start, _, parent, op = self.spans[sid]
        self.spans[sid] = (name, start, perf(), parent, op)
        self.parent = -1

    def layer_table(self) -> dict:
        """name -> [calls, total seconds, self seconds]."""
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict = {}
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[sid]
        return table


@dataclass
class Slot:
    """One operation of a round: `run(tracer)` returns what `check` reads."""

    name: str
    run: object
    check: object = None


@dataclass
class RunResult:
    round_times: list = field(default_factory=list)  # per round: per-slot seconds
    traced: list = field(default_factory=list)  # per round: was it traced
    round_slowdown: list = field(default_factory=list)  # per round: per-slot slowdown
    setup_times: list = field(default_factory=list)
    setup_slowdown: list = field(default_factory=list)
    attempted: int = 0
    failures: dict = field(default_factory=lambda: defaultdict(int))
    wrong: list = field(default_factory=list)
    peak_rss_mb: float = 0.0


#: Roughly the time of `calibrate()` on the reference machine when nothing
#: else contends for the core: the unit of the scaled times.
CALIBRATION_REF_S = 0.005


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python dict and tuple work.

    Ten seeds per workload spread 1-5% scaled by this loop, and 2-7% scaled
    by a loop of tuple indexing and comparisons, on the same inputs.
    """
    start = perf()
    table: dict = {}
    for k in range(20000):
        table[(k & 255, k >> 8)] = table.get((k & 127, k >> 9), 0) + 1
    return perf() - start


def slowdown() -> float:
    """How much slower than its reference the machine runs right now."""
    return calibrate() / CALIBRATION_REF_S


def ops_per_s(round_times: list, round_slowdown: list) -> float:
    """Operations completed per second at the reference speed: each
    operation's time is divided by the slowdown measured right after it."""
    ops = sum(len(ts) for ts in round_times)
    return ops / sum(t / s for ts, ss in zip(round_times, round_slowdown) for t, s in zip(ts, ss))


def setup_s(res: "RunResult") -> float:
    """Median set-up time of a round at the reference speed."""
    return statistics.median(t / s for t, s in zip(res.setup_times, res.setup_slowdown))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, seconds: float, tracer: Tracer, trace: bool) -> RunResult:
    """Run whole rounds until `seconds` have passed.  With `trace`, every
    other round records spans, so traced and untraced rounds interleave."""
    res = RunResult()
    begin = perf()
    r = 0
    while r == 0 or perf() - begin < seconds:
        inputs = workload.generate(r)
        traced = trace and r % 2 == 0
        tracer.enabled = traced
        before = slowdown()
        sid = tracer.open("setup", -1) if traced else -1
        t0 = perf()
        prepared = workload.setup(inputs, tracer)
        res.setup_times.append(perf() - t0)
        if sid >= 0:
            tracer.close(sid)
        res.setup_slowdown.append((before + slowdown()) / 2)
        slots = workload.slots(prepared, r)
        times, slow, outputs = [], [], []
        for slot in slots:
            sid = tracer.open("op." + slot.name, res.attempted) if traced else -1
            t0 = perf()
            out = slot.run(tracer)
            times.append(perf() - t0)
            if sid >= 0:
                tracer.close(sid)
            outputs.append(out)
            res.attempted += 1
            slow.append(slowdown())
        tracer.enabled = False
        res.round_times.append(times)
        res.round_slowdown.append(slow)
        res.traced.append(traced)
        for k, (slot, out) in enumerate(zip(slots, outputs)):
            verdict = slot.check(out) if slot.check else None
            if verdict is None:
                continue
            kind, detail = verdict
            if kind == "failed":
                res.failures[detail] += 1
            else:
                res.wrong.append(f"round {r} slot {k} ({slot.name}): {detail}")
        r += 1
    res.peak_rss_mb = peak_rss_mb()
    if trace:
        workload.probe(tracer)
    return res
