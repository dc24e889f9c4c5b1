"""Span tracing of jcas's layers, installed from outside the package.

``installed`` replaces the functions callers look up (``jcas.cli.assemble_frame``,
``jcas.receiver.process_sensing``, ...) with timing wrappers and puts the
originals back on exit. Each wrapper records a span: layer, start, end,
parent span and op id. Spans stay in memory until ``layer_metrics`` turns
them into per-op self times and counts.

A span's self time is its duration minus that of its direct children, so
per op the self times add up to the root span by construction. Work in a
function that is not wrapped, and the wrappers' own bookkeeping (binding
arguments, the counters), lands in the self time of the enclosing span.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager

from workloads import pattern_path


def _frame_samples(t, args, result):
    t.counts["waveform.samples"] += len(result)


def _channel_samples(t, args, result):
    t.counts["channel.samples"] += len(result)


def _sense_samples(t, args, result):
    t.counts["receiver.sense.samples"] += len(args["rx"])


def _file_bytes(metric):
    def count(t, args, result):
        t.counts[metric] += os.path.getsize(args["path"])
    return count


def _correlations(t, args, result):
    # band columns x 2 hypotheses x 2 windows x 3 calibration symbols,
    # computed from the pattern shape rather than counted in the loop
    t.counts["receiver.build_pattern.correlations_computed"] += result.band * 12


def _pattern(t, args, result):
    usable = result.resolvable[args["scn"].n_guard:]
    t.counts["pattern.cells"] += usable.size
    t.counts["pattern.resolvable"] += int(usable.sum())


def _evaluation(t, args, result):
    t.counts["detect.matched"] += len(result.matched)
    t.counts["detect.truths"] += len(args["truth"])
    t.counts["detect.false_alarms"] += len(result.false_alarms)


def _bits(t, args, result):
    t.counts["comms.bits"] += len(args["bits"])


# (module, attribute, time metric, counter). The time metric is the layer's
# self time; a layer wrapped in several modules shares one metric.
PROBES = [
    ("cli", "run_simulate", "cli.run_simulate.self_s", None),
    ("cli", "make_schedule", "scheduler.busy_s", None),
    ("cli", "assemble_frame", "waveform.assemble.busy_s", _frame_samples),
    ("comms", "assemble_frame", "waveform.assemble.busy_s", _frame_samples),
    ("receiver", "assemble_frame", "waveform.assemble.busy_s", _frame_samples),
    ("cli", "synthesize_rx", "channel.synthesize.busy_s", _channel_samples),
    # also the echo that receiver.pattern_cell_direct synthesizes to validate
    ("channel", "echo_component", "channel.synthesize.busy_s", None),
    ("cli", "load_or_build_pattern", None, _pattern),
    ("cli", "write_rd_csv", "cli.write_csv.busy_s", _file_bytes("cli.write_csv.bytes")),
    ("cli", "write_rd_binary", "cli.write_bin.busy_s", _file_bytes("cli.write_bin.bytes")),
    ("receiver", "process_sensing", "receiver.sense.busy_s", _sense_samples),
    ("receiver", "build_pattern", "receiver.build_pattern.busy_s", _correlations),
    ("receiver", "validate_pattern", "receiver.validate_pattern.busy_s", None),
    ("receiver", "solve_windows", "receiver.solve.busy_s", None),
    ("receiver", "peak_cleanup", "receiver.cleanup.busy_s", None),
    ("detect", "find_peaks", "detect.find_peaks.busy_s", None),
    ("detect", "evaluate", "detect.evaluate.busy_s", _evaluation),
    ("comms", "run_link", "comms.run_link.busy_s", _bits),
]

CALL_COUNTS = {"waveform.assemble.busy_s": "waveform.assemble.calls",
               "receiver.sense.busy_s": "receiver.sense.calls",
               "detect.find_peaks.busy_s": "detect.find_peaks.calls"}


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self):
        self.spans: list[list] = []    # [metric, start, end, parent, op]
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._open: list[int] = []

    def begin(self, metric: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([metric, time.perf_counter(), None, parent, self.op])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, metric, counter, cli):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            name = metric
            if name is None:   # the pattern cache: a hit or miss is known beforehand
                hit = pattern_path(cli, bound["scn"]).exists()
                self.counts["cli.pattern_cache.hits" if hit
                            else "cli.pattern_cache.misses"] += 1
                name = "cli.pattern_cache.load_s" if hit else "cli.pattern_cache.store_s"
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                counter(self, bound, result)
            return result
        return traced


def probe_modules() -> dict:
    """The jcas modules whose names ``PROBES`` wraps, by short name."""
    import jcas
    return {"cli": jcas.cli, "channel": jcas.channel, "receiver": jcas.receiver,
            "detect": jcas.detect, "comms": jcas.comms}


@contextmanager
def installed(tracer: Tracer, modules: dict):
    """Wrap every probe target for the duration of the block."""
    saved = []
    try:
        for mod, attr, metric, counter in PROBES:
            m = modules[mod]
            orig = getattr(m, attr)
            saved.append((m, attr, orig))
            setattr(m, attr, tracer.wrap(orig, metric, counter, modules["cli"]))
        yield tracer
    finally:
        for m, attr, orig in reversed(saved):
            setattr(m, attr, orig)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def root_coverage(spans: list[list], op_times: list[float]
                  ) -> tuple[float, list[str]]:
    """Share of each op's timed call that its root span does not cover.

    Every span must belong to an op, and every op must have exactly one
    root span (``run_simulate`` or ``load_or_build_pattern``). What lies
    outside the root is the call's own overhead plus the root wrapper's
    bookkeeping; returns the largest such share and the problems found.
    """
    problems = []
    roots: dict[int, list[int]] = defaultdict(list)
    for i, (metric, _, _, parent, op) in enumerate(spans):
        if op is None:
            problems.append(f"span {metric} outside any op")
        elif parent is None:
            roots[op].append(i)
    worst = 0.0
    for op, t in enumerate(op_times):
        if len(roots[op]) != 1:
            problems.append(f"op {op} has {len(roots[op])} root spans")
            continue
        _, start, end, _, _ = spans[roots[op][0]]
        worst = max(worst, (t - (end - start)) / t)
    return worst, problems


def time_metrics() -> list[str]:
    names = {metric for _, _, metric, _ in PROBES if metric}
    return sorted(names | {"cli.pattern_cache.load_s", "cli.pattern_cache.store_s"})


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-op self time of every layer, per-op counts and the ratios."""
    selfs = self_times(tracer.spans)
    busy = dict.fromkeys(time_metrics(), 0.0)
    calls = defaultdict(int)
    for (metric, *_), s in zip(tracer.spans, selfs):
        busy[metric] += s
        calls[metric] += 1
    out = {name: value / n_ops for name, value in busy.items()}
    for metric, name in CALL_COUNTS.items():
        out[name] = calls[metric] / n_ops
    counted = ("cli.pattern_cache.hits", "cli.pattern_cache.misses",
               "cli.write_csv.bytes", "cli.write_bin.bytes", "channel.samples",
               "waveform.samples", "receiver.sense.samples",
               "receiver.build_pattern.correlations_computed", "detect.matched",
               "detect.truths", "detect.false_alarms", "comms.bits")
    for name in counted:
        out[name] = tracer.counts[name] / n_ops
    cells = tracer.counts["pattern.cells"]
    out["receiver.pattern.resolvable_frac"] = (
        tracer.counts["pattern.resolvable"] / cells if cells else 0.0)
    return out
