"""Spans and counters recorded around brwlab's public functions.

The recorder patches module and class attributes from outside the
program, at the name each caller looks up (``brwlab.mtp.run_walk``, not
``brwlab.walks.run_walk``), so no line of brwlab changes.  Spans are kept
in memory as ``(name, start, end, parent)`` tuples and analysed after the
run; a span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(lambda: [0, 0.0])  # name -> [calls, total_s]
        self.work = defaultdict(float)  # work counts read from returned objects
        self._stack = []

    def span(self, name, fn, on_result=None):
        """Wrap fn so that every call records a span named name.

        on_result(tracer, args, result) may add work counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, self.clock(), 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = self.clock()
                self._stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap fn with an aggregate call counter and no span, for
        functions called once per vertex."""
        slot = self.counters[name]
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[0] += 1
                slot[1] += clock() - t0

        return wrapper

    def dump(self):
        return {
            "spans": self.spans,
            "counters": {k: list(v) for k, v in self.counters.items()},
            "work": dict(self.work),
        }


def self_times(spans):
    """Self time of each span: duration minus the duration of its
    direct children (which in turn cover their own children)."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def root_time(spans):
    return sum(end - start for _, start, end, parent in spans if parent < 0)


# ---------------------------------------------------------------------------
# what is wrapped, and the per-layer metrics derived from it


def _count_tree(tracer, args, tree):
    tracer.work["gw.trees"] += 1
    tracer.work["gw.vertices"] += tree.n_vertices
    tracer.work["gw.truncated"] += bool(tree.truncated)


def _count_walk(tracer, args, walk):
    tracer.work["walks.steps"] += len(walk.values) - 1


def _count_terms(tracer, args, result):
    tracer.work["groups.kernel_terms"] += len(result[0])


def _count_oriented(tracer, args, result):
    tracer.work["magic.vertices"] += args[0].n_vertices


def _count_evaluated(tracer, args, result):
    tracer.work["mtp.certified"] += result is not None


def install(tracer):
    """Patch brwlab's layer boundaries; returns the wrapped cli.main."""
    from brwlab import cli, gw, groups, intersections, magic, mtp

    def patch(owner, attr, name, on_result=None):
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), on_result))

    patch(cli, "substream", "rng.substream")
    patch(intersections, "sample_gw", "gw.sample_gw", _count_tree)
    patch(intersections, "percolate_root_component", "gw.percolate_root_component")
    patch(mtp, "sample_unimodular_gw", "gw.sample_unimodular_gw", _count_tree)
    patch(gw.MarkedTree, "adjacency", "gw.MarkedTree.adjacency")
    patch(intersections, "run_walk", "walks.run_walk", _count_walk)
    patch(mtp, "run_walk", "walks.run_walk", _count_walk)
    groups.neighbors = tracer.counter("groups.neighbors", groups.neighbors)
    patch(groups, "scaled_p_series", "groups.scaled_p_series", _count_terms)
    patch(magic, "branch_deficiency_values", "magic.branch_deficiency_values",
          _count_oriented)
    patch(magic, "supported_gap_values", "magic.supported_gap_values")
    from_tree = magic.OrientedTree.__dict__["from_tree"].__func__
    magic.OrientedTree.from_tree = classmethod(
        tracer.span("magic.OrientedTree.from_tree", from_tree))
    patch(mtp, "evaluate_sample", "mtp.evaluate_sample", _count_evaluated)
    patch(mtp, "paired_difference", "mtp.paired_difference")
    pullback = mtp.pullback_sampler

    @functools.wraps(pullback)
    def traced_pullback(*args, **kwargs):
        return tracer.span("mtp.sampler", pullback(*args, **kwargs))

    mtp.pullback_sampler = traced_pullback
    patch(intersections, "thinned_intersection_sweep",
          "intersections.thinned_intersection_sweep")
    return tracer.span("cli.main", cli.main)


# (function, stats) pairs reported for every workload; stats other than
# calls and self_s are per-call percentiles of the span duration.
SPAN_STATS = (
    ("rng.substream", ("calls", "self_s")),
    ("gw.sample_gw", ("calls", "self_s", "p50_us", "p99_us")),
    ("gw.percolate_root_component", ("calls", "self_s", "p50_us", "p99_us")),
    ("gw.sample_unimodular_gw", ("calls", "self_s", "p50_us", "p99_us")),
    ("gw.MarkedTree.adjacency", ("self_s",)),
    ("walks.run_walk", ("calls", "self_s", "p50_us", "p99_us")),
    ("groups.scaled_p_series", ("calls", "self_s")),
    ("magic.branch_deficiency_values", ("calls", "self_s", "p50_us", "p99_us")),
    ("magic.supported_gap_values", ("self_s",)),
    ("magic.OrientedTree.from_tree", ("self_s",)),
    ("mtp.evaluate_sample", ("calls", "self_s", "p50_us", "p99_us")),
    ("mtp.paired_difference", ("self_s",)),
    ("mtp.sampler", ("self_s",)),
    ("intersections.thinned_intersection_sweep", ("self_s",)),
    ("cli.main", ("self_s",)),
)


def _percentile(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    rank = max(0, min(len(sorted_vals) - 1, int(round(q * (len(sorted_vals) - 1)))))
    return sorted_vals[rank]


def _safe_div(a, b):
    return a / b if b > 0 else 0.0


def layer_metrics(dumps, output_bytes):
    """Per-layer metrics from the dumps of the traced rounds of one run.

    Calls, times and work counts are means per round; percentiles pool
    every call; ratios and rates divide totals."""
    rounds = len(dumps)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    counters = defaultdict(lambda: [0, 0.0])
    work = defaultdict(float)
    roots = 0.0
    self_sum = 0.0
    for dump in dumps:
        spans = dump["spans"]
        for (name, start, end, _), st in zip(spans, self_times(spans)):
            calls[name] += 1
            self_s[name] += st
            durations[name].append(end - start)
            self_sum += st
        roots += root_time(spans)
        for name, (n, total) in dump["counters"].items():
            counters[name][0] += n
            counters[name][1] += total
        for name, value in dump["work"].items():
            work[name] += value
    out = {}
    for name, stats in SPAN_STATS:
        ds = sorted(durations[name])
        values = {
            "calls": (calls[name] / rounds, "count"),
            "self_s": (self_s[name] / rounds, "s"),
            "p50_us": (_percentile(ds, 0.50) * 1e6, "us"),
            "p99_us": (_percentile(ds, 0.99) * 1e6, "us"),
        }
        for stat in stats:
            out[f"{name}.{stat}"] = values[stat]
    n_calls, n_total = counters["groups.neighbors"]
    out["groups.neighbors.calls"] = (n_calls / rounds, "count")
    out["groups.neighbors.total_s"] = (n_total / rounds, "s")
    out["gw.vertices"] = (work["gw.vertices"] / rounds, "count")
    out["gw.truncated_ratio"] = (_safe_div(work["gw.truncated"], work["gw.trees"]), "ratio")
    out["walks.steps"] = (work["walks.steps"] / rounds, "count")
    out["walks.steps_per_s"] = (_safe_div(work["walks.steps"], self_s["walks.run_walk"]), "1/s")
    out["groups.kernel_terms_per_s"] = (
        _safe_div(work["groups.kernel_terms"], self_s["groups.scaled_p_series"]), "1/s")
    out["magic.vertices_per_s"] = (
        _safe_div(work["magic.vertices"], self_s["magic.branch_deficiency_values"]), "1/s")
    out["mtp.certified_ratio"] = (
        _safe_div(work["mtp.certified"], calls["mtp.evaluate_sample"]), "ratio")
    out["cli.output_bytes"] = (output_bytes / rounds, "bytes")
    out["trace.root_s"] = (roots / rounds, "s")
    out["trace.self_sum_s"] = (self_sum / rounds, "s")
    return out
