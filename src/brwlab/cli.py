"""Reproducible experiment runner.

Usage: brwlab --config cfg.json [--seed N] [--workers N] [--out DIR]

Each run writes a fixed-name CSV (or JSON report) plus manifest.json into
the output directory; the manifest comes last and marks a complete run.
Replicate work is sharded over counter-based substreams keyed by (seed,
replicate index) only, so CSV bodies are byte identical for any worker
count, and the CSV is written shard by shard as the shards finish.
Exit status: 0 pass, 2 failed assertion,
1 usage error (a malformed flag or config, one "error:" line).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from collections import Counter
from functools import partial
from itertools import chain, cycle, repeat
from multiprocessing import Pool
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, groups, intersections, magic, mtp
from .gw import DEFAULT_BUDGET, MAX_OFFSPRING, OffspringDistribution, sample_marked_fuzz_tree
from .rng import substream

CAPS = {
    "replicates": 1_000_000,
    "n_trees": 1_000_000,
    "n_samples": 1_000_000,
    "depth": 64,
    "n_max": 60_000,
    "budget": 10_000_000,
    "max_vertices": 5_000,
    "ball_radius": 16,
    "grid": 64,
}

_RNG_NOTE = "philox counter-based; substream(i) = Philox(SeedSequence((seed, i)))"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing: a table of keys (at the end of this module) checked against
# the raw JSON before anything is allocated


REQUIRED = object()


class Key(NamedTuple):
    """One config key: a parser from its JSON value to a typed value (it
    raises ValueError), an inclusive range checked on that value (on each
    entry of a grid), and a default (REQUIRED: the key must be present;
    None: optional; a callable: computed from the keys before it)."""

    parse: Callable
    lo: object = None
    hi: object = None
    default: object = REQUIRED


def _parse(cfg, keys, after=None) -> dict:
    """Check a JSON object against a table of keys and return the typed
    values; after(values) then runs the cross-key checks.  A key outside
    the table is refused.  Every failure is a one-line ConfigError that
    names the key."""
    if not isinstance(cfg, dict):
        raise ConfigError("expected a JSON object")
    unknown = [key for key in cfg if key not in keys]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    out = {}
    for key, spec in keys.items():
        if key not in cfg:
            if spec.default is REQUIRED:
                raise ConfigError(f"missing config key {key!r}")
            out[key] = spec.default(out) if callable(spec.default) else spec.default
            continue
        try:
            val = spec.parse(cfg[key])
            for x in val if isinstance(val, list) else (val,):
                if spec.lo is not None and x < spec.lo:
                    raise ValueError(f"must be >= {spec.lo}")
                if spec.hi is not None and x > spec.hi:
                    raise ValueError(f"must be <= {spec.hi}")
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        out[key] = val
    if after is not None:
        try:
            after(out)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return out


def _peek(cfg, key, keys):
    """cfg[key] parsed alone by keys[key]: a key that is read before
    the table that all of cfg is checked against is known."""
    part = {k: v for k, v in cfg.items() if k == key} if isinstance(cfg, dict) else cfg
    return _parse(part, {key: keys[key]})[key]


def _is(what, ok, convert=None):
    """Parser that accepts a JSON value when ok(value) holds.  Exact type
    tests keep true/false out of the numbers; json.load yields NaN and
    Infinity, which the float range test rejects."""

    def parse(raw):
        if not ok(raw):
            raise ValueError(f"must be {what}")
        return raw if convert is None else convert(raw)

    return parse


_int = _is("an integer", lambda x: type(x) is int)
_float = _is("a finite number",
             lambda x: type(x) in (int, float) and abs(x) <= sys.float_info.max, float)
_open_unit = _is("in (0, 1)", lambda x: type(x) in (int, float) and 0 < x < 1, float)
_text = _is("a string", lambda x: type(x) is str)


def _one_of(*options):
    return _is(f"one of: {', '.join(options)}", lambda x: type(x) is str and x in options)


def _grid(entry, most=CAPS["grid"]):
    listed = _is(f"a nonempty list of at most {most} entries",
                 lambda x: type(x) is list and 0 < len(x) <= most)
    return lambda raw: [entry(x) for x in listed(raw)]


def _require(ok, message):
    if not ok:
        raise ValueError(message)


def _offspring(raw) -> OffspringDistribution:
    return OffspringDistribution(_grid(_float, MAX_OFFSPRING + 1)(raw))


def _group(raw) -> groups.GroupSpec:
    return groups.GroupSpec(**_parse(raw, {"kind": Key(_text), "param": Key(_int)}))


_GRAPH_KEYS = {
    "shape": Key(_one_of("path", "star")),
    "n": Key(_int, 2, CAPS["max_vertices"]),
    "marks": Key(_one_of("all", "leaves"), default="all"),
}


def _graph(raw):
    """A finite path or star for the fixed-graph samplers: (adj, marks)."""
    spec = _parse(raw, _GRAPH_KEYS)
    n, star = spec["n"], spec["shape"] == "star"
    adj = groups.adjacency(range(n), ((0 if star else i - 1, i) for i in range(1, n)))
    if spec["marks"] == "all":
        return adj, set(adj)
    return adj, {v for v, ns in adj.items() if len(ns) == 1}


@contextlib.contextmanager
def _replacing(path):
    """A text file on a sibling temporary that takes path's name when the
    block completes: a block that raises leaves no file under path."""
    part = f"{path}.part"
    try:
        with open(part, "w", newline="") as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


def _csv_text(*columns) -> str:
    """The CSV lines whose fields are the entries of the columns, as
    csv.writer would write them: ints by str, floats by repr, so every
    float round-trips (the shards build flags as 0/1 ints).  No field of
    the CLI's outputs needs quoting."""
    line = ",".join(["{}"] * len(columns)) + "\n"
    return "".join(map(line.format, *columns))


@contextlib.contextmanager
def _csv_file(path, header):
    """A text file that starts with the header line and reaches path only
    when the block completes."""
    with _replacing(path) as fh:
        fh.write(_csv_text(*zip(header)))
        yield fh


def _write_json(path, obj):
    with _replacing(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


# ---------------------------------------------------------------------------
# sharded experiments: one worker call covers a block of replicate indices;
# shards receive the typed config values and an (idx, rng) pair per index,
# and return their rows as CSV text, formatted in the worker, with a Counter
# of integer tallies for the manifest: sums that no cut of the shards moves


def _shard_magic_fuzz(v, streams):
    """Every tree of the shard in one batch, each folded in as it is
    sampled, and one kernel call per value and radius; rows run (tree, r,
    k) in grid order, and the tally counts the failed cells."""
    k_grid, r_grid = v["k_grid"], v["r_grid"]
    ids = []

    def sampled():
        for idx, rng in streams:
            ids.append(idx)
            tree = sample_marked_fuzz_tree(rng, v["max_vertices"])
            yield tree.parent, tree.marks

    batch = magic.TreeBatch.fold(sampled())
    branch = magic.branch_deficiency_values(batch, r_grid)
    gaps = {r: magic.supported_gap_values(batch, r) for r in dict.fromkeys(r_grid)}
    # (tree, r, k) tables
    bcount = np.stack([batch.count_at_least(branch[r], k_grid) for r in r_grid], axis=1)
    scount = np.stack([batch.count_at_least(gaps[r], k_grid) for r in r_grid], axis=1)
    n_marks = batch.n_marks.tolist()
    bound = magic.counting_bound(batch.n_marks[:, None, None], np.array(k_grid, dtype=float),
                                 np.array(r_grid, dtype=float)[:, None])
    ok = bcount <= np.maximum(bound, 0.0)
    cells = len(r_grid) * len(k_grid)
    # the bound depends on a tree only through |A|, so the text of its
    # cells is formatted once per |A| in the shard
    by_marks = dict(zip(n_marks, bound.reshape(-1, cells)))
    bound_text = {a: list(map(repr, row.tolist())) for a, row in by_marks.items()}
    heads = map("{},{},{}".format, ids, batch.sizes.tolist(), n_marks)
    return _csv_text(
        chain.from_iterable(map(repeat, heads, repeat(cells))),
        cycle([f"{k},{r}" for r in r_grid for k in k_grid]),
        bcount.ravel().tolist(),
        scount.ravel().tolist(),
        chain.from_iterable(map(bound_text.__getitem__, n_marks)),
        ok.ravel().astype(int).tolist(),
    ), Counter(bound_violations=int(np.count_nonzero(~ok)))


def _shard_mtp(v, streams):
    sampler = MTP_SAMPLERS[v["sampler"]][0](v)
    F = mtp.BUILTIN_TRANSPORT[v["f"]]
    W = mtp.BUILTIN_WEIGHT[v["w"]]
    return mtp.evaluate_samples(sampler, (F,), W, (rng for _, rng in streams))[0]


def _each_replicate(one, v, streams):
    """A shard that samples one replicate at a time: one(v, idx, rng) gives
    its rows and tallies (a dict of ints, or falsy when all are zero).
    TABLE binds one by functools.partial, which a pool can pickle."""
    rows = []
    total = Counter()
    for idx, rng in streams:
        more, tally = one(v, idx, rng)
        rows += more
        if tally:
            total.update(tally)
    return _csv_text(*zip(*rows)), total


def _intersect_one(v, idx, rng):
    rec = intersections.sample_intersections(
        v["offspring1"], v["offspring2"], v["group"], v["depth"], rng, v["budget"]
    )
    n = rec.pair_count
    return [(idx, n, len(rec.intersection), int(rec.truncated))], {
        "replicates": 1, "pairs": n, "pairs_squared": n * n,
        "budget_truncated": int(rec.budget_cut)}


def _thin_sweep_one(v, idx, rng):
    rep = intersections.thinned_intersection_sweep(
        v["offspring1"], v["offspring2"], v["group"], v["p_grid"], v["depth"], rng, v["budget"]
    )
    ps = sorted(rep.sets)
    rows = [(p, idx, len(rep.sets[p]), rep.pair_counts[p], int(rep.truncated)) for p in ps]
    bad = sum(not rep.sets[a] <= rep.sets[b] for a, b in zip(ps, ps[1:]))
    return rows, bad and {"monotonicity_violations": bad}


def _ends_one(v, idx, rng):
    """A survivor is tallied once, and once per (radius, qualifying count)."""
    res = intersections.trace_ends_experiment(
        v["offspring"], v["group"], v["depth"], v["radius_grid"], v["m_threshold"], rng,
        v["budget"],
    )
    rows = [(radius, idx, q, int(res.survived)) for radius, q in res.qualifying.items()]
    return rows, res.survived and {"survivors": 1, **dict.fromkeys(res.qualifying.items(), 1)}


def _shard_worker(args):
    """Run one shard on the substreams of its replicate indices: the one
    place where a replicate index becomes a random stream."""
    shard, v, seed, lo, hi = args
    return shard(v, ((idx, substream(seed, idx)) for idx in range(lo, hi)))


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, where the
    platform has one), which can be fewer than the machine has."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_sharded(shard, block, v, seed, n_units, workers):
    """Split the replicate indices into near-equal tasks of at most block
    indices, run shard on each, in one process or on a pool, and yield
    each task's result in task order, so rows come in replicate order
    whichever task finishes first.  A pool hands each task to whichever
    worker is free, so one worker can run more tasks than another; the
    task count is rounded up to a multiple of the processes so that, when
    tasks cost alike, the last wave keeps every process busy.  Each index
    has its own stream, so the cuts never change the rows."""
    n_tasks = -(-n_units // block)
    processes = min(workers, n_tasks, _usable_cpus())
    n_tasks = -(-n_tasks // processes) * processes
    cuts = [i * n_units // n_tasks for i in range(n_tasks + 1)]  # sizes differ by 1 at most
    tasks = [(shard, v, seed, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    if processes > 1:
        with Pool(processes=processes) as pool:
            yield from pool.imap(_shard_worker, tasks, chunksize=1)
    else:
        yield from map(_shard_worker, tasks)


def _sharded_csv(file, header, shard, block, units_key, verdict):
    """The driver of a sharded CSV experiment: each task's text reaches
    file as it arrives, which takes its name after the last task (a task
    that raises leaves no file), and verdict(v, tally) turns the sum of
    the tallies into the exit status and the manifest entries."""

    def run(v, seed, workers, out_dir):
        total = Counter()
        with _csv_file(os.path.join(out_dir, file), header) as out:
            for text, tally in _run_sharded(shard, block, v, seed, v[units_key], workers):
                out.write(text)
                total.update(tally)
        return verdict(v, total)

    return run


def _median(counts) -> float:
    """np.median of the multiset {value: count}: the middle value, or the
    mean of the two middle values."""
    values = sorted(counts)
    ends = np.cumsum([counts[x] for x in values])
    n = int(ends[-1])
    lo, hi = (values[np.searchsorted(ends, i, side="right")] for i in ((n - 1) // 2, n // 2))
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# experiment drivers (each takes the typed values of its table) and verdicts


def _run_spectra(v, seed, workers, out_dir):
    g, n_max, stride = v["group"], v["n_max"], v["stride"]
    traj = groups.spectral_radius_trajectory(g, n_max, stride).tolist()
    steps = (2 * groups.spectra_grid(n_max, stride)).tolist()
    with _csv_file(os.path.join(out_dir, "spectra.csv"), ("n", "estimate")) as out:
        out.write(_csv_text(steps, traj))
    return 0, {"closed_form": g.spectral_radius_closed_form(), "estimate": traj[-1]}


def _run_visits(v, seed, workers, out_dir):
    n_max, stride = v["n_max"], v["stride"]
    series = groups.visits_series(v["group"], v["mean"], n_max)
    picks = [*range(0, n_max, stride), n_max]
    with _csv_file(os.path.join(out_dir, "visits.csv"), ("n", "partial_sum")) as out:
        out.write(_csv_text(picks, series.partial_sums[picks].tolist()))
    return 0, {
        "diverged": series.diverged,
        "guard_index": series.guard_index,
        "final_sum": float(series.partial_sums[-1]),
    }


def _run_mtp_test(v, seed, workers, out_dir):
    n_samples = v["n_samples"]
    rows = np.empty((n_samples, 2))  # the (weighted difference, weight) of each certified sample
    n = inconclusive = 0
    for part, skipped in _run_sharded(_shard_mtp, 200, v, seed, n_samples, workers):
        rows[n:n + len(part)] = part
        n += len(part)
        inconclusive += skipped
    try:
        report = mtp.aggregate_mtp_report(rows[:n], inconclusive, n_samples, v["alpha"])
    except mtp.TruncationError as exc:
        # every sampler a config can build certifies f, the pull-back by its
        # checked depth: each sample skipped was cut at the vertex budget
        raise ConfigError(f"{exc}; {inconclusive} of them hit the vertex budget "
                          f"(budget = {v['budget']})") from exc
    _write_json(os.path.join(out_dir, "mtp_report.json"), report.to_json_dict())
    return (0 if report.passed else 2), {"report": report.to_json_dict()}


def _flagged(key, v, tally):
    """The verdict of an experiment whose tally counts its failed checks
    under key: exit 2 when any failed."""
    return (2 if tally[key] else 0), {key: tally[key]}


def _intersect_verdict(v, tally):
    """The Monte Carlo mean pair count against the exact one, in standard
    errors; the tallied moments give the variance's numerator exactly."""
    n, s, ss = tally["replicates"], tally["pairs"], tally["pairs_squared"]
    cut = tally["budget_truncated"]
    e = v["group"].identity()
    exact = intersections.expected_pairs_truncated(
        v["offspring1"].mean, v["offspring2"].mean, v["group"], e, e, v["depth"])
    mean = s / n
    se = math.sqrt((n * ss - s * s) / (n * n * (n - 1)))
    z = (mean - exact) / se if se > 0 else 0.0
    # a budget cut keeps a breadth-first prefix of the depth-capped tree,
    # so it can only lower a pair count: then only a mean above the exact
    # one fails
    status = 0 if (z if cut else abs(z)) <= 4.0 else 2
    return status, {
        "expected_pairs": exact,
        "mc_mean": mean,
        "mc_se": se,
        "z": z,
        "budget_truncated": cut,
    }


def _ends_verdict(v, tally):
    """Per radius, the median count of qualifying components of survivors."""
    by_radius = {}
    for key, count in tally.items():
        if key != "survivors":
            by_radius.setdefault(key[0], {})[key[1]] = count
    medians = {str(rad): _median(counts) for rad, counts in sorted(by_radius.items())}
    return 0, {"median_qualifying_by_radius": medians, "n_survivors": tally["survivors"]}


# ---------------------------------------------------------------------------
# the config table: experiment -> (driver, keys, cross-key check)


_BUDGET = Key(_int, 1, CAPS["budget"], DEFAULT_BUDGET)
_TREE_KEYS = {  # samplers of unimodular trees: the budget must cover root and co-root
    "group": Key(_group),
    "offspring": Key(_offspring),
    "depth": Key(_int, 1, CAPS["depth"]),
    "budget": Key(_int, 2, CAPS["budget"], DEFAULT_BUDGET),
}
_PAIR_KEYS = {
    "group": Key(_group),
    "offspring1": Key(_offspring),
    "offspring2": Key(_offspring, default=lambda v: v["offspring1"]),
    "depth": Key(_int, 0, CAPS["depth"]),
    "budget": _BUDGET,
}


def _check_pullback(v):
    least = mtp.certifying_reach(mtp.BUILTIN_TRANSPORT[v["f"]].radius)
    _require(v["depth"] >= least,
             f"depth {v['depth']} is below {least}, the least that certifies transport {v['f']!r}")
    if v["a_rule"] == mtp.A_RULE_BALL:  # only the ball rule materialises its ball
        groups.check_ball(v["group"], v["ball_radius"])


# mtp-test: sampler -> (builder, keys, cross-key check), parsed after the
# keys that every sampler shares; the check also sees those keys
MTP_SAMPLERS = {
    "uniform_root": (lambda v: mtp.uniform_root_sampler(*v["graph"]), {"graph": Key(_graph)}, None),
    "fixed_root": (
        lambda v: mtp.fixed_root_sampler(*v["graph"], v["root_index"]),
        {"graph": Key(_graph), "root_index": Key(_int, 0, default=0)},
        lambda v: _require(v["root_index"] < len(v["graph"][0]), "root_index outside the graph"),
    ),
    "pullback": (
        lambda v: mtp.pullback_sampler(
            v["group"], v["offspring"], v["depth"], v["a_rule"], ball_radius=v["ball_radius"],
            mu2=v["offspring2"], depth2=v["depth2"], budget=v["budget"]),
        dict(
            _TREE_KEYS,
            a_rule=Key(_one_of(mtp.A_RULE_ORIGIN, mtp.A_RULE_BALL, mtp.A_RULE_TRACE),
                       default=mtp.A_RULE_ORIGIN),
            ball_radius=Key(_int, 0, CAPS["ball_radius"], 1),
            offspring2=Key(_offspring, default=None),
            depth2=Key(_int, 1, CAPS["depth"], None),
        ),
        _check_pullback,
    ),
    "pushforward": (lambda v: mtp.pushforward_trace_sampler(
        v["group"], v["offspring"], v["depth"], budget=v["budget"]), _TREE_KEYS, None),
}

TABLE = {
    "spectra": (_run_spectra, {
        "group": Key(_group),
        "n_max": Key(_int, 1, CAPS["n_max"]),
        "stride": Key(_int, 1, default=lambda v: max(1, v["n_max"] // 2000)),
    }, lambda v: groups.check_lattice_box(v["group"], 2 * v["n_max"])),
    "visits": (_run_visits, {
        "group": Key(_group),
        "mean": Key(_float, 0.0),
        "n_max": Key(_int, 1, CAPS["n_max"]),
        "stride": Key(_int, 1, default=1),
    }, lambda v: groups.check_lattice_box(v["group"], v["n_max"])),
    "magic-fuzz": (_sharded_csv(
        "magic_fuzz.csv", ("tree_id", "n_vertices", "n_marks", "k", "r", "branching_count",
                           "supported_count", "bound", "pass"),
        _shard_magic_fuzz, 100, "n_trees", partial(_flagged, "bound_violations")), {
        "n_trees": Key(_int, 1, CAPS["n_trees"]),
        "max_vertices": Key(_int, 1, CAPS["max_vertices"]),
        "k_grid": Key(_grid(_int), 1),
        "r_grid": Key(_grid(_int), 1),
    }, None),
    "mtp-test": (_run_mtp_test, {
        "f": Key(_one_of(*mtp.BUILTIN_TRANSPORT)),
        "w": Key(_one_of(*mtp.BUILTIN_WEIGHT)),
        "n_samples": Key(_int, 1000, CAPS["n_samples"]),
        "alpha": Key(_open_unit),
        "sampler": Key(_one_of(*MTP_SAMPLERS)),
    }, None),
    "intersect": (_sharded_csv(
        "intersect.csv", ("replicate", "pair_count", "intersection_size", "truncated"),
        partial(_each_replicate, _intersect_one), 400, "replicates", _intersect_verdict), dict(
        _PAIR_KEYS, replicates=Key(_int, 2, CAPS["replicates"]),
    ), lambda v: groups.check_lattice_box(v["group"], 2 * v["depth"])),
    "thin-sweep": (_sharded_csv(
        "thin_sweep.csv", ("p", "replicate", "intersection_size", "pair_count", "truncated"),
        partial(_each_replicate, _thin_sweep_one), 100, "replicates",
        partial(_flagged, "monotonicity_violations")), dict(
        _PAIR_KEYS,
        p_grid=Key(_grid(_float), 0.0, 1.0),
        replicates=Key(_int, 1, CAPS["replicates"]),
    ), None),
    "ends": (_sharded_csv(
        "ends.csv", ("radius", "replicate", "qualifying_components", "survived"),
        partial(_each_replicate, _ends_one), 100, "replicates", _ends_verdict), {
        "group": Key(_group),
        "offspring": Key(_offspring),
        "depth": Key(_int, 1, CAPS["depth"]),
        "radius_grid": Key(_grid(_int), 0),
        "m_threshold": Key(_int, 1),
        "budget": _BUDGET,
        "replicates": Key(_int, 1, CAPS["replicates"]),
    }, lambda v: _require(v["offspring"].mean > 1.0, "ends experiment needs offspring mean > 1")),
}
EXPERIMENTS = tuple(TABLE)
_RUN_KEYS = {  # the keys of every config
    "experiment": Key(_one_of(*EXPERIMENTS)),
    "seed": Key(_int, 0, 2**64 - 1),
    "out_dir": Key(_text, default=None),
}


def parse_config(config, seed_override=None) -> dict:
    """Check a config against the table and return its typed values,
    experiment and seed (seed_override in place of the config's) among
    them.  The keys a config may hold are experiment, seed, out_dir, the
    experiment's keys and, for mtp-test, its sampler's keys."""
    name = _peek(config, "experiment", _RUN_KEYS)
    _, keys, after = TABLE[name]
    if name == "mtp-test":
        _, sampler_keys, after = MTP_SAMPLERS[_peek(config, "sampler", keys)]
        keys = {**keys, **sampler_keys}
    if seed_override is not None:
        config = dict(config, seed=seed_override)
    return _parse(config, {**_RUN_KEYS, **keys}, after)


def run(config: dict, out_dir: str, workers: int = 1, seed_override=None) -> int:
    """Execute one experiment config; returns the exit status."""
    values = parse_config(config, seed_override)
    name, seed = values["experiment"], values["seed"]
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    # the manifest is written last and marks a complete run: a stale one goes first
    manifest_path = os.path.join(out_dir, "manifest.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(manifest_path)
    started = time.time()
    status, extra = TABLE[name][0](values, seed, workers, out_dir)
    manifest = {
        "experiment": name,
        "config": config,
        "seed": seed,
        "workers": workers,
        "version": __version__,
        "rng": _RNG_NOTE,
        "wall_time_s": time.time() - started,
        "status": status,
    }
    manifest.update(extra)
    _write_json(manifest_path, manifest)
    return status


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed flag as a ConfigError: exit 1 and one line,
    where argparse would print its usage and exit 2."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="brwlab", description="branching random walk experiment runner"
    )
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    try:
        args = parser.parse_args(argv)
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        out_dir = args.out or _peek(config, "out_dir", _RUN_KEYS)
        if not out_dir:
            raise ConfigError("no output directory (set out_dir in config or pass --out)")
        return run(config, out_dir, workers=args.workers, seed_override=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
