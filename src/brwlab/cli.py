"""Reproducible experiment runner.

Usage: brwlab --config cfg.json [--seed N] [--workers N] [--out DIR]

Each run writes a fixed-name CSV (or JSON report) plus manifest.json into
the output directory.  Replicate work is sharded over counter-based
substreams keyed by (seed, replicate index) only, so CSV bodies are byte
identical for any worker count.  Exit status: 0 pass, 2 failed assertion,
1 usage error (a malformed flag or config, one "error:" line).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from multiprocessing import Pool
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, groups, intersections, magic, mtp
from .gw import OffspringDistribution, sample_marked_fuzz_tree
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
    values; after(values) then runs the cross-key checks.  Every failure
    is a one-line ConfigError that names the key."""
    if not isinstance(cfg, dict):
        raise ConfigError("expected a JSON object")
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


def _grid(entry):
    nonempty = _is("a nonempty list", lambda x: type(x) is list and len(x) > 0)
    return lambda raw: [entry(x) for x in nonempty(raw)]


def _require(ok, message):
    if not ok:
        raise ValueError(message)


def _offspring(raw) -> OffspringDistribution:
    return OffspringDistribution(_grid(_float)(raw))


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
    n = spec["n"]
    if spec["shape"] == "path":
        adj = {i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)}
    else:
        adj = {i: [0] if i else list(range(1, n)) for i in range(n)}
    if spec["marks"] == "all":
        return adj, set(adj)
    return adj, {v for v, ns in adj.items() if len(ns) == 1}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# sharded experiments: one worker call covers a block of replicate indices;
# shards receive the typed config values


def _shard_magic_fuzz(v, seed, lo, hi):
    rows = []
    for idx in range(lo, hi):
        rng = substream(seed, idx)
        tree = sample_marked_fuzz_tree(rng, v["max_vertices"])
        T = magic.OrientedTree.from_tree(tree)
        branch_vals = magic.branch_deficiency_values(T, v["r_grid"])
        for r in v["r_grid"]:
            vals = list(branch_vals[r].values())
            gap_vals = list(magic.supported_gap_values(T, r).values())
            for k in v["k_grid"]:
                bcount = sum(1 for x in vals if x >= k)
                scount = sum(1 for gp in gap_vals if gp >= k)
                bound = magic.counting_bound(T.n_marks, k, r)
                ok = bcount <= max(bound, 0.0)
                rows.append((idx, T.n_vertices, T.n_marks, k, r, bcount, scount, bound, ok))
    return rows, None


def _shard_mtp(v, seed, lo, hi):
    sampler = MTP_SAMPLERS[v["sampler"]][0](v)
    F = mtp.BUILTIN_TRANSPORT[v["f"]]
    W = mtp.BUILTIN_WEIGHT[v["w"]]
    rows = []  # (weighted difference, weight) of each certified sample
    inconclusive = 0
    for idx in range(lo, hi):
        got = mtp.evaluate_sample(sampler(substream(seed, idx)), F, W)
        if got is None:
            inconclusive += 1
        else:
            rows.append(got)
    return rows, inconclusive


def _shard_intersect(v, seed, lo, hi):
    e = v["group"].identity()
    rows = []
    for idx in range(lo, hi):
        rng = substream(seed, idx)
        rec = intersections.sample_intersections(
            v["offspring1"], v["offspring2"], v["group"], e, e, v["depth"], v["depth"], rng,
            v["budget"],
        )
        rows.append((idx, rec.pair_count, len(rec.intersection), rec.truncated))
    return rows, None


def _shard_thin_sweep(v, seed, lo, hi):
    rows = []
    violations = 0
    for idx in range(lo, hi):
        rng = substream(seed, idx)
        rep = intersections.thinned_intersection_sweep(
            v["offspring1"], v["offspring2"], v["group"], v["p_grid"], v["depth"], 1, rng,
            v["budget"],
        )[0]
        ps = sorted(rep.sets)
        for a, b in zip(ps, ps[1:]):
            if not rep.sets[a] <= rep.sets[b]:
                violations += 1
        for p in ps:
            rows.append((p, idx, len(rep.sets[p]), rep.pair_counts[p], rep.truncated))
    return rows, violations


def _shard_ends(v, seed, lo, hi):
    rows = []
    for idx in range(lo, hi):
        rng = substream(seed, idx)
        res = intersections.trace_ends_experiment(
            v["offspring"], v["group"], v["depth"], v["radius_grid"], v["m_threshold"], 1, rng,
            v["budget"],
        )
        for j, radius in enumerate(res.radii):
            rows.append((radius, idx, int(res.qualifying[0, j]), bool(res.survived[0])))
    return rows, None


_SHARDS = {
    "magic-fuzz": (_shard_magic_fuzz, 100),
    "mtp-test": (_shard_mtp, 200),
    "intersect": (_shard_intersect, 400),
    "thin-sweep": (_shard_thin_sweep, 100),
    "ends": (_shard_ends, 100),
}


def _shard_worker(args):
    name, v, seed, lo, hi = args
    return _SHARDS[name][0](v, seed, lo, hi)


def _run_sharded(name, v, seed, n_units, workers):
    block = _SHARDS[name][1]
    tasks = [
        (name, v, seed, lo, min(lo + block, n_units))
        for lo in range(0, n_units, block)
    ]
    processes = min(workers, len(tasks), os.cpu_count() or 1)
    if processes > 1:
        with Pool(processes=processes) as pool:
            parts = pool.map(_shard_worker, tasks)
    else:
        parts = [_shard_worker(t) for t in tasks]
    # both paths keep the task order, so rows come in replicate order
    return [row for rows, _ in parts for row in rows], [extra for _, extra in parts]


# ---------------------------------------------------------------------------
# experiment drivers: each takes the typed values of its table


def _run_spectra(v, seed, workers, out_dir):
    g, n_max, stride = v["group"], v["n_max"], v["stride"]
    traj = groups.spectral_radius_trajectory(g, n_max)
    picks = sorted(set(range(stride, n_max + 1, stride)) | {n_max})
    rows = [(2 * n, float(traj[n - 1])) for n in picks]
    _write_csv(os.path.join(out_dir, "spectra.csv"), ("n", "estimate"), rows)
    return 0, {"closed_form": g.spectral_radius_closed_form(), "estimate": float(traj[-1])}


def _run_visits(v, seed, workers, out_dir):
    n_max, stride = v["n_max"], v["stride"]
    series = groups.visits_series(v["group"], v["mean"], n_max)
    picks = sorted(set(range(0, n_max + 1, stride)) | {n_max})
    rows = [(n, float(series.partial_sums[n])) for n in picks]
    _write_csv(os.path.join(out_dir, "visits.csv"), ("n", "partial_sum"), rows)
    return 0, {
        "diverged": series.diverged,
        "guard_index": series.guard_index,
        "final_sum": float(series.partial_sums[-1]),
    }


def _run_magic_fuzz(v, seed, workers, out_dir):
    rows, _ = _run_sharded("magic-fuzz", v, seed, v["n_trees"], workers)
    violations = sum(1 for row in rows if not row[-1])
    _write_csv(os.path.join(out_dir, "magic_fuzz.csv"),
               ("tree_id", "n_vertices", "n_marks", "k", "r", "branching_count",
                "supported_count", "bound", "pass"), rows)
    return (0 if violations == 0 else 2), {"bound_violations": violations}


def _run_mtp_test(v, seed, workers, out_dir):
    n_samples = v["n_samples"]
    rows, extras = _run_sharded("mtp-test", v, seed, n_samples, workers)
    deltas = [d for d, _ in rows]
    weights = [w for _, w in rows]
    try:
        report = mtp.aggregate_mtp_report(deltas, weights, sum(extras), n_samples, v["alpha"])
    except mtp.TruncationError as exc:
        raise ConfigError(str(exc)) from exc
    with open(os.path.join(out_dir, "mtp_report.json"), "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return (0 if report.passed else 2), {"report": report.to_json_dict()}


def _run_intersect(v, seed, workers, out_dir):
    rows, _ = _run_sharded("intersect", v, seed, v["replicates"], workers)
    _write_csv(os.path.join(out_dir, "intersect.csv"),
               ("replicate", "pair_count", "intersection_size", "truncated"), rows)
    g = v["group"]
    e = g.identity()
    exact = intersections.expected_pairs_truncated(
        v["offspring1"].mean, v["offspring2"].mean, g, e, e, v["depth"]
    )
    counts = np.array([r[1] for r in rows], dtype=float)
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    z = (counts.mean() - exact) / se if se > 0 else 0.0
    status = 0 if abs(z) <= 4.0 else 2
    return status, {
        "expected_pairs": exact,
        "mc_mean": float(counts.mean()),
        "mc_se": float(se),
        "z": float(z),
    }


def _run_thin_sweep(v, seed, workers, out_dir):
    rows, extras = _run_sharded("thin-sweep", v, seed, v["replicates"], workers)
    violations = sum(extras)
    _write_csv(os.path.join(out_dir, "thin_sweep.csv"),
               ("p", "replicate", "intersection_size", "pair_count", "truncated"), rows)
    return (0 if violations == 0 else 2), {"monotonicity_violations": violations}


def _run_ends(v, seed, workers, out_dir):
    rows, _ = _run_sharded("ends", v, seed, v["replicates"], workers)
    _write_csv(os.path.join(out_dir, "ends.csv"),
               ("radius", "replicate", "qualifying_components", "survived"), rows)
    survivors = [r for r in rows if r[3]]
    by_radius = {}
    for radius, _, q, _ in survivors:
        by_radius.setdefault(radius, []).append(q)
    medians = {str(rad): float(np.median(qs)) for rad, qs in sorted(by_radius.items())}
    return 0, {"median_qualifying_by_radius": medians, "n_survivors": len(survivors) // max(len(by_radius), 1)}


# ---------------------------------------------------------------------------
# the config table: experiment -> (driver, keys, cross-key check)


_BUDGET = Key(_int, 1, CAPS["budget"], 1_000_000)
_TREE_KEYS = {  # samplers of unimodular trees: the budget must cover root and co-root
    "group": Key(_group),
    "offspring": Key(_offspring),
    "depth": Key(_int, 1, CAPS["depth"]),
    "budget": Key(_int, 2, CAPS["budget"], 1_000_000),
}
_PAIR_KEYS = {
    "group": Key(_group),
    "offspring1": Key(_offspring),
    "offspring2": Key(_offspring, default=lambda v: v["offspring1"]),
    "depth": Key(_int, 0, CAPS["depth"]),
    "budget": _BUDGET,
}

# mtp-test: sampler -> (builder, keys, cross-key check), parsed after the
# keys that every sampler shares
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
        # only the ball rule materialises its ball
        lambda v: v["a_rule"] != mtp.A_RULE_BALL or groups.check_ball(v["group"], v["ball_radius"]),
    ),
    "pushforward": (
        lambda v: mtp.pushforward_trace_sampler(
            v["group"], v["offspring"], v["depth"], v["ball_radius"], budget=v["budget"]),
        dict(_TREE_KEYS, ball_radius=Key(_int, 1, CAPS["ball_radius"])),
        lambda v: groups.check_ball(v["group"], v["ball_radius"]),
    ),
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
    "magic-fuzz": (_run_magic_fuzz, {
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
    "intersect": (_run_intersect, dict(
        _PAIR_KEYS, replicates=Key(_int, 2, CAPS["replicates"]),
    ), lambda v: groups.check_lattice_box(v["group"], 2 * v["depth"])),
    "thin-sweep": (_run_thin_sweep, dict(
        _PAIR_KEYS,
        p_grid=Key(_grid(_float), 0.0, 1.0),
        replicates=Key(_int, 1, CAPS["replicates"]),
    ), None),
    "ends": (_run_ends, {
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


def run(config: dict, out_dir: str, workers: int = 1, seed_override=None) -> int:
    """Execute one experiment config; returns the exit status."""
    name = _parse(config, {"experiment": Key(_one_of(*EXPERIMENTS))})["experiment"]
    seeded = config if seed_override is None else {"seed": seed_override}
    seed = _parse(seeded, {"seed": Key(_int, 0, 2**64 - 1)})["seed"]
    driver, keys, after = TABLE[name]
    values = _parse(config, keys, after)
    if name == "mtp-test":
        values.update(_parse(config, *MTP_SAMPLERS[values["sampler"]][1:]))
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    started = time.time()
    status, extra = driver(values, seed, workers, out_dir)
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
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
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
        out_dir = args.out or _parse(config, {"out_dir": Key(_text, default=None)})["out_dir"]
        if not out_dir:
            raise ConfigError("no output directory (set out_dir in config or pass --out)")
        return run(config, out_dir, workers=args.workers, seed_override=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
