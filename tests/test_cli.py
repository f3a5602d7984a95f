"""Tests for the experiment runner: config handling, artifacts, exit
codes, and determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import tempfile
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from brwlab import cli
from brwlab.groups import GroupSpec
from brwlab.gw import OffspringDistribution
from brwlab.rng import _block_keys, substream
from oracles import (
    run_walk_values_reference,
    sample_gw_reference,
    thinned_intersection_sweep_reference,
    tree_pairs_exact,
    tree_return_counts,
    z3_even_return_exact,
)


def run_cfg(tmp_path, cfg, name, workers=1, seed=None):
    out = tmp_path / name
    status = cli.run(cfg, str(out), workers=workers, seed_override=seed)
    return status, out


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.run({"experiment": "nope", "seed": 1}, str(tmp_path / "x"))


def test_seed_validation(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.run({"experiment": "spectra"}, str(tmp_path / "x"))
    with pytest.raises(cli.ConfigError):
        cli.run({"experiment": "spectra", "seed": -3}, str(tmp_path / "x"))


def test_missing_fields_rejected(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.run({"experiment": "spectra", "seed": 1}, str(tmp_path / "x"))
    with pytest.raises(cli.ConfigError):
        cli.run(
            {"experiment": "visits", "seed": 1, "group": {"kind": "regular_tree", "param": 4}},
            str(tmp_path / "x"),
        )
    with pytest.raises(cli.ConfigError):
        cli.run(
            {
                "experiment": "magic-fuzz",
                "seed": 1,
                "n_trees": 5,
                "max_vertices": 10,
                "k_grid": [],
                "r_grid": [1],
            },
            str(tmp_path / "x"),
        )


def test_spectra_run(tmp_path):
    cfg = {
        "experiment": "spectra",
        "seed": 7,
        "group": {"kind": "regular_tree", "param": 4},
        "n_max": 500,
    }
    status, out = run_cfg(tmp_path, cfg, "spectra")
    assert status == 0
    rows = read_csv(out / "spectra.csv")
    assert rows[0] == ["n", "estimate"]
    last = float(rows[-1][1])
    assert abs(last - 0.8660254037844386) < 0.01
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 0
    assert manifest["experiment"] == "spectra"


@pytest.mark.parametrize("group", [{"kind": "regular_tree", "param": 4},
                                   {"kind": "integer_lattice", "param": 1}], ids=["T4", "Z1"])
def test_spectra_stride_past_n_max_writes_one_row(tmp_path, group):
    """Any stride the table accepts runs: one past n_max, even past int64
    and uint64, exits 0 with the stride-n_max body, the one row 2 n_max."""
    bodies = []
    for stride in (5, 2**63, 2**64, 10**23):
        cfg = {"experiment": "spectra", "seed": 7, "group": group, "n_max": 5, "stride": stride}
        status, out = run_cfg(tmp_path, cfg, f"stride{stride}")
        assert status == 0, stride
        bodies.append(read_csv(out / "spectra.csv"))
    assert [row[0] for row in bodies[0]] == ["n", "10"]
    assert all(body == bodies[0] for body in bodies)


def test_visits_run(tmp_path):
    cfg = {
        "experiment": "visits",
        "seed": 7,
        "group": {"kind": "regular_tree", "param": 4},
        "mean": 1.0,
        "n_max": 100,
        "stride": 10,
    }
    status, out = run_cfg(tmp_path, cfg, "visits")
    assert status == 0
    rows = read_csv(out / "visits.csv")
    assert rows[0] == ["n", "partial_sum"]
    by_n = {int(r[0]): float(r[1]) for r in rows[1:]}
    assert by_n[0] == 1.0
    assert by_n[100] > by_n[10]


def test_lattice_runs_at_the_caps_match_exact_values(tmp_path):
    """Spectra on Z^1 at n_max 60000 (120000 steps) and visits on Z^3 at
    n_max 127, the largest runs the caps admit, against exact values."""
    z1 = {"kind": "integer_lattice", "param": 1}
    cfg = {"experiment": "spectra", "seed": 7, "group": z1, "n_max": 60_000}
    status, out = run_cfg(tmp_path, cfg, "z1")
    assert status == 0
    rows = read_csv(out / "spectra.csv")[1:]
    assert len(rows) == 2000
    for steps, estimate in rows[::199] + rows[-1:]:
        n = int(steps) // 2
        # p_2n^(1/2n) with p_2n = C(2n, n) / 4^n
        want = math.exp((math.log(math.comb(2 * n, n)) - n * math.log(4.0)) / (2 * n))
        assert float(estimate) == pytest.approx(want, rel=1e-12), steps

    z3 = {"kind": "integer_lattice", "param": 3}
    cfg = {"experiment": "visits", "seed": 7, "group": z3, "mean": 1.0, "n_max": 127}
    status, out = run_cfg(tmp_path, cfg, "z3")
    assert status == 0
    rows = read_csv(out / "visits.csv")[1:]
    assert [int(n) for n, _ in rows] == list(range(128))
    total = Fraction(0)
    for k in range(64):
        total += z3_even_return_exact(k)  # the odd-n terms are 0
        for n in (2 * k, 2 * k + 1):
            assert float(rows[n][1]) == pytest.approx(float(total), rel=1e-12), n


@pytest.mark.parametrize("group", [{"kind": "regular_tree", "param": 4},
                                   {"kind": "free_group", "param": 2}])
def test_tree_spectra_at_the_cap_match_exact_counts(tmp_path, group):
    """Spectra on T4 and F_2 at n_max 60000, the cap: every row with
    2n <= 600 against the exact integer distance chain, within 1e-12."""
    cfg = {"experiment": "spectra", "seed": 7, "group": group, "n_max": 60_000}
    status, out = run_cfg(tmp_path, cfg, "tree")
    assert status == 0
    rows = read_csv(out / "spectra.csv")[1:]
    assert len(rows) == 2000
    d = 4
    counts = tree_return_counts(d, 600)
    checked = 0
    for steps, estimate in rows:
        steps = int(steps)
        if steps > 600:
            break
        # p_2n^(1/2n) with p_2n = counts[2n] / d^2n
        want = math.exp((math.log(counts[steps]) - steps * math.log(d)) / steps)
        assert float(estimate) == pytest.approx(want, rel=1e-12), steps
        checked += 1
    assert checked == 10


def test_magic_fuzz_exit_semantics(tmp_path):
    base = {"experiment": "magic-fuzz", "seed": 7, "n_trees": 80, "max_vertices": 80}
    # radius one never violates the bound
    status, out = run_cfg(tmp_path, dict(base, k_grid=[1, 4, 8], r_grid=[1]), "fuzz1")
    rows = read_csv(out / "magic_fuzz.csv")
    assert status == 0
    assert all(r[-1] == "1" for r in rows[1:])
    # the (1, 2) cell has genuine counterexamples: exit 2 and flagged rows
    status, out = run_cfg(tmp_path, dict(base, k_grid=[1], r_grid=[2]), "fuzz2")
    rows = read_csv(out / "magic_fuzz.csv")
    flagged = [r for r in rows[1:] if r[-1] == "0"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert status == 2
    assert manifest["bound_violations"] == len(flagged) > 0


def test_mtp_uniform_and_fixed(tmp_path):
    cfg = {
        "experiment": "mtp-test",
        "seed": 7,
        "sampler": "uniform_root",
        "graph": {"shape": "path", "n": 6, "marks": "all"},
        "f": "marked_neighbors",
        "w": "unit",
        "n_samples": 1500,
        "alpha": 0.01,
    }
    status, out = run_cfg(tmp_path, cfg, "mtp_ok")
    report = json.loads((out / "mtp_report.json").read_text())
    assert status == 0 and report["pass"]
    assert report["n"] == 1500
    cfg2 = dict(cfg, sampler="fixed_root", root_index=0, f="leaf_target")
    status, out = run_cfg(tmp_path, cfg2, "mtp_bad")
    report = json.loads((out / "mtp_report.json").read_text())
    assert status == 2 and not report["pass"]


def test_mtp_truncation_reported_as_usage_error(tmp_path):
    cfg = {
        "experiment": "mtp-test",
        "seed": 7,
        "sampler": "pullback",
        "group": {"kind": "regular_tree", "param": 4},
        "offspring": [0.45, 0, 0.55],
        "depth": 2,
        "a_rule": "origin",
        "f": "target_degree",
        "w": "unit",
        "n_samples": 1000,
        "alpha": 0.01,
    }
    with pytest.raises(cli.ConfigError):
        cli.run(cfg, str(tmp_path / "x"))


@pytest.mark.parametrize("workers", [1, 2])
def test_mtp_budget_cuts_end_in_exit_1(tmp_path, capsys, workers):
    """A pull-back sample cut at the vertex budget certifies no radius, so
    a budget of 2 leaves 655 of 1000 samples uncertified although depth 12
    certifies radius 6: one error line, and no report, manifest or
    partial file."""
    cfg = dict(BASE["pullback"], seed=3, f="target_degree", depth=12, budget=2)
    out = tmp_path / "out"
    assert main_with(tmp_path, cfg, "--out", str(out), "--workers", str(workers)) == 1
    assert capsys.readouterr().err == (
        "error: 655/1000 samples could not certify the transport radius; "
        "655 of them hit the vertex budget (budget = 2)\n")
    assert os.listdir(out) == []


def test_intersect_run_and_agreement(tmp_path):
    cfg = {
        "experiment": "intersect",
        "seed": 7,
        "group": {"kind": "regular_tree", "param": 4},
        "offspring1": [0.45, 0, 0.55],
        "depth": 4,
        "replicates": 3000,
    }
    status, out = run_cfg(tmp_path, cfg, "isect")
    assert status == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert abs(manifest["z"]) <= 4
    rows = read_csv(out / "intersect.csv")
    assert rows[0] == ["replicate", "pair_count", "intersection_size", "truncated"]
    assert len(rows) == 3001
    assert {r[3] for r in rows[1:]} <= {"0", "1"}


def test_thin_sweep_run(tmp_path):
    cfg = {
        "experiment": "thin-sweep",
        "seed": 7,
        "group": {"kind": "regular_tree", "param": 4},
        "offspring1": [0.45, 0, 0.55],
        "p_grid": [0.5, 0.9, 1.0],
        "depth": 6,
        "replicates": 150,
    }
    status, out = run_cfg(tmp_path, cfg, "sweep")
    assert status == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["monotonicity_violations"] == 0
    rows = read_csv(out / "thin_sweep.csv")
    assert len(rows) == 1 + 3 * 150
    assert {r[4] for r in rows[1:]} <= {"0", "1"}


@pytest.mark.parametrize("group, p_grid", [
    ({"kind": "regular_tree", "param": 4}, [0.5, 0.9, 1.0]),  # the benchmark's pairs-small
    ({"kind": "integer_lattice", "param": 2}, [0.0, 0.3, 0.3, 1.0]),
], ids=["pairs-small", "z2"])
def test_thin_sweep_csv_matches_reference_sweep(tmp_path, group, p_grid):
    """thin_sweep.csv at 1 and 2 workers holds, byte for byte, the rows of
    the per-p reference sweep run on each replicate's substream."""
    cfg = {"experiment": "thin-sweep", "seed": 11, "group": group, "offspring1": [0.45, 0, 0.55],
           "p_grid": p_grid, "depth": 6, "replicates": 250}  # three shards
    mu = OffspringDistribution(cfg["offspring1"])
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(("p", "replicate", "intersection_size", "pair_count", "truncated"))
    for idx in range(cfg["replicates"]):
        rep = thinned_intersection_sweep_reference(
            mu, mu, GroupSpec(**group), p_grid, 6, 1, substream(cfg["seed"], idx))[0]
        writer.writerows((p, idx, len(rep.sets[p]), rep.pair_counts[p], int(rep.truncated))
                         for p in sorted(rep.sets))
    for workers in (1, 2):
        status, out = run_cfg(tmp_path, cfg, f"w{workers}", workers=workers)
        assert status == 0
        assert (out / "thin_sweep.csv").read_text() == want.getvalue()


# (config, replicates the budget cuts) of intersect runs of two shards
INTERSECT_RUNS = {
    "T4-two-laws": ({"experiment": "intersect", "seed": 5,
                     "group": {"kind": "regular_tree", "param": 4},
                     "offspring1": [0.45, 0, 0.55], "offspring2": [0.3, 0.3, 0.4], "depth": 5,
                     "replicates": 600}, 0),
    "Z2-budget": ({"experiment": "intersect", "seed": 5,
                   "group": {"kind": "integer_lattice", "param": 2},
                   "offspring1": [0.3, 0, 0.7], "depth": 4, "budget": 12, "replicates": 450}, 324),
}


@pytest.mark.parametrize("cfg, budget_cut", INTERSECT_RUNS.values(), ids=list(INTERSECT_RUNS))
def test_intersect_csv_matches_reference_rows(tmp_path, cfg, budget_cut):
    """intersect.csv at 1 and 2 workers holds, row for row, the pair count
    sum_z c1[z] c2[z], the intersection size |keys1 & keys2| and the
    truncation flag of either tree, rebuilt on each replicate's substream
    from the per-vertex references of the samplers and the walk.  The run
    passes, and the manifest counts the replicates the budget cut."""
    g = GroupSpec(**cfg["group"])
    mu1 = OffspringDistribution(cfg["offspring1"])
    mu2 = OffspringDistribution(cfg.get("offspring2", cfg["offspring1"]))
    budget = cfg.get("budget", 1_000_000)
    want = [["replicate", "pair_count", "intersection_size", "truncated"]]
    for idx in range(cfg["replicates"]):
        rng = substream(cfg["seed"], idx)
        tree1 = sample_gw_reference(mu1, budget, rng, max_depth=cfg["depth"])
        tree2 = sample_gw_reference(mu2, budget, rng, max_depth=cfg["depth"])
        c1 = Counter(run_walk_values_reference(tree1, g, g.identity(), rng))
        c2 = Counter(run_walk_values_reference(tree2, g, g.identity(), rng))
        common = c1.keys() & c2.keys()
        want.append([str(idx), str(sum(c1[z] * c2[z] for z in common)), str(len(common)),
                     str(int(tree1.truncated or tree2.truncated))])
    truncated = sum(row[3] == "1" for row in want[1:])
    assert 0 < truncated < cfg["replicates"]
    for workers in (1, 2):
        status, out = run_cfg(tmp_path, cfg, f"w{workers}", workers=workers)
        assert status == 0, workers
        assert read_csv(out / "intersect.csv") == want, workers
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["budget_truncated"] == budget_cut, workers


@pytest.mark.parametrize("name, cut", [("intersect", False), ("intersect-budget", True)])
def test_intersect_verdict_is_one_sided_under_budget_cuts(tmp_path, monkeypatch, name, cut):
    """With the exact reference put 5 SE above or below the Monte Carlo
    mean, a run that no budget cut fails either way; a cut only lowers
    pair counts, so a cut run fails only when its mean lies above the
    reference."""
    cfg = PINNED_BODIES[name][0]
    _, out = run_cfg(tmp_path, cfg, "run")
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["budget_truncated"] > 0) == cut
    mean, se = manifest["mc_mean"], manifest["mc_se"]
    for shift, fails in ((-5, True), (5, not cut)):
        reference = mean + shift * se
        monkeypatch.setattr(cli.intersections, "expected_pairs_truncated",
                            lambda *args: reference)
        status, out = run_cfg(tmp_path, cfg, f"shift{shift}")
        assert json.loads((out / "manifest.json").read_text())["z"] == pytest.approx(-shift)
        assert status == (2 if fails else 0), shift


@pytest.mark.parametrize("workers", [1, 2])
def test_manifests_follow_from_their_csv(tmp_path, monkeypatch, workers):
    """Each sharded manifest, recomputed from its CSV: ends' survivors and
    per-radius medians over them, intersect's mean and SE of the pair
    count from exact moments, and its budget cuts; a thin-sweep replicate
    whose sets are not nested is counted once and fails the run.  Without
    its wall time and worker count, each manifest is the 1-worker one."""

    def run(cfg, name, file):
        status, out = run_cfg(tmp_path, cfg, f"{name}-w{workers}", workers=workers)
        manifest = json.loads((out / "manifest.json").read_text())
        _, one = run_cfg(tmp_path, cfg, f"{name}-w1-again")
        again = json.loads((one / "manifest.json").read_text())
        for m in (manifest, again):
            del m["wall_time_s"], m["workers"]
        assert manifest == again and manifest["status"] == status, name
        return manifest, read_csv(out / file)[1:]

    manifest, rows = run(PINNED_BODIES["ends-tree"][0], "ends", "ends.csv")
    survived = [(int(radius), int(q)) for radius, _, q, s in rows if s == "1"]
    assert manifest["n_survivors"] == len({idx for _, idx, _, s in rows if s == "1"}) > 0
    assert manifest["median_qualifying_by_radius"] == {
        str(r): np.median([q for radius, q in survived if radius == r])
        for r in sorted({radius for radius, _ in survived})}
    assert manifest["status"] == 0

    for name, (cfg, budget_cut) in INTERSECT_RUNS.items():
        manifest, rows = run(cfg, name, "intersect.csv")
        pairs = [int(row[1]) for row in rows]
        n, s, ss = len(pairs), sum(pairs), sum(x * x for x in pairs)
        assert manifest["mc_mean"] == pytest.approx(float(Fraction(s, n)), rel=1e-15)
        se = math.sqrt(Fraction(n * ss - s * s, n * n * (n - 1)))
        assert manifest["mc_se"] == pytest.approx(se, rel=1e-15)
        assert manifest["budget_truncated"] == budget_cut and manifest["status"] == 0

    cfg = dict(BASE["thin-sweep"], p_grid=[0.5, 0.9, 1.0], depth=4, replicates=150)
    bad_key = substream(cfg["seed"], 120).bit_generator.state["state"]["key"].tolist()
    sweep = cli.intersections.thinned_intersection_sweep

    def unnested(mu1, mu2, g, p_grid, depth, rng, budget):
        rep = sweep(mu1, mu2, g, p_grid, depth, rng, budget)
        if rng.bit_generator.state["state"]["key"].tolist() == bad_key:
            rep.sets[min(rep.sets)] |= {-1}  # a vertex that no higher p keeps
        return rep

    monkeypatch.setattr(cli.intersections, "thinned_intersection_sweep", unnested)
    manifest, _ = run(cfg, "thin-sweep", "thin_sweep.csv")
    assert manifest["monotonicity_violations"] == 1 and manifest["status"] == 2


def test_intersect_writes_the_exact_pair_count(tmp_path):
    """At the depth cap, with every vertex having 3 children, the exact
    pair count 5.8e50 is the Fraction double sum to 1e-12; the budget
    cuts every replicate, so the far lower mean passes."""
    cfg = {"experiment": "intersect", "seed": 3, "group": {"kind": "regular_tree", "param": 4},
           "offspring1": [0, 0, 0, 1], "depth": 64, "budget": 20, "replicates": 20}
    status, out = run_cfg(tmp_path, cfg, "run")
    manifest = json.loads((out / "manifest.json").read_text())
    exact = tree_pairs_exact(4, 3, 3, 64)
    assert abs(Fraction(manifest["expected_pairs"]) - exact) <= 1e-12 * exact
    assert status == 0 and manifest["budget_truncated"] == 20


def test_ends_run(tmp_path):
    cfg = {
        "experiment": "ends",
        "seed": 7,
        "group": {"kind": "regular_tree", "param": 4},
        "offspring": [0.3, 0.3, 0.4],
        "depth": 8,
        "radius_grid": [1, 2],
        "m_threshold": 2,
        "replicates": 100,
    }
    status, out = run_cfg(tmp_path, cfg, "ends")
    assert status == 0
    rows = read_csv(out / "ends.csv")
    assert rows[0] == ["radius", "replicate", "qualifying_components", "survived"]
    assert {r[3] for r in rows[1:]} <= {"0", "1"}


def test_repeated_grid_entries(tmp_path):
    """magic-fuzz writes a row per grid entry, repeats included: k_grid
    [1, 1] by r_grid [2, 2] is each tree's one row four times.  thin-sweep's
    p_grid and ends' radius_grid write a row per distinct value: [0.5, 0.5,
    1.0] writes the rows of [0.5, 1.0], and [1, 1] those of [1]."""

    def rows(cfg, file, **grids):
        status, out = run_cfg(tmp_path, dict(cfg, **grids), f"{file}-{grids}")
        assert status in (0, 2)
        return read_csv(out / file)[1:]

    magic = {"experiment": "magic-fuzz", "seed": 3, "n_trees": 7, "max_vertices": 20}
    once = rows(magic, "magic_fuzz.csv", k_grid=[1], r_grid=[2])
    assert len(once) == 7
    assert rows(magic, "magic_fuzz.csv", k_grid=[1, 1], r_grid=[2, 2]) == [
        row for row in once for _ in range(4)]
    sweep = {"experiment": "thin-sweep", "seed": 3, "group": T4, "offspring1": MU,
             "depth": 3, "replicates": 5}
    distinct = rows(sweep, "thin_sweep.csv", p_grid=[0.5, 1.0])
    assert len(distinct) == 2 * 5
    assert rows(sweep, "thin_sweep.csv", p_grid=[0.5, 0.5, 1.0]) == distinct
    ends = {"experiment": "ends", "seed": 3, "group": T4, "offspring": [0.3, 0.3, 0.4],
            "depth": 4, "m_threshold": 2, "replicates": 5}
    distinct = rows(ends, "ends.csv", radius_grid=[1])
    assert len(distinct) == 5
    assert rows(ends, "ends.csv", radius_grid=[1, 1]) == distinct


def test_seed_override_changes_output(tmp_path):
    cfg = {
        "experiment": "intersect",
        "seed": 7,
        "group": {"kind": "regular_tree", "param": 4},
        "offspring1": [0.45, 0, 0.55],
        "depth": 4,
        "replicates": 200,
    }
    _, out_a = run_cfg(tmp_path, cfg, "a")
    _, out_b = run_cfg(tmp_path, cfg, "b", seed=8)
    assert (out_a / "intersect.csv").read_bytes() != (out_b / "intersect.csv").read_bytes()


def test_determinism_same_seed_and_worker_counts(tmp_path):
    cfg = {
        "experiment": "thin-sweep",
        "seed": 42,
        "group": {"kind": "regular_tree", "param": 4},
        "offspring1": [0.45, 0, 0.55],
        "p_grid": [0.4, 0.8, 1.0],
        "depth": 6,
        "replicates": 250,
    }
    _, out1 = run_cfg(tmp_path, cfg, "w1", workers=1)
    _, out2 = run_cfg(tmp_path, cfg, "w2", workers=4)
    _, out3 = run_cfg(tmp_path, cfg, "w3", workers=1)
    body1 = (out1 / "thin_sweep.csv").read_bytes()
    assert body1 == (out2 / "thin_sweep.csv").read_bytes()
    assert body1 == (out3 / "thin_sweep.csv").read_bytes()


# (config, output body, sha256 of the body) for every sharded experiment, each
# config several shards long: a refactor of the shard loop, the samplers or
# the sweeps must leave these bytes unchanged at any worker count
PINNED_BODIES = {
    "magic-fuzz": ({"experiment": "magic-fuzz", "seed": 3, "n_trees": 150, "max_vertices": 40,
                    "k_grid": [3, 1], "r_grid": [2, 1]}, "magic_fuzz.csv",
                   "c5c048923c2398c3ce944a2f18051604c5cbd0401a55d0a09d123226adb9c835"),
    # unsorted and repeated grids, and a radius past every tree: no row is
    # built for it, and every vertex counts at k <= |A|
    "magic-fuzz-grids": ({"experiment": "magic-fuzz", "seed": 3, "n_trees": 150,
                          "max_vertices": 500, "k_grid": [8, 1, 9, 1],
                          "r_grid": [3, 1000000000, 1]}, "magic_fuzz.csv",
                         "f6d296dc161b24a469c6ca6f7427a53b5a7e57bf1e867b411792a879411d44bc"),
    "pullback-trace": ({"experiment": "mtp-test", "seed": 3, "sampler": "pullback",
                        "group": {"kind": "regular_tree", "param": 4},
                        "offspring": [0.45, 0, 0.55], "depth": 4, "a_rule": "trace",
                        "f": "marked_neighbors", "w": "ingredient", "n_samples": 1000,
                        "alpha": 0.01}, "mtp_report.json",
                       "cf1b8a0007cb92dcf4d222a43f7310abceb7e68bae97f6e88159fd5c691c3323"),
    # the other two pull-back target rules: a shifted ball on a tree and on
    # a lattice, and the start alone
    "pullback-ball": ({"experiment": "mtp-test", "seed": 3, "sampler": "pullback",
                       "group": {"kind": "regular_tree", "param": 4},
                       "offspring": [0.45, 0, 0.55], "depth": 4, "a_rule": "ball",
                       "ball_radius": 2, "f": "marked_neighbors", "w": "unit",
                       "n_samples": 1000, "alpha": 0.01}, "mtp_report.json",
                      "918a3e908aa09860570adc119b9ec93f99e1488bdacee4f4b37f85a104fece41"),
    "pullback-ball-lattice": ({"experiment": "mtp-test", "seed": 3, "sampler": "pullback",
                               "group": {"kind": "integer_lattice", "param": 2},
                               "offspring": [0.45, 0, 0.55], "depth": 6, "a_rule": "ball",
                               "ball_radius": 1, "f": "target_degree", "w": "unit",
                               "n_samples": 1000, "alpha": 0.01}, "mtp_report.json",
                              "31874af0ed1cb067d092f9aecd4a4085f45161af3d0c6f32e2e5103bef0257ee"),
    # the ball rule on F2, where inv negates the signed letters: a path the
    # T4 and Z2 ball digests do not reach
    "pullback-ball-free": ({"experiment": "mtp-test", "seed": 3, "sampler": "pullback",
                            "group": {"kind": "free_group", "param": 2},
                            "offspring": [0.45, 0, 0.55], "depth": 4, "a_rule": "ball",
                            "ball_radius": 2, "f": "marked_neighbors", "w": "unit",
                            "n_samples": 1000, "alpha": 0.01}, "mtp_report.json",
                           "f54a6945ba7220048b2f7ad020df747750d1ec2e19c2884d70fe470abbd6018b"),
    "pullback-origin": ({"experiment": "mtp-test", "seed": 3, "sampler": "pullback",
                         "group": {"kind": "regular_tree", "param": 4},
                         "offspring": [0.45, 0, 0.55], "depth": 6, "a_rule": "origin",
                         "f": "target_degree", "w": "unit", "n_samples": 1000,
                         "alpha": 0.01}, "mtp_report.json",
                        "9f71f2ef1c39b85a7efe4021f468fd037392aeb6fa2e4af153990f3a5ae8c93f"),
    "pushforward": ({"experiment": "mtp-test", "seed": 3, "sampler": "pushforward",
                     "group": {"kind": "regular_tree", "param": 4},
                     "offspring": [0.45, 0, 0.55], "depth": 4, "ball_radius": 4,
                     "f": "marked_neighbors", "w": "ingredient", "n_samples": 1000,
                     "alpha": 0.01}, "mtp_report.json",
                    "beb0dccc0a286ebe849883c3a70d079aa5d494344e178a757838c0af51833464"),
    "uniform_root": ({"experiment": "mtp-test", "seed": 3, "sampler": "uniform_root",
                      "graph": {"shape": "path", "n": 6}, "f": "marked_neighbors",
                      "w": "unit", "n_samples": 1000, "alpha": 0.01}, "mtp_report.json",
                     "5ec19df1cc3ab1504f4778a7b5be430ed732a997c05e1a63ca4e5bd1c89f7a20"),
    # recorded before the fixed graphs were built by groups.adjacency: the
    # star shape and leaf marks (the fixed root fails at estimate -56, the
    # uniform root passes at -0.497)
    "fixed_root-star": ({"experiment": "mtp-test", "seed": 3, "sampler": "fixed_root",
                         "graph": {"shape": "star", "n": 9, "marks": "leaves"}, "root_index": 0,
                         "f": "target_degree", "w": "unit", "n_samples": 1000, "alpha": 0.01},
                        "mtp_report.json",
                        "e5b317cace49eb10d01b0c11c53d9ff8109c4553d542778f7e475e954eec2378"),
    "uniform_root-star": ({"experiment": "mtp-test", "seed": 3, "sampler": "uniform_root",
                           "graph": {"shape": "star", "n": 9}, "f": "target_degree",
                           "w": "unit", "n_samples": 1000, "alpha": 0.01}, "mtp_report.json",
                          "135e200eddd7530a92c6c8bf70b5bb8530e7a28150bfddf53db43633e13e1295"),
    "intersect": ({"experiment": "intersect", "seed": 3,
                   "group": {"kind": "regular_tree", "param": 4}, "offspring1": [0.45, 0, 0.55],
                   "depth": 3, "replicates": 500}, "intersect.csv",
                  "6b2cb49241d16a852aaa6aa01fc4d259e671313f87dbc6e9b981b4d4b3c25505"),
    "thin-sweep": ({"experiment": "thin-sweep", "seed": 3,
                    "group": {"kind": "free_group", "param": 2}, "offspring1": [0.45, 0, 0.55],
                    "p_grid": [1.0, 0.3, 0.7, 0.3], "depth": 4, "replicates": 150},
                   "thin_sweep.csv",
                   "74fc4e5c84fe5b288de1ce224954dcb8ed87bb9a400b39bdf7abe8da282396e9"),
    # a budget of 12 cuts a family short in about 40% of these trees, a
    # further 15% stop at the depth, the rest die out
    "intersect-budget": ({"experiment": "intersect", "seed": 3,
                          "group": {"kind": "regular_tree", "param": 4},
                          "offspring1": [0.3, 0, 0.7], "depth": 4, "budget": 12,
                          "replicates": 300}, "intersect.csv",
                         "4f759fe405c499e6d6c879d6e76e2a2b03762cb2bef155192200fdfd709234ab"),
    "thin-sweep-budget": ({"experiment": "thin-sweep", "seed": 3,
                           "group": {"kind": "free_group", "param": 2},
                           "offspring1": [0.3, 0, 0.7], "p_grid": [1.0, 0.5], "depth": 4,
                           "budget": 12, "replicates": 150}, "thin_sweep.csv",
                          "4a6ce57983e36a9e3fc10a203be8f34aab3384bea44c11b05fca980efba0c428"),
    "ends": ({"experiment": "ends", "seed": 3, "group": {"kind": "integer_lattice", "param": 2},
              "offspring": [0.3, 0.3, 0.4], "depth": 5, "radius_grid": [2, 0, 1, 2],
              "m_threshold": 2, "replicates": 150}, "ends.csv",
             "07098ff45f8681852582471a51f0f7a9ea65d1d07f1ddb4a0c7423e5eefa8b24"),
    # recorded before the one-pass census: three shards on the tree, an
    # unsorted and repeated grid, and a radius past every trace
    "ends-tree": ({"experiment": "ends", "seed": 3, "group": {"kind": "regular_tree", "param": 4},
                   "offspring": [0.42, 0, 0.58], "depth": 12,
                   "radius_grid": [6, 0, 2, 1, 2, 40], "m_threshold": 3, "replicates": 250},
                  "ends.csv",
                  "3745e64c8b9662ef74193f2f9f318e58e1312e20ba4cd4e89b2299d12ca28431"),
    # recorded before trace returned a bare adjacency: signed-letter words
    # on F2 through the edge normalisation, a lattice in three dimensions,
    # and intersect with two different laws
    "ends-free": ({"experiment": "ends", "seed": 3, "group": {"kind": "free_group", "param": 2},
                   "offspring": [0.42, 0, 0.58], "depth": 10, "radius_grid": [3, 0, 1, 3, 25],
                   "m_threshold": 2, "replicates": 250}, "ends.csv",
                  "59db80e983afcfdfd6227e16d562ab9ac1c07dc39c389f79a17878f6ded5fdc1"),
    "ends-Z3": ({"experiment": "ends", "seed": 3, "group": {"kind": "integer_lattice", "param": 3},
                 "offspring": [0.3, 0.3, 0.4], "depth": 8, "radius_grid": [2, 0, 1, 4],
                 "m_threshold": 3, "replicates": 250}, "ends.csv",
                "d6a796df7670ee84280b08d194f2b08b66c5b26e804500dc9216487b9d2d8c29"),
    "intersect-two-laws": ({"experiment": "intersect", "seed": 3,
                            "group": {"kind": "integer_lattice", "param": 2},
                            "offspring1": [0.45, 0, 0.55], "offspring2": [0.3, 0.3, 0.4],
                            "depth": 4, "replicates": 900}, "intersect.csv",
                           "0d8edffddf506627d6ec32a4f47d0a4384529c7a1a591c606a9862541b351800"),
}


# (config, output, sha256) of the exact series at their caps, recorded
# before the tree kernel read strided windows and the CSV rows were
# formatted from columns
_CRIT_T4 = 1.0 / GroupSpec("regular_tree", 4).spectral_radius_closed_form()
PINNED_SERIES = {
    "spectra-T4": ({"experiment": "spectra", "seed": 3, "group": {"kind": "regular_tree",
                                                                  "param": 4},
                    "n_max": 60_000}, "spectra.csv",
                   "c3260991a4952fca23f81b4d04a405ed1f266665c39eb0db56bc67f28a1e5b81"),
    "spectra-Z3": ({"experiment": "spectra", "seed": 3, "group": {"kind": "integer_lattice",
                                                                  "param": 3},
                    "n_max": 63}, "spectra.csv",
                   "d5fb4e331b49386513c2fbc0462c32085e7117bfcb1bd4fe03c23c287586a289"),
    "visits-T4": ({"experiment": "visits", "seed": 3, "group": {"kind": "regular_tree",
                                                                "param": 4},
                   "mean": _CRIT_T4, "n_max": 60_000}, "visits.csv",
                  "feeab1a097f3fe235665a152d74d98932304b0c012565c41d6faf173fe6bbcaf"),
    "visits-Z3": ({"experiment": "visits", "seed": 3, "group": {"kind": "integer_lattice",
                                                                "param": 3},
                   "mean": 1.0, "n_max": 50}, "visits.csv",
                  "acc0c3a4a11389d063fec27db46122604748be184f01a2ae2f71929cf0d0b24f"),
}


@pytest.mark.parametrize("name", PINNED_SERIES)
def test_series_outputs_match_pinned_digests(tmp_path, name):
    """The spectra and visits series write the pinned bytes at 1 and 2
    workers."""
    cfg, body, digest = PINNED_SERIES[name]
    for workers in (1, 2):
        _, out = run_cfg(tmp_path, cfg, f"w{workers}", workers=workers)
        assert hashlib.sha256((out / body).read_bytes()).hexdigest() == digest, workers


_CSV_FIELDS = st.one_of(st.integers(), st.floats(), st.booleans(),
                        st.sampled_from([-0.0, 1e16, 5e-324, 2**63, 2**64 + 1, -2**70]))


@given(st.integers(1, 6).flatmap(
    lambda width: st.lists(st.tuples(*[_CSV_FIELDS] * width), min_size=1, max_size=20)))
@example([(-0.0, 1e16, 5e-324, 2**63, True, False, -(2**64) - 3, float("nan"))])
def test_csv_text_writes_what_csv_writer_writes(rows):
    """_csv_text, fed the columns of the rows, writes the lines of
    csv.writer: ints by str, floats by repr, bools as True/False."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert cli._csv_text(*zip(*rows)) == buf.getvalue()


@pytest.mark.parametrize("name", PINNED_BODIES)
def test_sharded_output_bodies_match_pinned_digests(tmp_path, name):
    """Each sharded experiment writes the pinned bytes at 1 and 2 workers.
    A change that moves sampled output must say so and re-pin here."""
    cfg, body, digest = PINNED_BODIES[name]
    for workers in (1, 2):
        _, out = run_cfg(tmp_path, cfg, f"w{workers}", workers=workers)
        assert hashlib.sha256((out / body).read_bytes()).hexdigest() == digest, workers


def test_main_entrypoint(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "experiment": "spectra",
                "seed": 3,
                "group": {"kind": "regular_tree", "param": 3},
                "n_max": 50,
            }
        )
    )
    status = cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert status == 0
    assert os.path.exists(tmp_path / "run" / "spectra.csv")
    assert cli.main(["--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x")]) == 1
    # no output directory anywhere
    assert cli.main(["--config", str(cfg_path)]) == 1


def test_main_reports_config_errors(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"experiment": "spectra", "seed": 1}))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "y")]) == 1


# ---------------------------------------------------------------------------
# the config table: malformed configs end in exit 1 with one error line

T4 = {"kind": "regular_tree", "param": 4}
Z3 = {"kind": "integer_lattice", "param": 3}
MU = [0.45, 0, 0.55]
NAN = float("nan")

BASE = {
    "spectra": {"experiment": "spectra", "seed": 1, "group": T4, "n_max": 50},
    "visits": {"experiment": "visits", "seed": 1, "group": T4, "mean": 1.0, "n_max": 20},
    "magic-fuzz": {"experiment": "magic-fuzz", "seed": 1, "n_trees": 2, "max_vertices": 10,
                   "k_grid": [1], "r_grid": [1]},
    "intersect": {"experiment": "intersect", "seed": 1, "group": T4, "offspring1": MU,
                  "depth": 2, "replicates": 4},
    "thin-sweep": {"experiment": "thin-sweep", "seed": 1, "group": T4, "offspring1": MU,
                   "p_grid": [0.5, 1.0], "depth": 2, "replicates": 3},
    "ends": {"experiment": "ends", "seed": 1, "group": T4, "offspring": [0.3, 0.3, 0.4],
             "depth": 2, "radius_grid": [1], "m_threshold": 1, "replicates": 2},
    "pullback": {"experiment": "mtp-test", "seed": 1, "sampler": "pullback", "group": T4,
                 "offspring": MU, "depth": 4, "f": "adjacent", "w": "unit",
                 "n_samples": 1000, "alpha": 0.01},
    "pushforward": {"experiment": "mtp-test", "seed": 1, "sampler": "pushforward",
                    "group": T4, "offspring": MU, "depth": 4, "ball_radius": 2,
                    "f": "adjacent", "w": "unit", "n_samples": 1000, "alpha": 0.01},
    "uniform_root": {"experiment": "mtp-test", "seed": 1, "sampler": "uniform_root",
                     "graph": {"shape": "path", "n": 5}, "f": "adjacent", "w": "unit",
                     "n_samples": 1000, "alpha": 0.01},
}

# (base, changed keys, entry point that an over-cap config must never reach)
MALFORMED = [
    ("intersect", {"budget": -5}, None),
    ("spectra", {"stride": 0}, None),
    ("visits", {"stride": "x"}, None),
    ("ends", {"radius_grid": [-3]}, None),
    ("magic-fuzz", {"k_grid": ["a"]}, None),
    ("intersect", {"depth": True}, None),
    ("visits", {"mean": NAN}, None),
    ("intersect", {"offspring1": [NAN, 0.5, 0.5]}, None),
    ("spectra", {"seed": True}, None),
    ("spectra", {"seed": 2**64}, None),
    ("spectra", {"n_max": 2.7}, None),
    ("spectra", {"n_max": "5"}, None),
    ("spectra", {"group": {"kind": "regular_tree", "param": True}}, None),
    ("spectra", {"group": {"kind": "regular_tree"}}, None),
    ("spectra", {"group": [4]}, None),
    ("spectra", {"experiment": ["spectra"]}, None),
    ("visits", {"mean": float("inf")}, None),
    ("visits", {"mean": 10**400}, None),
    ("thin-sweep", {"p_grid": [NAN]}, None),
    ("thin-sweep", {"p_grid": []}, None),
    ("thin-sweep", {"offspring2": [True, False]}, None),
    ("thin-sweep", {"offspring1": ["0.5", "0.5"]}, None),
    ("ends", {"offspring": [None, 1.0]}, None),
    ("ends", {"m_threshold": 0}, None),
    ("pullback", {"alpha": NAN}, None),
    ("pullback", {"f": ["adjacent"]}, None),
    ("pullback", {"n_samples": True}, None),
    ("pullback", {"budget": 1}, None),
    ("pullback", {"a_rule": "ball", "ball_radius": -1}, None),
    ("uniform_root", {"graph": {"shape": "path", "n": 1}}, None),
    ("uniform_root", {"graph": {"shape": "cycle", "n": 5}}, None),
    ("uniform_root", {"sampler": "fixed_root", "root_index": 5}, None),
    ("uniform_root", {"out_dir": 5}, None),
    # every sample would be uncertified: refused before any sampler is built
    ("pullback", {"f": "adjacent", "depth": 1}, "brwlab.mtp.pullback_sampler"),
    ("pullback", {"f": "within_two", "depth": 3}, "brwlab.mtp.pullback_sampler"),
    ("pullback", {"f": "target_degree", "depth": 5, "a_rule": "trace"},
     "brwlab.mtp.pullback_sampler"),
    ("pushforward", {"f": "adjacent", "ball_radius": 1}, "brwlab.mtp.pushforward_trace_sampler"),
    ("pushforward", {"f": "within_two", "ball_radius": 3},
     "brwlab.mtp.pushforward_trace_sampler"),
    ("pushforward", {"f": "target_degree", "ball_radius": 5},
     "brwlab.mtp.pushforward_trace_sampler"),
    # over a cap: rejected while the config is parsed
    ("intersect", {"budget": 10**8}, "brwlab.intersections.sample_intersections"),
    ("pullback", {"a_rule": "ball", "ball_radius": 40}, "brwlab.mtp.pullback_sampler"),
    ("pullback", {"a_rule": "ball", "ball_radius": 16}, "brwlab.mtp.pullback_sampler"),
    ("pushforward", {"ball_radius": 16}, "brwlab.groups.elements_within"),
    ("spectra", {"group": Z3, "n_max": 60_000}, "brwlab.groups.spectral_radius_trajectory"),
    ("spectra", {"group": Z3, "n_max": 64}, "brwlab.groups.spectral_radius_trajectory"),
    ("visits", {"group": Z3, "n_max": 128}, "brwlab.groups.scaled_p_series"),
    ("intersect", {"group": Z3, "depth": 64}, "brwlab.intersections.sample_intersections"),
    ("uniform_root", {"graph": {"shape": "star", "n": 10**9}}, "brwlab.mtp.uniform_root_sampler"),
    ("magic-fuzz", {"n_trees": 10**7}, "brwlab.cli.Pool"),
    # a grid longer than CAPS["grid"] (the first key over its cap is named)
    ("magic-fuzz", {"r_grid": list(range(1, 66))}, "brwlab.cli._run_sharded"),
    ("magic-fuzz", {"k_grid": [1] * 65, "r_grid": [1] * 65}, "brwlab.cli._run_sharded"),
    ("thin-sweep", {"p_grid": [0.5] * 65}, "brwlab.cli._run_sharded"),
    ("ends", {"radius_grid": [1] * 65, "replicates": 10**6}, "brwlab.cli._run_sharded"),
    ("pullback", {"group": {"kind": "free_group", "param": 10**8}}, "brwlab.groups.neighbors"),
    # a key outside the table: a typo, an extra group key, another sampler's key
    ("intersect", {"budegt": 5}, None),
    ("visits", {"group": dict(T4, degree=4)}, None),
    ("pullback", {"graph": {"shape": "path", "n": 5}}, None),
]


def _unreachable(*args, **kwargs):
    raise AssertionError("a config over its cap reached the allocation")


def main_with(tmp_path, cfg, *argv):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))  # NaN and Infinity as json.dump writes them
    return cli.main(["--config", str(path), *argv])


@pytest.mark.parametrize("base, change, heavy", MALFORMED,
                         ids=[f"{b}-{'-'.join(c)}" for b, c, _ in MALFORMED])
def test_malformed_config_exits_1(tmp_path, capsys, monkeypatch, base, change, heavy):
    if heavy is not None:
        monkeypatch.setattr(heavy, _unreachable)
    argv = [] if "out_dir" in change else ["--out", str(tmp_path / "out")]
    status = main_with(tmp_path, dict(BASE[base], **change), *argv, "--workers", "2")
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_unknown_keys_are_named(tmp_path, capsys):
    """A key outside the table, at the top level or inside group or
    graph, is refused on one line that names it."""
    out = str(tmp_path / "o")
    cases = [
        ("intersect", {"budegt": 5}, "unknown config key 'budegt'"),
        ("visits", {"group": dict(T4, degree=4)}, "group: unknown config key 'degree'"),
        ("pullback", {"graph": {"shape": "path", "n": 5}}, "unknown config key 'graph'"),
        ("uniform_root", {"graph": {"shape": "path", "n": 5, "mark": "all"}},
         "graph: unknown config key 'mark'"),
    ]
    for base, change, message in cases:
        assert main_with(tmp_path, dict(BASE[base], **change), "--out", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(out)
    # every documented top-level key is known, and the seed may come from --seed
    cfg = dict(BASE["spectra"], out_dir=out)
    del cfg["seed"]
    assert cli.parse_config(cfg, seed_override=3)["seed"] == 3


@pytest.mark.parametrize("f, radius", [("adjacent", 1), ("within_two", 2), ("target_degree", 3)])
def test_mtp_runs_at_the_certified_radius(tmp_path, f, radius):
    """depth = 2 * radius (pullback) and ball_radius = 2 * radius
    (pushforward) certify every sample: the run is decided, not refused."""
    for base, key in (("pullback", "depth"), ("pushforward", "ball_radius")):
        cfg = dict(BASE[base], f=f, **{key: 2 * radius})
        status, out = run_cfg(tmp_path, cfg, f"{base}-{f}")
        assert status in (0, 2)
        assert json.loads((out / "mtp_report.json").read_text())["inconclusive"] == 0


def test_malformed_invocation_exits_1(tmp_path, capsys):
    assert main_with(tmp_path, [1, 2]) == 1  # not an object, no --out
    assert main_with(tmp_path, BASE["spectra"], "--out", str(tmp_path / "o"),
                     "--workers", "0") == 1
    (tmp_path / "file").write_text("")
    assert main_with(tmp_path, BASE["spectra"], "--out", str(tmp_path / "file" / "o")) == 1
    (tmp_path / "latin1.json").write_bytes(b'\xff{"experiment": "spectra"}')
    assert cli.main(["--config", str(tmp_path / "latin1.json"), "--out", str(tmp_path)]) == 1
    # malformed flags: one error line, not argparse's usage text and exit 2
    out = str(tmp_path / "o")
    assert main_with(tmp_path, BASE["spectra"], "--out", out, "--workers", "x") == 1
    assert main_with(tmp_path, BASE["spectra"], "--out", out, "--seed", "1.5") == 1
    assert cli.main(["--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 7 and all(line.startswith("error: ") for line in err), err
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


class FakePool:
    """Stands in for multiprocessing.Pool: runs the tasks in order in this
    process and records the pool size, the tasks' index ranges and the
    chunksize of each imap."""

    started = []

    def __init__(self, processes):
        self.started.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, tasks, chunksize=1):
        self.started.append(([t[3:] for t in tasks], chunksize))
        return map(fn, tasks)


def test_worker_pool_clamped(tmp_path, monkeypatch):
    """The pool never exceeds the shard count or the CPU count; the
    manifest keeps the requested worker count."""
    started = []
    monkeypatch.setattr(FakePool, "started", started)
    monkeypatch.setattr(cli, "Pool", FakePool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    cfg = dict(BASE["thin-sweep"], replicates=250)  # three shards
    status, out = run_cfg(tmp_path, cfg, "wide", workers=10**6)
    assert status == 0 and started == [3, ([(0, 83), (83, 166), (166, 250)], 1)]
    started.clear()
    assert json.loads((out / "manifest.json").read_text())["workers"] == 10**6
    # without an affinity mask the CPU count decides
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    _, out1 = run_cfg(tmp_path, cfg, "one", workers=10**6)
    assert started == []  # one CPU known: no pool at all
    assert (out / "thin_sweep.csv").read_bytes() == (out1 / "thin_sweep.csv").read_bytes()


def test_pool_schedule_is_balanced(tmp_path, monkeypatch):
    """The task count is a multiple of the processes, each task at most
    the experiment's block, and a pool hands them out one at a time; the
    bytes are those of the in-process run."""
    started = []
    monkeypatch.setattr(FakePool, "started", started)
    monkeypatch.setattr(cli, "Pool", FakePool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for replicates, want in [
        (250, [(0, 62), (62, 125), (125, 187), (187, 250)]),  # three blocks of 100 made four
        (1000, [(i * 100, i * 100 + 100) for i in range(10)]),  # already a multiple of two
        (101, [(0, 50), (50, 101)]),
    ]:
        cfg = dict(BASE["thin-sweep"], replicates=replicates)
        _, out1 = run_cfg(tmp_path, cfg, f"w1-{replicates}")  # no pool
        _, out2 = run_cfg(tmp_path, cfg, f"w2-{replicates}", workers=2)
        assert started == [2, (want, 1)]
        started.clear()
        assert (out1 / "thin_sweep.csv").read_bytes() == (out2 / "thin_sweep.csv").read_bytes()


def test_pool_sized_by_cpu_affinity(tmp_path, monkeypatch):
    """A process allowed one CPU runs its shards in-process, however many
    CPUs the machine has, and writes the same bytes."""
    cfg = dict(BASE["thin-sweep"], replicates=250)  # three shards
    _, out1 = run_cfg(tmp_path, cfg, "w1")
    monkeypatch.setattr(cli, "Pool", _unreachable)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {5}, raising=False)
    status, out = run_cfg(tmp_path, cfg, "pinned", workers=4)
    assert status == 0
    assert (out / "thin_sweep.csv").read_bytes() == (out1 / "thin_sweep.csv").read_bytes()


# the substream key cache when full: maxsize blocks of (256, 2) uint64 keys
KEY_CACHE = _block_keys.cache_info().maxsize * 256 * 2 * 8

# (config, the key that counts its units, units at 1x, bytes kept per unit,
# bytes allowed once): mtp-test keeps each (difference, weight) row as two
# doubles and np.std adds one per unit for the deviations; intersect keeps
# integer tallies, and its 10x run may fill the key cache further than 1x
STREAMED = {
    "magic-fuzz": (dict(BASE["magic-fuzz"], max_vertices=40, k_grid=list(range(1, 9)),
                        r_grid=[1, 2, 3]), "n_trees", 400, 0, 0),
    "thin-sweep": (dict(BASE["thin-sweep"], p_grid=[0.5, 0.9, 1.0], depth=6), "replicates", 200,
                   0, 0),
    "intersect": (dict(BASE["intersect"], depth=4), "replicates", 400, 0, KEY_CACHE),
    "ends": (dict(BASE["ends"], depth=4, radius_grid=[1, 2], m_threshold=2), "replicates", 100,
             0, 0),
    "mtp-test": (dict(BASE["uniform_root"], f="marked_neighbors"), "n_samples", 1000, 24, 0),
}


def _traced_peak(cfg, out):
    tracemalloc.start()
    try:
        assert cli.run(cfg, str(out)) in (0, 2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", STREAMED)
def test_sharded_run_memory_does_not_grow_with_its_units(tmp_path, name):
    """Rows reach the file shard by shard: ten times the units peak within
    1.5 times the traced peak of one time the units, plus what the
    manifest keeps per unit and the allowance for a cache."""
    cfg, key, units, kept, cached = STREAMED[name]
    run_cfg(tmp_path, dict(cfg, **{key: 10 * units}), "warm")  # fill the caches first
    one = _traced_peak(dict(cfg, **{key: units}), tmp_path / "one")
    ten = _traced_peak(dict(cfg, **{key: 10 * units}), tmp_path / "ten")
    assert ten <= 1.5 * one + kept * 10 * units + cached, (one, ten)


@pytest.mark.parametrize("name", STREAMED)
def test_failed_run_leaves_no_output(tmp_path, monkeypatch, name):
    """A shard that raises on its third task leaves neither the output
    nor a partial file, and the manifest of an earlier run is gone."""
    cfg, key, units, *_ = STREAMED[name]
    calls = []

    def third_fails(task):
        calls.append(task)
        if len(calls) == 3:
            raise RuntimeError("shard failed")
        return worker(task)

    worker = cli._shard_worker
    monkeypatch.setattr(cli, "_shard_worker", third_fails)
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text("{}")
    with pytest.raises(RuntimeError, match="shard failed"):
        cli.run(dict(cfg, **{key: 10 * units}), str(out))
    assert len(calls) == 3 and os.listdir(out) == []


@given(st.lists(st.integers(0, 20), min_size=1, max_size=40))
def test_median_of_counts_matches_numpy(values):
    assert cli._median(Counter(values)) == np.median(values)


_BAD_VALUES = [True, False, -1, 0, 2.5, NAN, float("inf"), [], [NAN, 1.0], "x", None, {},
               {"kind": "regular_tree", "param": 2.0}]
_GROUPS = st.sampled_from([T4, {"kind": "free_group", "param": 2},
                           {"kind": "integer_lattice", "param": 2}])
_LAWS = st.sampled_from([MU, [0.5, 0.5], [0.3, 0.3, 0.4], [0, 1]])
# no cap bounds these int keys, so a valid config can hold any size: a
# bit length in 61..70, then a value of it, past int64 and uint64 as often
# as not
_HUGE = st.integers(61, 70).flatmap(lambda bits: st.integers(2 ** (bits - 1), 2**bits - 1))
_SMALL_VALID = {
    "group": _GROUPS,
    "n_max": st.integers(1, 30),
    "stride": st.one_of(st.integers(1, 5), _HUGE),
    "mean": st.floats(0.0, 2.0),
    "n_trees": st.integers(1, 3),
    "max_vertices": st.integers(1, 12),
    "k_grid": st.lists(st.one_of(st.integers(1, 4), _HUGE), min_size=1, max_size=3),
    "r_grid": st.lists(st.one_of(st.integers(1, 3), _HUGE), min_size=1, max_size=2),
    "offspring1": _LAWS,
    "offspring2": _LAWS,
    "offspring": _LAWS,
    "depth": st.integers(1, 3),
    "budget": st.integers(2, 60),
    "replicates": st.integers(2, 5),
    "p_grid": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    "radius_grid": st.lists(st.one_of(st.integers(0, 3), _HUGE), min_size=1, max_size=3),
    "m_threshold": st.one_of(st.integers(1, 3), _HUGE),
    "f": st.sampled_from(["adjacent", "within_two", "target_degree"]),
    "w": st.sampled_from(["unit", "ingredient"]),
    "n_samples": st.just(1000),
    "alpha": st.floats(0.001, 0.5),
    "sampler": st.sampled_from(["uniform_root", "fixed_root", "pullback", "pushforward"]),
    "graph": st.fixed_dictionaries({"shape": st.sampled_from(["path", "star"]),
                                    "n": st.integers(2, 6)}),
    "root_index": st.one_of(st.integers(0, 5), _HUGE),
    "a_rule": st.sampled_from(["origin", "ball", "trace"]),
    "ball_radius": st.integers(1, 2),
    "depth2": st.integers(1, 3),
}
_KEYS = {
    "spectra": ["group", "n_max", "stride"],
    "visits": ["group", "mean", "n_max", "stride"],
    "magic-fuzz": ["n_trees", "max_vertices", "k_grid", "r_grid"],
    "mtp-test": ["f", "w", "n_samples", "alpha", "sampler", "graph", "root_index", "group",
                 "offspring", "depth", "a_rule", "ball_radius", "offspring2", "depth2",
                 "budget"],
    "intersect": ["group", "offspring1", "offspring2", "depth", "budget", "replicates"],
    "thin-sweep": ["group", "offspring1", "offspring2", "depth", "budget", "p_grid",
                   "replicates"],
    "ends": ["group", "offspring", "depth", "radius_grid", "m_threshold", "budget",
             "replicates"],
}


@given(data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_config_fuzz_exit_status(data):
    """Small valid configs, their uncapped int keys up to 2^70, with up
    to two keys made malformed or dropped: exit 0, 1 or 2, never an
    exception, and exit 1 prints one error line."""
    name = data.draw(st.sampled_from(sorted(_KEYS)))
    keys = ["seed"] + _KEYS[name]
    bad = data.draw(st.sets(st.sampled_from(keys), max_size=2))
    cfg = {"experiment": name}
    for key in keys:
        if key not in bad:
            cfg[key] = data.draw(st.integers(0, 2**64 - 1) if key == "seed" else _SMALL_VALID[key])
        elif data.draw(st.booleans()):
            cfg[key] = data.draw(st.sampled_from(_BAD_VALUES))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        status = cli.main(["--config", path, "--out", os.path.join(tmp, "out"),
                           "--workers", "1"])
    assert status in (0, 1, 2)
    if status == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
