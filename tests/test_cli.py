"""Tests for the experiment runner: config handling, artifacts, exit
codes, and determinism."""

import contextlib
import csv
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from brwlab import cli


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


def test_magic_fuzz_exit_semantics(tmp_path):
    base = {"experiment": "magic-fuzz", "seed": 7, "n_trees": 80, "max_vertices": 80}
    # radius one never violates the bound
    status, out = run_cfg(tmp_path, dict(base, k_grid=[1, 4, 8], r_grid=[1]), "fuzz1")
    rows = read_csv(out / "magic_fuzz.csv")
    assert status == 0
    assert all(r[-1] == "1" for r in rows[1:])
    # the (1, 2) cell has genuine counterexamples: exit 2 and flagged rows
    status, out = run_cfg(tmp_path, dict(base, k_grid=[1], r_grid=[2]), "fuzz2")
    rows = read_csv(out / "fuzz2" if False else out / "magic_fuzz.csv")
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
    # over a cap: rejected while the config is parsed
    ("intersect", {"budget": 10**8}, "brwlab.intersections.sample_intersections"),
    ("pullback", {"a_rule": "ball", "ball_radius": 40}, "brwlab.mtp.pullback_sampler"),
    ("pullback", {"a_rule": "ball", "ball_radius": 16}, "brwlab.mtp.pullback_sampler"),
    ("pushforward", {"ball_radius": 16}, "brwlab.groups.elements_within"),
    ("spectra", {"group": Z3, "n_max": 60_000}, "brwlab.groups.scaled_p_series"),
    ("spectra", {"group": Z3, "n_max": 64}, "brwlab.groups.scaled_p_series"),
    ("visits", {"group": Z3, "n_max": 128}, "brwlab.groups.scaled_p_series"),
    ("intersect", {"group": Z3, "depth": 64}, "brwlab.intersections.sample_intersections"),
    ("uniform_root", {"graph": {"shape": "star", "n": 10**9}}, "brwlab.mtp.uniform_root_sampler"),
    ("magic-fuzz", {"n_trees": 10**7}, "brwlab.cli.Pool"),
    ("pullback", {"group": {"kind": "free_group", "param": 10**8}}, "brwlab.groups.neighbors"),
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


def test_worker_pool_clamped(tmp_path, monkeypatch):
    """The pool never exceeds the shard count or the CPU count; the
    manifest keeps the requested worker count."""
    started = []

    class FakePool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(cli, "Pool", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    cfg = dict(BASE["thin-sweep"], replicates=250)  # three shards
    status, out = run_cfg(tmp_path, cfg, "wide", workers=10**6)
    assert status == 0 and started == [3]
    assert json.loads((out / "manifest.json").read_text())["workers"] == 10**6
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    _, out1 = run_cfg(tmp_path, cfg, "one", workers=10**6)
    assert started == [3]  # one CPU known: no pool at all
    assert (out / "thin_sweep.csv").read_bytes() == (out1 / "thin_sweep.csv").read_bytes()


_BAD_VALUES = [True, False, -1, 0, 2.5, NAN, float("inf"), [], [NAN, 1.0], "x", None, {},
               {"kind": "regular_tree", "param": 2.0}]
_GROUPS = st.sampled_from([T4, {"kind": "free_group", "param": 2},
                           {"kind": "integer_lattice", "param": 2}])
_LAWS = st.sampled_from([MU, [0.5, 0.5], [0.3, 0.3, 0.4], [0, 1]])
_SMALL_VALID = {
    "group": _GROUPS,
    "n_max": st.integers(1, 30),
    "stride": st.integers(1, 5),
    "mean": st.floats(0.0, 2.0),
    "n_trees": st.integers(1, 3),
    "max_vertices": st.integers(1, 12),
    "k_grid": st.lists(st.integers(1, 4), min_size=1, max_size=3),
    "r_grid": st.lists(st.integers(1, 3), min_size=1, max_size=2),
    "offspring1": _LAWS,
    "offspring2": _LAWS,
    "offspring": _LAWS,
    "depth": st.integers(1, 3),
    "budget": st.integers(2, 60),
    "replicates": st.integers(2, 5),
    "p_grid": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    "radius_grid": st.lists(st.integers(0, 3), min_size=1, max_size=3),
    "m_threshold": st.integers(1, 3),
    "f": st.sampled_from(["adjacent", "within_two", "target_degree"]),
    "w": st.sampled_from(["unit", "ingredient"]),
    "n_samples": st.just(1000),
    "alpha": st.floats(0.001, 0.5),
    "sampler": st.sampled_from(["uniform_root", "fixed_root", "pullback", "pushforward"]),
    "graph": st.fixed_dictionaries({"shape": st.sampled_from(["path", "star"]),
                                    "n": st.integers(2, 6)}),
    "root_index": st.integers(0, 5),
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
    """Small valid configs with up to two keys made malformed or dropped:
    exit 0, 1 or 2, never an exception, and exit 1 prints one error line."""
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
