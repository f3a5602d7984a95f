"""Tests of the benchmark itself, at tiny sizes and with no timing
assertions.  Run with: python3 -m pytest -q bench/test_bench.py"""

import csv
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from brwlab import cli  # noqa: E402

TINY = {
    "kernel-series": wl.KernelSeries(spectra_n_max=300, visits_n_max=8),
    "magic-fuzz": wl.MagicFuzz(n_trees=4, max_vertices=30),
    "pairs-small": wl.PairsSmall(replicates=40),
}


def _run_cli(workload, tmp_path, workers=1, tag="w1"):
    configs = workload.configs(7, 0)
    outs, statuses = [], []
    for i, cfg in enumerate(configs):
        out = tmp_path / f"{tag}_{i}"
        statuses.append(cli.run(cfg, str(out), workers=workers))
        outs.append(str(out))
    return configs, outs, statuses


def _edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("name", sorted(TINY))
def test_unperturbed_outputs_pass(name, tmp_path):
    workload = TINY[name]
    configs, outs, statuses = _run_cli(workload, tmp_path)
    workload.check_round(configs, outs, statuses)


def test_kernel_check_rejects_visits_sum_off_by_1e9(tmp_path):
    workload = TINY["kernel-series"]
    configs, outs, statuses = _run_cli(workload, tmp_path)

    def bump(rows):
        rows[5][1] = repr(float(rows[5][1]) * (1.0 + 1e-9))

    _edit_csv(os.path.join(outs[1], "visits.csv"), bump)
    with pytest.raises(wl.CheckFailed, match="visits"):
        workload.check_round(configs, outs, statuses)


def test_kernel_check_rejects_spectra_estimate_off_by_1e9(tmp_path):
    workload = TINY["kernel-series"]
    configs, outs, statuses = _run_cli(workload, tmp_path)

    def bump(rows):
        rows[3][1] = repr(float(rows[3][1]) * (1.0 - 1e-9))

    _edit_csv(os.path.join(outs[0], "spectra.csv"), bump)
    with pytest.raises(wl.CheckFailed, match="spectra"):
        workload.check_round(configs, outs, statuses)


def test_exact_z3_sums_match_direct_enumeration():
    # p_2(0,0) = 1/6 and p_4(0,0) = 15/216 on Z^3
    sums = wl.z3_return_partial_sums(4)
    assert sums[2] - sums[1] == wl.Fraction(1, 6)
    assert sums[4] - sums[3] == wl.Fraction(15, 216)


def test_exact_tree_chain_small_steps():
    # 4-regular tree: p_2 = 1/4; p_4 = 1/16 (0-1-0-1-0) + 3/64 (0-1-2-1-0) = 7/64
    logs = wl.tree_even_return_log(4, 4)
    assert math.isclose(math.exp(logs[2]), 1 / 4)
    assert math.isclose(math.exp(logs[4]), 7 / 64)


def test_magic_check_rejects_flipped_pass_cell(tmp_path):
    workload = TINY["magic-fuzz"]
    configs, outs, statuses = _run_cli(workload, tmp_path)

    def flip(rows):
        rows[1][8] = "0" if rows[1][8] == "1" else "1"

    _edit_csv(os.path.join(outs[0], "magic_fuzz.csv"), flip)
    with pytest.raises(wl.CheckFailed):
        workload.check_round(configs, outs, statuses)


def test_magic_check_rejects_wrong_exit_status(tmp_path):
    workload = TINY["magic-fuzz"]
    configs, outs, statuses = _run_cli(workload, tmp_path)
    with pytest.raises(wl.CheckFailed, match="exit status"):
        workload.check_round(configs, outs, [1])


def test_pairs_check_rejects_decreasing_pair_count(tmp_path):
    workload = TINY["pairs-small"]
    configs, outs, statuses = _run_cli(workload, tmp_path)

    def shrink_last(rows):
        # rows are (p, replicate, size, pairs, truncated); find a p = 1.0 row
        for row in rows[1:]:
            if row[0] == "1.0":
                row[3] = "-1"
                return

    _edit_csv(os.path.join(outs[0], "thin_sweep.csv"), shrink_last)
    with pytest.raises(wl.CheckFailed, match="decrease"):
        workload.check_round(configs, outs, statuses)


def test_pairs_run_check_rejects_a_wrong_reference(tmp_path, monkeypatch):
    workload = TINY["pairs-small"]
    configs, outs, statuses = _run_cli(workload, tmp_path)
    facts = [workload.check_round(configs, outs, statuses)]
    exact = wl.expected_pairs_at_1()
    workload.check_run(facts)
    monkeypatch.setattr(wl, "expected_pairs_at_1", lambda: exact * 3.0 + 10.0)
    with pytest.raises(wl.CheckFailed, match="SE"):
        workload.check_run(facts)


def _mtp_report(tmp_path, **changes):
    report = {"estimate": 0.01, "ci_low": -0.05, "ci_high": 0.07, "n": 1000,
              "inconclusive": 0, "alpha": 0.01, "pass": True}
    report.update(changes)
    out = tmp_path / "mtp"
    out.mkdir(exist_ok=True)
    (out / "mtp_report.json").write_text(json.dumps(report))
    return [str(out)]


def test_pullback_check_rejects_flipped_pass_and_inconclusive(tmp_path):
    workload = wl.PullbackTrace()
    configs = workload.configs(7, 0)
    facts = workload.check_round(configs, _mtp_report(tmp_path), [0])
    workload.check_run([facts])
    with pytest.raises(wl.CheckFailed, match="exit status"):
        workload.check_round(configs, _mtp_report(tmp_path, **{"pass": False}), [0])
    with pytest.raises(wl.CheckFailed, match="inconclusive"):
        workload.check_round(configs, _mtp_report(tmp_path, inconclusive=3), [0])


def test_pullback_run_check_rejects_a_biased_pool(tmp_path):
    workload = wl.PullbackTrace()
    configs = workload.configs(7, 0)
    # each round 2 SE above zero passes alone; five of them pooled are 4.5 SE off
    facts = workload.check_round(
        configs, _mtp_report(tmp_path, estimate=0.1, ci_low=-0.0288, ci_high=0.2288), [0])
    workload.check_run([facts])
    with pytest.raises(wl.CheckFailed, match="pooled"):
        workload.check_run([facts] * 5)


@pytest.mark.parametrize("name", sorted(TINY))
def test_differing_workers_2_body_is_rejected(name, tmp_path):
    workload = TINY[name]
    _, outs1, _ = _run_cli(workload, tmp_path, 1, "w1")
    _, outs2, _ = _run_cli(workload, tmp_path, 2, "w2")
    wl.bodies_equal(workload, outs1, outs2)
    target = next(os.path.join(d, f) for d in outs2 for f in workload.compared
                  if os.path.exists(os.path.join(d, f)))
    with open(target, "a") as fh:
        fh.write("0\n")
    with pytest.raises(wl.CheckFailed, match="differs"):
        wl.bodies_equal(workload, outs1, outs2)


def test_config_seeds_are_a_function_of_workload_seed_and_round():
    a = wl.config_seed("pairs-small", 1, 0)
    assert a == wl.config_seed("pairs-small", 1, 0)
    assert len({a, wl.config_seed("pairs-small", 2, 0), wl.config_seed("pairs-small", 1, 1),
                wl.config_seed("magic-fuzz", 1, 0)}) == 4
    assert 0 <= a < 2**63


# ---------------------------------------------------------------------------
# tracing


def test_self_times_sum_to_the_root_span():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.span("leaf", lambda: None)
    mid = tracer.span("mid", lambda: (leaf(), leaf()))
    root = tracer.span("root", lambda: (mid(), leaf()))
    root()
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    assert [s[0] for s in spans] == ["root", "mid", "leaf", "leaf", "leaf"]
    assert all(st > 0 for st in selfs)
    assert sum(selfs) == tracing.root_time(spans) == spans[0][2] - spans[0][1]


def test_traced_cli_run_self_times_sum_to_root(tmp_path, monkeypatch):
    from brwlab import groups, gw, intersections, magic, mtp

    for module in (cli, groups, gw, gw.MarkedTree, intersections, magic,
                   magic.OrientedTree, mtp):
        for attr, value in list(vars(module).items()):
            if callable(value) or isinstance(value, classmethod):
                monkeypatch.setattr(module, attr, value)  # restored after the test
    tracer = tracing.Tracer()
    main = tracing.install(tracer)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY["pairs-small"].configs(3, 0)[0]))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    dump = tracer.dump()
    names = {s[0] for s in dump["spans"]}
    assert {"cli.main", "rng.substream", "gw.sample_gw", "walks.run_walk",
            "gw.percolate_root_component"} <= names
    assert math.isclose(sum(tracing.self_times(dump["spans"])),
                        tracing.root_time(dump["spans"]), rel_tol=1e-9)
    metrics = tracing.layer_metrics([dump], 1)
    assert metrics["rng.substream.calls"][0] == 40
    assert metrics["walks.steps"][0] == dump["counters"]["groups.neighbors"][0]


# ---------------------------------------------------------------------------
# whole runs through child processes


def test_throughputs_are_units_per_wall_second_in_main_at_reference_speed():
    def rec(w1_s, w2_s, calibration_s):
        sample = {"units": 100, "setup_s": 0.2, "peak_rss_mb": 40.0}
        return {"w1": dict(sample, main_s=w1_s), "w2": dict(sample, main_s=w2_s),
                "calibration_s": [calibration_s] * 2}

    ref = run.CALIBRATION_REF_S
    # a --workers 2 run that lost its parallelism takes as long as --workers 1
    m = run._end_to_end([rec(2.0, 1.0, ref), rec(2.0, 3.0, ref)], 2, 0)
    assert m["throughput"] == (50.0, "1/s")
    assert m["throughput_w2"] == (50.0, "1/s")
    # on a host running at half speed the same work reads the same
    m = run._end_to_end([rec(4.0, 2.0, 2 * ref)], 1, 0)
    assert m["throughput"] == (50.0, "1/s")
    assert m["throughput_w2"] == (100.0, "1/s")
    assert m["setup_s"] == (0.1, "s")


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(trace):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workload = TINY["pairs-small"]
    result, record = run.run_workload(workload, 5, 0.0, trace, min_rounds=2)
    assert result["correct"], record
    assert (result["attempted"], result["failed"]) == (2, 0)
    want = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == want
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"]), name
    if trace:
        m = result["metrics"]
        assert math.isclose(m["trace.self_sum_s"]["value"], m["trace.root_s"]["value"],
                            rel_tol=1e-9)
