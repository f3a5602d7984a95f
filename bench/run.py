"""brwlab benchmark: CLI workloads timed end to end, traced per layer.

Usage (from the checkout root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload in turn

Each round of a run generates configs from (workload, seed, round) and
runs them in fresh processes that call brwlab.cli.main: with --trace 0,
once at --workers 1 and once at --workers 2; with --trace 1, once
untraced and once traced, both at --workers 1.  Rounds repeat until
--seconds are spent (at least three).  Every round's outputs are checked;
a round with a wrong output counts as failed.  Before each child the
parent times a fixed calibration loop, and the time metrics are scaled
by it to a reference host speed (bench/README.md, "Host speed").  The
last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from tracing import layer_metrics
from workloads import WORKLOADS, CheckFailed, bodies_equal

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
sys.path.insert(0, str(ROOT / "src"))  # checks import brwlab for exact references
RUNS_DIR = ROOT / ".bench_build" / "brwlab-bench"
DEFAULT_SEED = 1
HELD_OUT_SEED = 20260917  # not used while writing any change; re-check claims on it
MIN_ROUNDS = 3
HARD_LIMIT_S = 170.0  # a run must end within 180 s
# seconds of calibrate() on the reference host (README, "Host speed"); the
# time metrics are scaled to that host's speed
CALIBRATION_REF_S = 0.13


# ---------------------------------------------------------------------------
# the run record: environment, load, raw samples


def _read(path, default=""):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return default


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _src_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "brwlab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment():
    cpu = [ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
           if ln.startswith("model name")]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu[0] if cpu else platform.processor(),
    }


def loadavg():
    return _read("/proc/loadavg").strip()


def cpu_times():
    """The machine-wide `cpu` line of /proc/stat, in clock ticks."""
    fields = _read("/proc/stat").split("\n", 1)[0].split()
    return [int(v) for v in fields[1:9]] if fields[:1] == ["cpu"] else []


def steal_share(start, end):
    """Share of CPU time the hypervisor gave to other guests in between
    (field 8 of the cpu line); 0 where /proc/stat has no steal field."""
    if len(start) < 8 or len(end) < 8:
        return 0.0
    total = sum(end) - sum(start)
    return (end[7] - start[7]) / total if total > 0 else 0.0


def calibrate():
    """Seconds this process takes for a fixed mix of interpreter-bound and
    memory-bound numpy work; run between child processes, it tracks how
    fast the host runs at the time."""
    t0 = time.perf_counter()
    counts = {}
    for i in range(120_000):
        key = (i, i & 7)
        counts[key] = counts.get(key, 0) + 1
    a = np.ones(1_000_000)
    for _ in range(30):
        b = a * 0.5
        b += a
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# one child process


class ChildFailed(Exception):
    pass


def spawn(workload, configs, round_dir, tag, workers, trace, deadline):
    """Run configs in a fresh child process; returns its result dict with
    setup_s (spawn to the first cli.main call) added."""
    base = round_dir / tag
    base.mkdir(parents=True)
    runs = []
    for i, cfg in enumerate(configs):
        path = base / f"config_{i}.json"
        path.write_text(json.dumps(cfg))
        runs.append({"config": str(path), "out": str(base / f"out_{i}")})
    spec = {"root": str(ROOT), "workload": workload.name, "runs": runs, "workers": workers,
            "trace": bool(trace), "result": str(base / "result.json")}
    spec_path = base / "spec.json"
    spec_path.write_text(json.dumps(spec))
    timeout = max(1.0, deadline - time.monotonic())
    with open(base / "child.log", "wb") as log:
        t_spawn = time.monotonic()
        # own session, so a timeout or a signal to this process can stop the
        # child together with its pool workers
        proc = subprocess.Popen([sys.executable, str(CHILD), str(spec_path)], cwd=ROOT,
                                stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{tag}: timed out after {timeout:.0f} s") from exc
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0:
        tail = (base / "child.log").read_text(errors="replace")[-400:]
        raise ChildFailed(f"{tag}: child exited {proc.returncode}: {tail}")
    result = json.loads((base / "result.json").read_text())
    result["setup_s"] = result["t_main"] - t_spawn
    result["outs"] = [r["out"] for r in runs]
    return result


def _output_bytes(out_dirs):
    return sum(f.stat().st_size for d in out_dirs for f in Path(d).iterdir())


# ---------------------------------------------------------------------------
# one run of one workload


def run_workload(workload, seed, seconds, trace, min_rounds=MIN_ROUNDS):
    """Rounds until `seconds` are spent; returns (result line, record)."""
    t_start = time.monotonic()
    deadline = t_start + HARD_LIMIT_S
    run_dir = RUNS_DIR / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    rounds = []
    facts = []
    try:
        while True:
            r = len(rounds)
            configs = workload.configs(seed, r)
            rec = {"round": r, "error": None, "loadavg": loadavg(), "calibration_s": []}
            units = workload.units(configs)
            round_dir = run_dir / f"round_{r}"
            # (tag, workers, traced); odd rounds run the pair in reverse order
            jobs = [("w1", 1, False), ("traced", 1, True) if trace else ("w2", 2, False)]
            try:
                got = {}
                for tag, workers, traced in (jobs[::-1] if r % 2 else jobs):
                    rec["calibration_s"].append(calibrate())
                    got[tag] = spawn(workload, configs, round_dir, tag, workers, traced, deadline)
                    rec[tag] = _sample(got[tag], units)
                first, second = got["w1"], got[jobs[1][0]]
                if trace:
                    rec["trace"] = second["trace"]
                    rec["output_bytes"] = _output_bytes(second["outs"])
                facts.append(workload.check_round(configs, first["outs"], first["statuses"]))
                bodies_equal(workload, first["outs"], second["outs"])
                if second["statuses"] != first["statuses"]:
                    raise CheckFailed(f"exit statuses {first['statuses']} vs {second['statuses']}")
            except (ChildFailed, CheckFailed, OSError, ValueError, KeyError) as exc:
                rec["error"] = f"{type(exc).__name__}: {exc}"
            shutil.rmtree(round_dir, ignore_errors=True)
            rounds.append(rec)
            elapsed = time.monotonic() - t_start
            next_end = elapsed + elapsed / len(rounds)  # if one more round ran
            if (len(rounds) >= min_rounds and next_end > seconds) \
                    or next_end > HARD_LIMIT_S - 30.0:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    run_error = None
    if facts and len(facts) == len(rounds):
        try:
            workload.check_run(facts)
        except CheckFailed as exc:
            run_error = str(exc)
    failed = len(rounds) if run_error else sum(1 for rec in rounds if rec["error"])
    ok = [rec for rec in rounds if not rec["error"]]
    record = {"workload": workload.name, "seed": seed, "trace": int(trace),
              "rounds": rounds, "run_error": run_error,
              "measured_s": time.monotonic() - t_start}
    metrics = _layer_metrics(ok) if trace else _end_to_end(ok, len(rounds), failed)
    result = {"correct": failed == 0, "attempted": len(rounds), "failed": failed,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    for rec in rounds:
        rec.pop("trace", None)  # spans are summarised into the metrics
    return result, record


def _sample(result, units):
    return {"units": units, "main_s": sum(result["main_s"]),
            "setup_s": result["setup_s"], "peak_rss_mb": result["peak_rss_mb"]}


def _median(values):
    return statistics.median(values) if values else 0.0


def _pooled(ok, key):
    """Units per second of wall time in cli.main, over every round."""
    seconds = sum(rec[key]["main_s"] for rec in ok)
    return sum(rec[key]["units"] for rec in ok) / seconds if seconds > 0 else 0.0


def host_slowness(ok):
    """Mean calibration time of the run over the reference host's: 1.25
    means the host ran 25% slower than the reference."""
    times = [t for rec in ok for t in rec["calibration_s"]]
    return statistics.fmean(times) / CALIBRATION_REF_S if times else 1.0


def _end_to_end(ok, attempted, failed):
    slowness = host_slowness(ok)
    return {
        "throughput": (_pooled(ok, "w1") * slowness, "1/s"),
        "throughput_w2": (_pooled(ok, "w2") * slowness, "1/s"),
        "setup_s": (_median([rec[k]["setup_s"] for rec in ok for k in ("w1", "w2")]) / slowness,
                    "s"),
        "peak_rss_mb": (_median([rec["w1"]["peak_rss_mb"] for rec in ok]), "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def _layer_metrics(ok):
    if not ok:
        return {}
    out = layer_metrics([rec["trace"] for rec in ok],
                        sum(rec["output_bytes"] for rec in ok))
    traced = sum(rec["traced"]["main_s"] for rec in ok)
    untraced = sum(rec["w1"]["main_s"] for rec in ok)
    out["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return out


# ---------------------------------------------------------------------------
# report


def summary(workload, result, record):
    """Human-readable lines: every metric by name, unit and sample count."""
    rounds = record["rounds"]
    ok = [rec for rec in rounds if not rec["error"]]
    n_ok = len(ok)
    lines = [f"# {workload.name}  seed {record['seed']}  trace {record['trace']}  "
             f"rounds {len(rounds)}  measured {record['measured_s']:.1f} s  "
             f"loadavg {record['loadavg_start'].split()[0]} -> {record['loadavg_end'].split()[0]}  "
             f"steal {100 * record['steal_share']:.1f}%"]
    unit = f"{workload.unit}/s"
    m = result["metrics"]
    if not record["trace"]:
        w1, w2 = m["throughput"]["value"], m["throughput_w2"]["value"]
        slowness = host_slowness(ok)
        lines += [
            f"throughput     {w1:12.4f} {unit:<14} "
            f"per second in cli.main at reference host speed, pooled over {n_ok} rounds, "
            f"--workers 1 ({w1 / slowness:.4f} as measured)",
            f"throughput_w2  {w2:12.4f} {unit:<14} "
            f"the same at --workers 2 ({w2 / slowness:.4f} as measured)",
            f"host_slowness  {slowness:12.4f} {'ratio':<14} "
            f"calibration time over the reference host's, mean of {2 * n_ok}, not gated",
            f"w2/w1          {w2 / w1 if w1 else 0.0:12.4f} {'ratio':<14} "
            f"speed-up of --workers 2, not gated",
            f"setup_s        {m['setup_s']['value']:12.4f} {'s':<14} median of {2 * n_ok} processes "
            f"at reference host speed ({m['setup_s']['value'] * slowness:.4f} as measured)",
            f"peak_rss_mb    {m['peak_rss_mb']['value']:12.4f} {'MB':<14} median of {n_ok} rounds, --workers 1",
            f"fail_ratio     {result['failed'] / result['attempted']:12.4f} {'ratio':<14} "
            f"{result['failed']} of {result['attempted']} rounds failed",
            f"pass_ratio     {m['pass_ratio']['value']:12.4f} {'ratio':<14} 1 - fail_ratio, the gated form",
        ]
    else:
        for name, entry in m.items():
            lines.append(f"{name:<48} {entry['value']:16.6f} {entry['unit']:<6} "
                         f"over {n_ok} traced rounds")
    for rec in rounds:
        if rec["error"]:
            lines.append(f"round {rec['round']} failed: {rec['error']}")
    if record["run_error"]:
        lines.append(f"run check failed: {record['run_error']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # unwind through the finally blocks that stop children and remove outputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "brwlab" / "cli.py").is_file():
        print(f"error: no brwlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    for name in names:
        workload = WORKLOADS[name]
        load_start, stat_start = loadavg(), cpu_times()
        result, record = run_workload(workload, args.seed, args.seconds, args.trace)
        record["env"] = env
        record["seeds"] = {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED}
        record["loadavg_start"] = load_start
        record["loadavg_end"] = loadavg()
        record["steal_share"] = steal_share(stat_start, cpu_times())
        print("\n".join(summary(workload, result, record)))
        print("record " + json.dumps(record, sort_keys=True))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
