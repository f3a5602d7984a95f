"""The benchmark's workloads: configs generated from (workload, seed,
round) and the checks that decide whether a round's outputs are right.

Each workload is a list of CLI configs that one child process runs in
order.  Every round of a run draws a fresh config seed, so one run covers
several independent inputs; the same (workload, seed) always gives the
same sequence of configs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from fractions import Fraction
from functools import lru_cache
from statistics import NormalDist

T4 = {"kind": "regular_tree", "param": 4}
Z3 = {"kind": "integer_lattice", "param": 3}
MU11 = [0.45, 0, 0.55]  # mean 1.1, the subcritical-walk regime of criteria 5-8

SPECTRA_CHECK_STEPS = 600  # spectra rows with 2n <= this are checked exactly
PAIRS_DEPTH = 6
Z_LIMIT = 4.0  # statistical checks: |mean - expected| <= 4 standard errors


def config_seed(workload: str, seed: int, round_idx: int) -> int:
    """Config seed of one round, a pure function of its arguments."""
    digest = hashlib.blake2b(f"{workload}/{seed}/{round_idx}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big") >> 1


class CheckFailed(Exception):
    pass


def _need(cond, message):
    if not cond:
        raise CheckFailed(message)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# exact references


@lru_cache(maxsize=None)
def z3_return_partial_sums(n_max: int):
    """Exact partial sums of p_n(0, 0) for SRW on Z^3, n = 0..n_max.

    p_2m = 6^-2m (2m)! sum_{i+j+k=m} 1 / (i! j! k!)^2, and p_odd = 0."""
    fact = [math.factorial(i) for i in range(2 * (n_max // 2) + 1)]
    sums = []
    total = Fraction(0)
    for n in range(n_max + 1):
        if n % 2 == 0:
            m = n // 2
            acc = 0
            for i in range(m + 1):
                for j in range(m - i + 1):
                    k = m - i - j
                    acc += (fact[m] // (fact[i] * fact[j] * fact[k])) ** 2
            # (2m)! / (m!)^2 * sum (m! / (i! j! k!))^2
            total += Fraction(fact[2 * m] // (fact[m] ** 2) * acc, 6 ** (2 * m))
        sums.append(total)
    return sums


@lru_cache(maxsize=None)
def tree_even_return_log(degree: int, steps: int):
    """log p_2n(e, e) on the degree-regular tree for 2n <= steps, from the
    exact integer distance chain (weights: degree out of 0, degree - 1 out
    and 1 in elsewhere, all over degree per step)."""
    counts = [1]
    out = {}
    log_d = math.log(degree)
    for n in range(1, steps + 1):
        nxt = [0] * (len(counts) + 1)
        for j, c in enumerate(counts):
            if not c:
                continue
            nxt[j + 1] += c * (degree if j == 0 else degree - 1)
            if j > 0:
                nxt[j - 1] += c
        counts = nxt
        if n % 2 == 0:
            out[n] = math.log(counts[0]) - n * log_d
    return out


@lru_cache(maxsize=None)
def expected_pairs_at_1():
    """Exact expected pair count of pairs-small at p = 1, from brwlab's
    closed form; computed once, in the benchmark's own process."""
    from brwlab import groups, intersections

    g = groups.GroupSpec(T4["kind"], T4["param"])
    mean = sum(k * p for k, p in enumerate(MU11))
    e = g.identity()
    return intersections.expected_pairs_truncated(mean, mean, g, e, e, PAIRS_DEPTH)


def _rel_close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One benchmark workload; subclasses define configs and checks."""

    name = ""
    unit = ""
    compared = ()  # output files that must be byte-identical across --workers

    def configs(self, seed: int, round_idx: int) -> list:
        raise NotImplementedError

    def units(self, configs) -> int:
        raise NotImplementedError

    def check_round(self, configs, out_dirs, statuses) -> dict:
        """Raise CheckFailed on a wrong output; return the facts the run
        level check pools across rounds."""
        raise NotImplementedError

    def check_run(self, facts) -> None:
        """Checks pooled over every round of a run."""


class KernelSeries(Workload):
    name = "kernel-series"
    unit = "series"
    compared = ("spectra.csv", "visits.csv")

    def __init__(self, spectra_n_max=60_000, visits_n_max=50):
        # spectra at the CLI cap; Z^3 visits cost ~ n_max^4 in (2 n_max + 1)^3 boxes
        self.spectra_n_max = spectra_n_max
        self.visits_n_max = visits_n_max

    def configs(self, seed, round_idx):
        s = config_seed(self.name, seed, round_idx)
        return [
            {"experiment": "spectra", "seed": s, "group": T4, "n_max": self.spectra_n_max},
            {"experiment": "visits", "seed": s, "group": Z3, "mean": 1.0,
             "n_max": self.visits_n_max},
        ]

    def units(self, configs):
        return len(configs)

    def check_round(self, configs, out_dirs, statuses):
        _need(statuses == [0, 0], f"exit statuses {statuses}, want [0, 0]")
        header, rows = _read_csv(os.path.join(out_dirs[0], "spectra.csv"))
        _need(header == ["n", "estimate"], f"spectra header {header}")
        n_max = configs[0]["n_max"]
        stride = max(1, n_max // 2000)  # the CLI's default stride
        want_rows = len(set(range(stride, n_max + 1, stride)) | {n_max})
        _need(len(rows) == want_rows, f"spectra has {len(rows)} rows, want {want_rows}")
        exact = tree_even_return_log(T4["param"], SPECTRA_CHECK_STEPS)
        checked = 0
        for n_str, est in rows:
            steps = int(n_str)
            if steps > SPECTRA_CHECK_STEPS:
                break
            want = math.exp(exact[steps] / steps)
            _need(_rel_close(float(est), want, 1e-12),
                  f"spectra n={steps}: {est} vs exact {want!r}")
            checked += 1
        _need(checked >= min(5, want_rows), f"only {checked} spectra rows checked")

        header, rows = _read_csv(os.path.join(out_dirs[1], "visits.csv"))
        _need(header == ["n", "partial_sum"], f"visits header {header}")
        n_max = configs[1]["n_max"]
        exact_sums = z3_return_partial_sums(n_max)
        _need(len(rows) == n_max + 1, f"visits has {len(rows)} rows")
        for n_str, val in rows:
            want = float(exact_sums[int(n_str)])
            _need(_rel_close(float(val), want, 1e-12),
                  f"visits n={n_str}: {val} vs exact {want!r}")
        return {}


class MagicFuzz(Workload):
    name = "magic-fuzz"
    unit = "trees"
    compared = ("magic_fuzz.csv",)
    K_GRID = list(range(1, 9))
    R_GRID = [1, 2, 3]

    def __init__(self, n_trees=1000, max_vertices=200):
        # at max_vertices 2000 single large stars dominate a run's cost and
        # trees/s moves 20-40% from seed to seed (README, Workloads)
        self.n_trees = n_trees
        self.max_vertices = max_vertices

    def configs(self, seed, round_idx):
        return [{
            "experiment": "magic-fuzz", "seed": config_seed(self.name, seed, round_idx),
            "n_trees": self.n_trees, "max_vertices": self.max_vertices,
            "k_grid": self.K_GRID, "r_grid": self.R_GRID,
        }]

    def units(self, configs):
        return configs[0]["n_trees"]

    def check_round(self, configs, out_dirs, statuses):
        header, rows = _read_csv(os.path.join(out_dirs[0], "magic_fuzz.csv"))
        _need(header[5:] == ["branching_count", "supported_count", "bound", "pass"],
              f"magic_fuzz header {header}")
        want_rows = configs[0]["n_trees"] * len(self.K_GRID) * len(self.R_GRID)
        _need(len(rows) == want_rows, f"{len(rows)} rows, want {want_rows}")
        failed_rows = 0
        for row in rows:
            r, bcount, scount = int(row[4]), int(row[5]), int(row[6])
            bound = max(float(row[7]), 0.0)
            _need(row[8] in ("0", "1"), f"pass cell {row[8]!r}")
            _need(scount <= bound, f"supported_count {scount} > bound {bound} in {row}")
            if r == 1:
                _need(bcount <= bound, f"r=1 branching_count {bcount} > bound {bound}")
            _need((row[8] == "1") == (bcount <= bound), f"pass cell disagrees in {row}")
            failed_rows += row[8] == "0"
        manifest = _read_json(os.path.join(out_dirs[0], "manifest.json"))
        _need(manifest["bound_violations"] == failed_rows,
              f"bound_violations {manifest['bound_violations']} != {failed_rows} failed rows")
        # criterion 1 is false for r >= 2, so a fuzz run normally exits 2
        _need(statuses == [2 if failed_rows else 0], f"exit status {statuses}")
        return {}


class PairsSmall(Workload):
    name = "pairs-small"
    unit = "replicates"
    compared = ("thin_sweep.csv",)
    P_GRID = [0.5, 0.9, 1.0]

    def __init__(self, replicates=3000):
        self.replicates = replicates

    def configs(self, seed, round_idx):
        return [{
            "experiment": "thin-sweep", "seed": config_seed(self.name, seed, round_idx),
            "group": T4, "offspring1": MU11, "depth": PAIRS_DEPTH,
            "p_grid": self.P_GRID, "replicates": self.replicates,
        }]

    def units(self, configs):
        return configs[0]["replicates"]

    def check_round(self, configs, out_dirs, statuses):
        _need(statuses == [0], f"exit status {statuses}, want [0]")
        header, rows = _read_csv(os.path.join(out_dirs[0], "thin_sweep.csv"))
        _need(header == ["p", "replicate", "intersection_size", "pair_count", "truncated"],
              f"thin_sweep header {header}")
        n_rep = configs[0]["replicates"]
        _need(len(rows) == n_rep * len(self.P_GRID), f"{len(rows)} rows")
        by_rep = {}
        for p, rep, _, pairs, _ in rows:
            by_rep.setdefault(int(rep), []).append((float(p), int(pairs)))
        _need(sorted(by_rep) == list(range(n_rep)), "replicate ids are not 0..n-1")
        full = []
        for rep, series in by_rep.items():
            series.sort()
            _need([p for p, _ in series] == self.P_GRID, f"replicate {rep} p values")
            counts = [c for _, c in series]
            _need(all(a <= b for a, b in zip(counts, counts[1:])),
                  f"replicate {rep}: pair counts {counts} decrease in p")
            full.append(counts[-1])
        return {"pairs_at_1": full}

    def check_run(self, facts):
        reference = expected_pairs_at_1()
        values = [v for f in facts for v in f["pairs_at_1"]]
        n = len(values)
        mean = sum(values) / n
        sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
        se = sd / math.sqrt(n)
        _need(abs(mean - reference) <= Z_LIMIT * se,
              f"p=1 mean pair count {mean:.4f} is {abs(mean - reference) / se:.2f} SE "
              f"from the exact {reference:.4f}")


class PullbackTrace(Workload):
    name = "pullback-trace"
    unit = "samples"
    compared = ("mtp_report.json",)

    N_SAMPLES = 1000  # the CLI minimum for mtp-test

    def configs(self, seed, round_idx):
        return [{
            "experiment": "mtp-test", "seed": config_seed(self.name, seed, round_idx),
            "sampler": "pullback", "a_rule": "trace", "group": T4, "offspring": MU11,
            "depth": 12, "depth2": 24, "f": "target_degree", "w": "ingredient",
            "alpha": 0.01, "n_samples": self.N_SAMPLES,
        }]

    def units(self, configs):
        return configs[0]["n_samples"]

    def check_round(self, configs, out_dirs, statuses):
        rep = _read_json(os.path.join(out_dirs[0], "mtp_report.json"))
        cfg = configs[0]
        _need(rep["inconclusive"] == 0, f"inconclusive {rep['inconclusive']}")
        _need(rep["n"] == cfg["n_samples"], f"n {rep['n']}")
        _need(rep["alpha"] == cfg["alpha"], f"alpha {rep['alpha']}")
        _need(rep["ci_low"] <= rep["estimate"] <= rep["ci_high"], "estimate outside its CI")
        _need(statuses == [0 if rep["pass"] else 2], f"exit status {statuses} with pass {rep['pass']}")
        # the CI is estimate +- z(1 - alpha/2) SE; recover the SE for pooling
        z = NormalDist().inv_cdf(1.0 - cfg["alpha"] / 2.0)
        se = (rep["ci_high"] - rep["ci_low"]) / (2.0 * z)
        _need(se > 0.0, "zero-width CI")
        return {"estimate": rep["estimate"], "se": se, "pass": rep["pass"]}

    def check_run(self, facts):
        # inverse-variance pooled z over the run's rounds; each round's own
        # alpha = 0.01 test would flag ~1% of correct rounds
        w = [1.0 / f["se"] ** 2 for f in facts]
        est = sum(wi * f["estimate"] for wi, f in zip(w, facts)) / sum(w)
        z = est * math.sqrt(sum(w))
        _need(abs(z) <= Z_LIMIT, f"pooled transport difference {est:+.5f} is {z:+.2f} SE from 0")


WORKLOADS = {w.name: w for w in (KernelSeries(), MagicFuzz(), PairsSmall(), PullbackTrace())}


def bodies_equal(workload: Workload, dirs_a, dirs_b) -> None:
    """Every compared output file is byte-identical between the two runs
    (one output directory per config)."""
    seen = 0
    for dir_a, dir_b in zip(dirs_a, dirs_b):
        for fname in workload.compared:
            path_a = os.path.join(dir_a, fname)
            if not os.path.exists(path_a):
                continue
            with open(path_a, "rb") as fa, open(os.path.join(dir_b, fname), "rb") as fb:
                _need(fa.read() == fb.read(), f"{fname} differs between --workers 1 and 2")
            seen += 1
    _need(seen == len(workload.compared), f"compared {seen} of {len(workload.compared)} files")
