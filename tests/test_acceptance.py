"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 1 asserts the counting bounds that the flow argument delivers,
over every k <= 8, r <= 3: the radius-one branching count and the
supported count at every radius stay within r(2|A|-k)/k.  The branching
count at r >= 2 is only reported: no bound in |A|, k and r exists for it
(a star whose hub alone is marked has m+1 (1, 2)-branching vertices; see
tests/test_magic.py::test_branching_bound_counterexamples_at_larger_radius),
so criterion 1 checks its first witnesses against the brute-force oracle
instead, to show that the excess comes from the mathematics and not from
the implementation.  Criterion 12 checks the same bounds on every marked
tree with at most 10 vertices, and that each is attained.
"""

import math

import numpy as np

from brwlab import cli, groups, intersections as isec, magic, mtp
from brwlab.groups import GroupSpec
from brwlab.gw import OffspringDistribution, sample_marked_fuzz_tree
from brwlab.rng import substream

import oracles

T4 = GroupSpec("regular_tree", 4)
E = T4.identity()
MU11 = OffspringDistribution([0.45, 0.0, 0.55])  # mean 1.1


def _report(num, desc, ok):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def _fuzz_batches(seed, n_trees, max_vertices, draw=None, per_batch=1_000):
    """The fuzz trees of substreams (seed, 0..n_trees-1), folded into
    batches of per_batch trees as the CLI's magic-fuzz shards fold theirs:
    (first tree index, batch, tree start offsets, draws) per batch, where
    draws holds draw(tree, rng) for each tree, made on the tree's stream
    right after the tree is sampled."""
    for lo in range(0, n_trees, per_batch):
        draws = []

        def sampled():
            for idx in range(lo, min(lo + per_batch, n_trees)):
                rng = substream(seed, idx)
                tree = sample_marked_fuzz_tree(rng, max_vertices)
                if draw is not None:
                    draws.append(draw(tree, rng))
                yield tree.parent, tree.marks

        batch = magic.TreeBatch.fold(sampled())
        yield lo, batch, np.r_[0, np.cumsum(batch.sizes)].tolist(), draws


def test_criterion_01_branching_count_bound():
    """10^4 random trees (<= 500 vertices), all k <= 8, r <= 3: the
    r = 1 branching count and the supported count at every r never exceed
    r(2|A|-k)/k.  The r >= 2 branching excess is reported, and its first
    three witnesses must agree with the brute-force oracle.  The trees are
    counted in batches of 10^3, by the kernel the CLI runs."""
    branching_r1 = 0
    supported = 0
    excess = {2: 0, 3: 0}
    witnesses = []
    ks = range(1, 9)
    for lo, batch, offsets, _ in _fuzz_batches(2024, 10_000, 500):
        vals = magic.branch_deficiency_values(batch, [1, 2, 3])
        counts = {r: batch.count_at_least(vals[r], ks).tolist() for r in (1, 2, 3)}
        gaps = {r: batch.count_at_least(magic.supported_gap_values(batch, r), ks).tolist()
                for r in (1, 2, 3)}
        for t, n_marks in enumerate(batch.n_marks.tolist()):
            for r in (1, 2, 3):
                for k in ks:
                    bound = max(r * (2.0 * n_marks - k) / k, 0.0)
                    if gaps[r][t][k - 1] > bound:
                        supported += 1
                    if counts[r][t][k - 1] <= bound:
                        continue
                    if r == 1:
                        branching_r1 += 1
                    else:
                        excess[r] += 1
                        if len(witnesses) < 3:
                            # the same tree again, from its substream
                            tree = sample_marked_fuzz_tree(substream(2024, lo + t), 500)
                            fast = vals[r][offsets[t]:offsets[t + 1]].tolist()
                            witnesses.append((lo + t, k, r, tree, dict(enumerate(fast))))
    disagreeing = [
        (idx, k, r)
        for idx, k, r, tree, fast in witnesses
        if oracles.brute_branch_values(tree, tree.marks, r) != fast
    ]
    ok = _report(
        1,
        f"counting bounds, zero violations (r=1 branching {branching_r1}, "
        f"supported {supported}); r>=2 branching excess reported, not bounded "
        f"(r=2 {excess[2]}, r=3 {excess[3]}), {len(witnesses) - len(disagreeing)}"
        f"/{len(witnesses)} witnesses confirmed by brute force",
        branching_r1 == 0 and supported == 0 and not disagreeing,
    )
    assert ok, (
        f"r = 1 branching violations {branching_r1}, supported violations "
        f"{supported}; witnesses (tree, k, r) disagreeing with the brute-force "
        f"oracle: {disagreeing}"
    )


def test_criterion_02_fast_vs_brute_oracle_equivalence():
    """10^3 sampled trees <= 60 vertices: the fast branching and supported
    computations agree exactly with the literal brute force.  The trees
    are counted in one batch, each oriented toward its root (its own
    parent list)."""
    mismatches = 0
    for _, batch, offsets, trees in _fuzz_batches(777, 1_000, 60, lambda tree, rng: tree):
        vals = magic.branch_deficiency_values(batch, [1, 2, 3])
        for r in (1, 2, 3):
            fast, gaps = vals[r].tolist(), magic.supported_gap_values(batch, r).tolist()
            for t, tree in enumerate(trees):
                lo, hi = offsets[t], offsets[t + 1]
                if dict(enumerate(fast[lo:hi])) != oracles.brute_branch_values(
                    tree, tree.marks, r
                ):
                    mismatches += 1
                if {v: g for v, g in enumerate(gaps[lo:hi]) if g >= 0} != \
                        oracles.brute_supported_gaps(tree, tree.marks, r):
                    mismatches += 1
    ok = _report(2, f"fast vs brute-force counters, zero mismatches (found {mismatches})", mismatches == 0)
    assert ok


def test_criterion_03_spectral_radius():
    """p_2n(e,e)^(1/2n) at n = 2000 within 0.01 of 2 sqrt(d-1)/d."""
    ok = True
    details = []
    for d in (3, 4, 6):
        g = GroupSpec("regular_tree", d)
        est = groups.spectral_radius_trajectory(g, 2000, stride=2000)[-1]
        closed_form = g.spectral_radius_closed_form()
        gap = abs(est - closed_form)
        details.append(f"d={d}: |{est:.4f}-{closed_form:.4f}|={gap:.4f}")
        ok = ok and gap < 0.01
    ok = _report(3, "spectral radius within 0.01 at n=2000 (" + "; ".join(details) + ")", ok)
    assert ok


def test_criterion_04_critical_series_convergence():
    """At the critical mean the increments of the visit series fall below
    1e-6 only beyond N = 3000 (and they do fall below it: slow critical
    convergence); at 1.05x the critical mean the sums pass 1e6 before
    N = 3000."""
    crit = 1.0 / T4.spectral_radius_closed_form()
    series = groups.visits_series(T4, crit, 30_000)
    inc = np.diff(series.partial_sums, prepend=0.0)
    below = [n for n in range(2, 30_001, 2) if inc[n] < 1e-6]
    first = below[0] if below else None
    converged_late = first is not None and first > 3000 and inc[3000] >= 1e-6
    div = groups.visits_series(T4, 1.05 * crit, 3000)
    crossed = div.partial_sums[div.partial_sums > 1e6]
    diverged_early = crossed.size > 0
    ok = _report(
        4,
        f"critical increments sink under 1e-6 at N={first} (>3000); "
        f"supercritical sums pass 1e6 before 3000: {diverged_early}",
        converged_late and diverged_early,
    )
    assert ok


def test_criterion_05_intersection_formula_agreement():
    """Monte Carlo pair counts at matched truncation N = 6 (10^4 runs,
    means 1.1/1.1 on the 4-regular tree) within 4 sigma of the exact sum."""
    counts = np.array(
        [
            isec.sample_intersections(MU11, MU11, T4, 6, substream(5, i)).pair_count
            for i in range(10_000)
        ],
        dtype=float,
    )
    exact = isec.expected_pairs_truncated(1.1, 1.1, T4, E, E, 6)
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    z = (counts.mean() - exact) / se
    ok = _report(5, f"pair-count agreement: mc={counts.mean():.4f} exact={exact:.4f} z={z:+.2f}", abs(z) <= 4)
    assert ok


def test_criterion_06_exact_mass_transport():
    """100 random finite marked graphs with random transports: both sides
    of the uniform-root identity agree to 1e-12."""
    rng = np.random.default_rng(6)
    fs = list(mtp.BUILTIN_TRANSPORT.values())
    worst = 0.0
    ok = True
    for i in range(100):
        tree = oracles.random_marked_tree(rng, 50)
        lhs, rhs, good = mtp.exact_mtp_check(tree.adjacency(), tree.marks, fs[i % len(fs)])
        worst = max(worst, abs(lhs - rhs))
        ok = ok and good
    ok = _report(6, f"exact transport identity on 100 graphs (worst gap {worst:.2e})", ok)
    assert ok


# criteria 7 and 8 read all three off each draw of their sampler
MTP_TRANSPORTS = tuple(
    mtp.BUILTIN_TRANSPORT[f] for f in ("marked_neighbors", "target_degree", "leaf_target"))


def test_criterion_07_pullback_unit_weight():
    """Pulled-back marks with unit weight on the deterministic transitive
    graph: all three transports pass at alpha = 0.01 with 10^4 samples,
    for both the origin and the shifted-ball target rules."""
    results = []
    ok = True
    for rule, kwargs in (("origin", {}), ("ball", {"ball_radius": 1})):
        sampler = mtp.pullback_sampler(T4, MU11, 12, rule, **kwargs)
        reports = mtp.mc_mtp_test(sampler, MTP_TRANSPORTS, mtp.BUILTIN_WEIGHT["unit"],
                                  10_000, 0.01, np.random.default_rng(55))
        for F, rep in zip(MTP_TRANSPORTS, reports, strict=True):
            results.append(f"{rule}/{F.name}:{'ok' if rep.passed else 'FAIL'}")
            ok = ok and rep.passed
    ok = _report(7, "unit-weight pull-back (" + ", ".join(results) + ")", ok)
    assert ok


def test_criterion_08_trace_weighted_pullback():
    """Marks from an independent second walk, weighted by inverse root
    visits of that walk: all three transports pass at alpha = 0.01."""
    sampler = mtp.pullback_sampler(T4, MU11, 12, "trace", depth2=24)
    results = []
    ok = True
    reports = mtp.mc_mtp_test(sampler, MTP_TRANSPORTS, mtp.BUILTIN_WEIGHT["ingredient"],
                              10_000, 0.01, np.random.default_rng(101))
    for F, rep in zip(MTP_TRANSPORTS, reports, strict=True):
        results.append(f"{F.name}: est={rep.estimate:+.4f} {'ok' if rep.passed else 'FAIL'}")
        ok = ok and rep.passed
    ok = _report(8, "trace-weighted pull-back (" + ", ".join(results) + ")", ok)
    assert ok


def test_criterion_09_root_branching_probability():
    """With the root uniform on the marks, the branching frequency stays
    below 2r/k + 4 sigma at (4,1), (8,1), (8,2) over 10^4 samples.  The
    trees are evaluated in batches of 10^3, by the kernel the CLI runs."""
    pairs = ((4, 1), (8, 1), (8, 2))
    hits = {pair: 0 for pair in pairs}
    n = 10_000

    def draw_root(tree, rng):
        marks = sorted(tree.marks)
        return marks[int(rng.integers(0, len(marks)))]

    for _, batch, offsets, roots in _fuzz_batches(99, n, 200, draw_root):
        vals = magic.branch_deficiency_values(batch, [1, 2])
        # a fuzz tree's vertex ids are 0..n-1 in parent-map order, so
        # root v of tree t sits at batch index offsets[t] + v
        at = np.add(offsets[:-1], roots)
        for k, r in pairs:
            hits[(k, r)] += int((vals[r][at] >= k).sum())
    ok = True
    details = []
    for (k, r), h in hits.items():
        freq = h / n
        bound = 2.0 * r / k
        sd = math.sqrt(max(freq * (1 - freq), 1e-9) / n)
        good = freq <= bound + 4 * sd
        details.append(f"({k},{r}): {freq:.3f}<={bound}")
        ok = ok and good
    ok = _report(9, "root branching probability (" + ", ".join(details) + ")", ok)
    assert ok


def test_criterion_10_thinning_coupling():
    """Shared edge labels: the overlap sets are nested along
    p = 0.5, 0.9, 1.0 on every one of 10^3 replicates.  The sweep nests
    them by construction, so each replicate is also checked against the
    per-p reference (both root components rebuilt at every p) on the same
    substream: the same sets, pair counts and truncation flag."""
    grid = [0.5, 0.9, 1.0]
    bad = 0
    mismatched = 0
    for i in range(1_000):
        rep = isec.thinned_intersection_sweep(MU11, MU11, T4, grid, 6, substream(10, i))
        ref = oracles.thinned_intersection_sweep_reference(
            MU11, MU11, T4, grid, 6, 1, substream(10, i)
        )[0]
        if not (rep.sets[0.5] <= rep.sets[0.9] <= rep.sets[1.0]):
            bad += 1
        if rep != ref:  # dataclass equality: sets, pair counts and truncation flag
            mismatched += 1
    ok = _report(10, f"thinning inclusion violations: {bad}, "
                     f"replicates unlike the per-p reference: {mismatched}",
                 bad == 0 and mismatched == 0)
    assert ok


def test_criterion_11_determinism(tmp_path):
    """Equal seeds give byte-identical CSV bodies for 1 and 8 workers."""
    cfg = {
        "experiment": "thin-sweep",
        "seed": 321,
        "group": {"kind": "regular_tree", "param": 4},
        "offspring1": [0.45, 0, 0.55],
        "p_grid": [0.5, 0.9, 1.0],
        "depth": 6,
        "replicates": 400,
    }
    bodies = []
    for run, workers in (("a", 1), ("b", 8), ("c", 1)):
        out = tmp_path / run
        cli.run(cfg, str(out), workers=workers)
        bodies.append((out / "thin_sweep.csv").read_bytes())
    cfg2 = {
        "experiment": "intersect",
        "seed": 321,
        "group": {"kind": "regular_tree", "param": 4},
        "offspring1": [0.45, 0, 0.55],
        "depth": 5,
        "replicates": 2000,
    }
    bodies2 = []
    for run, workers in (("d", 1), ("e", 8)):
        out = tmp_path / run
        cli.run(cfg2, str(out), workers=workers)
        bodies2.append((out / "intersect.csv").read_bytes())
    ok = bodies[0] == bodies[1] == bodies[2] and bodies2[0] == bodies2[1]
    ok = _report(11, "byte-identical CSV bodies across reruns and worker counts", ok)
    assert ok


def test_criterion_12_counting_bounds_on_every_small_tree():
    """Every nonempty mark set of every rooted tree with at most 10
    vertices (918 721 configurations), at every r = 1..n and k = 1..2n:
    the r = 1 branching count and the supported count at every r never
    exceed r(2|A|-k)/k, and each attains it (the largest count/bound over
    cells with a positive bound is exactly 1.0).  The r >= 2 branching
    count has no bound in |A|, k and r; its largest count/bound at n
    vertices is n/2, as on the marked-hub star.  Ratios are taken as
    count * k / (r(2|A| - k)), a quotient of integers."""
    trees = [0] * 11
    configurations = 0
    violations = {"branching r=1": 0, "supported": 0}
    top = {"branching r=1": (0.0, None), "supported": (0.0, None)}
    excess = [0.0] * 11  # per n: the largest r >= 2 branching count/bound
    for n, parent in ((n, p) for n in range(1, 11) for p in oracles.rooted_trees(n)):
        # one batch per rooted tree: mark set m holds the vertices of its set bits
        batch = magic.TreeBatch.fold(
            (parent, [v for v in range(n) if m >> v & 1]) for m in range(1, 2**n))
        trees[n] += 1
        configurations += batch.n_trees
        ks = np.arange(1, 2 * n + 1)
        vals = magic.branch_deficiency_values(batch, range(1, n + 1))
        for r in range(1, n + 1):
            den = r * (2 * batch.n_marks[:, None] - ks)  # the bound is den / k
            for name, values in (("branching r=1" if r == 1 else None, vals[r]),
                                 ("supported", magic.supported_gap_values(batch, r))):
                counts = batch.count_at_least(values, ks)
                ratio = np.divide(counts * ks, den, out=np.zeros(counts.shape), where=den > 0)
                if name is None:
                    excess[n] = max(excess[n], float(ratio.max()))
                    continue
                violations[name] += int(np.count_nonzero(
                    np.where(den > 0, counts * ks > den, counts > 0)))
                t, k = np.unravel_index(np.argmax(ratio), ratio.shape)
                if ratio[t, k] >= top[name][0]:  # the last extremal configuration
                    marks = [v for v in range(n) if (t + 1) >> v & 1]
                    top[name] = (float(ratio[t, k]),
                                 f"parent {parent}, marks {marks}, k={k + 1}, r={r}")
    ok = (trees[1:] == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
          and configurations == 918_721
          and violations == {"branching r=1": 0, "supported": 0}
          and all(ratio == 1.0 for ratio, _ in top.values())
          and excess[2:] == [n / 2 for n in range(2, 11)])
    ok = _report(
        12,
        f"counting bounds on all {configurations} marked trees with <= 10 vertices: "
        f"violations {violations}; max count/bound "
        + "; ".join(f"{name} {ratio} at {where}" for name, (ratio, where) in top.items())
        + f"; r>=2 branching max count/bound at n = 2..10: {excess[2:]}",
        ok,
    )
    assert ok, (trees, configurations, violations, top, excess)
