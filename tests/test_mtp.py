"""Tests for the exact and Monte Carlo mass-transport checks."""

import importlib.util
import json
import math
import os

import numpy as np
import pytest

from brwlab import groups, mtp
from brwlab.groups import GroupSpec
from brwlab.gw import OffspringDistribution
from brwlab.rng import substream

import oracles

T4 = GroupSpec("regular_tree", 4)
MU11 = OffspringDistribution([0.45, 0.0, 0.55])  # mean 1.1

PATH3 = {0: [1], 1: [0, 2], 2: [1]}


def test_exact_check_adjacency_indicator():
    lhs, rhs, ok = mtp.exact_mtp_check(PATH3, {0, 1, 2}, mtp.BUILTIN_TRANSPORT["adjacent"])
    assert ok
    assert lhs == pytest.approx(4 / 3)  # four ordered adjacent pairs over |A| = 3


def test_exact_check_leaf_indicator_example():
    """Plain leaf-target mass (no distance gate inside the radius, which
    covers the whole path): six ordered pairs hit a leaf, divided by three
    marked vertices."""
    F = mtp.TransportFunction(
        "leaf_any", 2, lambda adj, marks, v, d: 1.0 if len(adj[v]) == 1 else 0.0
    )
    lhs, rhs, ok = mtp.exact_mtp_check(PATH3, {0, 1, 2}, F)
    assert ok
    assert lhs == pytest.approx(2.0)
    assert rhs == pytest.approx(2.0)


def test_exact_check_zero_function():
    F = mtp.TransportFunction("zero", 1, lambda adj, marks, v, d: 0.0)
    assert mtp.exact_mtp_check(PATH3, {0, 1, 2}, F) == (0.0, 0.0, True)


def test_exact_check_random_graphs():
    rng = np.random.default_rng(0)
    fs = list(mtp.BUILTIN_TRANSPORT.values())
    for i in range(30):
        t = oracles.random_marked_tree(rng, 50)
        F = fs[i % len(fs)]
        lhs, rhs, ok = mtp.exact_mtp_check(t.adjacency(), t.marks, F)
        assert ok, (lhs, rhs)


def test_exact_check_errors():
    with pytest.raises(ValueError):
        mtp.exact_mtp_check(PATH3, set(), mtp.BUILTIN_TRANSPORT["adjacent"])
    with pytest.raises(ValueError):
        mtp.exact_mtp_check(PATH3, {0, 9}, mtp.BUILTIN_TRANSPORT["adjacent"])


def test_builtin_locality_under_relabeling():
    """Built-in transports depend only on the local isomorphism type."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = oracles.random_marked_tree(rng, 25)
        adj = t.adjacency()
        perm = {v: v * 7 + 3 for v in adj}
        adj2 = {perm[v]: [perm[w] for w in ns] for v, ns in adj.items()}
        marks2 = frozenset(perm[v] for v in t.marks)
        u = int(rng.integers(0, t.n_vertices))
        v = int(rng.integers(0, t.n_vertices))
        d = oracles.bfs_distances(adj, u)[v]
        d2 = oracles.bfs_distances(adj2, perm[u])[perm[v]]
        for F in mtp.BUILTIN_TRANSPORT.values():
            a = F.fn(adj, frozenset(t.marks), v, d)
            b = F.fn(adj2, marks2, perm[v], d2)
            assert a == b


def _by_definition(name, adj, marks, v, d):
    """The built-in transports from their definitions: the mass sent to v
    from a vertex at distance d, read off an all-pairs BFS."""
    if name == "adjacent":
        return float(d == 1)
    if name == "within_two":
        return float(d <= 2)
    if name == "marked_neighbors":
        return float(min(sum(w in marks for w in adj[v]), 8)) if d <= 1 else 0.0
    if name == "leaf_target":
        return float(len(adj[v]) == 1) if d <= 1 else 0.0
    return float(min(len(adj[v]), 8)) if d <= 2 else 0.0


def _all_pairs(adj):
    return {u: oracles.bfs_distances(adj, u) for u in adj}


def test_builtin_transports_match_their_definitions():
    """Given d = d(u, v) up to its radius, each built-in equals its
    definition; beyond the radius the definition is 0, so the checks may
    skip every vertex outside the sender's ball."""
    rng = np.random.default_rng(13)
    for _ in range(15):
        t = oracles.random_marked_tree(rng, 30)
        adj, marks = t.adjacency(), frozenset(t.marks)
        dist = _all_pairs(adj)
        for name, F in mtp.BUILTIN_TRANSPORT.items():
            for u in adj:
                for v in adj:
                    d = dist[u][v]
                    want = _by_definition(name, adj, marks, v, d)
                    if d <= F.radius:
                        assert F.fn(adj, marks, v, d) == want
                    else:
                        assert want == 0.0


def _count_bfs(monkeypatch):
    calls = [0]
    real = groups.bfs

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(groups, "bfs", counted)
    return calls


def test_paired_difference_one_bfs_per_sample(monkeypatch):
    """Built-in transports read d(root, v) from the root's ball: one BFS
    per sample under every a_rule, and bit for bit the sum of the pairwise
    masses over the marks in the ball."""
    calls = _count_bfs(monkeypatch)
    rng = np.random.default_rng(12)
    for rule in ("origin", "ball", "trace"):
        sampler = mtp.pullback_sampler(T4, MU11, 8, rule)
        for _ in range(25):
            s = sampler(rng)
            dist = oracles.bfs_distances(s.adj, s.root)
            for F in mtp.BUILTIN_TRANSPORT.values():
                want = 0.0
                for v in s.marks:
                    d = dist.get(v, math.inf)
                    if d <= F.radius:
                        want += F.fn(s.adj, s.marks, v, d)
                        want -= F.fn(s.adj, s.marks, s.root, d)
                calls[0] = 0
                assert mtp.paired_difference(s, F) == want
                assert calls[0] == 1


def test_exact_check_is_the_all_pairs_sum_with_one_bfs_per_mark(monkeypatch):
    """exact_mtp_check equals, bit for bit, the double sum over all marked
    pairs of the definitions on all-pairs BFS distances (in the same
    order), and searches one ball per marked vertex."""
    calls = _count_bfs(monkeypatch)
    rng = np.random.default_rng(14)
    for _ in range(30):
        t = oracles.random_marked_tree(rng, 60)
        adj, marks = t.adjacency(), frozenset(t.marks)
        dist = _all_pairs(adj)
        inv = 1.0 / len(marks)
        for name, F in mtp.BUILTIN_TRANSPORT.items():
            lhs = rhs = 0.0
            for u in marks:
                for v in marks:
                    lhs += _by_definition(name, adj, marks, v, dist[u][v]) * inv
                    rhs += _by_definition(name, adj, marks, u, dist[v][u]) * inv
            calls[0] = 0
            assert mtp.exact_mtp_check(adj, t.marks, F) == (lhs, rhs, abs(lhs - rhs) < 1e-12)
            assert calls[0] == len(marks)


def test_uniform_root_sampler_passes():
    rng = np.random.default_rng(2)
    sampler = mtp.uniform_root_sampler(PATH3, {0, 1, 2})
    [rep] = mtp.mc_mtp_test(
        sampler, (mtp.BUILTIN_TRANSPORT["marked_neighbors"],), mtp.BUILTIN_WEIGHT["unit"],
        2000, 0.01, rng,
    )
    assert rep.passed
    assert rep.inconclusive == 0


def test_fixed_root_sampler_fails():
    """A deterministic root is not exchangeable over the marked set; the
    test must detect it."""
    rng = np.random.default_rng(3)
    sampler = mtp.fixed_root_sampler(PATH3, {0, 1, 2}, 0)
    [rep] = mtp.mc_mtp_test(
        sampler, (mtp.BUILTIN_TRANSPORT["leaf_target"],), mtp.BUILTIN_WEIGHT["unit"],
        1000, 0.01, rng,
    )
    assert not rep.passed


def test_level_of_the_test():
    """Under a true null the alpha = 0.05 rejection rate over 200
    independent runs stays near its nominal level."""
    rng = np.random.default_rng(4)
    tree = oracles.random_marked_tree(rng, 12, mark_rate=1.0)
    sampler = mtp.uniform_root_sampler(tree.adjacency(), set(range(tree.n_vertices)))
    F = mtp.BUILTIN_TRANSPORT["marked_neighbors"]
    rejects = 0
    for _ in range(200):
        [rep] = mtp.mc_mtp_test(sampler, (F,), mtp.BUILTIN_WEIGHT["unit"], 1000, 0.05, rng)
        rejects += not rep.passed
    assert 0.01 <= rejects / 200 <= 0.12


def test_pullback_origin_rule():
    rng = np.random.default_rng(5)
    sampler = mtp.pullback_sampler(T4, MU11, 12, "origin")
    [rep] = mtp.mc_mtp_test(
        sampler, (mtp.BUILTIN_TRANSPORT["target_degree"],), mtp.BUILTIN_WEIGHT["unit"],
        3000, 0.01, rng,
    )
    assert rep.passed
    assert rep.n == 3000


def test_pullback_ball_rule():
    rng = np.random.default_rng(6)
    sampler = mtp.pullback_sampler(T4, MU11, 12, "ball", ball_radius=1)
    names = ("marked_neighbors", "leaf_target")
    reports = mtp.mc_mtp_test(
        sampler, tuple(mtp.BUILTIN_TRANSPORT[f] for f in names), mtp.BUILTIN_WEIGHT["unit"],
        3000, 0.01, rng,
    )
    for fname, rep in zip(names, reports, strict=True):
        assert rep.passed, fname


def test_pullback_trace_rule_with_weight():
    rng = np.random.default_rng(7)
    sampler = mtp.pullback_sampler(T4, MU11, 12, "trace", depth2=20)
    [rep] = mtp.mc_mtp_test(
        sampler, (mtp.BUILTIN_TRANSPORT["marked_neighbors"],), mtp.BUILTIN_WEIGHT["ingredient"],
        3000, 0.01, rng,
    )
    assert rep.passed
    assert rep.mean_weight < 1.0  # returns beyond the root shrink the weight


def test_pushforward_trace_weight():
    """The walk image on the base graph, reweighted by inverse root
    visits, satisfies the transport identity."""
    rng = np.random.default_rng(8)
    sampler = mtp.pushforward_trace_sampler(T4, MU11, 12, ball_radius=6)
    [rep] = mtp.mc_mtp_test(
        sampler, (mtp.BUILTIN_TRANSPORT["marked_neighbors"],), mtp.BUILTIN_WEIGHT["ingredient"],
        3000, 0.01, rng,
    )
    assert rep.passed


@pytest.mark.parametrize("g", [T4, GroupSpec("integer_lattice", 2)], ids=["T4", "Z2"])
@pytest.mark.parametrize("fname", ["target_degree", "marked_neighbors", "leaf_target"])
def test_pushforward_ball_past_twice_the_radius_changes_no_result(g, fname):
    """A push-forward ball of radius 2r certifies a radius-r transport,
    and a larger ball changes no byte of its rows or counts: the
    transport reads nothing outside the radius-2r ball, and the draws do
    not depend on the ball."""
    F = mtp.BUILTIN_TRANSPORT[fname]
    W = mtp.BUILTIN_WEIGHT["ingredient"]
    results = []
    for ball_radius in (2 * F.radius, 2 * F.radius + 1, 2 * F.radius + 3):
        sampler = mtp.pushforward_trace_sampler(g, MU11, 8, ball_radius)
        [(rows, skipped, cut)] = mtp.evaluate_samples(
            sampler, (F,), W, (substream(4, i) for i in range(300)))
        results.append((rows.tobytes(), skipped, cut))
    assert len(results[0][0]) == 16 * (300 - results[0][1]) > 0
    assert results[0] == results[1] == results[2]


def test_truncation_error_when_depth_too_small():
    rng = np.random.default_rng(9)
    sampler = mtp.pullback_sampler(T4, MU11, 2, "origin")
    with pytest.raises(mtp.TruncationError):
        mtp.mc_mtp_test(
            sampler, (mtp.BUILTIN_TRANSPORT["target_degree"],), mtp.BUILTIN_WEIGHT["unit"],
            100, 0.01, rng,
        )


def test_budget_cut_samples_certify_no_radius():
    """A pull-back tree cut at the vertex budget certifies no radius, so
    its sample evaluates to None although depth 12 certifies radius 6;
    the trees that fit the budget of 2 are evaluated."""
    sampler = mtp.pullback_sampler(T4, MU11, 12, budget=2)
    F = mtp.BUILTIN_TRANSPORT["target_degree"]
    cut = 0
    for idx in range(200):
        sample = sampler(substream(1, idx))
        got = mtp.evaluate_sample(sample, F, mtp.BUILTIN_WEIGHT["unit"])
        if sample.certified_radius == -1:
            cut += 1
            assert got is None
        else:
            assert sample.certified_radius == 6 and got is not None
    assert 0 < cut < 200


def test_report_json_shape():
    rng = np.random.default_rng(10)
    sampler = mtp.uniform_root_sampler(PATH3, {0, 1, 2})
    [rep] = mtp.mc_mtp_test(
        sampler, (mtp.BUILTIN_TRANSPORT["adjacent"],), mtp.BUILTIN_WEIGHT["unit"], 100, 0.05, rng
    )
    d = rep.to_json_dict()
    assert set(d) == {"estimate", "ci_low", "ci_high", "n", "inconclusive", "alpha", "pass"}


def test_argument_validation():
    rng = np.random.default_rng(11)
    sampler = mtp.uniform_root_sampler(PATH3, {0, 1, 2})
    transports = (mtp.BUILTIN_TRANSPORT["adjacent"],)
    with pytest.raises(ValueError):
        mtp.mc_mtp_test(sampler, transports, mtp.BUILTIN_WEIGHT["unit"], 1, 0.05, rng)
    with pytest.raises(ValueError):
        mtp.mc_mtp_test(sampler, transports, mtp.BUILTIN_WEIGHT["unit"], 100, 1.5, rng)
    with pytest.raises(ValueError, match="positive"):
        mtp.mc_mtp_test(sampler, transports, lambda s: 0.0, 100, 0.05, rng)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1])
def test_invalid_alpha_refused_before_any_sample(alpha):
    """mc_mtp_test refuses alpha outside (0, 1) before it draws a sample."""
    inner = mtp.uniform_root_sampler(PATH3, {0, 1, 2})
    calls = []

    def sampler(rng):
        calls.append(rng)
        return inner(rng)

    with pytest.raises(ValueError, match="alpha"):
        mtp.mc_mtp_test(sampler, (mtp.BUILTIN_TRANSPORT["adjacent"],),
                        mtp.BUILTIN_WEIGHT["unit"], 100, alpha, np.random.default_rng(11))
    assert calls == []


def test_empty_transports_refused_before_any_sample():
    """mc_mtp_test refuses an empty tuple of transports before it draws."""
    calls = []

    def sampler(rng):
        calls.append(rng)
        return mtp.MtpSample(PATH3, frozenset(PATH3), 0)

    with pytest.raises(ValueError, match="at least one transport"):
        mtp.mc_mtp_test(sampler, (), mtp.BUILTIN_WEIGHT["unit"], 100, 0.05,
                        np.random.default_rng(11))
    assert calls == []


# criteria 7 and 8's samplers, weights and transports
SHARED_DRAW_RULES = {
    "origin": ({}, "unit"),
    "ball": ({"ball_radius": 1}, "unit"),
    "trace": ({"depth2": 24}, "ingredient"),
}
CRITERIA_TRANSPORTS = tuple(
    mtp.BUILTIN_TRANSPORT[f] for f in ("marked_neighbors", "target_degree", "leaf_target"))


@pytest.mark.parametrize("rule", SHARED_DRAW_RULES)
def test_shared_draw_reports_equal_single_transport_reports(rule):
    """One call reads every transport off each draw; its reports equal,
    field for field, one call per transport at the same seed, as
    evaluate_sample draws nothing."""
    kwargs, weight = SHARED_DRAW_RULES[rule]
    sampler = mtp.pullback_sampler(T4, MU11, 12, rule, **kwargs)
    W = mtp.BUILTIN_WEIGHT[weight]
    shared = mtp.mc_mtp_test(sampler, CRITERIA_TRANSPORTS, W, 2000, 0.01,
                             np.random.default_rng(55))
    assert shared == [mtp.mc_mtp_test(sampler, (F,), W, 2000, 0.01,
                                      np.random.default_rng(55))[0]
                      for F in CRITERIA_TRANSPORTS]


def test_shared_draw_keeps_skip_counts_per_transport():
    """Depth 4 certifies radius 2, so target_degree (radius 3) skips every
    sample and marked_neighbors (radius 2) only those the budget cut; each
    transport's rows and counts equal those of a run of it alone."""
    sampler = mtp.pullback_sampler(T4, MU11, 4, "trace", budget=6)
    W = mtp.BUILTIN_WEIGHT["ingredient"]
    transports = (mtp.BUILTIN_TRANSPORT["marked_neighbors"], mtp.BUILTIN_TRANSPORT["target_degree"])

    def run(fs):
        return mtp.evaluate_samples(sampler, fs, W, (substream(3, i) for i in range(300)))

    (near, near_skipped, near_cut), (far, far_skipped, far_cut) = run(transports)
    assert 0 < near_skipped == near_cut == far_cut < far_skipped == 300
    assert len(near) == 300 - near_skipped and len(far) == 0
    for F, (rows, skipped, cut) in zip(transports, run(transports)):
        [(alone, alone_skipped, alone_cut)] = run((F,))
        assert np.array_equal(rows, alone) and (skipped, cut) == (alone_skipped, alone_cut)


def test_traced_pullback_trace_run(tmp_path, monkeypatch):
    """The benchmark's tracer around a small pull-back trace run: self
    times sum to the root span, every groups.neighbors call is a walk step
    and the traced samplers count their vertices."""
    from brwlab import cli, gw, intersections, magic

    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module in (cli, groups, gw, gw.MarkedTree, intersections, magic,
                   magic.OrientedTree, mtp):
        for attr, value in list(vars(module).items()):
            if callable(value) or isinstance(value, classmethod):
                monkeypatch.setattr(module, attr, value)  # restored after the test
    tracer = tracing.Tracer()
    main = tracing.install(tracer)
    cfg = {"experiment": "mtp-test", "seed": 5, "sampler": "pullback", "a_rule": "trace",
           "group": {"kind": "regular_tree", "param": 4}, "offspring": [0.45, 0, 0.55],
           "depth": 6, "f": "target_degree", "w": "ingredient", "alpha": 0.01,
           "n_samples": 1000}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    dump = tracer.dump()
    assert math.isclose(sum(tracing.self_times(dump["spans"])),
                        tracing.root_time(dump["spans"]), rel_tol=1e-9)
    metrics = tracing.layer_metrics([dump], 1)
    assert metrics["walks.steps"][0] == dump["counters"]["groups.neighbors"][0] > 0
    assert metrics["gw.vertices"][0] > 0
