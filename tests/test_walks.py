"""Tests for tree-indexed walks and traces."""

import math
import pickle
import re
from collections import Counter

import numpy as np
import pytest

from brwlab import groups
from brwlab.groups import GroupSpec
from brwlab.gw import (
    MarkedTree,
    OffspringDistribution,
    percolate_root_component,
    sample_gw,
    sample_marked_fuzz_tree,
    sample_unimodular_gw,
)
from brwlab.walks import TreeWalk, run_walk, trace

import oracles

T3 = GroupSpec("regular_tree", 3)
T4 = GroupSpec("regular_tree", 4)
Z1 = GroupSpec("integer_lattice", 1)
Z2 = GroupSpec("integer_lattice", 2)
F2 = GroupSpec("free_group", 2)


def path_tree(n):
    return MarkedTree([-1, *range(n - 1)])


def star_tree(m):
    return MarkedTree([-1, *[0] * m])


def test_single_vertex_walk():
    rng = np.random.default_rng(0)
    w = run_walk(MarkedTree(), T4, (), rng)
    assert w.values == [()]


def test_single_edge_uniform_neighbor():
    rng = np.random.default_rng(1)
    t = path_tree(2)
    hits = Counter(run_walk(t, Z1, (0,), rng).values[1] for _ in range(10_000))
    for y in ((1,), (-1,)):
        sd = math.sqrt(0.25 / 10_000)
        assert abs(hits[y] / 10_000 - 0.5) < 4 * sd


def test_two_children_collision_probability():
    rng = np.random.default_rng(2)
    t = star_tree(2)
    n = 10_000
    coll = 0
    for _ in range(n):
        w = run_walk(t, T4, (), rng)
        coll += w.values[1] == w.values[2]
    sd = math.sqrt(0.25 * 0.75 / n)
    assert abs(coll / n - 0.25) < 4 * sd


def _count_validations(monkeypatch, g, counter):
    real = g.family.validate

    def counted(x):
        counter[0] += 1
        return real(x)

    monkeypatch.setattr(g.family, "validate", counted)


def test_run_walk_one_neighbors_call_per_step(monkeypatch):
    """Exactly one groups.neighbors call per non-root vertex, looked up at
    call time, and one validation per walk, of its start; and the values,
    their order and the generator state of the per-vertex loop, on trees
    from every sampler and from percolation."""
    calls, validations = [0], [0]
    real = groups.neighbors

    def counted(g, x):
        calls[0] += 1
        return real(g, x)

    monkeypatch.setattr(groups, "neighbors", counted)
    for g in (T4, F2, Z2):
        _count_validations(monkeypatch, g, validations)
    mu = OffspringDistribution([0.3, 0.2, 0.5])
    for g, start in [(T4, ()), (T4, (2, 1)), (F2, (1, -2)), (Z2, (3, -1))]:
        for seed in range(15):
            rng = np.random.default_rng(seed)
            tree = sample_gw(mu, 300, rng, max_depth=8)
            tree.ensure_edge_labels(rng)
            trees = [
                MarkedTree(),
                tree,
                sample_unimodular_gw(mu, 300, rng, variant="augmented", max_depth=8),
                sample_unimodular_gw(mu, 300, rng, max_depth=8),
                percolate_root_component(tree, 0.7),
                sample_marked_fuzz_tree(rng, 60),
            ]
            for t in trees:
                ref_rng = np.random.default_rng()
                ref_rng.bit_generator.state = rng.bit_generator.state
                calls[0] = validations[0] = 0
                walk = run_walk(t, g, start, rng)
                assert calls[0] == t.n_vertices - 1
                assert validations[0] == 1
                ref = oracles.run_walk_values_reference(t, g, start, ref_rng)
                assert walk.values == ref
                assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_experiments_make_one_neighbors_call_per_walk_step(monkeypatch):
    """Over whole pull-back samples of every target rule, push-forward
    samplers built and drawn, and thin sweeps on T4, F2 and Z^2,
    groups.neighbors is called once per walk step and nowhere else, a
    word is validated once per walk, and groups.mul and groups.inv are not
    called at all: the words the samplers build on are valid, so they go
    to the family methods.  The benchmark's traced runs count walks.steps
    against the groups.neighbors calls."""
    from brwlab import intersections, mtp

    calls, steps, walks, validations = [0], [0], [0], [0]
    real_neighbors = groups.neighbors

    def counted(g, x):
        calls[0] += 1
        return real_neighbors(g, x)

    def stepped(tree, g, start, rng):
        walk = run_walk(tree, g, start, rng)
        steps[0] += len(walk.values) - 1
        walks[0] += 1
        return walk

    def refused(*args):
        raise AssertionError(f"a library-built word checked again: {args!r}")

    monkeypatch.setattr(groups, "neighbors", counted)
    monkeypatch.setattr(groups, "mul", refused)
    monkeypatch.setattr(groups, "inv", refused)
    monkeypatch.setattr(mtp, "run_walk", stepped)
    monkeypatch.setattr(intersections, "run_walk", stepped)
    mu = OffspringDistribution([0.45, 0, 0.55])
    for g in (T4, F2, Z2):
        rng = np.random.default_rng(7)
        samplers = [mtp.pullback_sampler(g, mu, 8, "trace", depth2=12),
                    mtp.pullback_sampler(g, mu, 8, "ball", ball_radius=2),
                    mtp.pullback_sampler(g, mu, 8, "origin"),
                    mtp.pushforward_trace_sampler(g, mu, 8)]
        # counted from here: the ball rule's builder validates its start once
        _count_validations(monkeypatch, g, validations)
        for sampler in samplers:
            for _ in range(30):
                sampler(rng)
        for _ in range(30):
            intersections.thinned_intersection_sweep(mu, mu, g, [0.5, 1.0], 8, rng)
        assert steps[0] > 1000
        assert calls[0] == steps[0]
        assert validations[0] == walks[0] >= 150
        calls[0] = steps[0] = walks[0] = validations[0] = 0


INVALID_WORDS = [
    (T3, (0, 0), "(0, 0) is not reduced"),
    (T4, (True, 2), "(True, 2) has letters outside 0..3"),
    (F2, (1, -1), "(1, -1) is not reduced"),
]


def _assert_neighbors_validate(*specs):
    for g, (_, x, message) in zip(specs, INVALID_WORDS):
        with pytest.raises(groups.InvalidElementError, match=f"^{re.escape(message)}$"):
            groups.neighbors(g, x)


def test_walk_scope_ends_with_its_walk():
    """groups.neighbors skips validation only inside run_walk's step loop:
    after a walk, after a walk that raised mid-loop (a parent list that
    points forward) and on a family rebuilt by pickle, each memo miss
    validates again, with the same message."""
    rng = np.random.default_rng(4)
    specs = [g for g, _, _ in INVALID_WORDS]
    for g in specs:
        run_walk(star_tree(3), g, g.identity(), rng)
    _assert_neighbors_validate(*specs)
    for g in specs:
        with pytest.raises(IndexError):
            run_walk(MarkedTree([-1, 2, 0]), g, g.identity(), rng)
    _assert_neighbors_validate(*specs)
    _assert_neighbors_validate(*(pickle.loads(pickle.dumps(g)) for g in specs))


def test_invalid_start_refused_before_any_draw():
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    for g, x, message in INVALID_WORDS:
        with pytest.raises(groups.InvalidElementError, match=f"^{re.escape(message)}$"):
            run_walk(path_tree(4), g, x, rng)
        assert rng.bit_generator.state == state


def test_walk_steps_are_edges():
    rng = np.random.default_rng(3)
    t = sample_gw(OffspringDistribution([0.2, 0.3, 0.5]), 400, rng, max_depth=8)
    w = run_walk(t, T3, (), rng)
    for c, p in enumerate(t.parent[1:], 1):
        assert groups.distance(T3, w.values[p], w.values[c]) == 1


def test_trace_single_edge():
    w = TreeWalk(path_tree(2), [(0,), (1,)])
    assert trace(w) == {(0,): [(1,)], (1,): [(0,)]}


def test_trace_merged_edge_multiplicity():
    # both children step to the same neighbour: one edge crossed twice,
    # listed once
    w = TreeWalk(star_tree(2), [(), (0,), (0,)])
    assert trace(w) == {(): [(0,)], (0,): [()]}


def test_trace_backtracking_path():
    # out and back along one edge: crossed in both directions, listed once
    w = TreeWalk(path_tree(3), [(), (2,), ()])
    assert trace(w) == {(): [(2,)], (2,): [()]}


def test_trace_accounting_invariants():
    """The trace's vertices are the walk's values; every listed edge joins
    group neighbours; the lists are symmetric with no repeats; and the
    trace is connected."""
    rng = np.random.default_rng(4)
    mu = OffspringDistribution([0.25, 0.25, 0.5])
    for _ in range(40):
        t = sample_gw(mu, 3000, rng, max_depth=9)
        w = run_walk(t, T4, (), rng)
        adj = trace(w)
        assert set(adj) == set(w.values)
        for a, nbrs in adj.items():
            assert len(set(nbrs)) == len(nbrs)
            for b in nbrs:
                assert groups.distance(T4, a, b) == 1
                assert a in adj[b]
        seen = {()}
        stack = [()]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        assert seen == set(adj)


def test_time_reversal_endpoint_law():
    """P(X(v) = y | X(u) = x) equals the |u,v|-step kernel, and matches the
    reversed-run estimate on a regular graph."""
    rng = np.random.default_rng(5)
    t = path_tree(4)  # endpoints u = 0, v = 3 at distance 3
    x = ()
    y = (0, 1, 2)
    n = 20_000
    p_exact = oracles.TransitionTable(T3, 3).p(3, x, y)
    fwd = sum(run_walk(t, T3, x, rng).values[3] == y for _ in range(n)) / n
    rev = sum(run_walk(t, T3, y, rng).values[3] == x for _ in range(n)) / n
    sd = math.sqrt(p_exact * (1 - p_exact) / n)
    assert abs(fwd - p_exact) < 4 * sd
    assert abs(rev - p_exact) < 4 * sd
    assert abs(fwd - rev) < 4 * math.sqrt(2) * sd


def test_conditional_path_uniformity():
    """Given both endpoint values, the interior of the geodesic is uniform
    over the equal-probability connecting paths."""
    rng = np.random.default_rng(6)
    t = path_tree(4)
    x = ()
    y = (0,)  # distance 1, three-step connections
    # enumerate all 3-step neighbour paths x -> y on the 3-regular tree
    valid = []
    for a in groups.neighbors(T3, x):
        for b in groups.neighbors(T3, a):
            if y in groups.neighbors(T3, b):
                valid.append((a, b))
    counts = Counter()
    hits = 0
    n = 60_000
    for _ in range(n):
        w = run_walk(t, T3, x, rng)
        if w.values[3] == y:
            hits += 1
            counts[(w.values[1], w.values[2])] += 1
    assert set(counts) <= set(valid)
    target = 1.0 / len(valid)
    for pair in valid:
        freq = counts[pair] / hits
        sd = math.sqrt(target * (1 - target) / hits)
        assert abs(freq - target) < 4 * sd


def test_origin_visits_match_visit_series():
    """Unconditional mean visits to the start up to depth n equal the
    partial sums of the expected-visits series (exact identity, tested at
    4 sigma)."""
    rng = np.random.default_rng(8)
    mu = OffspringDistribution([0.3, 0.3, 0.4])  # mean 1.1
    depth, reps = 8, 4000
    counts = np.zeros((reps, depth + 1), dtype=np.int64)
    for i in range(reps):
        tree = sample_gw(mu, budget=10_000_000, rng=rng, max_depth=depth)
        walk = run_walk(tree, T4, (), rng)
        for v, x in enumerate(walk.values):
            if x == ():
                counts[i, tree.depth[v]] += 1
    counts = np.cumsum(counts, axis=1)
    series = groups.visits_series(T4, mu.mean, depth).partial_sums
    for n in range(depth + 1):
        mean = counts[:, n].mean()
        se = counts[:, n].std(ddof=1) / math.sqrt(reps)
        assert abs(mean - series[n]) < max(4 * se, 1e-12)


def test_trace_serialization():
    """The trace lists each distinct crossed edge once at both of its
    ends, in the order the walk first crosses it: the tree's edges in id
    order, with repeats and reversals dropped."""
    rng = np.random.default_rng(11)
    repeats = 0
    for _ in range(20):
        t = sample_gw(OffspringDistribution([0.2, 0.3, 0.5]), 200, rng, max_depth=6)
        w = run_walk(t, T3, (), rng)
        want = {z: [] for z in w.values}
        crossed = set()
        for v in range(1, t.n_vertices):
            a, b = w.values[t.parent[v]], w.values[v]
            if frozenset((a, b)) not in crossed:
                crossed.add(frozenset((a, b)))
                want[a].append(b)
                want[b].append(a)
        assert trace(w) == want
        repeats += t.n_vertices - 1 - len(crossed)
    assert repeats > 0  # some edge is crossed more than once
