"""Tests for the base graphs and their exact transition kernels."""

import math

import numpy as np
import pytest

from brwlab import groups
from brwlab.groups import GroupSpec, InvalidElementError, TransitionTable

from brwlab.gw import MarkedTree, OffspringDistribution, sample_gw, sample_marked_fuzz_tree
from brwlab.walks import run_walk, trace

from oracles import bfs_distances, enumerate_walk_endpoint_law

T3 = GroupSpec("regular_tree", 3)
T4 = GroupSpec("regular_tree", 4)
F2 = GroupSpec("free_group", 2)
Z1 = GroupSpec("integer_lattice", 1)
Z2 = GroupSpec("integer_lattice", 2)


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec("regular_tree", 2)
    with pytest.raises(ValueError):
        GroupSpec("free_group", 1)
    with pytest.raises(ValueError):
        GroupSpec("integer_lattice", 4)
    with pytest.raises(ValueError):
        GroupSpec("dihedral", 5)
    assert T4.degree == 4
    assert F2.degree == 4
    assert Z2.degree == 4
    assert T4.is_nonamenable and not Z1.is_nonamenable


def test_degree_cap():
    """neighbors() builds every neighbour word at each walk step, so the
    degree is capped when the spec is made."""
    assert GroupSpec("regular_tree", groups.MAX_DEGREE).degree == 64
    assert GroupSpec("free_group", groups.MAX_DEGREE // 2).degree == 64
    for kind, param in [("regular_tree", 65), ("free_group", 33), ("free_group", 10**8)]:
        with pytest.raises(ValueError, match="exceeds"):
            GroupSpec(kind, param)


def test_neighbors_degree_and_examples():
    assert len(groups.neighbors(T4, ())) == 4
    assert set(groups.neighbors(Z1, (0,))) == {(1,), (-1,)}
    # rank-2 free group at the word "a": products with a, a^-1, b, b^-1
    nbrs = groups.neighbors(F2, (1,))
    assert len(nbrs) == 4
    assert set(nbrs) == {(1, 1), (), (1, 2), (1, -2)}


def test_neighbors_are_at_distance_one():
    for g, x in [(T3, (0, 1)), (F2, (1, -2)), (Z2, (3, -1))]:
        for y in groups.neighbors(g, x):
            assert groups.distance(g, x, y) == 1


def test_invalid_elements_rejected():
    with pytest.raises(InvalidElementError):
        groups.neighbors(T3, (0, 0))  # not reduced (involutive letters)
    with pytest.raises(InvalidElementError):
        groups.neighbors(F2, (1, -1))  # cancellation not applied
    with pytest.raises(InvalidElementError):
        groups.neighbors(F2, (3,))  # letter outside the rank
    with pytest.raises(InvalidElementError):
        groups.neighbors(Z2, (1,))  # wrong dimension
    with pytest.raises(InvalidElementError):
        groups.return_probability(T3, 2, (5,), ())


def test_word_arithmetic():
    x = (1, 2, -1)
    assert groups.mul(F2, x, groups.inv(F2, x)) == ()
    assert groups.mul(T3, (0, 1), (1, 0)) == ()
    assert groups.distance(T3, (0, 1, 2), (0, 2)) == 3
    assert groups.distance(Z2, (0, 0), (2, -3)) == 5


def test_return_probability_examples():
    e = ()
    assert groups.return_probability(T4, 2, e, e) == pytest.approx(0.25, abs=1e-15)
    assert groups.return_probability(T4, 1, e, e) == 0.0
    assert groups.return_probability(Z1, 4, (0,), (0,)) == pytest.approx(6 / 16, abs=1e-14)
    assert groups.return_probability(T4, 0, e, e) == 1.0
    assert groups.return_probability(T4, 0, e, (0,)) == 0.0


@pytest.mark.parametrize("g,n_max", [(T3, 5), (T4, 4), (F2, 4), (Z1, 6), (Z2, 4)])
def test_kernel_against_path_enumeration(g, n_max):
    """Full fanout enumeration is the independent oracle for small n."""
    x = g.identity()
    law = {x: 1.0}
    for n in range(1, n_max + 1):
        law = enumerate_walk_endpoint_law(g, x, n)
        for y, expected in law.items():
            assert groups.return_probability(g, n, x, y) == pytest.approx(expected, abs=1e-12)


def test_row_stochasticity_radial():
    table = TransitionTable(T4, 20)
    for n in range(21):
        assert table.distance_law(n).sum() == pytest.approx(1.0, abs=1e-12)


def test_row_stochasticity_element_level():
    for n in range(5):
        total = sum(
            groups.return_probability(T3, n, (), z)
            for z in groups.elements_within(T3, (), n)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


def test_symmetry_and_radial_consistency():
    rng = np.random.default_rng(2)
    for _ in range(20):
        # random pair at distance <= 6
        x = ()
        for _ in range(int(rng.integers(0, 4))):
            x = groups.neighbors(T4, x)[int(rng.integers(0, 4))]
        y = x
        for _ in range(int(rng.integers(0, 4))):
            y = groups.neighbors(T4, y)[int(rng.integers(0, 4))]
        for n in (2, 5, 8):
            assert groups.return_probability(T4, n, x, y) == pytest.approx(
                groups.return_probability(T4, n, y, x), abs=1e-15
            )
    # p_n(x, y) depends only on the distance
    pairs_at_2 = [((), (0, 1)), ((1,), (1, 0, 1)[:3]), ((0,), (0, 1, 0)[:3])]
    vals = {groups.return_probability(T4, 6, a, b) for a, b in pairs_at_2}
    assert len(vals) == 1


def test_submultiplicativity():
    series = groups.return_series(T4, 800)
    for n in range(1, 201, 7):
        for m in range(1, 201, 11):
            assert series[2 * (n + m)] >= series[2 * n] * series[2 * m] * (1 - 1e-12)


def test_scaled_series_matches_plain_law():
    law = groups._tree_distance_law(5, 600)
    scaled, rho = groups.scaled_p_series(GroupSpec("regular_tree", 5), (), (), 600)
    rec = scaled * rho ** np.arange(601)
    mask = law[:, 0] > 0
    assert np.max(np.abs(rec[mask] / law[mask, 0] - 1)) < 1e-10


def test_monte_carlo_agreement():
    """Empirical endpoint frequencies from simulated walks match the kernel
    within four binomial standard deviations."""
    rng = np.random.default_rng(7)
    g = T3
    n, runs = 4, 100_000
    e = ()
    hits_e = 0
    target = (0, 1)
    hits_t = 0
    for _ in range(runs):
        end = groups.simulate_srw(g, e, n, rng)[-1]
        hits_e += end == e
        hits_t += end == target
    for hits, y in ((hits_e, e), (hits_t, target)):
        p = groups.return_probability(g, n, e, y)
        sd = math.sqrt(p * (1 - p) / runs)
        assert abs(hits / runs - p) < 4 * sd


@pytest.mark.parametrize("d", [3, 4, 6])
def test_spectral_radius_closed_form_verified_by_dp(d):
    """The closed form 2 sqrt(d-1)/d is trusted only because the DP
    estimate climbs to within 0.01 of it from below."""
    g = GroupSpec("regular_tree", d)
    est = groups.spectral_radius(g, 2000)
    assert est.estimate <= est.closed_form + 1e-12
    assert abs(est.estimate - est.closed_form) < 0.01
    coarse = groups.spectral_radius(g, 50)
    assert coarse.estimate < est.estimate  # approach from below


def test_spectral_estimate_monotone():
    traj = groups.spectral_radius_trajectory(T4, 400)
    assert np.all(np.diff(traj) >= -1e-12)


def test_spectral_radius_lattice():
    est = groups.spectral_radius(Z1, 2000)
    assert est.closed_form == 1.0
    assert 0.99 < est.estimate < 1.0


def test_free_group_matches_regular_tree_kernel():
    """The rank-2 free group walks on the 4-regular tree."""
    s_free = groups.return_series(F2, 40)
    s_tree = groups.return_series(T4, 40)
    assert np.allclose(s_free, s_tree, atol=1e-15)


def test_visits_series_examples():
    vs = groups.visits_series(T4, 0.0, 10)
    assert np.allclose(vs.partial_sums, 1.0)
    vs = groups.visits_series(T4, 1.0, 2)
    assert vs.partial_sums[2] == pytest.approx(1.25, abs=1e-14)
    assert not vs.diverged


def test_visits_series_monotone_and_critical_tail():
    crit = 1.0 / T4.spectral_radius_closed_form()
    vs = groups.visits_series(T4, crit, 4000)
    sums = vs.partial_sums
    assert np.all(np.diff(sums) >= 0)
    inc = vs.increments
    # critical increments decay like n^(-3/2): strictly below 1e-4 by 1500
    assert inc[1500] < 1e-4
    assert inc[3000] < inc[1000]


def test_visits_series_divergence_guard():
    vs = groups.visits_series(T4, 2.0, 4000, guard=1e9)
    assert vs.diverged
    assert vs.guard_index is not None
    # partial sums frozen at the cut
    assert vs.partial_sums[-1] == vs.partial_sums[vs.guard_index]


def test_transition_table_matches_pointwise():
    table = TransitionTable(T3, 12)
    for n in (0, 3, 7, 12):
        for y in [(), (0,), (0, 1), (0, 1, 2)]:
            assert table.p(n, (), y) == pytest.approx(
                groups.return_probability(T3, n, (), y), abs=1e-14
            )
    with pytest.raises(ValueError):
        table.p(13, (), ())
    lat = TransitionTable(Z2, 8)
    assert lat.p(2, (0, 0), (1, 1)) == pytest.approx(2 / 16, abs=1e-14)


def test_series_for_unreachable_targets_is_zero():
    far = (0, 1, 0, 1, 0, 1)
    s = groups.p_series(T4, (), far, 3)
    assert np.all(s == 0.0)
    assert groups.return_probability(T4, 5, (), far) == 0.0


def test_elem_text_round_trip():
    for g, x in [(T3, (0, 1, 2)), (T3, ()), (F2, (1, -2, 1)), (Z2, (-3, 4))]:
        s = groups.elem_to_str(g, x)
        assert groups.elem_from_str(g, s) == x


def test_ball_and_lattice_box_caps():
    """Balls and lattice kernel boxes over their caps are refused from the
    closed-form size, before anything is built."""
    groups.check_ball(T3, 18)  # 1 + 3 (2^18 - 1) = 786430 vertices
    with pytest.raises(ValueError):
        groups.check_ball(T3, 19)
    with pytest.raises(ValueError):
        groups.elements_within(T4, (), 10**9)
    z3 = GroupSpec("integer_lattice", 3)
    groups.check_lattice_box(z3, 127)  # 255^3 cells
    with pytest.raises(ValueError):
        groups.p_series(z3, (0, 0, 0), (0, 0, 0), 128)
    assert len(groups.elements_within(Z2, (0, 0), 3)) == 25


# ---------------------------------------------------------------------------
# the graph helpers: one BFS, one adjacency builder


def _sample_graphs():
    """Adjacency dicts of random marked trees and of walk traces, with a
    start vertex in each."""
    rng = np.random.default_rng(31)
    out = []
    for _ in range(30):
        t = sample_marked_fuzz_tree(rng, 60)
        out.append((t.adjacency(), t.root))
    mu = OffspringDistribution([0.2, 0.3, 0.5])
    for g in (T4, Z2):
        for _ in range(10):
            tr = trace(run_walk(sample_gw(mu, 400, rng, max_depth=6), g, g.identity(), rng))
            out.append((tr.adjacency(), tr.start))
    return out


def test_bfs_matches_oracle_distances():
    for adj, root in _sample_graphs():
        want = bfs_distances(adj, root)
        found = groups.bfs(adj.__getitem__, root)
        assert {v: d for v, (d, _) in found.items()} == want
        assert list(found)[0] == root and found[root] == (0, None)
        dists = [d for d, _ in found.values()]
        assert dists == sorted(dists)  # BFS order
        for v, (d, p) in found.items():
            if v != root:
                assert found[p][0] == d - 1 and v in adj[p]
        for radius in (0, 1, 2, 5):
            cut = groups.bfs(adj.__getitem__, root, radius)
            assert cut == {v: found[v] for v in found if found[v][0] <= radius}
            assert list(cut) == [v for v in found if found[v][0] <= radius]


def test_bfs_parents_on_a_rooted_tree():
    rng = np.random.default_rng(32)
    for _ in range(20):
        t = sample_marked_fuzz_tree(rng, 80)
        found = groups.bfs(t.adjacency().__getitem__, t.root)
        assert {v: p for v, (_, p) in found.items()} == t.parent
        assert {v: d for v, (d, _) in found.items()} == t.depth


def test_elements_within_order():
    assert groups.elements_within(T3, (), 0) == [()]
    assert groups.elements_within(T3, (), 2) == [
        (), (0,), (1,), (2,), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)
    ]
    assert groups.elements_within(Z1, (3,), 2) == [(3,), (4,), (2,), (5,), (1,)]
    ball = groups.elements_within(F2, (1,), 3)
    assert len(ball) == 1 + 4 + 12 + 36
    dists = [groups.distance(F2, (1,), x) for x in ball]
    assert dists == sorted(dists) and len(set(ball)) == len(ball)


def test_adjacency_builder():
    adj = groups.adjacency([0, 1, 2, 3], [(0, 1), (1, 2), (3, 1)])
    assert adj == {0: [1], 1: [0, 2, 3], 2: [1], 3: [1]}
    assert groups.adjacency(["a"], []) == {"a": []}
    t = MarkedTree(root=0)
    for c, p in [(1, 0), (2, 0), (3, 1)]:
        t.add_child(p, c)
    assert t.adjacency() == {0: [1, 2], 1: [0, 3], 2: [0], 3: [1]}
    for adj, _ in _sample_graphs():
        for v, ns in adj.items():
            assert len(set(ns)) == len(ns)
            assert all(v in adj[w] for w in ns)


def test_as_adjacency():
    adj = {0: [1], 1: [0]}
    assert groups.as_adjacency(adj) is adj
    t = MarkedTree(root=0)
    t.add_child(0, 1)
    assert groups.as_adjacency(t) == adj
    with pytest.raises(TypeError):
        groups.as_adjacency([(0, 1)])
