"""Tests for intersection expectations, sampling, thinning, and the ends
experiment."""

import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from brwlab import intersections as isec
from brwlab.groups import GroupSpec
from brwlab.gw import DEFAULT_BUDGET, OffspringDistribution, sample_gw
from brwlab.rng import substream
from brwlab.walks import run_walk, trace

from oracles import (
    TransitionTable,
    ends_profile,
    thinned_intersection_sweep_reference,
    tree_pairs_exact,
)

T4 = GroupSpec("regular_tree", 4)
F2 = GroupSpec("free_group", 2)
Z2 = GroupSpec("integer_lattice", 2)
Z3 = GroupSpec("integer_lattice", 3)
E = T4.identity()
MU11 = OffspringDistribution([0.45, 0.0, 0.55])


def test_expected_pairs_trivial_cases():
    assert isec.expected_pairs_truncated(1, 1, T4, E, E, 0) == pytest.approx(1.0)
    assert isec.expected_pairs_truncated(1, 1, Z2, (0, 0), (1, 0), 0) == 0.0
    assert isec.expected_pairs_truncated(1, 1, T4, E, E, 1) == pytest.approx(1.25)


def test_expected_pairs_against_double_sum_oracle():
    """Independent oracle: the raw double sum over the transition table,
    at distance 0 on T4 and at distance 2 on Z^2."""
    for g, m1, m2, y in [(T4, 1.1, 1.1, E), (T4, 1.1, 1.0, E), (Z2, 0.9, 1.2, (1, -1))]:
        table = TransitionTable(g, 12)
        x = g.identity()
        direct = sum(
            m1**n * m2**m * table.p(n + m, x, y)
            for n in range(7)
            for m in range(7)
        )
        assert isec.expected_pairs_truncated(m1, m2, g, x, y, 6) == pytest.approx(
            direct, rel=1e-12
        )


def test_expected_pairs_profile_monotone():
    prof = isec.expected_pairs_profile(1.1, 1.0, T4, E, E, 300)
    assert np.all(np.diff(prof) >= -1e-15)


def test_expected_pairs_zero_mean():
    # mean 0 walks are just the roots
    assert isec.expected_pairs_truncated(0.0, 0.0, T4, E, E, 5) == pytest.approx(1.0)


def test_subcritical_profile_is_cauchy():
    """With both means strictly below the recurrence threshold the
    increments fall under 1e-8 well before N = 2000."""
    prof = isec.expected_pairs_profile(1.1, 1.0, T4, E, E, 2000)
    inc = np.diff(prof)
    last_big = int(np.max(np.nonzero(inc >= 1e-8)))
    assert last_big < 500
    assert np.all(inc[500:] < 1e-8)


def test_supercritical_profile_diverges():
    crit = 1.0 / T4.spectral_radius_closed_form()
    prof = isec.expected_pairs_profile(1.05 * crit, 1.05 * crit, T4, E, E, 2000)
    assert prof[-1] > 1e6
    assert int(np.argmax(prof > 1e6)) < 2000


@pytest.mark.parametrize("d, mean", [(4, 3), (8, 64)])
def test_expected_pairs_profile_is_the_exact_sum(d, mean):
    """Past 1e30 the profile is still the double sum: within 1e-12 of the
    Fraction sum of the exact return counts, up to 5.8e50 on T4 and
    2.7e205 on T8 at N = 64."""
    g = GroupSpec("regular_tree", d)
    prof = isec.expected_pairs_profile(mean, mean, g, E, E, 64)
    for n in (0, 1, 12, 40, 64):
        exact = tree_pairs_exact(d, mean, mean, n)
        assert abs(Fraction(prof[n]) - exact) <= 1e-12 * exact, n
    assert prof[64] > 1e50


def test_supercritical_profile_overflows_only_past_the_double_range():
    """At 1.05 times the critical mean on T4 the profile grows without a
    freeze until its sum leaves the double range, then reads inf, with no
    warning."""
    crit = 1.0 / T4.spectral_radius_closed_form()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = isec.expected_pairs_profile(1.05 * crit, 1.05 * crit, T4, E, E, 7400)
    assert np.all(np.diff(prof[:7350]) > 0)
    assert prof[7349] > 1e306 and np.all(np.isinf(prof[7350:]))


def test_sample_intersections_degenerate():
    rng = np.random.default_rng(0)
    d0 = OffspringDistribution.delta(0)
    rec = isec.sample_intersections(d0, d0, T4, 3, rng)
    assert rec.pair_count == 1
    assert rec.intersection == {E}
    assert rec.pulled_back == {0}


def test_sample_intersections_matches_expectation():
    rng = np.random.default_rng(1)
    n = 4000
    counts = np.array(
        [
            isec.sample_intersections(MU11, MU11, T4, 3, rng).pair_count
            for _ in range(n)
        ],
        dtype=float,
    )
    exact = isec.expected_pairs_truncated(1.1, 1.1, T4, E, E, 3)
    se = counts.std(ddof=1) / math.sqrt(n)
    assert abs(counts.mean() - exact) < 4 * se


def test_mc_agreement_across_mean_pairs():
    """Exact/Monte-Carlo agreement at matched truncation for several mean
    pairs, including the critical one."""
    rng = np.random.default_rng(12)
    mu_1 = OffspringDistribution([0.5, 0.0, 0.5])  # mean 1
    crit_b = (1.0 / T4.spectral_radius_closed_form()) / 2.0
    mu_crit = OffspringDistribution([1.0 - crit_b, 0.0, crit_b])  # mean 1/||P||
    for mu_a, mu_b in [(mu_1, mu_1), (MU11, mu_1), (MU11, mu_crit)]:
        n = 4000
        counts = np.array(
            [
                isec.sample_intersections(mu_a, mu_b, T4, 6, rng).pair_count
                for _ in range(n)
            ],
            dtype=float,
        )
        exact = isec.expected_pairs_truncated(mu_a.mean, mu_b.mean, T4, E, E, 6)
        se = counts.std(ddof=1) / math.sqrt(n)
        assert abs(counts.mean() - exact) < 4 * se, (mu_a.mean, mu_b.mean)


def test_diagnostic_root_branching_frequency_bounded():
    """Uniformizing the root over the sampled overlap keeps the radius-one
    branching frequency under 2/k (the radius-one count bound holds)."""
    from brwlab.magic import OrientedTree, branch_deficiency_values

    rng = np.random.default_rng(13)
    crit_b = (1.0 / T4.spectral_radius_closed_form()) / 2.0
    mu_crit = OffspringDistribution([1.0 - crit_b, 0.0, crit_b])
    hits = {4: 0, 8: 0}
    used = 0
    while used < 1500:
        rec = isec.sample_intersections(mu_crit, mu_crit, T4, 8, rng)
        if not rec.pulled_back:
            continue
        used += 1
        members = sorted(rec.pulled_back)
        probe = members[int(rng.integers(0, len(members)))]
        T = OrientedTree.from_tree(rec.tree1, marks=rec.pulled_back)
        vals = branch_deficiency_values(T, [1])[1]
        for k in hits:
            if vals[probe] >= k:
                hits[k] += 1
    for k, h in hits.items():
        freq = h / used
        sd = math.sqrt(max(freq * (1 - freq), 1e-9) / used)
        assert freq <= 2.0 / k + 4 * sd


def test_thinning_sweep_monotone_and_extremes():
    rng = np.random.default_rng(2)
    reps = [isec.thinned_intersection_sweep(MU11, MU11, T4, [0.0, 0.5, 0.9, 1.0], 6, rng)
            for _ in range(300)]
    for rep in reps:
        assert rep.sets[0.0] <= rep.sets[0.5] <= rep.sets[0.9] <= rep.sets[1.0]
        assert rep.sets[0.0] <= {0}
        assert rep.pair_counts[0.0] <= 1


def test_thinning_p1_recovers_plain_sample():
    """At p = 1 the sweep sees the full trees: its overlap equals the
    pulled-back set of an unthinned run with the same draws, replayed by
    hand from each replicate's substream, and its pair count is
    sample_intersections' sum over z of counts1[z] * counts2[z]."""
    overlaps = 0
    for i in range(50):
        rep = isec.thinned_intersection_sweep(MU11, MU11, T4, [1.0], 5, substream(3, i))
        rng = substream(3, i)
        trees = [sample_gw(MU11, DEFAULT_BUDGET, rng, max_depth=5) for _ in range(2)]
        for tree in trees:
            tree.ensure_edge_labels(rng)
        values1, values2 = (run_walk(tree, T4, E, rng).values for tree in trees)
        counts1, counts2 = Counter(values1), Counter(values2)
        assert rep.sets[1.0] == {v for v, z in enumerate(values1) if z in counts2}
        assert rep.pair_counts[1.0] == sum(n * counts2[z] for z, n in counts1.items())
        assert rep.truncated == any(tree.truncated for tree in trees)
        overlaps += len(rep.sets[1.0]) > 1
    assert overlaps > 0  # some replicate overlaps beyond the shared root


SWEEP_GRIDS = [
    [0.5, 0.9, 1.0],
    [0.0, 0.3, 0.3, 1.0],  # 0.0 and a repeat
    [0.9, 0.1, 0.5, 0.25],  # unsorted, top below 1
    [0.2],
]
SWEEP_CASES = [  # (group, law, depth, budget)
    (T4, MU11, 6, 1_000_000),
    (GroupSpec("integer_lattice", 2), MU11, 6, 1_000_000),
    (GroupSpec("free_group", 2), MU11, 6, 1_000_000),
    (T4, OffspringDistribution([0.6, 0.2, 0.2]), 8, 1_000_000),  # subcritical
    (GroupSpec("integer_lattice", 2), OffspringDistribution([0.1, 0.3, 0.6]), 7, 1_000_000),
    (GroupSpec("free_group", 2), OffspringDistribution([0.1, 0.3, 0.6]), 10, 40),  # budget cut
]


@pytest.mark.parametrize("case", range(len(SWEEP_CASES)))
def test_sweep_matches_per_p_reference(case):
    """The threshold pass gives the per-p rebuilds' sets, pair counts and
    truncation flags, and leaves the stream where they leave it."""
    g, mu, depth, budget = SWEEP_CASES[case]
    truncated = 0
    for j, grid in enumerate(SWEEP_GRIDS):
        for i in range(60):
            rng, ref_rng = substream(case, j, i), substream(case, j, i)
            got = [isec.thinned_intersection_sweep(mu, MU11, g, grid, depth, rng, budget)
                   for _ in range(3)]
            want = thinned_intersection_sweep_reference(mu, MU11, g, grid, depth, 3, ref_rng,
                                                        budget)
            for a, b in zip(got, want, strict=True):
                assert (a.sets, a.pair_counts, a.truncated) == (b.sets, b.pair_counts, b.truncated)
                truncated += a.truncated
            assert rng.random() == ref_rng.random()
    if budget < 1_000_000:
        assert truncated > 0


def test_sweep_empty_grid_gives_empty_maps():
    """An empty grid still samples both trees and walks, and reports no p."""
    rng, ref_rng = substream(0, 0), substream(0, 0)
    reps = [isec.thinned_intersection_sweep(MU11, MU11, T4, [], 6, rng) for _ in range(5)]
    assert [(r.sets, r.pair_counts) for r in reps] == [({}, {})] * 5
    thinned_intersection_sweep_reference(MU11, MU11, T4, [], 6, 5, ref_rng)
    assert rng.random() == ref_rng.random()


def test_trace_ends_depth_zero():
    rng = np.random.default_rng(4)
    mu = OffspringDistribution([0.0, 0.0, 1.0])
    results = [isec.trace_ends_experiment(mu, T4, 0, [0], 1, rng) for _ in range(20)]
    assert {q for res in results for q in res.qualifying.values()} <= {0, 1}


def test_trace_ends_requires_supercritical():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        isec.trace_ends_experiment(OffspringDistribution.delta(1), T4, 3, [1], 1, rng)


def test_trace_ends_refuses_bad_arguments_before_any_draw():
    """A negative radius or an m_threshold below 1 is refused before the
    tree or the walk draws from the stream."""
    rng, ref_rng = substream(9, 0), substream(9, 0)
    for radius_grid, m_threshold in (([-1], 1), ([2, -3, 0], 2), ([1], 0), ([0, 1], -2)):
        with pytest.raises(ValueError):
            isec.trace_ends_experiment(MU11, T4, 6, radius_grid, m_threshold, rng)
        assert rng.random() == ref_rng.random()


# radius grids with 0, repeats, and radii past every trace at depth 10
ENDS_GRIDS = ([0], [3, 0, 3, 1], [0, 1, 2, 5, 40], [2, 2, 60, 4])
ENDS_LAWS = (MU11, OffspringDistribution([0.2, 0.0, 0.8]))


def _ends_cases(g, seed):
    """80 depth-10 runs of trace_ends_experiment, over both laws, every
    grid and m_threshold 1..4: (result, m_threshold, the sampled walk,
    rebuilt on a copy of the stream)."""
    rng, ref_rng = substream(seed, 0), substream(seed, 0)
    for rep in range(80):
        mu, grid, m_threshold = ENDS_LAWS[rep % 2], ENDS_GRIDS[rep % 4], 1 + rep // 4 % 4
        res = isec.trace_ends_experiment(mu, g, 10, grid, m_threshold, rng)
        tree = sample_gw(mu, 1_000_000, ref_rng, max_depth=10)
        yield res, m_threshold, run_walk(tree, g, g.identity(), ref_rng)


@pytest.mark.parametrize("g", [T4, F2, Z2, Z3], ids=["T4", "F2", "Z2", "Z3"])
def test_trace_ends_matches_the_census_oracle(g):
    """The one-pass census gives, at every radius of the grid, the
    qualifying count of oracles.ends_profile, the census one ball at a
    time, with every trace vertex marked."""
    for rep, (res, m_threshold, walk) in enumerate(_ends_cases(g, 21)):
        radii = sorted(set(ENDS_GRIDS[rep % 4]))
        adj = trace(walk)
        assert list(res.qualifying.items()) == [
            (r, ends_profile(adj, adj, g.identity(), r, m_threshold).qualifying)
            for r in radii
        ]


def test_trace_ends_matches_networkx_on_lattice_traces():
    """On Z^2 traces, which have cycles, the census equals a networkx count
    of the components of the trace minus each closed ball that hold at
    least m_threshold vertices.  The reference graph is built from the
    walk's own (parent value, child value) pairs, not from trace."""
    import networkx as nx

    cyclic = 0
    for res, m_threshold, walk in _ends_cases(Z2, 22):
        values = walk.values
        G = nx.Graph((values[p], values[v]) for v, p in enumerate(walk.tree.parent) if v)
        G.add_node(values[0])
        cyclic += G.number_of_edges() >= G.number_of_nodes()
        dist = nx.single_source_shortest_path_length(G, values[0])
        for r, q in res.qualifying.items():
            H = G.subgraph(v for v in G if dist[v] > r)
            assert q == sum(len(c) >= m_threshold for c in nx.connected_components(H))
    assert cyclic > 10


def test_trace_ends_transient_counts_grow_with_radius():
    """At a transient supercritical mean the qualifying-component count
    climbs with the removal radius on surviving runs."""
    rng = np.random.default_rng(6)
    results = [isec.trace_ends_experiment(MU11, T4, 12, [1, 2, 3, 4], 2, rng)
               for _ in range(500)]
    survivors = [list(res.qualifying.values()) for res in results if res.survived]
    med = np.median(survivors, axis=0)
    assert len(survivors) > 50
    assert np.all(np.diff(med) >= 0)
    assert med[-1] >= med[0]


def test_trace_ends_regime_contrast():
    """On a tree base graph removing a ball can never merge components, so
    the recurrent regime shows up as sphere saturation: far more occupied
    directions than the thin transient trace at the same radii."""
    rng = np.random.default_rng(7)
    mu2 = OffspringDistribution.delta(2)
    rec = [isec.trace_ends_experiment(mu2, T4, 9, [1, 2, 3], 2, rng) for _ in range(60)]
    med_rec = np.median([list(r.qualifying.values()) for r in rec if r.survived], axis=0)
    rng = np.random.default_rng(8)
    thin = [isec.trace_ends_experiment(MU11, T4, 9, [1, 2, 3], 2, rng) for _ in range(400)]
    med_thin = np.median([list(r.qualifying.values()) for r in thin if r.survived], axis=0)
    assert med_rec[-1] > med_rec[0]
    assert med_rec[-1] > 3 * med_thin[-1]
