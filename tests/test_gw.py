"""Tests for offspring distributions, tree samplers, and thinning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brwlab import groups, gw, intersections, magic, mtp
from brwlab.gw import OffspringDistribution

import oracles


def test_offspring_validation():
    with pytest.raises(ValueError):
        OffspringDistribution([0.5, 0.4])  # does not sum to 1
    with pytest.raises(ValueError):
        OffspringDistribution([1.2, -0.2])
    with pytest.raises(ValueError):
        OffspringDistribution([0.0] * 70 + [1.0])  # support cap
    for bad in ([math.nan, 1.0], [0.5, 0.5, math.nan], [math.inf, 1.0], [-math.inf, 1.0]):
        with pytest.raises(ValueError):
            OffspringDistribution(bad)
    mu = OffspringDistribution([0.25, 0.25, 0.5])
    assert mu.mean == pytest.approx(1.25)
    assert mu.non_trivial
    assert not OffspringDistribution.delta(1).non_trivial


def test_thin_binomial_example():
    """Thinning two deterministic children keeps each with probability p."""
    mu = OffspringDistribution.delta(2)
    thinned = gw.thin(mu, 0.5)
    expected = [math.comb(2, k) * 0.5**2 for k in range(3)]
    assert np.allclose(thinned.pmf, expected, atol=1e-15)


def test_thin_identity_and_mean_scaling():
    mu = OffspringDistribution([0.1, 0.2, 0.3, 0.4])
    assert np.allclose(gw.thin(mu, 1.0).pmf, mu.pmf, atol=1e-15)
    assert gw.thin(mu, 0.0).pmf[0] == pytest.approx(1.0)
    # mean 2 thinned by 0.6 has mean 1.2
    mu2 = OffspringDistribution.delta(2)
    assert gw.thin(mu2, 0.6).mean == pytest.approx(1.2, abs=1e-12)
    assert gw.thin(mu, 0.35).mean == pytest.approx(0.35 * mu.mean, abs=1e-12)


@given(
    pmf=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
    p=st.sampled_from([0.3, 0.7]),
    q=st.sampled_from([0.3, 0.7]),
)
@settings(max_examples=60, deadline=None)
def test_thin_composes(pmf, p, q):
    arr = np.asarray(pmf)
    mu = OffspringDistribution(arr / arr.sum())
    twice = gw.thin(gw.thin(mu, p), q)
    once = gw.thin(mu, p * q)
    assert np.allclose(twice.pmf, once.pmf, atol=1e-10)


def test_extinction_probability():
    assert gw.extinction_probability(OffspringDistribution.delta(0)) == pytest.approx(1.0)
    # subcritical non-trivial dies out
    assert gw.extinction_probability(OffspringDistribution([0.3, 0.5, 0.2])) == pytest.approx(
        1.0, abs=1e-9
    )
    # solve q = 1/4 + q/4 + q^2/2 independently: smaller quadratic root
    roots = np.roots([0.5, 0.25 - 1.0, 0.25])
    target = min(r.real for r in roots if abs(r.imag) < 1e-12 and r.real >= 0)
    q = gw.extinction_probability(OffspringDistribution([0.25, 0.25, 0.5]))
    assert q == pytest.approx(target, abs=1e-9)
    assert q == pytest.approx(0.5, abs=1e-9)
    # the deterministic single-child line never dies
    assert gw.extinction_probability(OffspringDistribution.delta(1)) == pytest.approx(0.0)
    # a critical non-trivial law dies out almost surely: exactly 1
    assert gw.extinction_probability(OffspringDistribution([0.5, 0, 0.5])) == 1.0
    # near-critical supercritical laws against q = (1/2 - eps) / (1/2 + eps)
    for eps in (1e-2, 1e-3, 1e-4, 1e-6):
        q = gw.extinction_probability(OffspringDistribution([0.5 - eps, 0, 0.5 + eps]))
        assert abs(q - (0.5 - eps) / (0.5 + eps)) <= 1e-12
    # without childless individuals the process never dies out: exactly 0
    assert gw.extinction_probability(OffspringDistribution([0, 0.5, 0.5])) == 0.0


def test_sample_gw_degenerate_cases():
    rng = np.random.default_rng(0)
    t = gw.sample_gw(OffspringDistribution.delta(0), 100, rng)
    assert t.n_vertices == 1 and not t.truncated
    t = gw.sample_gw(OffspringDistribution.delta(1), 50, rng)
    assert t.n_vertices == 50 and t.truncated
    assert t.max_depth() == 49  # a path
    assert t.truncation_reason == "budget"


def test_sample_gw_singleton_probability():
    rng = np.random.default_rng(11)
    mu = OffspringDistribution([0.5, 0.0, 0.5])
    n = 10_000
    singles = sum(gw.sample_gw(mu, 500, rng).n_vertices == 1 for _ in range(n))
    sd = math.sqrt(0.5 * 0.5 / n)
    assert abs(singles / n - 0.5) < 4 * sd


def test_generation_sizes_match_mean_powers():
    """E[generation n] = mean^n under depth-only truncation."""
    rng = np.random.default_rng(23)
    mu = OffspringDistribution([0.3, 0.3, 0.4])  # mean 1.1
    reps, depth = 10_000, 6
    gen_counts = np.zeros((reps, depth + 1))
    for i in range(reps):
        t = gw.sample_gw(mu, 1_000_000, rng, max_depth=depth)
        for d in t.depth:
            gen_counts[i, d] += 1
    for n in range(depth + 1):
        mean = gen_counts[:, n].mean()
        se = gen_counts[:, n].std(ddof=1) / math.sqrt(reps)
        assert abs(mean - mu.mean**n) < max(4 * se, 1e-9)


def test_survival_frequency_tracks_extinction_probability():
    rng = np.random.default_rng(5)
    mu = OffspringDistribution([0.25, 0.25, 0.5])
    q = gw.extinction_probability(mu)
    n = 2000
    survived = sum(gw.sample_gw(mu, 4000, rng).truncated for _ in range(n))
    sd = math.sqrt(q * (1 - q) / n)
    assert abs(survived / n - (1 - q)) < 4 * sd + 0.01


def test_augmented_structure():
    rng = np.random.default_rng(3)
    t = gw.sample_unimodular_gw(OffspringDistribution.delta(0), 10, rng, variant="augmented")
    assert t.n_vertices == 2
    assert t.parent[1] == 0
    # root degree state: delta_2 roots always have offspring 2 plus co-root
    for _ in range(50):
        t = gw.sample_unimodular_gw(OffspringDistribution.delta(2), 100, rng)
        assert len(t.children[0]) == 3


def test_unimodular_root_degree_bias():
    """P(deg(root) = k+1) is proportional to pmf(k)/(k+1)."""
    rng = np.random.default_rng(17)
    mu = OffspringDistribution([0.5, 0.0, 0.5])
    n = 10_000
    deg1 = 0
    for _ in range(n):
        t = gw.sample_unimodular_gw(mu, 4, rng, max_depth=0)
        deg1 += len(t.children[0]) == 1
    # weights: k=0 -> 0.5/1, k=2 -> 0.5/3; P(deg=1) = 0.75
    sd = math.sqrt(0.75 * 0.25 / n)
    assert abs(deg1 / n - 0.75) < 4 * sd


def test_delta2_unimodular_law_equals_augmented():
    """With deterministic offspring the degree bias is constant, so the
    biased and plain double-tree laws coincide."""
    rng = np.random.default_rng(19)
    mu = OffspringDistribution.delta(2)
    n = 2000
    sizes_a = np.array(
        [gw.sample_unimodular_gw(mu, 10_000, rng, variant="augmented", max_depth=4).n_vertices
         for _ in range(n)], dtype=float)
    sizes_u = np.array(
        [gw.sample_unimodular_gw(mu, 10_000, rng, variant="unimodular", max_depth=4).n_vertices
         for _ in range(n)], dtype=float)
    # both are deterministic here: root side depth 4, co-root side depth 3
    assert sizes_a.std() == 0 and sizes_u.std() == 0
    assert sizes_a[0] == sizes_u[0]


DRAW_LAWS = [
    OffspringDistribution([0.45, 0.0, 0.55]),
    OffspringDistribution([0.2, 0.3, 0.5, 0.0, 0.0]),  # trailing zeros
    OffspringDistribution([0.1] * 10),  # cumulative sum rounds below 1
    OffspringDistribution([0.3, 0.1, 0.1, 0.1, 0.4]),
    OffspringDistribution.delta(3),
]


class _FixedUniforms:
    """Stands in for a Generator whose random() returns given values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size=None):
        return self.u if size is not None else float(self.u[0])


def test_offspring_sample_matches_clipped_search():
    """The index is the clipped one's for every u in [0, 1), including u
    at and just below each cumulative sum and above a sum that rounds
    below 1."""
    assert np.cumsum([0.1] * 10)[-1] < 1.0
    for mu in DRAW_LAWS:
        cum = np.cumsum(mu.pmf)
        u = np.concatenate([[0.0, 0.5, np.nextafter(1.0, 0.0)], cum[cum < 1.0],
                            np.nextafter(cum, 0.0)])
        fixed = _FixedUniforms(u)
        assert mu.sample(fixed, size=len(u)).tolist() == \
            oracles.offspring_sample_reference(mu, fixed, len(u)).tolist()
        for x in u:
            assert int(mu.sample(_FixedUniforms([x]))) == \
                int(oracles.offspring_sample_reference(mu, _FixedUniforms([x])))


def _assert_same_tree(t, ref):
    """The flat tree t is the dict tree ref with ids 0..n-1: the same
    parents, depths, children in order, marks, exact label doubles and
    truncation."""
    assert oracles.tree_fields(t) == oracles.tree_fields(ref)


def _sample_both(variant, mu, budget, depth, seed):
    """(tree, reference tree, rng, reference rng) after one draw of each
    from the same seed; the trees and generator states agree."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if variant is None:
        tree = gw.sample_gw(mu, budget, rng, max_depth=depth)
        ref = oracles.sample_gw_reference(mu, budget, ref_rng, max_depth=depth)
    else:
        tree = gw.sample_unimodular_gw(mu, budget, rng, variant=variant, max_depth=depth)
        ref = oracles.sample_unimodular_gw_reference(mu, budget, ref_rng, variant, depth)
    _assert_same_tree(tree, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return tree, ref, rng, ref_rng


def test_samplers_match_reference_draws():
    """Family-at-a-time growth gives the per-vertex trees and leaves the
    generator in the same state, under budget cuts and depth caps: a few
    large settings, then budgets 2 to 30 under depth caps 0 to 5 and none,
    including the unimodular root's own family cut at budget 2.  On the
    small trees, labels are drawn and a component is cut at a p tied with
    a label, every third vertex marked, against the references; and _grow
    runs below a frontier."""
    settings_ = [(1, None), (2, None), (3, None), (4, None), (5, None), (8, None), (40, None),
                 (10**6, 0), (10**6, 1), (10**6, 4), (25, 3)]
    grid = [(budget, depth) for budget in range(2, 31) for depth in (None, 0, 1, 2, 3, 5)]
    reasons = set()
    for law, mu in enumerate(DRAW_LAWS):
        for budget, depth in settings_:
            for variant in (None, gw.AUGMENTED, gw.UNIMODULAR):
                if variant is not None and budget < 2:
                    continue
                for seed in range(25):
                    _sample_both(variant, mu, budget, depth, [law, budget, seed])
        for budget, depth in grid:
            for variant in (None, gw.AUGMENTED, gw.UNIMODULAR):
                for seed in range(3):
                    t, ref, rng, ref_rng = _sample_both(variant, mu, budget, depth,
                                                        [law, budget, seed])
                    reasons.add((variant is None, t.truncation_reason, t.n_vertices == 2))
                    t.ensure_edge_labels(rng)
                    oracles.ensure_edge_labels_reference(ref, ref_rng)
                    assert rng.bit_generator.state == ref_rng.bit_generator.state
                    p = t.edge_labels[seed * 7 % t.n_vertices]  # 0.0 at the root
                    t.marks = ref.marks = set(range(0, t.n_vertices, 3))
                    sub = gw.percolate_root_component(t, p)
                    sub_ref = oracles.percolate_root_component_reference(ref, p)
                    _assert_same_tree(sub, sub_ref)
                    assert sub.ids == sorted(sub_ref.parent)
                    _assert_same_tree(t, ref)
    # every cut happened: at the budget, at the depth cap, and the
    # unimodular root's family at budget 2
    assert {(True, "budget", False), (True, "depth", False), (False, "depth", False),
            (False, "budget", True)} <= reasons
    for budget in range(3, 31):
        rng, ref_rng = np.random.default_rng(budget), np.random.default_rng(budget)
        t = gw._grow(gw.MarkedTree([-1, 0, 0]), [1, 2], 1, DRAW_LAWS[0], budget, rng, 6)
        ref = oracles.to_dict_tree(gw.MarkedTree([-1, 0, 0]))
        oracles._grow_reference(ref, [1, 2], 3, DRAW_LAWS[0], budget, ref_rng, 6)
        _assert_same_tree(t, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    mu3 = OffspringDistribution.delta(3)
    # the root family fills the budget exactly; the next family is cut at once
    t = _sample_both(None, mu3, 4, None, 0)[0]
    assert t.children[0] == [1, 2, 3] and t.n_vertices == 4 and t.truncated
    # a family cut inside: two of the root's three children fit
    t = _sample_both(None, mu3, 3, None, 0)[0]
    assert t.children[0] == [1, 2] and t.truncation_reason == "budget"
    # double tree: the root's own family ends at 5, the next one (vertex 2's) at 8
    t = _sample_both(gw.AUGMENTED, mu3, 8, None, 0)[0]
    assert t.children[0] == [1, 2, 3, 4] and t.children[2] == [5, 6, 7]
    assert t.n_vertices == 8 and t.truncation_reason == "budget"


def test_bulk_edge_labels_match_scalar_draws():
    """One random(k) call gives the scalar loop's labels, in id order, and
    leaves the same next draw, also on a tree labelled up to some id; a
    fully labelled tree draws nothing."""
    mu = OffspringDistribution([0.2, 0.3, 0.5])
    for seed in range(200):
        tree = gw.sample_gw(mu, 200, np.random.default_rng(seed), max_depth=6)
        n = tree.n_vertices
        for labelled in sorted({0, 1, n // 2, n}):
            t = gw.MarkedTree(tree.parent)
            t.edge_labels = [0.0, *[0.25] * (labelled - 1)] if labelled else None
            ref = oracles.to_dict_tree(t)
            rng, ref_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
            t.ensure_edge_labels(rng)
            oracles.ensure_edge_labels_reference(ref, ref_rng)
            _assert_same_tree(t, ref)
            assert len(t.edge_labels) == n
            assert rng.random() == ref_rng.random()


def test_percolate_extremes_and_label_fixing():
    rng = np.random.default_rng(9)
    t = gw.sample_gw(OffspringDistribution.delta(2), 200, rng, max_depth=5)
    t.ensure_edge_labels(rng)
    labels = list(t.edge_labels)
    sub0 = gw.percolate_root_component(t, 0.0)
    assert sub0.n_vertices == 1 and sub0.ids == [0]
    sub1 = gw.percolate_root_component(t, 1.0)
    assert sub1.ids == list(range(t.n_vertices)) and sub1.parent == t.parent
    assert t.edge_labels == labels  # percolation leaves the labels as they were
    t.ensure_edge_labels(rng)
    assert t.edge_labels == labels  # a fully labelled tree draws nothing
    # unlabelled, the last label missing, or all but the root's
    with pytest.raises(ValueError, match="unlabeled"):
        gw.percolate_root_component(gw.sample_gw(OffspringDistribution.delta(2), 50, rng), 0.5)
    del t.edge_labels[-1]
    with pytest.raises(ValueError, match="unlabeled"):
        gw.percolate_root_component(t, 0.5)
    t.edge_labels = [0.0]
    with pytest.raises(ValueError, match="unlabeled"):
        gw.percolate_root_component(t, 0.5)


def test_percolation_keeps_the_truncation_reason():
    """A component keeps the reason its tree was cut: trees cut at the
    budget and at the depth cap, percolated at p = 1 and p = 0.5."""
    mu = OffspringDistribution([0.3, 0, 0.7])
    reasons = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for t in (gw.sample_gw(mu, 12, rng), gw.sample_gw(mu, 10**6, rng, max_depth=3),
                  gw.sample_unimodular_gw(mu, 12, rng),
                  gw.sample_unimodular_gw(mu, 10**6, rng, max_depth=3)):
            t.ensure_edge_labels(rng)
            for p in (1.0, 0.5):
                sub = gw.percolate_root_component(t, p)
                assert sub.truncation_reason == t.truncation_reason
                assert sub.truncated == t.truncated
            reasons.add(t.truncation_reason)
    assert reasons == {None, "budget", "depth"}


def test_percolate_monotone_coupling():
    rng = np.random.default_rng(10)
    mu = OffspringDistribution([0.2, 0.3, 0.5])
    for _ in range(200):
        t = gw.sample_gw(mu, 5000, rng, max_depth=8)
        t.ensure_edge_labels(rng)
        prev = None
        for p in (0.3, 0.6, 0.9, 1.0):
            cur = set(gw.percolate_root_component(t, p).ids)
            if prev is not None:
                assert prev <= cur
            prev = cur


def _percolation_inputs(seed):
    """Trees from every sampler, with no labels, all labels or labels up
    to about half of the ids, those on a grid of twentieths that ties with
    p = 0.35 and 0.7; fuzz trees carry marks.  Percolation needs the rest
    drawn by ensure_edge_labels."""
    rng = np.random.default_rng(seed)
    mu = OffspringDistribution([0.2, 0.3, 0.5])
    trees = [gw.MarkedTree(), gw.sample_gw(mu, 400, rng, max_depth=7),
             gw.sample_gw(mu, 30, rng),  # cut at the budget
             gw.sample_unimodular_gw(mu, 400, rng, max_depth=7),
             gw.sample_marked_fuzz_tree(rng, 80), gw.sample_marked_fuzz_tree(rng, 80)]
    for i, t in enumerate(trees):
        if i % 3 == 1:
            t.ensure_edge_labels(rng)
        elif i % 3 == 2:
            grid = (rng.integers(0, 21, t.n_vertices) / 20).tolist()
            t.edge_labels = [0.0, *grid[1:int(rng.integers(1, t.n_vertices + 1))]]
    return trees


def test_percolation_matches_depth_first_reference():
    """The one-pass flat component is the depth-first reference's
    component, renumbered in id order: parents, children in order, depths,
    marks, labels and truncation flag and reason, with ids the kept
    original ids.  Labels drawn for unlabelled edges are the same doubles,
    leaving the generator in the same state.  The component's parents come
    before their children."""
    for seed in range(40):
        for t in _percolation_inputs(seed):
            ref_t = oracles.to_dict_tree(t)
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            t.ensure_edge_labels(rng)
            oracles.ensure_edge_labels_reference(ref_t, ref_rng)
            for p in (0.0, 0.35, 0.7, 1.0):
                sub = gw.percolate_root_component(t, p)
                ref = oracles.percolate_root_component_reference(ref_t, p)
                _assert_same_tree(sub, ref)
                assert sub.ids == sorted(ref.parent)
                assert all(u < v for v, u in enumerate(sub.parent))
            _assert_same_tree(t, ref_t)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_adjacency_lists_parent_then_children_in_order():
    """MarkedTree.adjacency() equals groups.adjacency(ids, edges()) with
    the same keys and every list in the same order, on sampled, fuzz and
    percolated trees."""
    for seed in range(20):
        for t in _percolation_inputs(seed):
            t.ensure_edge_labels(np.random.default_rng(seed))
            sub = gw.percolate_root_component(t, 0.6)
            for tree in (t, sub):
                want = groups.adjacency(range(tree.n_vertices), tree.edges())
                assert list(tree.adjacency().items()) == list(want.items())


def test_percolate_root_offspring_binomial():
    rng = np.random.default_rng(14)
    n = 10_000
    counts = np.zeros(3)
    for _ in range(n):
        t = gw.sample_gw(OffspringDistribution.delta(2), 50, rng, max_depth=2)
        t.ensure_edge_labels(rng)
        sub = gw.percolate_root_component(t, 0.5)
        counts[len(sub.children[sub.root])] += 1
    expected = np.array([0.25, 0.5, 0.25])
    for k in range(3):
        sd = math.sqrt(expected[k] * (1 - expected[k]) / n)
        assert abs(counts[k] / n - expected[k]) < 4 * sd


def test_thinned_tree_law_equivalence():
    """Root degree of the percolated double tree matches the two-stage
    construction: thinned offspring plus an independently kept root edge."""
    rng = np.random.default_rng(21)
    mu = OffspringDistribution([0.3, 0.2, 0.5])
    p = 0.6
    n = 10_000
    perc = np.zeros(5)
    direct = np.zeros(5)
    mu_p = gw.thin(mu, p)
    for _ in range(n):
        t = gw.sample_unimodular_gw(mu, 200, rng, variant="augmented", max_depth=2)
        t.ensure_edge_labels(rng)
        sub = gw.percolate_root_component(t, p)
        perc[len(sub.children[0])] += 1
        k = int(mu_p.sample(rng)) + (1 if rng.random() < p else 0)
        direct[k] += 1
    for k in range(5):
        pa, pb = perc[k] / n, direct[k] / n
        sd = math.sqrt(max(pa * (1 - pa), pb * (1 - pb)) / n)
        assert abs(pa - pb) < 4 * math.sqrt(2) * sd + 1e-9


def test_fuzz_tree_sampler_shapes():
    rng = np.random.default_rng(8)
    for _ in range(200):
        t = gw.sample_marked_fuzz_tree(rng, 60)
        assert 1 <= t.n_vertices <= 60
        assert t.marks
        # the parent list is consistent, parents before children
        assert t.parent[0] == -1
        for v, p in enumerate(t.parent[1:], 1):
            assert 0 <= p < v and v in t.children[p]


def test_fuzz_tree_matches_reference_draws():
    """Bulk per-vertex draws give the per-vertex sampler's trees and marks,
    and the same next draw, for every kind and at one vertex."""
    kinds = set()
    for seed in range(1500):
        size = (1, 2, 3, 5, 40, 60, 300)[seed % 7]
        probe = np.random.default_rng(seed)  # the sampler's first three draws
        hi = size if probe.random() < 0.2 else max(1, size // 4)
        if probe.integers(1, hi + 1) > 2:
            kinds.add(int(probe.integers(0, 5)))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        t = gw.sample_marked_fuzz_tree(rng, size)
        ref = oracles.sample_marked_fuzz_tree_reference(ref_rng, size)
        _assert_same_tree(t, ref)
        assert rng.random() == ref_rng.random()
    assert kinds == set(range(5))  # every kind, at three vertices or more


_MU = OffspringDistribution([0.45, 0.0, 0.55])
_T4 = groups.GroupSpec("regular_tree", 4)
_Z3 = groups.GroupSpec("integer_lattice", 3)
_STAR = magic.OrientedTree.from_tree(gw.MarkedTree([-1, 0, 0, 0]), marks={1, 2})
_PATH3 = {0: [1], 1: [0, 2], 2: [1]}
# (call on a generator, message): the library refusals that no other test
# reaches, each case named after its function and the argument it refuses
REFUSALS = {
    "visits_series-mean": (lambda rng: groups.visits_series(_T4, -0.5, 4), "mean must be >= 0"),
    "pairs-mean": (lambda rng: intersections.expected_pairs_profile(1.0, -1.0, _T4, (), (), 4),
                   "means must be >= 0"),
    "pairs-n_max": (lambda rng: intersections.expected_pairs_profile(1.0, 1.0, _T4, (), (), -1),
                    "n_max must be >= 0"),
    "spec-param-float": (lambda rng: groups.GroupSpec("regular_tree", 4.0),
                         "param must be an integer"),
    "spec-param-str": (lambda rng: groups.GroupSpec("regular_tree", "4"),
                       "param must be an integer"),
    "spec-param-bool": (lambda rng: groups.GroupSpec("free_group", True),
                        "param must be an integer"),
    "scaled_p_series-n_max-T4": (lambda rng: groups.scaled_p_series(_T4, (), (), -1),
                                 "n_max must be >= 0"),
    "scaled_p_series-n_max-Z3": (
        lambda rng: groups.scaled_p_series(_Z3, (0, 0, 0), (1, 0, 0), -1), "n_max must be >= 0"),
    "p_series-n_max-T4": (lambda rng: groups.p_series(_T4, (), (), -1), "n_max must be >= 0"),
    "p_series-n_max-Z3": (lambda rng: groups.p_series(_Z3, (0, 0, 0), (0, 0, 0), -1),
                          "n_max must be >= 0"),
    "visits_series-n_max-T4": (lambda rng: groups.visits_series(_T4, 1.0, -1),
                               "n_max must be >= 0"),
    "visits_series-n_max-Z3": (lambda rng: groups.visits_series(_Z3, 0.0, -1),
                               "n_max must be >= 0"),
    "visits_series-mean-nan": (lambda rng: groups.visits_series(_T4, math.nan, 3),
                               "mean must be finite"),
    "visits_series-mean-inf": (lambda rng: groups.visits_series(_T4, math.inf, 3),
                               "mean must be finite"),
    "pairs-mean-nan": (lambda rng: intersections.expected_pairs_profile(
        math.nan, 1.0, _T4, (), (), 3), "means must be finite"),
    "pairs-mean-inf": (lambda rng: intersections.expected_pairs_profile(
        math.inf, 1.0, _T4, (), (), 3), "means must be finite"),
    "pairs_truncated-mean-nan": (lambda rng: intersections.expected_pairs_truncated(
        1.0, math.nan, _T4, (), (), 3), "means must be finite"),
    "scaled_p_series-n_max-float": (lambda rng: groups.scaled_p_series(_T4, (), (), 3.0),
                                    "n_max must be an integer, got 3.0"),
    "p_series-n_max-float": (lambda rng: groups.p_series(_Z3, (0, 0, 0), (0, 0, 0), 3.0),
                             "n_max must be an integer, got 3.0"),
    "visits_series-n_max-float": (lambda rng: groups.visits_series(_T4, 1.0, 3.0),
                                  "n_max must be an integer, got 3.0"),
    "visits_series-n_max-bool": (lambda rng: groups.visits_series(_Z3, 1.0, True),
                                 "n_max must be an integer, got True"),
    "spectral-n_max-float": (lambda rng: groups.spectral_radius_trajectory(_T4, 4.5),
                             "n_max must be an integer, got 4.5"),
    "spectral-stride-float": (lambda rng: groups.spectral_radius_trajectory(_T4, 8, 2.0),
                              "stride must be an integer, got 2.0"),
    "pairs-n_max-float": (lambda rng: intersections.expected_pairs_profile(
        1.0, 1.0, _T4, (), (), 3.0), "n_max must be an integer, got 3.0"),
    "check_ball-radius": (lambda rng: groups.check_ball(_T4, -1), "radius must be >= 0"),
    "elements_within-radius-T4": (lambda rng: groups.elements_within(_T4, (), -1),
                                  "radius must be >= 0"),
    "elements_within-radius-Z3": (lambda rng: groups.elements_within(_Z3, (0, 0, 0), -1),
                                  "radius must be >= 0"),
    "elements_within-radius-float": (lambda rng: groups.elements_within(_T4, (), 1.5),
                                     "radius must be an integer, got 1.5"),
    "elements_within-radius-bool": (lambda rng: groups.elements_within(_Z3, (0, 0, 0), True),
                                    "radius must be an integer, got True"),
    "pullback-ball_radius-float": (lambda rng: mtp.pullback_sampler(
        _T4, _MU, 4, "ball", ball_radius=1.5), "radius must be an integer, got 1.5"),
    "trace_ends-radius-float": (lambda rng: intersections.trace_ends_experiment(
        _MU, _T4, 3, [1.5], 1, rng), "radius_grid entries must be an integer, got 1.5"),
    "pmf-empty": (lambda rng: OffspringDistribution([]), "pmf must be a nonempty"),
    "thin-p": (lambda rng: gw.thin(_MU, 1.5), r"p must lie in \[0, 1\]"),
    "sample_gw-budget": (lambda rng: gw.sample_gw(_MU, 0, rng), "budget must be >= 1"),
    "unimodular-budget": (lambda rng: gw.sample_unimodular_gw(_MU, 1, rng),
                          "budget must be >= 2"),
    "unimodular-variant": (lambda rng: gw.sample_unimodular_gw(_MU, 10, rng, variant="plain"),
                           "unknown variant 'plain'"),
    "fuzz-max_vertices": (lambda rng: gw.sample_marked_fuzz_tree(rng, 0),
                          "max_vertices must be >= 1"),
    "percolate-p": (lambda rng: gw.percolate_root_component(gw.MarkedTree(), -0.1),
                    r"p must lie in \[0, 1\]"),
    "sweep-p_grid": (lambda rng: intersections.thinned_intersection_sweep(
        _MU, _MU, _T4, [0.5, 1.2], 3, rng), r"p_grid entries must lie in \[0, 1\]"),
    "aggregate-alpha": (lambda rng: mtp.aggregate_mtp_report(np.zeros((10, 2)), 0, 10, 1.0),
                        r"alpha must be in \(0, 1\)"),
    "fixed_root-root": (lambda rng: mtp.fixed_root_sampler({0: [1], 1: [0]}, {0}, 2),
                        "root not in graph"),
    "pullback-a_rule": (lambda rng: mtp.pullback_sampler(_T4, _MU, 4, "nearest"),
                        "unknown a_rule 'nearest'"),
    "sample_gw-budget-float": (lambda rng: gw.sample_gw(_MU, 10.0, rng),
                               "budget must be an integer, got 10.0"),
    "sample_gw-max_depth-float": (lambda rng: gw.sample_gw(_MU, 10, rng, max_depth=2.5),
                                  "max_depth must be an integer, got 2.5"),
    "sample_gw-max_depth": (lambda rng: gw.sample_gw(_MU, 10, rng, max_depth=-1),
                            "max_depth must be >= 0"),
    "unimodular-budget-float": (lambda rng: gw.sample_unimodular_gw(_MU, 10.0, rng),
                                "budget must be an integer, got 10.0"),
    "unimodular-max_depth-float": (lambda rng: gw.sample_unimodular_gw(
        _MU, 10, rng, max_depth=2.5), "max_depth must be an integer, got 2.5"),
    "fuzz-max_vertices-float": (lambda rng: gw.sample_marked_fuzz_tree(rng, 5.0),
                                "max_vertices must be an integer, got 5.0"),
    "pullback-depth-float": (lambda rng: mtp.pullback_sampler(_T4, _MU, 4.5)(rng),
                             "max_depth must be an integer, got 4.5"),
    "pullback-depth2-float": (lambda rng: mtp.pullback_sampler(
        _T4, _MU, 4, "trace", depth2=4.5)(rng), "depth2 must be an integer, got 4.5"),
    "pushforward-depth-float": (lambda rng: mtp.pushforward_trace_sampler(
        _T4, _MU, 4.5)(rng), "max_depth must be an integer, got 4.5"),
    "intersect-depth-float": (lambda rng: intersections.sample_intersections(
        _MU, _MU, _T4, 2.5, rng), "max_depth must be an integer, got 2.5"),
    "sweep-depth-float": (lambda rng: intersections.thinned_intersection_sweep(
        _MU, _MU, _T4, [0.5], 2.5, rng), "max_depth must be an integer, got 2.5"),
    "trace_ends-depth-float": (lambda rng: intersections.trace_ends_experiment(
        _MU, _T4, 5.5, [1], 1, rng), "max_depth must be an integer, got 5.5"),
    "trace_ends-m_threshold-float": (lambda rng: intersections.trace_ends_experiment(
        _MU, _T4, 5, [1], 1.5, rng), "m_threshold must be an integer, got 1.5"),
    "mc_mtp_test-n_samples-float": (lambda rng: mtp.mc_mtp_test(
        mtp.uniform_root_sampler(_PATH3, {0, 1, 2}), (mtp.BUILTIN_TRANSPORT["adjacent"],),
        mtp.BUILTIN_WEIGHT["unit"], 200.5, 0.05, rng), "n_samples must be an integer, got 200.5"),
    "mc_mtp_test-n_samples": (lambda rng: mtp.mc_mtp_test(
        mtp.uniform_root_sampler(_PATH3, {0, 1, 2}), (mtp.BUILTIN_TRANSPORT["adjacent"],),
        mtp.BUILTIN_WEIGHT["unit"], 1, 0.05, rng), "n_samples must be >= 2"),
    "branching-r-float": (lambda rng: magic.branch_deficiency_values(_STAR, [1.5]),
                          "r must be an integer, got 1.5"),
    "supported-r-float": (lambda rng: magic.supported_gap_values(_STAR, 1.5),
                          "r must be an integer, got 1.5"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_library_refusals(name):
    """Each refusal raises ValueError with its message before it draws
    from the generator it is given."""
    call, message = REFUSALS[name]
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        call(rng)
    assert rng.bit_generator.state == before
