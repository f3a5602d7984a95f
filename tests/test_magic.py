"""Tests for branching/supported detection, auxiliary trees and the
counting bound; and for the component census oracle that the ends
experiment's one-pass census is checked against."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brwlab import magic
from brwlab.gw import MarkedTree, sample_marked_fuzz_tree
from brwlab.magic import (
    OrientedTree,
    TreeBatch,
    branch_deficiency_values,
    counting_bound,
    supported_gap_values,
)

import oracles
from oracles import ends_profile


def path_tree(n):
    return MarkedTree([-1, *range(n - 1)])


def star_tree(m):
    return MarkedTree([-1, *[0] * m])


def binary_tree(depth):
    """The complete binary tree in breadth-first ids: v's children are
    2v + 1 and 2v + 2."""
    return MarkedTree([-1, *((v - 1) // 2 for v in range(1, 2 ** (depth + 1) - 1))])


def at_least(values, k):
    """The vertex ids whose branch deficiency or supported gap is >= k:
    the (k, r)-branching or (k, r)-supported vertices."""
    return set(np.flatnonzero(values >= k).tolist())


def as_map(values):
    """A kernel's values in the dict oracles' form: an array becomes
    {vertex id: value} without the -1 entries (a supported gap's "no
    depth-r descendant"; branch deficiencies are never negative), and a
    {r: array} dict one such map per r."""
    if isinstance(values, dict):
        return {r: as_map(row) for r, row in values.items()}
    return {v: x for v, x in enumerate(values.tolist()) if x >= 0}


# --- branching examples ----------------------------------------------------


def test_star_center_is_branching():
    T = OrientedTree.from_tree(star_tree(3), marks={1, 2, 3})
    assert 0 in at_least(branch_deficiency_values(T, [1])[1], 1)


def test_path_with_endpoint_marks_has_no_branching():
    for n in (4, 5, 8):
        T = OrientedTree.from_tree(path_tree(n), marks={0, n - 1})
        assert at_least(branch_deficiency_values(T, [1])[1], 2) == set()


def test_k_larger_than_marks_gives_empty_set():
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = oracles.random_marked_tree(rng, 30)
        vals = branch_deficiency_values(OrientedTree.from_tree(t), [1])[1]
        assert at_least(vals, len(t.marks) + 1) == set()


def test_single_mark_tree_has_at_most_one_branching_vertex():
    rng = np.random.default_rng(1)
    for _ in range(50):
        t = oracles.random_marked_tree(rng, 40, mark_rate=0.0)
        assert len(t.marks) == 1
        vals = branch_deficiency_values(OrientedTree.from_tree(t), [1])[1]
        assert len(at_least(vals, 1)) <= 1


def test_full_binary_tree_branching_count():
    """Depth-6 binary tree with every vertex marked: levels 1..4 are
    (4,1)-branching (the level gap 2^(6-j) must reach 4), 30 vertices."""
    t = binary_tree(6)
    A = set(range(t.n_vertices))
    B = at_least(branch_deficiency_values(OrientedTree.from_tree(t, marks=A), [1])[1], 4)
    assert len(B) == 30
    assert B == {v for v in A if 1 <= t.depth[v] <= 4}
    assert B == oracles.brute_branching(t, A, 4, 1)


def test_empty_marks_rejected():
    T = OrientedTree.from_tree(path_tree(3), marks=set())
    with pytest.raises(ValueError):
        branch_deficiency_values(T, [1])
    with pytest.raises(ValueError):
        supported_gap_values(T, 1)


# --- supported examples ------------------------------------------------------


def test_supported_on_fully_marked_path():
    n = 7
    S = at_least(supported_gap_values(OrientedTree.from_tree(path_tree(n), marks=range(n)), 1), 1)
    assert S == set(range(n - 1))


def test_leaves_never_supported():
    rng = np.random.default_rng(2)
    for _ in range(30):
        t = oracles.random_marked_tree(rng, 30)
        leaves = {v for v in range(t.n_vertices) if not t.children[v]}
        assert not (at_least(supported_gap_values(OrientedTree.from_tree(t), 1), 1) & leaves)


def test_star_center_supported_at_k3():
    S = at_least(supported_gap_values(OrientedTree.from_tree(star_tree(3), marks={1, 2, 3}), 1), 3)
    assert S == {0}


# --- fast versus brute force -------------------------------------------------


def test_branching_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(150):
        t = oracles.random_marked_tree(rng, 32)
        for r in (1, 2, 3):
            vals = branch_deficiency_values(OrientedTree.from_tree(t), [r])[r]
            assert as_map(vals) == oracles.brute_branch_values(t, t.marks, r)


def test_supported_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(150):
        t = oracles.random_marked_tree(rng, 32)
        T = OrientedTree.from_tree(t)
        for r in (1, 2, 3):
            assert as_map(supported_gap_values(T, r)) == oracles.brute_supported_gaps(
                t, t.marks, r
            )


def test_rooted_trees_are_every_shape_once():
    """oracles.rooted_trees(n) gives A000081's count of parent lists for
    n <= 10, each with parent[v] < v, and for n <= 7 no two of them are
    isomorphic as rooted trees."""
    import networkx as nx

    counts = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
    for n, count in enumerate(counts, 1):
        trees = list(oracles.rooted_trees(n))
        assert len(trees) == count
        assert all(p[0] == -1 and all(0 <= p[v] < v for v in range(1, n)) for p in trees)
        if n <= 7:
            graphs = []
            for p in trees:
                G = nx.Graph((v, p[v]) for v in range(1, n))
                G.add_node(0)
                nx.set_node_attributes(G, {v: v == 0 for v in G}, "root")
                graphs.append(G)
            assert not any(nx.is_isomorphic(G, H, node_match=lambda a, b: a["root"] == b["root"])
                           for i, G in enumerate(graphs) for H in graphs[:i])


def test_kernels_match_brute_force_on_every_small_tree():
    """Every nonempty mark set of every rooted tree with at most 7
    vertices (7 713 configurations), folded one batch per tree, at every
    r = 1..n: the branching and supported kernels equal the brute-force
    oracles (51 916 (configuration, r) pairs)."""
    pairs = 0
    for n in range(1, 8):
        for parent in oracles.rooted_trees(n):
            tree = MarkedTree(parent)
            mark_sets = [[v for v in range(n) if m >> v & 1] for m in range(1, 2**n)]
            batch = TreeBatch.fold((parent, marks) for marks in mark_sets)
            vals = branch_deficiency_values(batch, range(1, n + 1))
            for r in range(1, n + 1):
                fast = per_tree(batch, vals[r])
                gaps = per_tree(batch, supported_gap_values(batch, r))
                for marks, b, s in zip(mark_sets, fast, gaps):
                    assert as_map(b) == oracles.brute_branch_values(tree, marks, r), (parent, marks)
                    assert as_map(s) == oracles.brute_supported_gaps(tree, marks, r), (parent, marks)
                    pairs += 1
    assert pairs == 51_916


R_LISTS = ([1], [2], [3], [4], [1, 3], [2, 3], [1, 2, 3])


def test_orientation_matches_bfs_at_every_anchor():
    """from_tree gives, by the tree's own ids, the BFS orientation's
    parents with -1 at the anchor, a batch of one with every mark on its
    own id, at every anchor of 300 fuzz trees; an anchor or a mark outside
    the tree is refused."""
    rng = np.random.default_rng(12)
    for _ in range(300):
        t = sample_marked_fuzz_tree(rng, 60)
        n = t.n_vertices
        marks = {v for v in range(n) if rng.random() < 0.2}
        for anchor in range(n):
            T = OrientedTree.from_tree(t, anchor=anchor)
            parent, _ = oracles.oriented_tree_reference(t, anchor)
            assert T.parent.tolist() == [-1 if parent[v] is None else parent[v]
                                         for v in range(n)]
            assert T.parent[anchor] == -1 and T.tree.tolist() == [0] * n
            assert np.flatnonzero(T.marked).tolist() == sorted(t.marks)
            T = OrientedTree.from_tree(t, anchor=anchor, marks=marks)
            assert np.flatnonzero(T.marked).tolist() == sorted(marks)
        for anchor in (-1, n):
            with pytest.raises(ValueError, match="not in tree"):
                OrientedTree.from_tree(t, anchor=anchor)
        with pytest.raises(ValueError, match="tree 0: a parent or mark index"):
            OrientedTree.from_tree(t, marks={n})


def test_rerooting_matches_bfs_oracle():
    """The all-roots pass against the per-vertex BFS it replaced, on fuzz
    trees oriented toward the root and toward random other anchors."""
    rng = np.random.default_rng(13)
    for i in range(500):
        t = sample_marked_fuzz_tree(rng, 200)
        anchor = int(rng.integers(0, t.n_vertices)) if i % 2 else None
        T = OrientedTree.from_tree(t, anchor=anchor)
        R = oracles.DictOrientedTree.of(t, anchor)
        for r_list in R_LISTS:
            assert as_map(branch_deficiency_values(T, r_list)) == \
                oracles.bfs_branch_values(R, r_list)


def caterpillar_tree(n, rng):
    parent = [-1]
    spine = 0
    for v in range(1, n):
        parent.append(spine)
        if rng.random() < 0.5:
            spine = v
    return MarkedTree(parent)


def test_rerooting_matches_bfs_oracle_at_vertex_cap():
    """Paths and caterpillars of 5000 vertices (the CLI's max_vertices),
    anchored at the root and in the middle."""
    rng = np.random.default_rng(14)
    for t in (path_tree(5000), caterpillar_tree(5000, rng)):
        for marks in ({0, 2500}, {v for v in range(t.n_vertices) if rng.random() < 0.3}):
            for anchor in (0, 2500):
                T = OrientedTree.from_tree(t, anchor=anchor, marks=marks)
                R = oracles.DictOrientedTree.of(t, anchor, marks)
                assert as_map(branch_deficiency_values(T, [1, 2, 3])) == \
                    oracles.bfs_branch_values(R, [1, 2, 3])


def test_rerooting_on_a_large_star():
    """A star with 4999 leaves against its closed form (the BFS needs
    seconds here: every leaf's radius-2 ball is the whole star).  With L
    marked leaves and the hub marked, |A| = L + 1; at r = 1 the hub sees
    the leaves and a leaf sees the hub's cone |A| - [leaf marked]; at
    r = 2 a leaf sees the other leaves and the hub sees only the ray."""
    t = star_tree(4999)
    marks = {0} | {v for v in range(5000) if v % 3 == 0}
    n_marks = len(marks)
    L = n_marks - 1
    vals = as_map(branch_deficiency_values(OrientedTree.from_tree(t, marks=marks), [1, 2, 3]))
    leaves = range(1, 5000)
    assert vals[1] == {0: n_marks - 2, **{v: int(v in marks) for v in leaves}}
    assert vals[2] == {0: n_marks, **{v: n_marks - min(2, L - (v in marks)) for v in leaves}}
    assert vals[3] == dict.fromkeys(range(5000), n_marks)


def test_radius_beyond_the_tree_gives_all_marks():
    """r past every distance in the tree: the sphere is the ray alone, and
    no row of that depth is built."""
    t = path_tree(5000)
    marks = set(range(0, 5000, 7))
    vals = as_map(branch_deficiency_values(OrientedTree.from_tree(t, marks=marks), [1, 10**9]))
    assert vals[10**9] == dict.fromkeys(range(5000), len(marks))
    assert vals[1] == oracles.bfs_branch_values(oracles.DictOrientedTree.of(t, 0, marks), [1])[1]


def test_branch_values_argument_checks():
    with pytest.raises(ValueError, match="single-anchor"):
        branch_deficiency_values(TreeBatch.fold([([-1, -1, 0], {2})]), [1])
    two_tops = oracles.auxiliary_tree(oracles.DictOrientedTree.of(path_tree(6), 0, {5}), 1, 2)
    assert len(two_tops.tops()) == 2
    with pytest.raises(ValueError, match="single-anchor"):
        branch_deficiency_values(TreeBatch.fold([two_tops.flat()]), [1, 2])
    T = OrientedTree.from_tree(path_tree(3), marks={0})
    with pytest.raises(ValueError, match="r must be"):
        branch_deficiency_values(T, [0, 1])
    with pytest.raises(ValueError, match="nonempty"):
        branch_deficiency_values(OrientedTree.from_tree(path_tree(3), marks=set()), [1])

# --- the batch kernel -----------------------------------------------------------


def mixed_forest(rng):
    """(tree, anchor, marks) of every shape the kernel must handle in one
    batch: single vertices, 500-vertex paths and stars (marked at the hub,
    at a leaf, or everywhere), and fuzz trees anchored at the root or
    elsewhere; anchor None is the root and marks None the tree's own."""
    forest = [(path_tree(1), None, {0})]
    for marks in ({0}, {499}, set(range(500))):
        forest.append((path_tree(500), None, marks))
        forest.append((star_tree(499), None, marks))
    forest.append((path_tree(500), 250, {3, 499}))
    forest.append((star_tree(499), 7, {0, 7, 8}))
    for i in range(40):
        t = sample_marked_fuzz_tree(rng, 80)
        forest.append((t, int(rng.integers(0, t.n_vertices)) if i % 2 else None, None))
        if i % 10 == 0:
            forest.append((path_tree(1), None, {0}))
    rng.shuffle(forest)
    return forest


def reference_batch(forest):
    """The forest oriented by the dict oracles, and those orientations
    folded into one batch."""
    refs = [oracles.DictOrientedTree.of(*spec) for spec in forest]
    return refs, TreeBatch.fold(R.flat() for R in refs)


def per_tree(batch, values):
    """Split a batch array into one array per tree."""
    return np.split(values, np.cumsum(batch.sizes)[:-1])


R_GRID = [3, 1, 10**9, 1, 2]  # unsorted, repeated, and past every tree


def test_batch_matches_the_dict_pass_and_the_bfs():
    """One kernel call over a mixed batch gives, tree by tree, the dict
    rerooting pass it replaced and the per-vertex BFS; each tree oriented
    by from_tree (a batch of one) gives them too."""
    forest = mixed_forest(np.random.default_rng(15))
    refs, batch = reference_batch(forest)
    assert batch.n_vertices == sum(R.n_vertices for R in refs)
    assert batch.sizes.tolist() == [R.n_vertices for R in refs]
    assert batch.n_marks.tolist() == [R.n_marks for R in refs]
    vals = branch_deficiency_values(batch, R_GRID)
    assert list(vals) == [1, 2, 3, 10**9]
    assert all(v.dtype == np.int32 and len(v) == batch.n_vertices for v in vals.values())
    split = {r: per_tree(batch, v) for r, v in vals.items()}
    for i, (spec, R) in enumerate(zip(forest, refs)):
        ref = oracles.branch_deficiency_values_reference(R, R_GRID)
        assert ref == oracles.bfs_branch_values(R, R_GRID)
        assert {r: as_map(split[r][i]) for r in split} == ref
        assert as_map(branch_deficiency_values(OrientedTree.from_tree(*spec), R_GRID)) == ref


def test_batch_supported_gaps_match_the_references():
    """Every tree's gaps in a mixed batch, against the dict pass and the
    ancestor-walk brute force, -1 exactly where a vertex has no depth-r
    descendant; r = 10**9 takes no parent walk at all."""
    forest = mixed_forest(np.random.default_rng(16))
    refs, batch = reference_batch(forest)
    for r in (1, 2, 3, 10**9):
        gaps = supported_gap_values(batch, r)
        assert gaps.dtype == np.int32 and gaps.min() >= -1
        for (t, anchor, _), R, got in zip(forest, refs, per_tree(batch, gaps)):
            ref = oracles.supported_gap_values_reference(R, r)
            assert as_map(got) == ref
            assert as_map(supported_gap_values(OrientedTree.from_tree(t, anchor, R.marks), r)) \
                == ref
            if R.n_vertices <= 80 and r <= 3:
                assert ref == oracles.brute_supported_gaps(t, R.marks, r, anchor)


def test_batch_counts_per_tree():
    """count_at_least counts, per tree and k, the vertices at or above k,
    for unsorted and repeated k grids and k past every value, also past
    the int64 range."""
    forest = mixed_forest(np.random.default_rng(17))
    _, batch = reference_batch(forest)
    k_grid = [8, 1, 9, 1, 10**12, 500, 2**70]
    for values in (*branch_deficiency_values(batch, [1, 2]).values(),
                   supported_gap_values(batch, 2)):
        counts = batch.count_at_least(values, k_grid)
        assert counts.shape == (len(forest), len(k_grid))
        for row, vals in zip(counts.tolist(), per_tree(batch, values)):
            assert row == [int((vals >= k).sum()) for k in k_grid]


def test_kernel_runs_cover_the_batch(monkeypatch):
    """The rerooting rows work through the batch a run of whole trees at
    a time; any run size, including runs smaller than one tree, gives the
    values of one pass over the whole batch."""
    _, batch = reference_batch(mixed_forest(np.random.default_rng(18)))
    whole = branch_deficiency_values(batch, [1, 2, 3])
    for run in (1, 37, 600):
        monkeypatch.setattr(magic, "_RUN", run)
        split = branch_deficiency_values(batch, [1, 2, 3])
        assert all(np.array_equal(split[r], whole[r]) for r in whole)


def test_rows_stop_at_twice_the_height(monkeypatch):
    """No rerooting row is built beyond twice the batch's height, so
    r = 10**9 costs no row, and an all-single-vertex batch none at all."""
    lasts = []
    rerooting = magic._rerooting

    def counted(parent, sub, marks, last):
        lasts.append(last)
        return rerooting(parent, sub, marks, last)

    monkeypatch.setattr(magic, "_rerooting", counted)
    batch = TreeBatch.fold([(path_tree(4).parent, {0}), (star_tree(3).parent, {1})])
    assert branch_deficiency_values(batch, [10**9])[10**9].tolist() == [1] * 8
    assert lasts == []
    branch_deficiency_values(batch, [2, 10**9, 1])
    assert lasts == [2]
    single = TreeBatch.fold([([-1], {0}), ([-1], [0])])
    assert branch_deficiency_values(single, [1, 3])[1].tolist() == [1, 1]
    assert supported_gap_values(single, 1).tolist() == [-1, -1]
    assert lasts == [2]


def test_batch_refusals():
    """A tree without marks, a tree with several tops (branching only), a
    tree whose parent links form a cycle and r < 1 are refused for the
    whole batch; a parent or mark index outside its own tree is refused
    by fold."""
    good = (path_tree(3).parent, {0})
    for bad in [([-1, 0, 3], {0}), ([-1, 0, -2], {0}), ([-1, 0, 0], {3}), ([-1, 0, 0], {-1})]:
        with pytest.raises(ValueError, match="tree 1: a parent or mark index"):
            TreeBatch.fold([good, bad, good])
    unmarked = TreeBatch.fold([good, (path_tree(3).parent, set())])
    with pytest.raises(ValueError, match="nonempty"):
        branch_deficiency_values(unmarked, [1])
    with pytest.raises(ValueError, match="nonempty"):
        supported_gap_values(unmarked, 1)
    two_tops = TreeBatch.fold([good, ([-1, -1, 0], {2})])
    with pytest.raises(ValueError, match="single-anchor"):
        branch_deficiency_values(two_tops, [1])
    assert supported_gap_values(two_tops, 1).tolist() == [0, 0, -1, 1, -1, -1]
    for cyclic in ([1, 0], [0], [-1, 2, 1]):
        batch = TreeBatch.fold([good, (cyclic, {0})])
        with pytest.raises(ValueError, match="tree 1: the parent links form a cycle"):
            supported_gap_values(batch, 1)
        # a parent list without a top is refused before its links are followed
        with pytest.raises(ValueError, match="cycle" if -1 in cyclic else "single-anchor"):
            branch_deficiency_values(batch, [1])
    batch = TreeBatch.fold([good])
    with pytest.raises(ValueError, match="r must be"):
        branch_deficiency_values(batch, [1, 0])
    with pytest.raises(ValueError, match="r must be"):
        supported_gap_values(batch, 0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_climb_matches_a_walk_up_the_parents(seed):
    """On a parent list with shuffled ids and several tops, the batch's
    height and subtree mark counts match a walk up the parents from every
    vertex; the same list with one vertex re-parented to itself or to a
    vertex below it (a cycle) is refused."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    order = rng.permutation(n).tolist()  # each parent comes earlier in order
    parent = [-1] * n
    for i in range(1, n):
        if rng.random() < 0.8:
            parent[order[i]] = order[int(rng.integers(0, i))]
    marks = {v for v in range(n) if rng.random() < 0.4}

    def up(v):
        """v and its ancestors, up to its top."""
        path = [v]
        while parent[path[-1]] >= 0:
            path.append(parent[path[-1]])
        return path

    height, sub = TreeBatch.fold([(parent, marks)])._climb
    walk_sub = [0] * n
    for v in marks:
        for a in up(v):
            walk_sub[a] += 1
    assert height == max(len(up(v)) - 1 for v in range(n))
    assert sub.tolist() == walk_sub
    u = int(rng.integers(0, n))
    path = up(u)
    parent[path[int(rng.integers(0, len(path)))]] = u
    with pytest.raises(ValueError, match="tree 0: the parent links form a cycle"):
        TreeBatch.fold([(parent, marks)])._climb


def test_dict_pass_reference_at_every_anchor():
    """The one-tree maps against the moved dict pass, on fuzz trees
    oriented toward every vertex in turn."""
    rng = np.random.default_rng(19)
    for _ in range(60):
        t = sample_marked_fuzz_tree(rng, 40)
        for anchor in range(t.n_vertices):
            T = OrientedTree.from_tree(t, anchor=anchor)
            R = oracles.DictOrientedTree.of(t, anchor)
            assert as_map(branch_deficiency_values(T, [2, 1, 3])) == \
                oracles.branch_deficiency_values_reference(R, [1, 2, 3])
            assert as_map(supported_gap_values(T, 2)) == \
                oracles.supported_gap_values_reference(R, 2)


def test_anchor_choice_does_not_change_branching():
    """Branching is orientation-free; the virtual ray only guarantees a
    non-empty sphere, so any anchor gives the same set."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        t = oracles.random_marked_tree(rng, 24)
        anchors = range(min(3, t.n_vertices))
        sets = [
            at_least(branch_deficiency_values(OrientedTree.from_tree(t, anchor=a), [2])[2], 2)
            for a in anchors
        ]
        assert all(s == sets[0] for s in sets)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_relabeling_invariance(seed):
    rng = np.random.default_rng(seed)
    t = oracles.random_marked_tree(rng, 20)
    # new ids in order of depth, shuffled within each depth: parents still
    # come first
    order = sorted(range(t.n_vertices), key=lambda v: (t.depth[v], rng.random()))
    perm = {v: i for i, v in enumerate(order)}
    t2 = MarkedTree([-1, *(perm[t.parent[v]] for v in order[1:])])
    t2.marks = {perm[v] for v in t.marks}
    B1 = at_least(branch_deficiency_values(OrientedTree.from_tree(t), [2])[2], 2)
    B2 = at_least(branch_deficiency_values(OrientedTree.from_tree(t2), [2])[2], 2)
    assert B2 == {perm[v] for v in B1}


# --- the counting bounds ------------------------------------------------------


def test_supported_bound_holds_universally():
    """The flow argument bounds the supported count by r(2|A|-k)/k; this
    holds on every fuzz input at every tested (k, r)."""
    rng = np.random.default_rng(6)
    for _ in range(1500):
        t = sample_marked_fuzz_tree(rng, 150)
        T = OrientedTree.from_tree(t)
        nA = len(t.marks)
        for r in (1, 2, 3):
            counts = T.count_at_least(supported_gap_values(T, r), range(1, 9))[0]
            for k, count in zip(range(1, 9), counts.tolist()):
                assert count <= max(r * (2 * nA - k) / k, 0.0)


def test_branching_bound_holds_at_radius_one():
    rng = np.random.default_rng(7)
    for _ in range(1500):
        t = sample_marked_fuzz_tree(rng, 150)
        T = OrientedTree.from_tree(t)
        counts = T.count_at_least(branch_deficiency_values(T, [1])[1], range(1, 9))[0]
        nA = len(t.marks)
        for k, count in zip(range(1, 9), counts.tolist()):
            assert count <= max((2 * nA - k) / k, 0.0)


def test_branching_bound_counterexamples_at_larger_radius():
    """The branching count genuinely exceeds r(2|A|-k)/k for r >= 2.

    Hand-checkable witnesses, confirmed against the brute force: a
    five-vertex path with one central mark at (k, r) = (1, 2), a hub with
    six marked leaves and one long limb at (4, 2), and stars with m leaves
    and only the hub marked at (1, 2).  Every vertex of such a star is
    branching, so the count m+1 grows without bound at fixed |A| = 1: no
    bound in |A|, k and r exists, and acceptance criterion 1 reports the
    r >= 2 branching excess instead of asserting against it.
    """
    t = path_tree(5)
    A = {2}
    B = at_least(branch_deficiency_values(OrientedTree.from_tree(t, marks=A), [2])[2], 1)
    assert B == oracles.brute_branching(t, A, 1, 2) == {1, 2, 3}
    assert len(B) == 3 > 2 * (2 * len(A) - 1) / 1

    hub = MarkedTree([-1, *[0] * 9, 1, 10, 11])  # a limb 1-10-11-12
    A = set(range(2, 8))  # six marked leaves
    B = at_least(branch_deficiency_values(OrientedTree.from_tree(hub, marks=A), [2])[2], 4)
    assert B == oracles.brute_branching(hub, A, 4, 2)
    assert len(B) > 2 * (2 * len(A) - 4) / 4

    for m in (3, 10, 50):
        star = star_tree(m)
        A = {0}
        B = at_least(branch_deficiency_values(OrientedTree.from_tree(star, marks=A), [2])[2], 1)
        assert B == oracles.brute_branching(star, A, 1, 2) == set(range(m + 1))
        assert len(B) == m + 1 > 2 * (2 * len(A) - 1) / 1


def test_magic_bound_check_report():
    """counting_bound on a depth-5 binary tree with all 63 vertices
    marked, and below zero at k > 2|A|, where no vertex is branching."""
    assert counting_bound(63, 4, 2) == pytest.approx(2 * (2 * 63 - 4) / 4)
    assert counting_bound(1, 3, 1) < 0
    T = OrientedTree.from_tree(path_tree(3), marks={0})
    assert at_least(branch_deficiency_values(T, [1])[1], 3) == set()


def test_bound_formula_example():
    """A star with ten marked leaves at (k, r) = (4, 2)."""
    assert counting_bound(10, 4, 2) == pytest.approx(2 * (20 - 4) / 4)
    assert counting_bound(10, 4, 2) == pytest.approx(8.0)


# --- relation between branching and supported ---------------------------------


def test_unmarked_branching_implies_supported_at_radius_one():
    """At r = 1 an unmarked branching vertex with a child is supported at
    the same k (marks at u itself are the only slack source)."""
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(400):
        t = oracles.random_marked_tree(rng, 28)
        T = OrientedTree.from_tree(t)
        vals = branch_deficiency_values(T, [1])[1]
        gaps = as_map(supported_gap_values(T, 1))
        for u, val in enumerate(vals.tolist()):
            if u not in gaps or u in t.marks:
                continue
            for k in range(1, 9):
                if val >= k:
                    checked += 1
                    assert gaps[u] >= k
    assert checked > 100


def test_branching_supported_slack_identity():
    """gap(u) >= value(u) - (mark at u + sideways marks meeting u below
    height r), for every u with a depth-r descendant: the up-direction
    pair with the heaviest descendant witnesses the inequality."""
    rng = np.random.default_rng(9)
    for _ in range(300):
        t = oracles.random_marked_tree(rng, 26)
        T = OrientedTree.from_tree(t)
        for r in (1, 2, 3):
            vals = branch_deficiency_values(T, [r])[r]
            gaps = as_map(supported_gap_values(T, r))
            for u, gap in gaps.items():
                slack = len(oracles.implication_slack_marks(t, t.marks, u, r))
                assert gap >= vals[u] - slack


# --- auxiliary trees -----------------------------------------------------------


def test_auxiliary_tree_r1_is_identity():
    rng = np.random.default_rng(10)
    t = oracles.random_marked_tree(rng, 25)
    T = oracles.DictOrientedTree.of(t)
    T1 = oracles.auxiliary_tree(T, 1, 1)
    assert T1.parent == T.parent
    assert T1.layer == T.layer


def test_auxiliary_tree_path_alternates():
    T = oracles.DictOrientedTree.of(path_tree(5), marks={0})
    Tm = oracles.auxiliary_tree(T, 2, 2)
    # layers 0..4; class m=2 mod 2 = {0, 2, 4}: those keep descendants
    internal = set(Tm.parent.values()) - {None}
    assert internal == {0, 2}
    assert set(Tm.parent) == set(T.parent)


def test_auxiliary_tree_binary_example():
    t = binary_tree(4)
    T = oracles.DictOrientedTree.of(t, marks={0})
    Tm = oracles.auxiliary_tree(T, 1, 2)
    internal = set(Tm.parent.values()) - {None}
    assert internal == {v for v in range(t.n_vertices) if t.depth[v] in (1, 3)}
    assert Tm.n_vertices == t.n_vertices


def test_residue_class_supported_implication():
    """A class vertex that is (k, r)-supported in the tree is
    (k, 1)-supported in the class contraction."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        t = oracles.random_marked_tree(rng, 30)
        T = OrientedTree.from_tree(t)
        R = oracles.DictOrientedTree.of(t)
        for r in (2, 3):
            gaps_r = as_map(supported_gap_values(T, r))
            for m in range(1, r + 1):
                Tm = oracles.auxiliary_tree(R, m, r)
                gaps_m = as_map(supported_gap_values(TreeBatch.fold([Tm.flat()]), 1))
                for v, gap in gaps_r.items():
                    if R.layer[v] % r != m % r:
                        continue
                    for k in range(1, 9):
                        if gap >= k:
                            assert v in gaps_m and gaps_m[v] >= k


# --- ends profile (the oracle) ----------------------------------------------------


def test_ends_profile_path_and_star():
    t = path_tree(5)
    prof = ends_profile(t.adjacency(), {0, 4}, 2, 0, 1)
    assert prof.qualifying == 2
    prof = ends_profile(star_tree(3).adjacency(), {1, 2, 3}, 0, 0, 1)
    assert prof.qualifying == 3
    assert prof.census == [(1, 1), (1, 1), (1, 1)]


def test_ends_profile_binary_tree():
    t = binary_tree(6)
    leaves = {v for v in range(t.n_vertices) if not t.children[v]}
    prof0 = ends_profile(t.adjacency(), leaves, 0, 0, 4)
    assert prof0.qualifying == 2
    assert prof0.census[0] == (63, 32)
    # the closed radius-1 ball removes the root and both children
    prof1 = ends_profile(t.adjacency(), leaves, 0, 1, 4)
    assert prof1.removed == 3
    assert prof1.qualifying == 4
    assert prof1.census[0] == (31, 16)


def test_ends_profile_against_networkx():
    import networkx as nx

    rng = np.random.default_rng(12)
    for _ in range(40):
        t = oracles.random_marked_tree(rng, 40)
        center = int(rng.integers(0, t.n_vertices))
        radius = int(rng.integers(0, 3))
        prof = ends_profile(t.adjacency(), t.marks, center, radius, 1)
        G = nx.Graph()
        G.add_nodes_from(range(t.n_vertices))
        G.add_edges_from(t.edges())
        ball = {
            v
            for v in G
            if nx.shortest_path_length(G, center, v) <= radius
        }
        H = G.subgraph(set(G) - ball)
        census = sorted(
            (
                (len(c), len(c & t.marks))
                for c in nx.connected_components(H)
            ),
            reverse=True,
        )
        assert prof.census == census
        assert prof.qualifying == sum(1 for _, m in census if m >= 1)


def test_ends_profile_errors():
    with pytest.raises(ValueError):
        ends_profile(path_tree(3).adjacency(), {0}, 99, 1, 1)
    with pytest.raises(ValueError):
        ends_profile(path_tree(3).adjacency(), {0}, 0, -1, 1)
    with pytest.raises(ValueError):
        ends_profile(path_tree(3).adjacency(), {0}, 0, 1, 0)
