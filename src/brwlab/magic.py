"""Branching and supported values of marked trees, and the counting bound.

All definitions are evaluated on the tree augmented by a virtual infinite
ray at an anchor vertex, so every vertex has vertices at distance exactly
r in at least one direction.  Virtual vertices carry no marks and are
never reported.

For a vertex u and a vertex v at distance exactly r, the direction count
A_{u,v} is the number of marks whose path from u passes through v
(including v itself when marked).  u is (k,r)-branching when
|A| - |A_{u,v} u A_{u,w}| >= k for every unordered pair (v, w), v = w
permitted.  v is (k,r)-supported when it has at least one real descendant
w at depth exactly r below it and |A_v| - |A_w| >= k for all such w, where
A_v counts marks strictly below v.

The flow-counting argument bounds the number of (k,r)-supported vertices
by r(2|A| - k)/k at every r, and the number of (k,1)-branching vertices by
the same expression at r = 1.  For r >= 2 the branching count has no bound
in |A|, k and r under this definition: a star with m leaves and only its
hub marked has m+1 (1,2)-branching vertices.

Both values have one kernel: whole-array numpy passes over a `TreeBatch`,
a flat forest of oriented trees held as int32 parent indices, marks and a
tree id per vertex, so a batch of many trees costs a few array operations
per row rather than Python work per vertex.  `TreeBatch.count_at_least`
turns the values into per-tree counts.  `OrientedTree.from_tree` orients
one MarkedTree toward an anchor as a batch of one, so its values are
indexed by the tree's own vertex ids.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .groups import check_count
from .gw import MarkedTree


class TreeBatch:
    """A flat forest of oriented trees: the counting kernel's input.

    Vertices are indices 0..n-1, each tree a consecutive block of them.
    parent[v] is the index of v's parent, or -1 at a top (a vertex whose
    parent is a virtual ray vertex); tree[v] is the id of v's tree, 0 to
    n_trees - 1; marked[v] says whether v is marked.  parent and tree are
    int32 arrays.  Nothing mutates them once built.
    """

    def __init__(self, parent, tree, marked, n_trees: int):
        self.parent = parent
        self.tree = tree
        self.marked = marked
        self.n_trees = n_trees

    @classmethod
    def fold(cls, trees) -> "TreeBatch":
        """One batch from an iterable of (parent list, marks) pairs, each
        read into int32 arrays as it comes, so no tree's lists have to
        outlive its fold.  A parent list gives each vertex's parent as an
        index into the same list, -1 at a top, and marks are indices too
        (MarkedTree.parent and .marks are such a pair).  Each tree's
        indices are offset past the trees before it, once, over the whole
        batch; an index outside its own tree is refused."""
        parent, marks = [], []
        for tree_parent, tree_marks in trees:
            parent.append(np.array(tree_parent, dtype=np.int32))
            marks.append(np.fromiter(tree_marks, dtype=np.int32, count=len(tree_marks)))
        ids = np.arange(len(parent), dtype=np.int32)
        sizes = np.array([len(p) for p in parent], dtype=np.int32)
        offsets = np.cumsum(sizes, dtype=np.int32) - sizes
        tree = np.repeat(ids, sizes)
        mark_tree = np.repeat(ids, [len(m) for m in marks])
        parent = np.concatenate(parent or [tree[:0]])
        marks = np.concatenate(marks or [tree[:0]])
        outside = np.concatenate([tree[(parent < -1) | (parent >= sizes[tree])],
                                  mark_tree[(marks < 0) | (marks >= sizes[mark_tree])]])
        if len(outside):
            raise ValueError(f"tree {outside.min()}: a parent or mark index lies outside "
                             "the tree")
        top = parent < 0
        parent += offsets[tree]
        parent[top] = -1
        flags = np.zeros(len(parent), dtype=bool)
        flags[marks + offsets[mark_tree]] = True
        return cls(parent, tree, flags, len(sizes))

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    @cached_property
    def sizes(self):
        """Vertices per tree."""
        return np.bincount(self.tree, minlength=self.n_trees)

    @cached_property
    def n_marks(self):
        """Marks per tree."""
        return np.bincount(self.tree[self.marked], minlength=self.n_trees)

    def _links(self):
        """parent with one more entry, -1, at index n: indexing with -1
        reads that entry, so a chain of links stays at -1 past a top."""
        return np.append(self.parent, np.int32(-1))

    @cached_property
    def _climb(self):
        """(height, sub): the largest distance of a vertex to its top, and
        the marks at or below each vertex.  Pointer doubling: while hop
        holds each vertex's 2^i-th ancestor (-1: none), depth is
        min(depth, 2^i) and sub covers the descendants fewer than 2^i
        levels below, so O(log height) whole-batch steps give both.  Slot
        n of depth and add is the one that index -1 reads or writes.  No
        vertex is more than n - 1 links below its top, so a hop that is
        not -1 after n.bit_length() doublings leads into a cycle, which is
        refused."""
        n = self.n_vertices
        hop = self._links()
        depth = (hop >= 0).astype(np.int32)
        sub = self.marked.astype(np.int32)
        for _ in range(n.bit_length() + 1):
            if not n or hop[:n].max() < 0:
                break
            add = np.zeros(n + 1, dtype=np.int32)
            np.add.at(add, hop[:n], sub)
            sub += add[:n]
            depth += depth[hop]
            hop = hop[hop]
        else:
            cyclic = self.tree[hop[:n] >= 0]
            raise ValueError(f"tree {cyclic.min()}: the parent links form a cycle")
        return int(depth.max()), sub

    def count_at_least(self, values, k_grid):
        """Per tree, the number of vertices whose value is >= k, for each
        k of k_grid: an (n_trees, len(k_grid)) array, from one bincount
        over (tree, how many distinct k a value reaches) summed from the
        top level down."""
        ks = sorted(set(k_grid))
        # clipping a k above every value keeps it in their integer range
        top = int(values.max(initial=0)) + 1
        level = np.searchsorted([min(k, top) for k in ks], values, side="right")
        width = len(ks) + 1
        table = np.bincount(self.tree * width + level, minlength=self.n_trees * width)
        at_least = table.reshape(self.n_trees, width)[:, ::-1].cumsum(axis=1)[:, ::-1]
        return at_least[:, [ks.index(k) + 1 for k in k_grid]]


class OrientedTree(TreeBatch):
    """A MarkedTree oriented toward a virtual ray at an anchor: a batch of
    one, indexed by the tree's own ids, with -1 at the anchor."""

    @classmethod
    def from_tree(cls, tree: MarkedTree, anchor=None, marks=None) -> "OrientedTree":
        """Orient a MarkedTree toward a ray attached at the anchor
        (default: the tree's root), marked at the given ids (default: the
        tree's marks)."""
        if anchor is None:
            anchor = tree.root
        if anchor not in range(tree.n_vertices):
            raise ValueError(f"anchor {anchor} not in tree")
        if marks is None:
            marks = tree.marks or ()
        # flip the parent pointers on the anchor's path to the root; every
        # other vertex keeps its parent
        parent = list(tree.parent)
        v, below = anchor, -1
        while v >= 0:
            up = parent[v]
            parent[v] = below
            v, below = up, v
        return cls.fold([(parent, marks)])


def _require_marks(batch: TreeBatch):
    if not batch.n_marks.all():
        raise ValueError("the marked set must be nonempty")


# the rerooting rows run over consecutive whole trees of about this many
# vertices at a time, so their working memory is bounded by a run rather
# than by the batch
_RUN = 1 << 15


def _zeros(size):
    return np.zeros(size, dtype=np.int32)


def _rerooting(parent, sub, marks, last: int):
    """Rows 1..last of the rerooting pass over a forest of single-top
    trees (parent: int32 indices, -1 at a top; sub and marks per vertex):
    yields (j, the sum of the top two cones on each vertex's distance-j
    sphere)."""
    n = len(parent)
    # the children, grouped by parent (tops sort first): a block of slots
    # per parent with children; a slot's key holds its child's down1 in
    # the high 32 bits and the slot's own index in the low ones
    kid = np.argsort(parent, kind="stable")[int((parent < 0).sum()):].astype(np.int32)
    par = parent[kid]
    start = np.flatnonzero(np.diff(par, prepend=-1)).astype(np.int32)
    size = np.diff(start, append=np.int32(len(kid)))
    owner = par[start]
    del par

    def best(key):
        """Each block's largest down1 (ties go to the later slot; which
        one does not change a value) and the vertex holding it; its key is
        then knocked out, so the next call gives the runner-up.  A block
        with no key left gives 0 and no vertex (has is False)."""
        k = np.maximum.reduceat(key, start)
        has = k >= 0
        slot = k[has] & 0xFFFFFFFF
        key[slot] = -1
        return np.maximum(k >> 32, 0).astype(np.int32), has, kid[slot]

    def step():
        """Row j from row j - 1, in place."""
        # each vertex's up row: the top two of its parent's up row and its
        # excl, (max(p1, x1), max(min(p1, x1), p2, x2))
        pu1, pu2 = up1[parent], up2[parent]
        np.maximum(pu1, ex1, out=up1[:n])
        np.minimum(pu1, ex1, out=pu1)
        np.maximum(pu2, ex2, out=pu2)
        np.maximum(pu1, pu2, out=up2[:n])
        del pu1, pu2
        # each parent's best child's pair (a1, b1), the runner-up's
        # (a2, b2) and the third-best a3
        key = down1[kid].astype(np.int64)
        key <<= 32
        key |= np.arange(len(kid), dtype=np.int32)
        a1, _, c1 = best(key)
        a2, has2, c2 = best(key)
        a3, _, _ = best(key)
        del key
        b1 = down2[c1]
        b2 = np.zeros_like(a2)
        b2[has2] = down2[c2]
        down1.fill(0)
        down1[owner] = a1
        down2.fill(0)
        down2[owner] = np.maximum(b1, a2)
        # the parent's down row without each child's branch: dropping the
        # best child promotes the runner-up, dropping the runner-up the third
        ex1[kid] = np.repeat(a1, size)
        ex1[c1] = a2
        ex2[kid] = np.repeat(down2[owner], size)
        ex2[c1] = np.maximum(b2, a3)
        ex2[c2] = np.maximum(b1[has2], a3[has2])

    # row 0: a child's own cone below its parent, and the parent's cone
    # (everything outside the child's subtree) seen from the child; up
    # rows have a slot n, the ray above every top (a top's parent -1 reads
    # it), which stays 0 as the ray carries no marks, and the tops' excl
    # stays 0 (sub = |A| there)
    down1, down2 = sub.copy(), _zeros(n)
    up1, up2 = _zeros(n + 1), _zeros(n + 1)
    ex1, ex2 = marks - sub, _zeros(n)
    for j in range(1, last + 1):
        step()
        # the top two of (down1, down2) and (up1, up2)
        top_two = np.maximum(down1, up1[:n])
        low = np.minimum(down1, up1[:n])
        np.maximum(low, down2, out=low)
        np.maximum(low, up2[:n], out=low)
        top_two += low
        del low
        yield j, top_two


def branch_deficiency_values(batch: TreeBatch, r_list) -> dict:
    """For each r in r_list, every vertex's |A| - (largest + second
    largest direction count over its distance-r sphere), |A| counting the
    marks of the vertex's own tree: {r: int32 array over the batch's
    vertices}, r in ascending order.

    u is (k,r)-branching iff this value is >= k.  Distinct sphere vertices
    carry disjoint mark sets, so the worst pair is always the top two (or
    the single direction doubled when the sphere has one vertex).  A cone
    of 0 never changes that sum, so absent or virtual (ray) sphere
    vertices are padding zeros and a sphere of one vertex needs no rule.

    All roots at once, by rerooting: row j holds, for every vertex u, the
    top two cones on the distance-j sphere of u, split into the part
    below u (down) and the part reached through u's parent (up):

      down_j(u) = merge of down_{j-1}(c) over the children c of u,
                  starting from down_0(c) = (sub[c], 0);
      up_j(u)   = merge of up_{j-1}(p) and excl_{j-1}(u), p = parent of u,
                  where excl_{j-1}(u) is down_{j-1}(p) without u's branch
                  and excl_0(u) = (|A| - sub[u], 0) is p itself.

    Dropping u's branch can drop both of p's top two, so each fold also
    keeps the runner-up child's pair and the third-best child's top cone:
    three np.maximum.reduceat passes over the children, grouped by parent
    once by a stable argsort.  Each row is a few dozen whole-array
    operations that read only the previous row, so the cost is
    O(n log n + n * r_max) time.  The rows run over consecutive whole trees
    of about _RUN vertices at a time, so the memory beyond the returned
    rows is bounded by a run.  No two vertices are farther apart than
    twice the height, and every r beyond that gives |A| without a row.
    Every tree must have one top and at least one mark.
    """
    _require_marks(batch)
    tops = np.bincount(batch.tree[batch.parent < 0], minlength=batch.n_trees)
    if (tops != 1).any():
        raise ValueError("branching needs a single-anchor orientation")
    r_list = list(r_list)
    for r in r_list:
        check_count("r", r, 1)
    r_list = sorted(set(r_list))
    height, sub = batch._climb
    marks = batch.n_marks.astype(np.int32)[batch.tree]  # |A| of each vertex's tree
    out = {r: marks.copy() if r > 2 * height else np.empty_like(marks) for r in r_list}
    wanted = [r for r in r_list if r <= 2 * height]
    bounds = [0, batch.n_vertices] if wanted else []
    if wanted and batch.n_vertices > _RUN:
        offsets = np.r_[0, np.cumsum(batch.sizes)]
        first = np.flatnonzero(np.diff(offsets[:-1] // _RUN, prepend=-1))  # trees opening a run
        bounds = offsets[np.r_[first, batch.n_trees]].tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        parent = batch.parent[lo:hi] - lo
        parent[parent < 0] = -1
        for j, top_two in _rerooting(parent, sub[lo:hi], marks[lo:hi], wanted[-1]):
            if j in wanted:
                np.subtract(marks[lo:hi], top_two, out=out[j][lo:hi])
    return out


def supported_gap_values(batch: TreeBatch, r: int):
    """For each vertex with at least one depth-r descendant, the worst-case
    mark gap |A_v| - max_w |A_w| over those descendants: an int32 array
    over the batch's vertices, -1 at the vertices without one.

    A vertex is (k, r)-supported iff its gap is >= k.  One subtree-count
    pass, then r whole-batch gathers of the parent index give every
    vertex's r-th ancestor, and one np.maximum.at keeps each ancestor's
    largest |A_w|.  Tops may be several per tree.
    """
    _require_marks(batch)
    check_count("r", r, 1)
    n = batch.n_vertices
    height, sub = batch._climb
    gaps = np.full(n, -1, dtype=np.int32)
    if r > height:
        return gaps
    strict = sub - batch.marked  # |A_w|: marks strictly below w
    links = batch._links()
    ancestor = links[:n]
    for _ in range(r - 1):
        ancestor = links[ancestor]
    best = np.full(n + 1, -1, dtype=np.int32)  # slot n (index -1): no r-th ancestor
    np.maximum.at(best, ancestor, strict)
    del ancestor, links
    has = best[:n] >= 0
    gaps[has] = strict[has] - best[:n][has]
    return gaps


def counting_bound(n_marks: int, k: int, r: int) -> float:
    """r(2|A| - k)/k, the flow-counting bound on (k, r)-supported vertices
    (and on (k, 1)-branching ones); negative when k > 2|A|."""
    return r * (2.0 * n_marks - k) / k

