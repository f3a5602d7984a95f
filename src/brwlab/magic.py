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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import groups
from .gw import MarkedTree


class OrientedTree:
    """Rooted orientation of a finite tree toward a virtual end.

    Every real vertex has a parent: a real vertex, or (for top vertices)
    a virtual ray vertex.  layer is depth relative to the anchor, anchor
    in layer 0.  One built from a parent map may have several top vertices.
    The parent and layer maps are kept as given, not copied: nothing
    mutates them.
    """

    def __init__(self, parent: dict, layer: dict, marks):
        self.parent = parent
        self.layer = layer
        self.marks = frozenset(marks) if marks is not None else frozenset()

    @classmethod
    def from_tree(cls, tree: MarkedTree, anchor=None, marks=None) -> "OrientedTree":
        """Orient a MarkedTree toward a ray attached at the anchor
        (default: the tree's root)."""
        if anchor is None:
            anchor = tree.root
        if anchor not in tree.parent:
            raise ValueError(f"anchor {anchor} not in tree")
        if marks is None:
            marks = tree.marks or set()
        bad = [v for v in marks if v not in tree.parent]
        if bad:
            raise ValueError(f"marks outside the tree: {bad[:3]}")
        # flip the parent pointers on the anchor's path to the root; every
        # other vertex keeps its parent, which the parent map lists first
        parent = dict(tree.parent)
        layer = {}
        v, below = anchor, None
        while v is not None:
            parent[v] = below
            layer[v] = len(layer)
            v, below = tree.parent[v], v
        for v, p in parent.items():
            if v not in layer:
                layer[v] = layer[p] + 1
        return cls(parent, layer, marks)

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    @property
    def n_marks(self) -> int:
        return len(self.marks)

    @cached_property
    def children(self) -> dict:
        """Children lists in parent-map order, built in one pass on first
        read (the counting passes never read them)."""
        children = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                children[p].append(v)
        return children

    def tops(self):
        return [v for v, p in self.parent.items() if p is None]

    def adjacency(self):
        return groups.adjacency(
            self.parent, ((v, p) for v, p in self.parent.items() if p is not None))

    @cached_property
    def subtree_mark_counts(self) -> dict:
        """Marks at or below each vertex, counted on first read."""
        order = sorted(self.parent, key=lambda v: self.layer[v], reverse=True)
        sub = {v: (1 if v in self.marks else 0) for v in self.parent}
        for v in order:
            p = self.parent[v]
            if p is not None:
                sub[p] += sub[v]
        return sub


def _require_marks(T: OrientedTree):
    if not T.marks:
        raise ValueError("the marked set must be nonempty")


def branch_deficiency_values(T: OrientedTree, r_list) -> dict:
    """For each r in r_list, a map u -> |A| - (largest + second largest
    direction count over the distance-r sphere of u).

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
    keeps the runner-up child's pair and the third-best child's top cone.
    Each row reads only the previous one, so the cost is O(n * r_max)
    time and O(n) memory.  No two vertices are farther apart than twice
    the height, and every r beyond that gives |A| without a row.
    """
    _require_marks(T)
    tops = T.tops()
    if len(tops) != 1:
        raise ValueError("branching needs a single-anchor orientation")
    r_list = sorted(set(int(r) for r in r_list))
    if any(r < 1 for r in r_list):
        raise ValueError("r must be >= 1")
    n_marks = T.n_marks
    verts = list(T.parent)
    n = len(verts)
    layer = T.layer
    reach = 2 * (max(layer.values()) - layer[tops[0]])
    out = {r: dict.fromkeys(verts, n_marks) for r in r_list if r > reach}
    wanted = [r for r in r_list if r <= reach]
    if not wanted:
        return out
    index = {v: i for i, v in enumerate(verts)}
    sub = T.subtree_mark_counts
    kids = {}
    for v, p in T.parent.items():
        if p is not None:
            kids.setdefault(index[p], []).append(index[v])
    kids = list(kids.items())
    # row 0: a child's own cone below its parent, and the parent's cone
    # (everything outside the child's subtree) seen from the child; the
    # top's up rows stay 0, since its ray carries no marks
    down1 = [sub[v] for v in verts]
    down2 = [0] * n
    up1 = [0] * n
    up2 = [0] * n
    ex1 = [n_marks - s for s in down1]
    ex2 = [0] * n
    for j in range(1, wanted[-1] + 1):
        nd1, nd2, nu1, nu2, nx1, nx2 = ([0] * n for _ in range(6))
        for p, cs in kids:
            # one pass over p's children: each child's up row, and the fold
            # of their down rows into p's, keeping the best child's pair
            # (a1, b1), the runner-up's (a2, b2) and the third-best a3
            pu1 = up1[p]
            pu2 = up2[p]
            a1 = b1 = a2 = b2 = a3 = 0
            c1 = c2 = -1
            for c in cs:
                x1 = ex1[c]
                if pu1 >= x1:
                    nu1[c] = pu1
                    nu2[c] = pu2 if pu2 > x1 else x1
                else:
                    nu1[c] = x1
                    x2 = ex2[c]
                    nu2[c] = pu1 if pu1 > x2 else x2
                x1 = down1[c]
                if x1 > a1:
                    a3 = a2
                    a2, b2, c2 = a1, b1, c1
                    a1, b1, c1 = x1, down2[c], c
                elif x1 > a2:
                    a3 = a2
                    a2, b2, c2 = x1, down2[c], c
                elif x1 > a3:
                    a3 = x1
            top2 = b1 if b1 > a2 else a2
            nd1[p] = a1
            nd2[p] = top2
            # p's down row without each child's branch
            for c in cs:
                nx1[c] = a1
                nx2[c] = top2
            if c1 >= 0:
                nx1[c1] = a2
                nx2[c1] = b2 if b2 > a3 else a3
            if c2 >= 0:
                nx2[c2] = b1 if b1 > a3 else a3
        down1, down2, up1, up2, ex1, ex2 = nd1, nd2, nu1, nu2, nx1, nx2
        if j in wanted:
            out[j] = {
                v: n_marks - (d1 + (d2 if d2 > u1 else u1) if d1 >= u1
                              else u1 + (d1 if d1 > u2 else u2))
                for v, d1, d2, u1, u2 in zip(verts, down1, down2, up1, up2)
            }
    return {r: out[r] for r in r_list}


def supported_gap_values(T: OrientedTree, r: int) -> dict:
    """For each vertex with at least one depth-r descendant, the worst-case
    mark gap |A_v| - max_w |A_w| over those descendants.

    A vertex is (k, r)-supported iff its gap is >= k.  One subtree-count
    pass plus the sigma^r links, grouped implicitly by layer residue class.
    """
    _require_marks(T)
    if r < 1:
        raise ValueError("r must be >= 1")
    parent = T.parent
    marks = T.marks
    sub = T.subtree_mark_counts
    best = {}
    for w in parent:
        a = w
        for _ in range(r):
            a = parent[a]
            if a is None:
                break
        if a is None:
            continue
        gap_w = sub[w] - (w in marks)  # |A_w|: marks strictly below w
        if a not in best or gap_w > best[a]:
            best[a] = gap_w
    return {v: sub[v] - (v in marks) - worst for v, worst in best.items()}


def counting_bound(n_marks: int, k: int, r: int) -> float:
    """r(2|A| - k)/k, the flow-counting bound on (k, r)-supported vertices
    (and on (k, 1)-branching ones); negative when k > 2|A|."""
    return r * (2.0 * n_marks - k) / k


@dataclass
class EndsProfile:
    """Component census after removing a ball: (size, mark count) pairs,
    largest first, plus the count of components holding at least the
    threshold number of marks."""

    census: list
    qualifying: int
    removed: int


def ends_profile(graph, A, center, radius: int, m_threshold: int) -> EndsProfile:
    """Remove the closed ball around the center and census the remaining
    components by size and mark count."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if m_threshold < 1:
        raise ValueError("m_threshold must be >= 1")
    adj = groups.as_adjacency(graph)
    if center not in adj:
        raise ValueError("center not in graph")
    A = set(A)
    removed = groups.bfs(adj.__getitem__, center, radius)
    seen = set(removed)
    census = []
    for v in adj:
        if v in seen:
            continue
        comp = groups.bfs(lambda x: (w for w in adj[x] if w not in removed), v)
        seen.update(comp)
        census.append((len(comp), len(A.intersection(comp))))
    census.sort(reverse=True)
    qualifying = sum(1 for _, marks in census if marks >= m_threshold)
    return EndsProfile(census, qualifying, len(removed))
