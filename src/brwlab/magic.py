"""Branching/supported vertex detection and the counting bound.

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

from . import groups
from .gw import MarkedTree


class OrientedTree:
    """Rooted orientation of a finite tree toward a virtual end.

    Every real vertex has a parent: a real vertex, or (for top vertices)
    a virtual ray vertex.  layer is depth relative to the anchor, anchor
    in layer 0.  Auxiliary trees may have several top vertices.
    """

    def __init__(self, parent: dict, layer: dict, marks, children=None):
        self.parent = dict(parent)
        self.layer = dict(layer)
        self.marks = frozenset(marks) if marks is not None else frozenset()
        if children is None:
            children = {v: [] for v in self.parent}
            for v, p in self.parent.items():
                if p is not None:
                    children[p].append(v)
        self.children = children
        self._sub = None

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
        found = groups.bfs(tree.adjacency().__getitem__, anchor)
        parent = {v: p for v, (_, p) in found.items()}
        layer = {v: d for v, (d, _) in found.items()}
        return cls(parent, layer, marks)

    def vertices(self):
        return list(self.parent.keys())

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    @property
    def n_marks(self) -> int:
        return len(self.marks)

    def tops(self):
        return [v for v, p in self.parent.items() if p is None]

    def adjacency(self):
        return groups.adjacency(
            self.parent, ((v, p) for v, p in self.parent.items() if p is not None))

    def subtree_mark_counts(self) -> dict:
        """Marks at or below each vertex (cached)."""
        if self._sub is None:
            order = sorted(self.parent, key=lambda v: self.layer[v], reverse=True)
            sub = {v: (1 if v in self.marks else 0) for v in self.parent}
            for v in order:
                p = self.parent[v]
                if p is not None:
                    sub[p] += sub[v]
            self._sub = sub
        return self._sub

    def strict_descendant_marks(self, v) -> int:
        """|A_v|: marks strictly below v."""
        sub = self.subtree_mark_counts()
        return sub[v] - (1 if v in self.marks else 0)


def _require_marks(T: OrientedTree):
    if not T.marks:
        raise ValueError("the marked set must be nonempty")


def branch_deficiency_values(T: OrientedTree, r_list) -> dict:
    """For each r in r_list, a map u -> |A| - (largest + second largest
    direction count over the distance-r sphere of u).

    u is (k,r)-branching iff this value is >= k.  Distinct sphere vertices
    carry disjoint mark sets, so the worst pair is always the top two (or
    the single direction doubled when the sphere has one vertex).
    """
    _require_marks(T)
    tops = T.tops()
    if len(tops) != 1:
        raise ValueError("branching needs a single-anchor orientation")
    r_list = sorted(set(int(r) for r in r_list))
    if any(r < 1 for r in r_list):
        raise ValueError("r must be >= 1")
    r_max = r_list[-1]
    sub = T.subtree_mark_counts()
    n_marks = T.n_marks
    adj = T.adjacency()
    parent = T.parent
    layer = T.layer
    out = {r: {} for r in r_list}
    r_set = set(r_list)
    for u in T.parent:
        # BFS to depth r_max, recording the cone size of each sphere vertex
        visited = {u}
        frontier = [(u, None)]
        for depth in range(1, r_max + 1):
            nxt = []
            for v, _ in frontier:
                for w in adj[v]:
                    if w not in visited:
                        visited.add(w)
                        nxt.append((w, v))
            frontier = nxt
            if depth in r_set:
                top1 = 0
                top2 = 0
                count = 0
                for w, prev in frontier:
                    if parent[w] == prev:
                        cone = sub[w]
                    else:
                        cone = n_marks - sub[prev]
                    count += 1
                    if cone > top1:
                        top1, top2 = cone, top1
                    elif cone > top2:
                        top2 = cone
                if layer[u] <= depth - 1:
                    # the virtual ray supplies one unmarked sphere vertex
                    count += 1
                value = n_marks - top1 - (top2 if count >= 2 else 0)
                out[depth][u] = value
            if not frontier:
                # no real vertex this far out, so layer[u] < depth and all
                # deeper spheres hold exactly one ray vertex: value is |A|
                for rr in r_list:
                    if rr > depth:
                        out[rr][u] = n_marks
                break
    return out


def branching_vertices(T, A, k: int, r: int, anchor=None) -> set:
    """Vertices u with |A| - |A_{u,v} u A_{u,w}| >= k for every pair of
    (real or virtual) vertices v, w at distance exactly r from u."""
    T = _as_oriented(T, A, anchor)
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    values = branch_deficiency_values(T, [r])[r]
    return {u for u, val in values.items() if val >= k}


def supported_gap_values(T: OrientedTree, r: int) -> dict:
    """For each vertex with at least one depth-r descendant, the worst-case
    mark gap |A_v| - max_w |A_w| over those descendants.

    A vertex is (k, r)-supported iff its gap is >= k.  One subtree-count
    pass plus the sigma^r links, grouped implicitly by layer residue class.
    """
    _require_marks(T)
    if r < 1:
        raise ValueError("r must be >= 1")
    best = {}
    for w in T.parent:
        a = w
        for _ in range(r):
            a = T.parent[a]
            if a is None:
                break
        if a is None:
            continue
        gap_w = T.strict_descendant_marks(w)
        if a not in best or gap_w > best[a]:
            best[a] = gap_w
    return {v: T.strict_descendant_marks(v) - worst for v, worst in best.items()}


def supported_vertices(T, A, k: int, r: int, anchor=None) -> set:
    """Vertices with at least one depth-r descendant and mark-count gap at
    least k to every such descendant."""
    T = _as_oriented(T, A, anchor)
    if k < 1:
        raise ValueError("k must be >= 1")
    gaps = supported_gap_values(T, r)
    return {v for v, gap in gaps.items() if gap >= k}


def _as_oriented(T, A, anchor) -> OrientedTree:
    if isinstance(T, OrientedTree):
        if A is not None:
            return OrientedTree(T.parent, T.layer, A, T.children)
        return T
    return OrientedTree.from_tree(T, anchor=anchor, marks=A)


@dataclass(frozen=True)
class BranchingReport:
    k: int
    r: int
    n_vertices: int
    n_marks: int
    branching: frozenset
    supported: frozenset
    bound_value: float
    passed: bool

    @property
    def branching_count(self) -> int:
        return len(self.branching)

    @property
    def supported_count(self) -> int:
        return len(self.supported)


def counting_bound(n_marks: int, k: int, r: int) -> float:
    """r(2|A| - k)/k, the flow-counting bound on (k, r)-supported vertices
    (and on (k, 1)-branching ones); negative when k > 2|A|."""
    return r * (2.0 * n_marks - k) / k


def magic_bound_check(T, A, k: int, r: int, anchor=None) -> BranchingReport:
    """Count branching and supported vertices and compare the branching
    count against r(2|A| - k)/k (clamped at 0 for k > 2|A|).

    `passed` reports that comparison for the branching count, which the
    bound is proven to cover only at r = 1; at r >= 2 a False is a fact
    about the tree, not a fault (see the module docstring).  The supported
    count is the one the bound covers at every r.
    """
    T = _as_oriented(T, A, anchor)
    branching = frozenset(branching_vertices(T, None, k, r))
    supported = frozenset(supported_vertices(T, None, k, r))
    bound = counting_bound(T.n_marks, k, r)
    passed = len(branching) <= max(bound, 0.0)
    return BranchingReport(
        k, r, T.n_vertices, T.n_marks, branching, supported, bound, passed
    )


def auxiliary_tree(T: OrientedTree, m: int, r: int) -> OrientedTree:
    """Residue-class contraction: every vertex is re-parented to its
    nearest strict ancestor in the layer class m mod r.

    Vertices of the class keep their depth-r descendants as children; all
    other vertices become leaves.  Vertices whose class ancestor is
    virtual become top vertices.  Vertex set, marks, and layers are
    preserved.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if not 1 <= m <= r:
        raise ValueError("m must be in 1..r")
    parent = {}
    for v in T.parent:
        j = (T.layer[v] - m) % r
        if j == 0:
            j = r
        a = v
        for _ in range(j):
            a = T.parent[a]
            if a is None:
                break
        parent[v] = a
    return OrientedTree(parent, T.layer, T.marks)


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
