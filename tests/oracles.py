"""Brute-force reference implementations used to check the fast paths.

These follow the definitions directly on an explicit graph with the
virtual ray materialized, using all-pairs BFS distances; they share no
code with the library implementations.  The one exception is
`bfs_branch_values`, the per-vertex BFS that `branch_deficiency_values`
ran before its rerooting pass.  `branch_deficiency_values_reference` and
`supported_gap_values_reference` are the dict passes, one tree at a
time, that `magic` ran before its array kernel over a flat batch of
trees; `subtree_mark_counts` is their subtree count.  These four read a
`DictOrientedTree`: the dict parent and layer maps that
`magic.OrientedTree` held before it became a batch of one, here oriented
by `oriented_tree_reference`, a BFS from the anchor over adjacency lists
built edge by edge, so no orientation code is shared with `magic`.
`TransitionTable` (the double-sum oracle, built from the unscaled radial
law `tree_distance_law` on trees and from `box_lattice_series` on
lattices) and `auxiliary_tree` (residue-class contractions, which may
have several top vertices) are references that no experiment needs.
`full_tree_scaled_series` is the recursion reference for the tree
kernel: the conjugated radial recursion that `groups` ran before its
closed-form return series, on the full window.  `box_lattice_series` is
the lattice kernel `groups` used before its closed-form lattice laws.
The references for `validate_elem`, `neighbors`, `run_walk` and the GW
samplers are those functions as they were before each became a
builtin-level or family-at-a-time step; the sampler references build
`DictTree`s, the dict trees `gw.MarkedTree` held before it became a flat
parent list, one `add_child` per vertex.  `mul_reference` is the
letter-by-letter word product (`apply_letter_reference`) that `groups`
ran before it cancelled one word's tail against the other's head, and
`inv_reference` and `distance_reference` are built on it (on the
lattice: coordinate sum, negation and the L1 norm).  The
references for `ensure_edge_labels` and `sample_marked_fuzz_tree` draw
one scalar per vertex, as those functions did before they drew in bulk,
and `thinned_intersection_sweep_reference` is the sweep as it was before
its threshold pass, on those references: both root components rebuilt
and recounted at every p, by `percolate_root_component_reference`, the
depth-first build with one `add_child` per kept vertex that percolation
ran before its one-pass build; its component keeps the tree's truncation
reason.  `tree_fields` compares a flat tree with a `DictTree`.
`rooted_trees` enumerates every rooted unlabelled tree on n vertices
(Beyer-Hedetniemi level sequences), for the exhaustive counting-lemma
checks on small trees.
Besides the recursion, the tree return series has three references:
`tree_return_counts`, the exact integer distance chain (and on it
`tree_pairs_exact`, the expected pair count as a Fraction double sum),
`tree_return_tail_decimal`, the closed-form tail sum carried to 40
digits in `decimal`, and `tree_return_series_correlate`, the series as
`groups` computed it before its strided-window kernel: every tail sum at
once by one `np.correlate`, on the coefficients of
`groups._sqrt_coefficients`.  `visits_series_reference` is
`groups.visits_series` as it was before its loop ran over a list of
Python floats: numpy scalars indexed per term and a zero-mean branch in
every term, on the same kernel.  `ends_profile` is the ball-removal
census that the ends experiment ran before its one-pass union-find: one
radius at a time, one BFS per component, with any mark set; its BFS is
`bfs_distances`, not `groups.bfs`.  `substream_reference` is
`rng.substream` as it was before it hashed its Philox keys a block of
indices at a time: a SeedSequence built per call.
`pushforward_ball_sampler_reference` is `mtp.pushforward_trace_sampler`
as it was before it read g itself: the walk's image marked inside a
materialised ball of g, which certifies half its radius.
"""

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def ray_augmented_adjacency(tree, anchor, extra: int):
    """Adjacency over real ids plus `extra` ray vertices ('ray', j)."""
    adj = {v: list(ns) for v, ns in tree.adjacency().items()}
    prev = anchor
    for j in range(1, extra + 1):
        node = ("ray", j)
        adj.setdefault(node, [])
        adj[node].append(prev)
        adj[prev].append(node)
        prev = node
    return adj


def bfs_distances(adj, source):
    dist = {source: 0}
    dq = deque([source])
    while dq:
        v = dq.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                dq.append(w)
    return dist


def _distance_matrix(adj):
    nodes = list(adj)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    D = np.full((n, n), -1, dtype=np.int32)
    for v in nodes:
        dist = bfs_distances(adj, v)
        i = index[v]
        for w, d in dist.items():
            D[i, index[w]] = d
    return nodes, index, D


def brute_branch_values(tree, A, r, anchor=None):
    """u -> |A| - max over sphere pairs (v, w) of |A_{u,v} u A_{u,w}|.

    Pairs are unordered with v = w permitted; A_{u,v} is checked literally
    on the ray-augmented graph: a counts iff d(u, a) = r + d(v, a), which
    includes a = v.  u is (k, r)-branching iff the value is >= k.
    """
    if anchor is None:
        anchor = tree.root
    A = sorted(A, key=repr)
    adj = ray_augmented_adjacency(tree, anchor, r + 1)
    nodes, index, D = _distance_matrix(adj)
    mark_idx = np.array([index[a] for a in A])
    out = {}
    for u in tree.adjacency():
        iu = index[u]
        sphere = [i for i in range(len(nodes)) if D[iu, i] == r]
        if not sphere:
            continue
        du = D[iu, mark_idx]
        M = np.stack([du == r + D[i, mark_idx] for i in sphere])
        counts = M.sum(axis=1)
        inter = M.astype(np.int32) @ M.T.astype(np.int32)
        union = counts[:, None] + counts[None, :] - inter
        out[u] = int(len(A) - union.max())
    return out


def oriented_tree_reference(tree, anchor):
    """(parent, layer) of a tree oriented toward its anchor: the BFS
    parent and distance of every vertex, by a BFS from the anchor over
    adjacency lists built edge by edge."""
    adj = {v: [] for v in range(tree.n_vertices)}
    for p, c in tree.edges():
        adj[p].append(c)
        adj[c].append(p)
    parent, layer = {anchor: None}, {anchor: 0}
    queue = deque([anchor])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in layer:
                parent[w], layer[w] = v, layer[v] + 1
                queue.append(w)
    return parent, layer


class DictOrientedTree:
    """A tree oriented toward a virtual ray at its anchor, as the dict
    oracles read it: parent maps each vertex id to its parent (None at a
    top), layer gives the depth below the anchor, which is in layer 0.  A
    residue-class contraction (`auxiliary_tree`) may have several tops."""

    def __init__(self, parent, layer, marks):
        self.parent = parent
        self.layer = layer
        self.marks = frozenset(marks)

    @classmethod
    def of(cls, tree, anchor=None, marks=None):
        """A MarkedTree oriented by `oriented_tree_reference` toward the
        anchor (default: the root), with the given marks (default: the
        tree's)."""
        parent, layer = oriented_tree_reference(tree, tree.root if anchor is None else anchor)
        return cls(parent, layer, (tree.marks or ()) if marks is None else marks)

    @property
    def n_vertices(self):
        return len(self.parent)

    @property
    def n_marks(self):
        return len(self.marks)

    def tops(self):
        return [v for v, p in self.parent.items() if p is None]

    def adjacency(self):
        adj = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                adj[v].append(p)
                adj[p].append(v)
        return adj

    def flat(self):
        """(parent list by id, -1 at a top; marks): the pair
        `magic.TreeBatch.fold` reads, for ids 0..n-1."""
        parent = [self.parent[v] for v in range(self.n_vertices)]
        return [-1 if p is None else p for p in parent], self.marks


def bfs_branch_values(T, r_list):
    """The per-vertex reference for `magic.branch_deficiency_values`: a
    BFS over the radius-max(r_list) ball of every vertex of the oriented
    tree T, scoring each sphere vertex by the cone it is reached through.
    O(n * ball size), so quadratic on stars; kept as a differential
    oracle for the rerooting pass."""
    r_list = sorted(set(int(r) for r in r_list))
    if any(r < 1 for r in r_list):
        raise ValueError("r must be >= 1")
    r_max = r_list[-1]
    sub = subtree_mark_counts(T)
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


def subtree_mark_counts(T):
    """Marks at or below each vertex of an oriented tree, summed up the
    parent links from the deepest layer."""
    order = sorted(T.parent, key=lambda v: T.layer[v], reverse=True)
    sub = {v: (1 if v in T.marks else 0) for v in T.parent}
    for v in order:
        p = T.parent[v]
        if p is not None:
            sub[p] += sub[v]
    return sub


def _require_marks(T):
    if not T.marks:
        raise ValueError("the marked set must be nonempty")


def branch_deficiency_values_reference(T, r_list):
    """`magic.branch_deficiency_values` before its array kernel: the
    rerooting pass over dicts, one tree at a time.

    For each r in r_list, a map u -> |A| - (largest + second largest
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
    sub = subtree_mark_counts(T)
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


def supported_gap_values_reference(T, r):
    """`magic.supported_gap_values` before its array kernel: for each
    vertex with at least one depth-r descendant, the worst-case mark gap
    |A_v| - max_w |A_w| over those descendants, by a walk of r parent
    links up from every vertex."""
    _require_marks(T)
    if r < 1:
        raise ValueError("r must be >= 1")
    parent = T.parent
    marks = T.marks
    sub = subtree_mark_counts(T)
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


def brute_branching(tree, A, k, r, anchor=None):
    vals = brute_branch_values(tree, A, r, anchor)
    return {u for u, v in vals.items() if v >= k}


def brute_supported_gaps(tree, A, r, anchor=None):
    """v -> |A_v| - max over depth-r descendants w of |A_w|, via explicit
    ancestor walks, only for v with at least one such descendant."""
    if anchor is None:
        anchor = tree.root
    A = set(A)
    adj = tree.adjacency()
    par = {anchor: None}
    dq = deque([anchor])
    while dq:
        v = dq.popleft()
        for w in adj[v]:
            if w not in par:
                par[w] = v
                dq.append(w)

    def strict_desc_marks(v):
        total = 0
        for a in A:
            x = par[a]
            while x is not None:
                if x == v:
                    total += 1
                    break
                x = par[x]
        return total

    desc = {v: strict_desc_marks(v) for v in adj}
    out = {}
    for w in adj:
        x = w
        ok = True
        for _ in range(r):
            x = par[x]
            if x is None:
                ok = False
                break
        if not ok:
            continue
        if x not in out or desc[w] > out[x][1]:
            out[x] = (desc[x], desc[w])
    return {v: dv - worst for v, (dv, worst) in out.items()}


def implication_slack_marks(tree, A, u, r, anchor=None):
    """Marks that can separate branching from supported at u: the mark at
    u itself, plus marks outside u's subtree whose meeting point with u is
    a strict ancestor below height r (sideways cones in the up direction)."""
    if anchor is None:
        anchor = tree.root
    adj = tree.adjacency()
    par = {anchor: None}
    dq = deque([anchor])
    while dq:
        v = dq.popleft()
        for w in adj[v]:
            if w not in par:
                par[w] = v
                dq.append(w)

    def ancestors(v):
        out = []
        while v is not None:
            out.append(v)
            v = par[v]
        return out

    anc_u = ancestors(u)
    index_u = {v: i for i, v in enumerate(anc_u)}
    low_ancestors = set(anc_u[1:r])  # sigma^1(u) .. sigma^(r-1)(u)
    out = set()
    for a in A:
        if a == u:
            out.add(a)
            continue
        lca = next(v for v in ancestors(a) if v in index_u)
        if index_u[lca] == 0:
            continue  # a below u: not slack
        if lca in low_ancestors:
            out.add(a)
    return out


def auxiliary_tree(T, m, r):
    """Residue-class contraction of a `DictOrientedTree`: every vertex is
    re-parented to its nearest strict ancestor in the layer class m mod r.

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
    return DictOrientedTree(parent, T.layer, T.marks)


def enumerate_walk_endpoint_law(g, x, n):
    """Exact n-step endpoint law of SRW from x by full transition fanout."""
    from brwlab import groups

    law = {x: 1.0}
    for _ in range(n):
        nxt = {}
        for v, p in law.items():
            ns = groups.neighbors(g, v)
            share = p / len(ns)
            for w in ns:
                nxt[w] = nxt.get(w, 0.0) + share
        law = nxt
    return law


def sphere_size(g, j):
    """Number of vertices at distance exactly j (tree-like graphs only)."""
    if not g.is_tree_like:
        raise ValueError("sphere_size is radial only for tree-like graphs")
    if j == 0:
        return 1.0
    d = g.degree
    return float(d) * float(d - 1) ** (j - 1)


def tree_distance_law(d, n_max):
    """Law of the distance-from-origin chain of SRW on the d-regular tree,
    unscaled: rho[n, j] = P(dist = j after n steps).  From distance j >= 1
    the walk moves out with probability (d-1)/d and in with probability
    1/d; from 0 it always moves out.  O(n_max^2) memory; plain floats,
    fine up to a few thousand steps."""
    inv_d = 1.0 / d
    out_p = (d - 1.0) / d
    rho = np.zeros((n_max + 1, n_max + 1))
    rho[0, 0] = 1.0
    for n in range(1, n_max + 1):
        prev = rho[n - 1]
        cur = rho[n]
        cur[0] = prev[1] * inv_d if n_max >= 1 else 0.0
        cur[1] = prev[0] + (prev[2] * inv_d if n_max >= 2 else 0.0)
        if n_max >= 2:
            cur[2:] = prev[1:-1] * out_p
            cur[2:-1] += prev[3:] * inv_d
    return rho


class TransitionTable:
    """Table of p_n: per distance from `tree_distance_law` over the sphere
    sizes on tree-like graphs, per displacement from `box_lattice_series`
    on Z^d.  The double-sum oracle for the expected pair counts."""

    def __init__(self, g, n_max):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self.group = g
        self.n_max = n_max
        if g.is_tree_like:
            self._law = tree_distance_law(g.degree, n_max)
            spheres = np.array([sphere_size(g, j) for j in range(n_max + 1)])
            self._per_vertex = self._law / spheres
        else:
            self._lattice_cache = {}

    def p(self, n, x, y):
        from brwlab import groups

        if not 0 <= n <= self.n_max:
            raise ValueError(f"n must be in 0..{self.n_max}")
        g = self.group
        groups.validate_elem(g, x)
        groups.validate_elem(g, y)
        if g.is_tree_like:
            return float(self._per_vertex[n, groups.distance(g, x, y)])
        delta = tuple(b - a for a, b in zip(x, y))
        if delta not in self._lattice_cache:
            self._lattice_cache[delta] = box_lattice_series(g.param, delta, self.n_max)
        return float(self._lattice_cache[delta][n])

    def distance_law(self, n):
        """The law of the distance after n steps (tree-like only)."""
        return self._law[n].copy()


def random_marked_tree(rng, max_vertices, mark_rate=None):
    """Uniform-attachment random tree with Bernoulli marks (at least one)."""
    from brwlab.gw import MarkedTree

    n = int(rng.integers(1, max_vertices + 1))
    tree = MarkedTree([-1, *(int(rng.integers(0, v)) for v in range(1, n))])
    if mark_rate is None:
        mark_rate = float(rng.uniform(0.05, 1.0))
    marks = {v for v in range(n) if rng.random() < mark_rate}
    if not marks:
        marks = {int(rng.integers(0, n))}
    tree.marks = marks
    return tree


def rooted_trees(n):
    """Every rooted unlabelled tree on n >= 1 vertices, once each, as a
    parent list (-1 at the root, parent[v] < v), by the Beyer-Hedetniemi
    successor on canonical level sequences (SIAM J. Comput. 1980): from
    the path, let p be the last vertex at level 2 or deeper and q its
    parent, the last earlier vertex one level up, and copy the levels
    from q on forward over p..n-1; the star ends it.  Vertex v's parent is the last
    earlier vertex one level up, so the root is vertex 0."""
    level = list(range(n))
    while True:
        last = {}  # level -> the last vertex seen at it
        parent = []
        for v, lv in enumerate(level):
            parent.append(last[lv - 1] if lv else -1)
            last[lv] = v
        yield parent
        p = max((v for v, lv in enumerate(level) if lv > 1), default=None)
        if p is None:
            return
        shift = p - parent[p]
        for v in range(p, n):
            level[v] = level[v - shift]


def full_tree_scaled_series(d, dist, n_max):
    """p_n(x, y) / ||P||^n on the d-regular tree at distance dist, by the
    conjugated radial recursion on a window that grows like 6 sqrt(n_max),
    both parities, with a fresh array per step.  The radial law scaled by
    ||P||^-n and conjugated by (d-1)^(j/2) obeys
      v[j] <- (v[j-1] + v[j+1]) / 2        (j >= 2)
      v[1] <- d/(2(d-1)) v[0] + v[2] / 2
      v[0] <- v[1] / 2
    so every entry stays in [0, 1]; truncation error is below 1e-20
    relative."""
    if dist > n_max:
        return np.zeros(n_max + 1)
    window = max(64, int(6.0 * math.sqrt(max(n_max, 1))) + 4, dist + 8)
    v = np.zeros(window + 1)
    v[0] = 1.0
    out = np.zeros(n_max + 1)
    conv = 1.0 if dist == 0 else (d - 1.0) ** (1.0 - dist / 2.0) / d
    out[0] = v[dist] * conv
    from_zero = d / (2.0 * (d - 1.0))
    for n in range(1, n_max + 1):
        nxt = np.zeros_like(v)
        nxt[0] = 0.5 * v[1]
        nxt[1] = from_zero * v[0] + 0.5 * v[2]
        nxt[2:-1] = 0.5 * (v[1:-2] + v[3:])
        nxt[-1] = 0.5 * v[-2]
        v = nxt
        out[n] = v[dist] * conv
    return out


def box_lattice_series(dim, delta, n_max):
    """p_n(x, x+delta) on Z^dim for n = 0..n_max by pushing the whole law
    through a (2 n_max + 1)^dim box, one step at a time."""
    shape = (2 * n_max + 1,) * dim
    p = np.zeros(shape)
    p[(n_max,) * dim] = 1.0
    target = tuple(n_max + c for c in delta)
    out = np.zeros(n_max + 1)
    if not all(0 <= t < 2 * n_max + 1 for t in target):
        return out
    out[0] = p[target]
    step_w = 1.0 / (2 * dim)
    for n in range(1, n_max + 1):
        nxt = np.zeros_like(p)
        for axis in range(dim):
            lo = [slice(None)] * dim
            hi = [slice(None)] * dim
            lo[axis] = slice(0, -1)
            hi[axis] = slice(1, None)
            nxt[tuple(lo)] += p[tuple(hi)] * step_w
            nxt[tuple(hi)] += p[tuple(lo)] * step_w
        p = nxt
        out[n] = p[target]
    return out


def z3_even_return_exact(k):
    """p_2k(e, e) on Z^3 as a Fraction:
    C(2k, k) sum_{i+j<=k} (k! / (i! j! (k-i-j)!))^2 / 36^k."""
    total = sum(
        (math.comb(k, i) * math.comb(k - i, j)) ** 2
        for i in range(k + 1)
        for j in range(k - i + 1)
    )
    return Fraction(math.comb(2 * k, k) * total, 36**k)


def tree_return_counts(d, steps):
    """Closed walks from e on the d-regular tree: counts[n] = d^n p_n(e, e)
    for n = 0..steps, from the integer distance chain (d ways out of 0,
    d - 1 out and 1 in elsewhere)."""
    paths = [1]  # paths[j]: n-step walks from e ending at distance j
    counts = [1]
    for _ in range(steps):
        nxt = [0] * (len(paths) + 1)
        for j, c in enumerate(paths):
            nxt[j + 1] += c * (d if j == 0 else d - 1)
            if j:
                nxt[j - 1] += c
        paths = nxt
        counts.append(paths[0])
    return counts


def tree_pairs_exact(d, mean1, mean2, n_max):
    """sum_{n,m <= n_max} mean1^n mean2^m p_{n+m}(e, e) on the d-regular
    tree as a Fraction, from the exact return counts (integer or Fraction
    means)."""
    counts = tree_return_counts(d, 2 * n_max)
    return sum(Fraction(mean1**n * mean2**m * counts[n + m], d ** (n + m))
               for n in range(n_max + 1) for m in range(n_max + 1))


def tree_return_tail_decimal(d, ns, digits=40):
    """p_2n(e, e) / rho^2n on the d-regular tree for each n in ns, as
    Decimals carried to the given digits: the tail sum
    (d/2) sum_{j>=1} |c_{n+j}| rho^2j of Kesten's return generating
    function, |c_k| = C(2k,k)/((2k-1)4^k), summed until a term falls
    below 10^-digits of the sum.  The |c_k| are the ratio product
    |c_{k+1}| = |c_k| (2k-1)/(2k+2) from |c_1| = 1/2."""
    from decimal import Context, Decimal

    ctx = Context(prec=digits + 5)
    rho2 = ctx.divide(Decimal(4 * (d - 1)), Decimal(d * d))
    tol = Decimal(10) ** -digits
    c = [None, Decimal(1) / 2]
    out = {}
    for n in sorted(ns):
        total, power, j = Decimal(0), Decimal(1), 1
        while True:
            while len(c) <= n + j:
                k = len(c) - 1
                c.append(ctx.divide(ctx.multiply(c[k], 2 * k - 1), 2 * k + 2))
            power = ctx.multiply(power, rho2)
            term = ctx.multiply(c[n + j], power)
            total = ctx.add(total, term)
            if term < tol * total:
                break
            j += 1
        out[n] = ctx.multiply(total, Decimal(d) / 2)
    return out


def tree_return_series_correlate(d, n_max):
    """p_n(e, e) / rho^n on the d-regular tree for n = 0..n_max: the
    J-term tail sums (d/2) sum_{j=1..J} |c_{n/2+j}| rho^2j at every even n
    by one np.correlate of the coefficients against rho^2j, with J, s[0]
    and the odd entries as groups.scaled_p_series documents them."""
    from brwlab import groups

    rho2 = 4.0 * (d - 1) / (d * d)
    terms = math.ceil((64 * math.log(2.0) - math.log1p(-rho2)) / -math.log(rho2))
    c = groups._sqrt_coefficients(n_max // 2 + terms)
    tails = np.correlate(c, rho2 ** np.arange(1, terms + 1), "valid")
    out = np.zeros(n_max + 1)
    out[0] = 1.0
    np.multiply(tails[1:], 0.5 * d, out=out[2::2])
    return out


def visits_series_reference(g, mean, n_max):
    """groups.visits_series as it was before its loop ran over s.tolist()."""
    from brwlab import groups

    if mean < 0:
        raise ValueError("mean must be >= 0")
    e = g.identity()
    s, rho = groups.scaled_p_series(g, e, e, n_max)
    sums = np.empty(n_max + 1)
    total = 0.0
    comp = 0.0
    log_scale = (math.log(mean) + math.log(rho)) if mean > 0 else None
    log_guard = math.log(groups.VISITS_GUARD)
    guard_index = None
    for n in range(n_max + 1):
        if mean == 0.0:
            term = 1.0 if n == 0 else 0.0
        elif s[n] <= 0.0:
            term = 0.0
        else:
            log_term = n * log_scale + math.log(s[n])
            if log_term > log_guard:
                guard_index = n
                sums[n:] = total + comp
                break
            term = math.exp(log_term)
        # Kahan step: late terms sit far below the accumulated sum.
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        sums[n] = total
    return groups.VisitsSeries(sums, guard_index)


def validate_elem_reference(g, x):
    """`groups.validate_elem` as it was before its checks became builtins
    that loop in C: one generator expression per letter check, whose
    letters are ints by exact type, so a bool is refused.  Raises the
    same InvalidElementError messages."""
    from brwlab.groups import INTEGER_LATTICE, REGULAR_TREE, InvalidElementError

    if not isinstance(x, tuple):
        raise InvalidElementError(f"element must be a tuple, got {type(x).__name__}")
    if g.kind == INTEGER_LATTICE:
        if len(x) != g.param or not all(type(c) is int for c in x):
            raise InvalidElementError(f"{x!r} is not a coordinate in Z^{g.param}")
        return
    if g.kind == REGULAR_TREE:
        d = g.param
        if not all(type(s) is int and 0 <= s < d for s in x):
            raise InvalidElementError(f"{x!r} has letters outside 0..{d - 1}")
        if any(x[i] == x[i + 1] for i in range(len(x) - 1)):
            raise InvalidElementError(f"{x!r} is not reduced")
        return
    k = g.param
    if not all(type(s) is int and s != 0 and abs(s) <= k for s in x):
        raise InvalidElementError(f"{x!r} has letters outside +-1..{k}")
    if any(x[i] == -x[i + 1] for i in range(len(x) - 1)):
        raise InvalidElementError(f"{x!r} is not reduced")


def neighbors_reference(g, x):
    """The deg(g) neighbours of x in generator order, one letter at a
    time, after `validate_elem_reference`."""
    from brwlab.groups import FREE_GROUP, INTEGER_LATTICE

    validate_elem_reference(g, x)
    if g.kind == INTEGER_LATTICE:
        out = []
        for axis in range(g.param):
            for sign in (1, -1):
                out.append(tuple(c + sign * (i == axis) for i, c in enumerate(x)))
        return out
    if g.kind == FREE_GROUP:
        letters = [s for i in range(1, g.param + 1) for s in (i, -i)]
        cancels = [-s for s in letters]
    else:
        letters = cancels = list(range(g.param))
    return [x[:-1] if x and x[-1] == c else x + (s,) for s, c in zip(letters, cancels)]


def apply_letter_reference(g, x, s):
    """Right-multiply the word x by one generator s, reducing at the seam:
    the step `groups.mul` took once per letter of its second factor before
    it cancelled one word's tail against the other's head."""
    from brwlab.groups import REGULAR_TREE

    if x and x[-1] == (s if g.kind == REGULAR_TREE else -s):
        return x[:-1]
    return x + (s,)


def mul_reference(g, x, y):
    """The product of tree-like words, one letter of y at a time; the
    coordinate sum on the lattice."""
    from brwlab.groups import INTEGER_LATTICE

    if g.kind == INTEGER_LATTICE:
        return tuple(a + b for a, b in zip(x, y))
    for s in y:
        x = apply_letter_reference(g, x, s)
    return x


def inv_reference(g, x):
    """The inverse of a tree-like word: reversed, each letter inverted;
    the negated coordinates on the lattice."""
    from brwlab.groups import INTEGER_LATTICE, REGULAR_TREE

    if g.kind == INTEGER_LATTICE:
        return tuple(-c for c in x)
    return tuple(s if g.kind == REGULAR_TREE else -s for s in reversed(x))


def length_reference(g, x):
    """The distance from the identity: the word length, the L1 norm on
    the lattice."""
    from brwlab.groups import INTEGER_LATTICE

    return sum(abs(c) for c in x) if g.kind == INTEGER_LATTICE else len(x)


def distance_reference(g, x, y):
    """The length of x^-1 y, by the reference product."""
    return length_reference(g, mul_reference(g, inv_reference(g, x), y))


def run_walk_values_reference(tree, g, start, rng):
    """`walks.run_walk` values by the loop it used before zipping the
    parent list with the picks: one pick per vertex in id order, the
    root's unused, and a fresh neighbour list per step."""
    validate_elem_reference(g, start)
    values = {0: start}
    picks = rng.integers(0, g.degree, size=tree.n_vertices)
    for v in range(1, tree.n_vertices):
        values[v] = neighbors_reference(g, values[tree.parent[v]])[picks[v]]
    return [values[v] for v in range(tree.n_vertices)]


def offspring_sample_reference(mu, rng, size=None):
    """`OffspringDistribution.sample` before its cumulative sum ended in
    inf: the plain cumulative sum, searched, then clipped to the support."""
    u = rng.random(size)
    return np.searchsorted(np.cumsum(mu.pmf), u, side="right").clip(0, mu.max_children)


class DictTree:
    """A rooted tree as dicts over arbitrary vertex ids: the representation
    `gw.MarkedTree` had before it became flat.  parent maps every vertex
    to its parent (the root to None); children and depth are kept
    consistent; edge_labels is keyed by the child endpoint."""

    def __init__(self, root=0):
        self.root = root
        self.parent = {root: None}
        self.children = {root: []}
        self.depth = {root: 0}
        self.marks = None
        self.edge_labels = None
        self.truncated = False
        self.truncation_reason = None

    def add_child(self, parent_id, child_id):
        if child_id in self.parent:
            raise ValueError(f"vertex {child_id} already present")
        self.parent[child_id] = parent_id
        self.children[child_id] = []
        self.children[parent_id].append(child_id)
        self.depth[child_id] = self.depth[parent_id] + 1

    @property
    def n_vertices(self):
        return len(self.parent)

    def adjacency(self):
        return {v: ([] if p is None else [p]) + self.children[v] for v, p in self.parent.items()}


def to_dict_tree(tree):
    """A flat `MarkedTree` as a DictTree over the same ids, with its marks,
    labels and truncation."""
    out = DictTree(0)
    for v in range(1, tree.n_vertices):
        out.add_child(tree.parent[v], v)
    out.marks = None if tree.marks is None else set(tree.marks)
    if tree.edge_labels is not None:
        out.edge_labels = dict(enumerate(tree.edge_labels))
        del out.edge_labels[0]
    out.truncated, out.truncation_reason = tree.truncated, tree.truncation_reason
    return out


def tree_fields(tree):
    """(parent, depth, children, marks, edge labels, truncated, reason) of
    a flat `MarkedTree`, or of a DictTree renumbered 0, 1, ... in id order,
    so that trees of the two kinds compare draw for draw."""
    if not isinstance(tree, DictTree):
        return (tree.parent, tree.depth, tree.children, tree.marks, tree.edge_labels,
                tree.truncated, tree.truncation_reason)
    ids = sorted(tree.parent)
    new = {v: i for i, v in enumerate(ids)}
    new[None] = -1
    labels = tree.edge_labels
    return ([new[tree.parent[v]] for v in ids], [tree.depth[v] for v in ids],
            [[new[c] for c in tree.children[v]] for v in ids],
            None if tree.marks is None else {new[v] for v in tree.marks},
            None if labels is None else [0.0] + [labels[v] for v in ids[1:]],
            tree.truncated, tree.truncation_reason)


# the per-vertex references: one add_child and one scalar draw at a
# time


def _grow_reference(tree, frontier, next_id, mu, budget, rng, max_depth):
    """`gw._grow` before it wrote a family at a time: one add_child per
    vertex, checking the budget before each."""
    while frontier:
        if max_depth is not None and tree.depth[frontier[0]] >= max_depth:
            if any(int(k) > 0 for k in offspring_sample_reference(mu, rng, len(frontier))):
                tree.truncated = True
                tree.truncation_reason = "depth"
            return tree
        draws = offspring_sample_reference(mu, rng, len(frontier))
        nxt = []
        for v, k in zip(frontier, draws):
            for _ in range(int(k)):
                if next_id >= budget:
                    tree.truncated = True
                    tree.truncation_reason = "budget"
                    return tree
                tree.add_child(v, next_id)
                nxt.append(next_id)
                next_id += 1
        frontier = nxt
    return tree


def sample_gw_reference(mu, budget, rng, max_depth=None):
    """`gw.sample_gw` over `_grow_reference`."""
    return _grow_reference(DictTree(0), [0], 1, mu, budget, rng, max_depth)


def sample_unimodular_gw_reference(mu, budget, rng, variant, max_depth=None):
    """`gw.sample_unimodular_gw` over `_grow_reference`, with one
    add_child per root child."""
    from brwlab.gw import AUGMENTED

    if variant == AUGMENTED:
        k0 = int(offspring_sample_reference(mu, rng))
    else:
        while True:
            k0 = int(offspring_sample_reference(mu, rng))
            if rng.random() < 1.0 / (k0 + 1):
                break
    tree = DictTree(0)
    tree.add_child(0, 1)
    own = list(range(2, 2 + min(k0, budget - 2)))
    for v in own:
        tree.add_child(0, v)
    if len(own) < k0:
        tree.truncated = True
        tree.truncation_reason = "budget"
        return tree
    return _grow_reference(tree, own + [1], 2 + len(own), mu, budget, rng, max_depth)


def ensure_edge_labels_reference(tree, rng):
    """`MarkedTree.ensure_edge_labels` before it drew its labels in one
    call: one scalar draw per unlabelled edge, in parent-map order."""
    if tree.edge_labels is None:
        tree.edge_labels = {}
    for c, p in tree.parent.items():
        if p is not None and c not in tree.edge_labels:
            tree.edge_labels[c] = float(rng.random())


def percolate_root_component_reference(tree, p):
    """`gw.percolate_root_component` before its one-pass build: a
    depth-first walk from the root with one add_child per kept vertex, on
    a fully labelled tree.  The component keeps the tree's truncation
    flag and reason."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    out = DictTree(tree.root)
    out.truncated, out.truncation_reason = tree.truncated, tree.truncation_reason
    stack = [tree.root]
    kept = {tree.root}
    while stack:
        v = stack.pop()
        for c in tree.children[v]:
            if tree.edge_labels[c] <= p:
                out.add_child(v, c)
                kept.add(c)
                stack.append(c)
    if tree.marks is not None:
        out.marks = {v for v in tree.marks if v in kept}
    out.edge_labels = {c: tree.edge_labels[c] for c in kept if tree.parent[c] is not None}
    return out


def thinned_intersection_sweep_reference(mu1, mu2, g, p_grid, depth, replicates, rng,
                                         budget=1_000_000):
    """`intersections.thinned_intersection_sweep` before its threshold
    pass, on the per-vertex references of its samplers and walks: both
    root components rebuilt at every p, and the overlap read off two
    Counters of walk values."""
    from collections import Counter

    from brwlab.intersections import ThinSweepReplicate

    p_grid = sorted(set(float(p) for p in p_grid))
    if any(not 0.0 <= p <= 1.0 for p in p_grid):
        raise ValueError("p_grid entries must lie in [0, 1]")
    e = g.identity()
    out = []
    for _ in range(replicates):
        tree1 = sample_gw_reference(mu1, budget, rng, max_depth=depth)
        tree2 = sample_gw_reference(mu2, budget, rng, max_depth=depth)
        ensure_edge_labels_reference(tree1, rng)
        ensure_edge_labels_reference(tree2, rng)
        values1 = run_walk_values_reference(tree1, g, e, rng)
        values2 = run_walk_values_reference(tree2, g, e, rng)
        sets = {}
        pairs = {}
        for p in p_grid:
            sub1 = percolate_root_component_reference(tree1, p)
            sub2 = percolate_root_component_reference(tree2, p)
            counts2 = Counter(values2[v] for v in sub2.parent)
            counts1 = Counter(values1[v] for v in sub1.parent)
            sets[p] = frozenset(v for v in sub1.parent if values1[v] in counts2)
            pairs[p] = sum(c * counts2[z] for z, c in counts1.items() if z in counts2)
        out.append(ThinSweepReplicate(sets, pairs, tree1.truncated or tree2.truncated))
    return out


def sample_marked_fuzz_tree_reference(rng, max_vertices):
    """`gw.sample_marked_fuzz_tree` before it drew its per-vertex values
    in bulk: one scalar draw per attachment, caterpillar step and mark."""
    hi = max_vertices if rng.random() < 0.2 else max(1, max_vertices // 4)
    n = int(rng.integers(1, hi + 1))
    kind = int(rng.integers(0, 5))
    tree = DictTree(0)
    if kind == 0:
        for v in range(1, n):
            tree.add_child(int(rng.integers(0, v)), v)
    elif kind == 1:
        for v in range(1, n):
            tree.add_child(v - 1, v)
    elif kind == 2:
        for v in range(1, n):
            tree.add_child(0, v)
    elif kind == 3:
        ends = [0]
        for v in range(1, n):
            p = ends[int(rng.integers(0, len(ends)))]
            tree.add_child(p, v)
            ends.extend((p, v))
    else:
        spine = 0
        for v in range(1, n):
            tree.add_child(spine, v)
            if rng.random() < 0.5:
                spine = v
    rate = float(rng.uniform(0.02, 1.0))
    marks = {v for v in range(n) if rng.random() < rate}
    if not marks:
        marks = {int(rng.integers(0, n))}
    tree.marks = marks
    return tree


@dataclass
class EndsProfile:
    """Component census after removing a ball: (size, mark count) pairs,
    largest first, plus the count of components holding at least the
    threshold number of marks."""

    census: list
    qualifying: int
    removed: int


def ends_profile(adj: dict, A, center, radius: int, m_threshold: int) -> EndsProfile:
    """Remove the closed ball around the center of a graph (adjacency
    lists) and census the remaining components by size and mark count."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if m_threshold < 1:
        raise ValueError("m_threshold must be >= 1")
    if center not in adj:
        raise ValueError("center not in graph")
    A = set(A)
    removed = {v for v, d in bfs_distances(adj, center).items() if d <= radius}
    rest = {v: [w for w in ws if w not in removed] for v, ws in adj.items() if v not in removed}
    seen = set()
    census = []
    for v in rest:
        if v in seen:
            continue
        comp = bfs_distances(rest, v)
        seen.update(comp)
        census.append((len(comp), len(A.intersection(comp))))
    census.sort(reverse=True)
    qualifying = sum(1 for _, marks in census if marks >= m_threshold)
    return EndsProfile(census, qualifying, len(removed))


def substream_reference(seed, *indices):
    """The Generator of `Philox(SeedSequence((seed, *indices)))`."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *indices))))


def pushforward_ball_sampler_reference(g, mu, depth, ball_radius, budget):
    """The push-forward sampler on a ball of g: the walk from the identity,
    its image marked inside the radius-ball_radius ball around it, whose
    adjacency lists keep only ball vertices; a sample certifies
    ball_radius // 2, or nothing when its tree was cut at the budget."""
    from brwlab import groups, gw, mtp
    from brwlab.walks import run_walk

    start = g.identity()
    ball_elems = groups.elements_within(g, start, ball_radius)
    ball_set = set(ball_elems)
    adj = {v: [w for w in g.family.neighbors(v) if w in ball_set] for v in ball_elems}

    def sample(rng):
        tree = gw.sample_unimodular_gw(mu, budget, rng, max_depth=depth)
        counts = run_walk(tree, g, start, rng).image_counts()
        marks = frozenset(x for x in counts if x in ball_set)
        cert = mtp.BUDGET_CUT if tree.truncation_reason == "budget" else ball_radius // 2
        return mtp.MtpSample(adj, marks, start, 1.0 / counts[start], cert)

    return sample
