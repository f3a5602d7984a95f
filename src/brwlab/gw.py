"""Galton-Watson trees: sampling, degree-biased variants, thinning.

Trees are finite rooted structures over integer vertex ids.  Samplers take
an explicit numpy Generator; there is no hidden global state.
"""

from __future__ import annotations

import math

import numpy as np


class SamplingError(RuntimeError):
    """Raised when rejection sampling exhausts its retry budget."""


MAX_OFFSPRING = 64


class OffspringDistribution:
    """Finite-support offspring law over {0, ..., K}, K <= 64."""

    def __init__(self, pmf):
        pmf = np.asarray(pmf, dtype=float)
        if pmf.ndim != 1 or len(pmf) == 0:
            raise ValueError("pmf must be a nonempty 1-d probability vector")
        if len(pmf) > MAX_OFFSPRING + 1:
            raise ValueError(f"offspring support capped at {MAX_OFFSPRING}")
        if not np.all(np.isfinite(pmf)):
            raise ValueError("pmf entries must be finite")
        if np.any(pmf < -1e-15):
            raise ValueError("pmf entries must be >= 0")
        pmf = np.clip(pmf, 0.0, None)
        if abs(pmf.sum() - 1.0) > 1e-12:
            raise ValueError(f"pmf sums to {pmf.sum()}, not 1")
        self.pmf = pmf
        self.mean = float(np.dot(np.arange(len(pmf)), pmf))
        self._cum = np.cumsum(pmf)
        # every u in [0, 1) lands at index <= K, also when the sum rounds below 1
        self._cum[-1] = np.inf

    @classmethod
    def delta(cls, k: int) -> "OffspringDistribution":
        pmf = np.zeros(k + 1)
        pmf[k] = 1.0
        return cls(pmf)

    @property
    def max_children(self) -> int:
        return len(self.pmf) - 1

    @property
    def non_trivial(self) -> bool:
        """True unless the law is the point mass at one child."""
        p1 = self.pmf[1] if len(self.pmf) > 1 else 0.0
        return p1 < 1.0

    def sample(self, rng, size=None):
        return self._cum.searchsorted(rng.random(size), side="right")

    def __repr__(self):
        return f"OffspringDistribution({np.round(self.pmf, 6).tolist()})"


def thin(mu: OffspringDistribution, p: float) -> OffspringDistribution:
    """Binomial p-thinning: each child kept independently with probability p.

    The thinned pmf is sum_{n>=k} C(n,k) p^k (1-p)^(n-k) mu(n); its mean is
    p * mean(mu).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    K = mu.max_children
    out = np.zeros(K + 1)
    for n in range(K + 1):
        w = mu.pmf[n]
        if w == 0.0:
            continue
        for k in range(n + 1):
            out[k] += w * math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
    return OffspringDistribution(out)


def extinction_probability(mu: OffspringDistribution) -> float:
    """Smallest fixed point of the generating function f.

    A non-trivial law with mean <= 1 dies out almost surely (Athreya and
    Ney, 1972), so that case is exact.  Otherwise the root lies in [0, 1)
    and is bisected to adjacent doubles; a law with p0 = 0 never leaves
    lo = 0 and gets exactly 0.  On [0, 1), f(s) - s = (1 - s)(p0 - H(s))
    with H(s) = sum_{k>=1} P(X > k) s^k, so the sign of f(s) - s is the
    sign of p0 - H(s), computed from positive terms, free of the
    cancellation against the fixed point at 1 that makes near-critical
    laws ill-conditioned.
    """
    if mu.mean <= 1.0 and mu.non_trivial:
        return 1.0
    p0 = float(mu.pmf[0])
    tail = np.cumsum(mu.pmf[::-1])[::-1]  # tail[k] = P(X >= k)
    coeffs = np.append(tail[:1:-1], 0.0)  # H, highest power first
    lo, hi = 0.0, 1.0  # H(hi) >= p0 throughout, and H(lo) < p0 once lo > 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo
        if np.polyval(coeffs, mid) < p0:
            lo = mid
        else:
            hi = mid


class MarkedTree:
    """Finite rooted tree with optional marks and uniform edge labels.

    parent maps every vertex id to its parent (root to None); children and
    depth are kept consistent.  edge_labels is keyed by the child endpoint.
    truncated records that a sampling budget (vertex count or depth) cut
    the tree short.
    """

    def __init__(self, root: int = 0):
        self.root = root
        self.parent = {root: None}
        self.children = {root: []}
        self.depth = {root: 0}
        self.marks: set | None = None
        self.edge_labels: dict | None = None
        self.truncated = False
        self.truncation_reason: str | None = None  # "budget" | "depth"

    def add_child(self, parent_id: int, child_id: int):
        if child_id in self.parent:
            raise ValueError(f"vertex {child_id} already present")
        self.parent[child_id] = parent_id
        self.children[child_id] = []
        self.children[parent_id].append(child_id)
        self.depth[child_id] = self.depth[parent_id] + 1

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    def edges(self):
        """(parent, child) pairs, keyed by child insertion order."""
        return [(p, c) for c, p in self.parent.items() if p is not None]

    def max_depth(self) -> int:
        return max(self.depth.values())

    def ensure_edge_labels(self, rng):
        """Draw uniform labels for any edges that lack one, then keep them
        fixed so percolation is monotone-coupled across p.  One
        rng.random(k) call gives the k missing labels, in parent-map order:
        the same doubles, and the same later stream, as k scalar draws."""
        if self.edge_labels is None:
            self.edge_labels = {}
        labels = self.edge_labels
        missing = [c for c, p in self.parent.items() if p is not None and c not in labels]
        labels.update(zip(missing, rng.random(len(missing)).tolist()))

    def adjacency(self):
        """groups.adjacency(parent, edges()): each vertex's parent, then its
        children, in parent-map order."""
        children = self.children
        return {v: [*children[v]] if p is None else [p, *children[v]]
                for v, p in self.parent.items()}


def _grow(tree: MarkedTree, frontier, next_id: int, mu: OffspringDistribution,
          budget: int, rng, max_depth: int | None) -> MarkedTree:
    """Breadth-first GW(mu) growth below the frontier, one generation at a
    time, giving new vertices ids from next_id on; stops at the vertex
    budget or the depth cap.  A family that crosses the budget keeps its
    children below it.  Each family is written straight into the maps,
    without add_child's presence check: every id is handed out once."""
    parent, children, depth = tree.parent, tree.children, tree.depth
    while frontier:
        d = depth[frontier[0]] + 1  # a frontier is one generation
        if max_depth is not None and d > max_depth:
            # children beyond the depth cap are never generated
            if mu.sample(rng, size=len(frontier)).any():
                tree.truncated = True
                tree.truncation_reason = "depth"
            return tree
        first = next_id
        for v, k in zip(frontier, mu.sample(rng, size=len(frontier)).tolist()):
            if not k:
                continue
            stop = next_id + k
            family = range(next_id, min(stop, budget))
            for c in family:
                parent[c] = v
                children[c] = []
                depth[c] = d
            children[v].extend(family)
            if stop > budget:
                tree.truncated = True
                tree.truncation_reason = "budget"
                return tree
            next_id = stop
        frontier = range(first, next_id)  # the new generation, in id order
    return tree


def sample_gw(mu: OffspringDistribution, budget: int, rng, max_depth: int | None = None) -> MarkedTree:
    """Breadth-first Galton-Watson tree, truncated at the vertex budget
    (and optionally at a depth cap)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    return _grow(MarkedTree(root=0), [0], 1, mu, budget, rng, max_depth)


AUGMENTED = "augmented"
UNIMODULAR = "unimodular"


def sample_unimodular_gw(mu: OffspringDistribution, budget: int, rng,
                         variant: str = UNIMODULAR, max_depth: int | None = None,
                         max_retries: int = 100_000) -> MarkedTree:
    """Two GW(mu) trees joined by a root edge; vertex 0 is the root, vertex
    1 the co-root.

    augmented:  plain join.
    unimodular: the augmented law biased by 1/deg(root).  Realized by
        rejection on the root offspring draw alone (deg(root) = offspring+1
        is decided before anything else, so the bias commutes with
        truncation).
    """
    if budget < 2:
        raise ValueError("budget must be >= 2")
    if variant not in (AUGMENTED, UNIMODULAR):
        raise ValueError(f"unknown variant {variant!r}")
    k0 = None
    if variant == AUGMENTED:
        k0 = int(mu.sample(rng))
    else:
        for _ in range(max_retries):
            k = int(mu.sample(rng))
            if rng.random() < 1.0 / (k + 1):
                k0 = k
                break
        if k0 is None:
            raise SamplingError(f"root-degree rejection failed {max_retries} times")
    tree = MarkedTree(root=0)
    tree.add_child(0, 1)
    # the root's own children come first, then the co-root draws its own
    # offspring alongside them; everything below is GW(mu)
    own = range(2, 2 + min(k0, budget - 2))
    for c in own:
        tree.add_child(0, c)
    if len(own) < k0:
        tree.truncated = True
        tree.truncation_reason = "budget"
        return tree
    return _grow(tree, [*own, 1], 2 + len(own), mu, budget, rng, max_depth)


def sample_marked_fuzz_tree(rng, max_vertices: int) -> MarkedTree:
    """Random marked tree for bound fuzzing: a mix of attachment trees,
    paths, stars, preferential-attachment trees and caterpillars, with
    Bernoulli marks (never empty).  Sizes skew small with a heavy tail up
    to max_vertices."""
    if max_vertices < 1:
        raise ValueError("max_vertices must be >= 1")
    hi = max_vertices if rng.random() < 0.2 else max(1, max_vertices // 4)
    n = int(rng.integers(1, hi + 1))
    kind = int(rng.integers(0, 5))
    tree = MarkedTree(root=0)
    # per-vertex draws are made in bulk: broadcast integers and random(k)
    # give the values of one scalar draw per vertex, and leave the stream
    # in the same state
    sizes = np.arange(1, n)
    if kind == 0:  # uniform attachment
        parents = rng.integers(0, sizes).tolist()
    elif kind == 1:  # path
        parents = range(n - 1)
    elif kind == 2:  # star
        parents = [0] * (n - 1)
    elif kind == 3:  # preferential attachment (size-biased parents)
        parents = []
        ends = [0]  # 2v - 1 entries when vertex v attaches
        for v, i in enumerate(rng.integers(0, 2 * sizes - 1).tolist(), 1):
            p = ends[i]
            parents.append(p)
            ends.extend((p, v))
    else:  # caterpillar: each vertex hangs from the last spine vertex
        parents = []
        spine = 0
        for v, step in enumerate((rng.random(n - 1) < 0.5).tolist(), 1):
            parents.append(spine)
            if step:
                spine = v
    # vertex v = 1, 2, ... attaches below parents[v - 1] < v, so every
    # parent's entries exist: the maps add_child would build, in its order
    parent, children, depth = tree.parent, tree.children, tree.depth
    for v, p in enumerate(parents, 1):
        parent[v] = p
        children[v] = []
        children[p].append(v)
        depth[v] = depth[p] + 1
    rate = float(rng.uniform(0.02, 1.0))
    marks = set(np.flatnonzero(rng.random(n) < rate).tolist())
    if not marks:
        marks = {int(rng.integers(0, n))}
    tree.marks = marks
    return tree


def percolate_root_component(tree: MarkedTree, p: float, rng=None) -> MarkedTree:
    """Root component of the edges with label <= p.

    Labels are drawn lazily (then fixed on the input tree) so that the
    components are monotone-coupled in p.  The result keeps the original
    vertex ids.  One pass over the parent map, which lists every parent
    before its children, keeps a vertex when its parent is kept and its
    edge label is <= p; the result's maps, and its edge labels, follow
    that order.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    labels = tree.edge_labels
    # every vertex but the root needs a label
    if labels is None or not tree.parent.keys() - labels.keys() <= {tree.root}:
        if rng is None:
            raise ValueError("tree has unlabeled edges and no rng was given")
        tree.ensure_edge_labels(rng)
        labels = tree.edge_labels
    out = MarkedTree(root=tree.root)
    out.truncated = tree.truncated
    parent, children, depth = out.parent, out.children, out.depth
    kept_labels = {}
    for c, q in tree.parent.items():
        if q in depth and labels[c] <= p:  # the root's q, None, is never kept
            parent[c] = q
            children[c] = []
            children[q].append(c)
            depth[c] = depth[q] + 1
            kept_labels[c] = labels[c]
    if tree.marks is not None:
        out.marks = {v for v in tree.marks if v in parent}
    out.edge_labels = kept_labels
    return out
