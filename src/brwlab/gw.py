"""Galton-Watson trees: sampling, degree-biased variants, thinning.

Trees are flat: the vertices are the ids 0..n-1, root 0, held as one list
of parent ids (-1 at the root, parent[v] < v elsewhere) with edge labels
and walk values in lists indexed by the same ids.  Samplers take an
explicit numpy Generator; there is no hidden global state.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import islice, repeat

import numpy as np

from . import groups


MAX_OFFSPRING = 64
DEFAULT_BUDGET = 1_000_000  # the vertex budget of every sampler that takes one


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
    """Finite rooted tree over the vertex ids 0..n-1, with optional marks
    and uniform edge labels.

    parent is a list of ints: parent[0] == -1 at the root, vertex 0, and
    parent[v] < v for every other vertex, so a pass in id order meets each
    parent before its children (the GW samplers hand out ids in
    breadth-first order).  children and depth, lists indexed by id, are
    computed on first read; parent is not changed after that.
    edge_labels[v] is the label of the edge from v to its parent, with
    edge_labels[0] = 0.0 at the root.  On a root component, ids[v] is v's
    id in the tree it was cut from.  truncation_reason is "budget" or
    "depth" when that sampling budget cut the tree short, else None.
    """

    root = 0

    def __init__(self, parent=None):
        self.parent = [-1] if parent is None else parent
        self.marks: set | None = None
        self.edge_labels: list | None = None
        self.ids: list | None = None
        self.truncation_reason: str | None = None

    @property
    def truncated(self) -> bool:
        return self.truncation_reason is not None

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    @cached_property
    def children(self) -> list:
        children = [[] for _ in self.parent]
        for v, p in enumerate(islice(self.parent, 1, None), 1):
            children[p].append(v)
        return children

    @cached_property
    def depth(self) -> list:
        depth = [0]
        for p in islice(self.parent, 1, None):
            depth.append(depth[p] + 1)
        return depth

    def edges(self):
        """(parent, child) pairs, in child id order."""
        return list(zip(islice(self.parent, 1, None), range(1, self.n_vertices)))

    def max_depth(self) -> int:
        return max(self.depth)

    def ensure_edge_labels(self, rng):
        """Draw uniform labels for the edges that lack one, then keep them
        fixed so percolation is monotone-coupled across p.  The labels are
        a prefix of the ids; one rng.random(k) call gives the k missing
        ones, in id order: the same doubles, and the same later stream, as
        k scalar draws."""
        if self.edge_labels is None:
            self.edge_labels = [0.0]
        self.edge_labels += rng.random(self.n_vertices - len(self.edge_labels)).tolist()

    def adjacency(self):
        """Adjacency lists by groups.adjacency over the edges in child id
        order: each vertex's parent, then its children, in id order."""
        return groups.adjacency(range(self.n_vertices), self.edges())


def _grow(tree: MarkedTree, frontier, depth: int, mu: OffspringDistribution,
          budget: int, rng, max_depth: int | None) -> MarkedTree:
    """Breadth-first GW(mu) growth below the frontier, one generation (at
    the given depth, holding the tree's newest ids) at a time, giving new
    vertices the next ids; stops at the vertex budget or the depth cap.  A
    family that crosses the budget keeps its children below it.  Each
    family is one extend of the parent list."""
    parent = tree.parent
    while frontier:
        if max_depth is not None and depth >= max_depth:
            # children beyond the depth cap are never generated (the
            # builtin any() of a short list is cheaper than the array's)
            if any(mu.sample(rng, size=len(frontier)).tolist()):
                tree.truncation_reason = "depth"
            return tree
        first = len(parent)
        for v, k in zip(frontier, mu.sample(rng, size=len(frontier)).tolist()):
            if not k:
                continue
            room = budget - len(parent)
            if k > room:
                parent.extend(repeat(v, room))
                tree.truncation_reason = "budget"
                return tree
            parent.extend(repeat(v, k))
        frontier = range(first, len(parent))  # the new generation, in id order
        depth += 1
    return tree


def sample_gw(mu: OffspringDistribution, budget: int, rng, max_depth: int | None = None) -> MarkedTree:
    """Breadth-first Galton-Watson tree, truncated at the vertex budget
    (and optionally at a depth cap)."""
    groups.check_count("budget", budget, 1)
    if max_depth is not None:
        groups.check_count("max_depth", max_depth, 0)
    return _grow(MarkedTree(), [0], 0, mu, budget, rng, max_depth)


AUGMENTED = "augmented"
UNIMODULAR = "unimodular"


def sample_unimodular_gw(mu: OffspringDistribution, budget: int, rng,
                         variant: str = UNIMODULAR, max_depth: int | None = None) -> MarkedTree:
    """Two GW(mu) trees joined by a root edge; vertex 0 is the root, vertex
    1 the co-root.

    augmented:  plain join.
    unimodular: the augmented law biased by 1/deg(root).  Realized by
        rejection on the root offspring draw alone (deg(root) = offspring+1
        is decided before anything else, so the bias commutes with
        truncation); a try accepts with probability E[1/(k+1)] >= 1/65.
    """
    groups.check_count("budget", budget, 2)
    if max_depth is not None:
        groups.check_count("max_depth", max_depth, 0)
    if variant not in (AUGMENTED, UNIMODULAR):
        raise ValueError(f"unknown variant {variant!r}")
    k0 = int(mu.sample(rng))
    while variant == UNIMODULAR and rng.random() >= 1.0 / (k0 + 1):
        k0 = int(mu.sample(rng))
    # the root's own children come first, then the co-root draws its own
    # offspring alongside them; everything below is GW(mu)
    tree = MarkedTree([-1, 0, *repeat(0, min(k0, budget - 2))])
    if tree.n_vertices - 2 < k0:
        tree.truncation_reason = "budget"
        return tree
    return _grow(tree, [*range(2, 2 + k0), 1], 1, mu, budget, rng, max_depth)


def sample_marked_fuzz_tree(rng, max_vertices: int) -> MarkedTree:
    """Random marked tree for bound fuzzing: a mix of attachment trees,
    paths, stars, preferential-attachment trees and caterpillars, with
    Bernoulli marks (never empty).  Sizes skew small with a heavy tail up
    to max_vertices."""
    groups.check_count("max_vertices", max_vertices, 1)
    hi = max_vertices if rng.random() < 0.2 else max(1, max_vertices // 4)
    n = int(rng.integers(1, hi + 1))
    kind = int(rng.integers(0, 5))
    # per-vertex draws are made in bulk: broadcast integers and random(k)
    # give the values of one scalar draw per vertex, and leave the stream
    # in the same state; vertex v = 1, 2, ... attaches below parent[v] < v
    sizes = np.arange(1, n)
    if kind == 0:  # uniform attachment
        parent = [-1, *rng.integers(0, sizes).tolist()]
    elif kind == 1:  # path
        parent = [-1, *range(n - 1)]
    elif kind == 2:  # star
        parent = [-1, *repeat(0, n - 1)]
    elif kind == 3:  # preferential attachment (size-biased parents)
        parent = [-1]
        ends = [0]  # 2v - 1 entries when vertex v attaches
        for v, i in enumerate(rng.integers(0, 2 * sizes - 1).tolist(), 1):
            p = ends[i]
            parent.append(p)
            ends.extend((p, v))
    else:  # caterpillar: each vertex hangs from the last spine vertex
        parent = [-1]
        spine = 0
        for v, step in enumerate((rng.random(n - 1) < 0.5).tolist(), 1):
            parent.append(spine)
            if step:
                spine = v
    tree = MarkedTree(parent)
    rate = float(rng.uniform(0.02, 1.0))
    marks = set(np.flatnonzero(rng.random(n) < rate).tolist())
    if not marks:
        marks = {int(rng.integers(0, n))}
    tree.marks = marks
    return tree


def percolate_root_component(tree: MarkedTree, p: float) -> MarkedTree:
    """Root component of the edges with label <= p, as a flat tree whose
    ids[i] is the original id of its vertex i.

    Every edge must carry its label (MarkedTree.ensure_edge_labels), so
    the components of one tree are monotone-coupled in p.  One pass in id
    order keeps a vertex when its parent is kept and its edge label is
    <= p; the kept vertices get the ids 0, 1, ... in that order, and keep
    their labels and marks, and the tree's truncation reason.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    n = tree.n_vertices
    labels = tree.edge_labels
    if labels is None or len(labels) < n:
        raise ValueError("tree has unlabeled edges")
    new = [-1] * n  # each vertex's id in the component, -1 when cut off
    new[0] = 0
    ids, parent, kept = [0], [-1], [0.0]
    for v, q, label in zip(range(1, n), islice(tree.parent, 1, None), islice(labels, 1, None)):
        if label <= p and new[q] >= 0:
            new[v] = len(ids)
            ids.append(v)
            parent.append(new[q])
            kept.append(label)
    out = MarkedTree(parent)
    out.ids = ids
    out.edge_labels = kept
    out.truncation_reason = tree.truncation_reason
    if tree.marks is not None:
        out.marks = {new[v] for v in tree.marks if new[v] >= 0}
    return out
