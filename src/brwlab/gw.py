"""Galton-Watson trees: sampling, degree-biased variants, thinning.

Trees are finite rooted structures over integer vertex ids.  Samplers take
an explicit numpy Generator; there is no hidden global state.
"""

from __future__ import annotations

import math

import numpy as np

from . import groups


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
        u = rng.random(size)
        return np.searchsorted(self._cum, u, side="right").clip(0, self.max_children)

    def pgf(self, s: float) -> float:
        return float(np.polyval(self.pmf[::-1], s))

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


def extinction_probability(mu: OffspringDistribution, tol: float = 1e-12, max_iter: int = 5_000_000) -> float:
    """Smallest fixed point of the generating function.

    A non-trivial law with mean <= 1 dies out almost surely (Athreya and
    Ney, 1972), so that case is exact.  Otherwise monotone iteration from
    0; near-critical laws converge slowly, and the iteration cap keeps the
    cost bounded while staying far below the tolerance for the laws used
    here.
    """
    if mu.mean <= 1.0 and mu.non_trivial:
        return 1.0
    q = 0.0
    for _ in range(max_iter):
        nxt = mu.pgf(q)
        if abs(nxt - q) < tol:
            return nxt
        q = nxt
    return q


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

    def vertices(self):
        return list(self.parent.keys())

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
        fixed so percolation is monotone-coupled across p."""
        if self.edge_labels is None:
            self.edge_labels = {}
        for c, p in self.parent.items():
            if p is not None and c not in self.edge_labels:
                self.edge_labels[c] = float(rng.random())

    def adjacency(self):
        return groups.adjacency(self.parent, self.edges())

    def to_lines(self):
        """Line format: id parent depth mark label (root parent = -1)."""
        out = []
        marks = self.marks or set()
        for v in self.parent:
            p = self.parent[v]
            label = "-"
            if self.edge_labels is not None and v in self.edge_labels:
                label = repr(self.edge_labels[v])
            out.append(
                f"{v} {-1 if p is None else p} {self.depth[v]} {1 if v in marks else 0} {label}"
            )
        return out

    @classmethod
    def from_lines(cls, lines):
        rows = [ln.split() for ln in lines if ln.strip()]
        root_rows = [r for r in rows if r[1] == "-1"]
        if len(root_rows) != 1:
            raise ValueError("tree text must have exactly one root line")
        tree = cls(root=int(root_rows[0][0]))
        pending = [r for r in rows if r[1] != "-1"]
        marks = set()
        labels = {}
        if int(root_rows[0][3]):
            marks.add(tree.root)
        while pending:
            rest = []
            for r in pending:
                v, p = int(r[0]), int(r[1])
                if p in tree.parent:
                    tree.add_child(p, v)
                    if int(r[3]):
                        marks.add(v)
                    if r[4] != "-":
                        labels[v] = float(r[4])
                else:
                    rest.append(r)
            if len(rest) == len(pending):
                raise ValueError("disconnected tree text")
            pending = rest
        tree.marks = marks if marks else None
        tree.edge_labels = labels if labels else None
        return tree


def _grow(tree: MarkedTree, frontier: list, next_id: int, mu: OffspringDistribution,
          budget: int, rng, max_depth: int | None) -> MarkedTree:
    """Breadth-first GW(mu) growth below the frontier, giving new vertices
    ids from next_id on; stops at the vertex budget or the depth cap."""
    while frontier:
        if max_depth is not None and tree.depth[frontier[0]] >= max_depth:
            # children beyond the depth cap are never generated
            if any(int(k) > 0 for k in mu.sample(rng, size=len(frontier))):
                tree.truncated = True
                tree.truncation_reason = "depth"
            return tree
        draws = mu.sample(rng, size=len(frontier))
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
    own = list(range(2, 2 + min(k0, budget - 2)))
    for v in own:
        tree.add_child(0, v)
    if len(own) < k0:
        tree.truncated = True
        tree.truncation_reason = "budget"
        return tree
    return _grow(tree, own + [1], 2 + len(own), mu, budget, rng, max_depth)


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
    if kind == 0:  # uniform attachment
        for v in range(1, n):
            tree.add_child(int(rng.integers(0, v)), v)
    elif kind == 1:  # path
        for v in range(1, n):
            tree.add_child(v - 1, v)
    elif kind == 2:  # star
        for v in range(1, n):
            tree.add_child(0, v)
    elif kind == 3:  # preferential attachment (size-biased parents)
        ends = [0]
        for v in range(1, n):
            p = ends[int(rng.integers(0, len(ends)))]
            tree.add_child(p, v)
            ends.extend((p, v))
    else:  # caterpillar
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


def percolate_root_component(tree: MarkedTree, p: float, rng=None) -> MarkedTree:
    """Root component of the edges with label <= p.

    Labels are drawn lazily (then fixed on the input tree) so that the
    components are monotone-coupled in p.  The result keeps the original
    vertex ids.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if tree.edge_labels is None or any(
        c not in tree.edge_labels for c, q in tree.parent.items() if q is not None
    ):
        if rng is None:
            raise ValueError("tree has unlabeled edges and no rng was given")
        tree.ensure_edge_labels(rng)
    out = MarkedTree(root=tree.root)
    out.truncated = tree.truncated
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
