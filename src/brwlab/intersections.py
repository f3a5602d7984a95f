"""Intersections of two independent tree-indexed walks: exact expected
pair counts at matched truncation, Monte Carlo sampling at one depth for
both trees, and shared-label thinning sweeps; and the ends experiment on
one walk's trace, the adjacency lists of walks.trace.  For each radius r
of its grid, the ends experiment counts the components of the trace
minus its closed radius-r ball (trace-graph distance from the start)
that hold at least m_threshold trace vertices, every radius from one
union-find pass."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from . import groups
from .gw import (DEFAULT_BUDGET, MarkedTree, OffspringDistribution, percolate_root_component,
                 sample_gw)
from .walks import run_walk, trace


def expected_pairs_profile(mean1: float, mean2: float, g: groups.GroupSpec,
                           x, y, n_max: int) -> np.ndarray:
    """E(N) = sum_{n,m <= N} mean1^n mean2^m p_{n+m}(x, y) for N = 0..n_max.

    Terms are assembled in log space on the operator-norm scale and E(N)
    is their float sum, inf only once it leaves the double range; within
    the CLI's caps (means and N at most 64) E(N) stays below 7e234.
    """
    if not (math.isfinite(mean1) and math.isfinite(mean2)):
        raise ValueError("means must be finite")
    if mean1 < 0 or mean2 < 0:
        raise ValueError("means must be >= 0")
    groups.check_count("n_max", n_max, 0)
    s, rho = groups.scaled_p_series(g, x, y, 2 * n_max)
    with np.errstate(divide="ignore"):
        log_s = np.log(s)
    log_rho = math.log(rho)
    lm1 = math.log(mean1) if mean1 > 0 else -np.inf
    lm2 = math.log(mean2) if mean2 > 0 else -np.inf
    out = np.empty(n_max + 1)
    ns = np.arange(n_max + 1)
    log_w1 = ns * (lm1 + log_rho) if mean1 > 0 else np.where(ns == 0, 0.0, -np.inf)
    log_w2 = ns * (lm2 + log_rho) if mean2 > 0 else np.where(ns == 0, 0.0, -np.inf)
    out[0] = total = float(s[0])  # the (0, 0) term: p_0(x, y)
    for N in range(1, n_max + 1):
        # new terms: (n, N) for n < N, (N, m) for m < N, and (N, N)
        lt1 = log_w1[:N] + log_w2[N] + log_s[N:2 * N]
        lt2 = log_w1[N] + log_w2[:N] + log_s[N:2 * N]
        ltd = log_w1[N] + log_w2[N] + log_s[2 * N]
        chunks = np.concatenate((lt1, lt2, [ltd]))
        with np.errstate(under="ignore", over="ignore"):
            total += float(np.exp(chunks[np.isfinite(chunks)]).sum())
        out[N] = total
    return out


def expected_pairs_truncated(mean1: float, mean2: float, g: groups.GroupSpec,
                             x, y, n_max: int) -> float:
    """Expected number of coinciding vertex pairs of two independent
    tree-indexed walks truncated at generation n_max each."""
    return float(expected_pairs_profile(mean1, mean2, g, x, y, n_max)[n_max])


@dataclass
class IntersectionRecord:
    """One realization of a pair of truncated walks and their overlap."""

    tree1: MarkedTree
    intersection: frozenset
    pulled_back: frozenset
    pair_count: int
    truncated: bool
    budget_cut: bool  # either tree cut at the vertex budget


def sample_intersections(mu1: OffspringDistribution, mu2: OffspringDistribution,
                         g: groups.GroupSpec, depth: int, rng,
                         budget: int = DEFAULT_BUDGET) -> IntersectionRecord:
    """Sample two independent walks, both started at the identity, on
    trees truncated at the same depth (the matched truncation of
    expected_pairs_truncated), and record the vertices of g visited by
    both, the matching tree-1 preimage, and the pair count."""
    tree1 = sample_gw(mu1, budget, rng, max_depth=depth)
    tree2 = sample_gw(mu2, budget, rng, max_depth=depth)
    e = g.identity()
    walk1 = run_walk(tree1, g, e, rng)
    walk2 = run_walk(tree2, g, e, rng)
    counts1 = walk1.image_counts()
    counts2 = walk2.image_counts()
    common = set(counts1.keys()) & set(counts2.keys())
    pair_count = sum(counts1[z] * counts2[z] for z in common)
    pulled = frozenset(v for v, z in enumerate(walk1.values) if z in counts2)
    return IntersectionRecord(
        tree1=tree1,
        intersection=frozenset(common),
        pulled_back=pulled,
        pair_count=pair_count,
        truncated=tree1.truncated or tree2.truncated,
        budget_cut="budget" in (tree1.truncation_reason, tree2.truncation_reason),
    )


@dataclass
class ThinSweepReplicate:
    """Per-p overlap of one replicate under shared edge labels."""

    sets: dict  # p -> frozenset of tree-1 vertex ids
    pair_counts: dict  # p -> int
    truncated: bool


def _thresholds(tree: MarkedTree, p: float):
    """The root component at p, as (ids, thr): the tree ids of its
    vertices, and each one's thr, the largest edge label on its root path
    (0.0 at the root).  The component lists every parent before its
    children, so one pass fills thr."""
    comp = percolate_root_component(tree, p)
    thr = [0.0]
    append = thr.append
    for u, label in zip(islice(comp.parent, 1, None), islice(comp.edge_labels, 1, None)):
        t = thr[u]
        append(label if label > t else t)
    return comp.ids, thr


def thinned_intersection_sweep(mu1: OffspringDistribution, mu2: OffspringDistribution,
                               g: groups.GroupSpec, p_grid, depth: int, rng,
                               budget: int = DEFAULT_BUDGET) -> ThinSweepReplicate:
    """Sample one replicate: thin both trees by their fixed edge labels at
    every p in the grid and intersect the restricted walks.

    Each tree is percolated once, at the top of the grid, whose root
    component contains every lower one.  A vertex's threshold thr(v) is
    the largest label on its root path (0.0 at the root), and v lies in
    the component at p iff thr(v) <= p: the rule `label <= p` on every
    edge of the path, ties included.  With tree-2 thresholds grouped by
    walk value and sorted, a tree-1 vertex v with value z is in the
    overlap set at p iff thr(v) <= p and the smallest tree-2 threshold
    of z is <= p, and it adds bisect_right(thresholds of z, p) to the
    pair count.  The overlap sets are therefore nested along the grid by
    construction: sorted by the p at which they join, they are prefixes of
    one list.  Both walks start at the identity.
    """
    p_grid = sorted(set(float(p) for p in p_grid))
    if any(not 0.0 <= p <= 1.0 for p in p_grid):
        raise ValueError("p_grid entries must lie in [0, 1]")
    e = g.identity()
    tree1 = sample_gw(mu1, budget, rng, max_depth=depth)
    tree2 = sample_gw(mu2, budget, rng, max_depth=depth)
    tree1.ensure_edge_labels(rng)
    tree2.ensure_edge_labels(rng)
    walk1 = run_walk(tree1, g, e, rng)
    walk2 = run_walk(tree2, g, e, rng)
    sets = {}
    pairs = {}
    if p_grid:
        by_value = {}  # walk value -> sorted tree-2 thresholds
        values = walk2.values
        for v, t in zip(*_thresholds(tree2, p_grid[-1])):
            by_value.setdefault(values[v], []).append(t)
        for ts in by_value.values():
            ts.sort()
        # (entry, v, by_value entry) for the values both walks reach, where
        # v joins the overlap at p = entry; both roots have the identity and
        # threshold 0.0, so there is at least one
        hits = []
        values = walk1.values
        for v, t in zip(*_thresholds(tree1, p_grid[-1])):
            ts = by_value.get(values[v])
            if ts is not None:
                hits.append((t if t > ts[0] else ts[0], v, ts))
        entries, vs, tss = zip(*sorted(hits))
        for p in p_grid:
            k = bisect_right(entries, p)  # the overlap at p is a prefix
            sets[p] = frozenset(vs[:k])
            pairs[p] = sum(map(bisect_right, tss[:k], repeat(p)))
    return ThinSweepReplicate(sets, pairs, tree1.truncated or tree2.truncated)


@dataclass
class TraceEndsResult:
    """One trace's qualifying-component counts by removal radius, in
    ascending radius order, and whether its tree reached the depth."""

    qualifying: dict  # radius -> count
    survived: bool


def _ends_counts(adj: dict, start, radii, m_threshold: int) -> dict:
    """For each radius r in radii (ascending), the number of components
    of the graph minus the closed radius-r ball around start that hold at
    least m_threshold vertices.  One BFS gives the distances; vertices then
    join a union-find farthest first, and the count at r is read once
    every vertex beyond r has joined."""
    dist = groups.bfs(adj.__getitem__, start)
    order = list(dist)  # BFS order: distances nondecreasing
    parent = {}  # the vertices joined so far
    size = {}  # at a root: its component's size

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    big = 0  # components with at least m_threshold vertices
    counts = []
    for r in reversed(radii):
        while order and dist[order[-1]] > r:
            v = order.pop()
            roots = {find(w) for w in adj[v] if w in parent}
            parent[v] = v
            size[v] = 1 + sum(size[x] for x in roots)
            big += (size[v] >= m_threshold) - sum(size[x] >= m_threshold for x in roots)
            for x in roots:
                parent[x] = v
        counts.append(big)
    return dict(zip(radii, reversed(counts)))


def trace_ends_experiment(mu: OffspringDistribution, g: groups.GroupSpec,
                          depth: int, radius_grid, m_threshold: int,
                          rng, budget: int = DEFAULT_BUDGET) -> TraceEndsResult:
    """Grow one trace from the identity to a depth budget, carve out balls
    around it and count components still holding enough trace vertices."""
    if mu.mean <= 1.0:
        raise ValueError("trace ends experiment needs a supercritical mean")
    for r in radius_grid:
        groups.check_count("radius_grid entries", r, 0)
    radii = sorted(set(radius_grid))
    groups.check_count("m_threshold", m_threshold, 1)
    start = g.identity()
    tree = sample_gw(mu, budget, rng, max_depth=depth)
    adj = trace(run_walk(tree, g, start, rng))
    qualifying = _ends_counts(adj, start, radii, m_threshold)
    return TraceEndsResult(qualifying, tree.max_depth() >= depth)
