"""Tree-indexed random walks and their traces."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import groups
from .gw import MarkedTree, OffspringDistribution, sample_gw


class TreeWalk:
    """Assignment of group elements to tree vertices: the root gets the
    start value, every child an independent uniform neighbour of its
    parent's value."""

    def __init__(self, tree: MarkedTree, group: groups.GroupSpec, values: dict):
        self.tree = tree
        self.group = group
        self.values = values

    @property
    def start(self):
        return self.values[self.tree.root]

    def image_counts(self) -> Counter:
        return Counter(self.values.values())

    def visits_to(self, x) -> int:
        return sum(1 for v in self.values.values() if v == x)


def run_walk(tree: MarkedTree, g: groups.GroupSpec, start, rng) -> TreeWalk:
    groups.validate_elem(g, start)
    values = {tree.root: start}
    deg = g.degree
    order = tree.vertices()
    picks = rng.integers(0, deg, size=len(order))
    for i, v in enumerate(order):
        p = tree.parent[v]
        if p is None:
            continue
        values[v] = groups.neighbors(g, values[p])[picks[i]]
    return TreeWalk(tree, g, values)


class TraceGraph:
    """Subgraph spanned by the crossed edges, with crossing multiplicities
    and per-vertex visit counts."""

    def __init__(self, vertices, edge_mult, visits, start):
        self.vertices = vertices
        self.edge_mult = edge_mult
        self.visits = visits
        self.start = start

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def adjacency(self):
        return groups.adjacency(self.vertices, self.edge_mult)

    def to_lines(self, g: groups.GroupSpec):
        out = []
        for (a, b), m in self.edge_mult.items():
            out.append(f"{groups.elem_to_str(g, a)} {groups.elem_to_str(g, b)} {m}")
        return out


def trace(walk: TreeWalk) -> TraceGraph:
    values = walk.values
    edge_mult = Counter()
    for c, p in walk.tree.parent.items():
        if p is None:
            continue
        a, b = values[p], values[c]
        key = (a, b) if a <= b else (b, a)
        edge_mult[key] += 1
    visits = walk.image_counts()
    return TraceGraph(set(visits.keys()), dict(edge_mult), dict(visits), walk.start)


@dataclass
class VisitProfile:
    """Per-depth visit statistics of the walk's start vertex.

    counts[i, n] is the number of tree vertices at depth <= n mapped onto
    the start by replicate i; survived[i, n] says the tree reached depth n.
    """

    depths: np.ndarray
    counts: np.ndarray
    survived: np.ndarray
    classification: str = field(default="")

    def mean_by_depth(self) -> np.ndarray:
        return self.counts.mean(axis=0)

    def conditional_mean_by_depth(self) -> np.ndarray:
        out = np.full(len(self.depths), np.nan)
        for j in range(len(self.depths)):
            alive = self.survived[:, j]
            if alive.any():
                out[j] = self.counts[alive, j].mean()
        return out


def origin_visit_experiment(mu: OffspringDistribution, g: groups.GroupSpec, start,
                            depth_budget: int, replicates: int, rng) -> VisitProfile:
    """Monte Carlo probe of the transient/recurrent signature: how the
    visit count of the start grows with the generation cutoff.

    No extrapolation is done; every statistic is indexed by its cutoff.
    """
    if depth_budget < 1:
        raise ValueError("depth_budget must be >= 1")
    depths = np.arange(depth_budget + 1)
    counts = np.zeros((replicates, depth_budget + 1), dtype=np.int64)
    survived = np.zeros((replicates, depth_budget + 1), dtype=bool)
    for i in range(replicates):
        tree = sample_gw(mu, budget=10_000_000, rng=rng, max_depth=depth_budget)
        walk = run_walk(tree, g, start, rng)
        per_depth = np.zeros(depth_budget + 1, dtype=np.int64)
        deepest = 0
        for v, val in walk.values.items():
            dep = tree.depth[v]
            deepest = max(deepest, dep)
            if val == start:
                per_depth[dep] += 1
        counts[i] = np.cumsum(per_depth)
        survived[i, : deepest + 1] = True
    profile = VisitProfile(depths, counts, survived)
    cond = profile.conditional_mean_by_depth()
    half = depth_budget // 2
    if np.isnan(cond[-1]) or np.isnan(cond[half]):
        profile.classification = "inconclusive"
    else:
        growth = cond[-1] - cond[half]
        # crude standard error of the late-depth conditional mean
        alive = survived[:, -1]
        se = counts[alive, -1].std() / max(np.sqrt(alive.sum()), 1.0) if alive.any() else np.inf
        profile.classification = "growing" if growth > 2.0 * se else "stable"
    return profile
