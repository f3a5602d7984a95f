"""Intersections of two independent tree-indexed walks: exact expected
pair counts at matched truncation, Monte Carlo sampling, shared-label
thinning sweeps, and ends diagnostics."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import groups
from .gw import MarkedTree, OffspringDistribution, percolate_root_component, sample_gw
from .magic import OrientedTree, branching_vertices, counting_bound, ends_profile
from .walks import TreeWalk, run_walk, trace


def expected_pairs_profile(mean1: float, mean2: float, g: groups.GroupSpec,
                           x, y, n_max: int, guard: float = 1e30) -> np.ndarray:
    """E(N) = sum_{n,m <= N} mean1^n mean2^m p_{n+m}(x, y) for N = 0..n_max.

    Terms are assembled in log space on the operator-norm scale; once a
    partial sum passes the guard the profile is frozen there (divergence
    at desk scale).
    """
    if mean1 < 0 or mean2 < 0:
        raise ValueError("means must be >= 0")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    s, rho = groups.scaled_p_series(g, x, y, 2 * n_max)
    log_s = np.full(2 * n_max + 1, -np.inf)
    pos = s > 0
    log_s[pos] = np.log(s[pos])
    log_rho = math.log(rho)
    lm1 = math.log(mean1) if mean1 > 0 else -np.inf
    lm2 = math.log(mean2) if mean2 > 0 else -np.inf
    out = np.empty(n_max + 1)
    ns = np.arange(n_max + 1)
    log_w1 = ns * (lm1 + log_rho) if mean1 > 0 else np.where(ns == 0, 0.0, -np.inf)
    log_w2 = ns * (lm2 + log_rho) if mean2 > 0 else np.where(ns == 0, 0.0, -np.inf)
    total = float(np.exp(log_s[0]))  # the (0, 0) term: p_0(x, y)
    out[0] = total
    log_guard = math.log(guard)
    for N in range(1, n_max + 1):
        # new terms: (n, N) for n < N, (N, m) for m < N, and (N, N)
        lt1 = log_w1[:N] + log_w2[N] + log_s[N + ns[:N]]
        lt2 = log_w1[N] + log_w2[:N] + log_s[N + ns[:N]]
        ltd = log_w1[N] + log_w2[N] + log_s[2 * N]
        chunks = np.concatenate((lt1, lt2, [ltd]))
        finite = chunks[np.isfinite(chunks)]
        if len(finite) and finite.max() > log_guard:
            out[N:] = total
            return out
        with np.errstate(under="ignore"):
            total += float(np.exp(finite).sum()) if len(finite) else 0.0
        if total > guard:
            out[N:] = total
            return out
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

    group: groups.GroupSpec
    x: object
    y: object
    depth1: int
    depth2: int
    tree1: MarkedTree
    walk1: TreeWalk
    intersection: frozenset
    pulled_back: frozenset
    pair_count: int
    truncated: bool


def sample_intersections(mu1: OffspringDistribution, mu2: OffspringDistribution,
                         g: groups.GroupSpec, x, y, n1: int, n2: int, rng,
                         budget: int = 1_000_000) -> IntersectionRecord:
    """Sample two independent truncated walks and record the vertices of g
    visited by both, the matching tree-1 preimage, and the pair count."""
    tree1 = sample_gw(mu1, budget, rng, max_depth=n1)
    tree2 = sample_gw(mu2, budget, rng, max_depth=n2)
    walk1 = run_walk(tree1, g, x, rng)
    walk2 = run_walk(tree2, g, y, rng)
    counts1 = walk1.image_counts()
    counts2 = walk2.image_counts()
    common = set(counts1.keys()) & set(counts2.keys())
    pair_count = sum(counts1[z] * counts2[z] for z in common)
    pulled = frozenset(v for v, z in walk1.values.items() if z in counts2)
    return IntersectionRecord(
        group=g, x=x, y=y, depth1=n1, depth2=n2,
        tree1=tree1, walk1=walk1,
        intersection=frozenset(common),
        pulled_back=pulled,
        pair_count=pair_count,
        truncated=tree1.truncated or tree2.truncated,
    )


@dataclass
class ThinSweepReplicate:
    """Per-p overlap of one replicate under shared edge labels."""

    sets: dict  # p -> frozenset of tree-1 vertex ids
    pair_counts: dict  # p -> int
    truncated: bool


def thinned_intersection_sweep(mu1: OffspringDistribution, mu2: OffspringDistribution,
                               g: groups.GroupSpec, p_grid, depth: int,
                               replicates: int, rng, budget: int = 1_000_000,
                               x=None, y=None):
    """For each replicate, thin both trees by their fixed edge labels at
    every p in the grid and intersect the restricted walks.

    With shared labels the root components grow with p, so the overlap
    sets are nested along the grid on every replicate.
    """
    p_grid = sorted(set(float(p) for p in p_grid))
    if any(not 0.0 <= p <= 1.0 for p in p_grid):
        raise ValueError("p_grid entries must lie in [0, 1]")
    if x is None:
        x = g.identity()
    if y is None:
        y = g.identity()
    out = []
    for _ in range(replicates):
        tree1 = sample_gw(mu1, budget, rng, max_depth=depth)
        tree2 = sample_gw(mu2, budget, rng, max_depth=depth)
        tree1.ensure_edge_labels(rng)
        tree2.ensure_edge_labels(rng)
        walk1 = run_walk(tree1, g, x, rng)
        walk2 = run_walk(tree2, g, y, rng)
        sets = {}
        pairs = {}
        for p in p_grid:
            sub1 = percolate_root_component(tree1, p)
            sub2 = percolate_root_component(tree2, p)
            counts2 = Counter(walk2.values[v] for v in sub2.parent)
            counts1 = Counter(walk1.values[v] for v in sub1.parent)
            sets[p] = frozenset(v for v in sub1.parent if walk1.values[v] in counts2)
            pairs[p] = sum(
                c * counts2[z] for z, c in counts1.items() if z in counts2
            )
        out.append(
            ThinSweepReplicate(sets, pairs, tree1.truncated or tree2.truncated)
        )
    return out


@dataclass
class EndsDiagnosticEntry:
    k: int
    r: int
    branching_count: int
    bound_value: float
    root_branching: bool
    root_fraction: float
    three_plus_signal: bool


@dataclass
class EndsDiagnostic:
    verdict: str
    entries: list


def intersection_ends_diagnostic(record: IntersectionRecord, k_grid, r_grid) -> EndsDiagnostic:
    """Branching census of the pulled-back overlap inside tree 1.

    A path-shaped overlap produces no branching vertices at small (k, r);
    a bushy overlap produces many, which is the finite-scale signature of
    three or more directions of accumulation.
    """
    I = record.pulled_back
    if not I:
        return EndsDiagnostic("finite/empty", [])
    T = OrientedTree.from_tree(record.tree1, marks=I)
    entries = []
    signal = False
    for r in sorted(set(int(r) for r in r_grid)):
        for k in sorted(set(int(k) for k in k_grid)):
            B = branching_vertices(T, None, k, r)
            frac = len(B & I) / len(I)
            three_plus = len(B) > 4 * r
            signal = signal or three_plus
            entries.append(
                EndsDiagnosticEntry(
                    k=k, r=r,
                    branching_count=len(B),
                    bound_value=counting_bound(len(I), k, r),
                    root_branching=record.tree1.root in B,
                    root_fraction=frac,
                    three_plus_signal=three_plus,
                )
            )
    verdict = "three_plus_ends_signal" if signal else "le_two_ends_compatible"
    return EndsDiagnostic(verdict, entries)


@dataclass
class TraceEndsResult:
    radii: list
    qualifying: np.ndarray  # replicates x radii
    survived: np.ndarray

    def median_qualifying(self) -> np.ndarray:
        """Median count per radius among surviving replicates."""
        out = np.full(len(self.radii), np.nan)
        alive = self.survived
        if alive.any():
            out = np.median(self.qualifying[alive], axis=0)
        return out


def trace_ends_experiment(mu: OffspringDistribution, g: groups.GroupSpec,
                          depth: int, radius_grid, m_threshold: int,
                          replicates: int, rng, budget: int = 1_000_000,
                          start=None) -> TraceEndsResult:
    """Grow traces to a depth budget, carve out balls around the start and
    count components still holding enough trace vertices."""
    if mu.mean <= 1.0:
        raise ValueError("trace ends experiment needs a supercritical mean")
    if start is None:
        start = g.identity()
    radii = sorted(set(int(r) for r in radius_grid))
    quals = np.zeros((replicates, len(radii)), dtype=np.int64)
    survived = np.zeros(replicates, dtype=bool)
    for i in range(replicates):
        tree = sample_gw(mu, budget, rng, max_depth=depth)
        survived[i] = tree.max_depth() >= depth
        walk = run_walk(tree, g, start, rng)
        tr = trace(walk)
        for j, radius in enumerate(radii):
            profile = ends_profile(tr, tr.vertices, start, radius, m_threshold)
            quals[i, j] = profile.qualifying
    return TraceEndsResult(radii, quals, survived)
