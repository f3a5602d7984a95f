"""Mass-transport checks: exact double sums on finite marked graphs, and
paired Monte Carlo tests for sampled rooted marked structures.

A transport function with radius R sends mass fn(adj, A, v, d) >= 0 from
u to v, where d = d(u, v) <= R: it sees u only through that distance, and
it vanishes when d(u, v) > R, so every check reads the distances of one
radius-R ball per sending vertex and skips the vertices outside it.  A
sample whose structure is not certified out to the function's radius is
excluded from the test and counted as inconclusive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import groups
from .gw import DEFAULT_BUDGET, MarkedTree, OffspringDistribution, sample_unimodular_gw
from .walks import run_walk

UNBOUNDED = 10**9
BUDGET_CUT = -1  # the certified radius of a sample whose tree the vertex budget cut


class TruncationError(RuntimeError):
    """Raised when too many samples cannot certify the required radius."""


@dataclass(frozen=True)
class TransportFunction:
    """Named transport rule with a declared locality radius: fn(adj,
    marks, v, d) is the mass sent to v from a vertex at distance d <= radius
    (the mass from anything farther is 0)."""

    name: str
    radius: int
    fn: object  # callable (adj, marks, v, d) -> float


def _f_adjacent(adj, marks, v, d):
    return 1.0 if d == 1 else 0.0


def _f_within_two(adj, marks, v, d):
    return 1.0 if d <= 2 else 0.0


def _f_marked_neighbors(adj, marks, v, d):
    if d > 1:
        return 0.0
    return float(min(sum(1 for w in adj[v] if w in marks), 8))


def _f_leaf_target(adj, marks, v, d):
    if d > 1:
        return 0.0
    return 1.0 if len(adj[v]) == 1 else 0.0


def _f_target_degree(adj, marks, v, d):
    if d > 2:
        return 0.0
    return float(min(len(adj[v]), 8))


# adjacent and within_two read only d, so F(u, v) = F(v, u): their paired
# difference is identically 0 and their exact check balances by symmetry,
# so neither can reject a sampler.  They are the radius-1 and radius-2
# fixtures of the CLI's certification refusals.
BUILTIN_TRANSPORT = {
    "adjacent": TransportFunction("adjacent", 1, _f_adjacent),
    "within_two": TransportFunction("within_two", 2, _f_within_two),
    "marked_neighbors": TransportFunction("marked_neighbors", 2, _f_marked_neighbors),
    "leaf_target": TransportFunction("leaf_target", 2, _f_leaf_target),
    "target_degree": TransportFunction("target_degree", 3, _f_target_degree),
}


# weights: positive reweightings of a rooted sample; 'ingredient' reads the
# sampler-provided quantity (normalized empirically inside the test)
BUILTIN_WEIGHT = {"unit": lambda s: 1.0, "ingredient": lambda s: s.weight_ingredient}


@dataclass
class MtpSample:
    """One rooted marked graph drawn by a sampler."""

    adj: dict
    marks: frozenset
    root: object
    weight_ingredient: float = 1.0
    certified_radius: int = UNBOUNDED


def _ball_masses(adj: dict, marks, u, F: TransportFunction):
    """(F(u, v), F(v, u)) for every mark v in the radius ball of u, in
    mark order: one BFS gives each d(u, v) = d(v, u) that F can see."""
    dist = groups.bfs(adj.__getitem__, u, F.radius)
    fn = F.fn
    for v in marks:
        if v in dist:
            d = dist[v]
            yield fn(adj, marks, v, d), fn(adj, marks, u, d)


def exact_mtp_check(adj: dict, A, F: TransportFunction):
    """Uniform-root mass transport on a finite marked graph (adjacency
    lists): compares |A|^-1 sum_{u,v in A} F(u, v) with its transpose.
    The two sides are the same finite sum, so agreement to 1e-12 is an
    exact harness check.
    """
    marks = frozenset(A)
    if not marks:
        raise ValueError("the marked set must be nonempty")
    if any(a not in adj for a in marks):
        raise ValueError("marked set contains vertices outside the graph")
    inv = 1.0 / len(marks)
    lhs = rhs = 0.0
    for u in marks:
        for out, into in _ball_masses(adj, marks, u, F):
            lhs += out * inv
            rhs += into * inv
    return lhs, rhs, abs(lhs - rhs) < 1e-12


@dataclass
class MtpTestReport:
    estimate: float
    ci_low: float
    ci_high: float
    n: int
    inconclusive: int
    alpha: float
    passed: bool
    mean_weight: float

    def to_json_dict(self):
        return {
            "estimate": self.estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "n": self.n,
            "inconclusive": self.inconclusive,
            "alpha": self.alpha,
            "pass": self.passed,
        }


def paired_difference(sample: MtpSample, F: TransportFunction) -> float:
    """sum_{v in A} F(root, v) - F(v, root) over the marks in the root's
    radius ball."""
    total = 0.0
    for out, into in _ball_masses(sample.adj, sample.marks, sample.root, F):
        total += out
        total -= into
    return total


def evaluate_sample(sample: MtpSample, F: TransportFunction, W):
    """(weighted difference, weight) for one sample, or None when the
    sample cannot certify the transport radius."""
    if sample.certified_radius < F.radius:
        return None
    w = W(sample)
    if w <= 0.0:
        raise ValueError("weights must be positive")
    return w * paired_difference(sample, F), w


def evaluate_samples(sampler, transports, W, rngs):
    """Draw one sample from each stream of rngs and read every transport
    off it: per transport, in order, the (weighted difference, weight)
    rows of the samples certified to its radius as an (n, 2) float64
    array, and its counts of uncertified and budget-cut samples."""
    rows = [[] for _ in transports]
    skipped = [[0, 0] for _ in transports]  # inconclusive, budget_cut
    for rng in rngs:
        sample = sampler(rng)
        for F, got, skips in zip(transports, rows, skipped):
            row = evaluate_sample(sample, F, W)
            if row is None:
                skips[0] += 1
                skips[1] += sample.certified_radius == BUDGET_CUT
            else:
                got.append(row)
    return [(np.array(got, dtype=float).reshape(-1, 2), *skips)
            for got, skips in zip(rows, skipped)]


def aggregate_mtp_report(rows, inconclusive: int, n_samples: int,
                         alpha: float) -> MtpTestReport:
    """Normal-approximation CI on the paired differences of the
    (weighted difference, weight) rows, an (n, 2) float array; more than
    10% uncertified samples is a truncation error."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if inconclusive > 0.1 * n_samples:
        raise TruncationError(
            f"{inconclusive}/{n_samples} samples could not certify the transport radius"
        )
    n = len(rows)
    if n < 2:
        raise ValueError("need at least 2 usable samples")
    deltas, weights = rows[:, 0], rows[:, 1]
    mean = float(deltas.mean())
    sd = float(deltas.std(ddof=1))
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    half = z * sd / math.sqrt(n)
    mean_w = float(weights.mean())
    passed = (mean - half) <= 0.0 <= (mean + half)
    return MtpTestReport(
        estimate=mean / mean_w,
        ci_low=(mean - half) / mean_w,
        ci_high=(mean + half) / mean_w,
        n=n,
        inconclusive=inconclusive,
        alpha=alpha,
        passed=passed,
        mean_weight=mean_w,
    )


def mc_mtp_test(sampler, transports, W, n_samples: int, alpha: float, rng) -> list[MtpTestReport]:
    """Paired Monte Carlo tests of the weighted mass-transport identity:
    one report per transport of the tuple transports, in order.

    H0: E[W * (outgoing - incoming)] = 0, tested with a normal CI on the
    paired differences of n_samples draws from the one stream rng, which
    every transport reads.  Samples that cannot certify a transport's
    radius are skipped for it; more than 10% of them is a truncation
    error.  alpha, n_samples and an empty tuple are refused before the
    first draw.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if not transports:
        raise ValueError("need at least one transport")
    groups.check_count("n_samples", n_samples, 2)
    evaluated = evaluate_samples(sampler, transports, W, itertools.repeat(rng, n_samples))
    return [aggregate_mtp_report(rows, inconclusive, n_samples, alpha)
            for rows, inconclusive, _ in evaluated]


# ---------------------------------------------------------------------------
# samplers


def uniform_root_sampler(adj: dict, A):
    """Root uniform on the marked set of a fixed finite graph: locally
    unimodular by construction."""
    marks = frozenset(A)
    order = sorted(marks, key=repr)

    def sample(rng) -> MtpSample:
        root = order[int(rng.integers(0, len(order)))]
        return MtpSample(adj, marks, root)

    return sample


def fixed_root_sampler(adj: dict, A, root):
    """Deterministic root: a deliberately non-unimodular sampler used as a
    negative control."""
    marks = frozenset(A)
    if root not in adj:
        raise ValueError("root not in graph")

    def sample(rng) -> MtpSample:
        return MtpSample(adj, marks, root)

    return sample


A_RULE_ORIGIN = "origin"
A_RULE_BALL = "ball"
A_RULE_TRACE = "trace"


def _certified_radius(reach: int, tree: MarkedTree | None = None) -> int:
    """The certification rule, stated here only: a sample built to a reach
    (the tree depth of a pull-back, the ball radius of a push-forward)
    certifies half of it, or BUDGET_CUT when its tree was cut at the
    budget.  Without a tree, the radius every uncut sample certifies."""
    if tree is not None and tree.truncation_reason == "budget":
        return BUDGET_CUT
    return reach // 2


def pullback_sampler(g: groups.GroupSpec, mu: OffspringDistribution, depth: int,
                     a_rule: str = A_RULE_ORIGIN, *, ball_radius: int = 1,
                     mu2: OffspringDistribution | None = None, depth2: int | None = None,
                     budget: int = DEFAULT_BUDGET):
    """Tree-side samples: an offspring-biased double tree, a tree-indexed
    walk on g from the identity (the start), and the preimage marks of a
    target set on g.

    Target rules:
      origin: the start vertex itself.
      ball:   a radius-c ball containing the start, with the start uniform
              inside it (the center is shifted by a uniform ball element so
              the rooted law is exchangeable over the marked set).
      trace:  the vertex image of a second independent tree-indexed walk;
              the weight ingredient is 1 / #returns of that walk to the
              start, for use with the 'ingredient' weight.
    """
    start = g.identity()
    if a_rule not in (A_RULE_ORIGIN, A_RULE_BALL, A_RULE_TRACE):
        raise ValueError(f"unknown a_rule {a_rule!r}")
    if a_rule == A_RULE_BALL:
        shift_pool = groups.elements_within(g, start, ball_radius)
    if a_rule == A_RULE_TRACE:
        mu2 = mu2 or mu
        if depth2 is None:
            depth2 = depth
        else:  # its tree is drawn second, so it is checked before the first draw
            groups.check_count("depth2", depth2, 0)

    def sample(rng) -> MtpSample:
        tree = sample_unimodular_gw(mu, budget, rng, max_depth=depth)
        values = run_walk(tree, g, start, rng).values
        ingredient = 1.0
        if a_rule == A_RULE_ORIGIN:
            target = {start}
        elif a_rule == A_RULE_BALL:
            # center shifted so the start sits uniformly inside the ball
            w = shift_pool[int(rng.integers(0, len(shift_pool)))]
            center = groups.inv(g, w)
            # the ball around center is center times the ball around e
            target = {groups.mul(g, center, u) for u in shift_pool}
        else:
            tree2 = sample_unimodular_gw(mu2, budget, rng, max_depth=depth2)
            target = run_walk(tree2, g, start, rng).image_counts()
            ingredient = 1.0 / target[start]
        marks = frozenset(v for v, x in enumerate(values) if x in target)
        cert = _certified_radius(depth, tree)
        return MtpSample(tree.adjacency(), marks, tree.root, ingredient, cert)

    return sample


def pushforward_trace_sampler(g: groups.GroupSpec, mu: OffspringDistribution,
                              depth: int, ball_radius: int, *, budget: int = DEFAULT_BUDGET):
    """Graph-side samples: the walk from the identity (the start), its
    image marked inside a materialized ball of g around the start, with
    ingredient 1 / #returns to the start."""
    start = g.identity()
    ball_elems = groups.elements_within(g, start, ball_radius)
    ball_set = set(ball_elems)
    adj = {
        v: [w for w in groups.neighbors(g, v) if w in ball_set] for v in ball_elems
    }

    def sample(rng) -> MtpSample:
        tree = sample_unimodular_gw(mu, budget, rng, max_depth=depth)
        counts = run_walk(tree, g, start, rng).image_counts()
        marks = frozenset(x for x in counts if x in ball_set)
        return MtpSample(adj, marks, start, 1.0 / counts[start],
                         _certified_radius(ball_radius, tree))

    return sample
