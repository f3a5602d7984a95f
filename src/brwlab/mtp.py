"""Mass-transport checks: exact double sums on finite marked graphs, and
paired Monte Carlo tests for sampled rooted marked structures.

A transport function sends mass F(g, A, u, v) >= 0 from u to v and may
only look at the radius-R neighbourhood of {u, v}; built-ins vanish when
d(u, v) > R.  A sample whose structure is not certified out to the
function's radius is excluded from the test and counted as inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import groups
from .gw import MarkedTree, OffspringDistribution, sample_unimodular_gw
from .walks import run_walk

UNBOUNDED = 10**9


class TruncationError(RuntimeError):
    """Raised when too many samples cannot certify the required radius."""


def _local_distance(adj, u, v, cap):
    """d(u, v) when it is at most cap, else cap + 1."""
    return groups.bfs(adj.__getitem__, u, cap).get(v, (cap + 1,))[0]


@dataclass(frozen=True)
class TransportFunction:
    """Named transport rule with a declared locality radius."""

    name: str
    radius: int
    fn: object  # callable (adj, marks, u, v) -> float

    def __call__(self, adj, marks, u, v) -> float:
        return self.fn(adj, marks, u, v)


def _f_adjacent(adj, marks, u, v):
    return 1.0 if _local_distance(adj, u, v, 1) == 1 else 0.0


def _f_within_two(adj, marks, u, v):
    return 1.0 if _local_distance(adj, u, v, 2) <= 2 else 0.0


def _f_marked_neighbors(adj, marks, u, v):
    if _local_distance(adj, u, v, 1) > 1:
        return 0.0
    return float(min(sum(1 for w in adj[v] if w in marks), 8))


def _f_leaf_target(adj, marks, u, v):
    if _local_distance(adj, u, v, 1) > 1:
        return 0.0
    return 1.0 if len(adj[v]) == 1 else 0.0


def _f_target_degree(adj, marks, u, v):
    if _local_distance(adj, u, v, 2) > 2:
        return 0.0
    return float(min(len(adj[v]), 8))


BUILTIN_TRANSPORT = {
    "adjacent": TransportFunction("adjacent", 1, _f_adjacent),
    "within_two": TransportFunction("within_two", 2, _f_within_two),
    "marked_neighbors": TransportFunction("marked_neighbors", 2, _f_marked_neighbors),
    "leaf_target": TransportFunction("leaf_target", 2, _f_leaf_target),
    "target_degree": TransportFunction("target_degree", 3, _f_target_degree),
}


@dataclass(frozen=True)
class WeightFunction:
    """Positive reweighting of a rooted sample; 'ingredient' reads the
    sampler-provided quantity (normalized empirically inside the test)."""

    name: str
    fn: object  # callable (MtpSample) -> float

    def __call__(self, sample) -> float:
        return self.fn(sample)


BUILTIN_WEIGHT = {
    "unit": WeightFunction("unit", lambda s: 1.0),
    "ingredient": WeightFunction("ingredient", lambda s: s.weight_ingredient),
}


@dataclass
class MtpSample:
    """One rooted marked graph drawn by a sampler."""

    adj: dict
    marks: frozenset
    root: object
    weight_ingredient: float = 1.0
    certified_radius: int = UNBOUNDED


def exact_mtp_check(graph, A, F: TransportFunction):
    """Uniform-root mass transport on a finite marked graph: compares
    |A|^-1 sum_{u,v in A} F(u, v) with its transpose.  The two sides are
    the same finite sum, so agreement to 1e-12 is an exact harness check.
    """
    adj, marks = groups.as_adjacency(graph), frozenset(A)
    if not marks:
        raise ValueError("the marked set must be nonempty")
    if any(a not in adj for a in marks):
        raise ValueError("marked set contains vertices outside the graph")
    inv = 1.0 / len(marks)
    lhs = 0.0
    rhs = 0.0
    for u in marks:
        for v in marks:
            lhs += F(adj, marks, u, v) * inv
            rhs += F(adj, marks, v, u) * inv
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
    """sum_{v in A} F(root, v) - F(v, root), restricted to the radius ball
    (built-in transports vanish outside it)."""
    ball = groups.bfs(sample.adj.__getitem__, sample.root, F.radius)
    out = 0.0
    for v in sample.marks:
        if v in ball:
            out += F(sample.adj, sample.marks, sample.root, v)
            out -= F(sample.adj, sample.marks, v, sample.root)
    return out


def evaluate_sample(sample: MtpSample, F: TransportFunction, W: WeightFunction):
    """(weighted difference, weight) for one sample, or None when the
    sample cannot certify the transport radius."""
    if sample.certified_radius < F.radius:
        return None
    w = W(sample)
    if w <= 0.0:
        raise ValueError("weights must be positive")
    return w * paired_difference(sample, F), w


def aggregate_mtp_report(deltas, weights, inconclusive: int, n_samples: int,
                         alpha: float) -> MtpTestReport:
    """Normal-approximation CI on the paired differences; more than 10%
    uncertified samples is a truncation error."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if inconclusive > 0.1 * n_samples:
        raise TruncationError(
            f"{inconclusive}/{n_samples} samples could not certify the transport radius"
        )
    deltas = np.asarray(deltas, dtype=float)
    n = len(deltas)
    if n < 2:
        raise ValueError("need at least 2 usable samples")
    mean = float(deltas.mean())
    sd = float(deltas.std(ddof=1))
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    half = z * sd / math.sqrt(n)
    mean_w = float(np.mean(weights))
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


def mc_mtp_test(sampler, F: TransportFunction, W: WeightFunction,
                n_samples: int, alpha: float, rng) -> MtpTestReport:
    """Paired Monte Carlo test of the weighted mass-transport identity.

    H0: E[W * (outgoing - incoming)] = 0, tested with a normal CI on the
    paired differences.  Samples that cannot certify the transport radius
    are skipped; more than 10% of them is a truncation error.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    deltas = []
    weights = []
    inconclusive = 0
    for _ in range(n_samples):
        got = evaluate_sample(sampler(rng), F, W)
        if got is None:
            inconclusive += 1
            continue
        deltas.append(got[0])
        weights.append(got[1])
    return aggregate_mtp_report(deltas, weights, inconclusive, n_samples, alpha)


# ---------------------------------------------------------------------------
# samplers


def uniform_root_sampler(graph, A):
    """Root uniform on the marked set of a fixed finite graph: locally
    unimodular by construction."""
    adj, marks = groups.as_adjacency(graph), frozenset(A)
    order = sorted(marks, key=repr)

    def sample(rng) -> MtpSample:
        root = order[int(rng.integers(0, len(order)))]
        return MtpSample(adj, marks, root)

    return sample


def fixed_root_sampler(graph, A, root):
    """Deterministic root: a deliberately non-unimodular sampler used as a
    negative control."""
    adj, marks = groups.as_adjacency(graph), frozenset(A)
    if root not in adj:
        raise ValueError("root not in graph")

    def sample(rng) -> MtpSample:
        return MtpSample(adj, marks, root)

    return sample


A_RULE_ORIGIN = "origin"
A_RULE_BALL = "ball"
A_RULE_TRACE = "trace"


def _certified_radius(tree: MarkedTree, depth: int) -> int:
    if tree.truncation_reason == "budget":
        return -1
    return depth // 2


def pullback_sampler(g: groups.GroupSpec, mu: OffspringDistribution, depth: int,
                     a_rule: str = A_RULE_ORIGIN, *, start=None, ball_radius: int = 1,
                     mu2: OffspringDistribution | None = None, depth2: int | None = None,
                     budget: int = 1_000_000):
    """Tree-side samples: an offspring-biased double tree, a tree-indexed
    walk on g, and the preimage marks of a target set on g.

    Target rules:
      origin: the start vertex itself.
      ball:   a radius-c ball containing the start, with the start uniform
              inside it (the center is shifted by a uniform ball element so
              the rooted law is exchangeable over the marked set).
      trace:  the vertex image of a second independent tree-indexed walk;
              the weight ingredient is 1 / #returns of that walk to the
              start, for use with the 'ingredient' weight.
    """
    if start is None:
        start = g.identity()
    groups.validate_elem(g, start)
    if a_rule not in (A_RULE_ORIGIN, A_RULE_BALL, A_RULE_TRACE):
        raise ValueError(f"unknown a_rule {a_rule!r}")
    if a_rule == A_RULE_BALL:
        shift_pool = groups.elements_within(g, g.identity(), ball_radius)
    if a_rule == A_RULE_TRACE:
        mu2 = mu2 or mu
        depth2 = depth2 if depth2 is not None else depth

    def sample(rng) -> MtpSample:
        tree = sample_unimodular_gw(mu, budget, rng, max_depth=depth)
        walk = run_walk(tree, g, start, rng)
        ingredient = 1.0
        if a_rule == A_RULE_ORIGIN:
            marks = frozenset(v for v, x in walk.values.items() if x == start)
        elif a_rule == A_RULE_BALL:
            # center shifted so the start sits uniformly inside the ball
            w = shift_pool[int(rng.integers(0, len(shift_pool)))]
            center = groups.mul(g, start, groups.inv(g, w))
            marks = frozenset(
                v
                for v, x in walk.values.items()
                if groups.distance(g, center, x) <= ball_radius
            )
        else:
            tree2 = sample_unimodular_gw(mu2, budget, rng, max_depth=depth2)
            walk2 = run_walk(tree2, g, start, rng)
            image2 = set(walk2.values.values())
            marks = frozenset(v for v, x in walk.values.items() if x in image2)
            ingredient = 1.0 / walk2.visits_to(start)
        cert = _certified_radius(tree, depth)
        return MtpSample(tree.adjacency(), marks, tree.root, ingredient, cert)

    return sample


def pushforward_trace_sampler(g: groups.GroupSpec, mu: OffspringDistribution,
                              depth: int, ball_radius: int, *, start=None,
                              budget: int = 1_000_000):
    """Graph-side samples: the walk image marked inside a materialized ball
    of g around the start, with ingredient 1 / #returns to the start."""
    if start is None:
        start = g.identity()
    groups.validate_elem(g, start)
    ball_elems = groups.elements_within(g, start, ball_radius)
    ball_set = set(ball_elems)
    adj = {
        v: [w for w in groups.neighbors(g, v) if w in ball_set] for v in ball_elems
    }

    def sample(rng) -> MtpSample:
        tree = sample_unimodular_gw(mu, budget, rng, max_depth=depth)
        walk = run_walk(tree, g, start, rng)
        marks = frozenset(x for x in walk.values.values() if x in ball_set)
        cert = ball_radius // 2
        if tree.truncation_reason == "budget":
            cert = -1
        return MtpSample(adj, marks, start, 1.0 / walk.visits_to(start), cert)

    return sample
