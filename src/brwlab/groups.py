"""Transitive base graphs: regular trees, free groups, integer lattices.

Vertices are normal-form words (trees, free groups) or coordinate tuples
(lattices).  n-step transition probabilities of simple random walk are
computed exactly: a radial birth-death recursion for the tree-like graphs,
a box convolution for lattices.  Long-horizon series are computed on the
scale of the operator norm so that nothing under- or overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REGULAR_TREE = "regular_tree"
FREE_GROUP = "free_group"
INTEGER_LATTICE = "integer_lattice"

_KINDS = (REGULAR_TREE, FREE_GROUP, INTEGER_LATTICE)

# Box convolution memory is (2N+1)^dim; keep lattices at desk scale.
MAX_LATTICE_DIM = 3
MAX_LATTICE_CELLS = 2**24  # doubles in one box: 128 MiB
MAX_BALL_ELEMENTS = 10**6
MAX_DEGREE = 64  # neighbors() builds every neighbour word of a vertex at each step


class InvalidElementError(ValueError):
    """Raised when a word or coordinate tuple is not a valid vertex."""


@dataclass(frozen=True)
class GroupSpec:
    """A transitive graph given by kind and a single integer parameter.

    regular_tree(d):     d-regular tree, d >= 3 (free product of d involutions)
    free_group(k):       free group of rank k >= 2, Cayley graph is the
                         (2k)-regular tree
    integer_lattice(d):  Z^d with nearest-neighbour edges, 1 <= d <= 3
    """

    kind: str
    param: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind == REGULAR_TREE and self.param < 3:
            raise ValueError("regular tree needs degree >= 3")
        if self.kind == FREE_GROUP and self.param < 2:
            raise ValueError("free group needs rank >= 2")
        if self.kind == INTEGER_LATTICE and not (1 <= self.param <= MAX_LATTICE_DIM):
            raise ValueError(f"lattice dimension must be in 1..{MAX_LATTICE_DIM}")
        if self.degree > MAX_DEGREE:
            raise ValueError(f"degree {self.degree} exceeds {MAX_DEGREE}")

    @property
    def degree(self) -> int:
        if self.kind == REGULAR_TREE:
            return self.param
        return 2 * self.param

    @property
    def is_tree_like(self) -> bool:
        return self.kind in (REGULAR_TREE, FREE_GROUP)

    @property
    def is_nonamenable(self) -> bool:
        return self.is_tree_like

    def identity(self):
        if self.kind == INTEGER_LATTICE:
            return (0,) * self.param
        return ()

    def spectral_radius_closed_form(self) -> float:
        """Norm of the Markov operator: 2*sqrt(deg-1)/deg on the tree-like
        graphs, 1 on lattices."""
        if self.is_tree_like:
            d = self.degree
            return 2.0 * math.sqrt(d - 1) / d
        return 1.0


def validate_elem(g: GroupSpec, x) -> None:
    if not isinstance(x, tuple):
        raise InvalidElementError(f"element must be a tuple, got {type(x).__name__}")
    if g.kind == INTEGER_LATTICE:
        if len(x) != g.param or not all(isinstance(c, int) for c in x):
            raise InvalidElementError(f"{x!r} is not a coordinate in Z^{g.param}")
        return
    if g.kind == REGULAR_TREE:
        d = g.param
        if not all(isinstance(s, int) and 0 <= s < d for s in x):
            raise InvalidElementError(f"{x!r} has letters outside 0..{d - 1}")
        if any(x[i] == x[i + 1] for i in range(len(x) - 1)):
            raise InvalidElementError(f"{x!r} is not reduced")
        return
    k = g.param
    if not all(isinstance(s, int) and s != 0 and abs(s) <= k for s in x):
        raise InvalidElementError(f"{x!r} has letters outside +-1..{k}")
    if any(x[i] == -x[i + 1] for i in range(len(x) - 1)):
        raise InvalidElementError(f"{x!r} is not reduced")


def _generators(g: GroupSpec):
    if g.kind == REGULAR_TREE:
        return tuple(range(g.param))
    if g.kind == FREE_GROUP:
        gens = []
        for i in range(1, g.param + 1):
            gens.extend((i, -i))
        return tuple(gens)
    gens = []
    for axis in range(g.param):
        step = [0] * g.param
        step[axis] = 1
        gens.append(tuple(step))
        step2 = [0] * g.param
        step2[axis] = -1
        gens.append(tuple(step2))
    return tuple(gens)


def _apply_letter(g: GroupSpec, x, s):
    """Right-multiply word x by one generator, reducing at the seam."""
    if g.kind == REGULAR_TREE:
        if x and x[-1] == s:
            return x[:-1]
        return x + (s,)
    if x and x[-1] == -s:
        return x[:-1]
    return x + (s,)


def neighbors(g: GroupSpec, x):
    """The deg(g) neighbours of x, in fixed generator order."""
    validate_elem(g, x)
    if g.kind == INTEGER_LATTICE:
        return [tuple(a + b for a, b in zip(x, step)) for step in _generators(g)]
    return [_apply_letter(g, x, s) for s in _generators(g)]


def mul(g: GroupSpec, x, y):
    """Group product (lattice: vector sum), with word reduction."""
    if g.kind == INTEGER_LATTICE:
        return tuple(a + b for a, b in zip(x, y))
    out = x
    for s in y:
        out = _apply_letter(g, out, s)
    return out


def inv(g: GroupSpec, x):
    if g.kind == INTEGER_LATTICE:
        return tuple(-c for c in x)
    if g.kind == REGULAR_TREE:
        return tuple(reversed(x))
    return tuple(-s for s in reversed(x))


def distance(g: GroupSpec, x, y) -> int:
    """Graph distance: word length of x^-1 y, or L1 on the lattice."""
    if g.kind == INTEGER_LATTICE:
        return sum(abs(a - b) for a, b in zip(x, y))
    return len(mul(g, inv(g, x), y))


def check_ball(g: GroupSpec, radius: int) -> None:
    """Raise ValueError when a radius ball may hold more than
    MAX_BALL_ELEMENTS vertices: its exact size on tree-like graphs, the
    (2r+1)^dim box around it on Z^d."""
    if g.is_tree_like:  # sum of sphere sizes; any radius above 64 is over the cap
        d = g.degree
        size = 1 + d * ((d - 1) ** min(radius, 64) - 1) // (d - 2)
    else:
        size = (2 * radius + 1) ** g.param
    if size > MAX_BALL_ELEMENTS:
        raise ValueError(f"a radius-{radius} ball exceeds {MAX_BALL_ELEMENTS} vertices")


def elements_within(g: GroupSpec, x, radius: int):
    """All vertices within the given distance of x, in BFS order."""
    validate_elem(g, x)
    check_ball(g, radius)
    return list(bfs(lambda v: neighbors(g, v), x, radius))


def bfs(nbrs, root, radius=None) -> dict:
    """Breadth-first search from root over nbrs(v), an iterable of the
    neighbours of v: every vertex within radius of root (every reachable
    one when radius is None), in BFS order, mapped to (distance, parent).
    The root's parent is None."""
    out = {root: (0, None)}
    frontier = [root]
    d = 0
    while frontier and (radius is None or d < radius):
        d += 1
        nxt = []
        for v in frontier:
            for w in nbrs(v):
                if w not in out:
                    out[w] = (d, v)
                    nxt.append(w)
        frontier = nxt
    return out


def adjacency(vertices, edges) -> dict:
    """Undirected adjacency lists: every vertex, and each edge (a, b)
    listed at both of its ends, in edge order."""
    adj = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def as_adjacency(graph) -> dict:
    """An adjacency dict passes through; a graph object (MarkedTree,
    OrientedTree, TraceGraph) gives its .adjacency()."""
    if isinstance(graph, dict):
        return graph
    if hasattr(graph, "adjacency"):
        return graph.adjacency()
    raise TypeError(f"cannot interpret {type(graph).__name__} as a graph")


def sphere_size(g: GroupSpec, j: int) -> float:
    """Number of vertices at distance exactly j (tree-like graphs only)."""
    if not g.is_tree_like:
        raise ValueError("sphere_size is radial only for tree-like graphs")
    if j == 0:
        return 1.0
    d = g.degree
    return float(d) * float(d - 1) ** (j - 1)


def _tree_distance_law(d: int, n_max: int) -> np.ndarray:
    """Law of the distance-from-origin chain of SRW on the d-regular tree.

    rho[n, j] = P(dist = j after n steps).  From distance j >= 1 the walk
    moves out with probability (d-1)/d and in with probability 1/d; from 0
    it always moves out.  Plain floats; fine up to a few thousand steps.
    """
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


def _tree_scaled_series(d: int, dist: int, n_max: int) -> np.ndarray:
    """p_n(x, y) / ||P||^n at a fixed distance, for n = 0..n_max.

    The radial law scaled by ||P||^-n and conjugated by (d-1)^(j/2) obeys
      v[j] <- (v[j-1] + v[j+1]) / 2        (j >= 2)
      v[1] <- d/(2(d-1)) v[0] + v[2] / 2
      v[0] <- v[1] / 2
    which keeps every entry in [0, 1]; no under- or overflow at any horizon.
    The window sqrt-scales with n_max (boundary mass is diffusive); the
    truncation error is below 1e-20 relative.
    """
    if dist > n_max:
        return np.zeros(n_max + 1)
    window = max(64, int(6.0 * math.sqrt(max(n_max, 1))) + 4, dist + 8)
    v = np.zeros(window + 1)
    v[0] = 1.0
    out = np.zeros(n_max + 1)
    # per-vertex conversion: p_n(x,y) = v[dist] * rho^n * (d-1)^(1-dist/2)/d
    if dist == 0:
        conv = 1.0
    else:
        conv = (d - 1.0) ** (1.0 - dist / 2.0) / d
    out[0] = v[dist] * conv
    from_zero = d / (2.0 * (d - 1.0))
    for n in range(1, n_max + 1):
        nxt = np.zeros_like(v)
        nxt[0] = 0.5 * v[1]
        nxt[1] = from_zero * v[0] + (0.5 * v[2] if window >= 2 else 0.0)
        if window >= 2:
            nxt[2:-1] = 0.5 * (v[1:-2] + v[3:])
            nxt[-1] = 0.5 * v[-2]
        v = nxt
        out[n] = v[dist] * conv
    return out


def check_lattice_box(g: GroupSpec, steps: int) -> None:
    """Raise ValueError when an exact lattice kernel over the given number
    of steps needs a (2*steps+1)^dim box above MAX_LATTICE_CELLS."""
    if g.kind == INTEGER_LATTICE and (2 * steps + 1) ** g.param > MAX_LATTICE_CELLS:
        raise ValueError(
            f"{steps} steps on Z^{g.param} need more than {MAX_LATTICE_CELLS} lattice cells"
        )


def _lattice_vertex_series(g: GroupSpec, delta, n_max: int) -> np.ndarray:
    """p_n(x, x+delta) for n = 0..n_max by exact box convolution."""
    check_lattice_box(g, n_max)
    dim = g.param
    shape = (2 * n_max + 1,) * dim
    p = np.zeros(shape)
    center = (n_max,) * dim
    p[center] = 1.0
    target = tuple(n_max + c for c in delta)
    out = np.zeros(n_max + 1)
    in_box = all(0 <= t < 2 * n_max + 1 for t in target)
    if in_box:
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
        if in_box:
            out[n] = p[target]
    return out


def scaled_p_series(g: GroupSpec, x, y, n_max: int):
    """(s, rho) with s[n] = p_n(x, y) / rho^n and rho the operator norm.

    This is the numerically safe form: s decays polynomially on tree-like
    graphs (and equals p itself on lattices, where rho = 1).
    """
    validate_elem(g, x)
    validate_elem(g, y)
    rho = g.spectral_radius_closed_form()
    if g.is_tree_like:
        return _tree_scaled_series(g.degree, distance(g, x, y), n_max), rho
    delta = tuple(b - a for a, b in zip(x, y))
    return _lattice_vertex_series(g, delta, n_max), rho


def p_series(g: GroupSpec, x, y, n_max: int) -> np.ndarray:
    """Exact p_n(x, y) for n = 0..n_max (underflows to 0 at extreme n)."""
    s, rho = scaled_p_series(g, x, y, n_max)
    if rho == 1.0:
        return s
    log_rho = math.log(rho)
    out = np.zeros(n_max + 1)
    pos = s > 0
    ns = np.arange(n_max + 1)[pos]
    with np.errstate(under="ignore"):
        out[pos] = np.exp(ns * log_rho + np.log(s[pos]))
    return out


def return_series(g: GroupSpec, n_max: int) -> np.ndarray:
    """p_n(e, e) for n = 0..n_max."""
    e = g.identity()
    return p_series(g, e, e, n_max)


def return_probability(g: GroupSpec, n: int, x, y) -> float:
    """Exact n-step transition probability p_n(x, y)."""
    if n < 0:
        raise ValueError("step count must be >= 0")
    validate_elem(g, x)
    validate_elem(g, y)
    if g.is_tree_like and distance(g, x, y) > n:
        return 0.0
    return float(p_series(g, x, y, n)[n])


class TransitionTable:
    """Cached radial table of p_n(distance) for a tree-like spec, or the
    per-displacement series for a lattice.

    Immutable after construction; safe to share across workers.  Intended
    for moderate n_max (a few thousand); the long-horizon helpers use the
    scaled recursion instead.
    """

    def __init__(self, g: GroupSpec, n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self.group = g
        self.n_max = n_max
        if g.is_tree_like:
            self._law = _tree_distance_law(g.degree, n_max)
            spheres = np.array([sphere_size(g, j) for j in range(n_max + 1)])
            self._per_vertex = self._law / spheres
        else:
            self._law = None
            self._per_vertex = None
            self._lattice_cache = {}

    def p(self, n: int, x, y) -> float:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n must be in 0..{self.n_max}")
        g = self.group
        validate_elem(g, x)
        validate_elem(g, y)
        if g.is_tree_like:
            return float(self._per_vertex[n, distance(g, x, y)])
        delta = tuple(b - a for a, b in zip(x, y))
        if delta not in self._lattice_cache:
            self._lattice_cache[delta] = _lattice_vertex_series(g, delta, self.n_max)
        return float(self._lattice_cache[delta][n])

    def p_dist(self, n: int, dist: int) -> float:
        """Per-vertex probability at a given distance (tree-like only)."""
        if not self.group.is_tree_like:
            raise ValueError("p_dist is radial only for tree-like graphs")
        return float(self._per_vertex[n, dist])

    def distance_law(self, n: int) -> np.ndarray:
        if not self.group.is_tree_like:
            raise ValueError("distance_law only for tree-like graphs")
        return self._law[n].copy()


@dataclass(frozen=True)
class SpectralEstimate:
    estimate: float
    closed_form: float
    n_max: int


def spectral_radius(g: GroupSpec, n_max: int) -> SpectralEstimate:
    """Estimate the operator norm from p_{2n}(e,e)^(1/2n) at n = n_max.

    The estimate approaches the closed form from below; the closed form is
    checked against the DP trend in the test suite before being trusted.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    e = g.identity()
    s, rho = scaled_p_series(g, e, e, 2 * n_max)
    # p^(1/2n) = rho * s^(1/2n), evaluated in logs
    return SpectralEstimate(
        rho * math.exp(math.log(s[2 * n_max]) / (2 * n_max)),
        g.spectral_radius_closed_form(),
        n_max,
    )


def spectral_radius_trajectory(g: GroupSpec, n_max: int) -> np.ndarray:
    """p_{2n}(e,e)^(1/2n) for n = 1..n_max (even-step estimates)."""
    e = g.identity()
    s, rho = scaled_p_series(g, e, e, 2 * n_max)
    ns = np.arange(1, n_max + 1)
    return rho * np.exp(np.log(s[2 * ns]) / (2 * ns))


@dataclass
class VisitsSeries:
    """Partial sums of sum_n mean^n p_n(e, e), with an overflow guard."""

    partial_sums: np.ndarray
    diverged: bool
    guard_index: int | None

    @property
    def increments(self) -> np.ndarray:
        out = np.diff(self.partial_sums)
        return np.concatenate(([self.partial_sums[0]], out))


def visits_series(g: GroupSpec, mean: float, n_max: int, guard: float = 1e12) -> VisitsSeries:
    """Partial sums S_N = sum_{n<=N} mean^n p_n(e,e) for N = 0..n_max.

    Terms are assembled in log space on the operator-norm scale and
    accumulated with compensated summation; if a term exceeds the guard
    magnitude the series is cut there and flagged as divergence-suspected
    (remaining partial sums are frozen at the cut).
    """
    if mean < 0:
        raise ValueError("mean must be >= 0")
    e = g.identity()
    s, rho = scaled_p_series(g, e, e, n_max)
    sums = np.empty(n_max + 1)
    total = 0.0
    comp = 0.0
    log_scale = (math.log(mean) + math.log(rho)) if mean > 0 else None
    log_guard = math.log(guard)
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
    return VisitsSeries(sums, guard_index is not None, guard_index)


def simulate_srw(g: GroupSpec, start, n_steps: int, rng):
    """One simple-random-walk trajectory (list of n_steps+1 vertices)."""
    validate_elem(g, start)
    path = [start]
    x = start
    deg = g.degree
    picks = rng.integers(0, deg, size=n_steps)
    for i in range(n_steps):
        x = neighbors(g, x)[picks[i]]
        path.append(x)
    return path


def elem_to_str(g: GroupSpec, x) -> str:
    """Compact text form of a vertex, used in trace serialization."""
    if g.kind == INTEGER_LATTICE:
        return ",".join(str(c) for c in x)
    if not x:
        return "e"
    return ".".join(str(s) for s in x)


def elem_from_str(g: GroupSpec, s: str):
    if g.kind == INTEGER_LATTICE:
        x = tuple(int(c) for c in s.split(","))
    elif s == "e":
        x = ()
    else:
        x = tuple(int(t) for t in s.split("."))
    validate_elem(g, x)
    return x
