"""Transitive base graphs: regular trees, free groups, integer lattices.

One class per graph family holds its vertices, arithmetic, balls, caps
and kernel: WordGroup for the normal-form words of trees and free groups,
Lattice for the coordinate tuples of Z^d.  GroupSpec picks its family
once, and each module function dispatches to it.  n-step transition
probabilities of simple random walk are computed exactly.  Tree-like
graphs have one kernel, the return series p_n(e, e): a positive tail sum
from Kesten's closed-form generating function, truncated below 2^-64
relative; x != y is refused there.  On lattices, closed-form 1-d binomial
laws are combined per dimension, at any displacement.  Long-horizon
series are computed on the scale of the operator norm so that nothing
under- or overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import add, eq, neg

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REGULAR_TREE = "regular_tree"
FREE_GROUP = "free_group"
INTEGER_LATTICE = "integer_lattice"

MAX_LATTICE_DIM = 3
# Horizon cap: an N-step lattice kernel is refused when the (2N+1)^dim box
# of cells the walk can reach exceeds this.  The kernel builds no box; the
# cap keeps Z^d runs at the horizons they were tested at.
MAX_LATTICE_CELLS = 2**24
MAX_BALL_ELEMENTS = 10**6
# every walk step makes one neighbors() call, which builds all deg(g)
# neighbour words (validating the word first outside a walk) or, for a
# sibling, copies the list built for the one before; either way its cost
# grows with the degree
MAX_DEGREE = 64
# visits_series cuts the series at the first term above this
VISITS_GUARD = 1e12


class InvalidElementError(ValueError):
    """Raised when a word or coordinate tuple is not a valid vertex."""


class WordGroup:
    """Reduced words over letters closed under a letter inverse.  Methods
    take valid words."""

    is_tree_like = True
    identity = ()

    def __init__(self, letters, inverted, span: str):
        self.generators = tuple(letters)  # in the fixed order neighbors() uses
        self.degree = d = len(self.generators)
        self.rho = 2.0 * math.sqrt(d - 1) / d
        self._inverted = inverted  # the inverses of a run of letters, in order
        self._span = span  # the letter range, as a refusal names it
        self._letters = frozenset(self.generators)
        self._unit_words = tuple((s,) for s in self.generators)
        # each last letter's back-step slot: that of its inverse
        self._back_slot = dict(zip(inverted(self.generators), range(d)))

    def validate(self, x) -> None:
        """Each check is one builtin that loops in C: a type test of every
        letter, a superset test for the range, a pair test for reducedness."""
        if not isinstance(x, tuple):
            raise InvalidElementError(f"element must be a tuple, got {type(x).__name__}")
        # exact ints first: the set lookup would accept 1.0, True or np.int64(1) for 1
        if not {int}.issuperset(map(type, x)) or not self._letters.issuperset(x):
            raise InvalidElementError(f"{x!r} has letters outside {self._span}")
        if any(map(eq, x, self._inverted(x[1:]))):
            raise InvalidElementError(f"{x!r} is not reduced")

    def neighbors(self, x) -> list:
        out = [x + s for s in self._unit_words]
        if x:  # the one letter that cancels x's last letter steps back to x[:-1]
            out[self._back_slot[x[-1]]] = x[:-1]
        return out

    def mul(self, x, y):
        k, head = 0, tuple(self._inverted(y))
        while k < min(len(x), len(y)) and x[-1 - k] == head[k]:
            k += 1
        return x[:len(x) - k] + y[k:]

    def inv(self, x):
        return tuple(self._inverted(reversed(x)))

    def distance(self, x, y) -> int:
        common = next((i for i, (a, b) in enumerate(zip(x, y)) if a != b), min(len(x), len(y)))
        return len(x) + len(y) - 2 * common

    def ball_size(self, radius: int) -> int:
        d = self.degree  # sum of sphere sizes; any radius above 64 is over the cap
        return 1 + d * ((d - 1) ** min(radius, 64) - 1) // (d - 2)

    def check_horizon(self, steps: int) -> None:
        """No cap: the kernel needs O(steps) memory and no box."""

    def scaled_series(self, x, y, n_max: int) -> np.ndarray:
        """The tail sums of even_returns (truncated below 2^-64 relative) at
        every even n, O(n_max J) time, with odd entries 0.0 and s[0] set to
        1.0 exactly (the truncated sum can miss it by an ulp or two)."""
        if x != y:
            raise ValueError("tree-like graphs have a kernel only at distance 0: x must equal y")
        s = np.zeros(n_max + 1)
        s[0] = 1.0
        s[2::2] = self.even_returns(n_max // 2)
        return s

    def even_returns(self, m_max: int, stride: int = 1) -> np.ndarray:
        """p_2m(e, e) / rho^2m at the rows m of spectra_grid(m_max, stride):
        m = stride, 2 stride, ... <= m_max, and m_max when stride does not
        divide it.

        Kesten's return generating function (Woess, Random Walks on Infinite
        Graphs and Groups, 2000, Lemma 1.24) is, with w = z^2 and rho^2 =
        4(d-1)/d^2,
          sum_n p_2n w^n = (d sqrt(1 - rho^2 w) - (d-2)) / (2(1-w)).
        Its numerator vanishes at w = 1, so with |c_k| the coefficients of
        sqrt(1 - x) (_sqrt_coefficients)
          p_2m / rho^2m = (d/2) sum_{j>=1} |c_{m+j}| rho^2j,
        a sum of positive terms falling faster than rho^2 per term.  It stops
        after J terms, with J the least such that the bound rho^2J / (1 - rho^2)
        on the relative truncation error is <= 2^-64 (J = 396 at d = 3, 160
        at d = 4, 16 at d = 64).  Each entry is one dot product of a J-term
        window of the coefficients, read through a strided view that copies
        no window, so the cost is O(J) per returned entry plus O(m_max) for
        the coefficients, and O(m_max) memory.
        """
        d = self.degree
        rho2 = 4.0 * (d - 1) / (d * d)
        terms = math.ceil((64 * math.log(2.0) - math.log1p(-rho2)) / -math.log(rho2))
        weights = rho2 ** np.arange(1, terms + 1)
        # row m: |c_{m+1}| .. |c_{m+J}|
        windows = sliding_window_view(_sqrt_coefficients(m_max + terms), terms)
        tails = np.vecdot(windows[stride::stride], weights)
        if m_max % stride:
            tails = np.append(tails, np.vecdot(windows[m_max], weights))
        return tails * (0.5 * d)


class Lattice:
    """Z^dim with nearest-neighbour edges.  Methods take valid points."""

    is_tree_like = False
    rho = 1.0

    def __init__(self, dim: int):
        self.dim = dim
        self.degree = 2 * dim
        self.identity = (0,) * dim

    def validate(self, x) -> None:
        if not isinstance(x, tuple):
            raise InvalidElementError(f"element must be a tuple, got {type(x).__name__}")
        if len(x) != self.dim or not {int}.issuperset(map(type, x)):
            raise InvalidElementError(f"{x!r} is not a coordinate in Z^{self.dim}")

    def neighbors(self, x) -> list:
        out = []
        for i, c in enumerate(x):  # in the fixed order +e_1, -e_1, +e_2, ...
            head, tail = x[:i], x[i + 1:]
            out += head + (c + 1,) + tail, head + (c - 1,) + tail
        return out

    def mul(self, x, y):
        return tuple(map(add, x, y))

    def inv(self, x):
        return tuple(map(neg, x))

    def distance(self, x, y) -> int:
        return sum(abs(a - b) for a, b in zip(x, y))

    def ball_size(self, radius: int) -> int:
        return (2 * radius + 1) ** self.dim  # the box around the ball

    def check_horizon(self, steps: int) -> None:
        if (2 * steps + 1) ** self.dim > MAX_LATTICE_CELLS:
            raise ValueError(f"{steps} steps on Z^{self.dim} need more than "
                             f"{MAX_LATTICE_CELLS} lattice cells")

    def even_returns(self, m_max: int, stride: int = 1) -> np.ndarray:
        """p_2m(e, e) at the rows m of spectra_grid(m_max, stride)."""
        ms = spectra_grid(m_max, stride)
        return self.scaled_series(self.identity, self.identity, 2 * m_max)[2 * ms]

    def scaled_series(self, x, y, n_max: int) -> np.ndarray:
        """p_n(x, y) for n = 0..n_max from the exact 1-d laws q of
        _walk_law, in O(n_max) memory (Lawler and Limic, Random Walk: A
        Modern Introduction, 2010):
          Z^1: q(d1), with delta = y - x;
          Z^2: q(d1 + d2) q(d1 - d2), as x+y and x-y are independent +-1 walks;
          Z^3: sum over the m steps taken along axis 1 of
               Bin(n, 1/3)(m) q_m(d1) p2_{n-m}(d2, d3), O(n_max^2) time.
        """
        self.check_horizon(n_max)
        delta = tuple(b - a for a, b in zip(x, y))
        if self.dim == 1:
            return _walk_law(delta[0], n_max)
        a, b = delta[-2:]
        plane = _walk_law(a + b, n_max) * _walk_law(a - b, n_max)
        if self.dim == 2:
            return plane
        axis = _walk_law(delta[0], n_max)
        out = np.empty(n_max + 1)
        binom = np.zeros(n_max + 1)  # row n of Bin(n, 1/3), updated in place
        binom[0] = 1.0
        for n in range(n_max + 1):
            if n:
                binom[1:n + 1] = binom[1:n + 1] * (2.0 / 3.0) + binom[:n] * (1.0 / 3.0)
                binom[0] *= 2.0 / 3.0
            out[n] = np.dot(binom[:n + 1] * axis[:n + 1], plane[n::-1])
        return out


# kind -> (least param, greatest param, refusal outside them, degree per
# unit of param, family of param); the degree is capped before it is built
_FAMILIES = {
    REGULAR_TREE: (3, math.inf, "regular tree needs degree >= 3", 1,
                   lambda d: WordGroup(range(d), tuple, f"0..{d - 1}")),
    FREE_GROUP: (2, math.inf, "free group needs rank >= 2", 2, lambda k: WordGroup(
        [s for i in range(1, k + 1) for s in (i, -i)], partial(map, neg), f"+-1..{k}")),
    INTEGER_LATTICE: (1, MAX_LATTICE_DIM, f"lattice dimension must be in 1..{MAX_LATTICE_DIM}",
                      2, Lattice),
}


@dataclass(frozen=True)
class GroupSpec:
    """A transitive graph given by kind and a single integer parameter,
    equal, hashed and pickled by the two alone; `family` does the work.

    regular_tree(d):     d-regular tree, d >= 3 (free product of d involutions)
    free_group(k):       free group of rank k >= 2, Cayley graph is the
                         (2k)-regular tree
    integer_lattice(d):  Z^d with nearest-neighbour edges, 1 <= d <= 3
    """

    kind: str
    param: int

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _FAMILIES:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if type(self.param) is not int:
            raise ValueError(f"group param must be an integer, got {self.param!r}")
        least, greatest, refusal, per_param, family = _FAMILIES[self.kind]
        if not least <= self.param <= greatest:
            raise ValueError(refusal)
        if per_param * self.param > MAX_DEGREE:
            raise ValueError(f"degree {per_param * self.param} exceeds {MAX_DEGREE}")
        family = family(self.param)
        # neighbors()'s memo, seeded with a valid word, outside any walk
        family.last = family.identity, family.neighbors(family.identity)
        family.walking = False
        object.__setattr__(self, "family", family)

    def __reduce__(self):
        return GroupSpec, (self.kind, self.param)

    @property
    def degree(self) -> int:
        return self.family.degree

    @property
    def is_tree_like(self) -> bool:
        return self.family.is_tree_like

    def identity(self):
        return self.family.identity

    def spectral_radius_closed_form(self) -> float:
        """Norm of the Markov operator: 2*sqrt(deg-1)/deg on the tree-like
        graphs, 1 on lattices."""
        return self.family.rho


def validate_elem(g: GroupSpec, x) -> None:
    """Raise InvalidElementError unless x is a vertex of g."""
    g.family.validate(x)


def neighbors(g: GroupSpec, x):
    """The deg(g) neighbours of x, in fixed generator order, as a new list.

    g's family remembers the last word it was given and its list: a walk
    asks once per child for the neighbours of the parent's value, and
    siblings are consecutive, so they share one list.  The memo is keyed
    by identity, not equality, as (1.0, 2) == (True, 2) == (1, 2) but only
    (1, 2) is a word.  It keeps its word alive, so no other object can
    take that id, and a valid word holds only ints and cannot change.

    A miss validates x, except while run_walk marks the family as walking:
    every word its loop asks for is its validated start or a word the
    family built from it, so a miss there only builds the list.
    """
    family = g.family
    last, out = family.last
    if x is not last:
        if not family.walking:
            family.validate(x)
        out = family.neighbors(x)
        family.last = x, out
    return [*out]


def mul(g: GroupSpec, x, y):
    """Group product (lattice: vector sum): x's tail cancels against y's
    head while their letters are inverses."""
    validate_elem(g, x)
    validate_elem(g, y)
    return g.family.mul(x, y)


def inv(g: GroupSpec, x):
    validate_elem(g, x)
    return g.family.inv(x)


def distance(g: GroupSpec, x, y) -> int:
    """Graph distance: |x| + |y| - 2 (common prefix) on tree-like graphs,
    the word length of x^-1 y; L1 on the lattice."""
    validate_elem(g, x)
    validate_elem(g, y)
    return g.family.distance(x, y)


def check_ball(g: GroupSpec, radius: int) -> None:
    """Raise ValueError unless radius is an int >= 0 (check_count) whose
    ball holds at most MAX_BALL_ELEMENTS vertices: its exact size on
    tree-like graphs, the (2r+1)^dim box around it on Z^d."""
    check_count("radius", radius, 0)
    if g.family.ball_size(radius) > MAX_BALL_ELEMENTS:
        raise ValueError(f"a radius-{radius} ball exceeds {MAX_BALL_ELEMENTS} vertices")


def elements_within(g: GroupSpec, x, radius: int):
    """All vertices within the given distance of x, in BFS order.  Only x
    is validated: each other vertex is built from a valid one."""
    validate_elem(g, x)
    check_ball(g, radius)
    return list(bfs(g.family.neighbors, x, radius))


def bfs(nbrs, root, radius=None) -> dict:
    """Breadth-first search from root over nbrs(v), an iterable of the
    neighbours of v: every vertex within radius of root (every reachable
    one when radius is None), in BFS order, mapped to its distance."""
    out = {root: 0}
    frontier = [root]
    d = 0
    while frontier and (radius is None or d < radius):
        d += 1
        nxt = []
        for v in frontier:
            for w in nbrs(v):
                if w not in out:
                    out[w] = d
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


def _product_residual(a, b, p):
    """a*b - p for p near a*b, exact up to one final rounding (Dekker's
    two-product on Veltkamp halves of a and b)."""
    def halves(x):
        t = x * 134217729.0  # 2^27 + 1
        hi = t - (t - x)
        return hi, x - hi
    ah, al = halves(a)
    bh, bl = halves(b)
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


_COEFF_BLOCK = 4096  # _sqrt_coefficients works this many entries at a time


def _sqrt_coefficients(count: int) -> np.ndarray:
    """c[i] = |c_{i+1}| for i < count, the coefficients of
    sqrt(1 - x) = 1 - sum_{k>=1} |c_k| x^k, |c_k| = C(2k,k)/((2k-1)4^k).

    A cumulative product of the exact ratios |c_{k+1}| / |c_k| =
    (2k-1)/(2k+2) from |c_1| = 1/2.  Each ratio and each product is
    rounded once; their residuals (_product_residual), summed along the
    product, correct it, so every entry is good to a few ulp instead of
    drifting by sqrt(k) roundings.  Made _COEFF_BLOCK entries at a time,
    each block continuing from the last corrected entry, so temporaries
    stay small at any count.
    """
    c = np.empty(count)
    c[0] = 0.5
    for lo in range(1, count, _COEFF_BLOCK):
        k = np.arange(lo, min(lo + _COEFF_BLOCK, count), dtype=float)
        num, den = 2 * k - 1, 2 * k + 2
        ratio = num / den
        run = np.cumprod(np.concatenate(([c[lo - 1]], ratio)))
        drift = (_product_residual(run[:-1], ratio, run[1:]) / run[1:]
                 - _product_residual(ratio, den, num) / num)
        c[lo:lo + len(k)] = run[1:] * (1.0 + np.cumsum(drift))
    return c


def check_lattice_box(g: GroupSpec, steps: int) -> None:
    """Raise ValueError when an exact lattice kernel over the given number
    of steps reaches a (2*steps+1)^dim box of cells above
    MAX_LATTICE_CELLS.  A horizon cap: the kernel itself needs O(steps)
    memory."""
    g.family.check_horizon(steps)


def check_count(name: str, n, least: int) -> None:
    """Raise ValueError unless n is an int (not a bool, as for GroupSpec's
    param) of at least least: the library's one check of an integer
    argument, a horizon, stride, radius, depth, budget or count."""
    if type(n) is not int:
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < least:
        raise ValueError(f"{name} must be >= {least}")


def _walk_law(c: int, n_max: int) -> np.ndarray:
    """q[m] = P(S_m = c) = C(m, (m+c)/2) 2^-m for the simple +-1 walk S,
    m = 0..n_max, by the exact ratios q_m / q_{m-2} = m(m-1) / ((m+c)(m-c)).
    The products start from the correctly rounded q at the first m where
    q >= 2^-1000 (m = |c| when |c| <= 1000), so they stay normal doubles;
    the smaller q before it are the exponentials of summed logs."""
    c = abs(c)
    q = np.zeros(n_max + 1)
    if c > n_max:
        return q
    m = np.arange(c + 2, n_max + 1, 2, dtype=float)
    ratios = m * (m - 1) / ((m + c) * (m - c))
    log_q = np.cumsum(np.concatenate(([-c * math.log(2.0)], np.log(ratios))))
    normal = np.flatnonzero(log_q >= -1000 * math.log(2.0))
    k = int(normal[0]) if len(normal) else len(log_q)
    m0 = c + 2 * k
    q[c:m0:2] = np.exp(log_q[:k])
    if m0 <= n_max:
        start = math.comb(m0, (m0 + c) // 2) / 2**m0
        q[m0::2] = np.cumprod(np.concatenate(([start], ratios[k:])))
    return q


def scaled_p_series(g: GroupSpec, x, y, n_max: int):
    """(s, rho) with s[n] = p_n(x, y) / rho^n and rho the operator norm.

    This is the numerically safe form: s decays polynomially on tree-like
    graphs, which have one kernel, the return series, and refuse x != y
    with ValueError (WordGroup.scaled_series).  Lattices take any
    displacement, and there s is p itself, as rho = 1.
    """
    check_count("n_max", n_max, 0)
    validate_elem(g, x)
    validate_elem(g, y)
    return g.family.scaled_series(x, y, n_max), g.family.rho


def p_series(g: GroupSpec, x, y, n_max: int) -> np.ndarray:
    """Exact p_n(x, y) for n = 0..n_max (underflows to 0 at extreme n).
    On tree-like graphs x must equal y, as in scaled_p_series."""
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


def spectra_grid(n_max: int, stride: int) -> np.ndarray:
    """The rows of a spectra trajectory: n = stride, 2 stride, ... below
    n_max, then n_max; any stride >= n_max gives the one row n_max."""
    stride = min(stride, n_max)  # so the rows are int64 at any stride
    return np.append(np.arange(stride, n_max, stride), n_max)


def spectral_radius_trajectory(g: GroupSpec, n_max: int, stride: int = 1) -> np.ndarray:
    """p_{2n}(e,e)^(1/2n) (even-step estimates) at n = stride, 2 stride,
    ... below n_max, and at n_max; stride 1 gives every n = 1..n_max.
    Tree-like graphs evaluate their kernel at those n only, so the cost
    is per returned estimate; lattices pick them from the full series."""
    check_count("n_max", n_max, 1)
    check_count("stride", stride, 1)
    ns = spectra_grid(n_max, stride)
    # p^(1/2n) = rho * s^(1/2n), evaluated in logs
    return g.family.rho * np.exp(np.log(g.family.even_returns(n_max, stride)) / (2 * ns))


@dataclass
class VisitsSeries:
    """Partial sums of sum_n mean^n p_n(e, e), with an overflow guard."""

    partial_sums: np.ndarray
    guard_index: int | None  # the first term above VISITS_GUARD, if any

    @property
    def diverged(self) -> bool:
        return self.guard_index is not None


def visits_series(g: GroupSpec, mean: float, n_max: int) -> VisitsSeries:
    """Partial sums S_N = sum_{n<=N} mean^n p_n(e,e) for N = 0..n_max.

    Terms are assembled in log space on the operator-norm scale and
    accumulated with compensated summation; if a term exceeds VISITS_GUARD
    the series is cut there and flagged as divergence-suspected
    (remaining partial sums are frozen at the cut).
    """
    if not math.isfinite(mean):
        raise ValueError("mean must be finite")
    if mean < 0:
        raise ValueError("mean must be >= 0")
    e = g.identity()
    s, rho = scaled_p_series(g, e, e, n_max)  # runs first: its refusals hold at mean 0
    if mean == 0:
        return VisitsSeries(np.ones(n_max + 1), None)
    log_scale = math.log(mean) + math.log(rho)
    log_guard = math.log(VISITS_GUARD)
    sums = []
    total = comp = 0.0
    guard_index = None
    for n, sn in enumerate(s.tolist()):
        if sn <= 0.0:
            term = 0.0
        else:
            log_term = n * log_scale + math.log(sn)
            if log_term > log_guard:
                guard_index = n
                # total is within an ulp of the exact sum of the terms
                sums += [total] * (n_max + 1 - n)
                break
            term = math.exp(log_term)
        # Kahan step: late terms sit far below the accumulated sum.
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        sums.append(total)
    return VisitsSeries(np.array(sums), guard_index)
