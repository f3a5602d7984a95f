"""Tree-indexed random walks and their traces."""

from __future__ import annotations

from collections import Counter
from itertools import islice

from . import groups
from .gw import MarkedTree


class TreeWalk:
    """Assignment of group elements to tree vertices: the root gets the
    start value, every child an independent uniform neighbour of its
    parent's value.  values[v] is vertex v's value."""

    def __init__(self, tree: MarkedTree, values: list):
        self.tree = tree
        self.values = values

    @property
    def start(self):
        return self.values[0]

    def image_counts(self) -> Counter:
        """Visits per group element; the keys are the image."""
        return Counter(self.values)


def run_walk(tree: MarkedTree, g: groups.GroupSpec, start, rng) -> TreeWalk:
    groups.validate_elem(g, start)
    # one pick per vertex, the root's unused
    picks = rng.integers(0, g.degree, size=tree.n_vertices)
    neighbors = groups.neighbors  # looked up per walk, so a patched one counts
    values = [start]
    append = values.append
    for p, k in zip(islice(tree.parent, 1, None), picks[1:].tolist()):
        append(neighbors(g, values[p])[k])  # one neighbors() step per non-root vertex
    return TreeWalk(tree, values)


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


def trace(walk: TreeWalk) -> TraceGraph:
    values = walk.values
    edge_mult = Counter()
    for p, b in zip(islice(walk.tree.parent, 1, None), islice(values, 1, None)):
        a = values[p]
        key = (a, b) if a <= b else (b, a)
        edge_mult[key] += 1
    visits = walk.image_counts()
    return TraceGraph(set(visits.keys()), dict(edge_mult), dict(visits), walk.start)
