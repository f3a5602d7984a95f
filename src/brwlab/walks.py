"""Tree-indexed random walks and their traces."""

from __future__ import annotations

from collections import Counter

from . import groups
from .gw import MarkedTree


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
        """Visits per group element; the keys are the image."""
        return Counter(self.values.values())


def run_walk(tree: MarkedTree, g: groups.GroupSpec, start, rng) -> TreeWalk:
    groups.validate_elem(g, start)
    values = {tree.root: start}
    picks = rng.integers(0, g.degree, size=tree.n_vertices)
    neighbors = groups.neighbors  # looked up per walk, so a patched one counts
    for (v, p), k in zip(tree.parent.items(), picks.tolist()):
        if p is not None:  # one neighbors() step per non-root vertex
            values[v] = neighbors(g, values[p])[k]
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
