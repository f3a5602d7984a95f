"""Tree-indexed random walks and their traces: the subgraph of the
group spanned by the edges the walk crosses, as adjacency lists."""

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

    def image_counts(self) -> Counter:
        """Visits per group element; the keys are the image."""
        return Counter(self.values)


def run_walk(tree: MarkedTree, g: groups.GroupSpec, start, rng) -> TreeWalk:
    """The walk on g from start indexed by tree, whose parent list names
    every parent before its children.

    start is validated once, before any draw.  The picks are one
    rng.integers call with one entry per vertex, the root's unused, and
    each non-root vertex makes one groups.neighbors call, for its
    parent's value.  The step loop runs with g's family marked as
    walking, so those calls validate nothing: each value is start or a
    word the family built from it.  The mark is cleared however the loop
    ends.
    """
    groups.validate_elem(g, start)
    picks = rng.integers(0, g.degree, size=tree.n_vertices)
    neighbors = groups.neighbors  # looked up per walk, so a patched one counts
    values = [start]
    append = values.append
    family = g.family
    family.walking = True
    try:
        for p, k in zip(islice(tree.parent, 1, None), picks[1:].tolist()):
            append(neighbors(g, values[p])[k])
    finally:
        family.walking = False
    return TreeWalk(tree, values)


def trace(walk: TreeWalk) -> dict:
    """The trace as adjacency lists: every walk value, and each crossed
    edge listed once at both of its ends, in first-crossing order."""
    values = walk.values
    crossed = zip(map(values.__getitem__, islice(walk.tree.parent, 1, None)),
                  islice(values, 1, None))
    edges = dict.fromkeys((a, b) if a <= b else (b, a) for a, b in crossed)
    return groups.adjacency(values, edges)
