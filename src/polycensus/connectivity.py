"""Connectivity predicates.

``is_3_connected`` decides 3-connectivity straight from the definition:
delete every vertex subset of size 0, 1 and 2 and test connectivity of
the rest, at most 137 bitmask searches at order <= 16.  A vertex of
degree below 3 answers at once, since its neighbours are such a subset.
It stays the public test because it assumes nothing about its input,
and because the complement check, ``is_polyhedral`` and the tests rely
on it as the plain definition.

``_three_connected_without_edge`` serves the deletion step of the
census, where the graph is already known to be 3-connected and only one
edge goes.  If G is 3-connected, G - ab is 3-connected iff G - ab still
joins a and b by three internally disjoint paths: a cut S of size <= 2
in G - ab leaves G - S connected, so ab is a bridge of G - S and S
separates a from b; Menger's theorem gives the converse.  Counting the
paths takes at most three augmentations of a unit-capacity flow, in
place of ~1 + p + C(p, 2) searches.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph, bits


def _connected_within(adj: tuple[int, ...], mask: int) -> bool:
    """Is the subgraph induced on the vertex bitmask ``mask`` connected?

    Vertex sets of size 0 and 1 count as connected.
    """
    if mask & (mask - 1) == 0:
        return True
    start = mask & -mask
    seen = start
    frontier = start
    while frontier:
        reach = 0
        for v in bits(frontier):
            reach |= adj[v]
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen == mask


def is_connected(g: Graph) -> bool:
    return _connected_within(g.adj, (1 << g.p) - 1)


def min_degree(g: Graph) -> int:
    return min(row.bit_count() for row in g.adj)


def is_3_connected(g: Graph) -> bool:
    """True iff ``g`` has more than 3 vertices and no cut set of size < 3."""
    p, adj = g.p, g.adj
    # the neighbours of a vertex of degree below 3 form a cut of size <= 2
    if p < 4 or any(row.bit_count() < 3 for row in adj):
        return False
    full = (1 << p) - 1
    if not _connected_within(adj, full):
        return False
    for v in range(p):
        if not _connected_within(adj, full ^ (1 << v)):
            return False
    for u, v in combinations(range(p), 2):
        if not _connected_within(adj, full ^ (1 << u) ^ (1 << v)):
            return False
    return True


def _three_connected_without_edge(g: Graph, a: int, b: int) -> bool:
    """``is_3_connected(g.remove_edge(a, b))`` for a 3-connected ``g``.

    Counts internally disjoint a-b paths in g - ab by augmenting a unit
    flow on the vertex-split graph; the answer is wrong if ``g`` is not
    3-connected.
    """
    p = g.p
    adj = list(g.adj)
    adj[a] &= ~(1 << b)
    adj[b] &= ~(1 << a)
    if adj[a].bit_count() < 3 or adj[b].bit_count() < 3:
        return False
    # residual arcs as bitmasks over 2p nodes: node v enters vertex v,
    # node p + v leaves it; inner arc v -> p + v, edge arcs p + u -> v
    res = [1 << (p + v) for v in range(p)] + adj
    source, sink = p + a, b
    parent = [0] * (2 * p)
    for _ in range(3):
        seen = 1 << source
        frontier = [source]
        while frontier and not (seen >> sink) & 1:
            nxt = []
            for x in frontier:
                new = res[x] & ~seen
                seen |= new
                while new:
                    low = new & -new
                    y = low.bit_length() - 1
                    parent[y] = x
                    nxt.append(y)
                    new ^= low
            frontier = nxt
        if not (seen >> sink) & 1:
            return False
        # unit capacities and no antiparallel arcs: pushing x -> y always
        # closes x -> y and opens y -> x
        y = sink
        while y != source:
            x = parent[y]
            res[x] &= ~(1 << y)
            res[y] |= 1 << x
            y = x
    return True
