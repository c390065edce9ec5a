"""Connectivity predicates.

``is_3_connected`` decides 3-connectivity from the definition: delete
every pair of vertices and test connectivity of the rest, at most 120
bitmask searches at order <= 16.  A vertex of degree below 3 answers at
once, since its neighbours are a cut of size <= 2.  Without one, and
with p >= 4, every component left by a cut of 0 or 1 vertices has 3 or
more, so a vertex of one joins the cut and it still cuts: pairs suffice.
It assumes nothing else about its input; ``check`` runs it on
non-planar input, which has no faces to read.

Planar graphs need no such search.  ``dual``, ``is_polyhedral``,
``check`` and the complement scan read 3-connectivity off the faces of
one embedding through one helper, ``duality._polyhedral``, and the
census reads whether deleting an edge keeps a polyhedral graph
3-connected off its carried faces (see ``enumeration``).
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph, bits


def _connected_within(adj: tuple[int, ...], mask: int) -> bool:
    """Is the subgraph induced on the vertex bitmask ``mask`` connected?

    The empty set and a single vertex count as connected.
    """
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


def is_3_connected(g: Graph) -> bool:
    """True iff ``g`` has more than 3 vertices and no cut set of size < 3."""
    p, adj = g.p, g.adj
    # the neighbours of a vertex of degree below 3 form a cut of size <= 2
    if p < 4 or any(row.bit_count() < 3 for row in adj):
        return False
    full = (1 << p) - 1
    for u, v in combinations(range(p), 2):
        if not _connected_within(adj, full ^ (1 << u) ^ (1 << v)):
            return False
    return True
