"""Duals of polyhedral graphs.

A graph is polyhedral when it is simple, planar and 3-connected.  Such
a graph has an essentially unique embedding, so its dual is a single
well-defined isomorphism class, again polyhedral, with
p* = q - p + 2 vertices and q* = q edges.

``_face_graph`` builds a dual from the faces of a polyhedral graph,
each the bitmask of its vertices; the two faces either side of an edge
are the only two that hold both its ends.  One embedding answers every
question about a single graph, through one helper: ``_polyhedral``
runs the block search of ``planarity._plane`` once, which is the
planarity test, and the faces it returns give 3-connectivity by the
face test (``_three_connected_by_faces``) and then the dual.  ``dual``,
``is_polyhedral``, ``is_self_dual``, ``check`` and the complement scan
of ``classify`` all read it and run no 3-connectivity search on planar
input.  The census passes the faces it carries with each class.
"""

from __future__ import annotations

from collections.abc import Sequence

from .graphs import _BIT, Graph, bits
from .isomorphism import are_isomorphic
from .planarity import _normal_form, _plane


class NotPolyhedralError(ValueError):
    """Raised when an operation needs a 3-connected planar input."""


def _not_polyhedral(g: Graph) -> NotPolyhedralError:
    return NotPolyhedralError(f"graph with p={g.p}, q={g.q} is not polyhedral")


def _polyhedral(g: Graph, ordered: bool = False) -> tuple[bool, list[int] | None]:
    """Whether ``g`` is planar, with the vertex masks of its faces when
    it is also 3-connected, else None: one embedding, then the face
    test.  The faces are in ``embed``'s order when ``ordered``, else in
    any order."""
    planar, walks = _plane(g)
    if walks is None:
        return planar, None
    if ordered:
        walks = _normal_form(walks)
    faces = [sum(map(_BIT.__getitem__, f)) for f in walks]
    return True, faces if _three_connected_by_faces(g, faces) else None


def is_polyhedral(g: Graph) -> bool:
    """Simple graphs are assumed; one embedding and the face test."""
    return _polyhedral(g)[1] is not None


def dual(g: Graph) -> Graph:
    """Planar dual: one vertex per face, edges between facing faces.

    Deterministic for a given labelled input (faces are numbered in the
    sorted order ``embed`` returns them in), but only the isomorphism
    class is meaningful.  Embeds once: the embedding is the planarity
    test, and its faces give 3-connectivity and the dual.
    """
    faces = _polyhedral(g, ordered=True)[1]
    if faces is None:
        raise _not_polyhedral(g)
    return _face_graph(g, faces)


def _faces_through(faces: Sequence[int], p: int) -> list[int]:
    """For each vertex, the bitmask of the faces (vertex masks) through it."""
    on = [0] * p
    for k, f in enumerate(faces):
        for x in bits(f):
            on[x] |= 1 << k
    return on


def _three_connected_by_faces(g: Graph, faces: Sequence[int]) -> bool:
    """Whether the 2-connected plane graph ``g`` with these faces (vertex
    masks) is 3-connected: no two faces share two vertices, but for the
    two ends of an edge between them.

    That is, vertices x and y lie on at most one common face, or on two
    when xy is an edge; p >= 4 is part of the definition.  A face of a
    2-connected plane graph is bounded by a cycle, so it meets each
    vertex in one angle between consecutive edges, and distinct angles
    at x lie in distinct faces.

    If g is 3-connected and faces F and F' both hold x and y, draw a
    closed curve from x through F to y and back through F'.  It meets g
    only at x and y, and the two x-y arcs of F's boundary cycle lie in
    the two regions it bounds, so one arc has no inner vertex, or {x, y}
    would cut g: it is the edge xy.  So every face that holds x and y
    has the edge xy on its boundary, and an edge lies on two faces.

    If g is not 3-connected, let {x, y} cut it, H one component of
    g - x - y and H' the rest; by 2-connectivity x has a neighbour in
    each.  Around x, the edges to H, the edges to H' and the edge xy
    (when present) make two or three classes, so there are at least two
    or three angles between edges of different classes.  The face in
    such an angle holds y: its boundary runs from one side of the cut
    to the other avoiding x, or uses the edge xy.  So x and y share two
    faces without an edge, or three with one.
    """
    p, adj = g.p, g.adj
    if p < 4:
        return False
    on = _faces_through(faces, p)
    for x in range(p):
        ox, row = on[x], adj[x]
        for y in range(x + 1, p):
            if (ox & on[y]).bit_count() > 1 + (row >> y & 1):
                return False
    return True


def _face_graph(g: Graph, faces: Sequence[int]) -> Graph:
    """Dual of the polyhedral ``g`` from the vertex masks of its faces.

    Face k becomes vertex k, and each edge uv of g joins the two faces
    that hold both u and v: faces are induced cycles, so these are the
    faces either side of uv.  A dual may have up to 28 vertices, so the
    face sets through a vertex are never read with ``bits``.
    """
    p, q = g.p, g.q
    # Euler's formula for a connected plane graph
    assert len(faces) == q - p + 2
    on = _faces_through(faces, p)
    rows = [0] * len(faces)
    for u, v in g.edges():
        both = on[u] & on[v]
        low = both & -both
        rows[low.bit_length() - 1] |= both ^ low
        rows[both.bit_length() - 1] |= low
    # 3-connectivity rules out two faces sharing more than one edge
    assert sum(row.bit_count() for row in rows) == 2 * q
    return Graph(len(faces), tuple(rows))


def is_self_dual(g: Graph) -> bool:
    """Raises NotPolyhedralError unless ``g`` is polyhedral."""
    faces = _polyhedral(g)[1]
    if faces is None:
        raise _not_polyhedral(g)
    return _self_dual_by_faces(g, faces)


def _self_dual_by_faces(g: Graph, faces: Sequence[int]) -> bool:
    """Whether the polyhedral ``g`` with these faces is self-dual."""
    # the dual has q - p + 2 vertices; when that differs from p it is not
    # built, since it may exceed the supported order
    return 2 * g.p == g.q + 2 and are_isomorphic(g, _face_graph(g, faces))
