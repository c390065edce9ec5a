"""Duals of polyhedral graphs.

A graph is polyhedral when it is simple, planar and 3-connected.  Such
a graph has an essentially unique embedding, so its dual is a single
well-defined isomorphism class, again polyhedral, with
p* = q - p + 2 vertices and q* = q edges.

``_face_graph`` builds a dual from the faces of a polyhedral graph,
each the bitmask of its vertices; the two faces either side of an edge
are the only two that hold both its ends.  ``dual`` embeds its input
and passes the vertex sets of the faces ``embed`` returns, and the
census passes the faces it carries with each class.
"""

from __future__ import annotations

from collections.abc import Sequence

from .connectivity import is_3_connected
from .graphs import Graph, bits
from .isomorphism import are_isomorphic
from .planarity import NonPlanarGraphError, embed, is_planar


class NotPolyhedralError(ValueError):
    """Raised when an operation needs a 3-connected planar input."""


def is_polyhedral(g: Graph) -> bool:
    """Simple graphs are assumed; checks 3-connectivity, then planarity."""
    return g.p >= 4 and is_3_connected(g) and is_planar(g)


def _not_polyhedral(g: Graph) -> NotPolyhedralError:
    return NotPolyhedralError(f"graph with p={g.p}, q={g.q} is not polyhedral")


def dual(g: Graph) -> Graph:
    """Planar dual: one vertex per face, edges between facing faces.

    Deterministic for a given labelled input (faces are numbered in the
    sorted order ``embed`` returns them in), but only the isomorphism
    class is meaningful.  Checks 3-connectivity, then embeds once: the
    embedding is the planarity test.
    """
    if not (g.p >= 4 and is_3_connected(g)):
        raise _not_polyhedral(g)
    try:
        faces = embed(g)
    except NonPlanarGraphError:
        raise _not_polyhedral(g) from None
    return _face_graph(g, [sum(1 << x for x in f) for f in faces])


def _faces_through(faces: Sequence[int], p: int) -> list[int]:
    """For each vertex, the bitmask of the faces (vertex masks) through it."""
    on = [0] * p
    for k, f in enumerate(faces):
        for x in bits(f):
            on[x] |= 1 << k
    return on


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
    # the dual has q - p + 2 vertices; when that differs from p it is not
    # built, since it may exceed the supported order
    if 2 * g.p != g.q + 2:
        if not is_polyhedral(g):
            raise _not_polyhedral(g)
        return False
    return are_isomorphic(g, dual(g))
