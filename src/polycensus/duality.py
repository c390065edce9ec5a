"""Duals of polyhedral graphs.

A graph is polyhedral when it is simple, planar and 3-connected.  Such
a graph has an essentially unique embedding, so its dual is a single
well-defined isomorphism class, again polyhedral, with
p* = q - p + 2 vertices and q* = q edges.

``_face_graph`` builds a dual from the face walks of a given embedding.
Both callers take the walks from ``graphs.face_walks``: ``dual`` embeds
its input and passes ``RotationSystem.faces()``, the walks in normal
form, and the census passes the raw walks of the rotation system it
already carries for each class.
"""

from __future__ import annotations

from collections.abc import Sequence

from .connectivity import is_3_connected
from .graphs import Graph
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
    sorted order of ``RotationSystem.faces``), but only the isomorphism
    class is meaningful.  Checks 3-connectivity, then embeds once: the
    embedding is the planarity test.
    """
    if not (g.p >= 4 and is_3_connected(g)):
        raise _not_polyhedral(g)
    try:
        faces = embed(g).faces()
    except NonPlanarGraphError:
        raise _not_polyhedral(g) from None
    return _face_graph(g, faces)


def _face_graph(g: Graph, faces: Sequence[Sequence[int]]) -> Graph:
    """Dual of the polyhedral ``g`` from the face walks of an embedding.

    Face k of ``faces`` becomes vertex k, and each edge uv of g joins the
    faces that hold the darts u -> v and v -> u (dart x -> y at x * p + y).
    """
    p, q = g.p, g.q
    # Euler's formula for a connected plane graph
    assert len(faces) == q - p + 2
    side = [0] * (p * p)
    for k, face in enumerate(faces):
        x = face[-1]
        for y in face:
            side[x * p + y] = k
            x = y
    rows = [0] * len(faces)
    for k, face in enumerate(faces):
        x = face[-1]
        row = 0
        for y in face:
            row |= 1 << side[y * p + x]
            x = y
        rows[k] = row
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
