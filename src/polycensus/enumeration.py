"""Census of polyhedral graphs within order and size bounds.

Production route, per order p:

* maximal planar graphs (q = 3p - 6) are generated by splitting a
  vertex of a smaller one, starting from K4; every maximal planar graph
  on at least five vertices arises this way because it has an edge
  whose contraction stays maximal planar,
* sparser sizes follow by deleting one edge at a time, keeping only
  3-connected results.  The parent is already 3-connected, so G - ab
  is 3-connected exactly when a and b are still joined by three
  internally disjoint paths (Menger); that one local test replaces a
  search over every cut of size <= 2, and the child graph is built only
  for deletions that pass.  This reaches everything: a polyhedral graph
  below the maximum size has a face of length at least four, two
  interleaved chords of that face cannot both be drawn in the disc
  outside it, so some chord is absent and can be added, and repeating
  climbs to a maximal planar graph through polyhedral graphs,
* when the dual order q - p + 2 is smaller than p, the census is built
  on the dual side and dualized back, which is a bijection on classes.
  Each dual is read off the rotation system carried with its class
  (below): one vertex per face, one edge across each edge.  A
  polyhedral graph has one embedding up to mirror image (Whitney), so
  these faces give the same dual class as any other embedding would,
  and no class is tested or embedded again.

Most deletion children are isomorphic to a child of another parent, so
a child is canonically labelled only when its deleted edge is a best
way back up (canonical construction path acceptance, after McKay,
*Isomorph-free exhaustive generation*, 1998).  Each class carries its
rotation system down the descent: each triangulation is embedded once,
when its class is first found, and those rotations serve both the
vertex splitting of the order above and the deletions below it; the
rotations of h = g - ab are those of g with b dropped at a and a
dropped at b.  For a polyhedral h let C(h) be the pairs {x, y} that
are non-adjacent in h and lie on a common face; h + xy is then planar
and 3-connected, so every pair of C(h) leads back to a polyhedral
parent.  Score a pair by f(x, y) = (d(x) + d(y), min(d(x), d(y))),
compared lexicographically.  The child h = g - ab is accepted iff
f(a, b) is the maximum of f over C(h); it is rejected outright when a
or b has degree 3 in g, since h then has a vertex of degree 2.

* Sound: accepted children are a subset of the children that the
  Menger test would keep, so nothing that is not polyhedral gets in.
* Complete: let H be a class with q edges and xy a pair of C(H) with
  the largest score.  H + xy is polyhedral with q + 1 edges, so by
  induction it is isomorphic to some parent g of the level above, and
  the isomorphism takes xy to an edge ab of g with g - ab isomorphic to
  H.  A 3-connected planar graph has one embedding up to mirror image
  (Whitney), so its faces, and with them C and f, are invariant under
  isomorphism: f(a, b) is the maximum over C(g - ab), and H is found.
* Classes are still keyed by certificate and stored as their canonical
  graphs, so the output does not depend on which child reached a class
  first.

The check is cheap because deletion only lowers degrees: the faces of g
are walked once per parent, and its pairs C(g) are sorted by score in
g.  Deleting ab merges the two faces on either side of ab and leaves
every other face as it was, so C(g - ab) is C(g), the pair {a, b} and
the pairs across the two merged faces.  Only pairs that touch a or b
score lower in the child, so the scan of C(g) stops at the first pair
whose score in g is no higher than f(a, b).

The tests check this census against a direct filtration of all graphs
of the right order and size, which shares no generation machinery.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import TypeVar

from .connectivity import _three_connected_without_edge
from .duality import _face_graph
from .graphs import DegreeSequence, Graph, complete
from .isomorphism import (
    CanonicalForm,
    canonical_form,
    canonical_graph,
    canonical_labeling,
)
from .planarity import embed

MAX_ENUM_ORDER = 9

_Rotations = tuple[tuple[int, ...], ...]
_T = TypeVar("_T")


def order_bounds(q: int) -> tuple[int, int]:
    """Inclusive order window for polyhedral graphs with q edges.

    Lower end from q <= 3p - 6, upper end from minimum degree 3; the
    window may be empty (q = 7 admits no polyhedral graph).
    """
    if q < 6:
        raise ValueError("a polyhedral graph has at least 6 edges")
    return (q + 8) // 3, 2 * q // 3


def _sorted_classes(found: dict[CanonicalForm, _T]) -> tuple[_T, ...]:
    return tuple(found[k] for k in sorted(found, key=lambda c: c.certificate))


# ---------------------------------------------------------------------------
# maximal planar graphs by vertex splitting

def _split_vertex(g: Graph, v: int, rot: tuple[int, ...], i: int, j: int) -> Graph:
    """Replace v by an edge v-p; the rotation arc rot[i..j] stays with v."""
    p, d = g.p, len(rot)
    arc_keep = [rot[(i + k) % d] for k in range((j - i) % d + 1)]
    arc_move = [rot[(j + k) % d] for k in range((i - j) % d + 1)]
    edges = [(a, b) for a, b in g.edges() if v not in (a, b)]
    edges += [(v, u) for u in arc_keep]
    edges += [(p, u) for u in arc_move]
    edges.append((v, p))
    return Graph.from_edges(p + 1, edges)


@cache
def _embedded_triangulations(p: int) -> tuple[tuple[Graph, _Rotations], ...]:
    """(class, its rotation system) for every maximal planar graph on p
    vertices, canonical and sorted."""
    if not 4 <= p <= MAX_ENUM_ORDER:
        raise ValueError(f"supported orders are 4..{MAX_ENUM_ORDER}")
    if p == 4:
        classes = (canonical_graph(complete(4)),)
    else:
        found: dict[CanonicalForm, Graph] = {}
        for t, rot in _embedded_triangulations(p - 1):
            for v in range(t.p):
                for i, j in combinations(range(len(rot[v])), 2):
                    s = _split_vertex(t, v, rot[v], i, j)
                    cf = canonical_form(s)
                    if cf not in found:
                        found[cf] = canonical_graph(s)
        classes = _sorted_classes(found)
    return tuple((t, embed(t).rotations) for t in classes)


@cache
def triangulations(p: int) -> tuple[Graph, ...]:
    """All maximal planar graphs on p vertices, canonical, sorted."""
    return tuple(t for t, _ in _embedded_triangulations(p))


# ---------------------------------------------------------------------------
# full census per order, by edge deletion

def _faces(rot: _Rotations) -> tuple[list[list[int]], list[int]]:
    """Face boundaries of an embedding, and the face left of each dart.

    The dart x -> y has index x << 4 | y, as a graph has at most 16
    vertices; it is followed by y -> (successor of x in the rotation at y).
    """
    size = len(rot) << 4
    succ = [0] * size
    for v, r in enumerate(rot):
        for u, w in zip(r, r[1:] + r[:1]):
            succ[v << 4 | u] = w
    faces: list[list[int]] = []
    face_of = [-1] * size
    for v, r in enumerate(rot):
        for u in r:
            if face_of[v << 4 | u] >= 0:
                continue
            walk = []
            x, y = v, u
            while face_of[x << 4 | y] < 0:
                face_of[x << 4 | y] = len(faces)
                walk.append(x)
                x, y = y, succ[y << 4 | x]
            faces.append(walk)
    return faces, face_of


def _score(dx: int, dy: int) -> int:
    """(dx + dy, min(dx, dy)) packed into one int; degrees are below 16."""
    return (dx + dy) << 4 | min(dx, dy)


def _outscored(
    pairs: list[tuple[int, int, int]], deg: list[int], a: int, b: int, best: int
) -> bool:
    """Whether a pair of C(g), scored in g - ab, beats ``best``.

    ``pairs`` holds (score in g, x, y), highest first; a score only
    falls on deletion, and only for pairs that touch a or b.
    """
    for s, x, y in pairs:
        if s <= best:
            return False
        if x != a and x != b and y != a and y != b:
            return True
        dx = deg[x] - (x == a or x == b)
        dy = deg[y] - (y == a or y == b)
        if _score(dx, dy) > best:
            return True
    return False


def _accepted_deletions(g: Graph, rot: _Rotations):
    """Edges ab of g, a and b of degree at least 4, such that ab scores
    best among the pairs C(g - ab); ``rot`` embeds the 3-connected g."""
    adj = g.adj
    deg = [len(r) for r in rot]
    faces, face_of = _faces(rot)
    # in a 3-connected plane graph two faces meet in at most an edge, so
    # a non-adjacent pair lies on one face at most
    pairs = sorted(
        (
            (_score(deg[x], deg[y]), x, y)
            for f in faces
            for x, y in combinations(f, 2)
            if not adj[x] >> y & 1
        ),
        reverse=True,
    )
    for a, b in g.edges():
        if deg[a] < 4 or deg[b] < 4:
            continue
        best = _score(deg[a] - 1, deg[b] - 1)
        if _outscored(pairs, deg, a, b, best):
            continue
        # the faces either side of ab merge; they share only a and b
        left = [x for x in faces[face_of[a << 4 | b]] if x != a and x != b]
        right = [y for y in faces[face_of[b << 4 | a]] if y != a and y != b]
        if not any(
            not adj[x] >> y & 1 and _score(deg[x], deg[y]) > best
            for x in left
            for y in right
        ):
            yield a, b


def _child_rotations(
    rot: _Rotations, a: int, b: int, perm: tuple[int, ...]
) -> _Rotations:
    """Rotations of g - ab, relabelled by ``perm`` (old vertex -> new)."""
    out: list[tuple[int, ...]] = [()] * len(rot)
    for v, r in enumerate(rot):
        gone = b if v == a else a if v == b else -1
        out[perm[v]] = tuple(perm[u] for u in r if u != gone)
    return tuple(out)


@cache
def _embedded_census(p: int) -> dict[int, tuple[tuple[Graph, _Rotations], ...]]:
    """q -> (class, its rotation system), for every feasible size at order p."""
    q_top = 3 * p - 6
    q_bot = (3 * p + 1) // 2
    out = {q_top: _embedded_triangulations(p)}
    for q in range(q_top - 1, q_bot - 1, -1):
        found: dict[CanonicalForm, tuple[Graph, _Rotations]] = {}
        for g, rot in out[q + 1]:
            for a, b in _accepted_deletions(g, rot):
                if _three_connected_without_edge(g, a, b):
                    h = g.remove_edge(a, b)
                    cf = canonical_form(h)
                    if cf not in found:
                        perm = canonical_labeling(h)
                        found[cf] = (
                            canonical_graph(h),
                            _child_rotations(rot, a, b, perm),
                        )
        out[q] = _sorted_classes(found)
    return out


@cache
def _census_by_order(p: int) -> dict[int, tuple[Graph, ...]]:
    """q -> classes, for every feasible size at order p."""
    return {
        q: tuple(g for g, _ in classes)
        for q, classes in _embedded_census(p).items()
    }


def enumerate_polyhedra(p: int, q: int) -> tuple[Graph, ...]:
    """All polyhedral graphs with p vertices and q edges, up to isomorphism.

    Returns () outside the feasible region.  Orders are supported as
    long as p or the dual order q - p + 2 is at most MAX_ENUM_ORDER.
    """
    if p < 4 or q < 6 or q > 3 * p - 6 or 2 * q < 3 * p:
        return ()
    r = q - p + 2
    if min(p, r) > MAX_ENUM_ORDER:
        raise ValueError(
            f"feasible, but p={p} and q-p+2={r} both exceed {MAX_ENUM_ORDER}"
        )
    if r < p:
        found = {}
        for h, rot in _embedded_census(r)[q]:
            d = _face_graph(h, _faces(rot)[0])
            # both calls share one cached canonical labelling of d
            found[canonical_form(d)] = canonical_graph(d)
        return _sorted_classes(found)
    return _census_by_order(p)[q]


def enumerate_by_size(q: int) -> dict[int, tuple[Graph, ...]]:
    """Census of one size across its whole order window, keyed by order."""
    lo, hi = order_bounds(q)
    out = {}
    for p in range(lo, hi + 1):
        classes = enumerate_polyhedra(p, q)
        if classes:
            out[p] = classes
    return out


def filter_by_degree_sequence(
    graphs: tuple[Graph, ...], row: DegreeSequence | tuple[int, ...]
) -> tuple[Graph, ...]:
    want = row if isinstance(row, DegreeSequence) else DegreeSequence(tuple(row))
    return tuple(g for g in graphs if g.degree_sequence() == want)
