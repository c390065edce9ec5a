"""Census of polyhedral graphs within order and size bounds.

Production route, per order p:

* maximal planar graphs (q = 3p - 6), the triangulations, are generated
  by splitting a vertex of a smaller one, starting from K4 (below),
* sparser sizes follow by deleting one edge at a time, keeping only
  3-connected results, read off the faces of the parent (the face test,
  below); the child graph is built only for deletions that pass.  This
  reaches everything: a polyhedral graph below the maximum size has a
  face of length at least four, two interleaved chords of that face
  cannot both be drawn in the disc outside it, so some chord is absent
  and can be added, and repeating climbs to a maximal planar graph
  through polyhedral graphs.  The descent stops at the self-dual line
  q = 2p - 2,
* when the dual order q - p + 2 is smaller than p, below the line, the
  census is built on the dual side and dualized back, which is a
  bijection on classes.
  Each dual is read off the rotation system carried with its class
  (below): one vertex per face, one edge across each edge.  A
  polyhedral graph has one embedding up to mirror image (Whitney), so
  these faces give the same dual class as any other embedding would,
  and no class is tested or embedded again.  The catalog reads its
  duals from the same cached pairing.

Each class carries a rotation system, and nothing is ever embedded:
K4's is written down, a split builds its rotations from its parent's,
the rotations of h = g - ab are those of g with b dropped at a and a
dropped at b, and a new class relabels them by its canonical labelling.

Most children, of a split or of a deletion, are isomorphic to a child
of another parent, so a child is canonically labelled only when the
step that made it is a best way back (canonical construction path
acceptance, after McKay, *Isomorph-free exhaustive generation*, 1998;
plantri applies it to vertex splitting, Brinkmann & McKay, *Fast
generation of planar graphs*, 2007).  Both rules score a vertex pair by
f(x, y) = (d(x) + d(y), min(d(x), d(y))), compared lexicographically,
which reads degrees only and so is invariant under isomorphism.

Splitting.  For the rotation r of a vertex v of a triangulation t and
i < j, the split at (v, i, j) replaces v by an edge v-p: v keeps the
arc r[i..j], p takes the arc r[j..i], and the arc ends r[i] and r[j]
become the common neighbours of v and p.  An edge xy of a
triangulation is contractible when x and y have exactly two common
neighbours, so that xy lies on no separating triangle; contracting it
gives a triangulation with one vertex fewer.  The new edge vp is
contractible, and contracting it gives t back.  The split s is
accepted iff f(v, p) is the maximum of f over the contractible edges
of s.

* Sound: every split of a triangulation is a triangulation.
* Complete: every triangulation S on at least five vertices has a
  contractible edge; let xy be one with the largest score.  Contracting
  it gives a triangulation T on one vertex fewer, so by induction T is
  isomorphic to a class t of the order below.  The isomorphism takes
  the merged vertex to a vertex v of t, and the two common neighbours
  of x and y to two entries r[i], r[j] of the rotation at v, which cut
  it into the neighbours of x and those of y: t is 3-connected, so its
  carried embedding is that of T up to mirror image (Whitney), and a
  mirror image only reverses the rotation.  The split at (v, i, j) is
  S up to swapping x and y, as (v, i, j) ranges over every arc pair of
  every vertex, and vp is the image of xy.  Contractibility and f are
  invariant under isomorphism, so vp is a best contractible edge of the
  split and S is found.

Deletion.  For a polyhedral h let C(h) be the pairs {x, y} that are
non-adjacent in h and lie on a common face; h + xy is then planar and
3-connected, so every pair of C(h) leads back to a polyhedral parent.
The child h = g - ab is accepted iff f(a, b) is the maximum of f over
C(h); it is rejected outright when a or b has degree 3 in g, since h
then has a vertex of degree 2.

* Sound: accepted children pass the face test, so nothing that is not
  polyhedral gets in.
* Complete: let H be a class with q edges and xy a pair of C(H) with
  the largest score.  H + xy is polyhedral with q + 1 edges, so by
  induction it is isomorphic to some parent g of the level above, and
  the isomorphism takes xy to an edge ab of g with g - ab isomorphic to
  H.  A 3-connected planar graph has one embedding up to mirror image
  (Whitney), so its faces, and with them C and f, are invariant under
  isomorphism: f(a, b) is the maximum over C(g - ab), and H is found.

Face test.  Let ab lie between the faces F1 and F2 of the polyhedral g.
Then g - ab is 3-connected iff no face of g other than F1 and F2 holds
both a vertex of F1 - {a, b} and a vertex of F2 - {a, b}.  If a face
holds such x and y, a closed curve through it and the merged face meets
g - ab only in x and y and separates a from b.  If {x, y} cuts g - ab,
it separates a from b, since g - {x, y} is connected; in the plane
graph g - ab a closed curve through two faces then meets it only in x
and y.  One face is the merged one, or the curve would cut g, so x and
y lie on opposite a-b paths of its boundary; the other face is a face
of g other than F1 and F2.  As F1 and F2 share only a and b, the test
is one bitmask of faces per vertex, ORed over each side.

For both rules, classes are keyed by certificate and stored as their
canonical graphs, so the output does not depend on which child reached
a class first.

The deletion check is cheap because deletion only lowers degrees: the
faces of g are walked once per parent, and its pairs C(g) are sorted by
score in g.  Deleting ab merges the two faces on either side of ab and
leaves every other face as it was, so C(g - ab) is C(g), the pair
{a, b} and the pairs across the two merged faces.  Only pairs that
touch a or b score lower in the child, so the scan of C(g) stops at the
first pair whose score in g is no higher than f(a, b).

The tests check this census against a direct filtration of all graphs
of the right order and size, which shares no generation machinery.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import TypeVar

from .duality import _face_graph
from .graphs import DegreeSequence, Graph, bits, complete, face_walks
from .isomorphism import (
    CanonicalForm,
    canonical_form,
    canonical_graph,
    canonical_labeling,
)

MAX_ENUM_ORDER = 9

_Rotations = tuple[tuple[int, ...], ...]
_Classes = tuple[tuple[Graph, _Rotations], ...]  # (class, its rotations)
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


def _score(dx: int, dy: int) -> int:
    """(dx + dy, min(dx, dy)) packed into one int; degrees are below 16."""
    return (dx + dy) << 4 | min(dx, dy)


# ---------------------------------------------------------------------------
# maximal planar graphs by vertex splitting

# K4, its own canonical graph, drawn in the plane
_K4_ROTATIONS: _Rotations = ((1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2))


def _split(rot: _Rotations, v: int, i: int, j: int) -> _Rotations:
    """Rotations after replacing v by an edge v-p, where p = len(rot).

    v keeps the arc rot[v][i..j] and p takes the arc rot[v][j..i]; the
    two arc ends, on both arcs, gain p beside v, and the vertices inside
    p's arc see p where they saw v.
    """
    r = rot[v]
    p = len(rot)
    out = list(rot)
    out[v] = r[i : j + 1] + (p,)
    out.append(r[j:] + r[: i + 1] + (v,))
    for u in r[j + 1 :] + r[:i]:
        k = rot[u].index(v)
        out[u] = rot[u][:k] + (p,) + rot[u][k + 1 :]
    # p lies on the side of r[i - 1] at r[i] and of r[j + 1] at r[j]
    a, b = r[i], r[j]
    k = rot[a].index(v) + 1
    out[a] = rot[a][:k] + (p,) + rot[a][k:]
    k = rot[b].index(v)
    out[b] = rot[b][:k] + (p,) + rot[b][k:]
    return tuple(out)


def _best_contractible(adj: list[int], x: int, y: int) -> bool:
    """Whether no contractible edge of a triangulation outscores xy.

    An edge is contractible when its ends have exactly two common
    neighbours, so that it lies on no separating triangle.
    """
    deg = [row.bit_count() for row in adj]
    best = _score(deg[x], deg[y])
    for a, row in enumerate(adj):
        for b in bits(row & ~((2 << a) - 1)):
            if _score(deg[a], deg[b]) > best and (adj[a] & adj[b]).bit_count() == 2:
                return False
    return True


def _accepted_splits(rot: _Rotations):
    """(rotations, adjacency rows) of the splits of the triangulation
    embedded by ``rot`` whose new edge is a best contractible edge."""
    p = len(rot)
    for v, r in enumerate(rot):
        for i, j in combinations(range(len(r)), 2):
            split = _split(rot, v, i, j)
            rows = [sum(1 << u for u in nbrs) for nbrs in split]
            if _best_contractible(rows, v, p):
                yield split, rows


def _relabelled(
    rot: _Rotations, perm: tuple[int, ...], a: int = -1, b: int = -1
) -> _Rotations:
    """Rotations relabelled by ``perm`` (old vertex -> new), without the
    edge ab when one is given."""
    out: list[tuple[int, ...]] = [()] * len(rot)
    for v, r in enumerate(rot):
        gone = b if v == a else a if v == b else -1
        out[perm[v]] = tuple(perm[u] for u in r if u != gone)
    return tuple(out)


@cache
def _embedded_triangulations(p: int) -> _Classes:
    """(class, its rotation system) for every maximal planar graph on p
    vertices, canonical and sorted."""
    if not 4 <= p <= MAX_ENUM_ORDER:
        raise ValueError(f"supported orders are 4..{MAX_ENUM_ORDER}")
    if p == 4:
        return ((canonical_graph(complete(4)), _K4_ROTATIONS),)
    found: dict[CanonicalForm, tuple[Graph, _Rotations]] = {}
    for _, rot in _embedded_triangulations(p - 1):
        for split, adj in _accepted_splits(rot):
            s = Graph._derived(p, tuple(adj))
            cf = canonical_form(s)
            if cf not in found:
                perm = canonical_labeling(s)
                found[cf] = (canonical_graph(s), _relabelled(split, perm))
    return _sorted_classes(found)


@cache
def triangulations(p: int) -> tuple[Graph, ...]:
    """All maximal planar graphs on p vertices, canonical, sorted."""
    return tuple(t for t, _ in _embedded_triangulations(p))


# ---------------------------------------------------------------------------
# full census per order, by edge deletion

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


def _faces_through(faces: list[list[int]], p: int) -> list[int]:
    """For each vertex, the bitmask of the faces that pass through it."""
    on = [0] * p
    for k, f in enumerate(faces):
        for x in f:
            on[x] |= 1 << k
    return on


def _keeps_3_connected(on: list[int], left: list[int], right: list[int]) -> bool:
    """The face test: whether g - ab is 3-connected, for a polyhedral g
    with the faces through each vertex in ``on`` and the faces either
    side of ab, less a and b, in ``left`` and ``right``."""
    lo = hi = 0
    for x in left:
        lo |= on[x]
    for y in right:
        hi |= on[y]
    return not lo & hi


def _accepted_deletions(g: Graph, rot: _Rotations):
    """Edges ab of g, a and b of degree at least 4, such that g - ab is
    3-connected and ab scores best among the pairs C(g - ab); ``rot``
    embeds the 3-connected g."""
    adj = g.adj
    deg = [len(r) for r in rot]
    faces, face_of = face_walks(rot)
    on = _faces_through(faces, g.p)
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
        left = [x for x in faces[face_of[a * g.p + b]] if x != a and x != b]
        right = [y for y in faces[face_of[b * g.p + a]] if y != a and y != b]
        if _keeps_3_connected(on, left, right) and not any(
            not adj[x] >> y & 1 and _score(deg[x], deg[y]) > best
            for x in left
            for y in right
        ):
            yield a, b


def _deletion_level(parents: _Classes) -> _Classes:
    """(class, its rotation system) for every polyhedral graph one edge
    below the cell whose classes are ``parents``, canonical and sorted."""
    found: dict[CanonicalForm, tuple[Graph, _Rotations]] = {}
    for g, rot in parents:
        for a, b in _accepted_deletions(g, rot):
            h = g.remove_edge(a, b)
            cf = canonical_form(h)
            if cf not in found:
                perm = canonical_labeling(h)
                found[cf] = (canonical_graph(h), _relabelled(rot, perm, a, b))
    return _sorted_classes(found)


@cache
def _embedded_census(p: int) -> dict[int, _Classes]:
    """q -> (class, its rotation system), for every feasible size at order
    p from 3p - 6 down to the self-dual line q = 2p - 2; the sizes below
    are served by the dual side."""
    out = {3 * p - 6: _embedded_triangulations(p)}
    for q in range(3 * p - 7, 2 * p - 3, -1):
        out[q] = _deletion_level(out[q + 1])
    return out


@cache
def _census_by_order(p: int) -> dict[int, tuple[Graph, ...]]:
    """q -> classes, for every size at order p down to q = 2p - 2."""
    return {
        q: tuple(g for g, _ in classes)
        for q, classes in _embedded_census(p).items()
    }


@cache
def _dual_pairs(r: int, q: int) -> tuple[tuple[Graph, CanonicalForm, Graph], ...]:
    """(class, its dual's certificate, its dual's canonical graph) for
    every class of the cell (r, q) of the direct descent, the dual read
    off the carried rotation system."""
    out = []
    for h, rot in _embedded_census(r)[q]:
        d = _face_graph(h, face_walks(rot)[0])
        # both calls share one cached canonical labelling of d
        out.append((h, canonical_form(d), canonical_graph(d)))
    return tuple(out)


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
        return _sorted_classes({c: d for _, c, d in _dual_pairs(r, q)})
    return _census_by_order(p)[q]


def _dual_certificates(p: int, q: int) -> dict[Graph, CanonicalForm]:
    """class -> certificate of its dual, for every class of the cell
    (p, q); raises ValueError where ``enumerate_polyhedra`` does."""
    if not enumerate_polyhedra(p, q):
        return {}
    r = q - p + 2
    if r < p:
        # duality is an involution: the classes here are the duals
        return {d: canonical_form(h) for h, _, d in _dual_pairs(r, q)}
    return {h: c for h, c, _ in _dual_pairs(p, q)}


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
