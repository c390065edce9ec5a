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
  Each dual is read off the faces carried with its class (below): one
  vertex per face, one edge across each edge.  These are the faces of
  every embedding, so no class is tested or embedded again.  The
  catalog reads every pair, each class and its dual with their
  certificates, from the same cached pairing (``_dual_pairs``).

Each class carries its faces, each the bitmask of its vertices, and
nothing is ever embedded or walked.  A polyhedral graph has one
embedding up to mirror image (Whitney), so its faces are fixed as
vertex sets, with no orientation.  A face is an induced cycle, since
the ends of a chord would cut the graph, so an edge ab lies on exactly
two faces, the only two that hold both a and b.
K4's faces are its four triangles, a split builds its faces from its
parent's (below), deleting ab merges the two faces beside it and keeps
the rest, and a new class relabels its faces by its canonical
labelling.  One search per child gives its certificate, its labelling
and its automorphisms, and only a child of a new class is relabelled.

Most children, of a split or of a deletion, are isomorphic to a child
of another parent, so a child is canonically labelled only when the
step that made it is a best way back (canonical construction path
acceptance, after McKay, *Isomorph-free exhaustive generation*, 1998;
plantri applies it to vertex splitting, Brinkmann & McKay, *Fast
generation of planar graphs*, 2007).  Both rules score a vertex pair by
f(x, y) = (d(x) + d(y), min(d(x), d(y))), compared lexicographically,
which reads degrees only and so is invariant under isomorphism.

Splitting.  The neighbours of a vertex v of a triangulation t form a
cycle r, its ring, read off the triangles through v, each of which
joins two consecutive ones.  For i < j, the split at (v, i, j) replaces
v by an edge v-p: v keeps the triangles of the arc r[i..j], p takes
those of the arc r[j..i], and the arc ends r[i] and r[j], each on a new
triangle with v and p, become their common neighbours.  An edge xy of a
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
  the merged vertex to a vertex v of t, its faces to the faces of t and
  so its ring to the ring r of v, and the two common neighbours of x
  and y to two entries r[i], r[j], which cut r into the neighbours of x
  and those of y.  The split at (v, i, j) is S up to swapping x and y,
  as (v, i, j) ranges over every arc pair of every vertex, and vp is
  the image of xy.  Contractibility and f are
  invariant under isomorphism, so vp is a best contractible edge of the
  split and S is found.

Deletion.  For a polyhedral h let C(h) be the pairs {x, y} that are
non-adjacent in h and lie on a common face; h + xy is then planar and
3-connected, so every pair of C(h) leads back to a polyhedral parent.
Ties in f are settled by a second invariant, the tie key t(x, y): the
unordered pair of the sorted lists of the degrees of the neighbours of
x and of y in h, the greater list first, compared lexicographically.
The child h = g - ab is accepted iff (f, t)(a, b) is the maximum of
(f, t) over C(h), lexicographically; t is read only when some other
pair of C(h) ties with ab on f.  The child is rejected outright when a
or b has degree 3 in g, since h then has a vertex of degree 2.

* Sound: accepted children pass the face test, so nothing that is not
  polyhedral gets in.
* Complete: let H be a class with q edges and xy a pair of C(H) with
  the largest (f, t).  H + xy is polyhedral with q + 1 edges, so by
  induction it is isomorphic to some parent g of the level above, and
  the isomorphism takes xy to an edge ab of g with g - ab isomorphic to
  H.  The faces of a polyhedral graph, and with them C, f and t, are
  invariant under isomorphism (Whitney): (f, t)(a, b) is the maximum
  over C(g - ab), and H is found.

One step per orbit.  Each class carries automorphisms, those its
canonical search kept, in its canonical labels.  Splits are made at one
vertex of each orbit of the group they generate, and deletions of one
edge of each orbit of edges.  An automorphism maps the splits at v onto
those at its image and g - ab onto g minus the image of ab, so steps in
one orbit give isomorphic children; both rules read invariants only,
so they accept all of them or none.  Dropping all but one loses no
class.  Only that each carried permutation is an automorphism matters:
a subgroup of Aut(g) has smaller orbits, which skips fewer repeats but
keeps the proofs above as they stand.

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
canonical graphs with that certificate, so the output does not depend
on which child reached a class first.  The automorphisms a class
carries do, but they decide only which repeats are skipped.

On every CPU.  A level, of splits or of deletions, is cut into
contiguous chunks of ``_CHUNK`` parents, and the duals of a cell into
contiguous chunks of its classes.  The chunks form a queue: the caller
and a forked child per other CPU the process may run on each take the
next chunk whenever they finish one (``_chunked``), so a side that runs
slower takes fewer chunks and no side waits long for another.  No
parent's children depend on another parent's, since every accepted
child is searched whether its class is filed or not.  So each chunk
files its children first-wins in parent order, and merging the chunks
in index order, whoever ran them, first-wins again, files every class
from the same child, with the same faces and automorphisms, as one pass
over all the parents would; the duals come back in class order.  The
output is byte for byte that of the serial pass.  With one CPU, without
fork, in a process with other threads, or with one chunk, the work runs
in-process as one chunk, through the same code.

The deletion check is cheap because deletion only lowers degrees: the
faces of g are read once per parent, and its pairs C(g) are sorted by
score in g.  Deleting ab merges the two faces on either side of ab and
leaves every other face as it was, so C(g - ab) is C(g), the pair
{a, b} and the pairs across the two merged faces.  Only pairs that
touch a or b score lower in the child, so the scan of C(g) stops at the
first pair whose score in g is lower than f(a, b), and the pairs it
passes that score f(a, b) in the child are the ties.

The tests check this census against a direct filtration of all graphs
of the right order and size, which shares no generation machinery.
"""

from __future__ import annotations

import marshal
import os
import sys
import threading
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from functools import cache, partial
from itertools import combinations
from operator import itemgetter
from typing import TypeVar

from .duality import _face_graph, _faces_through
from .graphs import DegreeSequence, Graph, bits, complete
from .isomorphism import _certificate, _labelled_search

MAX_ENUM_ORDER = 9

_Faces = tuple[int, ...]  # one vertex bitmask per face
_Gens = tuple[tuple[int, ...], ...]  # automorphisms (v -> image)
# a class, its certificate, its faces, some automorphisms
_Class = tuple[Graph, bytes, _Faces, _Gens]
_Classes = tuple[_Class, ...]
_Entry = tuple[tuple[int, ...], _Faces, _Gens]  # a class as canonical rows
_R = TypeVar("_R")

# the CPUs this process may run on; one where it cannot tell or fork
_CPUS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
    else 1
)
# the items in a chunk of a level's queue, grown on long levels so that
# a call writes at most 255 one-byte tokens
_CHUNK = 8


def order_bounds(q: int) -> tuple[int, int]:
    """Inclusive order window for polyhedral graphs with q edges.

    Lower end from q <= 3p - 6, upper end from minimum degree 3; the
    window may be empty (q = 7 admits no polyhedral graph).
    """
    if q < 6:
        raise ValueError("no polyhedral graph has fewer than 6 edges")
    return (q + 8) // 3, 2 * q // 3


def _score(dx: int, dy: int) -> int:
    """(dx + dy, min(dx, dy)) packed into one int; degrees are below 16."""
    return (dx + dy) << 4 | min(dx, dy)


def _relabelled(faces: _Faces, perm: tuple[int, ...]) -> _Faces:
    """Faces relabelled by ``perm`` (old vertex -> new)."""
    return tuple(sum(1 << perm[x] for x in bits(f)) for f in faces)


def _orbit(mask: int, gens: _Gens) -> set[int]:
    """The images of the vertex set ``mask`` under the group that the
    automorphisms ``gens`` generate."""
    orbit = {mask}
    todo = [mask]
    while todo:
        m = todo.pop()
        for g in gens:
            image = sum(1 << g[x] for x in bits(m))
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def _keep(found: dict[bytes, _Entry], h: Graph, faces: _Faces) -> None:
    """File the child ``h`` with ``faces`` under its certificate, relabelled
    canonically, with its automorphisms, unless its class is in ``found``."""
    cf, label, gens = _labelled_search(h)
    if cf.certificate not in found:
        found[cf.certificate] = (h.relabel(label).adj, _relabelled(faces, label), gens)


def _classes(found: dict[bytes, _Entry]) -> _Classes:
    """The classes filed in ``found``, sorted by certificate."""
    return tuple(
        (Graph._derived(len(rows), rows), c, faces, gens)
        for c, (rows, faces, gens) in sorted(found.items())
    )


def _may_fork() -> bool:
    """Whether work may go to forked children: more than one CPU, and no
    other thread, since a forked child could wait forever on a lock that
    one of them held."""
    return _CPUS > 1 and threading.active_count() == 1


@contextmanager
def _forked(works: Sequence[Callable[[], _R]]) -> Iterator[list[_R]]:
    """Run each of ``works`` in a forked child while the block runs; the
    list yielded holds what they returned, in order, once it is left.

    A child sends its result back through a pipe with marshal, so a work
    returns ints, bytes, tuples and dicts of them, and leaves by
    ``os._exit`` whatever happens, so it never returns into the caller's
    code.  Every child is reaped before the block is left; a child that
    fails raises ChildProcessError, unless the block raised first.
    """
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    sent: list[_R] = []
    raw: list[bytes] = []
    try:
        for work in works:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    with open(w, "wb") as out:
                        out.write(marshal.dumps(work()))
                    code = 0
                except BaseException:
                    sys.excepthook(*sys.exc_info())
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, r))
        yield sent
        for _, r in children:
            with open(r, "rb", closefd=False) as src:
                raw.append(src.read())
    finally:
        failed = []
        for pid, r in children:
            os.close(r)
            status = os.waitpid(pid, 0)[1]
            if status:
                failed.append(os.waitstatus_to_exitcode(status))
    if failed:
        raise ChildProcessError(f"work failed in a child process: {failed}")
    sent.extend(map(marshal.loads, raw))


def _chunked(work: Callable[[tuple], _R], items: tuple) -> list[_R]:
    """``work`` of each contiguous chunk of ``items``, in order: chunks of
    ``_CHUNK`` items, or of more where that would make over 255, or all
    of them in one where there is one chunk or the process may not fork.

    The chunks form a queue, one byte per chunk index in a pipe, which
    the caller and a forked child per other CPU, through ``_forked``,
    drain a byte at a time, so a side that runs faster takes more of
    them.  Each side returns {index: result}, and the results come back
    in index order.  ``classify.solve_question`` uses ``_forked`` too,
    for the order-9 bound; so ``work`` returns what marshal sends.
    """
    size = max(_CHUNK, -(-len(items) // 255))
    n = -(-len(items) // size)
    if n < 2 or not _may_fork():
        return [work(items)]
    r, w = os.pipe()
    try:
        # at most 255 bytes, under PIPE_BUF, so the write cannot block;
        # with the write end closed, a read of the drained pipe gives b""
        os.write(w, bytes(range(n)))
    finally:
        os.close(w)

    def take() -> dict[int, _R]:
        done = {}
        while token := os.read(r, 1):
            i = token[0]
            done[i] = work(items[i * size : (i + 1) * size])
        return done

    try:
        with _forked([take] * (min(_CPUS, n) - 1)) as sent:
            done = take()
    finally:
        os.close(r)
    for theirs in sent:
        done.update(theirs)
    return [done[i] for i in range(n)]


def _children(step: Callable, parents: _Classes) -> dict[bytes, _Entry]:
    """The classes one ``step`` below ``parents``, filed by ``_keep`` in the
    order the parents reach them."""
    found: dict[bytes, _Entry] = {}
    for g, _, faces, gens in parents:
        for h, child_faces in step(g, faces, gens):
            _keep(found, h, child_faces)
    return found


def _level(step: Callable, parents: _Classes) -> _Classes:
    """(class, its certificate, faces, ...) for every class one ``step``
    below ``parents``, a split or a deletion, canonical and sorted."""
    found: dict[bytes, _Entry] = {}
    # first wins within each chunk and across the chunks in order, as
    # over the parents in one pass
    for chunk in _chunked(partial(_children, step), parents):
        for c, entry in chunk.items():
            found.setdefault(c, entry)
    return _classes(found)


# ---------------------------------------------------------------------------
# maximal planar graphs by vertex splitting

def _ring(faces: _Faces, v: int) -> list[int]:
    """The neighbours of v in cyclic order, read off the triangles
    through v, each of which joins two consecutive ones."""
    link: dict[int, int] = {}
    for f in faces:
        if f >> v & 1:
            a, b = bits(f ^ 1 << v)
            link[a] = link.get(a, 0) | 1 << b
            link[b] = link.get(b, 0) | 1 << a
    ring = [next(iter(link))]
    x = link[ring[0]].bit_length() - 1
    while x != ring[0]:
        ring.append(x)
        x = (link[x] ^ 1 << ring[-2]).bit_length() - 1
    return ring


def _split(faces: _Faces, v: int, ring: list[int], i: int, j: int) -> _Faces:
    """Faces after replacing v by an edge v-p in a triangulation on p
    vertices.

    v keeps the triangles of the arc ring[i..j], p takes those of the
    arc ring[j..i], and the arc ends ring[i] and ring[j] each gain a
    triangle on vp.
    """
    # a triangulation on p vertices has 2p - 4 faces
    vb, pb = 1 << v, 1 << len(faces) // 2 + 2
    out = [f for f in faces if not f & vb]
    for k, x in enumerate(ring):
        out.append((vb if i <= k < j else pb) | 1 << x | 1 << ring[k + 1 - len(ring)])
    out += [vb | pb | 1 << ring[i], vb | pb | 1 << ring[j]]
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


def _accepted_splits(t: Graph, faces: _Faces, gens: _Gens):
    """(split, its faces) for the splits of the triangulation t with
    ``faces`` whose new edge is a best contractible edge, at one vertex
    of each orbit of its automorphisms ``gens``."""
    p = t.p
    seen: set[int] = set()
    for v in range(p):
        if 1 << v in seen:
            continue
        seen |= _orbit(1 << v, gens)
        ring = _ring(faces, v)
        for i, j in combinations(range(len(ring)), 2):
            split = _split(faces, v, ring, i, j)
            rows = [0] * (p + 1)
            for f in split:
                for x in bits(f):
                    rows[x] |= f ^ 1 << x
            if _best_contractible(rows, v, p):
                yield Graph._derived(p + 1, tuple(rows)), split


@cache
def _embedded_triangulations(p: int) -> _Classes:
    """(class, its certificate, faces, ...) for every maximal planar graph
    on p vertices, canonical and sorted."""
    if not 4 <= p <= MAX_ENUM_ORDER:
        raise ValueError(f"supported orders are 4..{MAX_ENUM_ORDER}")
    if p == 4:
        # K4 is its own canonical graph; its faces are its four triangles,
        # and it carries no automorphisms, which skips no repeat
        k4 = complete(4)
        cert = _certificate(k4, tuple(range(4))).certificate
        return ((k4, cert, tuple(15 ^ 1 << v for v in range(4)), ()),)
    return _level(_accepted_splits, _embedded_triangulations(p - 1))


def triangulations(p: int) -> tuple[Graph, ...]:
    """All maximal planar graphs on p vertices, canonical, sorted."""
    return tuple(t for t, _, _, _ in _embedded_triangulations(p))


# ---------------------------------------------------------------------------
# full census per order, by edge deletion

def _outscored(
    pairs: list[tuple[int, int, int]],
    deg: list[int],
    a: int,
    b: int,
    best: int,
    ties: list[tuple[int, int]],
) -> bool:
    """Whether a pair of C(g), scored in g - ab, beats ``best``; the
    pairs that score ``best`` in g - ab are appended to ``ties``.

    ``pairs`` holds (score in g, x, y), highest first; a score only
    falls on deletion, and only for pairs that touch a or b.
    """
    for s, x, y in pairs:
        if s < best:
            return False
        if x == a or x == b or y == a or y == b:
            s = _score(deg[x] - (x == a or x == b), deg[y] - (y == a or y == b))
        if s > best:
            return True
        if s == best:
            ties.append((x, y))
    return False


def _wins_ties(
    adj: tuple[int, ...], deg: list[int], a: int, b: int, ties: list[tuple[int, int]]
) -> bool:
    """Whether ab has the greatest tie key among ``ties``, the pairs of
    C(g - ab) other than ab that score as well as it does.

    The tie key of a pair {x, y} is the unordered pair of the sorted
    degree lists of the neighbours of x and of y, read in g - ab.
    """
    lost = 1 << a | 1 << b
    dh = deg[:]
    dh[a] -= 1
    dh[b] -= 1
    lists: dict[int, list[int]] = {}

    def key(x: int, y: int) -> tuple[list[int], list[int]]:
        for z in (x, y):
            if z not in lists:
                row = adj[z] & ~lost if z == a or z == b else adj[z]
                lists[z] = sorted(dh[u] for u in bits(row))
        lx, ly = lists[x], lists[y]
        return (lx, ly) if lx >= ly else (ly, lx)

    mine = key(a, b)
    return all(key(x, y) <= mine for x, y in ties)


def _keeps_3_connected(on: list[int], left: int, right: int) -> bool:
    """The face test: whether g - ab is 3-connected, for a polyhedral g
    with the faces through each vertex in ``on`` and the vertex masks of
    the faces either side of ab, less a and b, in ``left`` and ``right``."""
    lo = hi = 0
    for x in bits(left):
        lo |= on[x]
    for y in bits(right):
        hi |= on[y]
    return not lo & hi


def _accepted_deletions(g: Graph, faces: _Faces, gens: _Gens):
    """(g - ab, its faces) for the edges ab of g, a and b of degree at
    least 4, such that g - ab is 3-connected and ab scores best among
    the pairs C(g - ab), with the greatest tie key among those that
    score as well, for one edge of each orbit of the automorphisms
    ``gens``; ``faces`` are those of the polyhedral g."""
    adj = g.adj
    deg = [row.bit_count() for row in adj]
    on = _faces_through(faces, g.p)
    # in a 3-connected plane graph two faces meet in at most an edge, so
    # a non-adjacent pair lies on one face at most
    pairs = sorted(
        (
            (_score(deg[x], deg[y]), x, y)
            for f in faces
            for x, y in combinations(bits(f), 2)
            if not adj[x] >> y & 1
        ),
        reverse=True,
    )
    seen: set[int] = set()
    for a, b in g.edges():
        if deg[a] < 4 or deg[b] < 4:
            continue
        best = _score(deg[a] - 1, deg[b] - 1)
        ties: list[tuple[int, int]] = []
        if _outscored(pairs, deg, a, b, best, ties):
            continue
        # the faces either side of ab are the only two that hold both a
        # and b, since faces are induced cycles; they merge, and share
        # only a and b
        both = on[a] & on[b]
        k, m = (both & -both).bit_length() - 1, both.bit_length() - 1
        ab = 1 << a | 1 << b
        left, right = faces[k] & ~ab, faces[m] & ~ab
        if not _keeps_3_connected(on, left, right):
            continue
        # the pairs across the merged face, which touch neither a nor b
        across = [
            (_score(deg[x], deg[y]), x, y)
            for x in bits(left)
            for y in bits(right)
            if not adj[x] >> y & 1
        ]
        if any(s > best for s, _, _ in across):
            continue
        ties += [(x, y) for s, x, y in across if s == best]
        if ties and not _wins_ties(adj, deg, a, b, ties):
            continue
        # the deletions of edges in one orbit of automorphisms give one
        # class, and the rule accepts all of them or none
        if ab in seen:
            continue
        seen |= _orbit(ab, gens)
        merged = faces[:k] + (faces[k] | faces[m],) + faces[k + 1 : m] + faces[m + 1 :]
        yield g.remove_edge(a, b), merged


@cache
def _embedded_census(p: int) -> dict[int, _Classes]:
    """q -> (class, its certificate, faces, ...), for every feasible size
    at order p from 3p - 6 down to the self-dual line q = 2p - 2; the
    sizes below are served by the dual side."""
    out = {3 * p - 6: _embedded_triangulations(p)}
    for q in range(3 * p - 7, 2 * p - 3, -1):
        out[q] = _level(_accepted_deletions, out[q + 1])
    return out


def _duals(classes: _Classes) -> tuple[tuple[bytes, tuple[int, ...]], ...]:
    """(certificate, canonical rows) of the dual of each of ``classes``,
    read off the carried faces."""
    out = []
    for h, _, faces, _ in classes:
        d = _face_graph(h, faces)
        cf, label, _ = _labelled_search(d)
        out.append((cf.certificate, d.relabel(label).adj))
    return tuple(out)


@cache
def _dual_pairs(r: int, q: int) -> tuple[tuple[Graph, bytes, bytes, Graph], ...]:
    """(class, its certificate, its dual's certificate, its dual's
    canonical graph) for every class of the cell (r, q) of the direct
    descent, r <= q - r + 2, in class order."""
    classes = _embedded_census(r)[q]
    duals = [d for chunk in _chunked(_duals, classes) for d in chunk]
    return tuple(
        (h, c, dc, Graph._derived(len(rows), rows))
        for (h, c, _, _), (dc, rows) in zip(classes, duals)
    )


def enumerate_polyhedra(p: int, q: int) -> tuple[Graph, ...]:
    """All polyhedral graphs with p vertices and q edges, up to isomorphism.

    Returns () outside the feasible region.  Orders are supported as
    long as p or the dual order q - p + 2 is at most MAX_ENUM_ORDER.
    """
    if q < 6 or q > 3 * p - 6 or 2 * q < 3 * p:
        return ()
    r = q - p + 2
    if min(p, r) > MAX_ENUM_ORDER:
        raise ValueError(
            f"feasible, but p={p} and q-p+2={r} both exceed {MAX_ENUM_ORDER}"
        )
    if r < p:
        return tuple(d for *_, d in sorted(_dual_pairs(r, q), key=itemgetter(2)))
    return tuple(g for g, _, _, _ in _embedded_census(p)[q])


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
    want = DegreeSequence(row)
    return tuple(g for g in graphs if g.degree_sequence() == want)
