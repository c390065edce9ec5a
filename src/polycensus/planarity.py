"""Planarity testing and combinatorial embeddings.

One helper, ``_plane``, answers planarity and faces together: it runs
the block search once and builds an explicit embedding of each block
face by face (insert one fragment path at a time, always handling a
fragment with the fewest admissible faces first), on vertex bitmasks.
It returns the faces, each a vertex walk in a normal form, when the
graph is 2-connected.  ``is_planar`` and ``embed`` read it, and so
does ``duality._polyhedral``, which serves ``dual``, ``is_polyhedral``,
``check`` and the complement scan: their input is embedded once, and
the faces, read as vertex sets, give 3-connectivity and the dual.
The tests check planarity against a direct search for a K5 or K3,3
subdivision that knows nothing about embeddings, and the faces against
the plain embedder this one replaced.
"""

from __future__ import annotations

from collections.abc import Iterator

from .graphs import Graph, bits


class NonPlanarGraphError(ValueError):
    """Raised when an embedding is requested for a non-planar graph."""


# ---------------------------------------------------------------------------
# block decomposition

def _block_pieces(g: Graph) -> list[tuple[list[int], list[int]]]:
    """Blocks on three or more vertices as (vertices, rows), ``rows[v]``
    the neighbours of v in the block; bridges are planar and left out."""
    p, adj = g.p, g.adj
    index = [-1] * p
    stack: list[tuple[int, int]] = []
    pieces = []
    counter = 0

    def dfs(v: int, parent: int) -> int:
        """The low point of v: the least index that v's subtree reaches
        with at most one back edge."""
        nonlocal counter
        index[v] = least = counter
        counter += 1
        for u in bits(adj[v]):
            if u == parent:
                continue
            if index[u] >= 0:
                if index[u] < index[v]:
                    stack.append((v, u))
                    least = min(least, index[u])
                continue
            stack.append((v, u))
            low_u = dfs(u, v)
            least = min(least, low_u)
            if low_u >= index[v]:
                rows = [0] * p
                edges = 0
                while True:
                    a, b = stack.pop()
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
                    edges += 1
                    if (a, b) == (v, u):
                        break
                if edges > 1:
                    pieces.append(([x for x in range(p) if rows[x]], rows))
        return least

    for s in range(p):
        if index[s] < 0:
            dfs(s, -1)
    return pieces


# ---------------------------------------------------------------------------
# path-insertion embedder for one 2-connected block

def _find_cycle(vs: list[int], adj: list[int]) -> list[int]:
    """Any cycle of a graph with min degree >= 2, as a vertex list."""
    start = vs[0]
    parent = [-1] * len(adj)
    seen = 1 << start
    order = [start]
    for x in order:
        for y in bits(adj[x]):
            if not seen >> y & 1:
                seen |= 1 << y
                parent[y] = x
                order.append(y)
            elif y != parent[x]:
                # back or cross edge: join the two tree paths
                px = [x]
                while px[-1] != start:
                    px.append(parent[px[-1]])
                py = [y]
                while py[-1] != start:
                    py.append(parent[py[-1]])
                meet = next(v for v in px if v in py)
                cx = px[: px.index(meet) + 1]
                cy = py[: py.index(meet)]
                return cx + cy[::-1]
    raise AssertionError("no cycle in a 2-connected block")


def _fragments(
    adj: list[int], emb: list[int], placed: int, left: int
) -> Iterator[tuple[int, int]]:
    """Pieces of the block not yet embedded, as (attachments, interior)
    vertex masks: chords by (v, u), then components by least vertex."""
    for v in bits(placed):
        for u in bits(adj[v] & ~emb[v] & placed & -(2 << v)):
            yield 1 << v | 1 << u, 0
    while left:
        comp = frontier = left & -left
        att = 0
        while frontier:
            reach = 0
            for x in bits(frontier):
                reach |= adj[x]
            att |= reach & placed
            frontier = reach & left & ~comp
            comp |= frontier
        left &= ~comp
        yield att, comp


def _fragment_path(att: int, comp: int, adj: list[int], placed: int) -> list[int]:
    """A path between two attachments with its interior in ``comp``:
    breadth first from the least attachment, neighbours in ascending
    order, to the least other placed vertex first met."""
    a = (att & -att).bit_length() - 1
    if not comp:
        return [a, att.bit_length() - 1]
    stop = placed & ~(1 << a)
    parent = [a] * len(adj)
    seen = adj[a] & comp
    queue = list(bits(seen))
    for x in queue:
        ends = adj[x] & stop
        if ends:
            path = [(ends & -ends).bit_length() - 1, x]
            while path[-1] != a:
                path.append(parent[path[-1]])
            path.reverse()
            return path
        new = adj[x] & comp & ~seen
        seen |= new
        for y in bits(new):
            parent[y] = x
            queue.append(y)
    raise AssertionError("fragment with one attachment in a 2-connected block")


def _embed_block(vs: list[int], adj: list[int]) -> list[tuple[int, ...]]:
    """Face walks of one 2-connected block; raises NonPlanarGraphError.

    Path insertion (Demoucron, Malgrange and Pertuiset): start from a
    cycle, two faces; while an edge is left, find the fragments (each
    chord between placed vertices, and each component of the unplaced
    vertices with its edges to placed ones), take the first fragment
    with the fewest admissible faces (faces that hold all of its
    attachments), and draw a path of it across the lowest-index such
    face, which splits in two.  On a planar block some fragment always
    has an admissible face, and embedding a fragment with exactly one
    is forced.  Each face keeps its vertex mask beside its walk, so a
    face is admissible when ``not att & ~mask``.

    The scan stops at the first fragment with at most one admissible
    face.  On a planar block no fragment has none, so this is the first
    fragment with the fewest, the same choice as a full scan, and the
    faces are the same.  On a non-planar block it may embed a fragment
    with one admissible face before reaching one with none; but a
    fragment that fits no face fits none later: its attachments do not
    change until a path of it is drawn (the vertices placed meanwhile
    come from other fragments, so none is its attachment), and a split
    face gives two faces inside the old one and the new path, whose
    interior it does not touch.  Such a fragment is never drawn, so
    the loop reaches it and the verdict is the same.
    """
    cycle = _find_cycle(vs, adj)
    emb = [0] * len(adj)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        emb[a] |= 1 << b
        emb[b] |= 1 << a
    placed = sum(1 << v for v in cycle)
    left = sum(1 << v for v in vs) & ~placed
    faces: list[tuple[int, ...]] = [tuple(cycle), tuple(reversed(cycle))]
    masks = [placed, placed]
    total = sum(map(int.bit_count, adj)) // 2
    done = len(cycle)

    while done < total:
        best: tuple[int, int] | None = None
        best_faces: list[int] = []
        for att, comp in _fragments(adj, emb, placed, left):
            adm = [i for i, m in enumerate(masks) if not att & ~m]
            if best is None or len(adm) < len(best_faces):
                best, best_faces = (att, comp), adm
                if len(adm) <= 1:
                    break
        assert best is not None
        if not best_faces:
            raise NonPlanarGraphError("a fragment fits in no face")

        path = _fragment_path(*best, adj, placed)
        k = best_faces[0]
        face = faces[k]
        i, j = face.index(path[0]), face.index(path[-1])
        if i < j:
            arc_ab, arc_ba = face[i : j + 1], face[j:] + face[: i + 1]
        else:
            arc_ab, arc_ba = face[i:] + face[: j + 1], face[j : i + 1]
        inner = tuple(path[1:-1])
        mid = sum(1 << x for x in inner)
        ends = 1 << path[0] | 1 << path[-1]
        ab = sum(1 << x for x in arc_ab)
        faces[k] = arc_ab + inner[::-1]
        faces.append(arc_ba + inner)
        masks.append(masks[k] & ~ab | ends | mid)
        masks[k] = ab | mid
        for x, y in zip(path, path[1:]):
            emb[x] |= 1 << y
            emb[y] |= 1 << x
        done += len(path) - 1
        placed |= mid
        left &= ~mid

    # each dart on one face glues the faces into a closed surface, and
    # Euler characteristic 2 makes it the sphere
    darts = {(f[k - 1], f[k]) for f in faces for k in range(len(f))}
    assert sum(map(len, faces)) == len(darts) == 2 * total
    assert len(faces) == total - len(vs) + 2
    return faces


# ---------------------------------------------------------------------------
# the one block search and its public entry points

def _plane(g: Graph) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Whether ``g`` is planar, with the faces ``embed`` returns when it
    is also 2-connected (one block on all p vertices), else None.

    More than 3p - 6 edges is impossible for a planar simple graph on
    p >= 3 vertices, so such a graph is rejected before the block
    search; otherwise each block is embedded once.
    """
    if g.p >= 3 and g.q > 3 * g.p - 6:
        return False, None
    pieces = _block_pieces(g)
    try:
        walks = [_embed_block(vs, rows) for vs, rows in pieces]
    except NonPlanarGraphError:
        return False, None
    if len(pieces) != 1 or len(pieces[0][0]) != g.p:
        return True, None
    least = (min(f[i:] + f[:i] for i in range(len(f))) for f in walks[0])
    return True, tuple(sorted(least, key=lambda f: (len(f), f)))


def is_planar(g: Graph) -> bool:
    """Embedding-based planarity test, embedding each block once."""
    return _plane(g)[0]


def embed(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The faces of a planar embedding of a 2-connected graph.

    Each face is a vertex walk from its least cyclic shift, and the
    faces are sorted by length, then content: ``dual`` numbers its
    vertices in this order.  Raises NonPlanarGraphError on non-planar
    input and ValueError on a planar graph that is not 2-connected.
    Deterministic: equal graphs embed identically.
    """
    planar, faces = _plane(g)
    if not planar:
        raise NonPlanarGraphError("graph is not planar")
    if faces is None:
        raise ValueError("embedding requires a 2-connected graph")
    return faces
