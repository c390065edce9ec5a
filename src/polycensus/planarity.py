"""Planarity testing and combinatorial embeddings.

One helper, ``_plane``, answers planarity and faces together: it runs
the block search once and builds an explicit embedding of each block
face by face (insert one fragment path at a time, always handling a
fragment with the fewest admissible faces first), on bitmasks, each
vertex holding the mask of the faces through it.  It returns the
face walks when the graph is 2-connected.  ``is_planar`` and
``embed`` read it, and so does ``duality._polyhedral``, which serves
``dual``, ``is_polyhedral``, ``check`` and the complement scan: their
input is embedded once, and the faces, read as vertex sets, give
3-connectivity and the dual.  Only ``embed`` and ``dual`` read the
order of the faces, so only they put the walks in ``_normal_form``.
The tests check planarity against a direct search for a K5 or K3,3
subdivision that knows nothing about embeddings, and the faces against
the plain embedder this one replaced.
"""

from __future__ import annotations

from .graphs import _BIT, Graph, bits


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
                    if index[u] < least:
                        least = index[u]
                continue
            stack.append((v, u))
            low_u = dfs(u, v)
            if low_u < least:
                least = low_u
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


def _components(adj: list[int], placed: int, left: int) -> list[tuple[int, int]]:
    """The components of the unplaced vertices in ``left``, as
    (attachments, vertices) masks, by least vertex."""
    out = []
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
        out.append((att, comp))
    return out


def _fragment_order(frag: tuple[int, int]) -> tuple[int, ...]:
    """Chords (no interior) by (v, u), then components by least vertex."""
    att, comp = frag
    return (1, comp & -comp) if comp else (0, att & -att, att)


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
    is forced.  Each vertex x keeps ``on[x]``, the mask of the faces
    through it, so the admissible faces are the AND of ``on`` over the
    attachments, their number a popcount, the lowest-index one the
    lowest set bit.  A split of face k moves the inner vertices of the
    arc that leaves to the new face and puts the path's inner vertices
    and ends on it; the inner ones join face k too.  The fragments stay
    in a list in scan order: a drawn chord leaves it, and a drawn
    component gives way to the components of its remaining vertices and
    the chords at the path's inner vertices.  No other fragment changes,
    as no edge joins two components.

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
    rest = list(adj)  # the edges not yet drawn
    on = [0] * len(adj)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        rest[a] &= ~(1 << b)
        rest[b] &= ~(1 << a)
        on[a] = 3  # faces 0 and 1, the two sides of the cycle
    placed = sum(1 << v for v in cycle)
    left = sum(1 << v for v in vs) & ~placed
    frags = [
        (1 << v | 1 << u, 0)
        for v in bits(placed)
        for u in bits(rest[v] & placed & -(2 << v))
    ] + _components(adj, placed, left)
    faces: list[tuple[int, ...]] = [tuple(cycle), tuple(reversed(cycle))]
    total = sum(map(int.bit_count, adj)) // 2
    done = len(cycle)

    while done < total:
        best = best_adm = best_count = -1
        for n, (att, comp) in enumerate(frags):
            adm = -1
            for x in bits(att):
                adm &= on[x]
            count = adm.bit_count()
            if best < 0 or count < best_count:
                best, best_adm, best_count = n, adm, count
                if count <= 1:
                    break
        assert best >= 0
        if not best_count:
            raise NonPlanarGraphError("a fragment fits in no face")

        att, comp = frags.pop(best)
        path = _fragment_path(att, comp, adj, placed)
        k = (best_adm & -best_adm).bit_length() - 1
        face = faces[k]
        i, j = face.index(path[0]), face.index(path[-1])
        if i < j:
            arc_ab, arc_ba = face[i : j + 1], face[j:] + face[: i + 1]
        else:
            arc_ab, arc_ba = face[i:] + face[: j + 1], face[j : i + 1]
        inner = tuple(path[1:-1])
        old, new = 1 << k, 1 << len(faces)
        faces[k] = arc_ab + inner[::-1]
        faces.append(arc_ba + inner)
        for x in arc_ba[1:-1]:
            on[x] ^= old | new
        for x in inner:
            on[x] = old | new
        on[path[0]] |= new
        on[path[-1]] |= new
        for x, y in zip(path, path[1:]):
            rest[x] &= ~(1 << y)
            rest[y] &= ~(1 << x)
        done += len(path) - 1
        if comp:
            # what is left of the component falls into components, and the
            # undrawn edges from the path's inner vertices to placed ones
            # become chords
            mid = sum(map(_BIT.__getitem__, inner))
            for x in inner:
                for u in bits(rest[x] & (placed | mid & -(2 << x))):
                    frags.append((1 << x | 1 << u, 0))
            placed |= mid
            frags += _components(adj, placed, comp & ~mid)
            frags.sort(key=_fragment_order)

    # each dart on one face glues the faces into a closed surface, and
    # Euler characteristic 2 makes it the sphere
    darts = {(f[k - 1], f[k]) for f in faces for k in range(len(f))}
    assert sum(map(len, faces)) == len(darts) == 2 * total
    assert len(faces) == total - len(vs) + 2
    return faces


# ---------------------------------------------------------------------------
# the one block search and its public entry points

def _plane(g: Graph) -> tuple[bool, list[tuple[int, ...]] | None]:
    """Whether ``g`` is planar, with the face walks of its embedding
    when it is also 2-connected (one block on all p vertices), else
    None.  The walks are in no normal form: ``_normal_form`` gives the
    one ``embed`` returns.

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
    return True, walks[0]


def _normal_form(walks: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Each walk from its least cyclic shift, the walks sorted by length,
    then content: the order ``embed`` returns and ``dual`` numbers its
    vertices in."""
    least = []
    for f in walks:
        # a walk has distinct vertices, so its least rotation starts at
        # its least vertex
        i = f.index(min(f))
        least.append(f[i:] + f[:i])
    return tuple(sorted(least, key=lambda f: (len(f), f)))


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
    return _normal_form(faces)
