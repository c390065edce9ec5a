"""Planarity testing and combinatorial embeddings.

``is_planar`` / ``embed`` build an explicit embedding face by face
(insert one fragment path at a time, always handling a fragment with
the fewest admissible faces first, per block of the graph).  ``embed``
returns the faces of a 2-connected graph, each a vertex walk in a
normal form; ``dual``, which checks 3-connectivity and then calls
``embed``, embeds its input once and reads the faces as vertex sets,
the form the census carries with each class.  The tests check
planarity against a direct search for a K5 or K3,3 subdivision that
knows nothing about embeddings.
"""

from __future__ import annotations

from .graphs import Graph, bits


class NonPlanarGraphError(ValueError):
    """Raised when an embedding is requested for a non-planar graph."""


# ---------------------------------------------------------------------------
# block decomposition

def _blocks(g: Graph) -> list[list[tuple[int, int]]]:
    """Biconnected components as edge lists; bridges give single edges."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    counter = 0
    stack: list[tuple[int, int]] = []
    out: list[list[tuple[int, int]]] = []

    def dfs(v: int, parent: int) -> None:
        nonlocal counter
        index[v] = low[v] = counter
        counter += 1
        for u in bits(g.adj[v]):
            if u == parent:
                continue
            if u in index:
                if index[u] < index[v]:
                    stack.append((v, u))
                    low[v] = min(low[v], index[u])
            else:
                stack.append((v, u))
                dfs(u, v)
                low[v] = min(low[v], low[u])
                if low[u] >= index[v]:
                    block = []
                    while True:
                        e = stack.pop()
                        block.append(e)
                        if e == (v, u):
                            break
                    out.append(block)

    for s in range(g.p):
        if s not in index:
            dfs(s, -1)
    return out


# ---------------------------------------------------------------------------
# path-insertion embedder for one 2-connected block

def _find_cycle(vs: list[int], adj: dict[int, int]) -> list[int]:
    """Any cycle of a graph with min degree >= 2, as a vertex list."""
    start = vs[0]
    parent = {start: -1}
    order = [start]
    k = 0
    while k < len(order):
        x = order[k]
        k += 1
        for y in bits(adj[x]):
            if y not in parent:
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
                sy = set(py)
                meet = next(v for v in px if v in sy)
                cx = px[: px.index(meet) + 1]
                cy = py[: py.index(meet)]
                return cx + list(reversed(cy))
    raise AssertionError("no cycle in a 2-connected block")


def _fragments(
    vs: list[int], adj: dict[int, int], emb: dict[int, int], placed: set[int]
) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    """Pieces of the block not yet embedded: (attachments, interior)."""
    frags = []
    for v in sorted(placed):
        for u in bits(adj[v] & ~emb[v]):
            if u > v and u in placed:
                frags.append((frozenset((v, u)), ()))
    seen: set[int] = set()
    for s in vs:
        if s in placed or s in seen:
            continue
        comp = [s]
        seen.add(s)
        k = 0
        while k < len(comp):
            x = comp[k]
            k += 1
            for y in bits(adj[x]):
                if y not in placed and y not in seen:
                    seen.add(y)
                    comp.append(y)
        att = set()
        for x in comp:
            att.update(y for y in bits(adj[x]) if y in placed)
        frags.append((frozenset(att), tuple(sorted(comp))))
    return frags


def _fragment_path(
    frag: tuple[frozenset[int], tuple[int, ...]],
    adj: dict[int, int],
    placed: set[int],
) -> list[int]:
    """A path between two attachments whose interior lies in the fragment."""
    att, interior = frag
    if not interior:
        v, u = sorted(att)
        return [v, u]
    comp = set(interior)
    a = min(att)
    queue = sorted(x for x in bits(adj[a]) if x in comp)
    parent = {x: a for x in queue}
    k = 0
    while k < len(queue):
        x = queue[k]
        k += 1
        ends = sorted(y for y in bits(adj[x]) if y in placed and y != a)
        if ends:
            path = [ends[0], x]
            while path[-1] != a:
                path.append(parent[path[-1]])
            path.reverse()
            return path
        for y in sorted(bits(adj[x])):
            if y in comp and y not in parent:
                parent[y] = x
                queue.append(y)
    raise AssertionError("fragment with one attachment in a 2-connected block")


def _embed_block(vs: list[int], adj: dict[int, int]) -> list[tuple[int, ...]]:
    """Face walks of one 2-connected block; raises NonPlanarGraphError."""
    cycle = _find_cycle(vs, adj)
    emb = {v: 0 for v in vs}
    placed = set(cycle)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        emb[a] |= 1 << b
        emb[b] |= 1 << a
    faces: list[tuple[int, ...]] = [tuple(cycle), tuple(reversed(cycle))]
    total = sum(m.bit_count() for m in adj.values()) // 2
    done = len(cycle)

    while done < total:
        best_frag = None
        best_faces: list[int] = []
        for frag in _fragments(vs, adj, emb, placed):
            att = frag[0]
            adm = [i for i, f in enumerate(faces) if att <= set(f)]
            if best_frag is None or len(adm) < len(best_faces):
                best_frag, best_faces = frag, adm
                if not adm:
                    break
        assert best_frag is not None
        if not best_faces:
            raise NonPlanarGraphError("a fragment fits in no face")

        path = _fragment_path(best_frag, adj, placed)
        face = faces[best_faces[0]]
        m = len(face)
        i, j = face.index(path[0]), face.index(path[-1])
        arc_ab = [face[(i + k) % m] for k in range((j - i) % m + 1)]
        arc_ba = [face[(j + k) % m] for k in range((i - j) % m + 1)]
        inner = path[1:-1]
        faces[best_faces[0]] = tuple(arc_ab + list(reversed(inner)))
        faces.append(tuple(arc_ba + inner))
        for x, y in zip(path, path[1:]):
            emb[x] |= 1 << y
            emb[y] |= 1 << x
            done += 1
        placed.update(inner)

    # each dart on one face glues the faces into a closed surface, and
    # Euler characteristic 2 makes it the sphere
    darts = {(f[k - 1], f[k]) for f in faces for k in range(len(f))}
    assert sum(map(len, faces)) == len(darts) == 2 * total
    assert len(faces) == total - len(vs) + 2
    return faces


def _block_pieces(g: Graph) -> list[tuple[list[int], dict[int, int]]]:
    """Blocks on three or more vertices; bridges are planar and left out."""
    pieces = []
    for edges in sorted(_blocks(g), key=lambda es: sorted(es)):
        if len(edges) == 1:
            continue
        vs = sorted({v for e in edges for v in e})
        adj = {v: 0 for v in vs}
        for a, b in edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        pieces.append((vs, adj))
    return pieces


# ---------------------------------------------------------------------------
# public entry points

def is_planar(g: Graph) -> bool:
    """Embedding-based planarity test, embedding each block once.

    More than 3p - 6 edges is impossible for a planar simple graph on
    p >= 3 vertices.  Any graph on at most 4 vertices or at most 8 edges
    is planar (a K5 subdivision needs 10 edges, a K3,3 subdivision 9),
    so such a graph is not embedded.
    """
    if g.p >= 3 and g.q > 3 * g.p - 6:
        return False
    if g.p <= 4 or g.q <= 8:
        return True
    try:
        for vs, adj in _block_pieces(g):
            _embed_block(vs, adj)
    except NonPlanarGraphError:
        return False
    return True


def embed(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The faces of a planar embedding of a 2-connected graph.

    Each face is a vertex walk from its least cyclic shift, and the
    faces are sorted by length, then content: ``dual`` numbers its
    vertices in this order.  Raises ValueError unless ``g`` is
    2-connected and NonPlanarGraphError on non-planar input.
    Deterministic: equal graphs embed identically.
    """
    pieces = _block_pieces(g)
    if len(pieces) != 1 or len(pieces[0][0]) != g.p:
        raise ValueError("embedding requires a 2-connected graph")
    if g.q > 3 * g.p - 6:
        raise NonPlanarGraphError("more than 3p - 6 edges")
    faces = _embed_block(*pieces[0])
    least = (min(f[i:] + f[:i] for i in range(len(f))) for f in faces)
    return tuple(sorted(least, key=lambda f: (len(f), f)))
