"""Planarity testing and combinatorial embeddings.

``is_planar`` / ``embed`` build an explicit embedding face by face
(insert one fragment path at a time, always handling a fragment with
the fewest admissible faces first, per block of the graph).  Both run
the same single pass over the blocks, so ``dual``, which checks
3-connectivity and then calls ``embed``, embeds its input once.  The
tests check planarity against a direct search for a K5 or K3,3
subdivision that knows nothing about embeddings.

An embedding is a rotation system: the cyclic order of neighbours
around each vertex.  ``RotationSystem.faces`` takes its walks from
``face_walks``, the package's one dart walker, and puts them in a
normal form.  ``dual`` reads the faces as vertex sets, the form the
census carries with each class instead of a rotation system.
"""

from __future__ import annotations

from dataclasses import dataclass

from .connectivity import is_connected
from .graphs import Graph, bits


class NonPlanarGraphError(ValueError):
    """Raised when an embedding is requested for a non-planar graph."""


# ---------------------------------------------------------------------------
# rotation systems

def face_walks(rotations: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Face boundary walks of a rotation system.

    ``rotations[v]`` lists the neighbours of v in cyclic order.  The dart
    x -> y has index x * p + y, p = len(rotations), and is followed by
    y -> (successor of x in the rotation at y), so every dart lies on
    exactly one walk.  Walks start at the first unwalked dart in vertex,
    then rotation, order.
    """
    p = len(rotations)
    succ = [0] * (p * p)
    for v, r in enumerate(rotations):
        for u, w in zip(r, r[1:] + r[:1]):
            succ[v * p + u] = w
    walked = [False] * (p * p)
    faces: list[list[int]] = []
    for v, r in enumerate(rotations):
        for u in r:
            x, y = v, u
            walk = []
            while not walked[x * p + y]:
                walked[x * p + y] = True
                walk.append(x)
                x, y = y, succ[y * p + x]
            if walk:
                faces.append(walk)
    return faces


@dataclass(frozen=True, slots=True)
class RotationSystem:
    """Cyclic neighbour order at every vertex of a planar embedding."""

    rotations: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        p = len(self.rotations)
        for v, rot in enumerate(self.rotations):
            if len(set(rot)) != len(rot):
                raise ValueError(f"repeated neighbour in rotation at {v}")
            for u in rot:
                if not 0 <= u < p or u == v:
                    raise ValueError(f"bad neighbour {u} in rotation at {v}")
                if v not in self.rotations[u]:
                    raise ValueError(f"rotation not symmetric on edge {v},{u}")

    @property
    def p(self) -> int:
        return len(self.rotations)

    def degree(self, v: int) -> int:
        return len(self.rotations[v])

    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Face boundary walks, each from its least cyclic shift, sorted
        by length, then content: equal embeddings give equal faces, and
        ``dual`` numbers its vertices in this order.  Vertices repeat in
        a walk through a cut vertex; the one-vertex graph has one face.
        """
        if self.p == 1:
            return ((0,),)
        walks = face_walks(self.rotations)
        least = (tuple(min(w[i:] + w[:i] for i in range(len(w)))) for w in walks)
        return tuple(sorted(least, key=lambda f: (len(f), f)))


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


def _embed_block(vs: list[int], adj: dict[int, int]) -> dict[int, tuple[int, ...]]:
    """Rotation (per vertex) of one block; raises NonPlanarGraphError."""
    if len(vs) == 2:
        a, b = vs
        return {a: (b,), b: (a,)}

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

    assert len(faces) == total - len(vs) + 2

    succ: dict[int, dict[int, int]] = {v: {} for v in vs}
    for face in faces:
        m = len(face)
        for k in range(m):
            succ[face[(k + 1) % m]][face[k]] = face[(k + 2) % m]
    rot: dict[int, tuple[int, ...]] = {}
    for v in vs:
        nbrs = sorted(bits(adj[v]))
        seq = [nbrs[0]]
        cur = succ[v][nbrs[0]]
        while cur != nbrs[0]:
            seq.append(cur)
            cur = succ[v][cur]
        if len(seq) != len(nbrs):
            raise NonPlanarGraphError("face walks split a rotation")
        rot[v] = tuple(seq)
    return rot


def _block_pieces(g: Graph) -> list[tuple[list[int], dict[int, int]]]:
    pieces = []
    for edges in sorted(_blocks(g), key=lambda es: sorted(es)):
        vs = sorted({v for e in edges for v in e})
        adj = {v: 0 for v in vs}
        for a, b in edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        pieces.append((vs, adj))
    return pieces


def _rotations(g: Graph, need_rotations: bool) -> list[list[int]] | None:
    """Rotation lists of a planar embedding, embedding each block once.

    The one pass behind ``is_planar``, ``embed`` and so ``dual``.  Raises
    NonPlanarGraphError on non-planar input.  More than 3p - 6 edges is
    impossible for a planar simple graph on p >= 3 vertices.  Any graph
    on at most 4 vertices or at most 8 edges is planar (a K5 subdivision
    needs 10 edges, a K3,3 subdivision 9), so when ``need_rotations`` is
    false such a graph returns None without being embedded.
    """
    if g.p >= 3 and g.q > 3 * g.p - 6:
        raise NonPlanarGraphError("more than 3p - 6 edges")
    if not need_rotations and (g.p <= 4 or g.q <= 8):
        return None
    merged: list[list[int]] = [[] for _ in range(g.p)]
    for vs, adj in _block_pieces(g):
        rot = _embed_block(vs, adj)
        for v in vs:
            merged[v].extend(rot[v])
    return merged


# ---------------------------------------------------------------------------
# public entry points

def is_planar(g: Graph) -> bool:
    """Embedding-based planarity test."""
    try:
        _rotations(g, need_rotations=False)
    except NonPlanarGraphError:
        return False
    return True


def embed(g: Graph) -> RotationSystem:
    """A planar rotation system for a connected graph.

    Raises ValueError on disconnected input and NonPlanarGraphError on
    non-planar input.  Deterministic: equal graphs embed identically.
    """
    if not is_connected(g):
        raise ValueError("embedding requires a connected graph")
    rotations = _rotations(g, need_rotations=True)
    return RotationSystem(tuple(tuple(r) for r in rotations))

