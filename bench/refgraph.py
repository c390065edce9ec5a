"""The benchmark's own graph code, sharing nothing with polycensus.

Answers the program gives are judged against this module: its graph6
codec, its isomorphism test, and graph families whose properties are
known by construction.  A graph is a tuple of neighbour bitmasks.
"""

from __future__ import annotations

import random
from itertools import combinations


def from_edges(n: int, edges) -> tuple[int, ...]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def edge_count(adj) -> int:
    return sum(row.bit_count() for row in adj) // 2


def complement(adj) -> tuple[int, ...]:
    full = (1 << len(adj)) - 1
    return tuple(full ^ row ^ (1 << v) for v, row in enumerate(adj))


def relabel(adj, perm) -> tuple[int, ...]:
    """Vertex v becomes perm[v]."""
    rows = [0] * len(adj)
    for v, row in enumerate(adj):
        new = 0
        for u in range(len(adj)):
            if row >> u & 1:
                new |= 1 << perm[u]
        rows[perm[v]] = new
    return tuple(rows)


def shuffled(adj, rng: random.Random) -> tuple[int, ...]:
    perm = list(range(len(adj)))
    rng.shuffle(perm)
    return relabel(adj, perm)


# ---------------------------------------------------------------------------
# graph6, written from the format description (orders below 63)

def encode(adj) -> str:
    n = len(adj)
    out = [chr(63 + n)]
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | (adj[j] >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def decode(text: str) -> tuple[int, ...]:
    n = ord(text[0]) - 63
    bits = []
    for ch in text[1:]:
        val = ord(ch) - 63
        bits.extend(val >> s & 1 for s in range(5, -1, -1))
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return tuple(rows)


# ---------------------------------------------------------------------------
# isomorphism by degree-refined backtracking

def _refined_colors(adj) -> list[int]:
    n = len(adj)
    colors = [row.bit_count() for row in adj]
    for _ in range(n):
        keys = [
            (colors[v], tuple(sorted(colors[u] for u in range(n) if adj[v] >> u & 1)))
            for v in range(n)
        ]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [rank[k] for k in keys]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new
    return colors


def isomorphic(a, b) -> bool:
    """Exact test; colour refinement prunes, backtracking decides."""
    n = len(a)
    if n != len(b) or edge_count(a) != edge_count(b):
        return False
    ca, cb = _refined_colors(a), _refined_colors(b)
    # isomorphic graphs refine identically, so differing colour histograms
    # already decide; equal ones only prune the search below
    if sorted(ca) != sorted(cb):
        return False
    order = _bfs_order(a)
    image = [-1] * n
    used = 0

    def extend(k: int) -> bool:
        nonlocal used
        if k == n:
            return True
        u = order[k]
        for v in range(n):
            if used >> v & 1 or cb[v] != ca[u]:
                continue
            ok = True
            for x in order[:k]:
                if (a[u] >> x & 1) != (b[v] >> image[x] & 1):
                    ok = False
                    break
            if not ok:
                continue
            image[u] = v
            used |= 1 << v
            if extend(k + 1):
                return True
            used &= ~(1 << v)
            image[u] = -1
        return False

    return extend(0)


def _bfs_order(adj) -> list[int]:
    n = len(adj)
    order: list[int] = []
    seen = 0
    for s in range(n):
        if seen >> s & 1:
            continue
        seen |= 1 << s
        queue = [s]
        while queue:
            x = queue.pop(0)
            order.append(x)
            for y in range(n):
                if adj[x] >> y & 1 and not seen >> y & 1:
                    seen |= 1 << y
                    queue.append(y)
    return order


# ---------------------------------------------------------------------------
# triangulations with their faces

def random_triangulation(n: int, rng: random.Random) -> list[tuple[int, int, int]]:
    """Oriented faces of a random maximal planar graph on n >= 4 vertices.

    Stack vertices into random faces of K4, then flip random edges;
    every directed edge lies in exactly one face throughout.
    """
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    for v in range(4, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces += [(a, b, v), (b, c, v), (c, a, v)]
    for _ in range(3 * n):
        i = rng.randrange(len(faces))
        k = rng.randrange(3)
        f = faces[i]
        a, b, c = f[k], f[(k + 1) % 3], f[(k + 2) % 3]
        j = next(j for j, g in enumerate(faces) if _has_directed(g, b, a))
        g = faces[j]
        d = next(x for x in g if x not in (a, b))
        adj = from_edges(n, face_edges(faces))
        if (adj[c] >> d & 1) or adj[a].bit_count() <= 3 or adj[b].bit_count() <= 3:
            continue
        faces[i], faces[j] = (a, d, c), (d, b, c)
    return faces


def _has_directed(face, u, v) -> bool:
    return any(face[k] == u and face[(k + 1) % 3] == v for k in range(3))


def face_edges(faces):
    return {(min(f[k], f[k - 1]), max(f[k], f[k - 1])) for f in faces for k in range(len(f))}


def face_dual(faces) -> tuple[int, ...]:
    """Face adjacency graph, built from the faces alone."""
    side = {}
    for i, f in enumerate(faces):
        for k in range(len(f)):
            side[f[k], f[(k + 1) % len(f)]] = i
    return from_edges(len(faces), {(side[u, v], side[v, u]) for (u, v) in side})


# ---------------------------------------------------------------------------
# named graphs

def disjoint_cliques(k: int, size: int) -> tuple[int, ...]:
    return from_edges(
        k * size,
        [(c * size + i, c * size + j) for c in range(k) for i, j in combinations(range(size), 2)],
    )


def complete_bipartite(a: int, b: int) -> tuple[int, ...]:
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cycle(n: int) -> tuple[int, ...]:
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def wheel(rim: int) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Wheel with hub ``rim`` and its faces: rim triangles and the rim."""
    tri = [(v, (v + 1) % rim, rim) for v in range(rim)]
    faces = tri + [tuple(reversed(range(rim)))]
    return from_edges(rim + 1, face_edges(faces)), faces


def cayley_z4z4(steps) -> tuple[int, ...]:
    """Cayley graph on Z4 x Z4; vertex 4x + y."""
    edges = set()
    for x in range(4):
        for y in range(4):
            for dx, dy in steps:
                u, v = 4 * x + y, 4 * ((x + dx) % 4) + (y + dy) % 4
                edges.add((min(u, v), max(u, v)))
    return from_edges(16, edges)


def hamming16(distances) -> tuple[int, ...]:
    """Graph on 4-bit words joined at the given Hamming distances."""
    return from_edges(
        16, [(u, v) for u, v in combinations(range(16), 2) if (u ^ v).bit_count() in distances]
    )


def paley(p: int) -> tuple[int, ...]:
    """Paley graph of a prime p = 1 mod 4: self-complementary."""
    squares = {x * x % p for x in range(1, p)}
    return from_edges(p, [(u, v) for u, v in combinations(range(p), 2) if (v - u) % p in squares])
