"""Slow reference implementations the fast code is checked against.

Everything here favours obviousness over speed: plain dict-of-sets
adjacency, search over all (degree-preserving) permutations or all
deletion subsets.  None of it shares internals with the package; the
point is a second, independent route to every answer.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import cache

from polycensus import (
    MAX_VERTICES,
    Graph,
    Graph6Error,
    NonPlanarGraphError,
    canonical_form,
    is_3_connected,
    is_planar,
)
from polycensus.isomorphism import canonical_labeling

# classes of simple graphs on 1..7 unlabeled vertices, a published
# sequence; pins the universe builder and the canonical form at once
GRAPH_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def empty_graph(p: int) -> Graph:
    return Graph(p, (0,) * p)


def path(p: int) -> Graph:
    return Graph.from_edges(p, [(v, v + 1) for v in range(p - 1)])


def cycle(p: int) -> Graph:
    return Graph.from_edges(p, [(v, (v + 1) % p) for v in range(p)])


def wheel(rim: int) -> Graph:
    """Hub vertex ``rim`` joined to every vertex of the cycle on 0..rim-1."""
    spokes = [(v, rim) for v in range(rim)]
    return Graph.from_edges(rim + 1, [*cycle(rim).edges(), *spokes])


def complete_multipartite(*sizes: int) -> Graph:
    """Every vertex joined to every vertex of the other parts, such as the
    octahedron K2,2,2."""
    part = [i for i, s in enumerate(sizes) for _ in range(s)]
    pairs = itertools.combinations(range(len(part)), 2)
    return Graph.from_edges(len(part), [(u, v) for u, v in pairs if part[u] != part[v]])


def neighbors(g: Graph, v: int) -> tuple[int, ...]:
    """The neighbours of v in ``g``, in ascending order."""
    return tuple(u for u in range(g.p) if g.has_edge(v, u))


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """``g`` with the edge uv added, which must be new and join two
    distinct vertices of ``g``."""
    if u == v or not (0 <= u < g.p and 0 <= v < g.p):
        raise ValueError(f"bad edge ({u}, {v})")
    if g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) already present")
    rows = list(g.adj)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph(g.p, tuple(rows))


def canonical_graph(g: Graph) -> Graph:
    """``g`` relabelled by ``canonical_labeling``: the census and the
    catalog store each class this way."""
    return g.relabel(canonical_labeling(g))


def neighbor_sets(g: Graph) -> dict[int, set[int]]:
    return {v: set(neighbors(g, v)) for v in range(g.p)}


def set_connected(vertices, adj) -> bool:
    """BFS over dict-of-sets, restricted to the given vertices."""
    vs = set(vertices)
    if not vs:
        return True
    start = min(vs)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w in vs and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vs


def brute_3_connected(g: Graph) -> bool:
    """Delete every vertex subset of size 0, 1, 2; demand connectivity."""
    if g.p < 4:
        return False
    adj = neighbor_sets(g)
    everyone = set(range(g.p))
    for k in (0, 1, 2):
        for cut in itertools.combinations(range(g.p), k):
            if not set_connected(everyone - set(cut), adj):
                return False
    return True


def brute_isomorphic(a: Graph, b: Graph) -> bool:
    """Try every degree-preserving bijection.

    An isomorphism maps each vertex to one of equal degree, so no other
    bijection can succeed and every verdict is that of trying them all.
    No cleverness beyond that and the size check.
    """
    if a.p != b.p or a.q != b.q:
        return False
    by_degree_a: dict[int, list[int]] = {}
    by_degree_b: dict[int, list[int]] = {}
    for v in range(a.p):
        by_degree_a.setdefault(a.degree(v), []).append(v)
        by_degree_b.setdefault(b.degree(v), []).append(v)
    if {d: len(vs) for d, vs in by_degree_a.items()} != {
        d: len(vs) for d, vs in by_degree_b.items()
    }:
        return False
    edges_b = set(b.edges())
    edges_a = tuple(a.edges())
    sources = [v for vs in by_degree_a.values() for v in vs]
    perm = [0] * a.p
    for images in itertools.product(
        *(itertools.permutations(by_degree_b[d]) for d in by_degree_a)
    ):
        for v, w in zip(sources, itertools.chain.from_iterable(images)):
            perm[v] = w
        if all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in edges_b
            for u, v in edges_a
        ):
            return True
    return False


def automorphism_count(g: Graph) -> int:
    """|Aut(g)| by backtracking: the vertices in breadth-first order, each
    sent to an unused vertex of its degree whose adjacency to every vertex
    placed before it matches."""
    nb = neighbor_sets(g)
    order: list[int] = []
    for root in range(g.p):
        if root in order:
            continue
        i = len(order)
        order.append(root)
        while i < len(order):
            order += sorted(nb[order[i]] - set(order))
            i += 1
    image: list[int] = []

    def extend(i: int) -> int:
        if i == g.p:
            return 1
        v, total = order[i], 0
        for u in range(g.p):
            if u in image or len(nb[u]) != len(nb[v]):
                continue
            if all((w in nb[v]) == (x in nb[u]) for w, x in zip(order, image)):
                image.append(u)
                total += extend(i + 1)
                image.pop()
        return total

    return extend(0)


def brute_certificate(g: Graph) -> tuple[int, ...]:
    """Minimum over all relabelings of the upper-triangle bit row.

    Not byte-compatible with canonical_form; only the induced
    equivalence relation is comparable.
    """
    pairs = tuple(itertools.combinations(range(g.p), 2))
    best = None
    for order in itertools.permutations(range(g.p)):
        bits = tuple(
            1 if g.has_edge(order[i], order[j]) else 0 for i, j in pairs
        )
        if best is None or bits < best:
            best = bits
    return (g.p,) + best


def all_graphs_up_to_iso(p: int) -> tuple[Graph, ...]:
    """Every isomorphism class on exactly p vertices, one canonical
    representative each, grown by levelwise edge addition."""
    pairs = list(itertools.combinations(range(p), 2))
    level = {canonical_form(empty_graph(p)): empty_graph(p)}
    out = dict(level)
    for _ in pairs:
        nxt = {}
        for g in level.values():
            for a, b in pairs:
                if not g.has_edge(a, b):
                    h = canonical_graph(add_edge(g, a, b))
                    nxt.setdefault(canonical_form(h), h)
        if not nxt:
            break
        out.update(nxt)
        level = nxt
    return tuple(out[k] for k in sorted(out, key=lambda c: c.certificate))


def random_graph(p: int, q: int, rng: random.Random) -> Graph:
    pairs = list(itertools.combinations(range(p), 2))
    return Graph.from_edges(p, rng.sample(pairs, q))


def petersen() -> Graph:
    """3-connected, 15 edges: under 3p - 6 = 24, yet not planar."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def icosahedron():
    # apex 0, upper ring 1..5, lower ring 6..10, apex 11
    edges = [(0, i) for i in range(1, 6)] + [(11, i) for i in range(6, 11)]
    for k in range(5):
        up, up_next = 1 + k, 1 + (k + 1) % 5
        down, down_next = 6 + k, 6 + (k + 1) % 5
        edges += [(up, up_next), (down, down_next), (up, down), (up_next, down)]
    return Graph.from_edges(12, edges)


def shuffled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.p))
    rng.shuffle(perm)
    return g.relabel(tuple(perm))


def glued_graph(p: int, rng: random.Random) -> Graph:
    """A random graph on p vertices built part by part, shuffled: each
    new part, a random graph on up to 6 vertices, shares one vertex with
    the graph so far, a cut vertex, or is joined to it by one edge, a
    bridge."""
    n = rng.randint(1, min(6, p))
    edges = list(random_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng).edges())
    while n < p:
        m = rng.randint(1, min(5, p - n))
        new = list(range(n, n + m))
        if rng.random() < 0.5:
            new.insert(0, rng.randrange(n))
        else:
            edges.append((rng.randrange(n), rng.choice(new)))
        k = len(new)
        part = random_graph(k, rng.randint(k - 1, k * (k - 1) // 2), rng)
        edges += [(new[u], new[v]) for u, v in part.edges()]
        n += m
    return shuffled(Graph.from_edges(p, edges), rng)


def sample_graphs(p: int, count: int, seed: int) -> list[Graph]:
    """Deterministic random graphs on p vertices, sizes spread from
    tree-sparse to complete."""
    rng = random.Random(seed)
    hi = p * (p - 1) // 2
    return [random_graph(p, rng.randrange(p - 1, hi + 1), rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# census by direct filtration

def _degree_rows(p: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Weakly decreasing degree vectors in [3, p-1] summing to 2q."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], left: int, cap: int) -> None:
        slots = p - len(prefix)
        if slots == 0:
            if left == 0:
                out.append(tuple(prefix))
            return
        for d in range(min(cap, left), 2, -1):
            rest = left - d
            if 3 * (slots - 1) <= rest <= d * (slots - 1):
                rec(prefix + [d], rest, d)

    rec([], 2 * q, p - 1)
    return tuple(out)


def _labeled_graphs_with_degrees(row: tuple[int, ...], cut: bool = True):
    """(graph, weight) for every labelled simple graph realizing the
    weakly decreasing degree vector ``row`` in which vertex 0's
    neighbours in each block of equal degree, vertex 0 left out, are the
    first vertices of that block; with ``cut=False``, for every one.

    Every class with this row keeps a member.  Permuting a block while
    fixing vertex 0 keeps the degree vector, so it maps each graph with
    this row onto an isomorphic one with the same row.  Such
    permutations take any k vertices of a block onto its first k, so
    they reach every neighbourhood of vertex 0 with the same count in
    each block, the initial segments among them.

    The weight is the number of labelled graphs of the uncut scan that
    a graph stands for: the product of C(m_d, k_d) over the blocks, for
    a block of m_d vertices of degree d holding k_d neighbours of vertex
    0, and 1 without the cut.  The permutations above fix vertex 0 and
    map the graphs whose vertex 0 has the same k_d one to one onto each
    other, and an initial segment is one of the C(m_d, k_d) choices of
    its neighbours in each block.

    Vertex v's edges to later vertices are chosen once v's earlier
    edges are fixed; branches that strand a later vertex above its
    remaining capacity are cut.
    """
    p = len(row)

    def rec(v: int, rem: list[int], adj: list[int], weight: int):
        if v == p:
            yield Graph(p, tuple(adj)), weight
            return
        cands = [u for u in range(v + 1, p) if rem[u] > 0]
        if rem[v] > len(cands):
            return
        later = p - v - 1
        for pick in itertools.combinations(cands, rem[v]):
            w = weight
            if v == 0 and cut:
                if any(
                    u > 1 and row[u - 1] == row[u] and u - 1 not in pick for u in pick
                ):
                    continue  # not an initial segment of its block
                for d in set(row[1:]):
                    block = [u for u in range(1, p) if row[u] == d]
                    w *= math.comb(len(block), len(set(block) & set(pick)))
            rem2 = list(rem)
            adj2 = list(adj)
            for u in pick:
                rem2[u] -= 1
                adj2[v] |= 1 << u
                adj2[u] |= 1 << v
            rem2[v] = 0
            if all(rem2[u] <= later - 1 for u in range(v + 1, p)):
                yield from rec(v + 1, rem2, adj2, w)

    yield from rec(0, list(row), [0] * p, 1)


# the order-9 cells the filtration is kept to, both read off duals by
# the census; (9, 21) took 70 s
_ORDER_9_CELLS = {(9, 14), (9, 15)}


@cache
def _filtration(
    p: int, q: int
) -> tuple[tuple[Graph, ...], dict[tuple[int, ...], int]]:
    """The classes of ``exhaustive_polyhedra``, and the weights of
    ``labelled_weights``, from one scan."""
    if p < 4 or q < 6 or q > 3 * p - 6 or 2 * q < 3 * p:
        return (), {}
    if p > 8 and (p, q) not in _ORDER_9_CELLS:
        raise ValueError("direct filtration is kept to p <= 8, (9, 14) and (9, 15)")
    found = {}
    weights = {}
    for row in _degree_rows(p, q):
        weights[row] = 0
        for g, w in _labeled_graphs_with_degrees(row):
            if is_planar(g) and is_3_connected(g):
                weights[row] += w
                cf = canonical_form(g)
                if cf not in found:
                    found[cf] = canonical_graph(g)
    classes = tuple(found[k] for k in sorted(found, key=lambda c: c.certificate))
    return classes, weights


def exhaustive_polyhedra(p: int, q: int) -> tuple[Graph, ...]:
    """Census by direct filtration; shares no generation machinery with
    enumerate_polyhedra.

    Scans, at every order, the labelled graphs realizing each degree
    vector that a polyhedron could have.
    """
    return _filtration(p, q)[0]


def labelled_weights(p: int, q: int) -> dict[tuple[int, ...], int]:
    """Degree row -> the number of labelled polyhedra on 0..p-1 with q
    edges in which vertex v has degree row[v], for every row that
    ``_degree_rows`` yields, 0 included: the summed weights of the graphs
    of the cut scan that pass the filtration of ``exhaustive_polyhedra``.

    A class g with that row has prod m_d! / |Aut(g)| such labellings,
    for m_d vertices of degree d, so the rows count the classes weighted
    by their groups.
    """
    return _filtration(p, q)[1]


# ---------------------------------------------------------------------------
# self-complementary graphs from their complementing permutations

def _partitions(m: int, cap: int):
    """Partitions of m into weakly decreasing parts of at most cap."""
    if m == 0:
        yield ()
    for first in range(min(m, cap), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def self_complementary_graphs(p: int) -> list[Graph]:
    """Every labelled graph that one fixed complementing permutation of
    each allowed cycle type maps onto its complement.

    A complementing permutation has every cycle length divisible by 4,
    apart from one fixed point when p = 1 (mod 4) (Ringel 1963; Sachs
    1962), so each self-complementary class on p vertices has a member
    here.  The permutation takes edges to non-edges, so along each orbit
    of vertex pairs a graph holds every other pair: two choices per
    orbit, one graph for each permutation and choice.  Shares nothing
    with the census.
    """
    if p % 4 > 1:
        return []
    graphs = []
    for parts in _partitions(p // 4, p // 4):
        sigma = list(range(p))  # the last vertex stays fixed when p is odd
        start = 0
        for n in (4 * part for part in parts):
            for i in range(n):
                sigma[start + i] = start + (i + 1) % n
            start += n
        orbits, seen = [], set()
        for pair in itertools.combinations(range(p), 2):
            orbit = []
            while pair not in seen:
                seen.add(pair)
                orbit.append(pair)
                pair = tuple(sorted((sigma[pair[0]], sigma[pair[1]])))
            if orbit:
                orbits.append(orbit)
        for choice in itertools.product((0, 1), repeat=len(orbits)):
            edges = [e for orbit, c in zip(orbits, choice) for e in orbit[c::2]]
            graphs.append(Graph.from_edges(p, edges))
    return graphs


# ---------------------------------------------------------------------------
# planarity by subdivision search

def kuratowski_oracle(g: Graph) -> bool:
    """True iff g has no K5 and no K3,3 subdivision.

    Exponential search meant as an independent check on small graphs;
    it shares no machinery with is_planar.  Capped at 9 vertices.
    """
    if g.p > 9:
        raise ValueError("subdivision search is kept to p <= 9")
    if g.p <= 4 or g.q <= 8:
        return True

    adj = g.adj
    nbrs = [neighbors(g, v) for v in range(g.p)]
    full = (1 << g.p) - 1

    def linked(branch: tuple[int, ...], pairs: list[tuple[int, int]]) -> bool:
        # internally disjoint paths realizing all pairs, interiors drawn
        # from vertices outside the branch set, each used at most once
        base = full
        for v in branch:
            base &= ~(1 << v)

        def place(i: int, avail: int) -> bool:
            if i == len(pairs):
                return True
            a, b = pairs[i]

            def walk(x: int, avail_now: int) -> bool:
                if adj[x] >> b & 1:
                    # a shortest exit never hurts: any completion using
                    # more interior vertices leaves fewer for later pairs
                    return place(i + 1, avail_now)
                for y in nbrs[x]:
                    if avail_now >> y & 1 and walk(y, avail_now & ~(1 << y)):
                        return True
                return False

            return walk(a, avail)

        return place(0, base)

    deg4 = [v for v in range(g.p) if adj[v].bit_count() >= 4]
    for branch in itertools.combinations(deg4, 5):
        if linked(branch, list(itertools.combinations(branch, 2))):
            return False

    deg3 = [v for v in range(g.p) if adj[v].bit_count() >= 3]
    for six in itertools.combinations(deg3, 6):
        rest = six[1:]
        for mates in itertools.combinations(rest, 2):
            side_a = (six[0],) + mates
            side_b = tuple(v for v in rest if v not in mates)
            if linked(six, [(a, b) for a in side_a for b in side_b]):
                return False

    return True


# ---------------------------------------------------------------------------
# blocks by definition

def brute_blocks(g: Graph) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The blocks of ``g`` with two or more edges, each as (its vertices
    in ascending order, the neighbour mask of every vertex of ``g`` within
    it), straight from the definition: two edges lie in one block iff no
    single vertex separates them, where an edge at the deleted vertex
    counts with its other end.

    Each edge gets the tuple of the components holding it in g and in
    g - v for every vertex v; two edges share a block iff their tuples
    are equal.
    """
    adj = neighbor_sets(g)

    def components(gone: int) -> dict[int, int]:
        label: dict[int, int] = {}
        for s in range(g.p):
            if s == gone or s in label:
                continue
            label[s] = s
            todo = [s]
            while todo:
                for w in adj[todo.pop()]:
                    if w != gone and w not in label:
                        label[w] = s
                        todo.append(w)
        return label

    cuts = [(v, components(v)) for v in range(-1, g.p)]
    blocks: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for u, w in g.edges():
        key = tuple(label[w if u == v else u] for v, label in cuts)
        blocks.setdefault(key, []).append((u, w))
    out = set()
    for edges in blocks.values():
        if len(edges) < 2:
            continue
        rows = [0] * g.p
        for u, w in edges:
            rows[u] |= 1 << w
            rows[w] |= 1 << u
        out.add((tuple(v for v in range(g.p) if rows[v]), tuple(rows)))
    return out


# ---------------------------------------------------------------------------
# canonical labelling by the plain search

def plain_canonical_labeling(g: Graph) -> tuple[int, ...]:
    """The labelling ``canonical_labeling`` must return, by a search that
    prunes by automorphisms at the root only and refines every partition
    until a round changes no colour.

    The package's search once was this code; it is kept here unchanged,
    but for the neighbour lists, so every shortcut the package takes is
    checked against the tree it cuts.  Its time grows fast with symmetry
    and with isolated vertices: keep it to small or dense-enough inputs.
    """
    return _plain_search(g.p, g.adj)


def _plain_refine(nbrs: list[tuple[int, ...]], colors: list[int]) -> list[int]:
    """Split color classes by neighbour-color multisets until stable.

    ``nbrs[v]`` lists the neighbours of v.  Output colors are ranks of
    invariant keys, so they do not depend on the labelling of the input
    graph beyond genuine structure.
    """
    while True:
        keys = [
            (colors[v], tuple(sorted([colors[u] for u in nb])))
            for v, nb in enumerate(nbrs)
        ]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [rank[k] for k in keys]
        if new == colors:
            return colors
        colors = new


def _plain_pack_bits(p: int, adj: tuple[int, ...], position: list[int]) -> int:
    """Upper-triangle adjacency bits (row-major) under the given labelling."""
    inv = [0] * p
    for v, c in enumerate(position):
        inv[c] = v
    out = 0
    for i in range(p):
        row = adj[inv[i]]
        for j in range(i + 1, p):
            out = (out << 1) | ((row >> inv[j]) & 1)
    return out


def _plain_search(p: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    """Labelling (vertex -> position) minimizing the packed adjacency bits."""
    q2 = sum(row.bit_count() for row in adj)
    if q2 == 0 or q2 == p * (p - 1):
        return tuple(range(p))  # empty or complete: every labelling ties

    # built per search, not cached: a cache would keep one list per graph
    nbrs = [tuple(u for u in range(p) if row >> u & 1) for row in adj]
    best_bits: int | None = None
    best_label: tuple[int, ...] | None = None

    # orbit union-find fed by automorphisms discovered at certificate ties;
    # used to skip symmetric branches at the root of the search tree
    orbit = list(range(p))

    def find(v: int) -> int:
        while orbit[v] != v:
            orbit[v] = orbit[orbit[v]]
            v = orbit[v]
        return v

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            orbit[ra] = rb

    def leaf(colors: list[int]) -> None:
        nonlocal best_bits, best_label
        packed = _plain_pack_bits(p, adj, colors)
        if best_bits is None or packed < best_bits:
            best_bits = packed
            best_label = tuple(colors)
        elif packed == best_bits and best_label is not None:
            inv2 = [0] * p
            for v, c in enumerate(colors):
                inv2[c] = v
            for v in range(p):
                union(v, inv2[best_label[v]])

    def rec(colors: list[int], depth: int) -> None:
        counts = [0] * p
        for c in colors:
            counts[c] += 1
        target = -1
        for c in range(p):
            if counts[c] > 1:
                target = c
                break
        if target < 0:
            leaf(colors)
            return
        members = [v for v in range(p) if colors[v] == target]
        explored: list[int] = []
        for v in members:
            if depth == 0:
                rv = find(v)
                if any(find(u) == rv for u in explored):
                    continue
                explored.append(v)
            child = _plain_refine(
                nbrs, [colors[u] * 2 + (0 if u == v else 1) for u in range(p)]
            )
            rec(child, depth + 1)

    rec(_plain_refine(nbrs, [0] * p), 0)
    assert best_label is not None
    return best_label


def plain_first_leaf(g: Graph) -> tuple[int, ...]:
    """The leaf the plain search reaches first: from one colour class,
    refine, then individualise the first vertex of the first class of
    two or more and refine again, until every vertex has its own colour.

    A search with a negative target must stop at this leaf.
    """
    nbrs = [neighbors(g, v) for v in range(g.p)]
    colors = _plain_refine(nbrs, [0] * g.p)
    while len(set(colors)) < g.p:
        w = colors.index(min(c for c in colors if colors.count(c) > 1))
        colors = _plain_refine(nbrs, [c * 2 + (v != w) for v, c in enumerate(colors)])
    return tuple(colors)


# ---------------------------------------------------------------------------
# graph6 one bit at a time

def plain_encode(g: Graph) -> str:
    """graph6 of ``g``: the order byte, then every pair in column order,
    one bit each, packed into 6-bit groups, each + 63."""
    out = [chr(63 + g.p)]
    acc = 0
    nbits = 0
    for j in range(1, g.p):
        col = g.adj[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def plain_decode(text: str) -> Graph:
    """The graph of a graph6 string, read one pair at a time; raises
    Graph6Error with the package's messages and positions.  The
    package's ``decode`` once was this code."""
    s = text.strip()
    at = len(text) - len(text.lstrip())
    if s.startswith(">>graph6<<"):
        s = s[10:]
        at += 10
    if not s:
        raise Graph6Error("empty graph6 string")
    n = ord(s[0]) - 63
    if not 1 <= n <= 62:
        raise Graph6Error(f"unsupported order byte {s[0]!r}", at)
    if n > MAX_VERTICES:
        raise Graph6Error(
            f"order {n} exceeds the supported maximum {MAX_VERTICES}", at
        )
    nbits = n * (n - 1) // 2
    expect = 1 + (nbits + 5) // 6
    if len(s) != expect:
        raise Graph6Error(
            f"expected {expect} characters for order {n}, got {len(s)}",
            at + min(len(s), expect),
        )
    data = 0
    for k, ch in enumerate(s[1:], start=1):
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise Graph6Error(f"character {ch!r} outside graph6 range", at + k)
        data = data << 6 | val
    pad = 6 * (expect - 1) - nbits
    if data & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", at + expect - 1)
    rows = [0] * n
    bit = nbits + pad
    for j in range(1, n):
        for i in range(j):
            bit -= 1
            if data >> bit & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# path insertion by the plain embedder

def _set_bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _plain_find_cycle(vs: list[int], adj: dict[int, int]) -> list[int]:
    """Any cycle of a graph with min degree >= 2, as a vertex list."""
    start = vs[0]
    parent = {start: -1}
    order = [start]
    k = 0
    while k < len(order):
        x = order[k]
        k += 1
        for y in _set_bits(adj[x]):
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


def _plain_fragments(
    vs: list[int], adj: dict[int, int], emb: dict[int, int], placed: set[int]
) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    """Pieces of the block not yet embedded: (attachments, interior)."""
    frags = []
    for v in sorted(placed):
        for u in _set_bits(adj[v] & ~emb[v]):
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
            for y in _set_bits(adj[x]):
                if y not in placed and y not in seen:
                    seen.add(y)
                    comp.append(y)
        att = set()
        for x in comp:
            att.update(y for y in _set_bits(adj[x]) if y in placed)
        frags.append((frozenset(att), tuple(sorted(comp))))
    return frags


def _plain_fragment_path(
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
    queue = sorted(x for x in _set_bits(adj[a]) if x in comp)
    parent = {x: a for x in queue}
    k = 0
    while k < len(queue):
        x = queue[k]
        k += 1
        ends = sorted(y for y in _set_bits(adj[x]) if y in placed and y != a)
        if ends:
            path = [ends[0], x]
            while path[-1] != a:
                path.append(parent[path[-1]])
            path.reverse()
            return path
        for y in sorted(_set_bits(adj[x])):
            if y in comp and y not in parent:
                parent[y] = x
                queue.append(y)
    raise AssertionError("fragment with one attachment in a 2-connected block")


def plain_embed_block(vs: list[int], adj: dict[int, int]) -> list[tuple[int, ...]]:
    """Face walks of one 2-connected block; raises NonPlanarGraphError.

    ``adj`` maps each vertex of the block to the bitmask of its block
    neighbours.  The package's ``planarity._embed_block`` once was this
    code; it is kept here unchanged but for its names and a local bit
    iterator, so the bitmask
    embedder is checked face for face against the one it replaced: the
    same cycle, fragment order, face choice and paths, and a full scan
    of the fragments at every step.
    """
    cycle = _plain_find_cycle(vs, adj)
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
        for frag in _plain_fragments(vs, adj, emb, placed):
            att = frag[0]
            adm = [i for i, f in enumerate(faces) if att <= set(f)]
            if best_frag is None or len(adm) < len(best_faces):
                best_frag, best_faces = frag, adm
                if not adm:
                    break
        assert best_frag is not None
        if not best_faces:
            raise NonPlanarGraphError("a fragment fits in no face")

        path = _plain_fragment_path(best_frag, adj, placed)
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
