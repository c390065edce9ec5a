"""Slow reference implementations the fast code is checked against.

Everything here favours obviousness over speed: plain dict-of-sets
adjacency, search over all permutations or all deletion subsets.  None
of it shares internals with the package; the point is a second,
independent route to every answer.
"""

from __future__ import annotations

import itertools
import random

from polycensus import Graph, canonical_form, canonical_graph, empty_graph

# classes of simple graphs on 1..7 unlabeled vertices, a published
# sequence; pins the universe builder and the canonical form at once
GRAPH_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def neighbor_sets(g: Graph) -> dict[int, set[int]]:
    return {v: set(g.neighbors(v)) for v in range(g.p)}


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
    """Try every bijection.  No cleverness beyond the size check."""
    if a.p != b.p or a.q != b.q:
        return False
    edges_b = set(b.edges())
    edges_a = tuple(a.edges())
    for perm in itertools.permutations(range(a.p)):
        if all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in edges_b
            for u, v in edges_a
        ):
            return True
    return False


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
                    h = canonical_graph(g.add_edge(a, b))
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


def shuffled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.p))
    rng.shuffle(perm)
    return g.relabel(tuple(perm))


def sample_graphs(p: int, count: int, seed: int) -> list[Graph]:
    """Deterministic random graphs on p vertices, sizes spread from
    tree-sparse to complete."""
    rng = random.Random(seed)
    hi = p * (p - 1) // 2
    return [random_graph(p, rng.randrange(p - 1, hi + 1), rng) for _ in range(count)]
