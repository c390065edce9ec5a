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

``exhaustive_polyhedra`` is a deliberately different route (direct
filtration of all graphs with the right order and size) used to check
the production census against.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .connectivity import _three_connected_without_edge, is_3_connected
from .duality import dual
from .graphs import DegreeSequence, Graph, complete
from .isomorphism import CanonicalForm, canonical_form, canonical_graph
from .planarity import embed, is_planar

MAX_ENUM_ORDER = 9


def order_bounds(q: int) -> tuple[int, int]:
    """Inclusive order window for polyhedral graphs with q edges.

    Lower end from q <= 3p - 6, upper end from minimum degree 3; the
    window may be empty (q = 7 admits no polyhedral graph).
    """
    if q < 6:
        raise ValueError("a polyhedral graph has at least 6 edges")
    return (q + 8) // 3, 2 * q // 3


def _sorted_classes(found: dict[CanonicalForm, Graph]) -> tuple[Graph, ...]:
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
def triangulations(p: int) -> tuple[Graph, ...]:
    """All maximal planar graphs on p vertices, canonical, sorted."""
    if not 4 <= p <= MAX_ENUM_ORDER:
        raise ValueError(f"supported orders are 4..{MAX_ENUM_ORDER}")
    if p == 4:
        return (canonical_graph(complete(4)),)
    found: dict[CanonicalForm, Graph] = {}
    for t in triangulations(p - 1):
        rs = embed(t)
        for v in range(t.p):
            rot = rs.rotations[v]
            for i, j in combinations(range(len(rot)), 2):
                s = _split_vertex(t, v, rot, i, j)
                cf = canonical_form(s)
                if cf not in found:
                    found[cf] = canonical_graph(s)
    return _sorted_classes(found)


# ---------------------------------------------------------------------------
# full census per order, by edge deletion

@cache
def _census_by_order(p: int) -> dict[int, tuple[Graph, ...]]:
    """q -> classes, for every feasible size at order p."""
    q_top = 3 * p - 6
    q_bot = (3 * p + 1) // 2
    out = {q_top: triangulations(p)}
    for q in range(q_top - 1, q_bot - 1, -1):
        found: dict[CanonicalForm, Graph] = {}
        for g in out[q + 1]:
            for a, b in g.edges():
                if _three_connected_without_edge(g, a, b):
                    h = g.remove_edge(a, b)
                    cf = canonical_form(h)
                    if cf not in found:
                        found[cf] = canonical_graph(h)
        out[q] = _sorted_classes(found)
    return out


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
        for h in enumerate_polyhedra(r, q):
            # both calls share one cached canonical labelling of d
            d = dual(h)
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


# ---------------------------------------------------------------------------
# independent route: direct filtration

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


def _labeled_graphs_with_degrees(row: tuple[int, ...]):
    """Every labelled simple graph realizing the given degree vector.

    Vertex v's edges to later vertices are chosen once v's earlier
    edges are fixed; branches that strand a later vertex above its
    remaining capacity are cut.
    """
    p = len(row)

    def rec(v: int, rem: list[int], adj: list[int]):
        if v == p:
            yield Graph(p, tuple(adj))
            return
        cands = [u for u in range(v + 1, p) if rem[u] > 0]
        if rem[v] > len(cands):
            return
        later = p - v - 1
        for pick in combinations(cands, rem[v]):
            rem2 = list(rem)
            adj2 = list(adj)
            for u in pick:
                rem2[u] -= 1
                adj2[v] |= 1 << u
                adj2[u] |= 1 << v
            rem2[v] = 0
            if all(rem2[u] <= later - 1 for u in range(v + 1, p)):
                yield from rec(v + 1, rem2, adj2)

    yield from rec(0, list(row), [0] * p)


@cache
def exhaustive_polyhedra(p: int, q: int) -> tuple[Graph, ...]:
    """Census by direct filtration; shares no generation machinery with
    enumerate_polyhedra.

    p <= 7 scans every q-subset of vertex pairs; p = 8 scans labelled
    graphs realizing each admissible degree vector.
    """
    if p < 4 or q < 6 or q > 3 * p - 6 or 2 * q < 3 * p:
        return ()
    if p > 8:
        raise ValueError("direct filtration is kept to p <= 8")
    found: dict[CanonicalForm, Graph] = {}
    if p <= 7:
        pairs = list(combinations(range(p), 2))
        for chosen in combinations(pairs, q):
            degs = [0] * p
            for a, b in chosen:
                degs[a] += 1
                degs[b] += 1
            if min(degs) < 3:
                continue
            g = Graph.from_edges(p, chosen)
            if is_3_connected(g) and is_planar(g):
                cf = canonical_form(g)
                if cf not in found:
                    found[cf] = canonical_graph(g)
    else:
        for row in _degree_rows(p, q):
            for g in _labeled_graphs_with_degrees(row):
                if is_3_connected(g) and is_planar(g):
                    cf = canonical_form(g)
                    if cf not in found:
                        found[cf] = canonical_graph(g)
    return _sorted_classes(found)
