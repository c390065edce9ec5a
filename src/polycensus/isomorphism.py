"""Canonical forms and isomorphism tests via individualization-refinement.

The certificate is the minimum adjacency-matrix bit string over the
leaves of a search tree, prefixed with the order and size so
certificates of different-sized graphs never collide.  Equality of
certificates is equality of isomorphism classes.

The tree.  A node colours the vertices 0..k-1, an ordered partition.
Refinement recolours every vertex at once by the rank of its key (own
colour, sorted neighbour colours), round after round, until a round
splits no colour class.  The children of a node individualise each
member w of its first class of two or more vertices, in vertex order:
w keeps the class's colour, the other members take the next one, and
the result is refined.  A leaf has p colours and reads as a labelling
(vertex -> position).  The labelling returned is the first leaf, in
this depth-first order, whose packed adjacency bits are least; the
certificate and every catalog label read that exact leaf.  Four rules cut the work and keep that leaf:

* Refinement stops at a round that yields p classes: one more round
  would rank the same keys in the same order.
* A vertex alone in its class gets the key (colour,): keys compare by
  colour first, so its rank is what the full key would give.
* The root starts from degree ranks, which is exactly what the first
  round gives from a single class.
* Automorphism pruning at every depth.  Two leaves with equal bits
  differ by an automorphism of the graph, and the search keeps each
  one it finds against the best leaf.  At a node whose path
  individualised v1..vk, a member w is skipped when the kept
  automorphisms that fix v1..vk pointwise join w to an earlier member
  (a union-find over them gives the orbits).  Such an automorphism
  maps the node to itself and an earlier sibling's subtree onto w's,
  leaf for leaf with equal bits, so the first least leaf is never in
  w's subtree.  Only path-fixing automorphisms qualify: one that moved
  v1..vk could map w's subtree onto a later one.  A leaf determines
  its path (each individualised vertex takes the first position of its
  class), so the automorphism found at a tie maps the best leaf's path
  onto the new one's and fixes their common prefix; the rest of the new
  leaf's branch below that prefix is then skipped at once.  The root
  is the k = 0 case.

The first leaf is packed only when a second leaf needs comparing with
it; most planar inputs refine to a single leaf.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .graphs import Graph, bits


class CanonicalForm(NamedTuple):
    """Relabeling-invariant certificate; equal certificates <=> isomorphic."""

    certificate: bytes

    @property
    def hex(self) -> str:
        return self.certificate.hex()


def _refine(
    nbrs: list[tuple[int, ...]], colors: list[int], cells: int
) -> tuple[list[int], int]:
    """Split colour classes by neighbour-colour multisets until stable.

    ``nbrs[v]`` lists the neighbours of v, ``colors`` are ranks
    0..cells-1.  Output colors are ranks of invariant keys, so they do
    not depend on the labelling of the input graph beyond genuine
    structure; the class count is returned with them.
    """
    p = len(colors)
    while True:
        size = [0] * p
        for c in colors:
            size[c] += 1
        keys = [
            (c, sorted([colors[u] for u in nbrs[v]])) if size[c] > 1 else (c,)
            for v, c in enumerate(colors)
        ]
        order = sorted(range(p), key=keys.__getitem__)
        new = [0] * p
        rank = 0
        prev = keys[order[0]]
        for v in order:
            key = keys[v]
            if key != prev:
                rank += 1
                prev = key
            new[v] = rank
        if rank + 1 == cells:
            return colors, cells
        colors, cells = new, rank + 1
        if cells == p:
            return colors, cells


def _pack_bits(p: int, adj: tuple[int, ...], position: list[int]) -> int:
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


def _search(
    p: int, adj: tuple[int, ...]
) -> tuple[tuple[int, ...], list[list[int]]]:
    """Labelling (vertex -> position) minimizing the packed adjacency
    bits, and the automorphisms (v -> image) the search found at ties."""
    autos: list[list[int]] = []
    q2 = sum(row.bit_count() for row in adj)
    if q2 == 0 or q2 == p * (p - 1):
        return tuple(range(p)), autos  # empty or complete: every labelling ties

    # built per search, not cached: a cache would keep one list per graph
    nbrs = [bits(row) for row in adj]
    best_bits: int | None = None
    best_label: tuple[int, ...] = ()
    best_path: list[int] = []
    path: list[int] = []  # vertices individualised on the way to this node
    onward = p  # returned when the search goes on from the caller

    def leaf(colors: list[int]) -> int:
        """Take a leaf; return the depth whose node the search resumes at."""
        nonlocal best_bits, best_label, best_path
        if not best_label:
            best_label, best_path = tuple(colors), path[:]
            return onward
        if best_bits is None:
            best_bits = _pack_bits(p, adj, list(best_label))
        packed = _pack_bits(p, adj, colors)
        if packed < best_bits:
            best_bits, best_label, best_path = packed, tuple(colors), path[:]
            return onward
        if packed > best_bits:
            return onward
        at = [0] * p
        for v, c in enumerate(colors):
            at[c] = v
        autos.append([at[c] for c in best_label])
        # the tie maps the best leaf's path onto this one: it fixes their
        # common prefix and joins the two branches where they part
        k = 0
        while path[k] == best_path[k]:
            k += 1
        return k

    def node(colors: list[int], cells: int) -> int:
        if cells == p:
            return leaf(colors)
        depth = len(path)
        size = [0] * p
        for c in colors:
            size[c] += 1
        target = 0
        while size[target] == 1:
            target += 1
        # orbits of the kept automorphisms that fix the path, each
        # rooted at its least vertex; built once the first one is kept
        orbit: list[int] = []
        merged = 0
        for w in range(p):
            if colors[w] != target:
                continue
            if merged < len(autos):
                for g in autos[merged:]:
                    if any(g[v] != v for v in path):
                        continue
                    orbit = orbit or list(range(p))
                    for v, u in enumerate(g):
                        while orbit[v] != v:
                            v = orbit[v]
                        while orbit[u] != u:
                            u = orbit[u]
                        orbit[max(u, v)] = min(u, v)
                merged = len(autos)
            if orbit and orbit[w] != w:
                continue  # an earlier member's subtree maps onto w's
            path.append(w)
            # w keeps the class's colour, its other members take the next
            child = [
                c if c < target or u == w else c + 1 for u, c in enumerate(colors)
            ]
            resume = node(*_refine(nbrs, child, cells + 1))
            path.pop()
            if resume < depth:
                return resume
        return onward

    deg = [row.bit_count() for row in adj]
    rank = {d: i for i, d in enumerate(sorted(set(deg)))}
    node(*_refine(nbrs, [rank[d] for d in deg], len(rank)))
    return best_label, autos


def _certificate(g: Graph, label: tuple[int, ...]) -> CanonicalForm:
    p = g.p
    packed = _pack_bits(p, g.adj, list(label))
    nbits = p * (p - 1) // 2
    body = packed.to_bytes((nbits + 7) // 8, "big") if nbits else b""
    return CanonicalForm(bytes([p]) + g.q.to_bytes(2, "big") + body)


def _labelled_search(
    g: Graph,
) -> tuple[CanonicalForm, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Certificate, canonical labelling and kept automorphisms of ``g``
    from one uncached search.

    The automorphisms are returned in canonical labels: sigma on g
    becomes tau on the canonical graph, tau[label[v]] = label[sigma[v]].
    """
    label, autos = _search(g.p, g.adj)
    gens = []
    for sigma in autos:
        tau = [0] * g.p
        for v, c in enumerate(label):
            tau[c] = label[sigma[v]]
        gens.append(tuple(tau))
    return _certificate(g, label), label, tuple(gens)


# for the CLI and library callers: a stream of 958 query graphs fills 69
# entries, a cold classify 3
@lru_cache(maxsize=1 << 10)
def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """Permutation (old vertex -> canonical position) realizing the certificate."""
    return _search(g.p, g.adj)[0]


def canonical_form(g: Graph) -> CanonicalForm:
    return _certificate(g, canonical_labeling(g))


def are_isomorphic(a: Graph, b: Graph) -> bool:
    # the sorted degree rows hold p (their length) and q (half their sum)
    if a.degree_sequence() != b.degree_sequence():
        return False
    return canonical_form(a) == canonical_form(b)


def is_self_complementary(g: Graph) -> bool:
    # the graph and its complement split the p(p - 1)/2 pairs between them
    return 4 * g.q == g.p * (g.p - 1) and are_isomorphic(g, g.complement())
