"""Canonical forms and isomorphism tests via individualization-refinement.

The certificate is the minimum adjacency-matrix bit string over all
labelings compatible with iterated degree refinement, prefixed with the
order and size so certificates of different-sized graphs never collide.
Equality of certificates is equality of isomorphism classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph, bits


@dataclass(frozen=True, slots=True)
class CanonicalForm:
    """Relabeling-invariant certificate; equal certificates <=> isomorphic."""

    certificate: bytes

    @property
    def hex(self) -> str:
        return self.certificate.hex()

    @classmethod
    def from_hex(cls, text: str) -> CanonicalForm:
        return cls(bytes.fromhex(text))

    @property
    def p(self) -> int:
        return self.certificate[0]

    @property
    def q(self) -> int:
        return int.from_bytes(self.certificate[1:3], "big")


def _refine(nbrs: list[tuple[int, ...]], colors: list[int]) -> list[int]:
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


def _search(p: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    """Labelling (vertex -> position) minimizing the packed adjacency bits."""
    q2 = sum(row.bit_count() for row in adj)
    if q2 == 0 or q2 == p * (p - 1):
        return tuple(range(p))  # empty or complete: every labelling ties

    # built per search, not cached: a cache would keep one list per graph
    nbrs = [bits(row) for row in adj]
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
        packed = _pack_bits(p, adj, colors)
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
            child = _refine(
                nbrs, [colors[u] * 2 + (0 if u == v else 1) for u in range(p)]
            )
            rec(child, depth + 1)

    rec(_refine(nbrs, [0] * p), 0)
    assert best_label is not None
    return best_label


@lru_cache(maxsize=1 << 17)
def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """Permutation (old vertex -> canonical position) realizing the certificate."""
    return _search(g.p, g.adj)


def canonical_graph(g: Graph) -> Graph:
    return g.relabel(canonical_labeling(g))


def canonical_form(g: Graph) -> CanonicalForm:
    p = g.p
    packed = _pack_bits(p, g.adj, list(canonical_labeling(g)))
    nbits = p * (p - 1) // 2
    body = packed.to_bytes((nbits + 7) // 8, "big") if nbits else b""
    return CanonicalForm(bytes([p]) + g.q.to_bytes(2, "big") + body)


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.p != b.p or a.q != b.q:
        return False
    if a.degree_sequence() != b.degree_sequence():
        return False
    return canonical_form(a) == canonical_form(b)


def is_self_complementary(g: Graph) -> bool:
    return are_isomorphic(g, g.complement())
