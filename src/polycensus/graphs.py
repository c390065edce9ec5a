"""Immutable simple graphs on at most 16 vertices, stored as adjacency bit rows.

Also the low-level walk the other modules share, ``bits`` over a row,
and the two named graphs the package and its README use: ``complete``
and ``complete_multipartite``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

MAX_VERTICES = 16


# set bit positions of every byte value, for the low and the high byte
_LOW = tuple(tuple(i for i in range(8) if m >> i & 1) for m in range(256))
_HIGH = tuple(tuple(i + 8 for i in range(8) if m >> i & 1) for m in range(256))


# 1 << v for every vertex v, to sum vertex masks without a generator
_BIT = tuple(1 << v for v in range(MAX_VERTICES))


def bits(mask: int) -> tuple[int, ...]:
    """Set bit positions of ``mask``, lowest first; ``0 <= mask < 1 << 16``."""
    return _LOW[mask & 255] + _HIGH[mask >> 8]


class _Value:
    """An immutable value whose fields are its class's ``__slots__``:
    equal when of the same class with equal fields, hashed as the tuple
    of its fields, shown and pickled as a call of its constructor on
    them."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class DegreeSequence(_Value):
    """Weakly decreasing vertex degrees with an even sum, an immutable
    value like ``Graph``."""

    __slots__ = ("degrees",)
    degrees: tuple[int, ...]

    def __init__(self, degrees: Iterable[int]) -> None:
        degrees = tuple(degrees)
        if not degrees:
            raise ValueError("degree sequence must be non-empty")
        p = len(degrees)
        if any(d < 0 or d > p - 1 for d in degrees):
            raise ValueError(f"degrees must lie in 0..{p - 1}: {degrees}")
        if any(degrees[i] < degrees[i + 1] for i in range(p - 1)):
            raise ValueError(f"degree sequence must be weakly decreasing: {degrees}")
        if sum(degrees) % 2:
            raise ValueError(f"degree sum must be even: {degrees}")
        object.__setattr__(self, "degrees", degrees)

    @property
    def p(self) -> int:
        return len(self.degrees)

    @property
    def q(self) -> int:
        return sum(self.degrees) // 2

    def complement(self) -> DegreeSequence:
        """Degree sequence of the complement of any graph with this sequence.

        Vertex of degree d on p vertices has degree p-1-d in the complement,
        so the sorted sequence is mirrored entry-wise.
        """
        p = self.p
        return DegreeSequence(tuple(p - 1 - d for d in reversed(self.degrees)))

    def compact(self) -> str:
        """Digit string like ``44443333``; only defined for degrees <= 9."""
        if any(d > 9 for d in self.degrees):
            raise ValueError("compact form needs single-digit degrees")
        return "".join(str(d) for d in self.degrees)

    def __iter__(self) -> Iterator[int]:
        return iter(self.degrees)

    def __len__(self) -> int:
        return len(self.degrees)

    def __getitem__(self, i: int) -> int:
        return self.degrees[i]


class Graph(_Value):
    """Simple undirected graph; ``adj[v]`` is the neighbour bitmask of
    vertex ``v``; an immutable value with the fields ``p`` and ``adj``."""

    __slots__ = ("p", "adj")
    p: int
    adj: tuple[int, ...]

    def __init__(self, p: int, adj: Iterable[int]) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "adj", tuple(adj))
        self.__post_init__()

    def __post_init__(self) -> None:
        """The checks every public construction makes; ``_derived`` skips
        them.  A method of its own so that a layer trace can wrap it."""
        p, adj = self.p, self.adj
        if not isinstance(p, int) or not 1 <= p <= MAX_VERTICES:
            raise ValueError(f"order must be 1..{MAX_VERTICES}, got {p!r}")
        if len(adj) != p:
            raise ValueError(f"expected {p} adjacency rows, got {len(adj)}")
        full = (1 << p) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"row {v} references vertices outside 0..{p - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v in range(p):
            for u in bits(adj[v]):
                if not (adj[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")

    @classmethod
    def _derived(cls, p: int, adj: tuple[int, ...]) -> Graph:
        """A graph on rows the package built itself, unchecked.

        Only for rows that cannot break the invariants ``__post_init__``
        checks: those of a valid graph with an edge removed, a
        permutation applied, a vertex split or complemented, and the rows
        ``graph6.decode`` reads, which join each pair i < j < n it finds
        both ways and nothing else, so they are symmetric, loop-free and
        inside 0..n-1.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "p", p)
        object.__setattr__(g, "adj", adj)
        return g

    @classmethod
    def from_edges(cls, p: int, edges: Iterable[tuple[int, int]]) -> Graph:
        rows = [0] * p
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v})")
            if not (0 <= u < p and 0 <= v < p):
                raise ValueError(f"edge ({u}, {v}) out of range for order {p}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(p, tuple(rows))

    @property
    def q(self) -> int:
        """Number of edges."""
        return sum(map(int.bit_count, self.adj)) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Undirected edges as (u, v) with u < v, lexicographic order."""
        for u in range(self.p):
            high = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(high):
                yield (u, v)

    def remove_edge(self, u: int, v: int) -> Graph:
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph._derived(self.p, tuple(rows))

    def complement(self) -> Graph:
        full = (1 << self.p) - 1
        return Graph._derived(
            self.p,
            tuple((full ^ row ^ (1 << v)) for v, row in enumerate(self.adj)),
        )

    def degree_sequence(self) -> DegreeSequence:
        return DegreeSequence(
            tuple(sorted((row.bit_count() for row in self.adj), reverse=True))
        )

    def relabel(self, perm: Iterable[int]) -> Graph:
        """Apply a permutation (old vertex -> new vertex) to the labelling."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.p)):
            raise ValueError(f"not a permutation of 0..{self.p - 1}: {perm}")
        rows = [0] * self.p
        for v in range(self.p):
            new_row = 0
            for u in bits(self.adj[v]):
                new_row |= 1 << perm[u]
            rows[perm[v]] = new_row
        return Graph._derived(self.p, tuple(rows))


# ====== Named constructions ======
# K_p, whose K4 starts the census, and the complete multipartite graphs,
# such as the octahedron K2,2,2; tests build the rest from edge lists.


def complete(p: int) -> Graph:
    full = (1 << p) - 1
    return Graph(p, tuple(full ^ (1 << v) for v in range(p)))


def complete_multipartite(*sizes: int) -> Graph:
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    p = sum(sizes)
    part = []
    for i, s in enumerate(sizes):
        part += [i] * s
    edges = [(u, v) for u, v in combinations(range(p), 2) if part[u] != part[v]]
    return Graph.from_edges(p, edges)
