"""graph6 codec: the compact printable-ASCII format for small simple graphs.

The order is one byte (value + 63, for orders below 63).  The upper triangle
of the adjacency matrix follows in column order -- (0,1), (0,2), (1,2),
(0,3), ... -- packed big-endian into 6-bit groups, each group + 63.
"""

from __future__ import annotations

from .graphs import MAX_VERTICES, Graph, bits

HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; ``position`` is the offending character index."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


# the pairs i < j in column order, one bit each
_PAIRS = tuple((i, j) for j in range(1, MAX_VERTICES) for i in range(j))


def encode(g: Graph) -> str:
    p, adj = g.p, g.adj
    # each group starts at 63, and each edge adds its bit to its group
    groups = [63] * ((p * (p - 1) // 2 + 5) // 6)
    for j in range(1, p):
        base = j * (j - 1) // 2
        for i in bits(adj[j] & ((1 << j) - 1)):
            t = base + i
            groups[t // 6] += 32 >> t % 6
    return chr(63 + p) + bytes(groups).decode()


def decode(text: str) -> Graph:
    s = text.strip()
    # positions index ``text`` as given: skip its leading whitespace and header
    at = len(text) - len(text.lstrip())
    if s.startswith(HEADER):
        s = s[len(HEADER):]
        at += len(HEADER)
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
    body = s[1:]
    if body and (min(body) < "?" or max(body) > "~"):
        k = 1 + next(k for k, ch in enumerate(body) if not "?" <= ch <= "~")
        raise Graph6Error(f"character {s[k]!r} outside graph6 range", at + k)
    # the 6-bit groups as one integer, the first bit highest, so pair t
    # is bit size - 1 - t
    data = 0
    for byte in body.encode():
        data = data << 6 | byte - 63
    size = 6 * len(body)
    if data & ((1 << size - nbits) - 1):
        raise Graph6Error("nonzero padding bits", at + expect - 1)
    rows = [0] * n
    while data:
        low = data & -data
        data ^= low
        i, j = _PAIRS[size - low.bit_length()]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, tuple(rows))
