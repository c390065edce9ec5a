"""graph6 codec: the compact printable-ASCII format for small simple graphs.

The order is one byte (value + 63, for orders below 63).  The upper triangle
of the adjacency matrix follows in column order -- (0,1), (0,2), (1,2),
(0,3), ... -- packed big-endian into 6-bit groups, each group + 63.
"""

from __future__ import annotations

from .graphs import MAX_VERTICES, Graph

HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; ``position`` is the offending character index."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


def encode(g: Graph) -> str:
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
    # the 6-bit groups as one integer, the first bit highest
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
