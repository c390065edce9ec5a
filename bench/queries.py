"""The seeded query stream and the checks on its answers.

Every base graph is built with facts known by construction, then sent
twice under two independent random relabellings, so the answers must
also agree between the twins.  Each line gets ``check`` and
``complement``; lines whose graph is polyhedral with at most 16 faces
also get ``dual``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

import refgraph as rg

# base graphs per stream; each is sent twice
TRIANGULATIONS = 150  # 4..10 vertices, so at most 16 faces
TRIANGULATION_DUALS = 70
GLUED = 60
KURATOWSKI = 60
GNM = 100
# one triangulation on each of 11..16 vertices: 18..28 faces.  `check`
# builds the dual to test self-duality and exits 2 on these at the seed
# commit; they stay in the stream so that failure stays visible.
LARGE_ORDERS = range(11, 17)

FLAGS = ("planar", "3-connected", "polyhedral", "self-dual", "self-complementary")


@dataclass
class Query:
    line: str
    family: str
    base: int
    facts: dict[str, bool]
    dual: tuple[int, ...] | None  # expected dual class; None: no dual query
    adj: tuple[int, ...] = field(repr=False, default=())

    @property
    def cmds(self) -> tuple[str, ...]:
        return ("check", "complement") + (("dual",) if self.dual is not None else ())


def _facts(adj, **known: bool) -> dict[str, bool]:
    """Known flags, plus two that follow from p and q alone."""
    p, q = len(adj), rg.edge_count(adj)
    facts = {k.replace("_", "-").replace("three", "3"): v for k, v in known.items()}
    if p >= 3 and q > 3 * p - 6:
        facts["planar"] = False
    if 4 * q != p * (p - 1):
        facts["self-complementary"] = False
    if facts.get("planar") is False or facts.get("3-connected") is False:
        facts["polyhedral"] = False
    if facts.get("polyhedral") is False:
        facts["self-dual"] = False
    return facts


def _polyhedron(adj, self_dual: bool) -> dict[str, bool]:
    return _facts(adj, planar=True, three_connected=True, polyhedral=True, self_dual=self_dual)


def _triangulation(n: int, rng: random.Random):
    faces = rg.random_triangulation(n, rng)
    return rg.from_edges(n, rg.face_edges(faces)), faces


def _kuratowski(rng: random.Random) -> tuple[int, ...]:
    """A K5 or K3,3 subdivision with extra edges, at most 3p - 6 of them."""
    if rng.random() < 0.5:
        n, edges = 5, list(combinations(range(5), 2))
    else:
        n, edges = 6, [(a, b) for a in range(3) for b in range(3, 6)]
    for _ in range(rng.randint(1, 16 - n)):
        a, b = edges.pop(rng.randrange(len(edges)))
        edges += [(a, n), (n, b)]
        n += 1
    present = {(min(e), max(e)) for e in edges}
    absent = [e for e in combinations(range(n), 2) if e not in present]
    rng.shuffle(absent)
    room = 3 * n - 6 - len(present)
    present.update(absent[: rng.randint(0, room)])
    return rg.from_edges(n, present)


def _glued(rng: random.Random) -> tuple[int, ...]:
    """Two triangulations sharing one vertex: planar, not 3-connected."""
    a = rng.randint(4, 12)
    b = rng.randint(4, 17 - a)
    ea = rg.face_edges(rg.random_triangulation(a, rng))
    eb = rg.face_edges(rg.random_triangulation(b, rng))
    cut = rng.randrange(a)
    move = {0: cut} | {v: a + v - 1 for v in range(1, b)}
    return rg.from_edges(a + b - 1, list(ea) + [(move[u], move[v]) for u, v in eb])


def _gnm(rng: random.Random) -> tuple[int, ...]:
    n = rng.randint(5, 16)
    m = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
    return rg.from_edges(n, rng.sample(list(combinations(range(n), 2)), m))


def symmetric_set():
    """(name, graph, facts, expected dual) for the fixed symmetric members."""
    out = []
    not_3c = dict(three_connected=False)
    for k in range(5, 9):
        g = rg.disjoint_cliques(k, 2)
        out.append((f"{k}K2", g, _facts(g, planar=True, **not_3c), None))
        c = rg.complement(g)  # cocktail party graph, (2k - 2)-connected
        out.append((f"co-{k}K2", c, _facts(c, three_connected=True), None))
    for k in (3, 4):
        g = rg.disjoint_cliques(k, 4)
        out.append((f"{k}K4", g, _facts(g, planar=True, **not_3c), None))
        c = rg.complement(g)  # complete multipartite, 8- or 12-connected
        out.append((f"co-{k}K4", c, _facts(c, three_connected=True), None))
    nonplanar_3c = dict(planar=False, three_connected=True)
    named = [
        ("Q4", rg.hamming16({1})),
        ("rook4x4", rg.cayley_z4z4([(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)])),
        ("Shrikhande", rg.cayley_z4z4([(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)])),
        ("Clebsch", rg.hamming16({1, 4})),
        ("K8,8", rg.complete_bipartite(8, 8)),
    ]
    out += [(name, g, _facts(g, **nonplanar_3c), None) for name, g in named]
    c16 = rg.cycle(16)
    out.append(("C16", c16, _facts(c16, planar=True, **not_3c), None))
    # symmetric members on which `check` reaches canonical labelling:
    # Paley graphs through the self-complementary test, wheels through
    # the self-dual test
    p13 = rg.paley(13)
    out.append(("Paley13", p13, _facts(p13, self_complementary=True, **nonplanar_3c), None))
    c5 = rg.paley(5)
    out.append(("Paley5", c5, _facts(c5, planar=True, self_complementary=True, **not_3c), None))
    for rim in range(3, 16):
        w, faces = rg.wheel(rim)
        # the hub would need a degree-0 partner to be self-complementary
        facts = _polyhedron(w, True) | {"self-complementary": False}
        out.append((f"W{rim}", w, facts, rg.face_dual(faces)))
    return out


def build_stream(seed: int) -> list[Query]:
    rng = random.Random(seed)
    bases: list[tuple[str, tuple[int, ...], dict, tuple | None]] = []
    for _ in range(TRIANGULATIONS):
        n = rng.randint(4, 10)
        g, faces = _triangulation(n, rng)
        bases.append(("triangulation", g, _polyhedron(g, n == 4), rg.face_dual(faces)))
    for n in LARGE_ORDERS:
        g, _ = _triangulation(n, rng)
        bases.append(("triangulation, over 16 faces", g, _polyhedron(g, False), None))
    for _ in range(TRIANGULATION_DUALS):
        n = rng.randint(4, 10)
        g, faces = _triangulation(n, rng)
        d = rg.face_dual(faces)
        bases.append(("triangulation dual", d, _polyhedron(d, n == 4), g))
    for _ in range(GLUED):
        g = _glued(rng)
        bases.append(("glued at a cut vertex", g, _facts(g, planar=True, three_connected=False), None))
    for _ in range(KURATOWSKI):
        g = _kuratowski(rng)
        bases.append(("Kuratowski subdivision", g, _facts(g, planar=False), None))
    for _ in range(GNM):
        g = _gnm(rng)
        bases.append(("G(n, m)", g, _facts(g), None))
    bases += [("symmetric " + name, g, f, d) for name, g, f, d in symmetric_set()]

    stream = []
    for base, (family, g, facts, dual) in enumerate(bases):
        for _ in range(2):
            h = rg.shuffled(g, rng)
            stream.append(Query(rg.encode(h), family, base, facts, dual, h))
    rng.shuffle(stream)
    return stream


def parse_check(text: str) -> dict[str, bool] | None:
    try:
        pairs = dict(word.split("=") for word in text.split())
    except ValueError:
        return None
    if tuple(pairs) != FLAGS or not set(pairs.values()) <= {"true", "false"}:
        return None
    return {k: v == "true" for k, v in pairs.items()}


def wrong_answer(query: Query, cmd: str, out: str) -> str | None:
    """Why the answer to one successful call is wrong, or None."""
    out = out.strip()
    if cmd == "complement":
        want = rg.encode(rg.complement(query.adj))
        return None if out == want else f"complement {out!r}, expected {want!r}"
    if cmd == "dual":
        try:
            got = rg.decode(out)
        except (IndexError, ValueError):
            return f"dual output {out!r} is not graph6"
        return None if rg.isomorphic(got, query.dual) else f"dual {out!r} in the wrong class"
    flags = parse_check(out)
    if flags is None:
        return f"unparsable check output {out!r}"
    if flags["polyhedral"] != (flags["planar"] and flags["3-connected"]):
        return f"polyhedral flag contradicts the others: {out!r}"
    if flags["self-dual"] and not flags["polyhedral"]:
        return f"self-dual but not polyhedral: {out!r}"
    for key, want in query.facts.items():
        if flags[key] != want:
            return f"{key}={str(flags[key]).lower()}, known to be {str(want).lower()}"
    return None
