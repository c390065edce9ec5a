import hashlib
import random
import sys
from itertools import combinations

import pytest

import polycensus as pc
from polycensus import NotPolyhedralError, cli, dual, embed, is_polyhedral, is_self_dual
from polycensus import planarity
from polycensus.duality import _three_connected_by_faces
from polycensus.enumeration import _dual_pairs
from tests.oracles import (
    brute_3_connected,
    complete_multipartite,
    cycle,
    icosahedron,
    kuratowski_oracle,
    neighbors,
    petersen,
    shuffled,
    wheel,
)


def cube():
    return pc.Graph.from_edges(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (1, 5), (2, 6), (3, 7)],
    )


def cuboctahedron():
    # the line graph of the cube: 12 vertices, 24 edges, 14 faces
    es = list(cube().edges())
    return pc.Graph.from_edges(
        12, [(i, j) for i, j in combinations(range(12), 2) if set(es[i]) & set(es[j])]
    )


def test_is_polyhedral():
    assert is_polyhedral(pc.complete(4))
    assert is_polyhedral(cube())
    assert is_polyhedral(complete_multipartite(2, 2, 2))
    assert not is_polyhedral(cycle(5))  # planar, not 3-connected
    assert not is_polyhedral(pc.complete(5))  # 3-connected, not planar
    assert not is_polyhedral(pc.complete(3))


def test_dual_parameters():
    # dual swaps vertex count with face count and keeps the size
    g = cube()
    d = dual(g)
    assert d.p == g.q - g.p + 2
    assert d.q == g.q
    assert pc.are_isomorphic(d, complete_multipartite(2, 2, 2))


def test_dual_of_dual():
    for g in (pc.complete(4), cube(), wheel(6)):
        assert pc.are_isomorphic(dual(dual(g)), g)


def test_dual_rejects_non_polyhedra():
    with pytest.raises(NotPolyhedralError):
        dual(cycle(6))
    with pytest.raises(NotPolyhedralError):
        dual(complete_multipartite(3, 3))
    # minimum degree 3 but a cut vertex: two K4s sharing vertex 0
    second = [(0, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6)]
    bowtie = pc.Graph.from_edges(7, [*pc.complete(4).edges(), *second])
    assert bowtie.q == 12 and min(bowtie.degree_sequence()) == 3
    with pytest.raises(NotPolyhedralError):
        dual(bowtie)
    assert not is_polyhedral(bowtie)
    # 3-connected and non-planar: K5, K6 and K4,4 exceed 3p - 6 edges,
    # the Petersen graph does not and fails inside the embedder
    for g in (pc.complete(5), pc.complete(6), complete_multipartite(4, 4), petersen()):
        assert pc.is_3_connected(g)
        with pytest.raises(NotPolyhedralError):
            dual(g)


def test_dual_embeds_once(monkeypatch):
    # the faces of the one embedding give 3-connectivity and the dual
    calls = []
    tests = []
    embed_block = planarity._embed_block
    three = pc.is_3_connected

    def counting(vs, adj):
        calls.append(vs)
        return embed_block(vs, adj)

    def counting_three(g):
        tests.append(g)
        return three(g)

    monkeypatch.setattr(planarity, "_embed_block", counting)
    for name, module in list(sys.modules.items()):
        if name.startswith("polycensus") and getattr(module, "is_3_connected", None) is three:
            monkeypatch.setattr(module, "is_3_connected", counting_three)
    g = cube()
    assert pc.are_isomorphic(dual(g), complete_multipartite(2, 2, 2))
    assert calls == [list(range(8))]
    assert tests == []


def test_dual_bytes_are_pinned(capsys):
    # faces are numbered in the embedder's sorted order, so the labelled
    # dual, and what `polycensus dual` prints, stay byte for byte the same
    assert pc.encode(dual(cube())) == "E}]w"
    assert pc.encode(dual(wheel(5))) == "EpVw"
    assert pc.encode(dual(cuboctahedron())) == "M????BSyDaHoIoDo?"
    # the icosahedron's dual, the dodecahedron, has more vertices than a
    # Graph may hold
    with pytest.raises(ValueError, match="order must be 1..16"):
        dual(icosahedron())
    assert cli.main(["dual", pc.encode(cube())]) == 0
    assert capsys.readouterr().out == "E}]w\n"


# sha256 over "encode(dual(h)) embed(h)" lines, h each census class with
# q <= 14 and then one relabelling of it, frozen from the embedder that
# kept a vertex mask per face
DUAL_EMBED_SHA256 = "c2e8442b72355ee5ce08a6a66fdda7c4633102a598de0f5ee9e7ac9522fb41a2"


def test_dual_and_embed_bytes_over_the_census(census):
    rng = random.Random(1497)
    digest = hashlib.sha256()
    count = 0
    for q in range(6, 15):
        for p in sorted(p for p, size in census if size == q):
            for g in census[p, q]:
                for h in (g, shuffled(g, rng)):
                    digest.update(f"{pc.encode(dual(h))} {embed(h)}\n".encode())
                    count += 1
    assert count == 2 * 102
    assert digest.hexdigest() == DUAL_EMBED_SHA256


def test_self_dual_examples():
    assert is_self_dual(pc.complete(4))
    # every wheel is self-dual: the pyramid over an n-gon
    for rim in (4, 5, 6):
        assert is_self_dual(wheel(rim))
    assert not is_self_dual(cube())
    assert not is_self_dual(complete_multipartite(2, 2, 2))


def test_self_dual_past_the_order_limit():
    # the dual has 20 vertices, more than a Graph may hold; the face
    # count alone settles the answer
    ico = icosahedron()
    assert ico.q == 30 and is_polyhedral(ico)
    assert ico.degree_sequence().compact() == "5" * 12
    assert not is_self_dual(ico)
    # a non-polyhedral input is still rejected, whatever its face count
    with pytest.raises(NotPolyhedralError):
        is_self_dual(complete_multipartite(3, 3))
    with pytest.raises(NotPolyhedralError):
        is_self_dual(cycle(6))


def test_dual_pairs_in_census():
    # the octahedron and the cube are each other's duals; they sit in
    # different orders of the same size class
    octa = complete_multipartite(2, 2, 2)
    assert pc.are_isomorphic(dual(octa), cube())
    assert pc.canonical_form(octa) in {
        pc.canonical_form(g) for g in pc.enumerate_polyhedra(6, 12)
    }
    assert pc.canonical_form(cube()) in {
        pc.canonical_form(g) for g in pc.enumerate_polyhedra(8, 12)
    }


def test_census_duals_polyhedral(census):
    for graphs in census.values():
        for g in graphs:
            assert is_polyhedral(dual(g))


def test_dual_of_dual_census(census):
    for graphs in census.values():
        for g in graphs:
            assert pc.are_isomorphic(dual(dual(g)), g)


def test_self_dual_split_at_8_14():
    graphs = pc.enumerate_polyhedra(8, 14)
    self_dual = [g for g in graphs if is_self_dual(g)]
    assert len(self_dual) == 16
    assert len(graphs) - len(self_dual) == 26


def test_self_dual_counts_on_the_line():
    # the published counts of self-dual polyhedra with p vertices, all on
    # q = 2p - 2; is_self_dual, which searches each class against its
    # face graph, agrees class by class with the census, which compares
    # the certificates of the two
    counts = []
    for p in range(4, 10):
        pairs = _dual_pairs(p, 2 * p - 2)
        flags = [is_self_dual(g) for g, *_ in pairs]
        assert flags == [cert == dual_cert for _, cert, dual_cert, _ in pairs]
        counts.append(sum(flags))
    assert counts == [1, 1, 2, 6, 16, 50]


def _glued_along_an_edge(s, t):
    """Triangulations s and t with an edge of each identified."""
    x, y = next(t.edges())
    rest = [v for v in range(t.p) if v not in (x, y)]
    image = {x: 0, y: neighbors(s, 0)[0]} | {v: s.p + k for k, v in enumerate(rest)}
    return pc.Graph.from_edges(
        s.p + t.p - 2, [*s.edges(), *((image[a], image[b]) for a, b in t.edges())]
    )


def test_face_test_against_brute_force(universe):
    # on a 2-connected plane graph, 3-connected iff no two faces share
    # two vertices but the ends of an edge between them
    graphs = []
    for g in universe:
        try:
            embed(g)  # 2-connected and planar
        except ValueError:
            continue
        graphs.append(g)
    for p in range(4, 9):
        for q in range((3 * p + 1) // 2, 3 * p - 5):
            for g in pc.enumerate_polyhedra(p, q):
                graphs.append(g)
                graphs += [g.remove_edge(a, b) for a, b in g.edges()]
    small = [t for p in (4, 5, 6, 7) for t in pc.triangulations(p)]
    graphs += [_glued_along_an_edge(s, t) for s in small for t in small]
    graphs += [cycle(n) for n in range(3, 17)]
    graphs += [complete_multipartite(2, n) for n in range(2, 15)]
    verdicts = {False: 0, True: 0}
    for g in graphs:
        faces = [sum(1 << x for x in f) for f in embed(g)]
        verdict = _three_connected_by_faces(g, faces)
        assert verdict == brute_3_connected(g), pc.encode(g)
        verdicts[verdict] += 1
    assert min(verdicts.values()) > 500, verdicts


def test_check_and_is_polyhedral_against_the_oracles(universe, capsys):
    # every graph through 7 vertices: the fields of `check` and
    # is_polyhedral against the subdivision search and the brute-force
    # cut search, which know nothing about embeddings or faces
    assert cli.main(["check", *map(pc.encode, universe)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(universe) == 1252
    word = {False: "false", True: "true"}
    for g, line in zip(universe, lines):
        planar, three = kuratowski_oracle(g), brute_3_connected(g)
        fields = dict(field.split("=") for field in line.split())
        assert fields["planar"] == word[planar], pc.encode(g)
        assert fields["3-connected"] == word[three], pc.encode(g)
        assert fields["polyhedral"] == word[planar and three], pc.encode(g)
        assert is_polyhedral(g) == (planar and three), pc.encode(g)
