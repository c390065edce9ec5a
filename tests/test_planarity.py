import random

import pytest

import polycensus as pc
from polycensus import NonPlanarGraphError, NotPolyhedralError, dual, embed, is_planar
from polycensus import planarity
from tests.oracles import (
    brute_blocks,
    empty_graph,
    glued_graph,
    icosahedron,
    kuratowski_oracle,
    path,
    plain_embed_block,
    random_graph,
    sample_graphs,
    shuffled,
    wheel,
)


def cube():
    return pc.Graph.from_edges(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (1, 5), (2, 6), (3, 7)],
    )


def petersen_minus_vertex():
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    edges = [e for e in outer + inner + spokes if 9 not in e]
    return pc.Graph.from_edges(9, edges)


def test_planarity_basics():
    assert is_planar(pc.complete(4))
    assert is_planar(cube())
    assert is_planar(path(8))
    assert not is_planar(pc.complete(5))
    assert not is_planar(pc.complete_multipartite(3, 3))


def test_kuratowski_examples():
    assert kuratowski_oracle(pc.complete(4))
    assert kuratowski_oracle(path(8))  # trees are planar
    assert not kuratowski_oracle(pc.complete(5))
    assert not kuratowski_oracle(pc.complete_multipartite(3, 3))
    g = petersen_minus_vertex()
    assert not kuratowski_oracle(g)
    assert not is_planar(g)


def test_kuratowski_finds_subdivisions():
    # K5 with two edges subdivided: no K5 on the nose, still non-planar
    g = pc.complete(5)
    g = g.remove_edge(0, 1).remove_edge(2, 3)
    edges = list(g.edges()) + [(0, 5), (5, 1), (2, 6), (6, 3)]
    sub = pc.Graph.from_edges(7, edges)
    assert not kuratowski_oracle(sub)
    assert not is_planar(sub)


def test_kuratowski_guard():
    with pytest.raises(ValueError):
        kuratowski_oracle(pc.complete(10))


def test_kuratowski_equals_is_planar_exhaustive(universe):
    for g in universe:
        assert is_planar(g) == kuratowski_oracle(g), pc.encode(g)


def test_kuratowski_equals_is_planar_sampled():
    for p, seed in ((8, 2088), (9, 2099)):
        for g in sample_graphs(p, 40, seed):
            assert is_planar(g) == kuratowski_oracle(g), pc.encode(g)
    for q in (12, 13, 14):
        for g in pc.enumerate_polyhedra(8, q):
            h = g.complement()
            assert is_planar(h) == kuratowski_oracle(h)


def test_embed_face_counts():
    assert sorted(map(len, embed(pc.complete(4)))) == [3, 3, 3, 3]
    assert sorted(map(len, embed(cube()))) == [4] * 6
    # square pyramid: four triangles and the base
    assert sorted(map(len, embed(wheel(4)))) == [3, 3, 3, 3, 4]
    assert sorted(map(len, embed(icosahedron()))) == [3] * 20
    for g in pc.enumerate_polyhedra(8, 14):
        assert len(embed(g)) == 8
    for g in pc.enumerate_polyhedra(8, 13):
        assert len(embed(g)) == 7


def test_embed_requires_connected():
    g = pc.Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(ValueError, match="connected"):
        embed(g)


def test_embed_rejects_nonplanar():
    with pytest.raises(NonPlanarGraphError):
        embed(pc.complete(5))
    with pytest.raises(NonPlanarGraphError):
        embed(petersen_minus_vertex())


def test_embed_handles_cut_vertices_and_bridges():
    # two triangles joined by a bridge, a star, K1 and K2 are not
    # 2-connected: no embedding, and so no dual
    bridged = pc.Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
    )
    star = pc.Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    for g in (bridged, star, empty_graph(1), pc.complete(2)):
        with pytest.raises(ValueError, match="2-connected"):
            embed(g)
        with pytest.raises(NotPolyhedralError):
            dual(g)


def test_block_pieces_match_the_block_oracle(universe):
    # every block with two or more edges, each once, with its rows,
    # compared as sets: no output reads the order of the pieces
    rng = random.Random(2515)
    corpus = list(universe)
    for _ in range(300):
        p = rng.randint(2, 16)
        corpus.append(glued_graph(p, rng))
        corpus.append(random_graph(p, rng.randint(p - 1, min(2 * p, p * (p - 1) // 2)), rng))
    for g in corpus:
        pieces = planarity._block_pieces(g)
        found = {(tuple(vs), tuple(rows)) for vs, rows in pieces}
        assert len(found) == len(pieces) and found == brute_blocks(g), pc.encode(g)


def test_euler_formula_census(census):
    for (p, q), graphs in census.items():
        for g in graphs:
            assert len(embed(g)) == q - p + 2


def test_face_size_multiset_is_embedding_invariant(census):
    """Whitney: a 3-connected planar graph has one embedding, so the
    face size multiset cannot depend on the labeling we embed."""
    rng = random.Random(31)
    for graphs in census.values():
        for g in graphs:
            sizes = sorted(map(len, embed(g)))
            for _ in range(3):
                assert sorted(map(len, embed(shuffled(g, rng)))) == sizes


def test_embed_face_order():
    # dual numbers its vertices in this order
    assert embed(pc.complete(4)) == ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2))
    assert embed(wheel(4)) == (
        (0, 1, 4), (0, 4, 3), (1, 2, 4), (2, 3, 4), (0, 3, 2, 1),
    )


def _walks(embedder, vs, adj):
    try:
        return embedder(vs, adj)
    except NonPlanarGraphError:
        return None


def test_embed_block_matches_the_plain_embedder(universe):
    # the bitmask embedder makes every choice the plain one makes, so it
    # returns the same face walks in the same order, or fails alike
    rng = random.Random(1316)
    corpus = list(universe)
    for q in range(6, 17):
        for classes in pc.enumerate_by_size(q).values():
            for g in classes:
                corpus += [g, shuffled(g, rng), g.complement()]
    for _ in range(1000):
        p = rng.randint(5, 16)
        corpus.append(random_graph(p, rng.randint(p, 3 * p - 6), rng))
    verdicts = set()
    for g in corpus:
        for vs, rows in planarity._block_pieces(g):
            walks = _walks(planarity._embed_block, vs, rows)
            plain = _walks(plain_embed_block, vs, {v: rows[v] for v in vs})
            assert walks == plain, pc.encode(g)
            verdicts.add(walks is None)
    assert verdicts == {False, True}
