import random

import pytest

import polycensus as pc
from polycensus import NonPlanarGraphError, RotationSystem, embed, is_planar
from tests.oracles import icosahedron, kuratowski_oracle, sample_graphs, shuffled


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
    assert is_planar(pc.path(8))
    assert not is_planar(pc.complete(5))
    assert not is_planar(pc.complete_bipartite(3, 3))


def test_kuratowski_examples():
    assert kuratowski_oracle(pc.complete(4))
    assert kuratowski_oracle(pc.path(8))  # trees are planar
    assert not kuratowski_oracle(pc.complete(5))
    assert not kuratowski_oracle(pc.complete_bipartite(3, 3))
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
    assert sorted(map(len, embed(pc.complete(4)).faces())) == [3, 3, 3, 3]
    assert sorted(map(len, embed(cube()).faces())) == [4] * 6
    # square pyramid: four triangles and the base
    assert sorted(map(len, embed(pc.wheel(4)).faces())) == [3, 3, 3, 3, 4]
    for g in pc.enumerate_polyhedra(8, 14):
        assert len(embed(g).faces()) == 8
    for g in pc.enumerate_polyhedra(8, 13):
        assert len(embed(g).faces()) == 7


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
    # two triangles joined by a bridge: blocks must be merged
    g = pc.Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
    )
    rs = embed(g)
    assert len(rs.faces()) == g.q - g.p + 2
    star = pc.Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert embed(star).faces() == ((0, 1, 0, 2, 0, 3, 0, 4),)
    assert embed(pc.empty_graph(1)).faces() == ((0,),)


def test_euler_formula_census(census):
    for (p, q), graphs in census.items():
        for g in graphs:
            assert len(embed(g).faces()) == q - p + 2


def test_face_size_multiset_is_embedding_invariant(census):
    """Whitney: a 3-connected planar graph has one embedding, so the
    face size multiset cannot depend on the labeling we embed."""
    rng = random.Random(31)
    for graphs in census.values():
        for g in graphs:
            sizes = sorted(map(len, embed(g).faces()))
            for _ in range(3):
                assert sorted(map(len, embed(shuffled(g, rng)).faces())) == sizes


def test_rotation_system_type():
    rs = embed(pc.complete(4))
    assert rs.p == 4
    assert rs.degree(0) == 3
    # dual numbers its vertices in this order
    assert rs.faces() == ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2))
    assert embed(pc.wheel(4)).faces() == (
        (0, 1, 4), (0, 4, 3), (1, 2, 4), (2, 3, 4), (0, 3, 2, 1),
    )
    with pytest.raises(ValueError):
        RotationSystem(((1, 1), (0, 0)))  # repeated neighbor
    with pytest.raises(ValueError):
        RotationSystem(((1,), ()))  # asymmetric


def test_trace_faces_on_explicit_rotation():
    # K4 with the planar rotation: each face is a triangle
    rs = RotationSystem(((1, 2, 3), (2, 0, 3), (0, 1, 3), (0, 2, 1)))
    faces = rs.faces()
    assert len(faces) == 4
    assert sorted(map(len, faces)) == [3, 3, 3, 3]
    # flipping one rotation breaks planarity of the embedding: the
    # same graph now traces a torus-like face structure
    rs_twisted = RotationSystem(((1, 2, 3), (2, 0, 3), (0, 1, 3), (0, 1, 2)))
    assert len(rs_twisted.faces()) != 4


def test_faces_past_sixteen_vertices():
    # the dodecahedron, drawn as the dual of the embedded icosahedron:
    # face k becomes vertex k, its rotation the faces across its edges
    # in boundary order.  With 20 vertices its darts outnumber what a
    # 16-vertex dart index could tell apart.
    faces = embed(icosahedron()).faces()
    side = {(f[k], f[(k + 1) % 3]): i for i, f in enumerate(faces) for k in range(3)}
    rotations = tuple(
        tuple(side[f[(k + 1) % 3], f[k]] for k in range(3)) for f in faces
    )
    dodecahedron = RotationSystem(rotations)
    assert dodecahedron.p == 20
    assert [len(f) for f in dodecahedron.faces()] == [5] * 12
