import random

import polycensus as pc
from polycensus.connectivity import _connected_within
from tests.oracles import (
    brute_3_connected,
    cycle,
    empty_graph,
    neighbor_sets,
    sample_graphs,
    set_connected,
    wheel,
)


def is_connected(g):
    # the search that is_3_connected runs on each vertex subset, here on all
    return _connected_within(g.adj, (1 << g.p) - 1)


def test_is_connected_examples():
    assert is_connected(cycle(5))
    assert is_connected(empty_graph(1))
    assert not is_connected(empty_graph(2))
    two_triangles = pc.Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    assert not is_connected(two_triangles)


def test_is_connected_against_set_bfs(universe):
    for g in universe:
        expected = set_connected(range(g.p), neighbor_sets(g))
        assert is_connected(g) == expected


def test_3_connected_examples():
    assert pc.is_3_connected(pc.complete(4))
    assert pc.is_3_connected(wheel(6))
    assert pc.is_3_connected(pc.complete_multipartite(3, 3))
    assert not pc.is_3_connected(cycle(5))
    assert not pc.is_3_connected(pc.complete(3))  # below order 4 by definition
    # two triangles glued along an edge: a 2-cut
    g = pc.Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    assert not pc.is_3_connected(g)
    # every vertex of degree 1: a perfect matching 4K2
    matching = pc.Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    assert not pc.is_3_connected(matching)
    # K5 with a pendant vertex: the rest is 4-connected
    pendant = pc.Graph.from_edges(6, [*pc.complete(5).edges(), (0, 5)])
    assert not pc.is_3_connected(pendant)
    # minimum degree 3 on 8 vertices, past the exhaustive universe: cuts
    # of 0 and 1 vertices, which the pair deletions must still find
    k4 = list(pc.complete(4).edges())
    shifted = [(u + 4, v + 4) for u, v in k4]
    k5 = [(u + 3, v + 3) for u, v in pc.complete(5).edges()]
    cases = {
        "2K4": (pc.Graph.from_edges(8, k4 + shifted), False),
        "K4 and K5 sharing a vertex": (pc.Graph.from_edges(8, k4 + k5), False),
        "two K4s joined by an edge": (pc.Graph.from_edges(8, k4 + shifted + [(3, 4)]), False),
        "K4,4": (pc.complete_multipartite(4, 4), True),
    }
    for name, (g, expected) in cases.items():
        assert pc.is_3_connected(g) == brute_3_connected(g) == expected, name
    assert not pc.is_planar(cases["K4,4"][0])


def test_3_connected_against_oracle_exhaustive(universe):
    for g in universe:
        assert pc.is_3_connected(g) == brute_3_connected(g), pc.encode(g)


def test_3_connected_against_oracle_sampled():
    for p, seed in ((8, 1088), (9, 1099)):
        for g in sample_graphs(p, 40, seed):
            assert pc.is_3_connected(g) == brute_3_connected(g), pc.encode(g)


def test_3_connected_census_members_and_complements():
    rng = random.Random(3)
    for q in (12, 13, 14):
        for g in pc.enumerate_polyhedra(8, q):
            assert brute_3_connected(g)
            h = g.complement()
            assert pc.is_3_connected(h) == brute_3_connected(h)
    # spot check a few relabelings: connectivity is label-blind
    for g in pc.enumerate_polyhedra(8, 14)[:5]:
        perm = list(range(8))
        rng.shuffle(perm)
        assert pc.is_3_connected(g.relabel(tuple(perm)))

