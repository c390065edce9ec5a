import copy
import pickle

import pytest

import polycensus as pc
from polycensus import DegreeSequence, Graph
from polycensus.graphs import bits
from tests.oracles import (
    add_edge,
    complete_multipartite,
    cycle,
    empty_graph,
    icosahedron,
    neighbors,
    path,
    sample_graphs,
    wheel,
)


def test_from_edges_roundtrip():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.p == 4
    assert g.q == 4
    assert list(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)


def test_degrees_and_neighbors():
    g = wheel(4)
    # hub is vertex 4, rim 0..3
    assert g.degree(4) == 4
    assert neighbors(g, 4) == (0, 1, 2, 3)
    assert neighbors(g, 0) == (1, 3, 4)
    assert g.degree_sequence() == DegreeSequence((4, 3, 3, 3, 3))
    assert sum(g.degree(v) for v in range(g.p)) == 2 * g.q


def test_bits_every_mask():
    def lowest_first(mask):
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)

    for m in range(1 << 16):
        assert tuple(bits(m)) == lowest_first(m)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(17, [])  # above the 16-vertex cap
    with pytest.raises(ValueError):
        Graph.from_edges(0, [])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])  # self-loop
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 5)])  # out of range
    with pytest.raises(ValueError):
        Graph(2, (2,))  # wrong row count
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric


def test_public_construction_checks_what_derived_graphs_skip():
    """Edge removal, relabelling and vertex splits build their rows
    unchecked; every public way to make a graph still checks."""
    bad_rows = [
        (3, (0b001, 0, 0)),  # self-loop
        (3, (0b010, 0, 0)),  # asymmetric row
        (3, (0b1000, 0, 0)),  # bit outside 0..p-1
        (0, ()),
        (17, (0,) * 17),
    ]
    for p, rows in bad_rows:
        with pytest.raises(ValueError):
            Graph(p, rows)
    for p, edges in [(3, [(1, 1)]), (3, [(0, 3)]), (0, []), (17, [])]:
        with pytest.raises(ValueError):
            Graph.from_edges(p, edges)
    with pytest.raises(ValueError, match="order must be 1..16"):
        pc.dual(icosahedron())  # the dodecahedron: 20 vertices
    g = wheel(5)
    for h in (g.remove_edge(0, 5), g.relabel((5, 4, 3, 2, 1, 0)), g.complement()):
        assert h == Graph(h.p, h.adj)


def test_value_semantics():
    """Graphs, degree sequences and certificates are immutable values:
    equal by fields, hashed as the tuple of their fields."""
    g = cycle(4)
    cf = pc.canonical_form(g)
    cases = [
        (g, {"p": 4, "adj": (0b1010, 0b0101, 0b1010, 0b0101)}),
        (g.degree_sequence(), {"degrees": (2, 2, 2, 2)}),
        (cf, {"certificate": cf.certificate}),
    ]
    for value, fields in cases:
        cls = type(value)
        assert cls(*fields.values()) == value == cls(**fields)
        assert hash(value) == hash(tuple(fields.values()))
        shown = ", ".join(f"{k}={v!r}" for k, v in fields.items())
        assert repr(value) == f"{cls.__name__}({shown})"
        assert pickle.loads(pickle.dumps(value)) == value == copy.copy(value)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, fields[name])
    assert g != path(4) and g != Graph(5, (0,) * 5)
    assert g.degree_sequence() != DegreeSequence((2, 2, 1, 1))
    # no equality across classes with the same fields
    assert g != (4, g.adj) and DegreeSequence((0,)) != (0,)
    with pytest.raises(AttributeError):
        del g.p


def test_list_input_is_stored_as_a_tuple():
    # a list argument must give the same hashable value as a tuple
    rows = [14, 13, 11, 7]
    for value, same in (
        (Graph(4, rows), pc.complete(4)),
        (DegreeSequence([3, 3, 3, 3]), DegreeSequence((3, 3, 3, 3))),
    ):
        assert value == same and hash(value) == hash(same)
    assert Graph(4, rows).adj == (14, 13, 11, 7)
    assert pc.canonical_form(Graph(4, rows)) == pc.canonical_form(pc.complete(4))
    # and every check still runs on the list
    with pytest.raises(ValueError, match="weakly decreasing"):
        DegreeSequence([1, 2, 1])
    with pytest.raises(ValueError, match="expected 4 adjacency rows"):
        Graph(4, [14, 13, 11])


def test_add_remove_edge():
    g = empty_graph(3)
    h = add_edge(g, 0, 2)
    assert h.q == 1 and g.q == 0  # immutable
    assert h.remove_edge(0, 2) == g
    with pytest.raises(ValueError):
        add_edge(h, 0, 2)  # already there
    for u, v in [(1, 1), (0, 3), (-1, 0)]:
        with pytest.raises(ValueError):
            add_edge(path(3), u, v)
    with pytest.raises(ValueError):
        g.remove_edge(0, 1)  # not there


def test_complement():
    assert pc.complete(4).complement() == empty_graph(4)
    c5 = cycle(5)
    assert c5.complement().degree_sequence() == DegreeSequence((2, 2, 2, 2, 2))
    assert c5.complement().complement() == c5


def _property_inputs(universe):
    # the universe, then per order 1..8 the empty graph, K_p and 50 seeded graphs
    yield from universe
    for p in range(1, 9):
        yield from (empty_graph(p), pc.complete(p), *sample_graphs(p, 50, 3800 + p))


def test_complement_involution(universe):
    for g in _property_inputs(universe):
        assert g.complement().complement() == g
        assert g.q + g.complement().q == g.p * (g.p - 1) // 2


def test_relabel():
    g = path(4)  # 0-1-2-3
    assert g.relabel((3, 2, 1, 0)) == g  # reversal maps the path onto itself
    h = g.relabel((1, 0, 2, 3))
    assert h != g and h.q == g.q
    assert sorted(h.degree(v) for v in range(4)) == [1, 1, 2, 2]
    with pytest.raises(ValueError):
        g.relabel((0, 0, 1, 2))


def test_builders():
    assert pc.complete(5).q == 10
    assert complete_multipartite(3, 3).q == 9
    octa = complete_multipartite(2, 2, 2)
    assert octa.p == 6 and octa.q == 12
    assert octa.degree_sequence() == DegreeSequence((4,) * 6)


def test_degree_sequence_type():
    ds = DegreeSequence((4, 4, 3, 3, 3, 3))
    assert ds.p == 6
    assert ds.q == 10
    assert ds.compact() == "443333"
    assert len(ds) == 6 and ds[0] == 4
    with pytest.raises(ValueError):
        DegreeSequence(())
    with pytest.raises(ValueError):
        DegreeSequence((3, 4))  # must be weakly decreasing
    with pytest.raises(ValueError):
        DegreeSequence((3, 3, 3))  # odd sum
    with pytest.raises(ValueError):
        DegreeSequence((5, 1, 1, 1))  # degree above p - 1


def test_complement_degree_sequence():
    # complement of the (8,14) self-paired row is itself
    row = DegreeSequence((4, 4, 4, 4, 3, 3, 3, 3))
    assert row.complement() == row
    assert DegreeSequence((3,) * 8).complement() == DegreeSequence((4,) * 8)


def test_complement_degree_sequence_matches_graphs(universe):
    for g in _property_inputs(universe):
        assert g.complement().degree_sequence() == g.degree_sequence().complement()
