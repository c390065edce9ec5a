import pytest
from hypothesis import given

import polycensus as pc
from polycensus import Graph6Error, decode, encode
from tests import strategies
from tests.oracles import empty_graph

# frozen reference strings, worked out by hand from the format spec
KNOWN = [
    (pc.complete(4), "C~"),
    (pc.complete(3), "Bw"),
    (pc.cycle(5), "Dhc"),
    (empty_graph(1), "@"),
]


@pytest.mark.parametrize("g,text", KNOWN)
def test_known_encodings(g, text):
    assert encode(g) == text
    assert decode(text) == g


def test_header_is_stripped():
    assert decode(">>graph6<<C~") == pc.complete(4)
    assert decode("  C~\n") == pc.complete(4)


@given(strategies.graphs(max_p=9))
def test_roundtrip(g):
    assert decode(encode(g)) == g


def test_roundtrip_universe_sample(universe):
    for g in universe[::7]:
        assert decode(encode(g)) == g


def test_empty_input():
    with pytest.raises(Graph6Error):
        decode("")
    with pytest.raises(Graph6Error):
        decode(">>graph6<<")


def test_bad_order_byte():
    with pytest.raises(Graph6Error) as exc:
        decode("~")  # 63-vertex header needs the long form, unsupported
    assert exc.value.position == 0
    with pytest.raises(Graph6Error, match="exceeds the supported maximum"):
        decode(chr(63 + 17) + "?" * 23)


def test_wrong_length():
    with pytest.raises(Graph6Error, match="expected 2 characters"):
        decode("C")
    with pytest.raises(Graph6Error, match="expected 2 characters"):
        decode("C~x")


def test_character_out_of_range():
    with pytest.raises(Graph6Error) as exc:
        decode("C!")
    assert exc.value.position == 1
    assert "position 1" in str(exc.value)
    # positions index the text as given, header and whitespace included
    for text, position in ((">>graph6<<C!", 11), ("  C!", 3)):
        with pytest.raises(Graph6Error) as exc:
            decode(text)
        assert exc.value.position == position


def test_nonzero_padding_rejected():
    # order 3 uses 3 bits; the low 3 bits of the byte must stay zero
    with pytest.raises(Graph6Error, match="padding"):
        decode("B" + chr(63 + 0b000111))


def test_encoding_is_column_ordered():
    # edge (0,1) is the first bit: 100000 -> 32 + 63 = chr(95)
    g = pc.Graph.from_edges(4, [(0, 1)])
    assert encode(g) == "C" + chr(63 + 0b100000)
    # edge (2,3) is the last bit of the same group
    g = pc.Graph.from_edges(4, [(2, 3)])
    assert encode(g) == "C" + chr(63 + 0b000001)
    # on 5 vertices, edge (0,4) opens the second group
    g = pc.Graph.from_edges(5, [(0, 4)])
    assert encode(g) == "D" + chr(63) + chr(63 + 0b100000)
