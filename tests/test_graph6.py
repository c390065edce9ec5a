import random

import pytest
from hypothesis import given

import polycensus as pc
from polycensus import Graph6Error, decode, encode
from tests import strategies
from tests.oracles import (
    cycle,
    empty_graph,
    plain_decode,
    plain_encode,
    random_graph,
)

# frozen reference strings, worked out by hand from the format spec
KNOWN = [
    (pc.complete(4), "C~"),
    (pc.complete(3), "Bw"),
    (cycle(5), "Dhc"),
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


def _outcome(codec, text):
    """What a decoder makes of ``text``: the graph, or the error's
    message and position."""
    try:
        return codec(text)
    except Graph6Error as exc:
        return str(exc), exc.position


def test_codec_matches_the_reference(universe):
    # the package codec against the one-bit-at-a-time one, on every
    # class through order 7 and on random graphs past the round trip's 9
    rng = random.Random(6)
    graphs = list(universe)
    for p in range(10, 17):
        hi = p * (p - 1) // 2
        graphs += [random_graph(p, rng.randint(0, hi), rng) for _ in range(40)]
    for g in graphs:
        text = plain_encode(g)
        assert encode(g) == text
        assert decode(text) == plain_decode(text) == g


def test_malformed_input_matches_the_reference():
    # the same message and position as the reference decoder, with and
    # without the header and leading whitespace
    rng = random.Random(7)
    bad = ["", "~", chr(63 + 17) + "?" * 23, "B" + chr(63 + 0b000111)]
    for p in range(2, 17):
        text = encode(random_graph(p, rng.randint(0, p * (p - 1) // 2), rng))
        k = rng.randrange(1, len(text))
        wrong = rng.choice("!>\x7f\xe9")
        bad += [text[:-1], text + "?", text[:k] + wrong + text[k + 1 :]]
        if p * (p - 1) // 2 % 6:
            # the last padding bit set
            bad.append(text[:-1] + chr(63 + (ord(text[-1]) - 63 | 1)))
    kinds = set()
    for text in bad:
        for prefix in ("", ">>graph6<<", "  ", " \t>>graph6<<"):
            line = prefix + text + "\n"
            got = _outcome(decode, line)
            assert isinstance(got, tuple), repr(line)
            assert got == _outcome(plain_decode, line), repr(line)
            kinds.add(got[0].split()[0])
    assert kinds == {"empty", "unsupported", "order", "expected", "character", "nonzero"}
