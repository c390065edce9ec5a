"""Canonical form and isomorphism, checked two independent ways.

The class counts pin exactness globally: a canonical form that merged
two classes would undercount, one that split a class would overcount,
and the expected values are a well-known published sequence.  The
permutation oracle then confirms individual verdicts.
"""

import itertools
import random
import time
from collections import defaultdict

import polycensus as pc
from polycensus import canonical_form
from polycensus.isomorphism import _certificate, _search, canonical_labeling
from tests.oracles import (
    GRAPH_CLASS_COUNTS,
    all_graphs_up_to_iso,
    brute_certificate,
    brute_isomorphic,
    complete_multipartite,
    cycle,
    empty_graph,
    path,
    plain_canonical_labeling,
    plain_first_leaf,
    random_graph,
    shuffled,
    wheel,
)


def disjoint_cliques(k, m):
    """k disjoint copies of K_m."""
    return pc.Graph.from_edges(
        k * m,
        [(i * m + a, i * m + b) for i in range(k)
         for a, b in itertools.combinations(range(m), 2)],
    )


def joined_when(n, rule):
    return pc.Graph.from_edges(
        n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rule(u, v)]
    )


def shrikhande_step(u, v):
    # Cayley graph of Z4 x Z4 on +-(1, 0), +-(0, 1), +-(1, 1)
    step = ((u // 4 - v // 4) % 4, (u % 4 - v % 4) % 4)
    return step in {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}


# large automorphism groups, and refinement that stops early on them:
# the search must prune below the root to label these quickly
SYMMETRIC = {
    "6K2": disjoint_cliques(6, 2),
    "7K2": disjoint_cliques(7, 2),
    "8K2": disjoint_cliques(8, 2),
    "3K4": disjoint_cliques(3, 4),
    "4K4": disjoint_cliques(4, 4),
    "cocktail party K2,...,2": complete_multipartite(*[2] * 8),
    "Q4": joined_when(16, lambda u, v: (u ^ v).bit_count() == 1),
    "4x4 rook": joined_when(16, lambda u, v: (u // 4 == v // 4) != (u % 4 == v % 4)),
    "Shrikhande": joined_when(16, shrikhande_step),
    "Clebsch": joined_when(16, lambda u, v: (u ^ v).bit_count() in (1, 4)),
    "C16": cycle(16),
    "Paley(13)": joined_when(13, lambda u, v: (u - v) % 13 in {1, 3, 4, 9, 10, 12}),
    "complement of 6K2": disjoint_cliques(6, 2).complement(),
}

# computed by the plain search, which takes seconds on each
PINNED_CERTIFICATES = {
    "6K2": "0c0006020000100008004021",
    "complement of 6K2": "0c003c03ff7fbfbf7defffff",
    "3K4": "0c001203806010000e18403f",
    "7K2": "0e0007040000020000100008004021",
}


def test_class_counts_match_published_sequence():
    for p, expected in GRAPH_CLASS_COUNTS.items():
        assert len(all_graphs_up_to_iso(p)) == expected


def test_certificate_embeds_order_and_size():
    # the certificate opens with one byte of order and two of size
    cf = canonical_form(cycle(5))
    assert cf.certificate[0] == 5
    assert int.from_bytes(cf.certificate[1:3], "big") == 5


def test_relabeling_invariance():
    rng = random.Random(42)
    cube = pc.Graph.from_edges(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (1, 5), (2, 6), (3, 7)],
    )
    base = canonical_form(cube)
    for _ in range(100):
        assert canonical_form(shuffled(cube, rng)) == base


def test_nonisomorphic_same_parameter_pairs(universe):
    """Same order, size, and degree sequence; still told apart.

    The universe holds one representative per class, so every pair
    inside a bucket must be non-isomorphic.  The permutation oracle
    confirms each verdict the certificates imply.
    """
    buckets = defaultdict(list)
    for g in universe:
        if g.p >= 4:
            buckets[g.p, g.q, tuple(g.degree_sequence())].append(g)
    pairs = 0
    for key in sorted(buckets):
        for a, b in itertools.combinations(buckets[key], 2):
            assert canonical_form(a) != canonical_form(b)
            assert not pc.are_isomorphic(a, b)
            assert not brute_isomorphic(a, b), key
            pairs += 1
    assert pairs > 3000  # p <= 7 gives 3375 same-invariant pairs


def test_positive_pairs_against_oracle(universe):
    rng = random.Random(7)
    for g in universe[::5]:
        h = shuffled(g, rng)
        assert pc.are_isomorphic(g, h)
        assert brute_isomorphic(g, h)


def test_oracle_agreement_sampled_order_8():
    # same-degree-row pairs from the (8,14) census: the hard negatives
    rng = random.Random(814)
    graphs = pc.filter_by_degree_sequence(
        pc.enumerate_polyhedra(8, 14), pc.DegreeSequence((4, 4, 4, 4, 3, 3, 3, 3))
    )
    pairs = list(itertools.combinations(graphs, 2))
    for a, b in rng.sample(pairs, 25):
        assert not brute_isomorphic(a, b)
        assert not pc.are_isomorphic(a, b)
    for g in rng.sample(list(graphs), 8):
        h = shuffled(g, rng)
        assert brute_isomorphic(g, h)
        assert pc.are_isomorphic(g, h)


def test_brute_certificate_equivalence():
    """The min-over-permutations certificate induces the same classes.

    Bytes differ by construction; the partition they induce must not.
    """
    for p in (4, 5):
        seen = {}
        for g in all_graphs_up_to_iso(p):
            bc = brute_certificate(g)
            assert bc not in seen
            seen[bc] = g
        assert len(seen) == GRAPH_CLASS_COUNTS[p]
    rng = random.Random(65)
    for g in all_graphs_up_to_iso(6)[::13]:
        assert brute_certificate(g) == brute_certificate(shuffled(g, rng))


def test_c8_vs_two_squares():
    # both 2-regular on 8 vertices; only one is connected
    c8 = cycle(8)
    squares = pc.Graph.from_edges(
        8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]
    )
    assert canonical_form(c8) != canonical_form(squares)
    assert not pc.are_isomorphic(c8, squares)
    assert not brute_isomorphic(c8, squares)


def test_are_isomorphic_trivia():
    assert not pc.are_isomorphic(pc.complete(4), cycle(4))
    assert not pc.are_isomorphic(cycle(4), cycle(5))
    g = wheel(5)
    assert pc.are_isomorphic(g, g.relabel((5, 4, 3, 2, 1, 0)))


def test_is_self_complementary():
    assert pc.is_self_complementary(cycle(5))
    assert pc.is_self_complementary(path(4))
    assert not pc.is_self_complementary(pc.complete(4))
    assert not pc.is_self_complementary(empty_graph(6))


def test_self_complementary_needs_quarter_of_pairs(universe):
    for g in universe:
        assert pc.is_self_complementary(g) == brute_isomorphic(g, g.complement())
        if pc.is_self_complementary(g):
            assert 4 * g.q == g.p * (g.p - 1)
            assert g.p % 4 in (0, 1)


def test_labelling_matches_plain_search(universe):
    """The pruned search returns the plain search's labelling, not just
    an equivalent one: canonical graphs and catalog labels read it."""
    rng = random.Random(2014)
    graphs = list(universe) + [shuffled(g, rng) for g in universe]
    for p in range(4, 9):
        for q in range(6, 3 * p - 5):
            for g in pc.enumerate_polyhedra(p, q):
                graphs += [g, pc.dual(g)]
    for _ in range(300):
        p = rng.randint(8, 11)
        # at least p edges and p non-edges: with many isolated vertices,
        # or in the complement, the plain search takes minutes
        graphs.append(random_graph(p, rng.randint(p, p * (p - 1) // 2 - p), rng))
    assert len(graphs) == 2 * 1252 + 2 * 301 + 300
    for g in graphs:
        assert canonical_labeling(g) == plain_canonical_labeling(g), g


def test_symmetric_graphs_label_fast_and_invariantly():
    rng = random.Random(16)
    for name, g in SYMMETRIC.items():
        forms = set()
        for h in [g] + [shuffled(g, rng) for _ in range(5)]:
            start = time.perf_counter()
            forms.add(canonical_form(h))
            assert time.perf_counter() - start < 1.0, name
        assert len(forms) == 1, name
    for name, text in PINNED_CERTIFICATES.items():
        assert canonical_form(SYMMETRIC[name]).hex == text, name


def paley9():
    # GF(9) as Z3[i] with i^2 = -1, a + bi numbered 3a + b; x ~ y when
    # x - y is a nonzero square
    def mul(x, y):
        (a, b), (c, d) = divmod(x, 3), divmod(y, 3)
        return (a * c - b * d) % 3 * 3 + (a * d + b * c) % 3

    def sub(x, y):
        (a, b), (c, d) = divmod(x, 3), divmod(y, 3)
        return (a - c) % 3 * 3 + (b - d) % 3

    squares = {mul(x, x) for x in range(1, 9)}
    return joined_when(9, lambda u, v: sub(u, v) in squares)


def four_copies(h):
    """Copies 0 and 3 of ``h`` and copies 1 and 2 of its complement, each
    copy joined to the next: self-complementary for every ``h``, since
    the complement is the same with the copies in the order 1, 3, 0, 2."""
    n = h.p
    rows = [h, h.complement(), h.complement(), h]
    edges = [(i * n + u, i * n + v) for i, c in enumerate(rows) for u, v in c.edges()]
    edges += [
        (i * n + u, (i + 1) * n + v) for i in range(3) for u in range(n) for v in range(n)
    ]
    return pc.Graph.from_edges(4 * n, edges)


def timed(call, *args):
    start = time.perf_counter()
    out = call(*args)
    assert time.perf_counter() - start < 1.0, args
    return out


def test_symmetric_graphs_are_isomorphic_to_their_relabellings():
    # b's search stops at its first leaf with the bits of a's first leaf;
    # on these, the pruning must still reach it quickly
    rng = random.Random(61)
    for name, g in SYMMETRIC.items():
        for _ in range(3):
            assert timed(pc.are_isomorphic, g, shuffled(g, rng)), name
            assert timed(pc.are_isomorphic, shuffled(g, rng), g), name


def test_regular_graphs_without_symmetry_match_past_the_first_leaf():
    # refinement splits no regular graph, and with no automorphism to
    # carry one vertex onto another, b's first leaf seldom has the bits
    # of a's: the search must go on to the leaf that does
    lcf = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)
    frucht = pc.Graph.from_edges(
        12, [*cycle(12).edges(), *((i, (i + s) % 12) for i, s in enumerate(lcf))]
    )
    assert frucht.q == 18
    rng = random.Random(12)
    for g in (frucht, frucht.complement()):
        for _ in range(10):
            assert timed(pc.are_isomorphic, g, shuffled(g, rng))


def test_shrikhande_is_not_the_rook_graph():
    # both strongly regular (16, 6, 2, 2), and refinement splits neither
    a, b = SYMMETRIC["Shrikhande"], SYMMETRIC["4x4 rook"]
    assert not timed(pc.are_isomorphic, a, b)
    assert not timed(pc.are_isomorphic, b, a)


def test_wheels_are_self_dual_under_relabelling():
    rng = random.Random(15)
    for rim in range(3, 16):
        for _ in range(3):
            assert timed(pc.is_self_dual, shuffled(wheel(rim), rng)), rim


def test_self_complementary_families():
    rng = random.Random(13)
    graphs = {
        "Paley(5)": cycle(5),
        "Paley(9)": paley9(),
        "Paley(13)": SYMMETRIC["Paley(13)"],
        "four copies of P3": four_copies(path(3)),
        "four copies of the paw": four_copies(
            pc.Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        ),
    }
    assert [g.p for g in graphs.values()] == [5, 9, 13, 12, 16]
    for name, g in graphs.items():
        for h in (g, shuffled(g, rng)):
            assert timed(pc.is_self_complementary, h), name
    # 6-regular on 13 vertices like Paley(13), but its complement steps
    # by 4, 5 and 6, and no unit of Z13 maps {1, 2, 3} onto those up to
    # sign, which for a prime order is what isomorphism needs (Turner)
    g = joined_when(13, lambda u, v: (u - v) % 13 in {1, 2, 3, 10, 11, 12})
    assert not timed(pc.is_self_complementary, g)


def test_targeted_search_meets_the_certificate():
    # a search targeted at a certificate's bits stops at a leaf with that
    # certificate, though not always the canonical leaf, and finds none
    # in a graph of another class
    rng = random.Random(33)
    graphs = list(SYMMETRIC.values()) + [
        random_graph(p, rng.randint(p, p * (p - 1) // 2 - p), rng)
        for p in rng.choices(range(8, 12), k=40)
    ]
    for g in graphs:
        cf = canonical_form(g)
        target = int.from_bytes(cf.certificate[3:], "big")
        h = shuffled(g, rng)
        label = timed(_search, h.p, h.adj, target)[0]
        assert _certificate(h, label) == cf
    shrikhande, rook = SYMMETRIC["Shrikhande"], SYMMETRIC["4x4 rook"]
    cf = canonical_form(shrikhande)
    target = int.from_bytes(cf.certificate[3:], "big")
    assert timed(_search, 16, rook.adj, target)[0] is None
    # another size is told by the degree rows alone
    assert not pc.are_isomorphic(cycle(5), path(5))


def test_first_leaf_is_the_end_of_the_plain_first_path(universe):
    # a negative target, which every leaf matches, stops the search at its
    # first leaf, with no automorphism kept: the leaf the plain search
    # reaches first, found here by code that shares nothing with the search
    rng = random.Random(1981)
    graphs = list(universe) + list(SYMMETRIC.values())
    for p in range(4, 9):
        for q in range(6, 3 * p - 5):
            graphs += [shuffled(g, rng) for g in pc.enumerate_polyhedra(p, q)]
    assert len(graphs) == 1252 + 13 + 301
    for g in graphs:
        assert _search(g.p, g.adj, -1) == (plain_first_leaf(g), []), pc.encode(g)
