import hashlib
import json
import re

import pytest

import polycensus as pc
from polycensus import (
    NotPolyhedralError,
    build_catalog,
    catalog_to_json,
    dot_document,
    catalog as catalog_module,
    duality,
    enumeration,
    graph6_lines,
    order_census,
    planarity,
)
from tests.oracles import canonical_graph, cycle, empty_graph

# sha256 over catalog_to_json of every class of each size q = 6..17,
# concatenated in order; the `enumerate --q 6..17 --format json` stdout
CATALOG_JSON_SHA256 = (
    "69020bd7524467bb892b1d17ac9fde35979e46205352fb4a685cbf8d28f452d9"
)

BLOCK_COUNTS = {
    (6, 4): 1,
    (8, 5): 1,
    (9, 5): 1, (9, 6): 1,
    (10, 6): 2,
    (11, 6): 2, (11, 7): 2,
    (12, 6): 2, (12, 7): 8, (12, 8): 2,
    (13, 7): 11, (13, 8): 11,
    (14, 7): 8, (14, 8): 42, (14, 9): 8,
}


def by_label(catalog):
    return {e.label: e for e in catalog}


def test_catalog_size_and_blocks(catalog):
    assert len(catalog) == 102
    got = {}
    for e in catalog:
        got[e.q, e.p] = got.get((e.q, e.p), 0) + 1
    assert got == BLOCK_COUNTS
    assert len([e for e in catalog if (e.q, e.p) == (14, 8)]) == 42


def test_labels_well_formed(catalog):
    for e in catalog:
        assert re.fullmatch(r"\d{4}\.\d{2}", e.label)
        assert int(e.label[:2]) == e.q
        assert int(e.label[2:4]) == e.p
    labels = [e.label for e in catalog]
    assert len(set(labels)) == len(labels)


def test_entry_invariants(catalog):
    for e in catalog:
        assert e.r == e.q - e.p + 2
        assert e.self_dual == (e.dual_label == e.label)
        assert e.certificate == pc.canonical_form(e.graph)
        assert e.graph == canonical_graph(e.graph)  # stored canonically


def test_dual_label_involution(catalog):
    labelled = by_label(catalog)
    for e in catalog:
        partner = labelled[e.dual_label]
        assert partner.dual_label == e.label
        assert pc.are_isomorphic(pc.dual(e.graph), partner.graph)


def test_dual_pairs_adjacent(catalog):
    position = {e.label: i for i, e in enumerate(catalog)}
    for e in catalog:
        if not e.self_dual:
            assert abs(position[e.dual_label] - position[e.label]) == 1


def test_size_14_listing_order(catalog):
    """Cross-order pairs first (order 7 with its order-9 dual), then
    the sixteen order-8 self-duals, then the order-8 pairs."""
    q14 = [e for e in catalog if e.q == 14]
    head = [e.label for e in q14[:16]]
    assert head == [
        f"14{p:02d}.{n:02d}" for n in range(1, 9) for p in (7, 9)
    ]
    mids = q14[16:32]
    assert all(e.p == 8 and e.self_dual for e in mids)
    tail = q14[32:]
    assert len(tail) == 26
    assert all(e.p == 8 and not e.self_dual for e in tail)


def test_listing_respects_degree_order(catalog):
    # within the order-8 self-duals of size 14, degree sequences are
    # weakly decreasing in listing order
    rows = [
        tuple(e.degree_sequence())
        for e in catalog
        if e.q == 14 and e.p == 8 and e.self_dual
    ]
    assert rows == sorted(rows, reverse=True)


def test_published_names(catalog):
    flagged = [e for e in catalog if e.complement_polyhedral]
    assert [e.published_name for e in flagged] == [
        "g_1408.12", "g_1408.13", "g_1408.39",
    ]
    for e in flagged:
        assert e.complement_polyhedral
        assert e.self_complementary
    named_self_dual = [e for e in flagged if e.self_dual]
    assert len(named_self_dual) == 2
    unnamed = [e for e in catalog if e.published_name is None]
    assert len(unnamed) == 99


def test_order_census_of_the_smallest_size():
    # the one class with 6 edges is the self-dual K4
    (entry,) = order_census(6)
    assert entry.label == entry.dual_label == "0604.01"
    assert entry.self_dual
    assert entry.graph == pc.complete(4)


def test_order_census_rejects_what_the_census_lacks():
    # at q = 18 the order window reaches p = 10, where the dual order
    # q - p + 2 = 10 is beyond the census too, as for enumerate_polyhedra
    with pytest.raises(ValueError, match="both exceed") as exc:
        order_census(18)
    assert not isinstance(exc.value, NotPolyhedralError)


def test_catalog_duals_come_from_the_census(monkeypatch):
    # no class is dualized or embedded again; the only embeddings left are
    # the planarity tests of complements that are 3-connected
    monkeypatch.setattr(enumeration, "_CPUS", 1)  # a child's calls go uncounted
    duals = []
    dual = duality.dual
    monkeypatch.setattr(duality, "dual", lambda g: duals.append(g) or dual(g))
    embeds = []
    embed_block = planarity._embed_block
    is_polyhedral = catalog_module.is_polyhedral
    in_complement_check = []

    def counting_embed(vs, adj):
        if not in_complement_check:
            embeds.append(vs)
        return embed_block(vs, adj)

    def complement_check(g):
        in_complement_check.append(g)
        try:
            return is_polyhedral(g)
        finally:
            in_complement_check.pop()

    monkeypatch.setattr(planarity, "_embed_block", counting_embed)
    monkeypatch.setattr(catalog_module, "is_polyhedral", complement_check)
    # uncached, or the cached entries would be read back and nothing would run
    fresh = [e for q in range(6, 15) for e in order_census.__wrapped__(q)]
    assert (len(duals), len(embeds)) == (0, 0)
    assert [e.dual_label for e in fresh] == [e.dual_label for e in build_catalog()]


def test_order_census_reads_each_pair_once(monkeypatch):
    # every pair of a size has a member whose order is at most its dual's,
    # so the labelling reads the cells with 2p <= q + 2, each once; the
    # dual-side cells would read them again
    cells = []
    dual_pairs = enumeration._dual_pairs

    def recording(r, q):
        cells.append((r, q))
        return dual_pairs(r, q)

    monkeypatch.setattr(enumeration, "_dual_pairs", recording)
    monkeypatch.setattr(catalog_module, "_dual_pairs", recording)
    for q in range(6, 18):
        entries = order_census(q)
        cells.clear()
        # uncached, or the cached entries would be read back and nothing would run
        assert order_census.__wrapped__(q) == entries
        lo, hi = pc.order_bounds(q)
        assert cells == [(p, q) for p in range(lo, hi + 1) if 2 * p <= q + 2], q


@pytest.mark.parametrize("q", [15, 16, 17])
def test_census_certificates_beyond_the_catalog(q):
    # the certificates read off the census, on both sides of the self-dual
    # line, are the ones a search gives, for each class and for its dual
    entries = order_census(q)
    labelled = {e.label: e for e in entries}
    for e in entries:
        assert e.certificate == pc.canonical_form(e.graph)
        partner = labelled[e.dual_label]
        assert partner.certificate == pc.canonical_form(pc.dual(e.graph))


def test_catalog_json_digest():
    # labels, flags, dual labels and published names past the catalog's
    # q = 14, which the classify report does not cover
    digest = hashlib.sha256()
    for q in range(6, 18):
        digest.update(catalog_to_json(order_census(q)).encode())
    assert digest.hexdigest() == CATALOG_JSON_SHA256


def test_order_census_no_published_names_without_the_trio():
    entries = [e for q in range(6, 11) for e in order_census(q)]
    assert len(entries) == 6
    assert all(e.published_name is None for e in entries)


def test_graph6_export_roundtrip(catalog):
    # what `polycensus enumerate` writes: one graph6 line per entry
    text = graph6_lines(e.graph for e in catalog)
    graphs = [pc.decode(line) for line in text.splitlines()]
    assert len(graphs) == len(catalog)
    for g, e in zip(graphs, catalog):
        assert pc.canonical_form(g) == e.certificate


def test_json_export_roundtrip(catalog):
    text = catalog_to_json(catalog)
    doc = json.loads(text)
    assert doc["schema_version"] == 1
    assert len(doc["entries"]) == 102
    for item, e in zip(doc["entries"], catalog):
        g = pc.decode(item["graph6"])
        assert pc.canonical_form(g) == e.certificate
        assert item["certificate"] == e.certificate.hex
        assert item["label"] == e.label
        assert (item["p"], item["q"]) == (g.p, g.q)


def test_dot_export(catalog):
    text = dot_document((e.label, e.graph) for e in catalog)
    assert text.count('graph "') == 102
    assert text == dot_document((e.label, e.graph) for e in catalog)
    single = dot_document([("k4", pc.complete(4))])
    assert single == (
        'graph "k4" {\n  0 -- 1;\n  0 -- 2;\n  0 -- 3;\n'
        "  1 -- 2;\n  1 -- 3;\n  2 -- 3;\n}\n"
    )
    lonely = dot_document([("dot", empty_graph(2))])
    assert "  0;\n  1;\n" in lonely


def test_graph6_lines(catalog):
    text = graph6_lines([pc.complete(4), cycle(5)])
    assert text == "C~\nDhc\n"
    assert catalog_to_json(catalog) == catalog_to_json(iter(catalog))


def test_solution_lookup_by_label(catalog):
    # the three labels the classification reports resolve here, and
    # their complements are in the catalog too
    report = pc.solve_question()
    labelled = by_label(catalog)
    by_certificate = {e.certificate: e for e in catalog}
    for e in report.solutions:
        entry = labelled[e.label]
        assert entry.complement_polyhedral
        comp_entry = by_certificate.get(pc.canonical_form(entry.graph.complement()))
        assert comp_entry is not None
        assert comp_entry.label == entry.label  # self-complementary
