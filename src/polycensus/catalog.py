"""Labelled catalog of small polyhedral graphs.

Labels read qqpp.nn: zero-padded size, zero-padded order, then a
counter that runs through the graphs of that size and order in listing
order.  Labels are decided one size at a time: ``order_census(q)``
labels every class with q edges, which holds the dual of each of them,
since a dual keeps the size, and ``build_catalog`` lists the sizes
6..14 in turn.  Inside a size the unit is a self-dual graph or a dual
pair, the two partners always adjacent; a pair whose members have
different orders is keyed by the smaller one, so the order-7 size-14
graphs each precede their order-9 duals.  Units at the same order put
self-duals first, then sort by decreasing degree sequence, the
partner's degree sequence, and finally the canonical certificate,
which settles anything left.  A unit's members are labelled together
and their entries built then, each carrying its partner's label as its
dual label (a self-dual graph carries its own).

Certificates and duals come from the census, not from a search or
``dual`` here: the census keeps every class with the certificate it
was filed under, and the dual of every class of a cell, read off the
faces it carries with the class.  Every pair of size q has a member in
a cell (p, q) with p <= q - p + 2, the one of smaller order or both, so
those cells are read once each, with their duals, and no catalog class
is searched, embedded or tested again.

The three graphs whose complements are again polyhedral also carry the
names they go by in the published census of that classification, set
once every entry of their size is built and only if that size holds
exactly that trio; the two self-dual ones are told apart by
certificate order, a convention this module documents rather than a
figure-verified identity.
"""

from __future__ import annotations

import json
from functools import cache
from typing import Iterable, NamedTuple

from .duality import is_polyhedral
from .enumeration import _dual_pairs, enumerate_polyhedra, order_bounds
from .graph6 import encode
from .graphs import DegreeSequence, Graph
from .isomorphism import CanonicalForm, canonical_form

PUBLISHED_NAMES = ("g_1408.12", "g_1408.13", "g_1408.39")


class CatalogEntry(NamedTuple):
    label: str
    graph: Graph  # stored in canonical labelling
    certificate: CanonicalForm
    self_dual: bool
    self_complementary: bool
    complement_polyhedral: bool
    dual_label: str
    published_name: str | None

    @property
    def p(self) -> int:
        return self.graph.p

    @property
    def q(self) -> int:
        return self.graph.q

    @property
    def r(self) -> int:
        """Face count, which is the dual's order."""
        return self.graph.q - self.graph.p + 2

    def degree_sequence(self) -> DegreeSequence:
        return self.graph.degree_sequence()


def _member_key(g: Graph, partner: Graph, cert: bytes) -> tuple:
    return (
        tuple(-d for d in g.degree_sequence()),
        tuple(-d for d in partner.degree_sequence()),
        cert,
    )


@cache
def order_census(q: int) -> tuple[CatalogEntry, ...]:
    """Label every polyhedral graph with q edges.

    Reads the pairs of each cell (p, q) of the order window with
    p <= q - p + 2 from the census, so an order p whose dual order
    q - p + 2 also exceeds MAX_ENUM_ORDER raises the ValueError of
    ``enumerate_polyhedra``.
    """
    units = []
    lo, hi = order_bounds(q)
    for p in range(lo, min(hi, (q + 2) // 2) + 1):
        enumerate_polyhedra(p, q)  # raises where the census stops
        for g, cert, cd, d in _dual_pairs(p, q):
            a, b = (g, cert), (d, cd)
            if cd == cert:
                units.append((p, 0, _member_key(g, g, cert), (a,)))
            elif d.p > p:  # keyed by its smaller-order member
                units.append((p, 1, _member_key(g, d, cert), (a, b)))
            elif cert < cd:  # both members are in this cell: take the pair once
                key, d_key = _member_key(g, d, cert), _member_key(d, g, cd)
                if d_key < key:
                    a, b, key = b, a, d_key
                units.append((p, 1, key, (a, b)))
    units.sort(key=lambda u: u[:3])

    entries: list[CatalogEntry] = []
    nn: dict[int, int] = {}
    for *_, members in units:
        labels = []
        for g, _ in members:
            nn[g.p] = nn.get(g.p, 0) + 1
            labels.append(f"{q:02d}{g.p:02d}.{nn[g.p]:02d}")
        # a self-dual member is its own partner
        for (g, c), label, dual_label in zip(members, labels, labels[::-1]):
            cert = CanonicalForm(c)
            # degree d is p - 1 - d in the complement, which needs 3 or more
            complement_polyhedral = (
                max(map(int.bit_count, g.adj)) <= g.p - 4
                and is_polyhedral(g.complement())
            )
            # a polyhedral graph isomorphic to its complement has a
            # polyhedral complement, so only those few are searched
            self_complementary = (
                complement_polyhedral and canonical_form(g.complement()) == cert
            )
            entries.append(
                CatalogEntry(
                    label=label,
                    graph=g,
                    certificate=cert,
                    self_dual=len(members) == 1,
                    self_complementary=self_complementary,
                    complement_polyhedral=complement_polyhedral,
                    dual_label=dual_label,
                    published_name=None,
                )
            )

    flagged = [i for i, e in enumerate(entries) if e.complement_polyhedral]
    self_dual = sorted(
        (i for i in flagged if entries[i].self_dual),
        key=lambda i: entries[i].certificate,
    )
    rest = [i for i in flagged if not entries[i].self_dual]
    if len(self_dual) == 2 and len(rest) == 1:
        for i, name in zip(self_dual + rest, PUBLISHED_NAMES):
            entries[i] = entries[i]._replace(published_name=name)
    return tuple(entries)


def build_catalog() -> tuple[CatalogEntry, ...]:
    """Every polyhedral graph with 6..14 edges, labelled, in listing order."""
    return tuple(e for q in range(6, 15) for e in order_census(q))


# ---------------------------------------------------------------------------
# serialization

def graph6_lines(graphs: Iterable[Graph]) -> str:
    return "".join(encode(g) + "\n" for g in graphs)


def dot_document(named: Iterable[tuple[str, Graph]]) -> str:
    """One DOT graph per input, vertices 0..p-1, stable byte for byte."""
    chunks = []
    for name, g in named:
        lines = [f'graph "{name}" {{']
        lines += [f"  {v};" for v in range(g.p) if g.degree(v) == 0]
        lines += [f"  {a} -- {b};" for a, b in g.edges()]
        lines.append("}")
        chunks.append("\n".join(lines) + "\n")
    return "".join(chunks)


def _entry_record(e: CatalogEntry) -> dict:
    """The JSON fields of an entry that the classify report lists too."""
    return {
        "label": e.label,
        "published_name": e.published_name,
        "graph6": encode(e.graph),
        "certificate": e.certificate.hex,
        "degrees": e.degree_sequence().compact(),
        "self_complementary": e.self_complementary,
        "self_dual": e.self_dual,
        "dual_label": e.dual_label,
    }


def catalog_to_json(entries: Iterable[CatalogEntry]) -> str:
    doc = {
        "schema_version": 1,
        "entries": [
            {
                **_entry_record(e),
                "p": e.p,
                "q": e.q,
                "r": e.r,
                "complement_polyhedral": e.complement_polyhedral,
            }
            for e in entries
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
