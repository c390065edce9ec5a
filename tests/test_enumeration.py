"""Census generation, checked against the subset-scan oracle.

The production generator descends from triangulations by edge
deletion (crossing to the dual side when that is smaller); the oracle
filters raw edge subsets.  They share no strategy, so agreement on
every cell is the strongest evidence either is right.
"""

import ast
import hashlib
import inspect
import os
import random
import select
from contextlib import contextmanager
from functools import cache
from itertools import combinations

import pytest

import polycensus as pc
from polycensus import (
    connectivity,
    duality,
    enumerate_polyhedra,
    enumeration,
    order_bounds,
    planarity,
)
from polycensus.duality import _face_graph, _faces_through
from polycensus.enumeration import (
    _accepted_deletions,
    _accepted_splits,
    _dual_pairs,
    _embedded_census,
    _embedded_triangulations,
    _keeps_3_connected,
    _level,
    _relabelled,
    _ring,
    _split,
)
from polycensus.graphs import bits
from polycensus.isomorphism import _certificate, _labelled_search, canonical_labeling
from tests.conftest import run_python
from tests.oracles import (
    _degree_rows,
    _labeled_graphs_with_degrees,
    canonical_graph,
    exhaustive_polyhedra,
)

# classes per (p, q) cell; totals per order are 1, 2, 7, 34, 257, 2606
CENSUS_ROWS = {
    4: {6: 1},
    5: {8: 1, 9: 1},
    6: {9: 1, 10: 2, 11: 2, 12: 2},
    7: {11: 2, 12: 8, 13: 11, 14: 8, 15: 5},
    8: {12: 2, 13: 11, 14: 42, 15: 74, 16: 76, 17: 38, 18: 14},
    9: {14: 8, 15: 74, 16: 296, 17: 633, 18: 768, 19: 558, 20: 219, 21: 50},
}

TRIANGULATION_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50}

# sha256 over the certificates of every class with q <= 21 and
# min(p, q - p + 2) <= 9, cells by q then p
CENSUS_DIGEST = "1cc70f0192fe5678b479b091cbdef5bb733c03a913ceb1781e15e7bb9136828e"

# classes per size q, OEIS A002840
SIZE_TOTALS = dict(zip(range(6, 18), (1, 0, 1, 2, 2, 4, 12, 22, 58, 158, 448, 1342)))


def certs(graphs):
    return {pc.canonical_form(g) for g in graphs}


def _descended(census, p):
    """``census`` of order p continued below the self-dual line, where
    production reads the dual side, by the same deletion step."""
    levels = dict(census)
    for q in range(min(levels) - 1, (3 * p + 1) // 2 - 1, -1):
        levels[q] = _level(_accepted_deletions, levels[q + 1])
    return levels


@cache
def _full_census(p):
    return _descended(_embedded_census(p), p)


def test_order_bounds():
    assert order_bounds(14) == (7, 9)
    assert order_bounds(12) == (6, 8)
    assert order_bounds(6) == (4, 4)
    assert order_bounds(9) == (5, 6)
    with pytest.raises(ValueError):
        order_bounds(5)


def test_triangulation_counts():
    for p, expected in TRIANGULATION_COUNTS.items():
        ts = pc.triangulations(p)
        assert len(ts) == expected
        for g in ts:
            assert g.q == 3 * p - 6
            assert pc.is_polyhedral(g)
    with pytest.raises(ValueError):
        pc.triangulations(10)
    with pytest.raises(ValueError):
        pc.triangulations(3)


def test_triangulations_against_oracle():
    # a maximal planar graph is exactly a polyhedron with q = 3p - 6
    for p in range(4, 8):
        assert certs(pc.triangulations(p)) == certs(exhaustive_polyhedra(p, 3 * p - 6))


def test_census_row_counts():
    for p, row in CENSUS_ROWS.items():
        got = {q: len(v) for q, v in _full_census(p).items()}
        assert got == row, f"p={p}"
        # production descends only to the self-dual line q = 2p - 2
        got = {q: len(v) for q, v in _embedded_census(p).items()}
        assert got == {q: n for q, n in row.items() if q >= 2 * p - 2}, f"p={p}"


def test_census_against_oracle_exhaustive():
    for p in range(4, 8):
        lo = (3 * p + 1) // 2
        for q in range(lo, 3 * p - 5):
            assert certs(enumerate_polyhedra(p, q)) == certs(
                exhaustive_polyhedra(p, q)
            ), (p, q)


def test_census_against_oracle_order_8():
    # every size of the order: all 257 classes (A000944)
    total = 0
    for q in range(12, 19):
        oracle = certs(exhaustive_polyhedra(8, q))
        assert certs(enumerate_polyhedra(8, q)) == oracle, q
        total += len(oracle)
    assert total == 257


def test_census_against_oracle_order_9():
    # two cells the census reads off the duals of (7, 14) and (8, 15),
    # checked by a route that shares no code with the dual route
    for q, count in ((14, 8), (15, 74)):
        oracle = certs(exhaustive_polyhedra(9, q))
        assert certs(enumerate_polyhedra(9, q)) == oracle, q
        assert len(oracle) == count


def test_oracle_scan_size_order_8():
    # vertex 0's neighbours in each block of equal degree are the block's
    # first vertices: 41,143 labelled graphs over q = 12..18, weighing
    # the 233,937 with those degree rows
    scan = [
        w
        for q in range(12, 19)
        for row in _degree_rows(8, q)
        for _, w in _labeled_graphs_with_degrees(row)
    ]
    assert (len(scan), sum(scan)) == (41143, 233937)


def test_oracle_weights_count_the_uncut_scan():
    # on every degree row at orders 5 to 7 the weights of the cut scan sum
    # to the number of labelled graphs with that row
    for p, (uncut, cut) in {5: (4, 4), 6: (165, 59), 7: (4092, 1217)}.items():
        totals = [0, 0]
        for q in range((3 * p + 1) // 2, 3 * p - 5):
            for row in _degree_rows(p, q):
                scan = [w for _, w in _labeled_graphs_with_degrees(row)]
                full = [w for _, w in _labeled_graphs_with_degrees(row, cut=False)]
                assert set(full) == {1}
                assert sum(scan) == len(full), row
                totals[0] += len(full)
                totals[1] += len(scan)
        assert totals == [uncut, cut], p


def test_size_totals_against_a002840():
    for q, total in SIZE_TOTALS.items():
        by_p = pc.enumerate_by_size(q)
        assert sum(len(v) for v in by_p.values()) == total, q
        for p, classes in by_p.items():
            # duality pairs the classes of (p, q) with those of (q - p + 2, q)
            assert len(classes) == len(by_p[q - p + 2]), (p, q)
            for g in classes:
                assert canonical_graph(g) == g


def _masks(walks):
    return sorted(sum(1 << x for x in w) for w in walks)


def test_carried_faces_are_the_embedded_faces():
    # a polyhedral graph has one set of faces (Whitney), so the faces
    # carried with a class must be the vertex sets of the faces of any
    # embedding; a wrong relabelling would otherwise show only as
    # classes missing from the census
    for p in range(4, 10):
        for q, classes in _embedded_census(p).items():
            assert tuple(g for g, _, _, _ in classes) == enumerate_polyhedra(p, q)
            for g, _, faces, _ in classes:
                assert sorted(faces) == _masks(pc.embed(g)), pc.encode(g)


def test_split_faces_are_triangulations():
    # every split of every triangulation through order 8, accepted or
    # not, must carry exactly the 2p - 2 triangles of the split graph:
    # p on the wrong side of v would show only as classes missing from
    # the census
    splits = 0
    for p in range(4, 9):
        for _, _, faces, _ in _embedded_triangulations(p):
            for v in range(p):
                ring = _ring(faces, v)
                for i, j in combinations(range(len(ring)), 2):
                    split = _split(faces, v, ring, i, j)
                    s = pc.Graph.from_edges(
                        p + 1, {e for f in split for e in combinations(bits(f), 2)}
                    )
                    assert s.q == 3 * p - 3 and len(split) == 2 * p - 2, (p, v, i, j)
                    assert sorted(split) == _masks(pc.embed(s)), (p, v, i, j)
                    splits += 1
    assert splits == 1328


def _moved(faces, perm, rng):
    """``faces`` relabelled by ``perm``, in a shuffled order."""
    moved = list(_relabelled(faces, perm))
    rng.shuffle(moved)
    return tuple(moved)


def test_split_acceptance_ignores_labels():
    # relabelling a parent, and listing its faces in another order, must
    # carry its accepted splits along; a split is keyed by its last two
    # faces, the triangles on the new edge vp
    rng = random.Random(9)
    for p in range(5, 9):
        for t, _, faces, _ in _embedded_triangulations(p):
            perm = list(range(p))
            rng.shuffle(perm)
            ext = perm + [p]
            want = {
                frozenset(_relabelled(s[-2:], ext))
                for _, s in _accepted_splits(t, faces, ())
            }
            got = {
                frozenset(s[-2:])
                for _, s in _accepted_splits(
                    t.relabel(perm), _moved(faces, perm, rng), ()
                )
            }
            assert got == want, pc.encode(t)


def test_splits_skip_most_canonical_forms(monkeypatch):
    # the 14 order-8 triangulations have 956 splits; 545 are made, at one
    # vertex per automorphism orbit, and only the 90 whose new edge is a
    # best contractible edge are canonically labelled
    _embedded_triangulations(9)  # cached with order 8; not counted
    monkeypatch.setattr(enumeration, "_CPUS", 1)  # a child's calls go uncounted
    splits = _count(monkeypatch, enumeration, "_split")
    forms = _count(monkeypatch, enumeration, "_labelled_search")
    embeds = _count(monkeypatch, planarity, "_embed_block")
    assert _embedded_triangulations.__wrapped__(9) == _embedded_triangulations(9)
    assert (len(splits), len(forms), len(embeds)) == (545, 90, 0)


def test_census_never_embeds():
    # the census carries the faces of every class from K4's triangles
    tree = ast.parse(inspect.getsource(enumeration))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not any("planarity" in n for n in names)
    assert "embed" not in names
    assert "_embed_block" not in names
    # and reads 3-connectivity after a deletion off the faces
    assert not any("connectivity" in n for n in names)


def test_acceptance_rule_ignores_labels():
    # relabelling a parent and its faces, listed in another order, must
    # carry its accepted deletions and their merged faces along; a score
    # that read labels would move them
    rng = random.Random(8)
    for p in range(5, 9):
        for classes in _full_census(p).values():
            for g, _, faces, _ in classes:
                perm = list(range(p))
                rng.shuffle(perm)
                want = {
                    (h.relabel(perm), frozenset(_relabelled(child, perm)))
                    for h, child in _accepted_deletions(g, faces, ())
                }
                got = {
                    (h, frozenset(child))
                    for h, child in _accepted_deletions(
                        g.relabel(perm), _moved(faces, perm, rng), ()
                    )
                }
                assert got == want, pc.encode(g)


def test_acceptance_skips_most_canonical_forms(monkeypatch):
    # 1,355 deletions from the order-8 classes down to the self-dual line
    # are 3-connected; without the acceptance rule, its tie key and one
    # deletion per edge orbit, each of them would be searched
    enumeration.triangulations(8)  # fills the cache; its labels are not counted
    monkeypatch.setattr(enumeration, "_CPUS", 1)  # a child's calls go uncounted
    calls = _count(monkeypatch, enumeration, "_labelled_search")
    # the undecorated function runs a fresh census and leaves the caches be
    census = _embedded_census.__wrapped__(8)
    assert len(calls) == 257
    assert {q: len(v) for q, v in _descended(census, 8).items()} == CENSUS_ROWS[8]


def test_carried_generators_are_automorphisms():
    # orbit pruning is sound only if every carried permutation maps its
    # canonical graph, and so its faces, onto itself
    generators = 0
    for p in range(4, 10):
        for classes in _embedded_census(p).values():
            for g, _, faces, gens in classes:
                for gen in gens:
                    assert g.relabel(gen) == g, (pc.encode(g), gen)
                    assert sorted(_relabelled(faces, gen)) == sorted(faces)
                    generators += 1
    assert generators == 708  # not vacuous


def test_census_classes_carry_their_certificates():
    # each class keeps the certificate it was filed under, K4 included,
    # which is never searched, and each dual pair its dual's; both must be
    # the ones a fresh search gives, and each class and dual is stored as
    # its canonical graph, which the identity labels with that certificate
    classes = 0
    for p in range(4, 10):
        for q, cell in _embedded_census(p).items():
            pairs = _dual_pairs(p, q)
            assert [(g, c) for g, c, _, _ in cell] == [(h, c) for h, c, _, _ in pairs]
            for h, c, dc, d in pairs:
                assert c == _labelled_search(h)[0].certificate, pc.encode(h)
                assert dc == _labelled_search(d)[0].certificate, pc.encode(h)
                assert _certificate(h, tuple(range(h.p))).certificate == c, pc.encode(h)
                assert _certificate(d, tuple(range(d.p))).certificate == dc, pc.encode(h)
                classes += 1
    assert classes == 2809  # every direct-side class through order 9


def test_census_leaves_the_labelling_cache_alone(monkeypatch):
    # the census searches each child once and keeps nothing in the
    # cache that serves the catalog and the CLI
    monkeypatch.setattr(enumeration, "_CPUS", 1)  # a child's cache goes unseen
    census = _embedded_census(8)
    before = canonical_labeling.cache_info()
    assert _embedded_census.__wrapped__(8) == census
    for q in census:
        assert _dual_pairs.__wrapped__(8, q) == _dual_pairs(8, q)
    assert canonical_labeling.cache_info() == before


def test_dual_route_matches_direct_descent():
    # every cell with q - p + 2 < p <= 9 comes out of the dual side in
    # production; the deletion descent continued below the line must
    # land on the same stored classes, in the same order
    cells = 0
    for p in range(4, 10):
        for q, direct in _full_census(p).items():
            if q - p + 2 < p:
                assert enumerate_polyhedra(p, q) == tuple(g for g, _, _, _ in direct), (p, q)
                cells += 1
    assert cells == 6


def test_deletion_face_criterion_through_order_8():
    # g - ab is 3-connected iff no face of g but the two beside ab meets
    # both of their other vertices; checked on every edge of every class
    # against the definition, with the two faces beside ab read as the
    # only two that hold both a and b
    deletions = 0
    for p in range(4, 9):
        for classes in _full_census(p).values():
            for g, _, faces, _ in classes:
                on = _faces_through(faces, p)
                for a, b in g.edges():
                    # exactly two faces, of the at most 12 here
                    k, m = bits(on[a] & on[b])
                    ab = 1 << a | 1 << b
                    expected = pc.is_3_connected(g.remove_edge(a, b))
                    kept = _keeps_3_connected(on, faces[k] & ~ab, faces[m] & ~ab)
                    assert kept == expected, (pc.encode(g), a, b)
                    deletions += 1
    assert deletions == 4525


def test_carried_faces_give_the_dual():
    # Whitney: the carried faces yield the same dual class as the ones
    # `dual` computes from a fresh embedding
    for p in range(4, 9):
        for classes in _embedded_census(p).values():
            for h, _, faces, _ in classes:
                d = _face_graph(h, faces)
                assert pc.canonical_form(d) == pc.canonical_form(pc.dual(h))


def _count(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_dual_route_neither_embeds_nor_tests(monkeypatch):
    # the 76 classes of (8, 16) are polyhedral by construction and carry
    # their faces; dualizing them needs no embedding and no test
    _embedded_census(8)
    monkeypatch.setattr(enumeration, "_CPUS", 1)  # a child's calls go uncounted
    embeds = _count(monkeypatch, planarity, "_embed_block")
    tests = _count(monkeypatch, connectivity, "is_3_connected")
    tests_in_duality = _count(monkeypatch, duality, "_polyhedral")
    assert len(enumerate_polyhedra(10, 16)) == 76
    assert (len(embeds), len(tests), len(tests_in_duality)) == (0, 0, 0)


def test_each_triangulation_embedded_once(monkeypatch):
    # with the orders below warm, splitting carries the faces of its
    # parent, and the deletion descent merges them: nothing is embedded
    _embedded_triangulations(9)
    monkeypatch.setattr(enumeration, "_CPUS", 1)  # a child's calls go uncounted
    embeds = _count(monkeypatch, planarity, "_embed_block")
    for p in range(5, 10):
        embeds.clear()
        assert _embedded_triangulations.__wrapped__(p) == _embedded_triangulations(p)
        assert embeds == [], p
        embeds.clear()
        census = _descended(_embedded_census.__wrapped__(p), p)
        assert embeds == [], p
        assert {q: len(v) for q, v in census.items()} == CENSUS_ROWS[p]


def test_census_certificate_digest():
    # certificate drift would otherwise show only in the benchmark
    digest = hashlib.sha256()
    for q in range(6, 22):
        for p in range((q + 8) // 3, 2 * q // 3 + 1):
            if min(p, q - p + 2) <= 9:
                for g in enumerate_polyhedra(p, q):
                    digest.update(pc.canonical_form(g).certificate)
    assert digest.hexdigest() == CENSUS_DIGEST


def _census_and_duals(p):
    census = _embedded_census.__wrapped__(p)
    return census, {q: _dual_pairs.__wrapped__(p, q) for q in census}


def _forks(monkeypatch):
    """The list that each fork in this process appends to."""
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def test_split_census_equals_the_serial_one(monkeypatch):
    # each chunk of parents files its children first-wins and the chunks
    # merge in index order, whichever process ran them, so every class
    # keeps the faces and automorphisms of the serial pass, and every dual
    # its certificate and labelling
    forks = _forks(monkeypatch)
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(enumeration, "_CPUS", cpus)
        forks.clear()
        runs[cpus] = [_census_and_duals(p) for p in range(4, 10)]
        assert bool(forks) == (cpus > 1)  # not vacuous
    assert runs[1] == runs[2]
    # and no child outlives the calls that forked it
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_split_triangulation_level_equals_the_serial_one(monkeypatch):
    # the 14 parents of order 9, the only split level through order 9
    # with two chunks, are shared out between the caller and a child;
    # every class keeps the faces and automorphisms of the serial pass
    serial = _embedded_triangulations(9)  # the orders below are cached too
    forks = _forks(monkeypatch)
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(enumeration, "_CPUS", cpus)
        forks.clear()
        runs[cpus] = _embedded_triangulations.__wrapped__(9)
        assert len(forks) == cpus - 1  # not vacuous
    assert runs[1] == runs[2] == serial
    # and no child outlives the call that forked it
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_census_on_one_cpu():
    # a process held to one CPU finds one, runs the serial pass and gives
    # the same census
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")
    script = """
import hashlib
import polycensus as pc
from polycensus import enumeration

digest = hashlib.sha256()
for q in range(6, 22):
    for p in range((q + 8) // 3, 2 * q // 3 + 1):
        if min(p, q - p + 2) <= 9:
            for g in pc.enumerate_polyhedra(p, q):
                digest.update(pc.canonical_form(g).certificate)
print(enumeration._CPUS, digest.hexdigest())
"""
    cpu = min(os.sched_getaffinity(0))
    out = run_python(
        ["-c", script], preexec_fn=lambda: os.sched_setaffinity(0, {cpu})
    ).stdout
    assert out.split() == ["1", CENSUS_DIGEST]


def test_census_search_count():
    # the bench census region on one CPU, in a fresh interpreter: one
    # search per accepted child and per dual; labelling the sizes 6..17
    # after it searches only the duals of the self-dual-line cells (350)
    # and the three polyhedral complements
    script = """
import polycensus as pc
from polycensus import catalog, enumeration, isomorphism

enumeration._CPUS = 1  # a child's searches go uncounted
search, searches = isomorphism._search, []
isomorphism._search = lambda p, *rest: searches.append(p) or search(p, *rest)
classes = 0
for q in range(6, 22):
    for p in range((q + 8) // 3, 2 * q // 3 + 1):
        if min(p, q - p + 2) <= 9:
            classes += len(pc.enumerate_polyhedra(p, q))
census = len(searches)
for q in range(6, 18):
    catalog.order_census(q)
print(classes, census, len(searches) - census)
"""
    out = run_python(["-c", script]).stdout
    assert out.split() == ["5268", "5591", "353"]


@contextmanager
def _child_takes_a_chunk():
    """A side pipe that makes a forked child take a chunk: the function
    yielded, called at the start of each chunk, writes the chunk's index
    to the pipe in a child and, in the caller's first chunk, waits a few
    seconds at most for a child's byte.  The read end is yielded too."""
    me = os.getpid()
    r, w = os.pipe()
    waited = []

    def handshake(chunk):
        if os.getpid() != me:
            os.write(w, bytes([chunk[0] // enumeration._CHUNK]))
        elif not waited:
            waited.append(1)
            assert select.select([r], [], [], 5)[0], "no child took a chunk"

    try:
        yield handshake, r
    finally:
        os.close(r)
        os.close(w)


def test_chunks_are_queued_across_processes(monkeypatch):
    # with the caller held until a child has started a chunk, both run
    # chunks off the queue; each chunk runs once, its result comes back
    # in chunk order, and no child and no descriptor is left behind
    monkeypatch.setattr(enumeration, "_CPUS", 2)
    me = os.getpid()
    size = enumeration._CHUNK
    chunks = [tuple(range(i * size, (i + 1) * size)) for i in range(5)]
    fds = os.listdir("/dev/fd")
    with _child_takes_a_chunk() as (handshake, side):
        mine = []

        def work(chunk):
            handshake(chunk)
            if os.getpid() == me:
                mine.append(chunk[0] // size)
            return os.getpid(), chunk

        out = enumeration._chunked(work, sum(chunks, ()))
        theirs = list(os.read(side, len(chunks)))
    assert [chunk for _, chunk in out] == chunks
    assert sorted(mine + theirs) == list(range(len(chunks)))
    assert [i for i, (pid, _) in enumerate(out) if pid == me] == sorted(mine)
    assert len({pid for pid, _ in out}) == 2
    assert os.listdir("/dev/fd") == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_long_level_takes_at_most_255_chunks(monkeypatch):
    # one token per chunk must fit one write to the pipe, so 10,000 items
    # go out in 250 chunks of 40, and come back as the serial pass has them
    monkeypatch.setattr(enumeration, "_CPUS", 2)
    items = tuple(range(10_000))
    out = enumeration._chunked(tuple, items)
    assert len(out) == 250
    assert sum(out, ()) == items
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failing_chunk_fails_the_call(monkeypatch, tmp_path):
    # the parent raises, reaps every child first, and no child comes back
    # into the caller's code, even on an exception that nothing catches
    monkeypatch.setattr(enumeration, "_CPUS", 2)
    me = os.getpid()
    returned = tmp_path / "returned"
    with _child_takes_a_chunk() as (handshake, _):

        def work(chunk):
            handshake(chunk)
            if os.getpid() != me:
                raise KeyboardInterrupt
            return tuple(chunk)

        try:
            with pytest.raises(ChildProcessError):
                enumeration._chunked(work, tuple(range(4 * enumeration._CHUNK)))
        finally:
            if os.getpid() != me:
                returned.write_text("a child returned")
                os._exit(3)
    assert not returned.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_enumerate_infeasible_is_empty():
    assert enumerate_polyhedra(6, 13) == ()
    assert enumerate_polyhedra(5, 10) == ()
    assert enumerate_polyhedra(10, 14) == ()
    assert enumerate_polyhedra(4, 7) == ()


def test_enumerate_guard():
    # feasible cell, but both the order and the dual order exceed the
    # supported window
    with pytest.raises(ValueError):
        enumerate_polyhedra(12, 30)
    with pytest.raises(ValueError):
        enumerate_polyhedra(10, 24)


def test_exhaustive_guard():
    with pytest.raises(ValueError):
        exhaustive_polyhedra(9, 16)
    assert exhaustive_polyhedra(7, 16) == ()


def test_enumerate_by_size():
    by_p = pc.enumerate_by_size(14)
    assert sorted(by_p) == [7, 8, 9]
    assert {p: len(v) for p, v in by_p.items()} == {7: 8, 8: 42, 9: 8}
    assert {p: len(v) for p, v in pc.enumerate_by_size(12).items()} == {
        6: 2, 7: 8, 8: 2,
    }


def test_census_members_are_polyhedra(census):
    for (p, q), graphs in census.items():
        for g in graphs:
            assert g.p == p and g.q == q
            assert pc.is_polyhedral(g)


def test_census_has_no_duplicate_classes(census):
    for graphs in census.values():
        assert len(certs(graphs)) == len(graphs)


def test_filter_by_degree_sequence():
    g14 = enumerate_polyhedra(8, 14)
    row = pc.DegreeSequence((4, 4, 4, 4, 3, 3, 3, 3))
    hits = pc.filter_by_degree_sequence(g14, row)
    assert len(hits) == 17
    # a bare tuple works too
    assert len(pc.filter_by_degree_sequence(g14, (4, 4, 4, 4, 3, 3, 3, 3))) == 17
    assert len(
        pc.filter_by_degree_sequence(enumerate_polyhedra(8, 13), (4, 4, 3, 3, 3, 3, 3, 3))
    ) == 9
    assert pc.filter_by_degree_sequence(g14, (7, 7, 7, 7, 7, 7, 7, 7)) == ()


def test_determinism():
    a = [pc.encode(g) for g in enumerate_polyhedra(8, 13)]
    b = [pc.encode(g) for g in enumerate_polyhedra(8, 13)]
    assert a == b
    assert a == sorted(a, key=lambda s: pc.canonical_form(pc.decode(s)).certificate)
