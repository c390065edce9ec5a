import json
import os

import pytest

import polycensus as pc
from polycensus import (
    ClassificationError,
    candidate_degree_rows,
    classify,
    cli,
    enumeration,
    equal_order_size_system,
    prune_order,
    solve_question,
    validate_report,
    verify_planar_complement_bound,
    verify_remark_8_14,
)
from polycensus.classify import _entry
from tests.oracles import (
    brute_3_connected,
    kuratowski_oracle,
    self_complementary_graphs,
)


def test_prune_order_trace():
    trace = prune_order()
    assert trace.candidate_orders == (8,)
    by_p = {s.p: s for s in trace.steps}
    assert set(by_p) == {4, 5, 6, 7, 8, 9, 10}
    for p in (4, 5, 6, 7, 9, 10):
        assert by_p[p].verdict == "excluded"
    assert by_p[8].verdict == "candidate"
    # the surviving window forces top degree 4 and bottom degree 3
    assert by_p[8].min_degree == 3
    assert by_p[8].max_degree == 4
    # order 7 dies on parity, not on the window
    assert by_p[7].min_degree == by_p[7].max_degree == 3
    assert "odd" in by_p[7].reason


def test_planar_complement_bound():
    assert verify_planar_complement_bound()
    # the fact it certifies, spot-checked directly: no 9-vertex
    # triangulation has a planar complement
    for g in pc.triangulations(9)[:5]:
        assert not pc.is_planar(g.complement())


def _cold_bound(monkeypatch, cpus):
    """Forget the proved order pruning and run on ``cpus`` CPUs; returns
    the list that each fork appends to."""
    monkeypatch.setattr(classify, "_proved", [])
    monkeypatch.setattr(enumeration, "_CPUS", cpus)
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def test_bound_child_is_reaped_and_proves_once(monkeypatch):
    forks = _cold_bound(monkeypatch, 2)
    prove, proofs = classify.verify_planar_complement_bound, []
    monkeypatch.setattr(
        classify, "verify_planar_complement_bound", lambda: proofs.append(1) or prove()
    )
    report = solve_question()
    assert forks and not proofs  # proved in a child, not here
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # the child's answer is kept: a second sweep and prune_order read it
    # and prove nothing
    forks.clear()
    assert solve_question(prune=False).trace is report.trace is prune_order()
    assert not forks and not proofs
    # and it is the trace proved here
    monkeypatch.setattr(classify, "_proved", [])
    assert prune_order() == report.trace and proofs == [1]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_bound_fails_the_classification(monkeypatch, capsys, cpus):
    # patched before the fork, so the child proves the broken bound
    forks = _cold_bound(monkeypatch, cpus)
    monkeypatch.setattr(classify, "verify_planar_complement_bound", lambda: False)
    with pytest.raises(ClassificationError, match="planar complement"):
        solve_question()
    assert bool(forks) == (cpus == 2)
    capsys.readouterr()
    assert cli.main(["classify"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "planar complement" in err
    assert not classify._proved


def test_a_dying_bound_child_fails_the_call(monkeypatch, tmp_path):
    # the parent raises only once every child is reaped, and the child
    # never comes back into the caller's code, even on an exception that
    # nothing catches
    forks = _cold_bound(monkeypatch, 2)
    me = os.getpid()
    returned = tmp_path / "returned"

    def dying():
        if os.getpid() != me:
            raise KeyboardInterrupt
        return True, 50

    monkeypatch.setattr(classify, "_bound", dying)
    try:
        with pytest.raises(ChildProcessError):
            solve_question()
    finally:
        if os.getpid() != me:
            returned.write_text("a child returned")
            os._exit(3)
    assert forks and not returned.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not classify._proved


def test_candidate_degree_rows():
    rows = candidate_degree_rows()
    assert [r.row.compact() for r in rows] == ["33333333", "44333333", "44443333"]
    assert [r.complement_row.compact() for r in rows] == [
        "44444444", "44444433", "44443333",
    ]
    assert [(r.q, r.r) for r in rows] == [(12, 6), (13, 7), (14, 8)]
    assert [(r.q_complement, r.r_complement) for r in rows] == [
        (16, 10), (15, 9), (14, 8),
    ]
    for r in rows:
        assert r.row.complement() == r.complement_row


def test_solve_question_pruned():
    report = solve_question(prune=True)
    assert report.pruned
    assert len(report.solutions) == 3
    validate_report(report)
    tallies = {
        (c.q, c.candidates, c.complement_non_planar, len(c.solutions))
        for c in report.cases
    }
    assert tallies == {(12, 2, 2, 0), (13, 9, 9, 0), (14, 17, 14, 3)}
    # rejection accounting: every rejected complement fails planarity
    # first; none got discarded for connectivity alone
    assert all(c.complement_not_3_connected == 0 for c in report.cases)


def test_solve_question_unpruned():
    report = solve_question(prune=False)
    assert not report.pruned
    assert len(report.solutions) == 3
    validate_report(report)
    by_q = {c.q: c for c in report.cases}
    assert sorted(by_q) == [12, 13, 14, 15, 16]
    assert {q: c.candidates for q, c in by_q.items()} == {
        12: 2, 13: 11, 14: 42, 15: 74, 16: 76,
    }
    # all eleven q=13 complements are non-planar, matching the row count
    assert by_q[13].complement_non_planar == 11
    assert by_q[12].complement_non_planar == 2
    assert {q: len(c.solutions) for q, c in by_q.items()} == {
        12: 0, 13: 0, 14: 3, 15: 0, 16: 0,
    }


def test_pruned_equals_unpruned():
    pruned = solve_question(prune=True)
    unpruned = solve_question(prune=False)
    a = {e.certificate for e in pruned.solutions}
    b = {e.certificate for e in unpruned.solutions}
    assert a == b
    assert [e.label for e in pruned.solutions] == [e.label for e in unpruned.solutions]


def test_solutions_properties():
    report = solve_question()
    degrees = {e.degree_sequence().compact() for e in report.solutions}
    assert degrees == {"44443333"}
    # recompute everything from the graphs, not the stored flags
    for e in report.solutions:
        g = e.graph
        assert (g.p, g.q) == (8, 14)
        assert pc.is_polyhedral(g.complement())
        assert pc.is_self_complementary(g)
        comp = g.complement()
        assert (comp.p, comp.q) == (8, 14)
        d = pc.dual(g)
        assert (d.p, d.q) == (8, 14)
    non_self_dual = [e for e in report.solutions if not pc.is_self_dual(e.graph)]
    assert len(non_self_dual) == 1
    # the published names cover the three, the odd one out is .39
    names = {e.published_name for e in report.solutions}
    assert names == {"g_1408.12", "g_1408.13", "g_1408.39"}
    assert non_self_dual[0].published_name == "g_1408.39"
    # pairwise distinct
    a, b, c = (e.graph for e in report.solutions)
    assert not pc.are_isomorphic(a, b)
    assert not pc.are_isomorphic(b, c)
    assert not pc.are_isomorphic(a, c)


def test_a_graph_off_its_canonical_labelling_falls_outside_the_catalog():
    g = solve_question().solutions[0].graph
    assert _entry(g).graph == g
    moved = g.relabel(range(g.p - 1, -1, -1))
    assert moved != g and pc.are_isomorphic(moved, g)
    with pytest.raises(ClassificationError, match="falls outside the catalog"):
        _entry(moved)


def test_order_8_scans_read_only_the_dual_pairs_they_need(monkeypatch):
    # the cells (8, 15) and (8, 16) lie on the direct side of the
    # self-dual line; their dual pairs would cost 74 + 76 dual searches
    # that no scan reads
    cells = []
    dual_pairs = enumeration._dual_pairs

    def recording(r, q):
        cells.append((r, q))
        return dual_pairs(r, q)

    monkeypatch.setattr(enumeration, "_dual_pairs", recording)
    solve_question()
    solve_question(prune=False)
    assert (6, 12) in cells  # the (8, 12) classes are read off their duals
    assert not {(8, 15), (8, 16)} & set(cells)


def test_validate_report_rejects_tampering():
    report = solve_question()
    broken = report._replace(solutions=report.solutions[:2])
    with pytest.raises(ClassificationError):
        validate_report(broken)
    broken = report._replace(trace=report.trace._replace(steps=report.trace.steps[:4]))
    with pytest.raises(ClassificationError):
        validate_report(broken)


def test_report_text():
    text = solve_question().to_text()
    assert "p=8: candidate" in text
    assert "44443333  q=14 r=8" in text
    assert "17 candidates" in text
    assert "solutions: 3" in text
    assert "g_1408.39" in text


def test_report_json():
    doc = json.loads(solve_question().to_json())
    assert doc["report_version"] == 1
    assert len(doc["candidate_rows"]) == 3
    assert len(doc["solutions"]) == 3
    assert len(doc["cases"]) == 3
    for sol in doc["solutions"]:
        g = pc.decode(sol["graph6"])
        assert pc.canonical_form(g).hex == sol["certificate"]
        assert sol["degrees"] == "44443333"


def test_equal_order_size_system():
    assert equal_order_size_system() == ((8, 14),)
    assert verify_remark_8_14()


def test_solutions_from_the_self_complementary_side():
    """The three solutions again, without the census: the
    self-complementary graphs on 8 and 9 vertices (A000171: 10 and 36
    classes), tested by the subdivision search and the cut search."""
    classes = {}
    for p, labelled, count in ((8, 272, 10), (9, 1056, 36)):
        graphs = self_complementary_graphs(p)
        assert len(graphs) == labelled
        classes[p] = {pc.canonical_form(g): g for g in graphs}
        assert len(classes[p]) == count
        assert all(map(pc.is_self_complementary, classes[p].values()))
    assert all(map(kuratowski_oracle, classes[8].values()))
    # no planar graph on 9 vertices has a planar complement
    assert not any(map(kuratowski_oracle, classes[9].values()))
    polyhedral = [g for g in classes[8].values() if brute_3_connected(g)]
    solutions = {e.certificate for e in solve_question().solutions}
    assert len(polyhedral) == 3 and set(map(pc.canonical_form, polyhedral)) == solutions
    assert sum(map(pc.is_self_dual, polyhedral)) == 2
