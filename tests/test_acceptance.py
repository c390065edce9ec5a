"""The acceptance gate: ten numbered criteria, zero tolerance.

Each test prints one verdict line; the conftest summary hook repeats
them at the end of the run.  Every number asserted here was computed
by an independent route before being frozen (subset-scan oracle,
permutation oracle, published class counts), never copied from the
implementation under test.
"""

import itertools
import random

import polycensus as pc
from polycensus import DegreeSequence
from tests.oracles import (
    brute_3_connected,
    kuratowski_oracle,
    sample_graphs,
    shuffled,
)

VERDICTS: list[str] = []


def check(num: int, failures: list[str], detail: str) -> None:
    ok = not failures
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} | {detail}"
    if failures:
        line += " | " + "; ".join(failures)
    VERDICTS.append(line)
    print(line)
    assert ok, line


def test_criterion_01_census_counts(census):
    failures = []
    by_q = {}
    for (p, q), graphs in census.items():
        by_q.setdefault(q, {})[p] = len(graphs)
    small = sum(sum(row.values()) for q, row in by_q.items() if q <= 10)
    if small != 6:
        failures.append(f"q<=10 gave {small}, want 6")
    for q, want in ((11, 4), (12, 12), (13, 22)):
        got = sum(by_q[q].values())
        if got != want:
            failures.append(f"q={q} gave {got}, want {want}")
    crossing = by_q[14].get(7, 0) + by_q[14].get(9, 0)
    eights = pc.enumerate_polyhedra(8, 14)
    self_dual = sum(1 for g in eights if pc.is_self_dual(g))
    parts = (crossing, self_dual, len(eights) - self_dual)
    if parts != (16, 16, 26):
        failures.append(f"q=14 split {parts}, want (16, 16, 26)")
    if sum(parts) != 58:
        failures.append(f"q=14 total {sum(parts)}, want 58")
    check(1, failures, "census counts 6/4/12/22/58 with the 16+16+26 split at q=14")


def test_criterion_02_8_12_complements():
    failures = []
    graphs = pc.enumerate_polyhedra(8, 12)
    if len(graphs) != 2:
        failures.append(f"count {len(graphs)}, want 2")
    for g in graphs:
        if pc.is_planar(g.complement()):
            failures.append(f"{pc.encode(g)} has planar complement")
    check(2, failures, "both (8,12) polyhedra have non-planar complements")


def test_criterion_03_8_13_complements():
    failures = []
    graphs = pc.enumerate_polyhedra(8, 13)
    if len(graphs) != 11:
        failures.append(f"count {len(graphs)}, want 11")
    row = pc.filter_by_degree_sequence(graphs, DegreeSequence((4, 4, 3, 3, 3, 3, 3, 3)))
    if len(row) != 9:
        failures.append(f"44333333 count {len(row)}, want 9")
    for g in row:
        if pc.is_planar(g.complement()):
            failures.append(f"{pc.encode(g)} has planar complement")
    check(3, failures, "(8,13): 11 polyhedra, 9 on the 44333333 row, all rejected")


def test_criterion_04_8_14_counts():
    failures = []
    graphs = pc.enumerate_polyhedra(8, 14)
    if len(graphs) != 42:
        failures.append(f"count {len(graphs)}, want 42")
    row = pc.filter_by_degree_sequence(graphs, DegreeSequence((4, 4, 4, 4, 3, 3, 3, 3)))
    if len(row) != 17:
        failures.append(f"44443333 count {len(row)}, want 17")
    check(4, failures, "(8,14): 42 polyhedra, 17 on the 44443333 row")


def test_criterion_05_solutions():
    failures = []
    report = pc.solve_question()
    if len(report.solutions) != 3:
        failures.append(f"{len(report.solutions)} solutions, want 3")
    non_self_dual = 0
    for e in report.solutions:
        if not pc.is_self_complementary(e.graph):
            failures.append(f"{e.label} not self-complementary")
        if not pc.is_self_dual(e.graph):
            non_self_dual += 1
        if e.degree_sequence().compact() != "44443333":
            failures.append(f"{e.label} degrees {e.degree_sequence().compact()}")
    if non_self_dual != 1:
        failures.append(f"{non_self_dual} non-self-dual solutions, want exactly 1")
    check(5, failures, "three solutions, all self-complementary, one non-self-dual")


def test_criterion_06_pruning():
    failures = []
    trace = pc.prune_order()
    if trace.candidate_orders != (8,):
        failures.append(f"candidate orders {trace.candidate_orders}")
    step = {s.p: s for s in trace.steps}[8]
    if (step.max_degree, step.min_degree) != (4, 3):
        failures.append(f"order-8 window [{step.min_degree}, {step.max_degree}]")
    rows = pc.candidate_degree_rows()
    table = [
        (r.row.compact(), r.q, r.r, r.complement_row.compact(), r.q_complement, r.r_complement)
        for r in rows
    ]
    want = [
        ("33333333", 12, 6, "44444444", 16, 10),
        ("44333333", 13, 7, "44444433", 15, 9),
        ("44443333", 14, 8, "44443333", 14, 8),
    ]
    if table != want:
        failures.append(f"rows {table}")
    check(6, failures, "order pruning isolates p=8 and the three degree rows")


def test_criterion_07_unique_system_solution():
    failures = []
    if pc.equal_order_size_system() != ((8, 14),):
        failures.append(f"system gave {pc.equal_order_size_system()}")
    if not pc.verify_remark_8_14():
        failures.append("verify_remark_8_14 returned false")
    check(7, failures, "(8,14) is the unique equal-order-and-size solution")


def test_criterion_08_property_suites(universe, census):
    failures = []
    rng = random.Random(2026)
    sampled = sample_graphs(8, 25, 8801) + sample_graphs(9, 20, 8802)

    for g in itertools.chain(universe, sampled):
        if g.complement().complement() != g:
            failures.append(f"complement involution broke on {pc.encode(g)}")
            break

    for graphs in census.values():
        for g in graphs:
            if not pc.are_isomorphic(pc.dual(pc.dual(g)), g):
                failures.append(f"dual of dual moved {pc.encode(g)}")

    for (p, q), graphs in census.items():
        for g in graphs:
            if len(pc.embed(g)) != q - p + 2:
                failures.append(f"euler broke on {pc.encode(g)}")

    for g in itertools.chain(universe, sampled):
        if pc.is_planar(g) != kuratowski_oracle(g):
            failures.append(f"planarity disagreement on {pc.encode(g)}")

    for g in itertools.chain(universe, sampled):
        if pc.is_3_connected(g) != brute_3_connected(g):
            failures.append(f"connectivity disagreement on {pc.encode(g)}")

    for g in itertools.chain(universe, sampled):
        base = pc.canonical_form(g)
        if any(
            pc.canonical_form(shuffled(g, rng)) != base for _ in range(100)
        ):
            failures.append(f"certificate varies under relabeling of {pc.encode(g)}")

    for g in itertools.chain(universe, sampled):
        if pc.decode(pc.encode(g)) != g:
            failures.append(f"graph6 roundtrip broke on {pc.encode(g)}")

    check(
        8,
        failures[:5],
        "properties hold exhaustively below order 8 and sampled at 8 and 9",
    )


def test_criterion_09_pruned_equals_unpruned():
    failures = []
    pruned = {e.certificate for e in pc.solve_question(prune=True).solutions}
    unpruned = {e.certificate for e in pc.solve_question(prune=False).solutions}
    if pruned != unpruned:
        failures.append(f"pruned {len(pruned)} vs unpruned {len(unpruned)}")
    check(9, failures, "pruned and unpruned sweeps agree on solution certificates")


def test_criterion_10_duals_stay_in_the_family(census):
    failures = []
    for graphs in census.values():
        for g in graphs:
            if not pc.is_polyhedral(pc.dual(g)):
                failures.append(f"dual of {pc.encode(g)} is not polyhedral")
    check(10, failures, "every census polyhedron has a polyhedral dual")
