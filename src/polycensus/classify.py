"""Which polyhedral graphs have polyhedral complements?

The search space is cut down in stages, each stage carrying its reason:

* orders 4..6: a graph and its complement both need minimum degree 3,
  so degrees must fit in [3, p - 4], which is empty,
* order 7: degrees are pinned to exactly 3, but 7 * 3 is odd,
* order 8: degrees confined to [3, 4]; this is the live case,
* order 9: no planar graph on 9 vertices has a planar complement,
  verified here by checking every maximal planar graph on 9 vertices
  (any planar graph extends to one, and complements only shrink),
* order 10 and up: both planar would induce both planar on any 9 of
  the vertices.

``solve_question`` then scans the order-8 census, with or without the
degree-row pruning, and reports the survivors.  The order-9 bound needs
nothing of that scan but the triangulations below order 9, so where
the process may fork, a forked child proves it while the scan runs,
and the answer is read when the order pruning goes into the report;
it is kept, and the report is the same bytes on one CPU, where the
bound is proved in-process.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .catalog import CatalogEntry, _entry_record, order_census
from .duality import _polyhedral
from .enumeration import (
    _forked,
    _may_fork,
    enumerate_polyhedra,
    filter_by_degree_sequence,
    triangulations,
)
from .graph6 import encode
from .graphs import DegreeSequence, Graph
from .isomorphism import canonical_labeling
from .planarity import is_planar


class ClassificationError(RuntimeError):
    """Computed evidence contradicts the expected classification."""


# ---------------------------------------------------------------------------
# stage 1: orders

class PruneStep(NamedTuple):
    """One order's fate, with the degree window [min_degree, max_degree]
    that a solution of that order would have to respect."""

    p: int
    verdict: str  # "excluded" or "candidate"
    reason: str
    min_degree: int
    max_degree: int


class PruneTrace(NamedTuple):
    steps: tuple[PruneStep, ...]

    @property
    def candidate_orders(self) -> tuple[int, ...]:
        return tuple(s.p for s in self.steps if s.verdict == "candidate")


def verify_planar_complement_bound() -> bool:
    """No 9-vertex graph and its complement are both planar.

    Checked on maximal planar graphs only: every planar graph on 9
    vertices is a spanning subgraph of a maximal one, whose complement
    is in turn a subgraph of the original's complement.
    """
    return all(not is_planar(t.complement()) for t in triangulations(9))


def _bound() -> tuple[bool, int]:
    """Whether the order-9 bound holds, and on how many maximal planar
    graphs it was checked."""
    return verify_planar_complement_bound(), len(triangulations(9))


def _trace(proved: bool, nine: int) -> PruneTrace:
    """The order pruning, given the order-9 bound ``_bound`` found."""
    if not proved:
        raise ClassificationError(
            "found a 9-vertex maximal planar graph with planar complement"
        )
    steps = [
        PruneStep(p, "excluded", f"degree window [3, {p - 4}] is empty", 3, p - 4)
        for p in (4, 5, 6)
    ]
    steps.append(
        PruneStep(7, "excluded", "degrees pinned to 3, but 7 * 3 is odd", 3, 3)
    )
    steps.append(PruneStep(8, "candidate", "degrees confined to [3, 4]", 3, 4))
    steps.append(
        PruneStep(
            9,
            "excluded",
            "complement of a planar graph on 9 vertices is never planar, "
            f"checked via all {nine} maximal planar graphs",
            3,
            5,
        )
    )
    steps.append(
        PruneStep(
            10,
            "excluded",
            "this and every larger order induce, on any 9 vertices, a "
            "planar graph with planar complement",
            3,
            6,
        )
    )
    return PruneTrace(tuple(steps))


# prune_order's answer once proved, here or in solve_question's child
_proved: list[PruneTrace] = []


def prune_order() -> PruneTrace:
    """Why only order 8 can carry a polyhedral graph with polyhedral
    complement; proved once per process."""
    if not _proved:
        _proved.append(_trace(*_bound()))
    return _proved[0]


# ---------------------------------------------------------------------------
# stage 2: degree rows at order 8

class CandidateRow(NamedTuple):
    """A feasible order-8 degree vector with its complement's vector;
    r columns are face counts q - p + 2."""

    row: DegreeSequence
    complement_row: DegreeSequence

    @property
    def q(self) -> int:
        return self.row.q

    @property
    def r(self) -> int:
        return self.row.q - self.row.p + 2

    @property
    def q_complement(self) -> int:
        return self.complement_row.q

    @property
    def r_complement(self) -> int:
        return self.complement_row.q - self.complement_row.p + 2


def candidate_degree_rows() -> tuple[CandidateRow, ...]:
    """Order-8 degree vectors a solution could have.

    Degrees live in [3, 4]; the sum must be even; since a solution's
    complement is again a solution, only the side with no more edges
    than its complement is scanned.
    """
    out = []
    for fours in range(9):
        row = (4,) * fours + (3,) * (8 - fours)
        if sum(row) % 2:
            continue
        ds = DegreeSequence(row)
        comp = ds.complement()
        if ds.q <= comp.q:
            out.append(CandidateRow(ds, comp))
    return tuple(out)


# ---------------------------------------------------------------------------
# stage 3: scan the census

class CaseResult(NamedTuple):
    """Outcome of complement-checking one slice of the order-8 census.

    A complement failing both checks is counted against planarity.
    """

    p: int
    q: int
    row: DegreeSequence | None  # None when scanning a whole size
    candidates: int
    complement_non_planar: int
    complement_not_3_connected: int
    solutions: tuple[Graph, ...]


class ClassificationReport(NamedTuple):
    pruned: bool
    trace: PruneTrace
    candidate_rows: tuple[CandidateRow, ...]
    cases: tuple[CaseResult, ...]
    solutions: tuple[CatalogEntry, ...]

    def to_text(self) -> str:
        lines = ["order pruning:"]
        for s in self.trace.steps:
            tail = " and up" if s.p == 10 else ""
            lines.append(f"  p={s.p}{tail}: {s.verdict}, {s.reason}")
        lines.append("candidate degree rows at order 8 (row, q, r; complement):")
        for c in self.candidate_rows:
            lines.append(
                f"  {c.row.compact()}  q={c.q:2d} r={c.r}   "
                f"{c.complement_row.compact()}  q={c.q_complement:2d} r={c.r_complement}"
            )
        mode = "by degree row" if self.pruned else "by size alone"
        lines.append(f"census scan at order 8, {mode}:")
        for c in self.cases:
            what = f"degrees {c.row.compact()}" if c.row else "all degree rows"
            lines.append(
                f"  q={c.q}, {what}: {c.candidates} candidates, "
                f"{len(c.solutions)} survive "
                f"({c.complement_non_planar} complements non-planar, "
                f"{c.complement_not_3_connected} not 3-connected)"
            )
        lines.append(f"solutions: {len(self.solutions)}")
        for e in self.solutions:
            flags = [
                "self-complementary" if e.self_complementary else "not self-complementary",
                "self-dual" if e.self_dual else f"dual is {e.dual_label}",
            ]
            name = e.published_name or "unnamed"
            lines.append(
                f"  {e.label} ({name}) p={e.p} q={e.q} "
                f"degrees {e.degree_sequence().compact()}, " + ", ".join(flags)
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "report_version": 1,
            "pruned": self.pruned,
            "order_pruning": [s._asdict() for s in self.trace.steps],
            "candidate_rows": [
                {
                    "row": c.row.compact(),
                    "q": c.q,
                    "r": c.r,
                    "complement_row": c.complement_row.compact(),
                    "complement_q": c.q_complement,
                    "complement_r": c.r_complement,
                }
                for c in self.candidate_rows
            ],
            "cases": [
                {
                    "p": c.p,
                    "q": c.q,
                    "degree_row": c.row.compact() if c.row else None,
                    "candidates": c.candidates,
                    "complement_non_planar": c.complement_non_planar,
                    "complement_not_3_connected": c.complement_not_3_connected,
                    "solutions": [encode(g) for g in c.solutions],
                }
                for c in self.cases
            ],
            "solutions": [_entry_record(e) for e in self.solutions],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _scan(p: int, q: int, row, graphs, found: set[Graph]) -> CaseResult:
    non_planar = not_3conn = 0
    winners = []
    for g in graphs:
        c = g.complement()
        planar, faces = _polyhedral(c)
        if not planar:
            non_planar += 1
            continue
        if faces is None:
            not_3conn += 1
            continue
        winners.append(g)
        # a census class is stored as its canonical graph; the complement,
        # a solution too, is named by its canonical graph in the same way
        found.update((g, c.relabel(canonical_labeling(c))))
    return CaseResult(p, q, row, len(graphs), non_planar, not_3conn, tuple(winners))


def _entry(g: Graph) -> CatalogEntry:
    for entry in order_census(g.q):
        if entry.graph == g:
            return entry
    raise ClassificationError(f"solution {encode(g)} falls outside the catalog")


def solve_question(prune: bool = True) -> ClassificationReport:
    """Find every polyhedral graph whose complement is polyhedral.

    With prune=True, order 8 is scanned row by row over the feasible
    degree vectors and closed under complementation; with prune=False,
    every order-8 size that leaves the complement enough edges is
    scanned whole.  Both must land on the same classes.

    Where the process may fork and the order-9 bound is not yet proved,
    a forked child proves it during the scan.
    """
    with _forked([_bound] if not _proved and _may_fork() else []) as sent:
        rows = candidate_degree_rows()
        found: set[Graph] = set()
        cases = []
        if prune:
            for cand in rows:
                graphs = filter_by_degree_sequence(
                    enumerate_polyhedra(8, cand.q), cand.row
                )
                cases.append(_scan(8, cand.q, cand.row, graphs, found))
        else:
            for q in range(12, 17):
                cases.append(_scan(8, q, None, enumerate_polyhedra(8, q), found))
        solutions = tuple(sorted(map(_entry, found), key=lambda e: e.label))
    if sent:
        _proved.append(_trace(*sent[0]))
    trace = prune_order()
    return ClassificationReport(prune, trace, rows, tuple(cases), solutions)


def validate_report(report: ClassificationReport) -> None:
    """Raise ClassificationError unless the report shows the expected
    classification: three solutions, all self-complementary, all with
    8 vertices, 14 edges and degrees 44443333, exactly one of them not
    self-dual."""
    if report.trace.candidate_orders != (8,):
        raise ClassificationError("order pruning did not isolate order 8")
    sols = report.solutions
    if len(sols) != 3:
        raise ClassificationError(f"expected 3 solutions, found {len(sols)}")
    for e in sols:
        if (e.p, e.q) != (8, 14):
            raise ClassificationError(f"solution {e.label} is not on (8, 14)")
        if e.degree_sequence().compact() != "44443333":
            raise ClassificationError(
                f"solution {e.label} has degrees {e.degree_sequence().compact()}"
            )
        if not e.self_complementary:
            raise ClassificationError(f"solution {e.label} is not self-complementary")
    non_self_dual = [e for e in sols if not e.self_dual]
    if len(non_self_dual) != 1:
        raise ClassificationError(
            f"expected exactly one non-self-dual solution, found {len(non_self_dual)}"
        )
    if report.pruned:
        sizes = {c.q: c.candidates for c in report.cases}
        if sizes != {12: 2, 13: 9, 14: 17}:
            raise ClassificationError(f"unexpected pruned case sizes {sizes}")


# ---------------------------------------------------------------------------
# the parameter coincidence at (8, 14)

def equal_order_size_system() -> tuple[tuple[int, int], ...]:
    """Feasible (p, q) where the dual keeps the order (q = 2p - 2) and
    the complement keeps the size (4q = p(p - 1), so the complement
    also has q edges).  Feasible means q fits a polyhedron: it lies in
    [6, 3p - 6].
    """
    out = []
    for p in range(4, 65):
        q = 2 * p - 2
        if 4 * q == p * (p - 1) and 6 <= q <= 3 * p - 6:
            out.append((p, q))
    return tuple(out)


def verify_remark_8_14() -> bool:
    """A polyhedron of the same order and size as both its dual and its
    complement must be an (8, 14) graph: the system q = 2p - 2,
    4q = p(p - 1) has (8, 14) as its only feasible solution."""
    return equal_order_size_system() == ((8, 14),)
