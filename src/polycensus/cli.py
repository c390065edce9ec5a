"""Command line front end.

Exit codes: 0 success, 2 input error (including malformed graph6 and
bound violations), 3 verification failure (computed results contradict
the expected classification).

The single-graph subcommands (complement, dual, check) take graph6
strings as arguments or, given none, read one graph6 line per graph
from stdin, writing one output line per input line.  They skip
argparse unless an argument starts with "-" (never a graph6
character); argparse, imported on first use, serves everything else:
enumerate, classify, help and usage errors.

Relative --out and --report paths are resolved against the
POLYCENSUS_OUTDIR environment variable when it is set; a path that
cannot be written is an input error.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from types import SimpleNamespace

from .catalog import (
    catalog_to_json,
    dot_document,
    graph6_lines,
    order_census,
)
from .classify import ClassificationError, solve_question, validate_report
from .duality import NotPolyhedralError, _polyhedral, _self_dual_by_faces, dual
from .enumeration import enumerate_by_size
from .graph6 import decode, encode
from .graphs import Graph
from .isomorphism import is_self_complementary
from .connectivity import is_3_connected


def _resolve_out(path_str: str) -> Path:
    path = Path(path_str)
    base = os.environ.get("POLYCENSUS_OUTDIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


@contextmanager
def _writing(out: Path):
    """Turn a failed write under ``out`` into an input error (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with _writing(out):
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")


def _input_graphs(args) -> list[tuple[str, Graph]]:
    lines = args.graphs or [
        line.strip() for line in sys.stdin.read().splitlines() if line.strip()
    ]
    if not lines:
        raise ValueError("no graphs given (arguments or stdin)")
    return [(line, decode(line)) for line in lines]


# ---------------------------------------------------------------------------
# subcommands

def cmd_enumerate(args) -> int:
    if args.q < 6:
        raise ValueError("no polyhedral graph has fewer than 6 edges")
    census = enumerate_by_size(args.q)
    out = _resolve_out(args.out) if args.out else None

    if args.format == "g6":
        if args.p is not None:
            graphs = census.get(args.p, ())
        else:
            graphs = tuple(g for classes in census.values() for g in classes)
        _emit(graph6_lines(graphs), out)
        return 0

    entries = order_census(args.q)
    if args.p is not None:
        entries = tuple(e for e in entries if e.p == args.p)
    if args.format == "json":
        _emit(catalog_to_json(entries), out)
        return 0

    # dot: one graph per file under --out, concatenated blocks on stdout
    if out is None:
        _emit(dot_document((e.label, e.graph) for e in entries), None)
        return 0
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        for e in entries:
            (out / f"{e.label}.dot").write_text(
                dot_document([(e.label, e.graph)]), encoding="utf-8"
            )
    return 0


def cmd_classify(args) -> int:
    report = solve_question(prune=True)
    validate_report(report)
    footer = ""
    if args.no_prune:
        unpruned = solve_question(prune=False)
        validate_report(unpruned)
        if {e.certificate for e in report.solutions} != {
            e.certificate for e in unpruned.solutions
        }:
            raise ClassificationError(
                "pruned and unpruned sweeps disagree on the solutions"
            )
        report = unpruned
        footer = "\npruned and unpruned sweeps agree on the solution certificates"
    sys.stdout.write(report.to_text() + footer + "\n")
    if args.report:
        _emit(report.to_json(), _resolve_out(args.report))
    return 0


def cmd_complement(args) -> int:
    for _, g in _input_graphs(args):
        sys.stdout.write(encode(g.complement()) + "\n")
    return 0


def cmd_dual(args) -> int:
    for line, g in _input_graphs(args):
        try:
            d = dual(g)
        except NotPolyhedralError:
            raise ValueError(f"dual needs a polyhedral graph, got {line}") from None
        sys.stdout.write(encode(d) + "\n")
    return 0


def cmd_check(args) -> int:
    def word(flag: bool) -> str:
        return "true" if flag else "false"

    for _, g in _input_graphs(args):
        # one embedding: its faces answer 3-connectivity when g is planar,
        # and the same faces give its dual
        planar, faces = _polyhedral(g)
        poly = faces is not None
        three = poly if planar else is_3_connected(g)
        self_dual = poly and _self_dual_by_faces(g, faces)
        sys.stdout.write(
            f"planar={word(planar)}"
            f" 3-connected={word(three)}"
            f" polyhedral={word(poly)}"
            f" self-dual={word(self_dual)}"
            f" self-complementary={word(is_self_complementary(g))}\n"
        )
    return 0


# ---------------------------------------------------------------------------
# wiring

_GRAPH_COMMANDS = {"complement": cmd_complement, "dual": cmd_dual, "check": cmd_check}


@cache
def build_parser():
    # built on first use; each parse_args call fills a fresh namespace
    import argparse

    parser = argparse.ArgumentParser(
        prog="polycensus",
        description="census and classification of small polyhedral graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    en = sub.add_parser("enumerate", help="emit a census block")
    en.add_argument("--q", type=int, required=True, help="edge count")
    en.add_argument("--p", type=int, help="restrict to one vertex count")
    en.add_argument("--format", choices=("g6", "json", "dot"), default="g6")
    en.add_argument("--out", help="output file (directory for dot)")
    en.set_defaults(func=cmd_enumerate)

    cl = sub.add_parser(
        "classify", help="find the polyhedra with polyhedral complements"
    )
    cl.add_argument(
        "--no-prune",
        dest="no_prune",
        action="store_true",
        help="also run the unpruned sweep and require identical solutions",
    )
    cl.add_argument("--report", help="write the JSON report here")
    cl.set_defaults(func=cmd_classify)

    for name, blurb in (
        ("complement", "complement of each input graph"),
        ("dual", "dual of each polyhedral input graph"),
        ("check", "print per-graph property booleans"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("graphs", nargs="*", help="graph6 strings (default: stdin)")
        cmd.set_defaults(func=_GRAPH_COMMANDS[name])

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    func = _GRAPH_COMMANDS.get(argv[0]) if argv else None
    if func and not any(arg.startswith("-") for arg in argv[1:]):
        args = SimpleNamespace(graphs=argv[1:])
    else:
        args = build_parser().parse_args(argv)
        func = args.func
    try:
        return func(args)
    except ClassificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
