"""Public surface: CLI exit codes, pipelines, formats and output files,
the README's library example, and the names the package exports."""

import ast
import doctest
import hashlib
import importlib
import json
import random
import re
import sys
from pathlib import Path

import pytest

import polycensus as pc
from polycensus import cli, planarity
from polycensus.cli import main
from tests.conftest import run_python
from tests.oracles import glued_graph, random_graph, shuffled, wheel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed(monkeypatch, text):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def test_enumerate_block_counts(capsys):
    code, out, err = run(capsys, "enumerate", "--q", "12")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 12
    for line in lines:
        g = pc.decode(line)
        assert g.q == 12 and pc.is_polyhedral(g)


def test_enumerate_single_order(capsys):
    code, out, _ = run(capsys, "enumerate", "--q", "14", "--p", "8")
    assert code == 0
    assert len(out.splitlines()) == 42
    code, out, _ = run(capsys, "enumerate", "--q", "6")
    assert code == 0
    assert out.splitlines() == ["C~"]


def test_enumerate_empty_block_is_not_an_error(capsys):
    code, out, _ = run(capsys, "enumerate", "--q", "14", "--p", "10")
    assert code == 0
    assert out == ""


def test_enumerate_bound_violation(capsys):
    code, out, err = run(capsys, "enumerate", "--q", "5")
    assert code == 2
    assert "error" in err
    # order_bounds gives the message, whatever the format
    message = "error: no polyhedral graph has fewer than 6 edges\n"
    for fmt in ("g6", "json", "dot"):
        assert run(capsys, "enumerate", "--q", "5", "--format", fmt) == (2, "", message)


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--q", "14", "--p", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert len(doc["entries"]) == 42
    assert all(e["p"] == 8 for e in doc["entries"])


def test_enumerate_dot_files(capsys, tmp_path):
    code, _, _ = run(
        capsys, "enumerate", "--q", "9", "--format", "dot", "--out", str(tmp_path / "d")
    )
    assert code == 0
    names = sorted(f.name for f in (tmp_path / "d").iterdir())
    assert names == ["0905.01.dot", "0906.01.dot"]
    text = (tmp_path / "d" / "0905.01.dot").read_text()
    assert text.startswith('graph "0905.01"')


def test_outdir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("POLYCENSUS_OUTDIR", str(tmp_path))
    code, _, _ = run(capsys, "enumerate", "--q", "6", "--format", "dot", "--out", "rel")
    assert code == 0
    assert (tmp_path / "rel" / "0604.01.dot").exists()


def test_classify(capsys):
    code, out, err = run(capsys, "classify")
    assert code == 0 and err == ""
    assert "solutions: 3" in out
    assert "g_1408.12" in out and "g_1408.13" in out and "g_1408.39" in out


def test_classify_report_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "classify", "--report", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert len(doc["candidate_rows"]) == 3
    assert len(doc["solutions"]) == 3


def test_classify_no_prune(capsys):
    code, out, _ = run(capsys, "classify", "--no-prune")
    assert code == 0
    assert "agree on the solution certificates" in out


def test_classify_no_prune_validates_the_pruned_sweep(capsys, monkeypatch):
    # the report printed is the unpruned one, but the pruned sweep's case
    # sizes are checked too: a pruned scan that lost the q = 14 row fails
    solve = cli.solve_question

    def losing_a_row(prune=True):
        report = solve(prune=prune)
        return report._replace(cases=report.cases[:2]) if prune else report

    monkeypatch.setattr(cli, "solve_question", losing_a_row)
    code, out, err = run(capsys, "classify", "--no-prune")
    assert (code, out) == (3, "")
    assert "unexpected pruned case sizes {12: 2, 13: 9}" in err


# sha256 of the `classify --no-prune --report` file
REPORT_SHA256 = "080f70799fd20584f4b8fb448c9cb117747b7b7ef107f8b2d8f4a1d13b0ef6fe"


def test_output_bytes_ignore_the_hash_seed(tmp_path):
    # census order and certificates must not depend on set or dict order
    # of hashed objects: cold processes under three hash seeds
    outputs = set()
    for seed in ("1", "2", "3"):
        report = tmp_path / f"report{seed}.json"
        runs = [
            ["enumerate", "--q", "14", "--format", "json"],
            ["classify", "--no-prune", "--report", str(report)],
        ]
        out = tuple(
            run_python(["-m", "polycensus.cli", *argv], {"PYTHONHASHSEED": seed}).stdout
            for argv in runs
        )
        outputs.add(out + (report.read_bytes(),))
    assert len(outputs) == 1
    assert hashlib.sha256(outputs.pop()[2]).hexdigest() == REPORT_SHA256


def test_cold_classify(tmp_path):
    # one cold `classify --no-prune` process, as a reader runs it: the
    # package loads without dataclasses (and the inspect module it
    # imports) or a process pool and its pickle, and labels only the
    # solutions' size, q = 14, where it embeds no complement that has a
    # vertex of degree below 3 and searches no class for a certificate
    # the census already holds
    script = """
import sys
before = set(sys.modules)
from polycensus import enumeration, isomorphism, planarity
enumeration._CPUS = 1  # a child's searches go uncounted
embed_block, embeds = planarity._embed_block, []
planarity._embed_block = lambda vs, adj: embeds.append(vs) or embed_block(vs, adj)
search, searches = isomorphism._search, []
isomorphism._search = lambda p, *rest: searches.append(p) or search(p, *rest)
import polycensus.cli
seen = [set(sys.modules) - before]
code = polycensus.cli.main(["classify", "--no-prune", "--report", sys.argv[1]])
seen.append(set(sys.modules) - before)
slow = {"dataclasses", "inspect", "pickle", "multiprocessing", "concurrent"}
print([sorted(slow & s) for s in seen], code, len(embeds))
print(len(searches))
"""
    report = tmp_path / "report.json"
    out = run_python(["-c", script, str(report)]).stdout
    *_, verdict, searches = out.splitlines()
    assert verdict == "[[], []] 0 300"
    # 633 when the catalog searched each class, 520 when the order-8 scan
    # searched each winner, 517 when classify labelled every size through 14
    assert int(searches) <= 501
    assert hashlib.sha256(report.read_bytes()).hexdigest() == REPORT_SHA256


def test_classify_bytes_on_one_and_two_cpus(tmp_path):
    # with two CPUs a forked child proves the order-9 bound while the
    # process sweeps order 8, and the output is byte for byte that of one
    # CPU, which forks nothing; no child outlives the call
    script = """
import os
import sys
from polycensus import enumeration
enumeration._CPUS = int(sys.argv[2])
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()
import polycensus.cli
code = polycensus.cli.main(["classify", "--no-prune", "--report", sys.argv[1]])
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
# the orders of triangulation this process built itself
built = enumeration._embedded_triangulations.cache_info().currsize
print(code, len(forks), built, left, file=sys.stderr)
"""
    runs = {}
    for cpus in (1, 2):
        report = tmp_path / f"report{cpus}.json"
        done = run_python(["-c", script, str(report), str(cpus)])
        code, forks, built, left = done.stderr.split()
        assert (code, left) == ("0", "False")
        runs[cpus] = (int(forks), int(built), done.stdout, report.read_bytes())
    one, two = runs[1], runs[2]
    assert one[:2] == (0, 6)  # orders 4..9, all in this process
    assert two[0] >= 1 and two[1] == 5  # order 9 only in the child
    assert one[2:] == two[2:]
    assert "agree on the solution certificates" in one[2]
    assert hashlib.sha256(one[3]).hexdigest() == REPORT_SHA256


def test_a_dying_worker_exits_1():
    # a forked worker that dies is no input error and no failed
    # verification: the ChildProcessError goes uncaught, Python prints its
    # traceback and exits 1, and every child is reaped first
    script = """
import os
import sys
from polycensus import classify, enumeration
enumeration._CPUS = 2
classify._bound = lambda: os._exit(5)
import polycensus.cli
try:
    polycensus.cli.main(["classify"])
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
        print("child left")
    except ChildProcessError:
        print("no child left")
"""
    done = run_python(["-c", script], check=False)
    assert (done.returncode, done.stdout) == (1, "no child left\n")
    assert "ChildProcessError: work failed in a child process: [5]" in done.stderr


def test_cold_check_skips_argparse():
    # a cold single-graph call never imports argparse, a share of its
    # start-up worth keeping; enumerate in the same process still loads it
    script = """
import sys
import polycensus.cli
code = polycensus.cli.main(["check", "C~"])
print("argparse" in sys.modules, code)
code = polycensus.cli.main(["enumerate", "--q", "6"])
print("argparse" in sys.modules, code)
"""
    out = run_python(["-c", script]).stdout
    assert out.splitlines() == [
        "planar=true 3-connected=true polyhedral=true "
        "self-dual=true self-complementary=false",
        "False 0",
        "C~",
        "True 0",
    ]


def test_complement_pipeline(capsys, monkeypatch):
    feed(monkeypatch, "C~\n")
    code, out, _ = run(capsys, "complement")
    assert code == 0
    assert pc.decode(out.strip()) == pc.complete(4).complement()


def test_complement_twice_is_identity(capsys):
    line = pc.encode(wheel(5))
    code, once, _ = run(capsys, "complement", line)
    code, twice, _ = run(capsys, "complement", once.strip())
    assert twice.strip() == line


def test_dual_subcommand(capsys):
    code, out, _ = run(capsys, "dual", "C~")
    assert code == 0
    assert out.strip() == "C~"  # the tetrahedron is its own dual
    code, _, err = run(capsys, "dual", "Bw")
    assert code == 2
    assert "polyhedral" in err


def test_check_subcommand(capsys):
    code, out, _ = run(capsys, "check", "C~")
    assert code == 0
    assert out.strip() == (
        "planar=true 3-connected=true polyhedral=true "
        "self-dual=true self-complementary=false"
    )
    code, out, _ = run(capsys, "check", "Dhc")  # C5
    assert out.strip() == (
        "planar=true 3-connected=false polyhedral=false "
        "self-dual=false self-complementary=true"
    )


def test_check_polyhedron_with_more_faces_than_a_graph_holds(capsys):
    code, out, err = run(capsys, "check", "K|fJ@cXBIK_^")  # icosahedron, 20 faces
    assert code == 0 and err == ""
    assert out.strip() == (
        "planar=true 3-connected=true polyhedral=true "
        "self-dual=false self-complementary=false"
    )


def test_check_embeds_each_input_once(capsys, monkeypatch):
    # the one embedding answers planarity, the face test 3-connectivity,
    # and its faces give the dual for the self-dual test
    cube = pc.encode(pc.dual(pc.complete_multipartite(2, 2, 2)))
    calls = []
    embed_block = planarity._embed_block
    three = pc.is_3_connected

    def counting_embed(vs, adj):
        calls.append("embed")
        return embed_block(vs, adj)

    def counting_three(g):
        calls.append("3c")
        return three(g)

    monkeypatch.setattr(planarity, "_embed_block", counting_embed)
    for name, module in list(sys.modules.items()):
        if name.startswith("polycensus") and getattr(module, "is_3_connected", None) is three:
            monkeypatch.setattr(module, "is_3_connected", counting_three)
    code, out, _ = run(capsys, "check", cube)  # 2p != q + 2: never self-dual
    assert code == 0 and "3-connected=true" in out and "self-dual=false" in out
    assert calls == ["embed"]
    calls.clear()
    # W5 has 2p = q + 2: its dual is built from the same faces
    code, out, _ = run(capsys, "check", pc.encode(wheel(5)))
    assert code == 0 and "self-dual=true" in out
    assert calls == ["embed"]
    calls.clear()
    # only a non-planar input, here the Petersen graph, is searched for a
    # cut of at most two vertices
    code, out, _ = run(capsys, "check", "IheA@GUAo")
    assert code == 0 and out.startswith("planar=false 3-connected=true")
    assert sorted(calls) == ["3c", "embed"]
    # inputs that are not 2-connected are answered by the same one block
    # search that embeds each of their blocks
    pieces = []
    block_pieces = planarity._block_pieces

    def counting_pieces(g):
        pieces.append(g)
        return block_pieces(g)

    monkeypatch.setattr(planarity, "_block_pieces", counting_pieces)
    k4s = pc.Graph.from_edges(
        7, [(a, b) for k in (0, 3) for a in range(k, k + 4) for b in range(a + 1, k + 4)]
    )  # two K4s sharing vertex 3
    k33 = pc.complete_multipartite(3, 3)
    hung = pc.Graph.from_edges(8, [*k33.edges(), (0, 6), (6, 7), (7, 0)])
    for g, planar in ((k4s, "true"), (hung, "false")):
        pieces.clear()
        code, out, _ = run(capsys, "check", pc.encode(g))
        assert code == 0 and out.startswith(f"planar={planar} 3-connected=false")
        assert len(pieces) == 1, pc.encode(g)


def test_check_on_the_largest_inputs(capsys):
    # a 16-vertex triangulation from the benchmark's query stream, 28
    # faces, and a K3,3 subdivision on 16 vertices with edges added up
    # to 3p - 6 = 42, so the edge count does not reject it; the lines
    # are those the frozenset embedder printed
    lines = {
        "OeoG@Oh@cOZrGG?_D}YUJ": "planar=true 3-connected=true polyhedral=true "
        "self-dual=false self-complementary=false",
        "OBiB`GAzPKY_DHe`GIOSi": "planar=false 3-connected=false polyhedral=false "
        "self-dual=false self-complementary=false",
    }
    for line, expected in lines.items():
        g = pc.decode(line)
        assert (g.p, g.q) == (16, 42)
        code, out, err = run(capsys, "check", line)
        assert (code, out, err) == (0, expected + "\n", "")


def test_back_to_back_calls_share_no_state(capsys, monkeypatch):
    # the parser is built once; an argument list must not leak into the
    # next call: --p into an enumerate without it, graphs into a check
    # that reads stdin
    code, out, _ = run(capsys, "enumerate", "--q", "11", "--p", "7")
    assert code == 0 and out.split() == ["FsXPw", "F{OXw"]
    code, out, _ = run(capsys, "enumerate", "--q", "11")
    assert code == 0 and out.split() == ["E]lw", "Ed^w", "FsXPw", "F{OXw"]
    code, out, _ = run(capsys, "check", "C~")
    assert code == 0 and out.startswith("planar=true 3-connected=true")
    feed(monkeypatch, "Dhc\n")  # C5
    code, out, _ = run(capsys, "check")
    assert code == 0
    assert out.splitlines() == [
        "planar=true 3-connected=false polyhedral=false "
        "self-dual=false self-complementary=true"
    ]
    assert cli.build_parser() is cli.build_parser()


def test_malformed_graph6_reports_position(capsys):
    code, _, err = run(capsys, "check", "C!")
    assert code == 2
    assert "position 1" in err


@pytest.mark.parametrize(
    "argv, blocker",
    [
        (["enumerate", "--q", "9", "--out"], "dir"),
        (["classify", "--report"], "dir"),
        (["enumerate", "--q", "9", "--format", "dot", "--out"], "file"),
    ],
)
def test_unwritable_output_is_an_input_error(capsys, tmp_path, argv, blocker):
    # a directory where a file goes, or a file where a directory goes
    path = tmp_path / "taken"
    if blocker == "dir":
        path.mkdir()
    else:
        path.write_text("")
    code, _, err = run(capsys, *argv, str(path))
    assert code == 2
    assert err == f"error: cannot write {path}: " + (
        "Is a directory\n" if blocker == "dir" else "File exists\n"
    )


def test_empty_stdin_is_an_input_error(capsys, monkeypatch):
    feed(monkeypatch, "")
    code, _, err = run(capsys, "complement")
    assert code == 2
    assert "error" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# (command, graph arguments, stdin or None, exit code); K5 is D~{, K3,3
# EFz_, C5 Dhc and the octahedron E]~o
GRAPH_CALLS = [
    ("check", ["C~"], None, 0),
    ("check", ["D~{", "EFz_", "Dhc", "E]~o"], None, 0),
    ("complement", ["C~", "D~{", "Dhc"], None, 0),
    ("dual", ["C~", "E]~o"], None, 0),
    ("dual", ["E]~o", "EFz_"], None, 2),  # one line out, then the error
    ("dual", ["Dhc"], None, 2),
    ("check", ["C!"], None, 2),  # malformed graph6, "position 1"
    ("complement", ["C~", "C!"], None, 2),
    ("check", [], "C~\n\n  Dhc  \nEFz_\n", 0),
    ("dual", [], "E]~o\nC~\n", 0),
    ("check", [], "", 2),
    ("complement", [], "", 2),
    ("dual", [], "\n", 2),
]


@pytest.mark.parametrize("cmd, graphs, stdin, code", GRAPH_CALLS)
def test_graph_commands_answer_as_through_argparse(capsys, monkeypatch, cmd, graphs, stdin, code):
    # check, complement and dual run without argparse; through it they
    # give the same exit code, stdout and stderr
    cli.build_parser()  # cached: built with the commands before they are hidden
    answers = []
    for commands in (cli._GRAPH_COMMANDS, {}):
        monkeypatch.setattr(cli, "_GRAPH_COMMANDS", commands)
        if stdin is not None:
            feed(monkeypatch, stdin)
        answers.append(run(capsys, cmd, *graphs))
    direct, parsed = answers
    assert direct == parsed
    assert direct[0] == code and (direct[2] == "") == (code == 0)


def _graph_command_lines():
    """Every census class through 14 edges, a relabelling of each and the
    complements of both; 300 seeded random graphs on 1 to 16 vertices,
    from sparse to complete, a third of them random parts glued at cut
    vertices and joined by bridges; polyhedra with 20 and 28 faces; and
    malformed lines."""
    rng = random.Random(2514)
    graphs = []
    for q in range(6, 15):
        for classes in pc.enumerate_by_size(q).values():
            for g in classes:
                h = shuffled(g, rng)
                graphs += [g, h, g.complement(), h.complement()]
    for k in range(300):
        p = rng.randint(1, 16)
        if k % 3 == 2:
            graphs.append(glued_graph(p, rng))
            continue
        # uniform sizes, then sizes around 3p - 6, where non-planar blocks
        # and planar ones are both common
        hi = p * (p - 1) // 2
        q = rng.randint(0, hi) if k % 3 == 0 else rng.randint(min(p - 1, hi), min(3 * p, hi))
        graphs.append(random_graph(p, q, rng))
    lines = [pc.encode(g) for g in graphs]
    return lines + [
        "K|fJ@cXBIK_^",  # the icosahedron
        "OeoG@Oh@cOZrGG?_D}YUJ",  # a triangulation on 16 vertices
        "", "C!", "C~~", "D~", "Bx", "Ao", "?", "R???", "C\x7f",
        ">>graph6<<C~", "  Dhc", ">>graph6<<Bx",
    ]


# sha256 of the exit code, stdout and stderr of `check`, `complement` and
# `dual` on each line above, one line per call
GRAPH_COMMANDS_SHA256 = "a810c9f9a1ebf957ba4f11a5b51d0c13a8c156eec16e8dd0ea8ae5b0b7ae8ec6"


def test_graph_command_bytes(capsys):
    digest = hashlib.sha256()
    for line in _graph_command_lines():
        for cmd in ("check", "complement", "dual"):
            digest.update(repr((cmd, line, *run(capsys, cmd, line))).encode() + b"\n")
    assert digest.hexdigest() == GRAPH_COMMANDS_SHA256


@pytest.mark.parametrize("command", ["enumerate", "classify", "complement", "dual", "check"])
def test_every_subcommand_has_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: polycensus {command} ")


def test_an_option_sends_graph_commands_to_argparse(capsys):
    # "-" is not a graph6 character: an argument starting with it is an
    # option, which argparse rejects
    for argv in (["check", "-x"], ["dual", "C~", "-x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: -x" in capsys.readouterr().err


def test_pipeline_chain(capsys, monkeypatch):
    # enumerate | dual: every line decodes and stays polyhedral
    code, out, _ = run(capsys, "enumerate", "--q", "11")
    feed(monkeypatch, out)
    code, out2, _ = run(capsys, "dual")
    assert code == 0
    duals = [pc.decode(line) for line in out2.splitlines()]
    assert len(duals) == 4
    assert all(pc.is_polyhedral(d) for d in duals)


def test_readme_library_example():
    # every >>> example in the README, run as the doctest module reads it
    readme = Path(__file__).parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert (result.attempted, result.failed) == (7, 0)


def test_all_lists_exactly_the_public_names():
    # __all__ is, in order, the public names that the package's own
    # "from .<module> import ..." lines bind, each the very object its
    # submodule defines under that name
    source = Path(pc.__file__).read_text()
    imported = [
        (node.module, alias.name, alias.asname or alias.name)
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    ]
    public = [bound for _, _, bound in imported if not bound.startswith("_")]
    assert pc.__all__ == public
    for module, name, bound in imported:
        submodule = importlib.import_module(f"polycensus.{module}")
        assert getattr(pc, bound) is getattr(submodule, name), bound
    # the README's Library section names every public name, in a code
    # span or a >>> line, and every pc.<name> it uses is public
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    library = readme[readme.index("## Library") : readme.index("## Command line")]
    prompts = [line for line in library.splitlines() if line.startswith(">>> ")]
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", library, flags=re.S))
    named = set(re.findall(r"\w+", " ".join(prompts + spans)))
    assert sorted(set(pc.__all__) - named) == []
    assert sorted(set(re.findall(r"\bpc\.(\w+)", library)) - set(pc.__all__)) == []


def test_traced_layers_exist():
    # the benchmark's layer trace wraps these names by lookup; a rename
    # or deletion would break traced runs, not any test of the package
    source = (Path(__file__).parents[1] / "bench" / "tracing.py").read_text()
    layers = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS"
    )
    assert layers
    for module, name in layers:
        assert callable(getattr(importlib.import_module(f"polycensus.{module}"), name))
    assert callable(pc.Graph.__post_init__)
    isomorphism = importlib.import_module("polycensus.isomorphism")
    assert callable(isomorphism.canonical_labeling.cache_info)
