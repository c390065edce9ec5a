"""One measured pass, run in a fresh interpreter by run.py.

    python3 bench/worker.py JOB SPEC.json RESULT.json

JOB is classify, census or query.  SPEC names the repository root and
the job's inputs; RESULT receives timings, peak RSS, the outputs that
run.py checks, the speed probe's readings (bench/speed.py) and, when
SPEC asks for a trace, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time

from speed import Probe


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so the CLI's handlers miss it."""


def census_cells():
    """Every (p, q) with q <= 21 whose order or dual order is at most 9."""
    for q in range(6, 22):
        for p in range((q + 8) // 3, 2 * q // 3 + 1):
            if min(p, q - p + 2) <= 9:
                yield p, q


def run_classify(spec, probe, tracer, result):
    cli = sys.modules["polycensus.cli"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result["rc"] = cli.main(["classify", "--no-prune", "--report", spec["report"]])
    result["stdout"] = out.getvalue()


def run_census(spec, probe, tracer, result):
    enumeration = sys.modules["polycensus.enumeration"]
    cells = []
    for k, (p, q) in enumerate(census_cells()):
        if tracer:
            tracer.query = k
        cells.append((p, q, enumeration.enumerate_polyhedra(p, q)))
    result["cells"] = [(p, q, len(classes)) for p, q, classes in cells]
    result["_classes"] = cells


def run_query(spec, probe, tracer, result):
    cli = sys.modules["polycensus.cli"]
    with open(spec["stream"], encoding="utf-8") as fh:
        stream = json.load(fh)
    deadline = spec["deadline_s"]

    def alarm(signum, frame):
        raise DeadlineExceeded

    signal.signal(signal.SIGALRM, alarm)
    answers = []
    k = 0
    for index, (line, cmds) in enumerate(stream):
        if time.time() > spec["stop_at"]:
            break
        for cmd in cmds:
            if tracer:
                tracer.query = k
            k += 1
            out, err = io.StringIO(), io.StringIO()
            rc = None
            spent = probe.spent
            t = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, deadline)
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = cli.main([cmd, line])
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except DeadlineExceeded:
                rc = None
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # what the interpreter would exit 1 on
                rc = 1
                err.write(f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t
            dt = (dt - (probe.spent - spent)) * probe.factor(recent=True)
            answers.append((index, cmd, rc, out.getvalue(), err.getvalue()[:200], dt))
    result["answers"] = answers
    result["complete"] = len({a[0] for a in answers}) == len(stream)


JOBS = {"classify": run_classify, "census": run_census, "query": run_query}


def main(argv: list[str]) -> int:
    job, spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    probe = Probe()
    probe.start()
    tracer = None
    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import polycensus
    import polycensus.cli  # noqa: F401  (loaded before the trace is installed)

    if not polycensus.__file__.startswith(spec["src"]):
        raise SystemExit(f"polycensus imported from {polycensus.__file__}, not {spec['src']}")
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result: dict = {}
    JOBS[job](spec, probe, tracer, result)
    wall = time.perf_counter() - t0
    result["wall_s"] = wall
    probe.stop()
    result["probe_s"] = probe.spent
    result["factor"] = probe.factor()
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        result["layers"] = tracer.finish(wall, spec.get("spans"))
    classes = result.pop("_classes", None)
    if classes is not None and spec["digest"]:
        # certificates, computed after the timed region
        import hashlib

        digest = hashlib.sha256()
        for p, q, graphs in classes:
            for g in graphs:
                digest.update(polycensus.canonical_form(g).certificate)
        result["digest"] = digest.hexdigest()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
