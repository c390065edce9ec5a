"""polycensus benchmark: cold classify, full census and a seeded query stream.

    python3 bench/run.py --workload {classify,census,query} --seed N
                         --seconds S --trace {0,1}

Run from the repository root.  Each pass runs in a fresh interpreter
(bench/worker.py) because the package caches triangulations, census
blocks, the catalog and canonical labelings in-process.  One client,
closed loop: a pass starts when the previous one has ended, until S
seconds have gone.  Every answer is checked against references that
do not come from the code under test.

Times are read with the speed probe in each measured process
(bench/speed.py) and scaled to a fixed reference speed, because the
speed of this code on a shared machine drifts by up to half for
minutes at a time.  --trace 0 prints the end-to-end metrics; --trace 1
alternates untraced and traced passes and prints the per-layer metrics.  The last line of stdout is one JSON object;
the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import queries  # noqa: E402
import speed  # noqa: E402

# frozen references
REPORT_SHA256 = "080f70799fd20584f4b8fb448c9cb117747b7b7ef107f8b2d8f4a1d13b0ef6fe"
CENSUS_DIGEST = "1cc70f0192fe5678b479b091cbdef5bb733c03a913ceb1781e15e7bb9136828e"
CENSUS_CLASSES = 5268
A002840 = dict(zip(range(6, 18), (1, 0, 1, 2, 2, 4, 12, 22, 58, 158, 448, 1342)))
A000944 = dict(zip(range(4, 10), (1, 2, 7, 34, 257, 2606)))
SOLUTIONS = ("1408.12", "1408.14", "1408.40")

QUERY_DEADLINE_S = 2.0
CLASSIFY_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0  # every process is stopped by then
SETUP_SAMPLES = 15


class Run:
    """One benchmark run: clock, scratch directory, call times, tallies."""

    def __init__(self, seconds: float, trace: bool, work: Path):
        self.t0 = time.perf_counter()
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.spawned = 0
        self.times: list[float] = []  # per call, at reference speed; inf if failed
        self.passes: list[dict] = []  # job_s, raw_s, rss_kb, or layers
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []  # wrong answers: the run is not correct
        self.failures: dict[tuple[str, str], str] = {}  # failed queries, by input
        self.env = {k: v for k, v in os.environ.items() if k != "POLYCENSUS_OUTDIR"}

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def left(self) -> float:
        return RUN_LIMIT_S - self.elapsed()

    def schedule(self):
        """Yield (pass number, traced) until the measuring time is used up.
        A traced run alternates untraced and traced passes, at least one
        of each."""
        k = 0
        minimum = 2 if self.trace else 1
        while (k < minimum or self.elapsed() < self.seconds) and self.left() > 5:
            yield k, self.trace and k % 2 == 1
            k += 1

    def call(self, seconds: float | None) -> None:
        """Record one call's time; None marks a failed call."""
        self.attempted += 1
        if seconds is None:
            self.failed += 1
        self.times.append(math.inf if seconds is None else seconds)

    def add_pass(self, traced: bool, res: dict | None, raw: float | None) -> None:
        """Keep one pass's wall (None if cut short), at reference speed too."""
        entry = {"traced": traced, "raw_s": raw}
        if res:
            entry["rss_kb"] = res["rss_kb"]
            if "layers" in res:
                entry["layers"] = res["layers"]
            if raw is not None:
                entry["job_s"] = (raw - res["probe_s"]) * res["factor"]
        self.passes.append(entry)

    def spawn(self, cmd: list[str], timeout: float) -> tuple[int | None, float]:
        """Run cmd to the end; (exit code, or None if killed at the timeout; wall)."""
        expired = False

        def expire(signum, frame):
            nonlocal expired
            expired = True
            proc.kill()

        t = time.perf_counter()
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL)
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, max(1.0, min(timeout, self.left())))
        try:
            # a blocking wait: Popen.wait(timeout) polls in sleeps of up
            # to 50 ms, which would show up in the timings
            _, status = os.waitpid(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (None if expired else proc.returncode), wall

    def worker(self, job: str, spec: dict, traced: bool, timeout: float):
        """One pass in a fresh interpreter; (result or None, wall)."""
        self.spawned += 1
        spec_path = self.work / f"spec{self.spawned}.json"
        result_path = self.work / f"result{self.spawned}.json"
        spec = dict(spec, src=str(SRC), trace=traced)
        if traced:
            spec["spans"] = str(self.work.parent / f"spans-{job}.json")
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        cmd = [sys.executable, str(BENCH / "worker.py"), job, str(spec_path), str(result_path)]
        rc, wall = self.spawn(cmd, timeout)
        if rc != 0 or not result_path.exists():
            return None, wall
        return json.loads(result_path.read_text(encoding="utf-8")), wall

    def setup_s(self) -> tuple[list[float], float]:
        """Fresh interpreter plus `import polycensus`, as a user pays it:
        the walls less the probe's time, and the probe's factor over all."""
        out = self.work / "setup.txt"
        code = ("import sys; sys.path[:0] = sys.argv[1:3]; import speed; p = speed.Probe(); "
                "p.start(); import polycensus; p.stop(); "
                "open(sys.argv[3], 'w').write(f'{p.spent} {len(p.samples)} {sum(p.samples)}')")
        cmd = [sys.executable, "-c", code, str(BENCH), str(SRC), str(out)]
        walls, count, total = [], 0, 0.0
        for _ in range(SETUP_SAMPLES):
            rc, wall = self.spawn(cmd, 60)
            if rc != 0:
                raise RuntimeError(f"`import polycensus` failed with exit {rc}")
            spent, n, chunk = out.read_text(encoding="utf-8").split()
            walls.append(wall - float(spent))
            count += int(n)
            total += float(chunk)
        return walls, speed.REF_S * count / total if total else 1.0


# ---------------------------------------------------------------------------
# workloads; each returns the latency cap that a failed call reads as


def classify(run: Run, seed: int) -> float:
    """No inputs: the seed is unused."""
    for k, traced in run.schedule():
        report = run.work / f"report{k}.json"
        res, wall = run.worker("classify", {"report": str(report)}, traced, CLASSIFY_TIMEOUT_S)
        why = _classify_problem(res, report)
        if why:
            run.wrong.append(f"classify pass {k}: {why}")
        run.add_pass(traced, res, wall)
        run.call(None if why else run.passes[-1]["job_s"])
    return CLASSIFY_TIMEOUT_S


def _classify_problem(res, report: Path) -> str | None:
    if res is None:
        return "worker failed or timed out"
    if res["rc"] != 0:
        return f"exit {res['rc']}"
    lines = res["stdout"].splitlines()
    try:
        start = lines.index("solutions: 3") + 1
    except ValueError:
        return "no 'solutions: 3' line"
    sols = [line for line in lines[start:] if line.startswith("  ")]
    labels = tuple(line.split()[0] for line in sols)
    if labels != SOLUTIONS:
        return f"solution labels {labels}"
    if sum("dual is" in line for line in sols) != 1:
        return "not exactly one non-self-dual solution"
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    if digest != REPORT_SHA256:
        return f"report sha256 {digest}"
    return None


def census(run: Run, seed: int) -> float:
    """No inputs: the seed is unused.  The certificate digest is taken
    on the first pass only; it costs about a fifth of a pass."""
    for k, traced in run.schedule():
        res, wall = run.worker("census", {"digest": k == 0}, traced, run.left())
        why = _census_problem(res, k == 0)
        if why:
            run.wrong.append(f"census pass {k}: {why}")
        run.add_pass(traced, res, res["wall_s"] if res else wall)
        run.call(None if why else run.passes[-1]["job_s"])
    return RUN_LIMIT_S


def _census_problem(res, digest: bool) -> str | None:
    if res is None:
        return "worker failed or timed out"
    count = {(p, q): n for p, q, n in res["cells"]}
    by_q: dict[int, int] = {}
    by_p: dict[int, int] = {}
    for (p, q), n in count.items():
        by_q[q] = by_q.get(q, 0) + n
        by_p[p] = by_p.get(p, 0) + n
    if sum(count.values()) != CENSUS_CLASSES:
        return f"{sum(count.values())} classes, expected {CENSUS_CLASSES}"
    for q, want in A002840.items():
        if by_q.get(q, 0) != want:
            return f"q={q}: {by_q.get(q, 0)} classes, A002840 says {want}"
    for p, want in A000944.items():
        if by_p.get(p, 0) != want:
            return f"p={p}: {by_p.get(p, 0)} classes, A000944 says {want}"
    for (p, q), n in count.items():
        if count.get((q - p + 2, q)) != n:
            return f"cell ({p}, {q}) has {n} classes, its dual cell {count.get((q - p + 2, q))}"
    if digest and res.get("digest") != CENSUS_DIGEST:
        return f"certificate digest {res.get('digest')}"
    return None


def query(run: Run, seed: int) -> float:
    stream = queries.build_stream(seed)
    path = run.work / "stream.json"
    path.write_text(json.dumps([(q.line, q.cmds) for q in stream]), encoding="utf-8")
    verdicts: dict[tuple[str, str, str], str | None] = {}
    for k, traced in run.schedule():
        spec = {"stream": str(path), "deadline_s": QUERY_DEADLINE_S,
                "stop_at": time.time() + run.left() - 10}
        res, wall = run.worker("query", spec, traced, run.left())
        if res is None:
            run.wrong.append(f"query pass {k}: worker failed or timed out")
            run.call(None)
            run.add_pass(traced, None, None)
            continue
        checks: dict[int, set[str]] = {}
        for index, cmd, rc, out, err, dt in res["answers"]:
            q = stream[index]
            if rc != 0:
                what = "missed the deadline" if rc is None else f"exit {rc}: {err.strip()}"
                run.failures[(cmd, q.line)] = f"{q.family}: {what}"
                run.call(None)
                continue
            key = (q.line, cmd, out)
            if key not in verdicts:
                verdicts[key] = queries.wrong_answer(q, cmd, out)
            if verdicts[key]:
                run.wrong.append(f"{cmd} {q.line} ({q.family}): {verdicts[key]}")
            if cmd == "check":
                checks.setdefault(q.base, set()).add(out)
            run.call(None if verdicts[key] else dt)
        for outs in checks.values():
            if len(outs) > 1:
                run.wrong.append(f"check answers differ between relabellings: {sorted(outs)}")
        run.add_pass(traced, res, res["wall_s"] if res["complete"] else None)
    return QUERY_DEADLINE_S


WORKLOADS = {"classify": classify, "census": census, "query": query}


# ---------------------------------------------------------------------------
# metrics


def percentile(ranked: list[float], share: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    return ranked[max(0, math.ceil(share * len(ranked)) - 1)]


def tail(ranked: list[float]) -> float:
    """The 99th percentile, or lower when fewer than ten calls would lie
    beyond it, but never below the median."""
    k = min(math.ceil(0.99 * len(ranked)) - 1, len(ranked) - 11)
    return ranked[max(k, math.ceil(0.5 * len(ranked)) - 1, 0)]


def end_to_end(setup, run: Run, cap: float) -> dict[str, tuple[float, str]]:
    walls, factor = setup
    # failed calls sort last and read as the cap
    ranked = sorted(min(t, cap) for t in run.times)
    jobs = [p["job_s"] for p in run.passes if "job_s" in p] or [cap]
    raw = [p["raw_s"] for p in run.passes if p["raw_s"] is not None] or [cap]
    rss = [p["rss_kb"] for p in run.passes if "rss_kb" in p] or [0]
    calls = f"{len(ranked)} calls in {len(run.passes)} passes"
    return {
        "setup_s": (statistics.median(walls) * factor,
                    f"median of {len(walls)} starts; raw {statistics.median(walls):.4f} s"),
        "job_s": (statistics.median(jobs),
                  f"median of {len(jobs)} passes; raw {statistics.median(raw):.4f} s"),
        "p50_ms": (1000 * percentile(ranked, 0.50), calls),
        "tail_ms": (1000 * tail(ranked), calls),
        "peak_rss_mb": (max(rss) / 1024, f"max of {len(rss)} passes"),
        "ok_frac": (1 - run.failed / run.attempted, f"{run.attempted} calls"),
    }


def per_layer(run: Run) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    traced = sorted((p["job_s"], k) for k, p in enumerate(run.passes) if "layers" in p and "job_s" in p)
    plain = [p["job_s"] for p in run.passes if not p["traced"] and "job_s" in p]
    if not traced or not plain:
        return {}, {}
    median_pass = traced[(len(traced) - 1) // 2][1]
    layers = dict(run.passes[median_pass]["layers"])
    self_s = layers.pop("trace.self_s")
    layers["trace.overhead_frac"] = statistics.median(t for t, _ in traced) / statistics.median(plain) - 1
    note = f"median of {len(traced)} traced passes"
    return {name: (value, note) for name, value in layers.items()}, self_s


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polycensus" / "__init__.py").is_file():
        print(f"no polycensus sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=out_dir))
    try:
        run = Run(args.seconds, bool(args.trace), work)
        setup = None if args.trace else run.setup_s()
        cap = WORKLOADS[args.workload](run, args.seed)
        if args.trace:
            measured, self_s = per_layer(run)
        else:
            measured, self_s = end_to_end(setup, run, cap), {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for m in wanted:
        if m["name"] in measured:
            value, note = measured[m["name"]]
            print(f"{m['name']:<44} {value:>14.6f} {m['unit']:<6} {note}")
    if self_s:
        wall = measured["trace.wall_s"][0]
        print("self time by layer:")
        for label, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print(f"  {label:<40} {s:10.4f} s {100 * s / wall:6.2f} %")
    for (cmd, line), what in sorted(run.failures.items()):
        print(f"failed: {cmd} {line}  [{what}]")
    for text in run.wrong[:20]:
        print(f"WRONG: {text}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    doc = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
