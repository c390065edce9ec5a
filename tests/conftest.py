import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import polycensus as pc
from tests.oracles import all_graphs_up_to_iso

settings.register_profile(
    "census",
    derandomize=True,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("census")


def run_python(argv, env=None, preexec_fn=None, check=True):
    """Run ``argv`` in a fresh interpreter that imports this package.

    ``argv`` follows the interpreter (``["-c", script, ...]`` or
    ``["-m", module, ...]``), ``env`` adds to the environment and
    ``preexec_fn`` runs in the child before it starts; the completed
    process holds stdout and stderr as text.
    """
    src = str(Path(pc.__file__).resolve().parents[1])
    full_env = {**os.environ, **(env or {})}
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, full_env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *argv],
        env=full_env,
        preexec_fn=preexec_fn,
        capture_output=True,
        check=check,
        text=True,
        timeout=120,
    )


def _open_fds():
    """How many file descriptors this process holds, where /proc shows it."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """Fail a test that leaves a child process unreaped, running or not,
    or that ends with more open file descriptors than it began with."""
    fds = _open_fds()
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        pytest.fail(f"the test left a child process unreaped (waitpid gave {pid})")
    if fds is not None and (extra := _open_fds() - fds) > 0:
        pytest.fail(f"the test left {extra} more file descriptors open")


@pytest.fixture(scope="session")
def universe():
    """All isomorphism classes on 1 through 7 vertices, 1252 graphs."""
    return tuple(g for p in range(1, 8) for g in all_graphs_up_to_iso(p))


@pytest.fixture(scope="session")
def census():
    """The polyhedron census for 6 <= q <= 14, keyed by (p, q)."""
    out = {}
    for q in range(6, 15):
        for p, classes in pc.enumerate_by_size(q).items():
            out[p, q] = classes
    return out


@pytest.fixture(scope="session")
def catalog():
    return pc.build_catalog()


def pytest_terminal_summary(terminalreporter):
    from tests import test_acceptance

    if test_acceptance.VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.VERDICTS:
            terminalreporter.write_line(line)
