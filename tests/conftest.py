import os

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


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """Fail a test that leaves a child process unreaped, running or not."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped (waitpid gave {pid})")


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
