import multiprocessing

import numpy as np
import pytest

from hallmhd.grid import GridSpec

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a multiprocessing child running (the 2.5D
    certificate worker must not outlive run()), and stop the child, so
    that the next test starts without it."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    assert not left, f"child processes left running: {left}"


@pytest.fixture(scope="session")
def g3():
    return GridSpec.create(3, 16)


@pytest.fixture(scope="session")
def g3_32():
    return GridSpec.create(3, 32)


@pytest.fixture(scope="session")
def g2():
    return GridSpec.create(2, 32)


@pytest.fixture(scope="session")
def coords3(g3):
    return g3.coordinates()


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.abs(b).max()), 1e-300)
    return float(np.abs(np.asarray(a) - np.asarray(b)).max()) / scale
