import numpy as np
import pytest

from semimatch import tensor as T

from helpers import set_openblas_threads

# filled by the acceptance suite; echoed after the run so the per-criterion
# lines survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(autouse=True)
def finite_checks():
    """Every op result is checked for NaN/Inf while tests run."""
    previous = T.set_finite_checks(True)
    yield
    T.set_finite_checks(previous)


@pytest.fixture
def blas_one_thread(monkeypatch):
    """BLAS runs one thread for the test, as under benchmark/env.py: the
    OpenBLAS numpy loaded is set to one thread (and back after), and the
    variable the pair rule reads where it cannot ask the library is "1"."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    previous = set_openblas_threads(1)
    yield
    if previous is not None:
        set_openblas_threads(previous)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
