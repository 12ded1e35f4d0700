import numpy as np
import pytest

from semimatch import tensor as T

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
    """BLAS reads as one thread to the lanes' pair rule, as under benchmark/env.py."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
