import numpy as np
import pytest

from ovlomax.overlap import MEASURES, _terms

ACCEPTANCE_LINES = []


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _elasticities(measure: str, ratio) -> tuple:
    # e = R*g'(R) and c = R**2*g''(R), as the delta-method kernel takes them
    r = np.asarray(ratio, dtype=float)
    return r, *(q[MEASURES.index(measure)] for q in _terms(r))


def slope(measure: str, ratio):
    """dg/dR = e/R of ``measure`` at each ratio."""
    r, e, _c = _elasticities(measure, ratio)
    return e / r


def curvature(measure: str, ratio):
    """d2g/dR2 = c/R**2 of ``measure`` at each ratio."""
    r, _e, c = _elasticities(measure, ratio)
    return c / r**2
