import contextlib
import math
import signal

import numpy as np
import pytest

from dissipext import catalog
from dissipext.analytic import AnalyticFunction, Term, exponential
from dissipext.grid import make_grid


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` fails the test when its body is still
    running after ``seconds``, where a loop that does not end would
    otherwise stop the whole run."""

    @contextlib.contextmanager
    def guard(seconds: float):
        def expire(signum, frame):
            pytest.fail(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return guard


@pytest.fixture(scope="session")
def interval_grid():
    return make_grid("interval")


@pytest.fixture(scope="session")
def halfline_grid():
    return make_grid("halfline")


@pytest.fixture(scope="session")
def phi_x2_minus_x():
    return AnalyticFunction((Term(1.0, 2.0), Term(-1.0, 1.0)))


@pytest.fixture(scope="session")
def phi_ix_exp():
    # i x e^{-x}: the deviation generator of the half-line worked example
    return AnalyticFunction((Term(1j, 1.0, -1.0),))


@pytest.fixture(scope="session")
def rank_one_direction():
    return exponential(math.sqrt(2.0), -1.0)


@pytest.fixture(scope="session")
def gauss():
    """``rule(lo, hi, n)``: nodes and weights of ``n`` points, 8-point
    Gauss-Legendre panels on uniform subintervals of ``(lo, hi)``.  The
    tests' own quadrature, independent of the package's closed forms."""
    x8, w8 = np.polynomial.legendre.leggauss(8)

    def rule(lo, hi, n):
        edges = np.linspace(lo, hi, n // 8 + 1)
        half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
        return (mid[:, None] + half[:, None] * x8).ravel(), (half[:, None] * w8).ravel()

    return rule


@pytest.fixture(scope="session")
def shirley_instance(phi_x2_minus_x):
    return catalog.build_shirley(math.sqrt(3.0), 0.5 + 0.375j, phi_x2_minus_x)
