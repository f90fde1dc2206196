import math

import numpy as np
import pytest

from dissipext.analytic import AnalyticFunction, Term, constant, exponential
from dissipext.grid import (
    GridError,
    GridFunction,
    decay_certificate,
    make_grid,
)


def test_interval_grid_weight_sum():
    g = make_grid("interval", 64)
    assert g.n == 64
    assert abs(g.weights.sum() - 1.0) < 1e-12
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.weights > 0)
    assert g.nodes[0] > 0 and g.nodes[-1] < 1


def test_halfline_grid_records_truncation():
    g = make_grid("halfline", 512, length=40.0)
    assert g.is_halfline and g.length == 40.0
    assert abs(g.weights.sum() - 40.0) < 1e-12 * 40.0
    # truncation radius keeps products of the decaying defect basis tiny
    assert math.exp(-math.sqrt(2.0) * g.length) < 1e-24


def test_offset_grid_first_node():
    g = make_grid("interval", 64, offset=1e-3)
    assert g.nodes[0] > 1e-3
    assert abs(g.weights.sum() - (1.0 - 1e-3)) < 1e-12


def test_make_grid_errors():
    with pytest.raises(GridError):
        make_grid("interval", 4)
    with pytest.raises(GridError):
        make_grid("interval", 64, length=-1.0)
    with pytest.raises(GridError):
        make_grid("interval", 64, offset=0.9)
    with pytest.raises(GridError):
        make_grid("circle", 64)


def test_quadrature_exactness_to_panel_degree():
    # Gauss panels of order 8 integrate degree-15 polynomials exactly
    g = make_grid("interval", 64)
    for k in (3, 7, 15):
        val = float(np.sum(g.weights * g.nodes**k))
        assert abs(val - 1.0 / (k + 1)) <= 1e-12 / (k + 1) + 1e-15


def _random_term_sum(rng, terms=4):
    """``sum c_j x^{a_j} exp(b_j x)`` with integer powers and complex rates."""
    return AnalyticFunction(
        tuple(
            Term(
                complex(rng.normal(), rng.normal()),
                float(rng.integers(0, 4)),
                complex(rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0)),
            )
            for _ in range(terms)
        )
    )


def test_boundary_data_analytic_traces_win(interval_grid, phi_x2_minus_x):
    f = GridFunction.from_analytic(interval_grid, phi_x2_minus_x)
    t, df = f.traces, f.analytic.derivative()
    assert t.value0 == 0.0 and t.value_b == 0.0
    assert df.value_at_zero() == -1.0 and df.value_at(1.0) == 1.0


def test_integration_by_parts_consistency():
    # exact derivatives and traces: only the Gauss quadrature error remains
    grid = make_grid("interval", 1024)
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = GridFunction.from_analytic(grid, _random_term_sum(rng))
        g = GridFunction.from_analytic(grid, _random_term_sum(rng))
        df, dg = f.analytic.derivative(), g.analytic.derivative()
        tf, tg = f.traces, g.traces
        boundary = np.conj(tf.value_b) * tg.value_b - np.conj(tf.value0) * tg.value0
        sampled = np.conj(f.values) * dg(grid.nodes) + np.conj(df(grid.nodes)) * g.values
        resid = np.sum(grid.weights * sampled) - boundary
        assert abs(resid) < 1e-10 * (1.0 + abs(boundary))


def test_decay_certificate(halfline_grid):
    good = GridFunction.from_analytic(halfline_grid, exponential(1.0, -1.0))
    assert decay_certificate(good)
    slow = GridFunction.from_analytic(halfline_grid, exponential(1.0, -0.05))
    assert not decay_certificate(slow)


def test_values_length_invariant(interval_grid):
    # samples alone do not make a grid function; they come from the term sum
    with pytest.raises(GridError):
        GridFunction(interval_grid, np.zeros(3, dtype=complex))
    f = GridFunction.from_analytic(interval_grid, constant(1.0))
    assert len(f.values) == interval_grid.n
