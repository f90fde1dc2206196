import math

import pytest

from dissipext.analytic import exponential, trace
from dissipext.grid import (
    GridError,
    GridFunction,
    decay_certificate,
    make_grid,
)


def test_halfline_grid_records_truncation():
    g = make_grid("halfline", 512, length=40.0)
    assert g.is_halfline and g.length == 40.0
    assert g.right_endpoint == math.inf
    # truncation radius keeps products of the decaying defect basis tiny
    assert math.exp(-math.sqrt(2.0) * g.length) < 1e-24


def test_offset_grid_first_node():
    g = make_grid("interval", 64, offset=1e-3)
    assert g.offset == 1e-3 and g.right_endpoint == 1.0
    # the node count is accepted and ignored
    assert make_grid("interval", 4096, offset=1e-3) == g


def test_make_grid_errors():
    with pytest.raises(GridError):
        make_grid("interval", 4)
    with pytest.raises(GridError):
        make_grid("interval", 64, length=-1.0)
    with pytest.raises(GridError):
        make_grid("interval", 64, offset=0.9)
    with pytest.raises(GridError):
        make_grid("circle", 64)


def test_boundary_data_analytic_traces_win(interval_grid, phi_x2_minus_x):
    f, df = phi_x2_minus_x, phi_x2_minus_x.derivative()
    assert f.value_at_zero() == 0.0 and f.value_at(interval_grid.length) == 0.0
    assert df.value_at_zero() == -1.0 and df.value_at(1.0) == 1.0
    # the trace scale is 1 + sum |term values|: x^2 and -x are 1 and 1 at x = 1
    assert trace(f, 1.0) == (0.0, 3.0)


def test_decay_certificate(halfline_grid):
    good = exponential(1.0, -1.0)
    assert decay_certificate(good, halfline_grid.length)
    slow = exponential(1.0, -0.05)
    assert not decay_certificate(slow, halfline_grid.length)


def test_grid_function_is_its_term_sum(interval_grid, phi_x2_minus_x):
    # no samples: the compatibility shim hands back the term sum itself
    assert GridFunction.from_analytic(interval_grid, phi_x2_minus_x) is phi_x2_minus_x
