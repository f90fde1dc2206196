import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissipext import catalog
from dissipext.analytic import AnalyticFunction, Term, exponential, trace_scale
from dissipext.grid import (
    GridError,
    GridFunction,
    decay_certificate,
    make_grid,
    span_decay_certificate,
)


def test_halfline_grid_records_truncation():
    g = make_grid("halfline", length=40.0)
    assert g.is_halfline and g.length == 40.0
    assert g.right_endpoint == math.inf
    # truncation radius keeps products of the decaying defect basis tiny
    assert math.exp(-math.sqrt(2.0) * g.length) < 1e-24


def test_offset_grid_first_node():
    g = make_grid("interval", offset=1e-3)
    assert g.offset == 1e-3 and g.right_endpoint == 1.0
    assert make_grid("interval", length=1.0, offset=1e-3) == g


def test_make_grid_errors():
    with pytest.raises(TypeError):
        make_grid("interval", 512)  # a domain has no node count
    with pytest.raises(GridError):
        make_grid("interval", length=-1.0)
    with pytest.raises(GridError):
        make_grid("interval", offset=0.9)
    for offset in (-1e-9, math.nan):
        with pytest.raises(GridError, match="offset"):
            make_grid("interval", offset=offset)
    with pytest.raises(GridError):
        make_grid("circle")


@pytest.mark.parametrize("length", [5e-324, 1e-320])
def test_tiny_halfline_length_needs_no_offset(length):
    # (length - 0) / 64 underflows to 0 below about 64 * 5e-324, so only an
    # offset that is set is tested against it
    assert make_grid("halfline", length=length).length == length
    with pytest.raises(GridError, match="offset"):
        make_grid("halfline", length=length, offset=length)


def test_boundary_data_analytic_traces_win(interval_grid, phi_x2_minus_x):
    f, df = phi_x2_minus_x, phi_x2_minus_x.derivative()
    assert f.value_at(0.0) == 0.0 and f.value_at(interval_grid.length) == 0.0
    assert df.value_at(0.0) == -1.0 and df.value_at(1.0) == 1.0
    # the trace scale is 1 + sum |term values|: x^2 and -x are 1 and 1 at x = 1
    assert f.value_at(1.0) == 0.0 and trace_scale(f, 1.0) == 3.0


def test_decay_certificate(halfline_grid):
    good = exponential(1.0, -1.0)
    assert decay_certificate(good, halfline_grid.length)
    slow = exponential(1.0, -0.05)
    assert not decay_certificate(slow, halfline_grid.length)


def test_grid_function_is_its_term_sum(interval_grid, phi_x2_minus_x):
    # no samples: the compatibility shim hands back the term sum itself
    assert GridFunction.from_analytic(interval_grid, phi_x2_minus_x) is phi_x2_minus_x


def _cancelling(a, b):
    """The boundary parameters at which ``a + rho b`` loses one of its terms."""
    bs = {(t.power, t.rate, t.lo, t.hi): t.coeff for t in b.terms}
    return [-t.coeff / bs[(t.power, t.rate, t.lo, t.hi)] for t in a.terms
            if (t.power, t.rate, t.lo, t.hi) in bs]


def test_span_decay_certificate_vouches_for_every_boundary_parameter():
    # the Potsdam pair sigma, tau: both terms decay like exp(-x / sqrt 2)
    a = catalog.build_potsdam(None, 0j, None).v
    b = catalog.build_potsdam(None, catalog.RHO_INF, None).v
    rhos = [0j, 1 + 0j, -1j, 1e-300 + 0j, 1e300j, 3.7 - 2.2j] + _cancelling(a, b)
    assert span_decay_certificate((a, b), 40.0)
    for r in (40.0, 35.0):
        assert span_decay_certificate((a, b), r)
        assert all(decay_certificate(a + rho * b, r) for rho in rhos)
    # at r = 33 the answer depends on rho: one term alone passes, two of
    # equal size do not; the span bound vouches for neither
    assert decay_certificate(a + _cancelling(a, b)[0] * b, 33.0)
    assert not decay_certificate(a + 1j * b, 33.0)
    assert not span_decay_certificate((a, b), 33.0)


_decaying_term = st.builds(
    Term,
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.floats(-3.0, -0.05).map(complex),
    lo=st.none(),
    hi=st.none(),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(terms=st.lists(_decaying_term, min_size=1, max_size=4), r=st.floats(5.0, 60.0),
       coeffs=st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                          allow_infinity=False), min_size=4, max_size=4))
def test_span_decay_certificate_is_a_bound(terms, r, coeffs):
    # when the bound holds, so does every combination's own certificate
    fns = [AnalyticFunction((t,)) for t in terms]
    combo = AnalyticFunction(tuple(Term(c * t.coeff, t.power, t.rate)
                                   for c, t in zip(coeffs, terms)))
    if span_decay_certificate(fns, r):
        assert decay_certificate(combo, r)
