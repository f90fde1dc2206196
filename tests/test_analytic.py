import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissipext.analytic import (
    AnalyticError,
    AnalyticFunction,
    DivergentIntegralError,
    Term,
    constant,
    exponential,
    indicator,
    monomial,
    norm_sq,
    power,
)


def test_power_integral_exact():
    assert power(1.0, 2.5).integral(0.0, 1.0) == pytest.approx(1 / 3.5, abs=1e-15)
    om = 1.5 + 0.866j
    val = power(1.0, om).integral(0.0, 1.0)
    assert val == pytest.approx(1.0 / (om + 1.0), abs=1e-15)


def test_power_divergence_at_zero():
    with pytest.raises(DivergentIntegralError):
        power(1.0, -1.0).integral(0.0, 1.0)
    with pytest.raises(DivergentIntegralError):
        power(1.0, -1.5).integral(0.0, 1.0)
    # integrable singularity is fine
    assert power(1.0, -0.5).integral(0.0, 1.0) == pytest.approx(2.0)


def test_exponential_integrals():
    assert exponential(1.0, -2.0).integral(0.0, math.inf) == pytest.approx(0.5)
    fn = AnalyticFunction((Term(1.0, 2.0, -1.0),))  # x^2 e^-x
    assert fn.integral(0.0, math.inf) == pytest.approx(2.0)
    with pytest.raises(DivergentIntegralError):
        exponential(1.0, 0.5).integral(0.0, math.inf)


def test_oscillatory_exponential_finite_interval():
    # e^{i pi x} over (0,1) = 2i/pi... actually (e^{i pi}-1)/(i pi) = -2/(i pi)
    val = exponential(1.0, 1j * math.pi).integral(0.0, 1.0)
    assert val == pytest.approx((np.exp(1j * np.pi) - 1) / (1j * np.pi), abs=1e-14)


def test_fractional_power_with_exponential_quad_fallback():
    fn = AnalyticFunction((Term(1.0, 0.5, -1.0),))  # sqrt(x) e^-x
    val = fn.integral(0.0, math.inf)
    assert val.real == pytest.approx(math.gamma(1.5), rel=1e-10)


def test_product_and_conj():
    f = AnalyticFunction((Term(1j, 1.0, -1.0),))
    prod = f.conj() * f
    assert prod.integral(0.0, math.inf).real == pytest.approx(0.25)
    assert prod.integral(0.0, math.inf).imag == pytest.approx(0.0, abs=1e-15)


def test_derivative_closed():
    f = AnalyticFunction((Term(1.0, 1.0, -1.0),))  # x e^-x
    d = f.derivative()
    xs = np.linspace(0.1, 3.0, 7)
    assert np.allclose(d(xs), (1 - xs) * np.exp(-xs))


def test_derivative_of_indicator_rejected():
    with pytest.raises(AnalyticError):
        indicator(0.0, 1.0).derivative()


def test_antiderivative_poly_exp():
    f = AnalyticFunction((Term(2.0, 3.0), Term(1.0, 1.0, -2.0)))
    big_f = f.antiderivative()
    assert abs(big_f.value_at_zero()) < 1e-14
    for x in (0.3, 1.0, 2.5):
        left = big_f.value_at(x)
        expect = 2.0 * x**4 / 4.0 + (0.25 - (x / 2 + 0.25) * np.exp(-2 * x))
        assert left == pytest.approx(expect, abs=1e-13)


def test_windowed_integrals_exact():
    f = indicator(0.0, 1.0) * monomial(1.0, 1)
    assert f.integral(0.0, math.inf) == pytest.approx(0.5)
    g = indicator(0.5, 2.0) * constant(1.0)
    assert g.integral(0.0, 1.0) == pytest.approx(0.5)
    # window intersection through products
    h = indicator(0.0, 1.0) * indicator(0.5, 3.0)
    assert h.integral(0.0, math.inf) == pytest.approx(0.5)


def test_value_at_zero_limits():
    assert constant(3.0).value_at_zero() == 3.0
    assert power(1.0, 1.5).value_at_zero() == 0.0
    with pytest.raises(DivergentIntegralError):
        power(1.0, -0.5).value_at_zero()


def test_decays_at_infinity():
    assert exponential(1.0, -1.0).decays_at_infinity()
    assert not monomial(1.0, 1).decays_at_infinity()
    assert power(1.0, -2.0).decays_at_infinity()
    assert (indicator(0.0, 1.0) * constant(5.0)).decays_at_infinity()


def test_term_merging():
    f = AnalyticFunction((Term(1.0, 2.0), Term(2.0, 2.0), Term(1.0, 1.0)))
    assert len(f.terms) == 2
    g = f - f
    assert len(g.terms) == 0


# ---------------------------------------------------------------------------
# exact finiteness of non-negative integrals against quadrature


def test_cancelling_divergence_is_finite():
    # x^-1 (1 - e^-x): every term of |f|^2 diverges at 0, the sum does not
    f = AnalyticFunction((Term(1.0, -1.0), Term(-1.0, -1.0, -1.0)))
    assert norm_sq(f, 0.0, math.inf) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
    with pytest.raises(DivergentIntegralError):
        norm_sq(AnalyticFunction((Term(1.0, -1.0), Term(-0.5, -1.0, -1.0))), 0.0, 1.0)


def test_inverse_of_two_term_weight():
    # int e^-4x / (e^-x + x e^-x) = e^3 E1(3)
    k = exponential(1.0, -2.0)
    v = AnalyticFunction((Term(1.0, 0.0, -1.0), Term(1.0, 1.0, -1.0)))
    expect = float(mpmath.e ** 3 * mpmath.e1(3))
    assert norm_sq(k, 0.0, math.inf, v, inverse=True) == pytest.approx(expect, rel=1e-13)


def test_weight_vanishing_at_a_window_edge():
    v = AnalyticFunction((Term(1.0, 0.0, 0.0, 0.0, 1.0), Term(-1.0, 1.0, 0.0, 0.0, 1.0)))
    with pytest.raises(DivergentIntegralError):
        norm_sq(indicator(0.0, 1.0), 0.0, math.inf, v, inverse=True)
    # k vanishing as fast as V at the edge keeps the integral finite
    assert norm_sq(v, 0.0, math.inf, v, inverse=True) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(DivergentIntegralError):
        norm_sq(indicator(2.0, 3.0), 0.0, math.inf, v, inverse=True)


_COEFFS = (1.0, -0.5, 2.0, 1j)
_POWERS = (-1.0, -0.75, -0.5, -0.25, 0.0, 0.5, 1.0)
_RATES = (0.0, -0.5, -1.0, -1.0 + 1.0j, 0.25)
_WINDOWS = ((0.0, 1.0), (0.5, 2.0), (1.0, 3.0))


@st.composite
def _term_sums(draw):
    """Sums whose |f|^2 has leading powers on the half-integers: over one
    step of the reference's windows (a factor 1000) the increments of a log
    divergence stay equal while those of the slowest convergence shrink 30x."""
    def term():
        return Term(draw(st.sampled_from(_COEFFS)), draw(st.sampled_from(_POWERS)),
                    draw(st.sampled_from(_RATES)))

    fn = AnalyticFunction([term() for _ in range(draw(st.integers(1, 2)))])
    if draw(st.booleans()):
        # c x^a (1 - e^-x): both terms may diverge where their sum does not
        c, a = draw(st.sampled_from(_COEFFS)), draw(st.sampled_from((-1.5, -1.0, -0.5)))
        fn = fn + AnalyticFunction((Term(c, a), Term(-c, a, -1.0)))
    if draw(st.booleans()):
        fn = fn + AnalyticFunction([term()]) * indicator(*draw(st.sampled_from(_WINDOWS)))
    return fn


@st.composite
def _two_term_weights(draw):
    """A positive multiplier ``d1 x^q1 e^{r1 x} + d2 x^q2 e^{r2 x}``."""
    return AnalyticFunction([
        Term(draw(st.sampled_from((0.5, 1.0, 3.0))), draw(st.sampled_from((0.0, 0.5, 1.0))),
             draw(st.sampled_from((0.0, -0.5, -1.0))))
        for _ in range(2)
    ])


def _mp_value(fn, t):
    return mpmath.fsum(
        term.coeff * mpmath.power(t, term.power) * mpmath.exp(term.rate * t)
        for term in fn.terms
        if (term.lo is None or term.lo <= t) and (term.hi is None or t <= term.hi)
    )


def _quad_reference(f, weight, inverse, hi):
    """``(finite, value)`` of ``int w^{+-1} |f|^2`` from mpmath.quad alone.

    An end of a piece (0, a window edge from either side, infinity) is
    singular when the integrals over two successive windows approaching it
    stop shrinking (and exceed 1e-6).
    """
    def g(t):
        v = abs(_mp_value(f, t)) ** 2
        if weight is None:
            return v
        w = mpmath.re(_mp_value(weight, t))
        if inverse:
            return v / w if w else mpmath.mpf(0)
        return w * v

    edges = {0.0, hi}
    for fn in (f,) if weight is None else (f, weight):
        edges.update(e for t in fn.terms for e in (t.lo, t.hi) if e is not None and 0.0 < e < hi)
    pts = sorted(edges)

    def stalls(ends):
        # window ends, from the farthest to the nearest to the end of the piece
        d1 = mpmath.quad(g, sorted(ends[0:2]))
        d2 = mpmath.quad(g, sorted(ends[1:3]))
        return d2 > 1e-6 and d2 > 0.5 * d1

    with mpmath.workdps(30):
        for a, b in zip(pts, pts[1:]):
            near = [mpmath.mpf(10) ** -k for k in (2, 5, 8)]
            if stalls([a + d for d in near]):
                return False, None
            if b == math.inf:
                if stalls([a + mpmath.mpf(10) ** k for k in (1, 2, 3)]):
                    return False, None
            elif stalls([b - d for d in near]):
                return False, None
        total = mpmath.quad(g, [mpmath.inf if p == math.inf else p for p in pts])
    return True, float(total)


def _agrees_with_quadrature(f, weight, inverse, hi):
    finite, value = _quad_reference(f, weight, inverse, hi)
    if not finite:
        with pytest.raises(DivergentIntegralError):
            norm_sq(f, 0.0, hi, weight, inverse=inverse)
        return
    assert norm_sq(f, 0.0, hi, weight, inverse=inverse) == pytest.approx(value, rel=1e-8, abs=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(f=_term_sums(), hi=st.sampled_from((1.0, math.inf)))
def test_finiteness_decision_matches_quadrature(f, hi):
    _agrees_with_quadrature(f, None, False, hi)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(f=_term_sums(), w=_two_term_weights(), inverse=st.booleans())
def test_weighted_finiteness_matches_quadrature(f, w, inverse):
    # the extra e^-x lets the inverse converge at infinity on about half the draws
    _agrees_with_quadrature(f * exponential(1.0, -1.0), w, inverse, math.inf)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(f=_term_sums(), c=st.sampled_from((1.0, 2.0)), vanish=st.booleans())
def test_edge_vanishing_weight_matches_quadrature(f, c, vanish):
    # V = (c - x) on (0, c) vanishes at the window edge c; k lives on (0, c)
    # and, with ``vanish``, vanishes there as fast as V
    v = AnalyticFunction((Term(c, 0.0), Term(-1.0, 1.0))) * indicator(0.0, c)
    k = f * (v if vanish else indicator(0.0, c))
    _agrees_with_quadrature(k, v, True, math.inf)
