import math

import numpy as np
import pytest

from dissipext.analytic import (
    AnalyticError,
    AnalyticFunction,
    DivergentIntegralError,
    Term,
    constant,
    exponential,
    indicator,
    monomial,
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
