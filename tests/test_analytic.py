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
    envelope,
    is_real,
    monomial,
    norm_sq,
    peaks,
    power,
    sign_check,
    square_integrable,
    tail_point,
    trace_scale,
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
    assert abs(big_f.value_at(0.0)) < 1e-14
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
    assert constant(3.0).value_at(0.0) == 3.0
    assert power(1.0, 1.5).value_at(0.0) == 0.0
    with pytest.raises(DivergentIntegralError):
        power(1.0, -0.5).value_at(0.0)


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
    # Terms, plain 5-tuples and a generator: one term per (power, rate, lo,
    # hi) in first-seen order, coefficients summed, zeros dropped
    plain = [(1.0, 2.0, 0.0, None, None), (0.0, 3.0, 0.0, None, None),
             (1j, 1.0, -1.0, 0.0, 1.0), (2.0, 2.0, 0.0, None, None),
             (-1j, 1.0, -1.0, 0.0, 1.0), (0.5, 0.0, 0.0, 0.0, 1.0)]
    want = (Term(3.0, 2.0), Term(0.5, 0.0, 0.0, 0.0, 1.0))
    for terms in (plain, [Term(*t) for t in plain], (t for t in plain)):
        f = AnalyticFunction(terms)
        assert f.terms == want
        assert all(type(t) is Term for t in f.terms)
    assert AnalyticFunction(f.terms).terms == f.terms
    assert AnalyticFunction([(0.0, 1.0, 0.0, None, None)]).terms == ()
    # the algebra hands its products to the same constructor
    g = f * AnalyticFunction([(1.0, 1.0, 0.0, None, None)])
    assert g.terms == (Term(3.0, 3.0), Term(0.5, 1.0, 0.0, 0.0, 1.0))
    assert all(type(t) is Term for t in (g.conj() + (2.0 * g) + monomial(1.0, 2).derivative()).terms)
    assert Term(1.0, 2.0).windowed is False and Term(1.0, lo=0.5).windowed is True


def _bits(z: complex) -> tuple:
    """Bit pattern of a complex value, with every NaN alike."""
    return tuple("nan" if math.isnan(v) else v.hex() for v in (z.real, z.imag))


_EDGES = (0.25, 0.5, 1.0, 2.0)
_term = st.tuples(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 1.0, 2.0, 0.5, -0.5, -1.0, 1.5 + 0.866j, 0.25 - 2.0j]),
    st.sampled_from([0.0, -1.0, 0.5, 1j * math.pi, -0.3 + 2.0j]),
    st.one_of(st.none(), st.sampled_from(_EDGES[:2])),
    st.one_of(st.none(), st.sampled_from(_EDGES[2:])),
    st.booleans(),
)


def _with_mirrors(drawn):
    out = []
    for c, a, b, lo, hi, mirrored in drawn:
        out.append((complex(c), a, b, lo, hi))
        if mirrored:  # a conjugate pair, evaluated from one exp
            out.append((complex(c).conjugate(), complex(a).conjugate(),
                        complex(b).conjugate(), lo, hi))
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(drawn=st.lists(_term, max_size=6),
       x=st.one_of(st.sampled_from(_EDGES), st.sampled_from([5e-324, 1e-300, 1e-12, 1e-3]),
                   st.floats(1e-6, 40.0)))
def test_value_at_is_call_bit_for_bit(drawn, x):
    f = AnalyticFunction(_with_mirrors(drawn))
    with np.errstate(all="ignore"):
        assert _bits(f.value_at(x)) == _bits(complex(f(np.asarray(x))))


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


_D2_POWERS = (0.0, 1.0, 2.0, 3.0, 0.5, 1.2, 1.6, 2.5)
_D2_RATES = (-1.0, -0.5 + 1.0j, 0.0, 2.0j)


@st.composite
def _derivative_sums(draw):
    """Sums of ``c x^a e^{bx}`` with integer and non-integer ``a``, ``Re b <
    0`` and ``Re b = 0``, and on some draws a windowed term."""
    def term():
        return Term(draw(st.sampled_from(_COEFFS)), draw(st.sampled_from(_D2_POWERS)),
                    draw(st.sampled_from(_D2_RATES)))

    fn = AnalyticFunction([term() for _ in range(draw(st.integers(1, 3)))])
    if draw(st.booleans()):
        fn = fn + AnalyticFunction([term()]) * indicator(*draw(st.sampled_from(_WINDOWS)))
    return fn


@settings(max_examples=40, deadline=None, derandomize=True)
@given(f=_derivative_sums(), order=st.sampled_from((0, 2)), hi=st.sampled_from((1.0, math.inf)))
def test_square_integrable_matches_norm_sq(f, order, hi):
    # the decision from the terms is "norm_sq of the derivative does not
    # raise", and a windowed sum has no derivative to decide on
    g = f
    try:
        for _ in range(order):
            g = g.derivative()
    except AnalyticError:
        with pytest.raises(AnalyticError):
            square_integrable(f, 0.0, hi, order)
        return
    try:
        norm_sq(g, 0.0, hi)
        finite = True
    except DivergentIntegralError:
        finite = False
    assert square_integrable(f, 0.0, hi, order) is finite


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


# ---------------------------------------------------------------------------
# input checks on term sums


def test_trace_scale_and_singular_trace():
    f = AnalyticFunction((Term(1.0, 0.0), Term(-1.0, 0.0, -1.0)))  # 1 - e^-x
    assert f.value_at(0.0) == 0.0 and trace_scale(f, 0.0) == 3.0
    with pytest.raises(AnalyticError):
        trace_scale(power(1.0, -0.5), 0.0)


def test_is_real_is_exact():
    cos2 = AnalyticFunction((Term(1.0, 0.0, -1 + 1j), Term(1.0, 0.0, -1 - 1j)))
    assert is_real(cos2) and is_real(monomial(2.0, 3))
    assert not is_real(exponential(1j, -1.0))
    assert not is_real(AnalyticFunction((Term(1.0, 0.0, -1 + 1j),)))
    assert is_real(AnalyticFunction((Term(1.0 + 1e-14j, 1.0),)))


def test_envelope_peaks_and_tail():
    f = AnalyticFunction((Term(2.0, 1.0, -1.0),))  # peak 2/e at x = 1
    assert peaks(f, 40.0) == [(1.0, pytest.approx(2.0 / math.e, rel=1e-15))]
    cut = tail_point(f, 40.0, 1e-8)
    assert envelope(f, cut) == pytest.approx(1e-8 * 2.0 / math.e, rel=1e-9)
    # a window edge is where the envelope drops
    assert tail_point(2.0 * indicator(0.0, 1.0), 40.0, 1e-8) == pytest.approx(1.0, abs=1e-9)
    assert tail_point(exponential(1.0, -0.01), 40.0, 1e-8) == 40.0
    assert tail_point(AnalyticFunction(()), 40.0, 1e-8) is None


def test_sign_check_negative_dip_between_samples():
    # a dip of width 0.06 that 64- to 512-node samples on (0, 40) step over
    dip = AnalyticFunction((Term(1.0, 2.0), Term(-0.6, 1.0), Term(0.089, 0.0))) * indicator(0.0, 1.0)
    assert not sign_check(dip, 0.0, math.inf).nonneg
    square = AnalyticFunction((Term(1.0, 2.0), Term(-0.6, 1.0), Term(0.09, 0.0))) * indicator(0.0, 1.0)
    check = sign_check(square, 0.0, math.inf)
    assert check.nonneg
    assert check.zeros == pytest.approx((0.3,), abs=1e-12)


def test_sign_check_exponential_polynomial_and_limits():
    # e^-x - 2 e^-2x is negative near 0 and positive past ln 2
    assert not sign_check(AnalyticFunction((Term(1.0, 0.0, -1.0), Term(-2.0, 0.0, -2.0))),
                          0.0, math.inf).nonneg
    # x e^-x - e^-3x: negative at 0; x^0.5 - x: negative past 1
    assert not sign_check(AnalyticFunction((Term(1.0, 1.0, -1.0), Term(-1.0, 0.0, -3.0))),
                          0.0, math.inf).nonneg
    assert not sign_check(AnalyticFunction((Term(1.0, 0.5), Term(-1.0, 1.0))), 0.0, 4.0).nonneg
    assert sign_check(AnalyticFunction((Term(1.0, 0.5), Term(-1.0, 1.0))), 0.0, 1.0).nonneg
    # (1 - x) on its window, 2 - 2x e^-x everywhere
    assert sign_check(AnalyticFunction((Term(1.0, 0.0), Term(-1.0, 1.0))) * indicator(0.0, 1.0),
                      0.0, math.inf).nonneg
    assert sign_check(AnalyticFunction((Term(2.0, 0.0), Term(-2.0, 1.0, -1.0))), 0.0, math.inf).nonneg


def test_sign_check_complex_rates_are_sampled():
    bump = AnalyticFunction((Term(2.0, 0.0), Term(1.0, 0.0, 1j), Term(1.0, 0.0, -1j)))  # 2 + 2 cos x
    # 2 + 2 cos x touches 0 at pi: the samples see no sign and report no zero
    assert sign_check(bump * indicator(0.0, 5.0), 0.0, math.inf) == (True, ())
    low = AnalyticFunction((Term(1.5, 0.0), Term(1.0, 0.0, 1j), Term(1.0, 0.0, -1j)))
    assert not sign_check(low * indicator(0.0, 5.0), 0.0, math.inf).nonneg


def test_interior_zero_of_weight_is_a_breakpoint():
    square = AnalyticFunction((Term(1.0, 2.0), Term(-0.6, 1.0), Term(0.09, 0.0))) * indicator(0.0, 1.0)
    with pytest.raises(DivergentIntegralError):
        norm_sq(monomial(1.0, 1) * indicator(0.0, 1.0), 0.0, math.inf, square, inverse=True)
    # k = (x - 0.3) cancels the double zero: int_0^1 1 dx; next to the zero
    # V as a sum of terms keeps only about eps / (x - 0.3)^2 of its digits
    k = AnalyticFunction((Term(1.0, 1.0), Term(-0.3, 0.0))) * indicator(0.0, 1.0)
    assert norm_sq(k, 0.0, math.inf, square, inverse=True) == pytest.approx(1.0, rel=1e-7)


@st.composite
def _real_quartics(draw):
    """``sum_j c_j x^j`` of degree 4 with the minimum on [0, 1] near 0."""
    roots = [draw(st.floats(-0.5, 1.5)) for _ in range(2)]
    lead = draw(st.floats(0.5, 3.0))
    shift = draw(st.floats(-0.3, 0.3))
    # lead (x - r0)^2 (x - r1)^2 + shift
    coeffs = lead * np.polynomial.polynomial.polyfromroots(roots + roots)
    coeffs[0] += shift
    return coeffs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(coeffs=_real_quartics())
def test_sign_check_matches_polynomial_minimum(coeffs):
    # metamorphic: the exact rule agrees with the minimum over the roots of p'
    fn = AnalyticFunction(tuple(Term(float(c), float(j)) for j, c in enumerate(coeffs)))
    crit = [r.real for r in np.roots(np.polynomial.polynomial.polyder(coeffs)[::-1])
            if abs(r.imag) < 1e-9 and 0.0 < r.real < 1.0]
    low = min(np.polynomial.polynomial.polyval(np.array([0.0, 1.0] + crit), coeffs))
    if abs(low) < 1e-9:
        return
    assert sign_check(fn * indicator(0.0, 1.0), 0.0, 2.0).nonneg is bool(low > 0.0)
