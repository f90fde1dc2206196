import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissipext import catalog, forms
from dissipext.analytic import (
    AnalyticFunction,
    Term,
    constant,
    exponential,
    indicator,
    monomial,
    power,
)
from dissipext.grid import make_grid
from reference.sup_formula import DegenerateFormError, MatrixSpec, krein_form_ando_nishio


@pytest.fixture(scope="module")
def interval():
    return make_grid("interval")


@pytest.fixture(scope="module")
def spec_interval():
    return forms.dirichlet_laplacian_interval()


@pytest.fixture(scope="module")
def konzert_weight():
    grid = make_grid("interval", offset=1e-6)
    return forms.multiplication(power(0.25, -1.0), grid, strict_lower_bound=0.25)


# ---------------------------------------------------------------------------
# spec validation


def test_friedrichs_equals_krein_follows_family(spec_interval, konzert_weight, rank_one_direction):
    assert konzert_weight.friedrichs_equals_krein
    assert forms.rank_one(1.0, rank_one_direction).friedrichs_equals_krein
    assert not spec_interval.friedrichs_equals_krein
    assert not forms.dirichlet_laplacian_halfline().friedrichs_equals_krein


def test_rank_one_needs_normalized_direction(interval):
    phi = constant(2.0)
    with pytest.raises(forms.FormsError):
        forms.rank_one(1.0, phi, interval)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
def test_rank_one_needs_finite_positive_strength(alpha):
    # a strength of inf made krein_form_sq return inf, and nan returned nan
    with pytest.raises(forms.FormsError, match="0 < alpha < inf"):
        forms.rank_one(alpha, exponential(math.sqrt(2.0), -1.0))


# ---------------------------------------------------------------------------
# square-root forms


def test_friedrichs_interval_quadratic(interval, spec_interval):
    f = AnalyticFunction((Term(1.0, 2.0), Term(-1.0, 1.0)))
    assert forms.friedrichs_form_sq(spec_interval, f) == pytest.approx(1 / 3, abs=1e-13)


def test_friedrichs_rejects_nonzero_trace(interval, spec_interval):
    f = monomial(1.0, 1)  # f(1) = 1
    with pytest.raises(forms.DomainError):
        forms.friedrichs_form_sq(spec_interval, f)


def test_multiplication_divergence_flagged(konzert_weight):
    one = constant(1.0)
    with pytest.raises(forms.DomainError):
        forms.friedrichs_form_sq(konzert_weight, one)


def test_rank_one_form(interval):
    # alpha=1, f = the direction itself: form value 1
    phi = exponential(math.sqrt(2.0), -1.0)
    spec = forms.rank_one(1.0, phi)
    assert forms.friedrichs_form_sq(spec, phi) == pytest.approx(1.0, abs=1e-12)


def test_krein_interval_examples(interval, spec_interval):
    # affine functions are annihilated by the small extension's form
    assert forms.krein_form_sq(spec_interval, monomial(1.0, 1)) == pytest.approx(
        0.0, abs=1e-14
    )
    assert forms.krein_form_sq(spec_interval, monomial(1.0, 2)) == pytest.approx(
        4 / 3 - 1, abs=1e-13
    )


def test_krein_halfline_is_derivative_norm():
    spec = forms.dirichlet_laplacian_halfline()
    mu = -(1.0 + 1.0j) / math.sqrt(2.0)
    zeta = AnalyticFunction((Term(1.0, 0.0, mu),))
    val = forms.krein_form_sq(spec, zeta)
    d = zeta.derivative()
    assert val == pytest.approx(float((d.conj() * d).integral(0, math.inf).real), abs=1e-12)


def test_krein_rejects_divergent_derivative(konzert_weight):
    bad = power(1.0, -0.25)
    with pytest.raises(forms.DomainError):
        forms.krein_form_sq(konzert_weight, bad)


def test_form_equality_on_friedrichs_domain(interval, spec_interval):
    # the two square-root forms agree on the large form domain
    rng = np.random.default_rng(3)
    b = interval.length
    for _ in range(50):
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        terms = tuple(
            Term(-0.5j * c, 0.0, 1j * math.pi * k / b) for k, c in enumerate(coeffs, start=1)
        ) + tuple(
            Term(0.5j * c, 0.0, -1j * math.pi * k / b) for k, c in enumerate(coeffs, start=1)
        )
        f = AnalyticFunction(terms)  # random sine sum, zero traces
        fr = forms.friedrichs_form_sq(spec_interval, f)
        kr = forms.krein_form_sq(spec_interval, f)
        assert abs(kr - fr) <= 1e-8 * (1.0 + fr)


def test_krein_below_derivative_norm_with_traces(interval, spec_interval):
    f = AnalyticFunction((Term(1.0, 2.0), Term(0.3, 1.0)))
    kr = forms.krein_form_sq(spec_interval, f)
    d = f.derivative()
    dn = float((d.conj() * d).integral(0, 1).real)
    assert kr <= dn + 1e-12


# ---------------------------------------------------------------------------
# sup formula


def test_ando_nishio_kernel_direction(interval, spec_interval):
    h = monomial(1.0, 1)
    assert krein_form_ando_nishio(spec_interval, h, 16) == pytest.approx(0.0, abs=1e-8)


def test_ando_nishio_two_percent(interval, spec_interval, konzert_weight):
    cases = [
        (spec_interval, monomial(1.0, 2)),
        (spec_interval, power(1.0, 1.25)),
        (konzert_weight, monomial(1.0, 2)),
        (konzert_weight, power(1.0, 1.25)),
    ]
    for spec, h in cases:
        closed = forms.krein_form_sq(spec, h)
        an = krein_form_ando_nishio(spec, h, 32)
        assert an <= closed + 1e-8
        assert abs(an - closed) <= 0.02 * closed


def test_ando_nishio_monotone(interval, spec_interval):
    h = monomial(1.0, 2)
    vals = [krein_form_ando_nishio(spec_interval, h, m) for m in (4, 8, 16, 32)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-10


def test_ando_nishio_pinned_values(interval, spec_interval, konzert_weight):
    # values of the per-pair Cox-de Boor assembly that the spline layer replaced
    pinned = {
        ("laplacian", "x^2"): (0.014397136137244053, 0.07308821012114114,
                               0.2912962908820452, 0.33323058855134996),
        ("laplacian", "x^1.25"): (0.0026811707052800194, 0.008440274407354866,
                                  0.03355353114257925, 0.04164491021018363),
        ("konzert", "x^2"): (0.012360643194960715, 0.01364255624934366,
                             0.0524905769494601, 0.06246246207392479),
        ("konzert", "x^1.25"): (0.02990420679011877, 0.03818362010952985,
                                0.08967915587800107, 0.09996245830531397),
    }
    specs = {"laplacian": spec_interval, "konzert": konzert_weight}
    targets = {"x^2": monomial(1.0, 2), "x^1.25": power(1.0, 1.25)}
    for (spec_name, target), expected in pinned.items():
        spec, h = specs[spec_name], targets[target]
        for dim, value in zip((4, 8, 16, 32), expected):
            assert krein_form_ando_nishio(spec, h, dim) == pytest.approx(value, rel=1e-12)


def test_ando_nishio_rank_one(interval):
    phi = exponential(math.sqrt(2.0), -1.0)
    spec = forms.rank_one(2.0, phi)
    h = exponential(1.0, -2.0)
    expected = 2.0 * abs(
        float((phi.conj() * h).integral(0, math.inf).real)
    ) ** 2
    assert krein_form_ando_nishio(spec, h, 8) == pytest.approx(expected, rel=1e-10)


def test_ando_nishio_degenerate_gram():
    spec = MatrixSpec(np.zeros((3, 3), dtype=complex))
    with pytest.raises(DegenerateFormError):
        krein_form_ando_nishio(spec, np.ones(3, dtype=complex), 3)


def test_ando_nishio_bounded_matrix():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    mat = a @ a.conj().T
    spec = MatrixSpec(mat)
    h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    val = krein_form_ando_nishio(spec, h, 5)
    assert val == pytest.approx(float(np.vdot(h, mat @ h).real), rel=1e-9)


# ---------------------------------------------------------------------------
# inverse solve


def test_vf_solve_multiplication_closed_form(konzert_weight):
    one = constant(1.0)
    sol = forms.vf_solve(konzert_weight, one)
    assert sol.inv_form == pytest.approx(2.0, abs=1e-12)


def test_vf_solve_interval_eigenfunction(interval, spec_interval, gauss):
    pi = math.pi
    ell = AnalyticFunction((Term(-0.5j * pi**2, 0.0, 1j * pi), Term(0.5j * pi**2, 0.0, -1j * pi)))
    sol = forms.vf_solve(spec_interval, ell)
    assert sol.inv_form == pytest.approx(pi**2 / 2, rel=1e-12)
    xs, _ = gauss(0.0, interval.length, 512)
    assert np.max(np.abs(sol.u(xs) - np.sin(pi * xs))) < 1e-10


def test_vf_solve_zero(interval, spec_interval, gauss):
    sol = forms.vf_solve(spec_interval, AnalyticFunction(()))
    assert sol.inv_form == 0.0
    assert np.max(np.abs(sol.u(gauss(0.0, interval.length, 512)[0]))) == 0.0


def test_vf_solve_residual_invariant(interval, spec_interval):
    # -u'' reproduces ell with tiny relative residual (analytic route)
    ell = AnalyticFunction((Term(1.0, 3.0), Term(-0.5, 1.0), Term(2.0, 0.0)))
    sol = forms.vf_solve(spec_interval, ell)
    resid = -1.0 * sol.u.derivative().derivative() - ell
    rel = math.sqrt(
        float((resid.conj() * resid).integral(0, 1).real)
        / float((ell.conj() * ell).integral(0, 1).real)
    )
    assert rel < 1e-6
    assert abs(sol.u.value_at(0.0)) < 1e-13 and abs(sol.u.value_at(1.0)) < 1e-13


def test_vf_solve_green_fallback_matches(interval, spec_interval, gauss):
    # pi^2 sin(pi x) as two exponentials: the exact Green solution, whose
    # closed-form <ell, u> a Gauss quadrature reproduces
    pi = math.pi
    ell = AnalyticFunction((Term(-0.5j * pi**2, 0.0, 1j * pi), Term(0.5j * pi**2, 0.0, -1j * pi)))
    sol = forms.vf_solve(spec_interval, ell)
    assert sol.inv_form == pytest.approx(pi**2 / 2, rel=1e-12)
    xs, ws = gauss(0.0, interval.length, 512)
    sampled = np.sum(ws * np.conj(ell(xs)) * sol.u(xs))
    assert sampled.real == pytest.approx(sol.inv_form, rel=1e-10)


def test_inverse_outside_closed_class_raises(interval, spec_interval, konzert_weight):
    # x^0.5 e^{-x}: the Green antiderivatives leave the term class
    ell = AnalyticFunction((Term(1.0, 0.5, -1.0),))
    with pytest.raises(forms.FormsError):
        forms.vf_solve(spec_interval, ell)
    halfline = forms.dirichlet_laplacian_halfline()
    with pytest.raises(forms.FormsError):
        forms.sqrt_scale_inv_form(halfline, ell)
    # a two-term multiplier has no one-term pointwise inverse
    grid = konzert_weight.domain
    two_term = forms.multiplication(AnalyticFunction((Term(1.0, 0.0), Term(1.0, 1.0))), grid)
    with pytest.raises(forms.FormsError):
        forms.vf_solve(two_term, constant(1.0))


def test_vf_solve_halfline_nondecaying_rejected():
    spec = forms.dirichlet_laplacian_halfline()
    ell = exponential(1.0, -1.0)  # int y ell dy = 1 != 0
    with pytest.raises(forms.RangeError):
        forms.vf_solve(spec, ell)


def test_vf_solve_rank_one_range(interval, gauss):
    grid = make_grid("halfline")
    phi = exponential(math.sqrt(2.0), -1.0)
    spec = forms.rank_one(4.0, phi)
    ell = 3.0 * phi
    sol = forms.vf_solve(spec, ell)
    assert sol.inv_form == pytest.approx(9.0 / 4.0, rel=1e-12)
    xs, _ = gauss(0.0, grid.length, 512)
    assert np.max(np.abs(sol.u(xs) - 0.75 * phi(xs))) < 1e-12
    off = exponential(1.0, -3.0)
    with pytest.raises(forms.RangeError):
        forms.vf_solve(spec, off)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(alpha=st.floats(0.05, 20.0), lam=st.complex_numbers(max_magnitude=50.0),
       decay=st.floats(0.2, 5.0), k=st.integers(0, 3), turn=st.floats(-2.0, 2.0))
def test_rank_one_deviation_form_is_lambda_squared_over_alpha(alpha, lam, decay, k, turn):
    # lambda phi0 spans ran V_F, and ||V_F^{-1/2} lambda phi0||^2 = |lambda|^2 / alpha,
    # which the decide takes without the range test
    phi = AnalyticFunction((Term(1.0, float(k), complex(-decay, turn)),))
    problem = catalog.build_halfline_schrodinger(1j, catalog.RankOnePerturbation(alpha, phi, lam))
    val, diverged = forms.sqrt_scale_inv_form(problem.spec, problem.deviation())
    assert math.isfinite(val) and not diverged
    assert val == pytest.approx(abs(lam) ** 2 / alpha, rel=1e-9, abs=1e-300)


def test_sqrt_scale_halfline_exact():
    # x e^{-x} lies in the square-root range with value 5/4 even though the
    # operator-range solve rejects it (non-decaying solution)
    spec = forms.dirichlet_laplacian_halfline()
    ell = AnalyticFunction((Term(1.0, 1.0, -1.0),))
    val, diverged = forms.sqrt_scale_inv_form(spec, ell)
    assert not diverged
    assert val == pytest.approx(1.25, abs=1e-10)


def test_support_violation_and_ratio_integral():
    grid = make_grid("halfline")
    from dissipext.analytic import indicator

    v = indicator(0.0, 1.0)
    k_in = 1.9 * indicator(0.0, 1.0)
    k_out = indicator(2.0, 3.0)
    end = grid.right_endpoint
    assert forms.mult_inverse_norm_sq(v, k_in, end) == pytest.approx(1.9**2, abs=1e-12)
    with pytest.raises(forms.RangeError):
        forms.mult_inverse_norm_sq(v, k_out, end)


# ---------------------------------------------------------------------------
# projection


def test_projection_affine_data(interval, spec_interval, gauss):
    rho = 0.5 + 0.375j
    v = AnalyticFunction((Term(rho, 1.0),))
    p = forms.projection_P(spec_interval, v)
    xs, _ = gauss(0.0, interval.length, 512)
    assert np.max(np.abs(p(xs) - v(xs))) < 1e-12


def test_projection_idempotent_and_complementary(interval, spec_interval, gauss):
    v = AnalyticFunction((Term(1.0, 2.0), Term(0.5j, 1.0), Term(0.25, 0.0)))
    p = forms.projection_P(spec_interval, v)
    pp = forms.projection_P(spec_interval, p)
    xs, ws = gauss(0.0, interval.length, 512)
    assert math.sqrt(
        float(np.sum(ws * np.abs(pp(xs) - p(xs)) ** 2))
    ) < 1e-10
    rest = v - p
    assert abs(rest.value_at(0.0)) < 1e-8 and abs(rest.value_at(1.0)) < 1e-8


def test_projection_trivial_kernel(konzert_weight, gauss):
    v = power(1.0, 1.25)
    p = forms.projection_P(konzert_weight, v)
    assert np.max(np.abs(p(gauss(1e-6, 1.0, 512)[0]))) == 0.0


def test_projection_requires_strict_positivity():
    spec = forms.dirichlet_laplacian_halfline()
    with pytest.raises(forms.FormsError):
        forms.projection_P(spec, exponential(1.0, -1.0))


# ---------------------------------------------------------------------------
# the two square-root forms on finite spans


def _form_matrices(spec, basis):
    """``F[i, j] = friedrichs_form(b_i, b_j)`` and ``K[i, j] = krein_form(b_i,
    b_j)`` on a span."""
    m = len(basis)
    fmat = np.empty((m, m), dtype=complex)
    kmat = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            fmat[i, j] = forms.friedrichs_form(spec, basis[i], basis[j])
            kmat[i, j] = forms.krein_form(spec, basis[i], basis[j])
    return fmat, kmat


def _sine_basis(grid, m):
    out = []
    for k in range(1, m + 1):
        mu = 1j * math.pi * k / grid.length
        fn = AnalyticFunction((Term(-0.5j, 0.0, mu), Term(0.5j, 0.0, -mu)))
        out.append(fn)
    return out


def test_friedrichs_equals_krein_form_on_sines(interval, spec_interval):
    # sines vanish at both ends, so they lie in the large form domain where
    # the two square-root forms agree
    fmat, kmat = _form_matrices(spec_interval, _sine_basis(interval, 8))
    assert np.max(np.abs(fmat - kmat)) <= 1e-12 * np.max(np.abs(fmat))


def _scenario_draws(rng):
    """One seeded problem of every scenario, both Schroedinger perturbations."""
    rho = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    yield catalog.build_potsdam(None, rho, None)
    yield catalog.build_shirley(rng.uniform(math.sqrt(3.0), 3.0), rho, None)
    yield catalog.build_konzert(rng.uniform(0.05, 0.45), None)
    decay = rng.uniform(0.5, 2.0)
    phi = exponential(math.sqrt(2.0 * decay), -decay)  # unit norm
    rank_one = catalog.RankOnePerturbation(rng.uniform(0.5, 2.0), phi, 1.0)
    yield catalog.build_halfline_schrodinger(1j, rank_one)
    v = rng.uniform(0.5, 2.0) * indicator(0.0, rng.uniform(0.5, 2.0))
    yield catalog.build_halfline_schrodinger(1j, catalog.MultiplicationPerturbation(v, v))


def _friedrichs_span(grid, rng, dim=5):
    """Seeded functions vanishing at 0 (and at b): ``x^k e^{r x}`` on the
    half-line, ``x sin(k pi x / b) e^{r x}`` on intervals."""
    out = []
    for k in range(1, dim + 1):
        if grid.is_halfline:
            rate = complex(-rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0))
            fn = AnalyticFunction((Term(1.0, k, rate),))
        else:
            rate = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            mu = 1j * math.pi * k / grid.length
            fn = AnalyticFunction((Term(-0.5j, 1.0, rate + mu), Term(0.5j, 1.0, rate - mu)))
        out.append(fn)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_friedrichs_minus_krein_is_psd_on_every_scenario(seed):
    # V_K <= V_F as forms: F - K is positive semidefinite on every span, so
    # the isometry factor of V_K^{1/2} = U V_F^{1/2} contracts
    rng = np.random.default_rng(seed)
    for problem in _scenario_draws(rng):
        fmat, kmat = _form_matrices(problem.spec, _friedrichs_span(problem.grid, rng))
        diff = fmat - kmat
        low = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))[0]
        assert low >= -1e-12 * np.max(np.abs(fmat)), (problem.scenario, low)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e6, allow_nan=False,
                            allow_infinity=False),
       b=st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False))
def test_krein_form_on_nonzero_traces(a, b):
    # V_K < V_F where it is strict: the affine functions, harmonic for the
    # interval Laplacian, are the kernel of the Krein form, while f(0) = a
    # != 0 puts them outside the Friedrichs form domain.  Adding x^2 - x,
    # which has zero traces, gives its Friedrichs value, 1/3
    # (test_friedrichs_interval_quadratic)
    spec = forms.dirichlet_laplacian_interval()
    affine = AnalyticFunction((Term(a), Term(b, 1.0)))
    scale = abs(a) ** 2 + abs(b) ** 2
    assert abs(forms.krein_form_sq(spec, affine)) <= 1e-14 * scale
    with pytest.raises(forms.DomainError):
        forms.friedrichs_form_sq(spec, affine)
    bubble = AnalyticFunction((Term(1.0, 2.0), Term(-1.0, 1.0)))
    assert forms.krein_form_sq(spec, affine + bubble) == pytest.approx(1 / 3, abs=1e-14 * (1.0 + scale))


def test_friedrichs_equals_krein_form_on_multiplication(konzert_weight):
    # the multiplication operator is essentially selfadjoint: both
    # extensions coincide, and so do their forms
    basis = [AnalyticFunction((Term(1.0, float(k)),)) for k in (1, 2, 3)]
    fmat, kmat = _form_matrices(konzert_weight, basis)
    assert np.max(np.abs(fmat - kmat)) <= 1e-12 * np.max(np.abs(fmat))
