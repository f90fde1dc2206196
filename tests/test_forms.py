import math

import numpy as np
import pytest

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
from dissipext.grid import GridFunction, Traces, make_grid


@pytest.fixture(scope="module")
def interval():
    return make_grid("interval", 512)


@pytest.fixture(scope="module")
def spec_interval():
    return forms.dirichlet_laplacian_interval()


@pytest.fixture(scope="module")
def konzert_weight():
    grid = make_grid("interval", 512, offset=1e-6)
    w = GridFunction.from_analytic(grid, power(0.25, -1.0))
    return forms.multiplication(w, strict_lower_bound=0.25)


def gf(grid, fn):
    return GridFunction.from_analytic(grid, fn)


# ---------------------------------------------------------------------------
# spec validation


def test_spec_family_flag_consistency(interval):
    with pytest.raises(forms.FormsError):
        forms.ImaginaryPartSpec("dirichlet_laplacian_interval", friedrichs_equals_krein=True)


def test_rank_one_needs_normalized_direction(interval):
    phi = gf(interval, constant(2.0))
    with pytest.raises(forms.FormsError):
        forms.rank_one(1.0, phi)


# ---------------------------------------------------------------------------
# square-root forms


def test_friedrichs_interval_quadratic(interval, spec_interval):
    f = gf(interval, AnalyticFunction((Term(1.0, 2.0), Term(-1.0, 1.0))))
    assert forms.friedrichs_form_sq(spec_interval, f) == pytest.approx(1 / 3, abs=1e-13)


def test_friedrichs_rejects_nonzero_trace(interval, spec_interval):
    f = gf(interval, monomial(1.0, 1))  # f(1) = 1
    with pytest.raises(forms.DomainError):
        forms.friedrichs_form_sq(spec_interval, f)


def test_multiplication_divergence_flagged(konzert_weight):
    one = gf(konzert_weight.weight.grid, constant(1.0))
    with pytest.raises(forms.DomainError):
        forms.friedrichs_form_sq(konzert_weight, one)


def test_rank_one_form(interval):
    # alpha=1, f = the direction itself: form value 1
    grid = make_grid("halfline", 512)
    phi = gf(grid, exponential(math.sqrt(2.0), -1.0))
    spec = forms.rank_one(1.0, phi)
    assert forms.friedrichs_form_sq(spec, phi) == pytest.approx(1.0, abs=1e-12)


def test_krein_interval_examples(interval, spec_interval):
    # affine functions are annihilated by the small extension's form
    assert forms.krein_form_sq(spec_interval, gf(interval, monomial(1.0, 1))) == pytest.approx(
        0.0, abs=1e-14
    )
    assert forms.krein_form_sq(spec_interval, gf(interval, monomial(1.0, 2))) == pytest.approx(
        4 / 3 - 1, abs=1e-13
    )


def test_krein_halfline_is_derivative_norm():
    grid = make_grid("halfline", 512)
    spec = forms.dirichlet_laplacian_halfline()
    mu = -(1.0 + 1.0j) / math.sqrt(2.0)
    zeta = AnalyticFunction((Term(1.0, 0.0, mu),))
    val = forms.krein_form_sq(spec, gf(grid, zeta))
    d = zeta.derivative()
    assert val == pytest.approx(float((d.conj() * d).integral(0, math.inf).real), abs=1e-12)


def test_krein_rejects_divergent_derivative(konzert_weight):
    bad = gf(konzert_weight.weight.grid, power(1.0, -0.25))
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
        f = gf(interval, AnalyticFunction(terms))  # random sine sum, zero traces
        fr = forms.friedrichs_form_sq(spec_interval, f)
        kr = forms.krein_form_sq(spec_interval, f)
        assert abs(kr - fr) <= 1e-8 * (1.0 + fr)


def test_krein_below_derivative_norm_with_traces(interval, spec_interval):
    f = gf(interval, AnalyticFunction((Term(1.0, 2.0), Term(0.3, 1.0))))
    kr = forms.krein_form_sq(spec_interval, f)
    d = f.analytic.derivative()
    dn = float((d.conj() * d).integral(0, 1).real)
    assert kr <= dn + 1e-12


# ---------------------------------------------------------------------------
# sup formula


def test_ando_nishio_kernel_direction(interval, spec_interval):
    h = gf(interval, monomial(1.0, 1))
    assert forms.krein_form_ando_nishio(spec_interval, h, 16) == pytest.approx(0.0, abs=1e-8)


def test_ando_nishio_two_percent(interval, spec_interval, konzert_weight):
    cases = [
        (spec_interval, interval, monomial(1.0, 2)),
        (spec_interval, interval, power(1.0, 1.25)),
        (konzert_weight, konzert_weight.weight.grid, monomial(1.0, 2)),
        (konzert_weight, konzert_weight.weight.grid, power(1.0, 1.25)),
    ]
    for spec, grid, fn in cases:
        h = gf(grid, fn)
        closed = forms.krein_form_sq(spec, h)
        an = forms.krein_form_ando_nishio(spec, h, 32)
        assert an <= closed + 1e-8
        assert abs(an - closed) <= 0.02 * closed


def test_ando_nishio_monotone(interval, spec_interval):
    h = gf(interval, monomial(1.0, 2))
    vals = [forms.krein_form_ando_nishio(spec_interval, h, m) for m in (4, 8, 16, 32)]
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
    specs = {"laplacian": (spec_interval, interval),
             "konzert": (konzert_weight, konzert_weight.weight.grid)}
    targets = {"x^2": monomial(1.0, 2), "x^1.25": power(1.0, 1.25)}
    for (spec_name, target), expected in pinned.items():
        spec, grid = specs[spec_name]
        h = gf(grid, targets[target])
        for dim, value in zip((4, 8, 16, 32), expected):
            assert forms.krein_form_ando_nishio(spec, h, dim) == pytest.approx(value, rel=1e-12)


def test_ando_nishio_rank_one(interval):
    grid = make_grid("halfline", 512)
    phi = gf(grid, exponential(math.sqrt(2.0), -1.0))
    spec = forms.rank_one(2.0, phi)
    h = gf(grid, exponential(1.0, -2.0))
    expected = 2.0 * abs(
        float((phi.analytic.conj() * h.analytic).integral(0, math.inf).real)
    ) ** 2
    assert forms.krein_form_ando_nishio(spec, h, 8) == pytest.approx(expected, rel=1e-10)


def test_ando_nishio_degenerate_gram():
    mat = np.zeros((3, 3), dtype=complex)
    spec = forms.bounded_matrix(mat)
    with pytest.raises(forms.DegenerateFormError):
        forms.krein_form_ando_nishio(spec, np.ones(3, dtype=complex), 3)


def test_ando_nishio_bounded_matrix():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    mat = a @ a.conj().T
    spec = forms.bounded_matrix(mat)
    h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    val = forms.krein_form_ando_nishio(spec, h, 5)
    assert val == pytest.approx(float(np.vdot(h, mat @ h).real), rel=1e-9)


# ---------------------------------------------------------------------------
# inverse solve


def test_vf_solve_multiplication_closed_form(konzert_weight):
    one = gf(konzert_weight.weight.grid, constant(1.0))
    sol = forms.vf_solve(konzert_weight, one)
    assert sol.inv_form == pytest.approx(2.0, abs=1e-12)


def test_vf_solve_interval_eigenfunction(interval, spec_interval):
    pi = math.pi
    ell = gf(
        interval,
        AnalyticFunction((Term(-0.5j * pi**2, 0.0, 1j * pi), Term(0.5j * pi**2, 0.0, -1j * pi))),
    )
    sol = forms.vf_solve(spec_interval, ell)
    assert sol.inv_form == pytest.approx(pi**2 / 2, rel=1e-12)
    assert np.max(np.abs(sol.u.values - np.sin(pi * interval.nodes))) < 1e-10


def test_vf_solve_zero(interval, spec_interval):
    sol = forms.vf_solve(spec_interval, gf(interval, AnalyticFunction(())))
    assert sol.inv_form == 0.0
    assert np.max(np.abs(sol.u.values)) == 0.0


def test_vf_solve_residual_invariant(interval, spec_interval):
    # -u'' reproduces ell with tiny relative residual (analytic route)
    ell = gf(interval, AnalyticFunction((Term(1.0, 3.0), Term(-0.5, 1.0), Term(2.0, 0.0))))
    sol = forms.vf_solve(spec_interval, ell)
    resid = -1.0 * sol.u.analytic.derivative().derivative() - ell.analytic
    rel = math.sqrt(
        float((resid.conj() * resid).integral(0, 1).real)
        / float((ell.analytic.conj() * ell.analytic).integral(0, 1).real)
    )
    assert rel < 1e-6
    t = sol.u.traces
    assert abs(t.value0) < 1e-13 and abs(t.value_b) < 1e-13


def test_vf_solve_green_fallback_matches(interval, spec_interval):
    # sampled right-hand side exercises the kernel quadrature route
    pi = math.pi
    ell = GridFunction.from_values(interval, pi**2 * np.sin(pi * interval.nodes))
    sol = forms.vf_solve(spec_interval, ell)
    assert sol.inv_form == pytest.approx(pi**2 / 2, rel=1e-4)


def test_vf_solve_halfline_nondecaying_rejected():
    grid = make_grid("halfline", 512)
    spec = forms.dirichlet_laplacian_halfline()
    ell = gf(grid, exponential(1.0, -1.0))  # int y ell dy = 1 != 0
    with pytest.raises(forms.RangeError):
        forms.vf_solve(spec, ell)


def test_vf_solve_rank_one_range(interval):
    grid = make_grid("halfline", 512)
    phi = gf(grid, exponential(math.sqrt(2.0), -1.0))
    spec = forms.rank_one(4.0, phi)
    ell = GridFunction(grid, 3.0 * phi.values, phi.traces, 3.0 * phi.analytic)
    sol = forms.vf_solve(spec, ell)
    assert sol.inv_form == pytest.approx(9.0 / 4.0, rel=1e-12)
    off = gf(grid, exponential(1.0, -3.0))
    with pytest.raises(forms.RangeError):
        forms.vf_solve(spec, off)


def test_sqrt_scale_halfline_exact():
    # x e^{-x} lies in the square-root range with value 5/4 even though the
    # operator-range solve rejects it (non-decaying solution)
    grid = make_grid("halfline", 512)
    spec = forms.dirichlet_laplacian_halfline()
    ell = gf(grid, AnalyticFunction((Term(1.0, 1.0, -1.0),)))
    val, diverged = forms.sqrt_scale_inv_form(spec, ell)
    assert not diverged
    assert val == pytest.approx(1.25, abs=1e-10)


def test_sqrt_scale_doubling_heuristic_flags_slow_decay():
    grid = make_grid("halfline", 2048, length=80.0)
    spec = forms.dirichlet_laplacian_halfline()
    vals = (1.0 + grid.nodes) ** -0.7
    ell = GridFunction.from_values(grid, vals)
    _, diverged = forms.sqrt_scale_inv_form(spec, ell)
    assert diverged


def test_support_violation_and_ratio_integral():
    grid = make_grid("halfline", 512)
    from dissipext.analytic import indicator

    v = gf(grid, indicator(0.0, 1.0))
    k_in = gf(grid, 1.9 * indicator(0.0, 1.0))
    k_out = gf(grid, indicator(2.0, 3.0))
    assert forms.mult_inverse_norm_sq(v, k_in) == pytest.approx(1.9**2, abs=1e-12)
    with pytest.raises(forms.RangeError):
        forms.mult_inverse_norm_sq(v, k_out)


# ---------------------------------------------------------------------------
# projection


def test_projection_affine_data(interval, spec_interval):
    rho = 0.5 + 0.375j
    v = GridFunction.from_analytic(interval, AnalyticFunction((Term(rho, 1.0),)))
    p = forms.projection_P(spec_interval, v)
    assert np.max(np.abs(p.values - v.values)) < 1e-12


def test_projection_idempotent_and_complementary(interval, spec_interval):
    v = gf(interval, AnalyticFunction((Term(1.0, 2.0), Term(0.5j, 1.0), Term(0.25, 0.0))))
    p = forms.projection_P(spec_interval, v)
    pp = forms.projection_P(spec_interval, p)
    assert math.sqrt(
        float(np.sum(interval.weights * np.abs(pp.values - p.values) ** 2))
    ) < 1e-10
    rest = GridFunction(
        interval,
        v.values - p.values,
        Traces(
            v.traces.value0 - p.traces.value0,
            v.traces.deriv0 - p.traces.deriv0,
            v.traces.value_b - p.traces.value_b,
            v.traces.deriv_b - p.traces.deriv_b,
        ),
    )
    assert abs(rest.traces.value0) < 1e-8 and abs(rest.traces.value_b) < 1e-8


def test_projection_trivial_kernel(konzert_weight):
    v = gf(konzert_weight.weight.grid, power(1.0, 1.25))
    p = forms.projection_P(konzert_weight, v)
    assert np.max(np.abs(p.values)) == 0.0


def test_projection_requires_strict_positivity():
    spec = forms.dirichlet_laplacian_halfline()
    grid = make_grid("halfline", 512)
    with pytest.raises(forms.FormsError):
        forms.projection_P(spec, gf(grid, exponential(1.0, -1.0)))


# ---------------------------------------------------------------------------
# discrete square-root pair


def _sine_basis(grid, m):
    out = []
    for k in range(1, m + 1):
        mu = 1j * math.pi * k / grid.length
        fn = AnalyticFunction((Term(-0.5j, 0.0, mu), Term(0.5j, 0.0, -mu)))
        out.append(GridFunction.from_analytic(grid, fn))
    return out


def test_discrete_sqrt_pair_equality_on_sines(interval, spec_interval):
    # sines vanish at both ends, so they lie in the large form domain where
    # the two square-root norms agree
    basis = _sine_basis(interval, 8)
    pair = forms.discrete_sqrt_pair(spec_interval, basis)
    rng = np.random.default_rng(2)
    for _ in range(10):
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        nf = np.linalg.norm(pair.sqrt_friedrichs @ y)
        nk = np.linalg.norm(pair.sqrt_krein @ y)
        assert abs(nk - nf) <= 1e-8 * (1.0 + nf)


def test_discrete_sqrt_pair_isometry_bound(interval, spec_interval, konzert_weight):
    pair = forms.discrete_sqrt_pair(spec_interval, _sine_basis(interval, 6))
    s = np.linalg.svd(pair.isometry, compute_uv=False)
    assert np.all(s <= 1.0 + 1e-8)
    assert np.max(np.abs(pair.sqrt_krein - pair.isometry @ pair.sqrt_friedrichs)) < 1e-8


def _scenario_draws(rng):
    """One seeded problem of every scenario, both Schroedinger perturbations."""
    halfline = make_grid("halfline", 512)
    rho = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    yield catalog.build_potsdam(None, rho, None)
    yield catalog.build_shirley(rng.uniform(math.sqrt(3.0), 3.0), rho, None)
    yield catalog.build_konzert(rng.uniform(0.05, 0.45), None)
    decay = rng.uniform(0.5, 2.0)
    phi = exponential(math.sqrt(2.0 * decay), -decay)  # unit norm
    rank_one = catalog.RankOnePerturbation(rng.uniform(0.5, 2.0), gf(halfline, phi), 1.0)
    yield catalog.build_halfline_schrodinger(1j, rank_one)
    v = gf(halfline, rng.uniform(0.5, 2.0) * indicator(0.0, rng.uniform(0.5, 2.0)))
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
        out.append(gf(grid, fn))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_discrete_isometry_factor_contracts_on_every_scenario(seed):
    # V_K <= V_F as forms, so V_F^{1/2} f -> V_K^{1/2} f is a contraction
    rng = np.random.default_rng(seed)
    for problem in _scenario_draws(rng):
        pair = forms.discrete_sqrt_pair(problem.spec, _friedrichs_span(problem.grid, rng))
        s = np.linalg.svd(pair.isometry, compute_uv=False)
        assert np.all(s <= 1.0 + 1e-8), (problem.scenario, s)


def test_discrete_sqrt_pair_identity_when_extensions_coincide(konzert_weight):
    grid = konzert_weight.weight.grid
    basis = [
        GridFunction.from_analytic(grid, AnalyticFunction((Term(1.0, float(k)),)))
        for k in (1, 2, 3)
    ]
    pair = forms.discrete_sqrt_pair(konzert_weight, basis)
    # the factor acts as the identity on the span's form range
    resid = pair.isometry @ pair.sqrt_friedrichs - pair.sqrt_friedrichs
    assert np.max(np.abs(resid)) < 1e-8


def test_discrete_sqrt_pair_rank_deficiency(interval, spec_interval):
    b = _sine_basis(interval, 3)
    with pytest.raises(forms.DegenerateFormError):
        forms.discrete_sqrt_pair(spec_interval, [b[0], b[1], b[0]])


def test_vf_solve_bounded_matrix_kernel_rejection():
    mat = np.diag([2.0, 1.0, 0.0]).astype(complex)
    spec = forms.bounded_matrix(mat)
    sol = forms.vf_solve(spec, np.array([2.0, 1.0, 0.0], dtype=complex))
    assert sol.inv_form == pytest.approx(2.0 + 1.0)
    with pytest.raises(forms.RangeError):
        forms.vf_solve(spec, np.array([0.0, 0.0, 1.0], dtype=complex))


def test_bounded_matrix_forms_and_projection():
    mat = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    spec = forms.bounded_matrix(mat)
    c = np.array([1.0, 1j])
    expect = float(np.vdot(c, mat @ c).real)
    assert forms.friedrichs_form_sq(spec, c) == pytest.approx(expect)
    assert forms.krein_form_sq(spec, c) == pytest.approx(expect)
