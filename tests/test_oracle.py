import dataclasses
import math

import numpy as np
import pytest

from dissipext import catalog, criteria, eigenh, oracle
from dissipext.analytic import AnalyticFunction, Term, constant, exponential, indicator, norm_sq
from reference.dense import pencil_eigh
from reference.margins import semibound_estimate
from test_splines import cox_de_boor


def _konzert(c):
    return catalog.build_konzert(0.25, constant(c) if c else None)


# ---------------------------------------------------------------------------
# assembly structure


def _dense_core(lo, hi, n):
    """The oracle's ``n`` core splines sampled densely on its quadrature rule:
    uniform knots, two 8-point Gauss sub-panels per knot interval."""
    knots = np.linspace(lo, hi, n + 4)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(lo, hi, 2 * (n + 3) + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    xs = (mid[:, None] + half[:, None] * nodes).ravel()
    ws = (half[:, None] * weights).ravel()
    val = np.array([cox_de_boor(knots, k, xs) for k in range(n)])
    d1 = np.array([cox_de_boor(knots, k, xs, 1) for k in range(n)])
    return xs, ws, val, d1


def test_konzert_hermitian_block_is_multiplication_matrix():
    # the first-order action contributes a boundary-free symmetric part on
    # vanishing-trace elements, so the imaginary part reduces to the
    # weighted multiplication matrix
    prob = _konzert(1.0)
    op = oracle.assemble_discrete(prob, 64)
    h = oracle.hermitian_part(op)
    nb = op.v_index
    xs, ws, val, _ = _dense_core(prob.grid.offset, 1.0, 64)
    mult = (val * (ws * 0.25 / xs)) @ val.T
    assert np.max(np.abs(h[:nb, :nb] - mult)) < 1e-12


def test_shirley_hermitian_block_is_stiffness(shirley_instance):
    op = oracle.assemble_discrete(shirley_instance, 64)
    h = oracle.hermitian_part(op)
    nb = op.v_index
    _, ws, _, d1 = _dense_core(shirley_instance.grid.offset, 1.0, 64)
    stiff = (d1 * ws) @ d1.T
    assert np.max(np.abs(h[:nb, :nb] - stiff)) < 1e-10 * np.max(np.abs(stiff))


def test_hermitian_part_exact():
    op = oracle.assemble_discrete(_konzert(1.2), 64)
    h = oracle.hermitian_part(op)
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_gram_positive_definite():
    op = oracle.assemble_discrete(_konzert(0.0), 64)
    w = np.linalg.eigvalsh(op.gram)
    assert float(w.min()) > 0.0


def _gauss(f, breaks, panels=512):
    """Composite 8-point Gauss-Legendre integral of ``f`` over each piece
    between consecutive ``breaks``."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    total = 0.0j
    for lo, hi in zip(breaks, breaks[1:]):
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[1:] + edges[:-1])
        xs = (mid[:, None] + half[:, None] * nodes).ravel()
        total += np.sum((half[:, None] * weights).ravel() * f(xs))
    return complex(total)


def _vv_reference(prob, c2, c1, m, lv, breaks):
    """``<v, (c2 v'' + c1 v' + m v + Lv)>`` by quadrature, the second-order
    part integrated by parts: ``<v, v''> = [conj(v) v'] - ||v'||^2``."""
    v = prob.v
    dv = v.derivative()
    hi = breaks[-1]
    edge = np.conj(v.value_at(hi)) * dv.value_at(hi) - np.conj(v.value_at_zero()) * dv.value_at_zero()
    total = c2 * (edge - _gauss(lambda x: np.abs(dv(x)) ** 2, breaks))
    return total + _gauss(lambda x: np.conj(v(x)) * (c1 * dv(x) + m(x) * v(x) + lv(x)), breaks)


@pytest.mark.parametrize("builder,kwargs", [
    ("konzert", {}),
    ("shirley", {}),
    ("potsdam", {}),
    ("schrodinger_rank1", {}),
    ("schrodinger_mult", {}),
])
def test_v_column_matches_criteria_lhs(builder, kwargs, shirley_instance, rank_one_direction):
    # each scenario's action, deviation and bounded part stated here again,
    # integrated on the test's own quadrature
    sq2, gamma = math.sqrt(2.0), math.sqrt(3.0)
    zero = lambda x: 0.0 * x
    halfline = [0.0, 1.0, 40.0]
    cases = {
        "konzert": (_konzert(1.2), 0.0, 1j, lambda x: 0.25j / x, lambda x: 1.2 + zero(x), [0.0, 1.0]),
        "shirley": (shirley_instance, -1j, 0.0, lambda x: -gamma / x**2, lambda x: -2.0 + zero(x),
                    [0.0, 1.0]),
        "potsdam": (
            catalog.build_potsdam(
                exponential(0.5, -1.0), -1.2 + 0j, AnalyticFunction((Term(1j, 1.0, -1.0),))
            ),
            -1j, 0.0, lambda x: 0.5 * np.exp(-x), lambda x: -1j * (x - 2.0) * np.exp(-x), halfline,
        ),
        "schrodinger_rank1": (
            catalog.build_halfline_schrodinger(
                1j, catalog.RankOnePerturbation(1.0, rank_one_direction, 2.4)
            ),
            -1.0, 0.0, zero, lambda x: 2.4 * sq2 * np.exp(-x), halfline,
        ),
        "schrodinger_mult": (
            catalog.build_halfline_schrodinger(
                1 + 1j,
                catalog.MultiplicationPerturbation(indicator(0.0, 1.0), 2.2 * indicator(0.0, 1.0)),
            ),
            -1.0, 0.0, zero, lambda x: np.where(x < 1.0, 2.2, 0.0), halfline,
        ),
    }
    prob, c2, c1, m, lv, breaks = cases[builder]
    ref = _vv_reference(prob, c2, c1, m, lv, breaks)
    v = prob.v
    if builder == "schrodinger_rank1":  # i alpha |<phi, v>|^2 with alpha = 1
        ref += 1j * abs(_gauss(lambda x: sq2 * np.exp(-x) * v(x), breaks)) ** 2
    if builder == "schrodinger_mult":  # i int_0^1 |v|^2
        ref += 1j * _gauss(lambda x: np.abs(v(x)) ** 2, [0.0, 1.0])
    op = oracle.assemble_discrete(prob, 128)
    assert abs(op.matrix[op.v_index, op.v_index] - ref) < 1e-8
    assert abs(criteria.general_lhs(prob) - ref.imag) < 1e-8


@pytest.mark.parametrize("scenario", ["shirley", "konzert", "potsdam", "rank_one", "multiplication"])
def test_assembly_independent_of_sample_grid(scenario, phi_x2_minus_x, phi_ix_exp,
                                             rank_one_direction):
    # every entry and the half-line core span's right edge come from term
    # sums, so [grid] n changes no bit of the operator
    def build(n):
        if scenario == "shirley":
            return catalog.build_shirley(math.sqrt(3.0), 0.5 + 0.375j, phi_x2_minus_x, n=n)
        if scenario == "konzert":
            return catalog.build_konzert(0.25, constant(1.2), n=n)
        if scenario == "potsdam":
            return catalog.build_potsdam(exponential(0.5, -1.0), 1.0 + 0j, phi_ix_exp, n=n)
        if scenario == "rank_one":
            pert = catalog.RankOnePerturbation(1.0, rank_one_direction, 2.0)
        else:
            pert = catalog.MultiplicationPerturbation(indicator(0.0, 1.0), 2.0 * indicator(0.0, 1.0))
        return catalog.build_halfline_schrodinger(1 + 1j, pert, n=n)

    coarse, fine = (oracle.assemble_discrete(build(n), 64) for n in (64, 512))
    assert np.array_equal(coarse.matrix, fine.matrix)
    assert np.array_equal(coarse.gram, fine.gram)


def test_assembly_needs_analytic_vector():
    # the oracle reads the term sum of every problem function; samples
    # cannot stand in for one
    prob = _konzert(1.0)
    assert isinstance(prob.v, AnalyticFunction) and isinstance(prob.lv, AnalyticFunction)
    sampled = dataclasses.replace(prob, v=prob.v(np.linspace(0.1, 1.0, 8)))
    with pytest.raises(TypeError):
        oracle.assemble_discrete(sampled, 64)


# ---------------------------------------------------------------------------
# pencil probe


def test_pencil_min_eig_examples():
    g = np.eye(2, dtype=complex)
    lam, _ = oracle.pencil_min_eig(g.copy(), g)
    assert lam == pytest.approx(1.0)
    lam, _ = oracle.pencil_min_eig(np.diag([-1.0, 2.0]).astype(complex), g)
    assert lam == pytest.approx(-1.0)


def test_pencil_min_eig_residual_contract():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    h = 0.5 * (a + a.conj().T)
    b = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    g = b @ b.conj().T + 50 * np.eye(50)
    lam, x = oracle.pencil_min_eig(h, g)
    ref = pencil_eigh(h, g)[0][0]
    assert lam == pytest.approx(ref, abs=1e-9 * max(1, abs(ref)))
    assert np.linalg.norm(h @ x - lam * (g @ x)) <= 1e-9 * np.linalg.norm(h, 2) * np.linalg.norm(x)


def _equivalence_problem(kind, rank_one_direction):
    if kind == "konzert":
        return _konzert(1.2)
    if kind == "shirley":
        return catalog.build_shirley(math.sqrt(3.0), 0.5 + 0.375j,
                                     AnalyticFunction((Term(1.0, 2.0), Term(-1.0, 1.0))))
    if kind == "potsdam":
        return catalog.build_potsdam(exponential(0.5, -1.0), 1.0 + 0j,
                                     AnalyticFunction((Term(1j, 1.0, -1.0),)))
    if kind.startswith("rank_one"):
        pert = catalog.RankOnePerturbation(1.0, rank_one_direction, 3.0)
        return catalog.build_halfline_schrodinger(1 + 0.5j, pert)
    pert = catalog.MultiplicationPerturbation(indicator(0.0, 1.0), 3.0 * indicator(0.0, 1.0))
    return catalog.build_halfline_schrodinger(1 + 0.2j, pert)


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("kind", ["konzert", "shirley", "potsdam", "rank_one", "multiplication",
                                  "rank_one_symmetric_part"])
def test_band_solver_matches_dense_spectrum(kind, n, rank_one_direction):
    # the band-plus-border solver against the dense full-spectrum reference
    prob = _equivalence_problem(kind, rank_one_direction)
    op = oracle.assemble_discrete(prob, n, include_bounded_v=kind != "rank_one_symmetric_part")
    assert (op.structure.rank_one is not None) == (kind == "rank_one")
    h = oracle.hermitian_part(op)
    mu, _ = oracle.pencil_min_eig(h, op.gram, op.structure)
    w, _ = pencil_eigh(h, op.gram)
    assert abs(mu - w[0]) <= 1e-10 * abs(w[0])


@pytest.mark.parametrize("kind", ["konzert", "potsdam", "rank_one"])
def test_each_pencil_factors_its_gram_once(kind, rank_one_direction, monkeypatch):
    # the assembly's Gram check keeps its L D L^H factor for the pencil solver
    calls = []
    ldl = eigenh._ldl

    def recording(band, rows, corner, cap=None):
        if rows:  # a whole matrix, not the corner of one
            calls.append([col[0] for col in band])
        return ldl(band, rows, corner, cap)

    monkeypatch.setattr(eigenh, "_ldl", recording)
    prob = _equivalence_problem(kind, rank_one_direction)
    for n in (16, 32):
        calls.clear()
        op = oracle.assemble_discrete(prob, n)
        oracle.pencil_min_eig(oracle.hermitian_part(op), op.gram, op.structure)
        gram_diagonal = op.gram.diagonal()[:-1].tolist()
        assert len(calls) > 2
        assert sum(diag == gram_diagonal for diag in calls) == 1


def test_pencil_min_eig_rejects_bad_inputs():
    with pytest.raises(oracle.OracleError):
        oracle.pencil_min_eig(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(oracle.OracleError):
        oracle.pencil_min_eig(np.eye(2), np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# mesh studies


def test_variational_monotonicity_nested_meshes():
    # dyadically nested knot refinements can only lower the infimum
    prob = _konzert(1.2)
    mus = []
    n0 = 61  # m = 64 knot intervals; next level doubles them
    for n in (n0, 2 * (n0 + 3) - 3, 4 * (n0 + 3) - 3):
        op = oracle.assemble_discrete(prob, n)
        mu, _ = oracle.pencil_min_eig(oracle.hermitian_part(op), op.gram, op.structure)
        mus.append(mu)
    assert mus[1] <= mus[0] + 1e-10
    assert mus[2] <= mus[1] + 1e-10


def test_cross_validate_konzert_nondissipative():
    # analytic margin -0.22: the discrete infimum is decisively negative
    prob = _konzert(1.2)
    verdict = criteria.decide(prob)
    report = oracle.cross_validate(prob, verdict)
    assert all(mu < -1e-3 for mu in report.infima[1:])
    assert report.agree is True
    assert not report.resolution_limited


def test_cross_validate_shirley_dissipative(shirley_instance):
    verdict = criteria.decide(shirley_instance)
    report = oracle.cross_validate(shirley_instance, verdict)
    assert all(mu >= -1e-6 for mu in report.infima)
    assert report.agree is True


def test_cross_validate_proper_selfadjoint_boundaries():
    # zero deviation with a symmetric-plus-positive action stays non-negative
    k0 = _konzert(0.0)
    rep = oracle.cross_validate(k0, criteria.decide(k0))
    assert all(mu >= -1e-6 for mu in rep.infima)
    pinf = catalog.build_potsdam(None, catalog.RHO_INF, None)
    repp = oracle.cross_validate(pinf, criteria.decide(pinf))
    assert all(mu >= -1e-6 for mu in repp.infima)
    assert repp.agree is True


def test_cross_validate_resolution_limited_flag():
    prob = _konzert(1.0)  # margin exactly 0
    verdict = criteria.decide(prob)
    report = oracle.cross_validate(prob, verdict, meshes=(64, 128))
    assert report.resolution_limited is True


def test_cross_validate_requires_increasing_meshes():
    prob = _konzert(1.0)
    with pytest.raises(oracle.OracleError):
        oracle.cross_validate(prob, criteria.decide(prob), meshes=(128, 64))


def test_report_records_asymmetry_note():
    prob = _konzert(1.2)
    report = oracle.cross_validate(prob, criteria.decide(prob), meshes=(64, 128))
    assert "certifies non-dissipativity" in report.note
    assert "evidence" in report.note


def test_semibound_oracle_bound(rank_one_direction):
    # discrete infimum of the deviated symmetric part alone respects the
    # lower bound -||L||^2 / (4 eps)
    rng = np.random.default_rng(3)
    for _ in range(5):
        h = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
        lam = complex(rng.normal(), rng.normal())
        prob = catalog.build_halfline_schrodinger(
            h, catalog.RankOnePerturbation(1.0, rank_one_direction, lam)
        )
        op = oracle.assemble_discrete(prob, 128, include_bounded_v=False)
        mu, _ = oracle.pencil_min_eig(oracle.hermitian_part(op), op.gram, op.structure)
        norm_v_sq = norm_sq(prob.v, 0.0, math.inf)
        eps = h.imag / norm_v_sq
        l_norm = math.sqrt(abs(lam) ** 2 / norm_v_sq)
        bound = semibound_estimate(eps, l_norm)
        assert mu >= bound - 1e-6
