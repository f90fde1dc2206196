import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from dissipext import catalog, criteria, oracle
from dissipext.analytic import AnalyticFunction, Term, constant, exponential, indicator
from dissipext.catalog import RHO_INF
from reference.dense import pencil_eigh
from reference.dual_pair import DenseOperator, assemble_core_pair, split_dual_pair
from reference.margins import reference_dissipative, reference_margin, shirley_margin_exact


# ---------------------------------------------------------------------------
# half-line scenario (second order)


def test_potsdam_trace_normalization():
    p = catalog.build_potsdam(None, 0.7 + 0.2j, None)
    assert p.v.value_at(0.0) == pytest.approx(1.0, abs=1e-12)
    assert p.v.derivative().value_at(0.0) == pytest.approx(0.7 + 0.2j, abs=1e-12)
    pinf = catalog.build_potsdam(None, RHO_INF, None)
    assert pinf.v.value_at(0.0) == pytest.approx(0.0, abs=1e-12)
    assert pinf.v.derivative().value_at(0.0) == pytest.approx(1.0, abs=1e-12)


def test_potsdam_defect_system_determinant():
    # the trace-normalization system on the decaying kernel pair is uniquely
    # solvable; its determinant is i*sqrt(2)
    mu_p = -(1 + 1j) / math.sqrt(2)
    mu_m = -(1 - 1j) / math.sqrt(2)
    assert abs((mu_m - mu_p) - 1j * math.sqrt(2)) < 1e-15


def test_potsdam_vector_solves_defect_equation(gauss):
    # the two decaying exponentials solve -f'' = -+ i f pointwise
    p = catalog.build_potsdam(None, 1.0 + 0j, None)
    x = gauss(0.0, p.grid.length, 512)[0][:64]
    for sign in (+1.0, -1.0):
        mu = -(1.0 + sign * 1j) / math.sqrt(2.0)
        f = AnalyticFunction((Term(1.0, 0.0, mu),))
        resid = (-1.0 * f.derivative().derivative() + (sign * 1j) * f)(x)
        assert np.max(np.abs(resid)) < 1e-12


def test_potsdam_reference_margins(phi_ix_exp):
    # ||phi'||^2 = 1/4 and Im phi'(0) = 1 for phi = i x e^-x
    p = catalog.build_potsdam(None, 0.0j, phi_ix_exp)
    assert reference_margin(p) == pytest.approx(15 / 16, abs=1e-13)
    pinf = catalog.build_potsdam(None, RHO_INF, phi_ix_exp)
    assert reference_margin(pinf) == pytest.approx(-1 / 16, abs=1e-13)
    assert reference_dissipative(pinf) is False
    pinf0 = catalog.build_potsdam(None, RHO_INF, None)
    assert reference_dissipative(pinf0) is True


def test_potsdam_rejects_bad_phi():
    with pytest.raises(catalog.CatalogError):
        catalog.build_potsdam(None, 1.0 + 0j, constant(1.0))  # phi(0) != 0
    with pytest.raises(catalog.CatalogError):
        catalog.build_potsdam(None, 1.0 + 0j, AnalyticFunction((Term(1.0, 1.0),)))  # no decay


def test_potsdam_rejects_complex_potential():
    with pytest.raises(catalog.CatalogError):
        catalog.build_potsdam(exponential(1j, -1.0), 1.0 + 0j, None)


def test_potsdam_w_free_margin(phi_ix_exp):
    with_w = catalog.build_potsdam(exponential(0.7, -0.5), -0.3 + 0j, phi_ix_exp)
    without = catalog.build_potsdam(None, -0.3 + 0j, phi_ix_exp)
    assert reference_margin(with_w) == pytest.approx(reference_margin(without), abs=1e-13)


# ---------------------------------------------------------------------------
# interval scenario with inverse-square potential


def test_shirley_vector_traces():
    for rho in (0.5 + 0.375j, 2.0 + 0j, -1.0 + 0.25j):
        s = catalog.build_shirley(math.sqrt(3.0), rho, None)
        dv = s.v.derivative()
        assert s.v.value_at(0.0) == 0.0 and dv.value_at(0.0) == 0.0
        assert s.v.value_at(1.0) == pytest.approx(rho, abs=1e-12)
        assert dv.value_at(1.0) == pytest.approx(1.0, abs=1e-12)
    sinf = catalog.build_shirley(2.0, RHO_INF, None)
    assert sinf.v.value_at(1.0) == pytest.approx(1.0, abs=1e-12)
    assert sinf.v.derivative().value_at(1.0) == pytest.approx(0.0, abs=1e-12)


def test_shirley_vector_action_consistency(gauss):
    # the principal exponent solves -i u'' - gamma u / x^2 = 0 pointwise on
    # the offset grid; the companion exponent is mapped into L^2 (maximal
    # domain membership), which is what the basis construction requires
    gamma = 2.0
    s = catalog.build_shirley(gamma, 1.0 + 1j, None)
    omega = (1.0 + cmath.sqrt(1.0 + 4.0j * gamma)) / 2.0
    x = gauss(s.grid.offset, s.grid.length, 512)[0]
    inv_sq = AnalyticFunction((Term(1.0, -2.0),))
    u = AnalyticFunction((Term(1.0, omega),))
    resid = (-1j * u.derivative().derivative() - gamma * (u * inv_sq))(x)
    scale = np.abs((-1j * u.derivative().derivative())(x))
    assert np.max(np.abs(resid) / (1.0 + scale)) < 1e-8
    comp = AnalyticFunction((Term(1.0, omega.conjugate() + 2.0),))
    image = -1j * comp.derivative().derivative() - gamma * (comp * inv_sq)
    norm_sq = (image.conj() * image).integral(0.0, 1.0).real
    assert math.isfinite(norm_sq) and norm_sq > 0.0


def test_shirley_gamma_validation():
    with pytest.raises(catalog.CatalogError):
        catalog.build_shirley(1.0, 1.0 + 0j, None)


def test_shirley_phi_must_vanish_at_both_ends():
    with pytest.raises(catalog.CatalogError):
        catalog.build_shirley(2.0, 1.0 + 0j, AnalyticFunction((Term(1.0, 1.0),)))


def test_shirley_margin_exact_rational():
    margin = shirley_margin_exact(
        Fraction(1, 2), Fraction(3, 8), (Fraction(0), Fraction(-1), Fraction(1))
    )
    assert margin == Fraction(35, 192)
    # threshold pieces reproduced exactly
    lhs = Fraction(1, 2) ** 2 + Fraction(3, 8) ** 2 - Fraction(1, 2)
    assert lhs == Fraction(-7, 64)


def test_shirley_reference_vs_criteria_100_draws(phi_x2_minus_x):
    rng = np.random.default_rng(11)
    for _ in range(100):
        gamma = math.sqrt(3.0) + 2.0 * rng.random()
        rho = complex(rng.normal(), rng.normal())
        scale = rng.normal()
        phi = AnalyticFunction((Term(scale, 2.0), Term(-scale, 1.0)))
        prob = catalog.build_shirley(gamma, rho, phi)
        v = criteria.verdict_strict_pos(prob)
        assert abs(v.margin - reference_margin(prob)) < 1e-8
        assert v.dissipative == reference_dissipative(prob)


# ---------------------------------------------------------------------------
# first-order interval scenario


def test_konzert_margins():
    k = catalog.build_konzert(0.25, constant(1.0))
    assert reference_margin(k) == pytest.approx(0.0, abs=1e-14)
    assert reference_dissipative(k) is True
    k2 = catalog.build_konzert(0.25, constant(1.05))
    assert reference_dissipative(k2) is False
    k0 = catalog.build_konzert(0.25, None)
    assert reference_margin(k0) == pytest.approx(0.5, abs=1e-14)
    assert k0.maximally_dissipative is True


def test_konzert_gamma_range():
    for gamma in (0.0, 0.5, 0.7, -0.2):
        with pytest.raises(catalog.CatalogError):
            catalog.build_konzert(gamma, None)


def test_konzert_reference_vs_criteria_100_draws():
    rng = np.random.default_rng(23)
    for _ in range(100):
        gamma = 0.05 + 0.4 * rng.random()
        c = complex(rng.normal(), rng.normal())
        prob = catalog.build_konzert(gamma, constant(c))
        v = criteria.verdict_unique_ext(prob)
        assert abs(v.margin - reference_margin(prob)) < 1e-8
        assert v.dissipative == reference_dissipative(prob)


def test_potsdam_reference_vs_criteria_100_draws():
    rng = np.random.default_rng(31)
    for _ in range(100):
        rho = complex(rng.normal(), rng.normal())
        s = complex(rng.normal(0, 0.7), rng.normal(0, 0.7))
        phi = AnalyticFunction((Term(s, 1.0, -1.0),)) if abs(s) > 0.05 else None
        prob = catalog.build_potsdam(None, rho, phi)
        v = criteria.verdict_ran_vf(prob)
        assert abs(v.margin - reference_margin(prob)) < 1e-8
        assert v.dissipative == reference_dissipative(prob)


def test_schrodinger_reference_vs_criteria_100_draws(rank_one_direction):
    rng = np.random.default_rng(47)
    vmult = indicator(0.0, 1.0)
    for i in range(100):
        h = complex(rng.normal(), rng.uniform(0.0, 2.0))
        if i % 2:
            lam = complex(rng.normal(), rng.normal())
            pert = catalog.RankOnePerturbation(float(rng.uniform(0.3, 2.0)), rank_one_direction, lam)
        else:
            k = float(rng.uniform(0, 3)) * indicator(0.0, 1.0)
            pert = catalog.MultiplicationPerturbation(vmult, k)
        prob = catalog.build_halfline_schrodinger(h, pert)
        v = criteria.verdict_bounded_v(prob)
        assert abs(v.margin - reference_margin(prob)) < 1e-8
        assert v.dissipative == reference_dissipative(prob)


# ---------------------------------------------------------------------------
# bounded-imaginary-part scenario


def test_schrodinger_boundary_vector(rank_one_direction):
    q = catalog.build_halfline_schrodinger(
        0.5 + 2.0j, catalog.RankOnePerturbation(1.0, rank_one_direction, 0.0)
    )
    assert q.v.value_at(0.0) == pytest.approx(1.0, abs=1e-12)
    assert q.v.derivative().value_at(0.0) == pytest.approx(0.5 + 2.0j, abs=1e-12)


def test_schrodinger_rank_one_margin(rank_one_direction):
    q = catalog.build_halfline_schrodinger(
        1j, catalog.RankOnePerturbation(1.0, rank_one_direction, 2.0)
    )
    assert reference_margin(q) == pytest.approx(0.0, abs=1e-14)


def test_schrodinger_multiplication_margin():
    v = indicator(0.0, 1.0)
    k = 1.5 * indicator(0.0, 1.0)
    q = catalog.build_halfline_schrodinger(1 + 1j, catalog.MultiplicationPerturbation(v, k))
    assert reference_margin(q) == pytest.approx(1.0 - 1.5**2 / 4.0, abs=1e-13)


def test_schrodinger_rejects_lower_halfplane(rank_one_direction):
    with pytest.raises(catalog.CatalogError):
        catalog.build_halfline_schrodinger(
            1 - 1j, catalog.RankOnePerturbation(1.0, rank_one_direction, 0.5)
        )


@pytest.mark.parametrize("h", [1j, 0.3 + 0.7j, 2 + 0.01j, RHO_INF])
def test_rank_one_direction_is_normalized(rank_one_direction, h):
    # the builder normalizes phi, so a scaled direction decides alike, to the bit
    def margin(phi):
        pert = catalog.RankOnePerturbation(0.8, phi, 0.5)
        return criteria.decide(catalog.build_halfline_schrodinger(h, pert)).margin

    assert margin(2.0 * rank_one_direction) == margin(rank_one_direction)
    # a norm within 1e-10 of 1 whose square is not: normalized like any other
    # (the builder skipped it, and the spec then refused it)
    assert margin((1.0 + 0.75e-10) * rank_one_direction) == pytest.approx(
        margin(rank_one_direction), rel=1e-12)
    with pytest.raises(catalog.CatalogError, match="finite non-zero norm"):
        margin(0.0 * rank_one_direction)


def test_schrodinger_h_inf_only_zero_deviation(rank_one_direction):
    qz = catalog.build_halfline_schrodinger(
        RHO_INF, catalog.RankOnePerturbation(1.0, rank_one_direction, 0.0)
    )
    assert reference_dissipative(qz) is True
    qnz = catalog.build_halfline_schrodinger(
        RHO_INF, catalog.RankOnePerturbation(1.0, rank_one_direction, 0.5)
    )
    assert reference_dissipative(qnz) is False


def test_replaced_multiplication_deviation_decides_as_a_fresh_build():
    # Lv is the perturbation's k, stored once: a replaced k is the deviation
    v = indicator(0.0, 1.0)
    built = catalog.build_halfline_schrodinger(
        1 + 1j, catalog.MultiplicationPerturbation(v, 2.0 * indicator(0.0, 1.0)))
    k = 1.0 * indicator(0.0, 1.0)
    replaced = dataclasses.replace(built, perturbation=dataclasses.replace(built.perturbation, k=k))
    fresh = catalog.build_halfline_schrodinger(1 + 1j, catalog.MultiplicationPerturbation(v, k))
    assert criteria.decide(replaced) == criteria.decide(fresh)
    assert criteria.decide(fresh).margin == 0.75


def test_replaced_rank_one_deviation_is_what_the_oracle_assembles(rank_one_direction):
    # Lv is the perturbation's lambda phi, stored once: the oracle reads a
    # replaced lambda as a fresh build does
    built = catalog.build_halfline_schrodinger(
        1j, catalog.RankOnePerturbation(1.0, rank_one_direction, 2.0))
    replaced = dataclasses.replace(
        built, perturbation=dataclasses.replace(built.perturbation, lam=0.5 + 0.5j))
    fresh = catalog.build_halfline_schrodinger(
        1j, catalog.RankOnePerturbation(1.0, rank_one_direction, 0.5 + 0.5j))
    got, want = (oracle.assemble_discrete(p, 32) for p in (replaced, fresh))
    for name in ("h", "g"):
        for a, b in zip(getattr(got, name).parts, getattr(want, name).parts):
            assert np.array_equal(a, b), name
    assert got.rank_one[0] == want.rank_one[0]
    assert np.array_equal(got.rank_one[1], want.rank_one[1])
    reports = [oracle.cross_validate(p, criteria.decide(p), meshes=(16, 32, 64))
               for p in (replaced, fresh)]
    assert reports[0].infima == reports[1].infima


def _every_builder(rank_one_direction):
    yield catalog.build_potsdam(None, 1.0 + 0j, None)
    yield catalog.build_shirley(2.0, 1.0 + 0j, None)
    yield catalog.build_konzert(0.25, None)
    yield catalog.build_halfline_schrodinger(
        1j, catalog.RankOnePerturbation(1.0, rank_one_direction, 0.5))
    yield catalog.build_halfline_schrodinger(
        1j, catalog.MultiplicationPerturbation(indicator(0.0, 1.0), indicator(0.0, 1.0)))


def test_the_grid_is_the_specs_domain(rank_one_direction):
    assert "grid" not in {f.name for f in dataclasses.fields(catalog.ExtensionProblem)}
    for problem in _every_builder(rank_one_direction):
        assert problem.grid is problem.spec.domain, problem.scenario


# ---------------------------------------------------------------------------
# splitting a discrete dual pair


def test_split_dual_pair_symmetric_input():
    k = catalog.build_konzert(0.25, None)
    m_op, m_tilde = assemble_core_pair(k, 32)
    sym = DenseOperator(m_op.basis, 0.5 * (m_op.matrix + m_op.matrix.conj().T), m_op.gram)
    s, v = split_dual_pair(sym, sym)
    assert np.max(np.abs(v.matrix)) < 1e-12


def test_split_dual_pair_konzert():
    k = catalog.build_konzert(0.25, None)
    m_op, m_tilde = assemble_core_pair(k, 32)
    s, v = split_dual_pair(m_op, m_tilde)
    # the symmetric part is Hermitian there, the non-negative part is the
    # weighted multiplication matrix with positive pencil spectrum
    assert np.max(np.abs(s.matrix - s.matrix.conj().T)) < 1e-10
    w, _ = pencil_eigh(v.matrix, v.gram)
    assert float(np.min(w)) > 0.0


def test_split_dual_pair_rejects_non_dual():
    k = catalog.build_konzert(0.25, None)
    m_op, m_tilde = assemble_core_pair(k, 16)
    broken = DenseOperator(m_tilde.basis, m_tilde.matrix + 0.1, m_tilde.gram)
    with pytest.raises(catalog.CatalogError):
        split_dual_pair(m_op, broken)


def test_split_dual_pair_rejects_indefinite_imaginary_part():
    k = catalog.build_konzert(0.25, None)
    m_op, m_tilde = assemble_core_pair(k, 16)
    flipped = DenseOperator(m_op.basis, m_op.matrix.conj().T, m_op.gram)
    other = DenseOperator(m_op.basis, m_op.matrix, m_op.gram)
    with pytest.raises(catalog.CatalogError):
        split_dual_pair(flipped, other)


def test_singular_scenarios_require_offset_grids():
    with pytest.raises(catalog.CatalogError):
        catalog.build_shirley(2.0, 1.0 + 0j, None, offset=0.0)
    with pytest.raises(catalog.CatalogError):
        catalog.build_konzert(0.25, None, offset=0.0)
