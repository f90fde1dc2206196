import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissipext import catalog, criteria, forms
from dissipext.analytic import AnalyticFunction, Term, constant, exponential, power
from dissipext.catalog import RHO_INF
from reference.margins import semibound_estimate


# ---------------------------------------------------------------------------
# deviation written through the large extension (half-line scenario)


def test_ran_vf_forces_zero_deviation_at_infinity(phi_ix_exp):
    p = catalog.build_potsdam(None, RHO_INF, phi_ix_exp)
    v = criteria.verdict_ran_vf(p)
    assert v.dissipative is False
    p0 = catalog.build_potsdam(None, RHO_INF, None)
    assert criteria.verdict_ran_vf(p0).dissipative is True


def test_ran_vf_threshold_with_deviation(phi_ix_exp):
    # ||phi'||^2 = 1/4 and Im phi'(0) = 1 shift the boundary to -15/16
    for re in (-15 / 16 + 0.25, -15 / 16, -15 / 16 - 0.25):
        p = catalog.build_potsdam(None, complex(re, 0.3), phi_ix_exp)
        v = criteria.verdict_ran_vf(p)
        assert v.margin == pytest.approx(re + 15 / 16, abs=1e-12)
        assert v.dissipative == (re >= -15 / 16 - 1e-12)


def test_ran_vf_zero_deviation_reduces_to_halfplane():
    for re in (0.0, 0.4, -0.3):
        p = catalog.build_potsdam(None, complex(re, -0.7), None)
        v = criteria.verdict_ran_vf(p)
        assert v.margin == pytest.approx(re, abs=1e-13)


def test_ran_vf_needs_phi():
    k = catalog.build_konzert(0.25, constant(1.0))
    with pytest.raises(criteria.CriteriaError):
        criteria.verdict_ran_vf(k)


# ---------------------------------------------------------------------------
# strictly positive imaginary part (interval scenario)


def test_strict_pos_concluding_instance(shirley_instance):
    v = criteria.verdict_strict_pos(shirley_instance)
    assert v.dissipative is True
    assert v.margin == pytest.approx(35 / 192, abs=1e-12)


def test_strict_pos_same_parameter_without_deviation():
    p = catalog.build_shirley(math.sqrt(3.0), 0.5 + 0.375j, None)
    v = criteria.verdict_strict_pos(p)
    assert v.dissipative is False
    assert v.margin == pytest.approx(-7 / 64, abs=1e-12)


def test_strict_pos_infinity_margin_one():
    p = catalog.build_shirley(2.0, RHO_INF, None)
    v = criteria.verdict_strict_pos(p)
    assert v.dissipative is True
    assert v.margin == pytest.approx(1.0, abs=1e-12)


def test_strict_pos_requires_positive_bound():
    p = catalog.build_potsdam(None, 1.0 + 0j, None)
    with pytest.raises(criteria.CriteriaError):
        criteria.verdict_strict_pos(p)


def test_rho_boundary_curve_exactness(phi_x2_minus_x):
    # sign change sits exactly on 1/12 - Im rho = |rho|^2 - Re rho
    rng = np.random.default_rng(4)
    for _ in range(20):
        re = rng.uniform(-0.4, 1.2)
        # solve im^2 + im - (re - re^2 + 1/12) = 0 for the boundary im
        disc = 1.0 + 4.0 * (re - re * re + 1 / 12)
        if disc < 0:
            continue
        im = (-1.0 + math.sqrt(disc)) / 2.0
        p = catalog.build_shirley(math.sqrt(3.0), complex(re, im), phi_x2_minus_x)
        v = criteria.verdict_strict_pos(p)
        assert abs(v.margin) < 1e-12


# ---------------------------------------------------------------------------
# coinciding extensions (first-order scenario)


def test_unique_ext_boundary_and_margins():
    k = catalog.build_konzert(0.25, constant(1.0))
    v = criteria.verdict_unique_ext(k)
    assert v.dissipative is True and abs(v.margin) < 1e-13
    k2 = catalog.build_konzert(0.25, constant(1.0))
    k2 = dataclasses.replace(k2, lv=constant(1.02))
    assert criteria.verdict_unique_ext(k2).dissipative is False
    k0 = catalog.build_konzert(0.25, None)
    v0 = criteria.verdict_unique_ext(k0)
    assert v0.dissipative is True and v0.margin == pytest.approx(0.5, abs=1e-13)


def test_unique_ext_scaling_monotone():
    # shrinking the deviation can only help: rhs scales quadratically
    rng = np.random.default_rng(9)
    base = catalog.build_konzert(0.3, constant(1.1))
    for _ in range(100):
        t1, t2 = sorted(rng.uniform(0.0, 1.0, size=2))
        p1 = catalog.build_konzert(0.3, constant(1.1 * t1))
        p2 = catalog.build_konzert(0.3, constant(1.1 * t2))
        m1 = criteria.verdict_unique_ext(p1).margin
        m2 = criteria.verdict_unique_ext(p2).margin
        assert m1 >= m2 - 1e-12
        if criteria.verdict_unique_ext(p2).dissipative:
            assert criteria.verdict_unique_ext(p1).dissipative


def test_unique_ext_deviation_never_beats_proper_extension():
    # structural consequence of coinciding extensions: the margin with a
    # deviation is at most the zero-deviation margin, so a failing proper
    # extension rules out every deviation on the same domain
    rng = np.random.default_rng(14)
    base = catalog.build_konzert(0.25, None)
    m0 = criteria.verdict_unique_ext(base).margin
    for _ in range(15):
        c = complex(rng.normal(), rng.normal())
        prob = catalog.build_konzert(0.25, constant(c))
        v = criteria.verdict_unique_ext(prob)
        assert v.margin <= m0 + 1e-12
        assert v.rhs >= forms.krein_form_sq(prob.spec, prob.v) - 1e-12
        if not criteria.Verdict.from_sides("unique_ext_5_8", m0, 0.0).dissipative:
            assert v.dissipative is False


def test_unique_ext_requires_coinciding_extensions(shirley_instance):
    with pytest.raises(criteria.CriteriaError):
        criteria.verdict_unique_ext(shirley_instance)


# ---------------------------------------------------------------------------
# bounded imaginary part


def test_bounded_v_rank_one_boundary(rank_one_direction):
    for lam, expect in ((2.0, True), (2.1, False)):
        q = catalog.build_halfline_schrodinger(
            1j, catalog.RankOnePerturbation(1.0, rank_one_direction, lam)
        )
        v = criteria.verdict_bounded_v(q)
        assert v.dissipative is expect
        assert v.lhs == pytest.approx(1.0, abs=1e-12)


def test_bounded_v_symmetric_condition_rejects_all(rank_one_direction):
    # real boundary parameter: only the zero deviation survives
    for lam in (0.5, 1e-3, 2.0):
        q = catalog.build_halfline_schrodinger(
            1.0 + 0j, catalog.RankOnePerturbation(1.0, rank_one_direction, lam)
        )
        assert criteria.verdict_bounded_v(q).dissipative is False
    q0 = catalog.build_halfline_schrodinger(
        1.0 + 0j, catalog.RankOnePerturbation(1.0, rank_one_direction, 0.0)
    )
    assert criteria.verdict_bounded_v(q0).dissipative is True


def test_bounded_v_support_violation_raises():
    from dissipext.analytic import indicator

    v = indicator(0.0, 1.0)
    k = indicator(2.0, 3.0)
    q = catalog.build_halfline_schrodinger(1j, catalog.MultiplicationPerturbation(v, k))
    with pytest.raises(criteria.SupportViolationError):
        criteria.verdict_bounded_v(q)


def test_bounded_v_multiplication_flip():
    from dissipext.analytic import indicator

    v = indicator(0.0, 1.0)
    for c, expect in ((2.0 - 1e-8, True), (2.0 + 1e-8, False)):
        k = c * indicator(0.0, 1.0)
        q = catalog.build_halfline_schrodinger(
            1 + 1j, catalog.MultiplicationPerturbation(v, k)
        )
        assert criteria.verdict_bounded_v(q).dissipative is expect


# ---------------------------------------------------------------------------
# master criterion through the discrete pair


def test_general_matches_specialized_on_strict_pos(shirley_instance):
    vg = criteria.verdict_general(shirley_instance, basis_dim=24)
    vs = criteria.verdict_strict_pos(shirley_instance)
    assert vg.margin == pytest.approx(vs.margin, rel=1e-9)
    assert vg.dissipative == vs.dissipative


def _general_draws(phi_x2_minus_x):
    rng = np.random.default_rng(17)
    for _ in range(12):
        rho = complex(rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.0))
        yield catalog.build_shirley(math.sqrt(3.0), rho, phi_x2_minus_x)
    for _ in range(6):
        rho = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
        s = rng.uniform(0.2, 1.5)
        yield catalog.build_potsdam(None, rho, exponential(1j * s, -1.0) * power(1.0, 1.0))
        ell = constant(complex(rng.normal(0, 0.8), rng.normal(0, 0.8)))
        yield catalog.build_konzert(rng.uniform(0.08, 0.45), ell)
    # draws on which a 24-function span projection of the cross term gave
    # the wrong sign (margins 0.0973 and 0.0023)
    phi = exponential(1.294272j, -1.0) * power(1.0, 1.0)
    yield catalog.build_potsdam(None, -1.092241 + 0.378073j, phi)
    yield catalog.build_konzert(0.354716, constant(0.773324 - 0.902369j))


def test_general_sign_agreement_on_draws(phi_x2_minus_x):
    checked = 0
    for p in _general_draws(phi_x2_minus_x):
        ref = criteria.decide(p)
        vg = criteria.verdict_general(p, basis_dim=24)
        assert vg.margin == pytest.approx(ref.margin, rel=1e-9)
        if abs(ref.margin) <= 1e-3:
            continue
        assert vg.dissipative == ref.dissipative
        checked += 1
    assert checked >= 20


def test_general_zero_deviation_boundary_case():
    k0 = catalog.build_konzert(0.25, None)
    v = criteria.verdict_general(k0)
    # margin equals the action form minus the small form: exactly 1/2 here
    assert v.margin == pytest.approx(0.5, abs=1e-13)
    assert v.dissipative is True


def test_general_agrees_with_bounded_v(rank_one_direction):
    q = catalog.build_halfline_schrodinger(
        1j, catalog.RankOnePerturbation(1.0, rank_one_direction, 2.1)
    )
    vg = criteria.verdict_general(q, basis_dim=16)
    vb = criteria.verdict_bounded_v(q)
    assert abs(vg.margin - vb.margin) < 1e-8
    assert vg.dissipative == vb.dissipative


def test_general_multi_term_multiplier():
    # V = (1 + x) e^-x has no one-term inverse; with coinciding extensions
    # the cross term is Im <k, v> and needs none.  1 - e^3 E1(3) / 4
    weight = AnalyticFunction((Term(1.0, 0.0, -1.0), Term(1.0, 1.0, -1.0)))
    q = catalog.build_halfline_schrodinger(
        1j,
        catalog.MultiplicationPerturbation(weight, exponential(1.0, -2.0)),
    )
    vg = criteria.verdict_general(q)
    assert vg.margin == pytest.approx(criteria.decide(q).margin, abs=1e-12)
    assert vg.margin == pytest.approx(float(1 - mpmath.exp(3) * mpmath.e1(3) / 4), abs=1e-12)
    assert vg.dissipative is True


# ---------------------------------------------------------------------------
# membership gates


def test_necessity_v_failure_dominates():
    k = catalog.build_konzert(0.25, constant(0.1))
    bad_v = power(1.0, -0.25)
    kbad = dataclasses.replace(k, v=bad_v)
    fails = criteria.necessity_checks(kbad)
    assert fails == [criteria.FAIL_V_NOT_IN_DK]
    v = criteria.decide(kbad)
    assert v.dissipative is False
    assert v.necessity_failures == (criteria.FAIL_V_NOT_IN_DK,)
    assert math.isnan(v.margin)


def test_necessity_passes_on_catalog_instances(shirley_instance, rank_one_direction):
    assert criteria.necessity_checks(shirley_instance) == []
    k = catalog.build_konzert(0.25, constant(1.0))
    assert criteria.necessity_checks(k) == []
    q = catalog.build_halfline_schrodinger(
        1j, catalog.RankOnePerturbation(1.0, rank_one_direction, 1.0)
    )
    assert criteria.necessity_checks(q) == []


@pytest.mark.parametrize("pert", ["rank_one", "multiplication"])
def test_v_outside_the_maximal_domain_fails_its_membership(pert, rank_one_direction):
    # a term x^1.2 e^-x gives v'' ~ x^-0.8, not square-integrable at 0, so v
    # leaves D(S*); with x^1.6 e^-x, v'' ~ x^-0.4 is, and v stays in it
    from dissipext.analytic import indicator

    perturbation = (catalog.RankOnePerturbation(0.8, rank_one_direction, 0.5) if pert == "rank_one"
                    else catalog.MultiplicationPerturbation(indicator(0.0, 1.0), indicator(0.0, 1.0)))
    base = catalog.build_halfline_schrodinger(1j, perturbation)
    for a, failures in ((1.2, (criteria.FAIL_DOMAIN_NOT_IN_DSSTAR,)), (1.6, ())):
        problem = dataclasses.replace(base, v=base.v + AnalyticFunction((Term(1.0, a, -1.0),)))
        assert tuple(criteria.necessity_checks(problem)) == failures
        verdict = criteria.decide(problem)
        assert verdict.necessity_failures == failures
        assert math.isnan(verdict.margin) is bool(failures)


def test_outside_theory_requires_distinct_extensions():
    # half-line scenario with both memberships failing: no verdict at all
    # v = x^0.25 e^{-x} has ||v'|| infinite at 0; lv = x^-0.7 is not
    # integrable at infinity, so it leaves the square-root range
    p = catalog.build_potsdam(None, 1.0 + 0j, None)
    bad_v = AnalyticFunction((Term(1.0, 0.25, -1.0),))
    bad_l = power(1.0, -0.7)
    pbad = dataclasses.replace(p, v=bad_v, phi=None, lv=bad_l)
    v = criteria.decide(pbad)
    assert v.criterion == criteria.CRITERION_OUTSIDE
    assert v.dissipative is None
    assert set(v.necessity_failures) == {
        criteria.FAIL_V_NOT_IN_DK,
        criteria.FAIL_L_NOT_IN_RANVF,
    }


def test_single_failures_never_outside_theory():
    # with coinciding extensions both memberships are independently
    # necessary, so even a double failure yields a definite verdict
    k = catalog.build_konzert(0.25, constant(1.0))
    bad_v = power(1.0, -0.25)
    kbad = dataclasses.replace(k, v=bad_v)
    v = criteria.decide(kbad)
    assert v.criterion != criteria.CRITERION_OUTSIDE
    assert v.dissipative is False


# ---------------------------------------------------------------------------
# counters


def test_semibound_estimate_values():
    assert semibound_estimate(1.0, 0.0) == 0.0
    assert semibound_estimate(1.0, 2.0) == -1.0
    with pytest.raises(criteria.CriteriaError):
        semibound_estimate(0.0, 1.0)


def test_verdict_invariant():
    v = criteria.Verdict.from_sides("unique_ext_5_8", 1.0, 0.5)
    assert v.dissipative == (v.margin >= -criteria.MARGIN_TOL and not v.necessity_failures)
    vf = criteria.Verdict.failure("unique_ext_5_8", (criteria.FAIL_V_NOT_IN_DK,))
    assert vf.dissipative is False and math.isnan(vf.margin)
    vo = criteria.Verdict.outside_theory((criteria.FAIL_V_NOT_IN_DK,))
    assert vo.dissipative is None


def test_decide_dispatch(shirley_instance, rank_one_direction):
    assert criteria.decide(shirley_instance).criterion == criteria.CRITERION_STRICT_POS
    k = catalog.build_konzert(0.25, constant(1.0))
    assert criteria.decide(k).criterion == criteria.CRITERION_UNIQUE_EXT
    p = catalog.build_potsdam(None, 1.0 + 0j, None)
    assert criteria.decide(p).criterion == criteria.CRITERION_RAN_VF
    q = catalog.build_halfline_schrodinger(
        1j, catalog.RankOnePerturbation(1.0, rank_one_direction, 1.0)
    )
    assert criteria.decide(q).criterion == criteria.CRITERION_BOUNDED_V


# ---------------------------------------------------------------------------
# the margin conic on a grid


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e3, 1e150, 1e154]))
def test_margin_conic_on_grid_is_call_bit_for_bit(seed, scale):
    # Python's float ** 2 is the C library's pow, which an array's ** 2
    # (an exact square) differs from in the last bit at about 1 in 1000
    # points; non-finite exactly where __call__ overflows
    rng = np.random.default_rng(seed)
    conic = criteria.MarginConic(*rng.standard_normal(4).tolist())
    res, ims = ((scale * rng.standard_normal(n)).tolist() for n in (40, 25))
    values = conic.on_grid(res, ims).tolist()
    assert len(values) == len(res) * len(ims)
    for rho, got in zip((complex(a, b) for a in res for b in ims), values):
        try:
            expect = conic(rho)
        except OverflowError:
            expect = math.inf
        if math.isfinite(expect):
            assert got.hex() == expect.hex(), rho
        else:
            assert not math.isfinite(got), rho
