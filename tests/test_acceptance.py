"""Acceptance gate: every criterion of the delivery contract, one test each.

Each test prints a single PASS line (failures raise with the detail); the
stated runtime budgets are asserted alongside the numerical tolerances.
"""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dissipext import catalog, cli_io, criteria, forms, oracle
from dissipext.analytic import (
    AnalyticFunction,
    Term,
    constant,
    exponential,
    indicator,
    norm_sq,
    power,
)
from dissipext.catalog import RHO_INF
from dissipext.grid import make_grid
from reference.margins import semibound_estimate, shirley_margin_exact
from reference.sup_formula import krein_form_ando_nishio


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_acceptance_1_interval_scenario_reproduction():
    t0 = time.perf_counter()
    base = "[scenario]\nname = shirley\ngamma = 1.7320508075688772\nrho = 0.5+0.375i\n"
    code_dev, payload_dev = cli_io.run_check(cli_io.parse_config(base + "phi = x^2 - x\n"))
    code_zero, payload_zero = cli_io.run_check(cli_io.parse_config(base))
    assert code_dev == 0 and payload_dev["dissipative"] is True
    assert code_zero == 1 and payload_zero["dissipative"] is False
    # threshold constants in exact rational arithmetic
    quarter_norm = Fraction(1, 4) * Fraction(1, 3)
    assert quarter_norm == Fraction(1, 12)
    lhs = Fraction(1, 2) ** 2 + Fraction(3, 8) ** 2 - Fraction(1, 2)
    assert lhs == Fraction(-7, 64)
    margin = shirley_margin_exact(
        Fraction(1, 2), Fraction(3, 8), (Fraction(0), Fraction(-1), Fraction(1))
    )
    assert margin == Fraction(35, 192)
    assert payload_dev["margin"] == pytest.approx(float(margin), abs=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("1", f"margins 35/192 and -7/64 reproduced, {elapsed:.2f}s")


def test_acceptance_2_halfline_scenario_reproduction():
    t0 = time.perf_counter()
    cfg = cli_io.parse_config("[scenario]\nname = potsdam\nrho = 0\n")
    payload = cli_io.run_sweep(cfg, (-1.0, 1.0, 0.05), (-1.0, 1.0, 0.05))
    rows = payload["rows"]
    assert len(rows) == 41 * 41
    for row in rows:
        assert row["dissipative"] == (row["re_rho"] >= 0.0)
    inf_zero = catalog.build_potsdam(None, RHO_INF, None)
    assert criteria.decide(inf_zero).dissipative is True
    phi = AnalyticFunction((Term(1j, 1.0, -1.0),))
    inf_dev = catalog.build_potsdam(None, RHO_INF, phi)
    assert criteria.decide(inf_dev).dissipative is False
    for scale in (0.3, 1.0, 2.5):
        p = catalog.build_potsdam(None, RHO_INF, scale * phi)
        assert criteria.decide(p).dissipative is False
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("2", f"41x41 sweep matches the closed half-plane, {elapsed:.2f}s")


def test_acceptance_3_first_order_scenario_reproduction():
    t0 = time.perf_counter()
    prob = catalog.build_konzert(0.25, constant(1.0))
    verdict = criteria.decide(prob)
    assert verdict.dissipative is True
    assert abs(verdict.margin) < 1e-10
    rng = np.random.default_rng(100)
    for _ in range(100):
        t1, t2 = sorted(rng.uniform(0.0, 1.0, size=2))
        m1 = criteria.decide(catalog.build_konzert(0.25, constant(1.3 * t1))).margin
        m2 = criteria.decide(catalog.build_konzert(0.25, constant(1.3 * t2))).margin
        assert m1 >= m2 - 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("3", f"admissibility boundary at weighted mass 2*gamma, {elapsed:.2f}s")


def test_acceptance_4_bounded_part_reproduction(rank_one_direction):
    t0 = time.perf_counter()
    q = catalog.build_halfline_schrodinger(
        1j, catalog.RankOnePerturbation(1.0, rank_one_direction, 2.0)
    )
    v = criteria.decide(q)
    assert abs(v.margin) < 1e-10
    vmult = indicator(0.0, 1.0)
    for c, expect in ((2.0 - 1e-8, True), (2.0 + 1e-8, False)):
        k = c * indicator(0.0, 1.0)
        prob = catalog.build_halfline_schrodinger(
            1 + 1j, catalog.MultiplicationPerturbation(vmult, k)
        )
        assert criteria.decide(prob).dissipative is expect
    k_out = indicator(2.0, 3.0)
    bad = catalog.build_halfline_schrodinger(
        1 + 1j, catalog.MultiplicationPerturbation(vmult, k_out)
    )
    with pytest.raises(criteria.SupportViolationError):
        criteria.decide(bad)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("4", f"rank-one and multiplication boundaries exact, {elapsed:.2f}s")


def _random_instances(count: int, rng):
    """Instances across all four scenarios with |margin| > 0.05."""
    phi_dir = exponential(math.sqrt(2.0), -1.0)
    vmult = indicator(0.0, 1.0)
    phi_shapes = [None, AnalyticFunction((Term(1j, 1.0, -1.0),))]
    out = []
    while len(out) < count:
        kind = len(out) % 4
        if kind == 0:
            rho = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
            phi = phi_shapes[rng.integers(0, 2)]
            if phi is not None:
                phi = float(rng.uniform(0.2, 1.5)) * phi
            prob = catalog.build_potsdam(None, rho, phi)
        elif kind == 1:
            gamma = rng.uniform(math.sqrt(3.0), 4.0)
            rho = complex(rng.uniform(-0.6, 1.6), rng.uniform(-0.8, 0.8))
            s = rng.uniform(-1.2, 1.2)
            phi = AnalyticFunction((Term(s, 2.0), Term(-s, 1.0))) if abs(s) > 0.05 else None
            prob = catalog.build_shirley(gamma, rho, phi)
        elif kind == 2:
            gamma = rng.uniform(0.08, 0.45)
            c = complex(rng.normal(0, 0.8), rng.normal(0, 0.8))
            prob = catalog.build_konzert(gamma, constant(c))
        else:
            h = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.5))
            if rng.integers(0, 2):
                lam = complex(rng.normal(0, 1.5), rng.normal(0, 1.5))
                pert = catalog.RankOnePerturbation(float(rng.uniform(0.5, 2.0)), phi_dir, lam)
            else:
                c = float(rng.uniform(0.0, 4.0))
                k = c * indicator(0.0, 1.0)
                pert = catalog.MultiplicationPerturbation(vmult, k)
            prob = catalog.build_halfline_schrodinger(h, pert)
        verdict = criteria.decide(prob)
        if math.isnan(verdict.margin) or abs(verdict.margin) <= 0.05:
            continue
        out.append((prob, verdict))
    return out


def test_acceptance_5_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    instances = _random_instances(200, rng)
    n_dis = n_non = 0
    for prob, verdict in instances:
        report = oracle.cross_validate(prob, verdict, meshes=(64, 128, 256))
        if verdict.dissipative:
            n_dis += 1
            assert min(report.infima) >= -1e-5, (prob.scenario, verdict.margin, report.infima)
        else:
            n_non += 1
            assert report.extrapolated < 0.0, (prob.scenario, verdict.margin, report.infima)
    assert n_dis > 40 and n_non > 40
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report("5", f"{n_non} non-dissipative / {n_dis} dissipative all agree, {elapsed:.0f}s")


def test_acceptance_6_small_form_oracle():
    t0 = time.perf_counter()
    gamma = 0.25
    offset_grid = make_grid("interval", offset=1e-6)
    spec_lap = forms.dirichlet_laplacian_interval()
    spec_mult = forms.multiplication(power(gamma, -1.0), offset_grid, strict_lower_bound=gamma)
    pi = math.pi
    sine = AnalyticFunction((Term(-0.5j, 0.0, 1j * pi), Term(0.5j, 0.0, -1j * pi)))
    targets = (
        ("x", AnalyticFunction((Term(1.0, 1.0),))),
        ("x^2", AnalyticFunction((Term(1.0, 2.0),))),
        ("x^(gamma+1)", power(1.0, gamma + 1.0)),
        ("sin(pi x)", sine),
    )
    for spec in (spec_lap, spec_mult):
        for _, h in targets:
            closed = forms.krein_form_sq(spec, h)
            approx = krein_form_ando_nishio(spec, h, 32)
            assert approx <= closed + 1e-8
            if closed > 1e-8:
                assert abs(approx - closed) <= 0.02 * closed
            else:
                assert approx <= 1e-8
        h = targets[1][1]
        ladder = [krein_form_ando_nishio(spec, h, m) for m in (4, 8, 16, 32)]
        for lo, hi in zip(ladder, ladder[1:]):
            assert hi >= lo - 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("6", f"sup formula within 2% and monotone, {elapsed:.1f}s")


def test_acceptance_7_form_equality():
    t0 = time.perf_counter()
    spec = forms.dirichlet_laplacian_interval()
    rng = np.random.default_rng(7)
    for _ in range(50):
        coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
        terms = []
        for k, c in enumerate(coeffs, start=1):
            mu = 1j * math.pi * k
            terms += [Term(-0.5j * c, 0.0, mu), Term(0.5j * c, 0.0, -mu)]
        f = AnalyticFunction(tuple(terms))
        large = forms.friedrichs_form_sq(spec, f)
        small = forms.krein_form_sq(spec, f)
        assert abs(small - large) <= 1e-8 * (1.0 + large)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("7", f"both square-root forms agree on 50 draws, {elapsed:.1f}s")


def test_acceptance_8_bounded_part_property_suite(rank_one_direction):
    t0 = time.perf_counter()
    rng = np.random.default_rng(65)
    # (i) symmetric boundary condition admits only the zero deviation
    for _ in range(10):
        lam = complex(rng.normal(), rng.normal())
        if abs(lam) < 1e-3:
            lam = 1.0
        q = catalog.build_halfline_schrodinger(
            float(rng.uniform(-1, 1)) + 0j,
            catalog.RankOnePerturbation(1.0, rank_one_direction, lam),
        )
        assert criteria.decide(q).dissipative is False
    # (ii) lower half-plane boundary parameters are rejected outright
    vmult = indicator(0.0, 1.0)
    for _ in range(10):
        h = complex(rng.normal(), -rng.uniform(0.01, 2.0))
        lam = complex(rng.normal(), rng.normal())
        with pytest.raises(catalog.CatalogError):
            catalog.build_halfline_schrodinger(
                h, catalog.RankOnePerturbation(1.0, rank_one_direction, lam)
            )
        k = float(rng.uniform(0, 2)) * indicator(0.0, 1.0)
        with pytest.raises(catalog.CatalogError):
            catalog.build_halfline_schrodinger(h, catalog.MultiplicationPerturbation(vmult, k))
    # (iii) semibound estimate for the deviated symmetric part alone
    for _ in range(20):
        h = complex(rng.uniform(-1, 1), rng.uniform(0.2, 2.0))
        lam = complex(rng.normal(), rng.normal())
        prob = catalog.build_halfline_schrodinger(
            h, catalog.RankOnePerturbation(1.0, rank_one_direction, lam)
        )
        op = oracle.assemble_discrete(prob, 128)
        # the symmetric part alone: the pencil without its rank-one term
        mu, _ = oracle.pencil_min_eig(dataclasses.replace(op, rank_one=None))
        norm_v_sq = norm_sq(prob.v, 0.0, math.inf)
        eps = h.imag / norm_v_sq
        l_norm = math.sqrt(abs(lam) ** 2 / norm_v_sq)
        assert mu >= semibound_estimate(eps, l_norm) - 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("8", f"symmetric/lower-halfplane/semibound properties hold, {elapsed:.1f}s")
