import ast
import cmath
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dissipext
from dissipext import cli_io, criteria, eigenh, forms, oracle
from dissipext.analytic import Term
from reference.margins import shirley_margin_exact


SHIRLEY_CFG = """\
[scenario]
name = shirley
gamma = 2
rho = 0.5+0.375i
phi = x^2 - x
"""


# ---------------------------------------------------------------------------
# expression grammar


def test_parse_polynomial():
    fn = cli_io.parse_expression("x^2 - x")
    assert sorted((t.power, t.coeff) for t in fn.terms) == [(1.0, -1.0), (2.0, 1.0)]


def test_parse_products_and_exp():
    fn = cli_io.parse_expression("i*x*exp(-x)")
    assert fn.terms == (Term(1j, 1.0, -1.0),)
    fn2 = cli_io.parse_expression("2*exp((-1-1i)*x)")
    (t,) = fn2.terms
    assert t.coeff == 2.0 and t.rate == -1.0 - 1.0j


def test_parse_fractional_power_and_indicator():
    fn = cli_io.parse_expression("x^1.25")
    assert fn.terms == (Term(1.0, 1.25),)
    fn2 = cli_io.parse_expression("1.5*indicator(0,1)")
    (t,) = fn2.terms
    assert t.lo == 0.0 and t.hi == 1.0 and t.coeff == 1.5


def test_parse_integer_power_of_expression():
    fn = cli_io.parse_expression("(x - 1)^2")
    vals = fn(np.array([0.0, 0.5, 2.0]))
    assert np.allclose(vals, [1.0, 0.25, 1.0])


def test_expression_errors_carry_positions():
    with pytest.raises(cli_io.ExpressionError) as err:
        cli_io.parse_expression("x^2 + $")
    assert err.value.pos == 6
    with pytest.raises(cli_io.ExpressionError):
        cli_io.parse_expression("exp(x^2)")
    with pytest.raises(cli_io.ExpressionError):
        cli_io.parse_expression("sin(x)")
    with pytest.raises(cli_io.ExpressionError):
        cli_io.parse_expression("x^2 +")


def test_parse_complex_values():
    assert cli_io.parse_complex("0.5+0.375i") == 0.5 + 0.375j
    assert cli_io.parse_complex("-1+2i") == -1 + 2j
    assert cli_io.parse_complex("2i") == 2j
    assert math.isinf(cli_io.parse_complex("inf").real)
    with pytest.raises(cli_io.ExpressionError):
        cli_io.parse_complex("x + 1")


# ---------------------------------------------------------------------------
# config parsing


def test_parse_minimal_shirley():
    cfg = cli_io.parse_config(SHIRLEY_CFG)
    assert cfg.scenario == "shirley"
    assert cfg.grid_offset == 1e-6  # singular scenario default


def test_round_trip():
    cfg = cli_io.parse_config(SHIRLEY_CFG)
    assert cli_io.parse_config(cli_io.serialize_config(cfg)) == cfg


def test_unknown_scenario_rejected():
    with pytest.raises(cli_io.ConfigError) as err:
        cli_io.parse_config("[scenario]\nname = mystery\n")
    assert err.value.line == 2


def test_konzert_gamma_out_of_range_cites_bounds():
    with pytest.raises(cli_io.ConfigError) as err:
        cli_io.parse_config("[scenario]\nname = konzert\ngamma = 0.7\nell = 1\n")
    assert "0 < gamma < 1/2" in str(err.value)
    assert err.value.line == 3


def test_empty_config_lists_requirements():
    with pytest.raises(cli_io.ConfigError) as err:
        cli_io.parse_config("")
    msg = str(err.value)
    assert "name" in msg and "scenario" in msg


def test_bad_expression_position():
    text = "[scenario]\nname = shirley\ngamma = 2\nrho = 1\nphi = x^^2\n"
    with pytest.raises(cli_io.ConfigError) as err:
        cli_io.parse_config(text)
    assert err.value.line == 5


def test_unknown_key_rejected():
    with pytest.raises(cli_io.ConfigError):
        cli_io.parse_config("[scenario]\nname = konzert\ngamma = 0.2\nwavelength = 3\n")


def test_schrodinger_validation():
    base = "[scenario]\nname = halfline_schrodinger\n"
    with pytest.raises(cli_io.ConfigError):
        cli_io.parse_config(base)  # missing h
    with pytest.raises(cli_io.ConfigError):
        cli_io.parse_config(base + "h = 1-1i\n")
    cfg = cli_io.parse_config(base + "h = 1+1i\nperturbation = multiplication\nV = indicator(0,1)\nk = indicator(0,1)\n")
    assert cfg.scenario == "halfline_schrodinger"


# ---------------------------------------------------------------------------
# commands


def test_run_check_shirley_margin():
    cfg = cli_io.parse_config(SHIRLEY_CFG)
    code, payload = cli_io.run_check(cfg)
    assert code == 0
    assert payload["criterion"] == "strict_pos_5_3"
    assert payload["margin"] == pytest.approx(35 / 192, abs=1e-10)
    assert payload["schema_version"] == 1


def test_run_check_exit_codes():
    cfg0 = cli_io.parse_config(SHIRLEY_CFG.replace("phi = x^2 - x\n", ""))
    code, payload = cli_io.run_check(cfg0)
    assert code == 1 and payload["dissipative"] is False
    cfg_k = cli_io.parse_config("[scenario]\nname = konzert\ngamma = 0.25\nell = 1\n")
    code, payload = cli_io.run_check(cfg_k)
    assert code == 0 and abs(payload["margin"]) < 1e-10


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_run_check_non_finite_sides_are_errors(gamma):
    cfg = cli_io.parse_config(SHIRLEY_CFG.replace("gamma = 2", f"gamma = {gamma}"))
    code, payload = cli_io.run_check(cfg)
    assert code == 2
    assert payload["error"]["code"] == "CriteriaError"


def test_run_check_support_violation_is_error():
    cfg = cli_io.parse_config(
        "[scenario]\nname = halfline_schrodinger\nh = 1+1i\n"
        "perturbation = multiplication\nV = indicator(0,1)\nk = indicator(2,3)\n"
    )
    code, payload = cli_io.run_check(cfg)
    assert code == 2
    assert payload["error"]["code"] == "SupportViolationError"


def test_sweep_rows_and_determinism():
    cfg = cli_io.parse_config("[scenario]\nname = potsdam\nrho = 0\n")
    axis = (-0.2, 0.2, 0.1)
    p1 = cli_io.run_sweep(cfg, axis, axis)
    p2 = cli_io.run_sweep(cfg, axis, axis)
    assert cli_io.sweep_to_csv(p1) == cli_io.sweep_to_csv(p2)
    rows = p1["rows"]
    assert len(rows) == 25
    # row-major order and the closed-form half-plane classification
    assert rows[0]["re_rho"] == -0.2 and rows[0]["im_rho"] == -0.2
    assert rows[1]["im_rho"] == -0.1
    for row in rows:
        assert row["margin"] == pytest.approx(row["re_rho"], abs=1e-12)
        assert row["dissipative"] == (row["margin"] >= -1e-12)


def test_sweep_rank_one_schrodinger():
    # the rank-one range test once compared the exact coefficient with the
    # grid quadrature, which on the sweep's n=64 grid gave NaN rows
    cfg = cli_io.parse_config(
        "[scenario]\nname = halfline_schrodinger\nh = 0.023643+1.430649i\n"
        "perturbation = rank_one\nalpha = 0.967747\nlambda = 0.495656-1.954736i\n"
    )
    payload = cli_io.run_sweep(cfg, (-0.1, 0.1, 0.1), (0.9, 1.2, 0.1), max_workers=1)
    rhs = abs(0.495656 - 1.954736j) ** 2 / (4 * 0.967747)
    assert len(payload["rows"]) == 12
    for row in payload["rows"]:
        assert row["margin"] == pytest.approx(row["im_rho"] - rhs, abs=1e-9)
        assert row["dissipative"] == (row["im_rho"] >= rhs)


def test_sweep_degenerate_axis():
    cfg = cli_io.parse_config("[scenario]\nname = potsdam\nrho = 0\n")
    payload = cli_io.run_sweep(cfg, (0.3, 0.3, 1.0), (0.1, 0.1, 1.0))
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["margin"] == pytest.approx(0.3, abs=1e-12)


def test_sweep_requires_boundary_parameter():
    cfg = cli_io.parse_config("[scenario]\nname = konzert\ngamma = 0.25\nell = 1\n")
    with pytest.raises(cli_io.ConfigError):
        cli_io.run_sweep(cfg, (0, 1, 0.5), (0, 1, 0.5))


def test_run_oracle_payload():
    cfg = cli_io.parse_config(
        "[scenario]\nname = konzert\ngamma = 0.25\nell = 1.2\n\n"
        "[oracle]\nmeshes = 48,96\ntol = 1e-6\n"
    )
    code, payload = cli_io.run_oracle(cfg)
    assert code == 0
    assert payload["agree"] is True
    assert payload["meshes"] == [48, 96]
    assert payload["verdict"]["dissipative"] is False


# ---------------------------------------------------------------------------
# entry point


def test_main_check(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(SHIRLEY_CFG)
    code = cli_io.main(["check", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["dissipative"] is True


def test_main_sweep_csv_file(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[scenario]\nname = potsdam\nrho = 0\n")
    out = tmp_path / "sweep.csv"
    code = cli_io.main([
        "sweep", "--config", str(cfg), "--re=-0.1:0.1:0.1", "--im", "0:0:1",
        "--format", "csv", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re_rho,im_rho,margin,dissipative"
    assert len(lines) == 4


def test_main_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[scenario]\nname = konzert\ngamma = 0.7\nell = 1\n")
    code = cli_io.main(["check", "--config", str(cfg)])
    assert code == 2
    assert "gamma" in capsys.readouterr().err


def test_main_sweep_library_error_exits_2(tmp_path, capsys):
    # every point of a Shirley sweep with gamma = nan raises CriteriaError
    cfg = tmp_path / "s.cfg"
    cfg.write_text(SHIRLEY_CFG.replace("gamma = 2", "gamma = nan"))
    code = cli_io.main(["sweep", "--config", str(cfg), "--re=0:0.1:0.1", "--im=0:0:1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_main_check_malformed_grid_number_exits_2(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[scenario]\nname = potsdam\nrho = 1\n\n[grid]\nR = abc\n")
    code = cli_io.main(["check", "--config", str(cfg)])
    assert code == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "ConfigError"
    assert "[grid] R" in error["message"]


def test_main_check_rejects_grid_b(tmp_path, capsys):
    # every interval scenario is built on (0, 1): a right end in the config
    # would have no effect, so the reader refuses it
    cfg = tmp_path / "s.cfg"
    cfg.write_text(SHIRLEY_CFG + "\n[grid]\nb = 2\n")
    code = cli_io.main(["check", "--config", str(cfg)])
    assert code == 2
    assert "unknown key 'b' in [grid]" in capsys.readouterr().err


def test_main_check_rejects_grid_n(tmp_path, capsys):
    # a scenario's domain has no nodes: a node count in the config would
    # have no effect, so the reader refuses it
    cfg = tmp_path / "s.cfg"
    cfg.write_text(SHIRLEY_CFG + "\n[grid]\nn = 512\n")
    code = cli_io.main(["check", "--config", str(cfg)])
    assert code == 2
    assert "unknown key 'n' in [grid] (line 8, col 1)" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    (SHIRLEY_CFG + "\n[grid]\nR = 0.001\n", "R"),
    ("[scenario]\nname = konzert\ngamma = 0.25\nell = 1\n\n[grid]\nR = 2\n", "R"),
    ("[scenario]\nname = potsdam\nrho = 1\nphi = i*x*exp(-x)\n\n[grid]\noffset = 0.3\n", "offset"),
    ("[scenario]\nname = halfline_schrodinger\nh = 1+1i\n\n[grid]\noffset = 0.3\n", "offset"),
], ids=["shirley_R", "konzert_R", "potsdam_offset", "schrodinger_offset"])
def test_main_check_rejects_grid_key_the_scenario_never_reads(tmp_path, capsys, text, key):
    # an interval scenario has no truncation radius and a half-line one no
    # offset: the key would have no effect, so the reader refuses it
    cfg = tmp_path / "g.cfg"
    cfg.write_text(text)
    assert cli_io.main(["check", "--config", str(cfg)]) == 2
    last = len(text.splitlines())  # the [grid] key is the config's last line
    assert f"unknown key {key!r} in [grid] (line {last}, col 1)" in capsys.readouterr().err


def test_main_missing_file(capsys):
    assert cli_io.main(["check", "--config", "/nonexistent.cfg"]) == 2


def test_main_oracle_flags(tmp_path, capsys):
    cfg = tmp_path / "k.cfg"
    cfg.write_text("[scenario]\nname = konzert\ngamma = 0.25\nell = 0\n")
    code = cli_io.main(["oracle", "--config", str(cfg), "--meshes", "32,64", "--tol", "1e-5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["meshes"] == [32, 64]


def test_sweep_json_determinism():
    cfg = cli_io.parse_config("[scenario]\nname = potsdam\nrho = 0\n")
    axis = (-0.1, 0.1, 0.1)
    p1 = cli_io.run_sweep(cfg, axis, axis)
    p2 = cli_io.run_sweep(cfg, axis, axis)
    assert cli_io._dump_json(p1) == cli_io._dump_json(p2)


def test_sweep_axis_zero_step_rejected():
    cfg = cli_io.parse_config("[scenario]\nname = potsdam\nrho = 0\n\n[sweep]\nre = 0:1:0\nim = 0:1:0.5\n")
    with pytest.raises(cli_io.ConfigError):
        cfg.sweep_axis("re")
    with pytest.raises(cli_io.ConfigError):
        cli_io._read_axis("0:1:0", "--re")


# ---------------------------------------------------------------------------
# malformed numbers, serial sweeps, sweep/check agreement


OVERFLOW_H_CFG = ("[scenario]\nname = halfline_schrodinger\nh = 1e200+1i\nperturbation = rank_one\n"
                  "alpha = 0.8\nlambda = 0.6-0.9i\n")
OVERFLOW_LAMBDA_CFG = ("[scenario]\nname = halfline_schrodinger\nh = 1+1i\nperturbation = rank_one\n"
                       "alpha = 0.8\nlambda = 1e200\n")
OVERFLOW_RHO_CFG = "[scenario]\nname = potsdam\nrho = 1e200+1i\nphi = i*x*exp(-x)\n"
# the oracle agrees on this config: extrapolated infimum 0.232 > 0
KONZERT_TOL_CFG = "[scenario]\nname = konzert\ngamma = 0.25\nell = 0.5\n\n[oracle]\ntol = {}\n"


@pytest.mark.parametrize(
    "command, text, flags, key",
    [
        ("check", SHIRLEY_CFG.replace("gamma = 2", "gamma = abc"), [], "gamma"),
        ("check", "[scenario]\nname = halfline_schrodinger\nh = 1i\nalpha = abc\n", [], "alpha"),
        ("oracle", "[scenario]\nname = konzert\ngamma = 0.25\nell = 1\n\n[oracle]\ntol = abc\n",
         [], "[oracle] tol"),
        ("oracle", "[scenario]\nname = konzert\ngamma = 0.25\nell = 1\n\n[oracle]\nmeshes = a,b\n",
         [], "[oracle] meshes"),
        ("sweep", "[scenario]\nname = potsdam\nrho = 0\n\n[sweep]\nre = a:b:c\nim = 0:1:1\n",
         [], "[sweep] re"),
        ("sweep", "[scenario]\nname = potsdam\nrho = 0\n", ["--re=x:1:1", "--im=0:1:1"], "--re"),
        ("check", SHIRLEY_CFG.replace("rho = 0.5+0.375i", "rho = 1e300"), [], "rho"),
        # |<phi, v>|^2 of the rank-one form overflows
        ("check", OVERFLOW_H_CFG, [], "overflows for h = (1e+200+1j)"),
        ("sweep", OVERFLOW_H_CFG, ["--re=1e200:1e200:1", "--im=1:1:1"], "overflows for h = (1e+200+1j)"),
        # |lambda|^2 of the rank-one margin overflows
        ("check", OVERFLOW_LAMBDA_CFG, [], "overflows for lambda = (1e+200+0j)"),
        ("sweep", OVERFLOW_LAMBDA_CFG, ["--re=1:1:1", "--im=1:1:1"], "overflows for lambda = (1e+200+0j)"),
        # the quadratic forms of v = sigma + rho tau, and of the Robin vector of h, overflow
        ("check", OVERFLOW_RHO_CFG, [], "overflow for rho = (1e+200+1j)"),
        ("sweep", OVERFLOW_RHO_CFG, ["--re=1e200:1e200:1", "--im=1:1:1"], "overflow for rho = (1e+200+1j)"),
        # an oracle tolerance must be a finite number >= 0
        *(("oracle", KONZERT_TOL_CFG.format(tol), [], "[oracle] tol")
          for tol in ("nan", "-1", "-inf", "inf")),
        *(("oracle", KONZERT_TOL_CFG.format("1e-6"), [f"--tol={tol}"], "[oracle] tol")
          for tol in ("nan", "-1", "-inf", "inf")),
    ],
    ids=["gamma", "alpha", "oracle_tol", "oracle_meshes", "sweep_axis", "re_flag", "rho_overflow",
         "h_overflow_check", "h_overflow_sweep", "lambda_overflow_check", "lambda_overflow_sweep",
         "potsdam_rho_overflow_check", "potsdam_rho_overflow_sweep",
         "tol_nan", "tol_negative", "tol_minus_inf", "tol_inf",
         "tol_flag_nan", "tol_flag_negative", "tol_flag_minus_inf", "tol_flag_inf"],
)
def test_malformed_or_extreme_numbers_exit_2(tmp_path, capsys, command, text, flags, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code = cli_io.main([command, "--config", str(cfg), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert key in captured.out + captured.err
    assert "Traceback" not in captured.out + captured.err


def test_sweep_json_writes_null_for_failed_membership(tmp_path, capsys):
    # int_0^1 |k|^2 / V = int_0^1 dx / x diverges: k is outside the range
    cfg = tmp_path / "m.cfg"
    cfg.write_text(
        "[scenario]\nname = halfline_schrodinger\nh = 1i\n"
        "perturbation = multiplication\nV = x*indicator(0,1)\nk = indicator(0,1)\n"
    )
    code = cli_io.main(["sweep", "--config", str(cfg), "--re=0:0.1:0.1", "--im=1:1:1",
                        "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 2
    assert all(row["margin"] is None and row["dissipative"] is False for row in rows)


def _multiplication(h: str, v: str, k: str) -> str:
    return ("[scenario]\nname = halfline_schrodinger\nperturbation = multiplication\n"
            f"h = {h}\nV = {v}\nk = {k}\n")


_TWO_TERM_V = _multiplication("1i", "exp(-x)+x*exp(-x)", "exp(-2*x)")
_POLY_V = _multiplication("9i", "x + x^2", "x^0.2*exp(-x)")
_POTSDAM_W = "[scenario]\nname = potsdam\nrho = 1\nphi = i*x*exp(-x)\nW = {}\n"
# V dips to -0.001 on (0.268, 0.332), between the nodes of any sample grid
_DIP_V = _multiplication("1i", "((x-0.3)^2 - 0.001)*indicator(0,1)", "x*indicator(0,1)")
# V has a double zero at 0.3 inside its window where k = 0.3: int |k|^2 / V diverges
_ZERO_V = _multiplication("1i", "(x-0.3)^2*indicator(0,1)", "x*indicator(0,1)")


@pytest.mark.parametrize(
    "text, r, code, expect",
    [
        # int e^-3x / (1 + x) = e^3 E1(3), at every truncation radius R
        (_TWO_TERM_V, 64, 0, 0.93447906493617),
        (_TWO_TERM_V, 128, 0, 0.93447906493617),
        (_TWO_TERM_V, 512, 0, 0.93447906493617),
        # V decays, but k^2/V = e^{-x/10} is integrable: 3 - 10/4
        (_multiplication("3i", "exp(-x)", "exp(-0.55*x)"), None, 0, 0.5),
        # V vanishes linearly at the window edge 1 where k does not
        (_multiplication("9i", "(1-x)*indicator(0,1)", "indicator(0,1)"), None, 1,
         "L_not_in_ranVF"),
        # 9 - int x^-0.6 e^-2x / (1 + x) / 4, from a 30-digit quadrature
        (_POLY_V, 64, 0, 8.63403830078244),
        (_POLY_V, 512, 0, 8.63403830078244),
        (_POTSDAM_W.format("exp(x)"), None, 2, "CatalogError"),
        (_POTSDAM_W.format("x^-0.6"), None, 2, "CatalogError"),
        (_DIP_V, 64, 2, "FormsError"),
        (_DIP_V, 512, 2, "FormsError"),
        (_ZERO_V, 64, 1, "L_not_in_ranVF"),
        (_ZERO_V, 512, 1, "L_not_in_ranVF"),
    ],
    ids=["two_term_v_64", "two_term_v_128", "two_term_v_512", "decaying_v", "edge_zero_v",
         "polynomial_v_64", "polynomial_v_512", "potsdam_w_exp", "potsdam_w_pow",
         "negative_dip_v_64", "negative_dip_v_512", "interior_zero_v_64", "interior_zero_v_512"],
)
def test_memberships_decided_from_term_sums(tmp_path, capsys, text, r, code, expect):
    # the suffixed cases set [grid] R: the membership is decided from the
    # closed-form term sums, so no truncation radius moves it
    cfg = tmp_path / "m.cfg"
    cfg.write_text(text if r is None else f"{text}\n[grid]\nR = {r}\n")
    assert cli_io.main(["check", "--config", str(cfg)]) == code
    payload = json.loads(capsys.readouterr().out)
    if code == 2:
        assert payload["error"]["code"] == expect
    elif code == 1:
        assert payload["necessity_failures"] == [expect]
        assert payload["margin"] is None
    else:
        assert payload["margin"] == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("text", [_TWO_TERM_V, _POLY_V], ids=["two_term_v", "polynomial_v"])
def test_build_problem_makes_no_quadrature(text, monkeypatch):
    # a build checks its inputs; the margin is decide's, so the build
    # integrates nothing by quadrature (the rhs of both needs one)
    calls = []
    quad = mpmath.quad

    def counting(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(mpmath, "quad", counting)
    cli_io.build_problem(cli_io.parse_config(text))
    assert calls == []


_KONZERT_ELL = "[scenario]\nname = konzert\ngamma = 0.25\nell = {}\n"


@pytest.mark.parametrize(
    "text, code, message",
    [
        # int_0^1 |ell|^2 diverges, although int_0^1 x |ell|^2 / gamma of the
        # criterion is finite for x^-0.5
        (_KONZERT_ELL.format("x^-1"), "CatalogError", "ell must be square-integrable"),
        (_KONZERT_ELL.format("x^-0.5"), "CatalogError", "ell must be square-integrable"),
        # <v, Lv> diverges: Lv = -phi'' ~ x^(a-2) is not integrable at 0
        ("[scenario]\nname = potsdam\nrho = 1\nphi = x^0.4*exp(-x)\n", "DivergentIntegralError",
         "power factor not integrable at 0"),
        ("[scenario]\nname = potsdam\nrho = 1\nphi = x^0.6*exp(-x)\n", "DivergentIntegralError",
         "power factor not integrable at 0"),
        # ||phi'||^2 diverges at 0: phi is outside the Friedrichs form domain
        ("[scenario]\nname = shirley\ngamma = 2\nrho = 1\nphi = x^0.4 - x\n", "DomainError",
         "f outside the Friedrichs form domain"),
    ],
    ids=["konzert_ell_x-1", "konzert_ell_x-0.5", "potsdam_phi_x0.4", "potsdam_phi_x0.6",
         "shirley_phi_x0.4"],
)
def test_singular_deviation_exits_2(tmp_path, capsys, text, code, message):
    cfg = tmp_path / "d.cfg"
    cfg.write_text(text)
    assert cli_io.main(["check", "--config", str(cfg)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == code
    assert message in error["message"]


# the rank-one form squares <phi, v>, which overflows at h = 1e200 (exit 2)
_LARGE_H = [(pert, k) for k in range(13) for pert in ("rank_one", "multiplication")]
_LARGE_H.append(("multiplication", 200))


@pytest.mark.parametrize("pert, k", _LARGE_H, ids=[f"{pert}_h1e{k}" for pert, k in _LARGE_H])
def test_halfline_schrodinger_lhs_is_exact(tmp_path, capsys, pert, k):
    # Im <v, S* v> = Im(conj(v(0)) v'(0)) = Im h, although v's coefficients
    # are of size |h|: 1 - 1/4 (rank one) and 1 - int_0^1 4 / 4 (multiplication)
    deviation = ("alpha = 1\nlambda = 1\n" if pert == "rank_one"
                 else "V = indicator(0,1)\nk = 2*indicator(0,1)\n")
    cfg = tmp_path / "h.cfg"
    cfg.write_text(f"[scenario]\nname = halfline_schrodinger\nh = 1e{k}+1i\n"
                   f"perturbation = {pert}\n{deviation}")
    assert cli_io.main(["check", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lhs"] == 1.0
    assert payload["margin"] == (0.75 if pert == "rank_one" else 0.0)


def _check_at(text: str, key: str, re: float, im: float) -> tuple[int, dict]:
    """run_check on ``text`` with ``key`` set to ``re + im i``."""
    value = f"{re!r}+{im!r}i"
    assert cli_io.parse_complex(value) == complex(re, im)
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
             for line in text.splitlines()]
    return cli_io.run_check(cli_io.parse_config("\n".join(lines) + "\n"))


POTSDAM_X15 = "[scenario]\nname = potsdam\nrho = 0\nphi = x^1.5*exp(-x)\n"


def test_sweep_is_serial_and_leaves_mpmath_precision():
    # phi = x^1.5 e^{-x} reaches mpmath.quad, which raises mpmath's one global
    # precision while it runs: with a thread pool the points corrupted each
    # other's integrals and the sweep ended in a ZeroDivisionError
    payload = cli_io.run_sweep(cli_io.parse_config(POTSDAM_X15), (0.0, 0.1, 0.1), (0.0, 0.1, 0.1))
    assert mpmath.mp.prec == 53
    assert len(payload["rows"]) == 4
    for row in payload["rows"]:
        _, expect = _check_at(POTSDAM_X15, "rho", row["re_rho"], row["im_rho"])
        # the sweep's conic sums in another order than check: low bits move
        assert abs(row["margin"] - expect["margin"]) <= 1e-12 * (1.0 + abs(expect["margin"]))
        assert row["dissipative"] is expect["dissipative"]


SWEEP_CASES = {
    "potsdam_ix": ("[scenario]\nname = potsdam\nrho = 0\nphi = 0.8i*x*exp(-x)\n", "rho"),
    "potsdam_x15": (POTSDAM_X15, "rho"),
    "shirley": ("[scenario]\nname = shirley\ngamma = 2\nrho = 0\nphi = x^2 - x\n", "rho"),
    "rank_one": ("[scenario]\nname = halfline_schrodinger\nh = 1i\nperturbation = rank_one\n"
                 "alpha = 0.8\nlambda = 0.6-0.9i\n", "h"),
    "multiplication": ("[scenario]\nname = halfline_schrodinger\nh = 1i\n"
                       "perturbation = multiplication\nV = indicator(0,1)\n"
                       "k = 1.5*indicator(0,1)\n", "h"),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
@settings(max_examples=4, deadline=None, derandomize=True)
@given(re=st.floats(-2.0, 2.0), im=st.floats(0.0, 2.0))
def test_sweep_rows_match_check(case, re, im):
    # metamorphic: every sweep row is the check of its own boundary parameter
    text, key = SWEEP_CASES[case]
    payload = cli_io.run_sweep(cli_io.parse_config(text), (re, re + 0.5, 0.5), (im, im + 0.5, 0.5))
    assert len(payload["rows"]) == 4
    for row in payload["rows"]:
        code, expect = _check_at(text, key, row["re_rho"], row["im_rho"])
        assert code in (0, 1)
        assert row["dissipative"] is expect["dissipative"]
        margin = expect["margin"]
        assert abs(row["margin"] - margin) <= 1e-12 * (1.0 + abs(margin))


def _decide_at(cfg, rho: complex) -> criteria.Verdict:
    """Per-point build+decide, which the sweep did at every point before its
    margins came from a conic."""
    return criteria.decide(cli_io.build_problem(cfg, rho_override=rho))


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
@settings(max_examples=5, deadline=None, derandomize=True)
@given(re=st.floats(-7.0, 6.0), im=st.floats(-7.0, 6.0), step=st.floats(0.01, 1.0))
def test_sweep_conic_matches_per_point_decide(case, re, im, step):
    # |rho| <= 10; the Schroedinger scenario takes Im h >= 0 only
    text, key = SWEEP_CASES[case]
    if key == "h":
        im = abs(im)
    cfg = cli_io.parse_config(text)
    payload = cli_io.run_sweep(cfg, (re, re + step, step), (im, im + step, step))
    assert payload["rows"]
    for row in payload["rows"]:
        verdict = _decide_at(cfg, complex(row["re_rho"], row["im_rho"]))
        assert row["dissipative"] is verdict.dissipative
        scale = 1.0 + abs(verdict.lhs) + abs(verdict.rhs)
        assert abs(row["margin"] - verdict.margin) <= 1e-12 * scale


def _shirley_30(rho: complex) -> float:
    poly = (Fraction(0), Fraction(-30), Fraction(30))
    return float(shirley_margin_exact(Fraction(rho.real), Fraction(rho.imag), poly))


LARGE_RHO_CASES = {
    # margin Re rho - ||phi'||^2 / 4 + Im phi'(0) = Re rho - 39.0625 / 4 + 12.5
    "potsdam": ("[scenario]\nname = potsdam\nrho = 0\nphi = 12.5i*x*exp(-x)\n",
                lambda rho: rho.real + 2.734375),
    "shirley": ("[scenario]\nname = shirley\ngamma = 2\nrho = 0\nphi = 30*(x^2 - x)\n",
                _shirley_30),
}


@pytest.mark.parametrize("case", sorted(LARGE_RHO_CASES))
@pytest.mark.parametrize("size", [10.0, 1e3, 1e5])
def test_sweep_conic_error_at_large_rho(case, size):
    # the |rho|^2 coefficient comes from the problem without its deviation,
    # so the conic's error grows no faster than per-point decide's
    text, exact = LARGE_RHO_CASES[case]
    cfg = cli_io.parse_config(text)
    conic_err = point_err = scale = 0.0
    for k in range(8):
        rho = size * cmath.exp(1j * (0.1 + k * math.pi / 4))
        row, = cli_io.run_sweep(cfg, (rho.real, rho.real, 1.0), (rho.imag, rho.imag, 1.0))["rows"]
        expect = exact(rho)
        conic_err = max(conic_err, abs(row["margin"] - expect))
        point_err = max(point_err, abs(_decide_at(cfg, rho).margin - expect))
        scale = max(scale, abs(expect))
    assert conic_err <= 2.0 * point_err + 1e-14 * (1.0 + scale)


@pytest.mark.parametrize(
    "text, re, im, message",
    [
        (SHIRLEY_CFG, "1e200:1e200:1", "0:0:1", "|rho|^2 overflows for rho = (1e+200+0j)"),
        (SWEEP_CASES["rank_one"][0], "0:0.5:0.5", "-0.5:-0.5:1",
         "Im h < 0 is not a dissipative boundary condition"),
        (SHIRLEY_CFG.replace("gamma = 2", "gamma = nan"), "0:0.1:0.1", "0:0:1",
         "strict_pos_5_3: non-finite sides lhs=nan, rhs=nan"),
    ],
    ids=["rho_overflow", "negative_im_h", "gamma_nan"],
)
def test_sweep_errors_are_those_of_per_point_decide(tmp_path, capsys, text, re, im, message):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text)
    code = cli_io.main(["sweep", "--config", str(cfg), f"--re={re}", f"--im={im}"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_decides_a_fixed_number_of_points(case, monkeypatch):
    # the margins come from one conic per sweep: decide runs at its anchors
    # only, however many points the sweep has
    text, _ = SWEEP_CASES[case]
    cfg = cli_io.parse_config(text)
    calls = []
    decide = criteria.decide

    def counting(problem):
        calls.append(problem)
        return decide(problem)

    monkeypatch.setattr(criteria, "decide", counting)
    counts = []
    for step in (1.0, 0.05):
        calls.clear()
        payload = cli_io.run_sweep(cfg, (-1.0, 1.0, step), (0.0, 2.0, step))
        assert len(payload["rows"]) == round(2.0 / step + 1) ** 2
        counts.append(len(calls))
    assert counts == [4, 4]


# ---------------------------------------------------------------------------
# runtime contract: in-repo eigensolver, numpy and mpmath only


CONTRACT_CASES = {
    "potsdam": "[scenario]\nname = potsdam\nrho = 1\nphi = i*x*exp(-x)\nW = 0.5*exp(-x)\n",
    "shirley": SHIRLEY_CFG,
    "konzert": "[scenario]\nname = konzert\ngamma = 0.25\nell = 1\n",
    "rank_one": SWEEP_CASES["rank_one"][0],
    "multiplication": SWEEP_CASES["multiplication"][0],
}


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_no_library_eigensolver_on_verdict_or_oracle_path(case, monkeypatch):
    def banned(*args, **kwargs):
        raise AssertionError("library eigensolver called")

    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, banned)
    problem = cli_io.build_problem(cli_io.parse_config(CONTRACT_CASES[case]))
    verdict = criteria.decide(problem)
    report = oracle.cross_validate(problem, verdict, meshes=(16, 32))
    assert all(math.isfinite(mu) for mu in report.infima)


def test_package_names_no_numpy_linalg_routine_but_norm():
    # the static side of the contract: no module of the package reaches
    # numpy.linalg for anything but norm, so no library eigensolver or
    # factorization is on any path, reached or not
    src = os.path.dirname(dissipext.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        nodes = list(ast.walk(tree))
        # `X.linalg` nodes that are read only as `X.linalg.norm`
        norms = {id(n.value) for n in nodes if isinstance(n, ast.Attribute) and n.attr == "norm"}
        for node in nodes:
            if isinstance(node, ast.Attribute) and node.attr == "linalg" and id(node) not in norms:
                found.append((name, node.lineno, ast.unparse(node)))
            elif isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
                if (node.module == "numpy.linalg" and names - {"norm"}
                        or node.module == "numpy" and "linalg" in names):
                    found.append((name, node.lineno, ast.unparse(node)))
            elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.linalg") for a in node.names):
                found.append((name, node.lineno, ast.unparse(node)))
    assert found == []


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_oracle_path_has_no_dense_stage(case, monkeypatch):
    # no command calls the stubs that stay only as benchmark tracer layers:
    # the oracle's pencils go through the band-plus-border solver
    def banned(*args, **kwargs):
        raise AssertionError("removed dense stage called")

    for name in ("cholesky", "eigh"):
        monkeypatch.setattr(eigenh, name, banned)
    monkeypatch.setattr(forms, "discrete_sqrt_pair", banned)
    cfg = cli_io.parse_config(CONTRACT_CASES[case])
    assert cli_io.run_check(cfg)[0] in (0, 1)
    if cfg.scenario != "konzert":
        assert len(cli_io.run_sweep(cfg, (-1.0, 1.0, 1.0), (0.0, 2.0, 1.0))["rows"]) == 9
    code, payload = cli_io.run_oracle(cfg)
    assert code in (0, 1)
    assert all(math.isfinite(mu) for mu in payload["infima"])


def test_exports_resolve_and_package_imports_no_tests():
    # a name moved out of the package takes its __all__ entry with it, and
    # the package never reaches into the tests' reference kit
    src = os.path.dirname(dissipext.__file__)
    for info in pkgutil.iter_modules([src]):
        module = importlib.import_module(f"dissipext.{info.name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], info.name
        with open(os.path.join(src, f"{info.name}.py"), encoding="utf-8") as fh:
            assert not re.search(r"^\s*(from|import)\s+(tests|reference)\b", fh.read(), re.M)
    assert [n for n in dissipext.__all__ if not hasattr(dissipext, n)] == []


def test_oracle_command_loads_no_scipy(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(SHIRLEY_CFG)
    src = os.path.dirname(os.path.dirname(dissipext.__file__))
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    # -X importtime logs every module the run imports, one per line
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "dissipext.cli_io", "oracle",
         "--config", str(cfg), "--meshes", "16,32"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert json.loads(run.stdout)["meshes"] == [16, 32]
    imported = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")]
    assert "dissipext.oracle" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_oracle_rerun_is_byte_identical(case, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONTRACT_CASES[case])
    runs = []
    for k in range(2):
        out = tmp_path / f"out{k}.json"
        code = cli_io.main(["oracle", "--config", str(cfg), "--meshes", "16,32", "--out", str(out)])
        runs.append((code, out.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] in (0, 1)
