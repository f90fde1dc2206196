import ast
import cmath
import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dissipext
from dissipext import analytic, catalog, cli_io, criteria, eigenh, forms, oracle
from dissipext.analytic import Term, exponential
from dissipext.grid import span_decay_certificate
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


@pytest.mark.parametrize("src, pos", [("1.2.3", 0), ("x^1..5", 2), ("indicator(0,1.1.1)", 12),
                                      ("²", 0), ("2²*x", 0), ("1+1.2.3i", 2)])
def test_malformed_numbers_are_expression_errors(src, pos):
    # float() refused these after the tokenizer took them for numbers, and
    # the ValueError ended `check` in a traceback with exit 1
    with pytest.raises(cli_io.ExpressionError, match="malformed number") as err:
        cli_io.parse_expression(src)
    assert err.value.pos == pos
    # a decimal digit of another script is a number
    assert cli_io.parse_complex("٣") == 3.0


#: the ExpressionError text and position of each input, or the terms of an
#: input that parses; a rewrite of the tokenizer or the parser keeps them
PARSER_OUTCOMES = {
    "1.2.3": ("malformed number '1.2.3' at position 0", 0),
    "x^1..5": ("malformed number '1..5' at position 2", 2),
    "²": ("malformed number '²' at position 0", 0),
    "２": (Term(2 + 0j, 0.0, 0.0),),
    "٣": (Term(3 + 0j, 0.0, 0.0),),
    "x²": ("unknown name 'x²' at position 0", 0),
    "b²c": ("unknown name 'b²c' at position 0", 0),
    "22²0": ("malformed number '22²0' at position 0", 0),
    "é*x": ("unknown name 'é' at position 0", 0),
    "∞": ("unexpected character '∞' at position 0", 0),
    "x^^2": ("expected a numeric exponent at position 2", 2),
    "1+": ("unexpected token 'end' at position 2", 2),
    "(x": ("expected ')', found 'end' at position 2", 2),
    "exp(-x": ("expected ')', found 'end' at position 6", 6),
    "exp(x^2)": ("exp argument must be affine in x at position 0", 0),
    "x^(2)": ("expected a numeric exponent at position 2", 2),
    "indicator(1,0)": ("indicator needs real bounds with lo < hi at position 0", 0),
    "(x+1)^17": ("fractional powers apply to the bare variable x only at position 0", 0),
}


@pytest.mark.parametrize("src", sorted(PARSER_OUTCOMES))
def test_parser_outcomes_are_pinned(src):
    try:
        outcome = cli_io.parse_expression(src).terms
    except cli_io.ExpressionError as exc:
        outcome = (str(exc), exc.pos)
    assert outcome == PARSER_OUTCOMES[src]


def test_parse_complex_values():
    assert cli_io.parse_complex("0.5+0.375i") == 0.5 + 0.375j
    assert cli_io.parse_complex("-1+2i") == -1 + 2j
    assert cli_io.parse_complex("2i") == 2j
    assert math.isinf(cli_io.parse_complex("inf").real)
    with pytest.raises(cli_io.ExpressionError):
        cli_io.parse_complex("x + 1")


_POTSDAM_09 = "[scenario]\nname = potsdam\nrho = {}\nphi = 0.9i*x*exp(-x)\n"


@pytest.mark.parametrize("text, key, col", [
    *((_POTSDAM_09.format(rho), "rho", 7) for rho in ("1e400", "-1e400", "1e308*10", "1e200*1e200",
                                                    "1e400i", "-inf", "inf*1")),
    (SHIRLEY_CFG.replace("rho = 0.5+0.375i", "rho = 2^1e400"), "rho", 7),
    ("[scenario]\nname = halfline_schrodinger\nh = 1e400\n", "h", 5),
    ("[scenario]\nname = potsdam\nrho = 1\nphi = 1e400i*x*exp(-x)\n", "phi", 7),
    ("[scenario]\nname = potsdam\nrho = 1\nphi = exp(1000)*i*x*exp(-x)\n", "phi", 7),
    ("[scenario]\nname = potsdam\nrho = 1\nphi = 1e200*x*1e200*exp(-x)\n", "phi", 7),
])
def test_values_beyond_the_float_range_are_config_errors(text, key, col, tmp_path, capsys):
    # they were read as the point at infinity, or as inf or nan coefficients,
    # and checked as such; only the word inf is the point at infinity
    cfg = tmp_path / "big.cfg"
    cfg.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_io.main(["check", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: bad ") and f"[scenario] {key}:" in err
    line = text.splitlines().index(next(ln for ln in text.splitlines() if ln.startswith(key + " ")))
    assert err.endswith(f"(line {line + 1}, col {col})\n")


def test_float_range_errors_point_at_the_value():
    for src, pos in (("1e400", 0), ("1-1e400i", 2), ("1e308*10", 5), ("1e200*1e200", 5),
                     ("x*1e200*1e200", 7), ("exp(1000)", 0), ("2^1e400", 2)):
        with pytest.raises(cli_io.ExpressionError, match="float range") as err:
            cli_io.parse_expression(src)
        assert err.value.pos == pos
    # a finite value keeps its bits, and underflow gives what float arithmetic gives
    assert cli_io.parse_complex("1e-400") == 0j
    assert cli_io.parse_complex("1e308*1.5").real == 1e308 * 1.5
    assert cli_io.parse_complex("-0.678054i").imag == -0.678054


# ---------------------------------------------------------------------------
# config parsing


def test_parse_minimal_shirley():
    cfg = cli_io.parse_config(SHIRLEY_CFG)
    assert cfg.scenario == "shirley"
    assert cfg.grid_offset == 1e-6  # singular scenario default


def test_tool_version_is_stated_once():
    # the payloads' tool_version is the package's __version__, which is
    # pyproject's; a regex reads it, since Python 3.10 has no tomllib
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml"),
              encoding="utf-8") as fh:
        stated = re.search(r'^version = "([^"]*)"$', fh.read(), re.M).group(1)
    assert stated == dissipext.__version__
    assert cli_io.TOOL_VERSION is dissipext.__version__


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


@pytest.mark.parametrize("text, code, maximal", [
    ("[scenario]\nname = konzert\ngamma = 0.25\nell = 2\n", 1, False),  # margin -1.5
    ("[scenario]\nname = konzert\ngamma = 0.25\nell = 1\n", 0, True),
    ("[scenario]\nname = potsdam\nrho = -1\n", 1, False),
    ("[scenario]\nname = potsdam\nrho = 1\n", 0, None),
], ids=["konzert_not_dissipative", "konzert_dissipative", "potsdam_not_dissipative",
        "potsdam_dissipative"])
def test_main_check_claims_maximality_only_when_dissipative(tmp_path, capsys, text, code, maximal):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(text)
    assert cli_io.main(["check", "--config", str(cfg)]) == code
    payload = json.loads(capsys.readouterr().out)
    assert payload["dissipative"] is (code == 0)
    assert payload["maximally_dissipative"] is maximal


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
    # every value is read when the config is parsed, so the error cites its
    # line and the column of its first character
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[scenario]\nname = potsdam\nrho = 1\n\n[grid]\nR = abc\n")
    code = cli_io.main(["check", "--config", str(cfg)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: [grid] R must be float, got 'abc' (line 6, col 5)\n"


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


_RANK_ONE_CFG = "[scenario]\nname = halfline_schrodinger\nh = 1i\nalpha = 0.8\nlambda = 0.6-0.9i\n"
_MULTIPLICATION_CFG = ("[scenario]\nname = halfline_schrodinger\nh = 1i\nperturbation = multiplication\n"
                       "V = indicator(0,1)\nk = 1.5*indicator(0,1)\n")


@pytest.mark.parametrize("text, key, scope", [
    ("[scenario]\nname = potsdam\nrho = 1\ngamma = 5\n", "gamma", "potsdam"),
    ("[scenario]\nname = potsdam\nrho = 1\nell = x\n", "ell", "potsdam"),
    (SHIRLEY_CFG + "h = 1i\n", "h", "shirley"),
    (SHIRLEY_CFG + "alpha = 3\n", "alpha", "shirley"),
    ("[scenario]\nname = konzert\ngamma = 0.25\nell = 1\nphi = x\n", "phi", "konzert"),
    (_MULTIPLICATION_CFG + "phi = exp(-x)\n", "phi",
     "halfline_schrodinger with perturbation = multiplication"),
    (_MULTIPLICATION_CFG + "alpha = 1\n", "alpha",
     "halfline_schrodinger with perturbation = multiplication"),
    (_RANK_ONE_CFG + "V = indicator(0,1)\n", "V", "halfline_schrodinger with perturbation = rank_one"),
    (_RANK_ONE_CFG + "k = indicator(0,1)\n", "k", "halfline_schrodinger with perturbation = rank_one"),
], ids=["potsdam_gamma", "potsdam_ell", "shirley_h", "shirley_alpha", "konzert_phi",
        "multiplication_phi", "multiplication_alpha", "rank_one_V", "rank_one_k"])
def test_main_check_rejects_scenario_key_the_scenario_never_reads(tmp_path, capsys, text, key, scope):
    # the key would have no effect on the verdict, so the reader refuses it
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text)
    assert cli_io.main(["check", "--config", str(cfg)]) == 2
    last = len(text.splitlines())  # the key is the config's last line
    assert f"unknown key {key!r} for scenario {scope} (line {last}, col 1)" in capsys.readouterr().err


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
RANK_ONE_ALPHA_CFG = ("[scenario]\nname = halfline_schrodinger\nh = 1i\nperturbation = rank_one\n"
                      "alpha = {}\nlambda = 0.6-0.9i\n")
# the oracle agrees on this config: extrapolated infimum 0.232 > 0
KONZERT_TOL_CFG = "[scenario]\nname = konzert\ngamma = 0.25\nell = 0.5\n\n[oracle]\ntol = {}\n"
POTSDAM_GRID_CFG = "[scenario]\nname = potsdam\nrho = 0\n\n[grid]\nR = {}\n"
# the README's Shirley config as the oracle reads it
SHIRLEY_ORACLE_CFG = SHIRLEY_CFG + "\n[grid]\noffset = 1e-6\n"


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
        # a verdict resting on alpha = inf, or a NaN side later on
        *(("check", RANK_ONE_ALPHA_CFG.format(alpha), [], "alpha") for alpha in ("inf", "nan")),
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
        # a malformed value is a config error for every command, whichever reads it
        *((command, POTSDAM_GRID_CFG.format("abc"), flags, "[grid] R")
          for command, flags in (("check", []), ("sweep", ["--re=0:0:1", "--im=0:0:1"]),
                                 ("oracle", []))),
        ("check", SHIRLEY_CFG + "\n[grid]\noffset = 1e-6x\n", [], "[grid] offset"),
        ("check", KONZERT_TOL_CFG.format("abc"), [], "[oracle] tol"),
        ("check", KONZERT_TOL_CFG.replace("tol = {}", "meshes = 64,a"), [], "[oracle] meshes"),
        ("check", "[scenario]\nname = potsdam\nrho = 0\n\n[sweep]\nre = 0:1\nim = 0:1:1\n", [],
         "[sweep] re"),
        # a rank-one direction of norm 0 cannot be normalized
        ("check", RANK_ONE_ALPHA_CFG.format("0.8") + "phi = 0\n", [], "phi"),
        # nor one that is not square-integrable, at infinity or at 0
        *(("check", RANK_ONE_ALPHA_CFG.format("0.8") + f"phi = {phi}\n", [], "phi")
          for phi in ("1", "x^-0.5*exp(-x)")),
        # a mesh too large to hold is refused before it is allocated
        ("oracle", SHIRLEY_ORACLE_CFG, ["--meshes=64,128,1000000000000"],
         f"limit of {oracle.MAX_MESH}"),
        ("oracle", SHIRLEY_ORACLE_CFG + "\n[oracle]\nmeshes = 16,32,1000000000000\n", [],
         f"limit of {oracle.MAX_MESH}"),
    ],
    ids=["gamma", "alpha", "oracle_tol", "oracle_meshes", "sweep_axis", "re_flag", "rho_overflow",
         "alpha_inf", "alpha_nan",
         "h_overflow_check", "h_overflow_sweep", "lambda_overflow_check", "lambda_overflow_sweep",
         "potsdam_rho_overflow_check", "potsdam_rho_overflow_sweep",
         "tol_nan", "tol_negative", "tol_minus_inf", "tol_inf",
         "tol_flag_nan", "tol_flag_negative", "tol_flag_minus_inf", "tol_flag_inf",
         "grid_R_check", "grid_R_sweep", "grid_R_oracle", "grid_offset_check", "oracle_tol_check",
         "oracle_meshes_check", "sweep_axis_check", "rank_one_zero_phi",
         "rank_one_phi_not_decaying", "rank_one_phi_singular_at_0", "mesh_limit_flag",
         "mesh_limit_config"],
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


@pytest.mark.parametrize("command, flags", [("check", []), ("sweep", ["--re=0:0:1", "--im=1:1:1"])])
@pytest.mark.parametrize("case", ["potsdam", "rank_one", "multiplication"])
@pytest.mark.parametrize("r", ["5e-324", "1e-3"])
def test_tiny_halfline_radius_fails_on_decay(tmp_path, capsys, command, flags, case, r):
    # a half-line R too small for the scenario's vectors to decay is a
    # CatalogError of the builder, however small; no offset was set
    cfg = tmp_path / "r.cfg"
    cfg.write_text(CONTRACT_CASES[case] + f"\n[grid]\nR = {r}\n")
    code = cli_io.main([command, "--config", str(cfg), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert "vector has not decayed by the truncation radius" in captured.out + captured.err
    assert "offset" not in captured.out + captured.err


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
@settings(max_examples=6, deadline=None, derandomize=True)
@given(re=st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.integers(1, 40)),
       im=st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.integers(1, 40)),
       scale=st.sampled_from([1.0, 1e150, 1e152]))
def test_sweep_rows_are_the_conic_bit_for_bit(case, re, im, scale):
    # the rows come from one numpy pass over the grid; where the conic is
    # finite, each is the conic at its own point, to the last bit
    text, key = SWEEP_CASES[case]
    cfg = cli_io.parse_config(text)
    (re_lo, re_step, re_n), (im_lo, im_step, im_n) = re, im
    if key == "h":
        im_lo = abs(im_lo)
    axes = [(scale * lo, scale * (lo + (n - 1) * step), scale * step)
            for lo, step, n in ((re_lo, re_step, re_n), (im_lo, im_step, im_n))]
    conic = criteria.margin_conic(cli_io.build_problem(cfg, rho_override=0j),
                                  cli_io.build_problem(cfg, rho_override=catalog.RHO_INF))

    def at(rho):
        try:
            return conic(rho)
        except OverflowError:
            return math.nan

    try:
        rows = cli_io.run_sweep(cfg, *axes)["rows"]
    except cli_io._LIBRARY_ERRORS:
        # only a point past the conic's float range goes to its own decide
        points = [complex(a, b) for a in cli_io._axis_points(axes[0], cli_io._axis_count(axes[0]))
                  for b in cli_io._axis_points(axes[1], cli_io._axis_count(axes[1]))]
        assert not all(math.isfinite(at(rho)) for rho in points)
        return
    for row in rows:
        expect = at(complex(row["re_rho"], row["im_rho"]))
        if math.isfinite(expect):
            assert row["margin"].hex() == expect.hex()
            assert row["dissipative"] is (expect >= -criteria.MARGIN_TOL)


@pytest.mark.parametrize("re, im, count", [("0:1:1e-300", "0:0:1", "1e+300 x 1 = 1e+300"),
                                           ("-1e308:1e308:1", "0:0:1", "inf x 1 = inf"),
                                           ("0:999:1", "0:1000:1", "1000 x 1001 = 1.001e+06")])
def test_sweep_refuses_grids_it_cannot_list(re, im, count, tmp_path, capsys, deadline):
    # the first listed 1e300 points until it was stopped, the second raised
    # on int(inf); a grid's rows take about 400 MB per million points
    cfg = tmp_path / "s.cfg"
    cfg.write_text(SWEEP_CASES["potsdam_ix"][0])
    with deadline(1.0):
        code = cli_io.main(["sweep", "--config", str(cfg), f"--re={re}", f"--im={im}"])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    axes = [":".join(repr(float(x)) for x in axis.split(":")) for axis in (re, im)]
    assert err == (f"error: sweep grid re = {axes[0]} by im = {axes[1]} has {count} points, "
                   f"more than the limit of {cli_io.MAX_SWEEP_POINTS}\n")


@pytest.mark.parametrize("alpha", ["1e200", "1e308"])
def test_oracle_ends_on_rank_one_strength_near_float_range(alpha, tmp_path, capsys, deadline):
    # the inverse iteration spun on NaN vectors (1e200) and the downward walk
    # never reached a count of 0 (1e308); the pencil solver and the residual
    # check now run on H scaled to unit size, and the ladder ends with
    # finite infima and no overflow warning
    cfg = tmp_path / "a.cfg"
    cfg.write_text(RANK_ONE_ALPHA_CFG.format(alpha))
    with deadline(30.0), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli_io.main(["oracle", "--config", str(cfg), "--meshes", "16,32,64"])
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert captured.err == ""
    assert all(math.isfinite(mu) for mu in json.loads(captured.out)["infima"])


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


def _reference_conic(cfg) -> criteria.MarginConic | None:
    """The conic of ``cli_io._sweep_conic`` from four lone decides, which
    share nothing; None where the sweep has no conic."""
    try:
        at_zero = cli_io.build_problem(cfg, rho_override=0j)
        at_inf = cli_io.build_problem(cfg, rho_override=catalog.RHO_INF)
        a, b, grid = at_zero.v, at_inf.v, at_zero.grid
        if grid.is_halfline and not span_decay_certificate((a, b), grid.length):
            return None
        c0 = criteria.decide(at_zero).margin
        c2 = criteria.decide(dataclasses.replace(at_zero.without_deviation(), v=b)).margin
        if math.isnan(c0) or math.isnan(c2):
            return None
        c_re = criteria.decide(dataclasses.replace(at_zero, v=a + b)).margin - c0 - c2
        c_im = criteria.decide(dataclasses.replace(at_zero, v=a + 1j * b)).margin - c0 - c2
    except cli_io._LIBRARY_ERRORS:
        return None
    return criteria.MarginConic(c0, c_re, c_im, c2)


def _reference_sweep(cfg, re_axis, im_axis) -> dict:
    """``run_sweep`` as a loop over the points, the way it computed its rows
    before they came in one pass: in row order each point's boundary check,
    the conic's value, and its own build and decide where that value is not
    finite."""
    res = cli_io._axis_points(re_axis, cli_io._axis_count(re_axis))
    ims = cli_io._axis_points(im_axis, cli_io._axis_count(im_axis))
    conic = _reference_conic(cfg)
    margins = iter(conic.on_grid(res, ims).tolist()) if conic is not None else None
    rows = []
    for re_ in res:
        for im in ims:
            if margins is not None:
                catalog.check_boundary_parameter(cfg.scenario, complex(re_, im))
                margin = next(margins)
                if math.isfinite(margin):
                    rows.append({"re_rho": re_, "im_rho": im, "margin": margin,
                                 "dissipative": margin >= -criteria.MARGIN_TOL})
                    continue
            verdict = _decide_at(cfg, complex(re_, im))
            rows.append({"re_rho": re_, "im_rho": im, "margin": cli_io._jsonable(verdict.margin),
                         "dissipative": verdict.dissipative})
    return {
        "schema_version": cli_io.SCHEMA_VERSION,
        "tool_version": cli_io.TOOL_VERSION,
        "scenario": cfg.scenario,
        "parameters": {k: v for s, k, v in cfg.params if s == "scenario" and k != "name"},
        "axes": {"re": list(re_axis), "im": list(im_axis)},
        "rows": rows,
    }


#: (re axis, im axis) of run_sweep, which takes a descending axis as it is
EDGE_GRIDS = {
    "im_negative_first": ((-1.0, 1.0, 1.0), (-1.0, 1.0, 1.0)),
    "im_negative_middle": ((-1.0, 1.0, 1.0), (1.0, -1.0, -0.5)),
    "im_negative_last": ((0.0, 1.0, 1.0), (1.0, -0.5, -0.5)),
    "overflow_1e155": ((1e155, 2e155, 1e155), (0.0, 1e155, 1e155)),
    "overflow_1e200": ((-1e200, 1e200, 1e200), (0.0, 1e200, 1e200)),
    # the point at im = 1 overflows and goes to its own decide before the
    # point at im = -1 fails its boundary check, and the other way round,
    # where |rho|^2 is finite at im = -1 only
    "fallback_then_boundary": ((1e200, 1e200, 1.0), (1.0, -1.0, -2.0)),
    "boundary_then_fallback": ((1e154, 1e154, 1.0), (-1.0, 1e155, 1e155)),
}
#: the multiplication config, and one whose k lies outside ran V_F at the
#: edge zero of V, so that an anchor fails a membership and the conic is None
EDGE_CASES = {**{case: text for case, (text, _) in SWEEP_CASES.items()},
              "edge_zero_v": _multiplication("9i", "(1-x)*indicator(0,1)", "indicator(0,1)")}


def _outcome(run, *args) -> str:
    """``json.dumps`` of the payload, or the type and text of the error."""
    try:
        return json.dumps(run(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("grid", sorted(EDGE_GRIDS))
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_sweep_payload_equals_per_point_reference(case, grid):
    # the rows built in one pass, with the boundary rule applied to the
    # whole grid, are those of the loop, and the first point in row order
    # that fails decides the error
    cfg = cli_io.parse_config(EDGE_CASES[case])
    axes = EDGE_GRIDS[grid]
    expect = _outcome(_reference_sweep, cfg, *axes)
    assert _outcome(cli_io.run_sweep, cfg, *axes) == expect


def test_edge_grids_reach_each_path():
    # the grids above put every path of the reference to work
    def outcome(case, grid):
        return _outcome(_reference_sweep, cli_io.parse_config(EDGE_CASES[case]), *EDGE_GRIDS[grid])

    boundary = "CatalogError: Im h < 0 is not a dissipative boundary condition"
    for grid in ("im_negative_first", "im_negative_middle", "im_negative_last",
                 "boundary_then_fallback"):
        assert outcome("rank_one", grid) == boundary
    assert outcome("rank_one", "fallback_then_boundary") == (
        "CatalogError: |<phi, v>|^2 overflows for h = (1e+200+1j)")
    conic = cli_io._sweep_conic(cli_io.parse_config(EDGE_CASES["rank_one"]))
    assert [math.isfinite(m) for m in conic.on_grid([1e154], [-1.0, 1e155])] == [True, False]
    with pytest.raises(catalog.CatalogError, match="overflows"):
        _decide_at(cli_io.parse_config(EDGE_CASES["rank_one"]), complex(1e154, 1e155))
    # the multiplication fallback at 1e200 + 1i decides, and the next point fails
    assert outcome("multiplication", "fallback_then_boundary") == boundary
    # an anchor outside ran V_F: no conic, and every point fails alike
    assert cli_io._sweep_conic(cli_io.parse_config(EDGE_CASES["edge_zero_v"])) is None
    rows = json.loads(outcome("edge_zero_v", "overflow_1e155"))["rows"]
    assert len(rows) == 4 and all(row["margin"] is None for row in rows)
    # the conic overflows at 1e200 i, where the point's own decide gives a margin
    conic = cli_io._sweep_conic(cli_io.parse_config(EDGE_CASES["multiplication"]))
    assert not math.isfinite(conic.on_grid([0.0], [1e200])[0])
    rows = json.loads(outcome("multiplication", "overflow_1e200"))["rows"]
    assert len(rows) == 6 and all(isinstance(row["margin"], float) for row in rows)
    assert outcome("potsdam_ix", "overflow_1e155").startswith("CriteriaError: ran_vf_5_1")


#: the forms whose argument can be the deviation, the one part of a
#: margin_conic's four decides that does not move with v
_DEVIATION_FORMS = ("friedrichs_form_sq", "sqrt_scale_inv_form", "mult_inverse_norm_sq", "vf_solve")


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_evaluates_the_deviations_forms_once(case, monkeypatch):
    # margin_conic evaluates each form of the deviation (phi, Lv or k) at
    # the first of its decides and reads it at the others, and keeps
    # nothing past its call: the same sweep again counts the same.  The
    # rank-one lambda phi0 spans ran V_F, so none of its forms is evaluated
    cfg = cli_io.parse_config(SWEEP_CASES[case][0])
    anchor = cli_io.build_problem(cfg, rho_override=0j)
    deviation = {fn.terms for fn in (anchor.phi, anchor.deviation(),
                                     getattr(anchor.perturbation, "k", None))
                 if fn is not None and fn.terms}
    calls = {}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if any(getattr(arg, "terms", None) in deviation for arg in args):
                calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in _DEVIATION_FORMS:
        counted(forms, name)
    counted(criteria, "off_support")  # the support test of k
    counts = []
    for _ in range(2):
        calls.clear()
        cli_io.run_sweep(cfg, (-1.0, 1.0, 0.5), (0.0, 2.0, 0.5))
        counts.append(dict(calls))
    if case == "rank_one":
        assert counts[0] == {}, counts[0]
    else:
        assert counts[0] and set(counts[0].values()) == {1}, counts[0]
    assert counts[1] == counts[0]


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
def test_decide_evaluates_each_form_once(case, monkeypatch):
    # the membership gate hands the criterion the forms it evaluated
    problem = cli_io.build_problem(cli_io.parse_config(CONTRACT_CASES[case]))
    calls = {}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("krein_form_sq", "sqrt_scale_inv_form", "mult_inverse_norm_sq"):
        counted(forms, name)
    counted(catalog.ExtensionProblem, "deviation")
    for run in (criteria.decide, criteria.verdict_general):
        for p in (problem, problem.without_deviation()):
            calls.clear()
            run(p)
            assert calls and max(calls.values()) == 1, (run.__name__, calls)


def _count_calls(monkeypatch, module, name, record):
    """Wrap ``module.name`` wherever a package module binds that function,
    passing each call's arguments to ``record`` first."""
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        record(args)
        return inner(*args, **kwargs)

    for mod in (analytic, catalog, criteria, forms):
        if getattr(mod, name, None) is inner:
            monkeypatch.setattr(mod, name, wrapper)


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES) + ["rank_one_unnormalized"])
def test_decide_takes_what_the_construction_decides(case, monkeypatch):
    # the rank-one lambda phi0 spans ran V_F, the Schroedinger v lies in
    # D(S*) by its terms, the support test of k is the range test's, the
    # traces of each function are evaluated once, and the spec takes the
    # norm of phi once
    text = (CONTRACT_CASES[case] if case in CONTRACT_CASES
            else CONTRACT_CASES["rank_one"] + "phi = exp(-x)\n")
    cfg = cli_io.parse_config(text)
    calls = []
    for module, name in ((analytic, "norm_sq"), (analytic, "off_support"), (forms, "_traces"),
                         (forms, "sqrt_scale_inv_form"), (forms, "vf_solve")):
        _count_calls(monkeypatch, module, name, lambda args, name=name: calls.append(
            (name, args[1].terms if name in ("_traces", "sqrt_scale_inv_form", "vf_solve")
             else args[0].terms)))
    problem = cli_io.build_problem(cfg)
    built, calls[:] = list(calls), []
    criteria.decide(problem)
    names = [name for name, _ in calls]
    if problem.scenario == "halfline_schrodinger":
        v2 = problem.v.derivative().derivative().terms
        assert ("norm_sq", v2) not in calls
    if case.startswith("rank_one"):
        phi = cfg.get("phi") or cli_io._RANK_ONE_PHI
        assert built.count(("norm_sq", phi.terms)) == 1, built
        assert "sqrt_scale_inv_form" not in names and "vf_solve" not in names, calls
    if case == "multiplication":
        assert names.count("off_support") == 1, calls
    if case == "shirley":
        traced = [terms for name, terms in calls if name == "_traces"]
        assert traced and len(traced) == len(set(traced)), calls


#: the contract configs and the sweep configs that are not among them
HOMOGENEITY_CASES = dict(CONTRACT_CASES, **{f"sweep_{name}": text
                                            for name, (text, _) in SWEEP_CASES.items()
                                            if text not in CONTRACT_CASES.values()})


def _scaled(problem: catalog.ExtensionProblem, t: complex) -> catalog.ExtensionProblem:
    """``problem`` with ``v`` and the deviation times ``t``: ``phi``, ``lv``
    or the Schroedinger perturbation's ``lambda`` or ``k``, whichever holds
    it."""
    pert = problem.perturbation
    if isinstance(pert, catalog.RankOnePerturbation):
        pert = dataclasses.replace(pert, lam=t * pert.lam)
    elif isinstance(pert, catalog.MultiplicationPerturbation):
        pert = dataclasses.replace(pert, k=t * pert.k)
    phi, lv = problem.phi, problem.lv
    return dataclasses.replace(problem, v=t * problem.v, perturbation=pert,
                               phi=None if phi is None else t * phi,
                               lv=None if lv is None else t * lv)


@pytest.mark.parametrize("t", [2.0, 1e-3, cmath.exp(0.7j)], ids=["2", "1e-3", "unimodular"])
@pytest.mark.parametrize("case", sorted(HOMOGENEITY_CASES))
def test_margin_is_homogeneous_in_v_and_the_deviation(case, t):
    # metamorphic: every side is a Hermitian form in the graph vector (v, Lv),
    # so scaling both by t scales the sides by |t|^2 and keeps the criterion
    problem = cli_io.build_problem(cli_io.parse_config(HOMOGENEITY_CASES[case]))
    base, got = criteria.decide(problem), criteria.decide(_scaled(problem, t))
    assert got.criterion == base.criterion
    assert got.necessity_failures == base.necessity_failures
    assert math.isfinite(base.margin)
    tol = 1e-12 * (abs(got.lhs) + abs(got.rhs))
    for side in ("margin", "lhs", "rhs"):
        assert abs(getattr(got, side) - abs(t) ** 2 * getattr(base, side)) <= tol, side


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_margin_conic_sharing_is_invisible(case, monkeypatch):
    # the decides of a conic share one record of the deviation's values,
    # which changes no bit of its coefficients and is gone when it returns
    cfg = cli_io.parse_config(SWEEP_CASES[case][0])
    at_zero = cli_io.build_problem(cfg, rho_override=0j)
    at_inf = cli_io.build_problem(cfg, rho_override=catalog.RHO_INF)
    conic = criteria.margin_conic(at_zero, at_inf)
    assert conic.c0 == criteria.decide(at_zero).margin
    assert conic.c2 == criteria.decide(
        dataclasses.replace(at_zero.without_deviation(), v=at_inf.v)).margin
    assert criteria._SHARED.get() is None
    assert criteria.margin_conic(at_zero, at_inf) == conic
    # a decide that raises inside the record's scope leaves none set either
    inner, calls = criteria._im_action, []

    def raising_at_a_plus_b(problem):
        calls.append(problem)
        if len(calls) == 3:
            raise RuntimeError("decide at a + b")
        return inner(problem)

    monkeypatch.setattr(criteria, "_im_action", raising_at_a_plus_b)
    with pytest.raises(RuntimeError, match="a \\+ b"):
        criteria.margin_conic(at_zero, at_inf)
    assert criteria._SHARED.get() is None


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


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_oracle_infima_independent_of_shared_caches(case):
    # the per-mesh tables and the per-size start vector are shared by every
    # ladder, read-only, and normalizing an iterate in place never reaches
    # them: a ladder run twice, and once more from cleared caches, gives
    # the same bits
    problem = cli_io.build_problem(cli_io.parse_config(CONTRACT_CASES[case]))
    verdict = criteria.decide(problem)

    def bits():
        report = oracle.cross_validate(problem, verdict, meshes=(64, 128, 256))
        return [mu.hex() for mu in report.infima] + [report.extrapolated.hex()]

    runs = [bits(), bits()]
    oracle._reference_mesh.cache_clear()
    eigenh._start_vector.cache_clear()
    runs.append(bits())
    assert runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------------------------
# config values: each read once, by its reader in cli_io._KEYS


def _readme() -> str:
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def _readme_configs() -> dict:
    """The README's annotated configs by scenario, and its rank-one variant."""
    configs = dict(re.findall(r"```ini\n# (\w+):.*?\n(.*?)```", _readme(), re.S))
    schrodinger = configs["halfline_schrodinger"]
    variant = [line[4:] for line in schrodinger.splitlines() if line.startswith("#   ")]
    configs["rank_one"] = schrodinger.split("perturbation")[0] + "\n".join(variant) + "\n"
    return configs


PARSE_CASES = {**{f"readme_{k}": v for k, v in _readme_configs().items()}, **CONTRACT_CASES}
_PARSED_KEYS = ("phi", "W", "ell", "V", "k", "rho", "h", "lambda")


def test_readme_configs_are_found():
    assert sorted(_readme_configs()) == ["halfline_schrodinger", "konzert", "potsdam", "rank_one",
                                         "shirley"]


def test_readme_python_example_matches_the_cli():
    # the README's library example is its Shirley config: the same margin
    # and the same ladder of infima as check and oracle give on that config
    example = re.search(r"```python\n(.*?)```", _readme(), re.S).group(1)
    scope = {}
    exec(example, scope)
    cfg = cli_io.parse_config(_readme_configs()["shirley"])
    assert scope["verdict"].margin == cli_io.run_check(cfg)[1]["margin"]
    assert list(scope["report"].infima) == cli_io.run_oracle(cfg)[1]["infima"]


@pytest.mark.parametrize("case", sorted(PARSE_CASES))
def test_each_value_is_parsed_once(case, monkeypatch):
    # check runs the expression parser once per expression or complex value
    # (inf is read without it), and a sweep never after parse_config
    runs = []
    parse = cli_io._Parser.parse
    monkeypatch.setattr(cli_io._Parser, "parse", lambda self: runs.append(self.src) or parse(self))
    cfg = cli_io.parse_config(PARSE_CASES[case])
    cli_io.run_check(cfg)
    expect = [v for s, k, v in cfg.params if s == "scenario" and k in _PARSED_KEYS and v != "inf"]
    assert sorted(runs) == sorted(expect)
    if cfg.scenario != "konzert":
        runs.clear()
        assert len(cli_io.run_sweep(cfg, (-1.0, 1.0, 1.0), (0.0, 1.0, 0.5))["rows"]) == 9
        assert runs == []


#: the configs whose ``check``, 3x3 ``sweep`` and 16,32,64 ``oracle`` outputs
#: are pinned bit for bit
PINNED_CASES = {**PARSE_CASES, **{f"sweep_{k}": text for k, (text, _) in SWEEP_CASES.items()}}
PINNED_COMMANDS = {"check": ["check"],
                   "sweep": ["sweep", "--re=-1:1:1", "--im=0:1:0.5", "--format=json"],
                   "oracle": ["oracle", "--meshes=16,32,64"]}
PINNED_TABLE = os.path.join(os.path.dirname(__file__), "reference", "cli_outputs.json")


def _pinned_output(case: str, command: str, workdir) -> dict:
    """Exit code, stdout, stderr and written files of ``command`` on
    ``PINNED_CASES[case]``, run in the empty directory ``workdir``."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with open("pinned.cfg", "w", encoding="utf-8") as fh:
            fh.write(PINNED_CASES[case])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_io.main([PINNED_COMMANDS[command][0], "--config", "pinned.cfg",
                                *PINNED_COMMANDS[command][1:]])
        files = {}
        for name in sorted(os.listdir(".")):
            if name != "pinned.cfg":
                with open(name, encoding="utf-8") as fh:
                    files[name] = fh.read()
    finally:
        os.chdir(cwd)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def _write_pinned_table(workdir) -> None:
    """Write :data:`PINNED_TABLE` from the current outputs: only for a change
    that means to move them, since the table is what the next one keeps."""
    table = {}
    for case in sorted(PINNED_CASES):
        for command in PINNED_COMMANDS:
            run_dir = os.path.join(workdir, f"{case}-{command}")
            os.mkdir(run_dir)
            table[f"{case} {command}"] = _pinned_output(case, command, run_dir)
    with open(PINNED_TABLE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


@pytest.mark.parametrize("command", sorted(PINNED_COMMANDS))
@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_cli_outputs_are_pinned(case, command, tmp_path):
    with open(PINNED_TABLE, encoding="utf-8") as fh:
        table = json.load(fh)
    assert _pinned_output(case, command, tmp_path) == table[f"{case} {command}"]


#: values a reader may accept; each key draws those its reader accepts
_VALID = ["0", "1", "2", "0.25", "1e-6", "0.5+0.375i", "-1+2i", "1i", "inf", "x*exp(-x)",
          "0.5*exp(-2*x)", "2i*x*exp(-x)", "indicator(0,1)", "(x-0.3)^2*indicator(0,1)", "x^2 - x",
          "64,128", "32", "-1:1:0.5", "0:1:1", "rank_one", "multiplication", "csv", "json"]
_MALFORMED = ["abc", "", "1+", "x^^2", "exp(x^2)", "64,a", "a:b:c", "0:1", "1:0:1", "0:1:0", "1,2"]
_EXTREME = ["nan", "-nan", "-inf", "1e400", "-1e400", "1e308", "-1e308", "1e-320", "1e200+1e200i"]


def _accepts(reader, raw: str) -> bool:
    try:
        reader(raw, "[section] key")
    except cli_io.ConfigError:
        return False
    return True


#: (kind, section, key, draws): every key but [output] path (a file to
#: write) and [scenario] name, of every scenario that reads it
_FIELDS = [(kind, s, k, [v for v in _VALID if _accepts(reader, v)] + _MALFORMED + _EXTREME)
           for (s, k), (reader, _, kinds) in cli_io._KEYS.items() if k not in ("name", "path")
           for kind in kinds]


def test_reader_table_fields_have_valid_draws():
    assert all(len(draws) > len(_MALFORMED) + len(_EXTREME) for *_, draws in _FIELDS)


def _with_value(kind: str, section: str, key: str, raw: str) -> tuple[str, int]:
    """The ``CONTRACT_CASES`` config of ``kind`` with ``[section] key = raw``,
    and the number of that line."""
    text = CONTRACT_CASES[kind]
    line = f"{key} = {raw}"
    if section != "scenario":
        text += f"\n[{section}]\n{line}\n"
    elif re.search(rf"^{key} = ", text, re.M):
        text = re.sub(rf"^{key} = .*$", line, text, flags=re.M)
    else:
        text += line + "\n"
    return text, text.splitlines().index(line) + 1


@pytest.mark.parametrize("field", _FIELDS, ids=[f"{kind}_{key}" for kind, _, key, _ in _FIELDS])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_config_fields_exit_0_1_or_2(field, data, tmp_path_factory):
    kind, section, key, draws = field
    raw = data.draw(st.one_of(st.sampled_from(draws), st.floats().map(repr)))
    text, lineno = _with_value(kind, section, key, raw)
    path = tmp_path_factory.getbasetemp() / "field.cfg"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_io.main(["check", "--config", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if err.getvalue().startswith("config error"):
        assert key in err.getvalue()
        # an error at the drawn line cites the column of the value
        at = re.search(r"\(line (\d+), col (\d+)\)$", err.getvalue())
        if at and int(at[1]) == lineno:
            assert int(at[2]) == len(f"{key} = ") + 1


_SPACE = st.sampled_from(["", " ", "\t", "  ", " \t"])
#: values of every reader, malformed ones, and text no reader takes
_GRAMMAR_VALUES = [*_VALID, *_MALFORMED, *_EXTREME, "x²", "²", "２", "٣", "é*x", "1.2.3", "x^1..5",
                   "0.5 # note", "∞", ""]
#: a drawn value, or a string of the expression grammar's characters and
#: of characters it does not know
_GRAMMAR_VALUE = st.one_of(st.sampled_from(_GRAMMAR_VALUES),
                           st.text("0123456789.eEi+-*^(),x ²٣é∞\t", min_size=1, max_size=8))
_GRAMMAR_LINE = st.one_of(
    # key = value, of a known or an unknown key, spaced with blanks and tabs
    st.builds("{}{}{}={}{}".format, _SPACE,
              st.sampled_from(sorted({k for _, k in cli_io._KEYS} | {"foo", "ñame", "Gamma"})),
              _SPACE, _SPACE, _GRAMMAR_VALUE),
    # a section header, known or not
    st.builds("{}[{}]{}".format, _SPACE,
              st.sampled_from([*sorted(cli_io._SECTIONS), "unknown", "Scenario", " grid ", "ñ", ""]),
              _SPACE),
    # comments, blank lines, a line without =, an empty value, broken headers
    st.sampled_from(["", "   ", "\t", "# comment", "  # ünïcödé", "gamma 2", "= 2", "gamma =",
                     "rho = # a comment", "名前 = 値", "[scenario", "scenario]", "\ufeff[scenario]"]),
)


def _respaced(line: str, space: str, note: str) -> str:
    """``line`` with ``space`` around its first ``=`` and before it, and the
    comment ``note`` after it."""
    key, eq, value = line.partition("=")
    body = f"{key.strip()}{space}{eq}{space}{value.strip()}" if eq else line
    return f"{space}{body}{note}"


@st.composite
def _config_texts(draw) -> str:
    """A config of the grammar: a known config's lines, respaced with blanks
    and tabs, commented, given other values, or with lines inserted,
    replaced, deleted or repeated (a repeated header or key), joined by LF
    or CRLF."""
    lines = draw(st.sampled_from(sorted(PARSE_CASES.values()))).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["respace", "revalue", "revalue", "insert", "replace", "delete",
                                   "repeat"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "insert" or not lines:
            lines.insert(i + draw(st.integers(0, 1)), draw(_GRAMMAR_LINE))
        elif op == "revalue":
            key, eq, _ = lines[i].partition("=")
            lines[i] = f"{key}{eq or ' = '}{draw(_SPACE)}{draw(_GRAMMAR_VALUE)}"
        elif op == "respace":
            note = draw(st.sampled_from(["", " # note", "\t# ünïcödé", "#"]))
            lines[i] = _respaced(lines[i], draw(_SPACE), note)
        elif op == "replace":
            lines[i] = draw(_GRAMMAR_LINE)
        elif op == "delete":
            del lines[i]
        else:
            lines.insert(draw(st.integers(i, len(lines))), lines[i])
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol


@pytest.mark.parametrize("command", [["check"], ["sweep", "--re=-1:1:1", "--im=0:1:0.5"],
                                     ["oracle", "--meshes", "16,32"]],
                         ids=["check", "sweep", "oracle"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(text=_config_texts())
def test_config_grammar_exit_0_1_or_2(command, text, tmp_path_factory):
    base = tmp_path_factory.getbasetemp()
    path = base / "grammar.cfg"
    path.write_bytes(text.encode("utf-8"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_io.main([command[0], "--config", str(path), "--out", str(base / "grammar.out"),
                            *command[1:]])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if err.getvalue().startswith("config error"):
        assert re.search(r"\(line \d+, col \d+\)$", err.getvalue().rstrip("\n")), err.getvalue()


_RANK_ONE_PHI = exponential(math.sqrt(2.0), -1.0)
#: (kind, key, raw value, the builder call on the read value) of each range
#: rule of a scenario parameter
RANGE_RULES = [
    ("shirley", "gamma", "1.7", lambda v: catalog.build_shirley(v, 1 + 0j, None)),
    *(("konzert", "gamma", raw, lambda v: catalog.build_konzert(v, None))
      for raw in ("0", "0.5", "nan")),
    *(("rank_one", "alpha", raw, lambda v: catalog.build_halfline_schrodinger(
        1j, catalog.RankOnePerturbation(v, _RANK_ONE_PHI, 0j))) for raw in ("0", "-1", "inf", "nan")),
    ("rank_one", "h", "1-1i", lambda v: catalog.build_halfline_schrodinger(
        v, catalog.RankOnePerturbation(1.0, _RANK_ONE_PHI, 0j))),
]


@pytest.mark.parametrize("kind, key, raw, build", RANGE_RULES,
                         ids=[f"{kind}_{key}_{raw}" for kind, key, raw, _ in RANGE_RULES])
def test_each_range_is_stated_once(kind, key, raw, build):
    # the builder and the config reader refuse a value with one message;
    # the reader adds the value's position
    value = cli_io.parse_complex(raw) if key == "h" else float(raw)
    with pytest.raises(catalog.CatalogError) as built:
        build(value)
    text, lineno = _with_value(kind, "scenario", key, raw)
    with pytest.raises(cli_io.ConfigError) as read:
        cli_io.parse_config(text)
    assert str(read.value) == f"{built.value} (line {lineno}, col {len(key) + 4})"


DEFAULT_OWNERS = [
    (("grid", "offset"), [(catalog.build_shirley, "offset"), (catalog.build_konzert, "offset")]),
    (("grid", "R"), [(catalog.build_potsdam, "r"), (catalog.build_halfline_schrodinger, "r")]),
    (("oracle", "meshes"), [(oracle.cross_validate, "meshes")]),
    (("oracle", "tol"), [(oracle.cross_validate, "tol")]),
]


@pytest.mark.parametrize("key, owners", DEFAULT_OWNERS, ids=["%s_%s" % key for key, _ in DEFAULT_OWNERS])
def test_config_defaults_are_the_library_defaults(key, owners):
    # a key the config leaves out takes the default of the function it feeds
    default = cli_io._KEYS[key][1]
    for fn, name in owners:
        assert inspect.signature(fn).parameters[name].default == default, fn.__name__
