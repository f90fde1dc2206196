import json
import math

import numpy as np
import pytest

from dissipext import cli_io
from dissipext.analytic import Term


SHIRLEY_CFG = """\
[scenario]
name = shirley
gamma = 2
rho = 0.5+0.375i
phi = x^2 - x

[grid]
n = 256
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
    assert cfg.grid_n == 256
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
    # on the sweep's n=64 grid the normalized direction's exact and quadrature
    # norms differ by more than the rank-one range threshold
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
    cfg = tmp_path / "s.cfg"
    cfg.write_text(SHIRLEY_CFG.replace("n = 256", "n = abc"))
    code = cli_io.main(["check", "--config", str(cfg)])
    assert code == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "ConfigError"
    assert "[grid] n" in error["message"]


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
        cli_io._parse_axis_flag("0:1:0")
