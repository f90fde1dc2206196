"""Configuration parsing, check/sweep/oracle commands, result serialization.

Scenario configs are plain-text files with ``[section]`` headers and
``key = value`` lines.  Function-valued parameters use a small closed
expression grammar (sums and products of complex scalars, ``x`` powers,
``exp`` of affine arguments, and interval indicators) that either parses or
fails with a line/column annotated diagnostic::

    [scenario]
    name = shirley
    gamma = 2
    rho = 0.5+0.375i
    phi = x^2 - x

    [grid]
    n = 512        # accepted, ignored
    offset = 1e-6

    [oracle]
    meshes = 64,128,256
    tol = 1e-6

    [sweep]
    re = -1:2:0.05
    im = -1:2:0.05

    [output]
    format = json
    path = out.json

Commands: ``check`` prints one JSON verdict (exit 0 dissipative, 1 not,
2 outside-theory or error), ``sweep`` maps a rectangle of boundary
parameters to margins (CSV or JSON, byte-identical across reruns), and
``oracle`` runs the discretized numerical-range cross-check.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import catalog, criteria, eigenh, forms, oracle
from .analytic import AnalyticFunction, AnalyticError, Term, exponential, indicator, norm_sq
from .catalog import ExtensionProblem, RHO_INF, is_inf
from .grid import GridError, make_grid, span_decay_certificate

__all__ = [
    "ConfigError",
    "ExpressionError",
    "parse_expression",
    "parse_complex",
    "ScenarioConfig",
    "parse_config",
    "serialize_config",
    "build_problem",
    "run_check",
    "run_sweep",
    "run_oracle",
    "main",
]

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"

_SCENARIOS = ("potsdam", "shirley", "konzert", "halfline_schrodinger")
_SINGULAR_SCENARIOS = ("shirley", "konzert")


class ConfigError(Exception):
    """Config rejected; carries a (line, column) position when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line, self.col = line, col
        where = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(message + where)


class ExpressionError(Exception):
    """Expression rejected at a definite character offset."""

    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} at position {pos}")


# error bases of the package, and a closed form that overflows in float
# arithmetic: any of them means "outside the theory or an error" (exit 2),
# never "not dissipative"
_LIBRARY_ERRORS = (ConfigError, ExpressionError, catalog.CatalogError, criteria.CriteriaError,
                   forms.FormsError, oracle.OracleError, GridError, AnalyticError,
                   eigenh.EigenError, OverflowError)


# ---------------------------------------------------------------------------
# expression grammar


class _Tok:
    def __init__(self, kind: str, text: str, pos: int):
        self.kind, self.text, self.pos = kind, text, pos


def _tokenize(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            if j < n and src[j] == "i":
                toks.append(_Tok("imag", src[i:j], i))
                j += 1
            else:
                toks.append(_Tok("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Tok("name", src[i:j], i))
            i = j
            continue
        if ch in "+-*^(),":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    toks.append(_Tok("end", "", n))
    return toks


class _Parser:
    """Recursive-descent parser of the closed scenario-function grammar."""

    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.k = 0

    def peek(self) -> _Tok:
        return self.toks[self.k]

    def take(self, kind: str | None = None) -> _Tok:
        tok = self.toks[self.k]
        if kind is not None and tok.kind != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok.text or 'end'!r}", tok.pos)
        self.k += 1
        return tok

    def parse(self) -> AnalyticFunction:
        fn = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"trailing input {tok.text!r}", tok.pos)
        return fn

    def expr(self) -> AnalyticFunction:
        out = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> AnalyticFunction:
        out = self.unary()
        while self.peek().kind == "*":
            self.take()
            out = out * self.unary()
        return out

    def unary(self) -> AnalyticFunction:
        if self.peek().kind == "-":
            self.take()
            return self.unary() * (-1.0)
        if self.peek().kind == "+":
            self.take()
            return self.unary()
        return self.postfix()

    def postfix(self) -> AnalyticFunction:
        tok = self.peek()
        base = self.atom()
        if self.peek().kind != "^":
            return base
        self.take()
        expo = self._signed_number()
        if len(base.terms) == 1 and base.terms[0] == Term(1.0 + 0j, 1.0, 0.0):
            return AnalyticFunction((Term(1.0, expo, 0.0),))
        if expo.imag == 0 and expo.real == round(expo.real) and 0 <= expo.real <= 16:
            out = AnalyticFunction((Term(1.0 + 0j),))
            for _ in range(int(expo.real)):
                out = out * base
            return out
        raise ExpressionError(
            "fractional powers apply to the bare variable x only", tok.pos
        )

    def _signed_number(self) -> complex:
        sign = 1.0
        while self.peek().kind in ("+", "-"):
            if self.take().kind == "-":
                sign = -sign
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return sign * float(tok.text)
        if tok.kind == "imag":
            self.take()
            return sign * 1j * float(tok.text)
        raise ExpressionError("expected a numeric exponent", tok.pos)

    def atom(self) -> AnalyticFunction:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return AnalyticFunction((Term(complex(float(tok.text)), 0.0),))
        if tok.kind == "imag":
            self.take()
            return AnalyticFunction((Term(1j * float(tok.text), 0.0),))
        if tok.kind == "(":
            self.take()
            out = self.expr()
            self.take(")")
            return out
        if tok.kind == "name":
            if tok.text == "x":
                self.take()
                return AnalyticFunction((Term(1.0 + 0j, 1.0),))
            if tok.text == "i":
                self.take()
                return AnalyticFunction((Term(1j, 0.0),))
            if tok.text == "exp":
                self.take()
                self.take("(")
                arg = self.expr()
                self.take(")")
                return self._exp_of(arg, tok.pos)
            if tok.text == "indicator":
                self.take()
                self.take("(")
                lo = self._signed_number()
                self.take(",")
                hi = self._signed_number()
                self.take(")")
                if lo.imag != 0 or hi.imag != 0 or hi.real <= lo.real:
                    raise ExpressionError("indicator needs real bounds with lo < hi", tok.pos)
                return indicator(lo.real, hi.real)
            raise ExpressionError(f"unknown name {tok.text!r}", tok.pos)
        raise ExpressionError(f"unexpected token {tok.text or 'end'!r}", tok.pos)

    def _exp_of(self, arg: AnalyticFunction, pos: int) -> AnalyticFunction:
        c0 = 0.0 + 0.0j
        c1 = 0.0 + 0.0j
        for t in arg.terms:
            if t.windowed or t.rate != 0:
                raise ExpressionError("exp argument must be affine in x", pos)
            if t.power == 0:
                c0 += t.coeff
            elif t.power == 1.0 + 0j:
                c1 += t.coeff
            else:
                raise ExpressionError("exp argument must be affine in x", pos)
        return exponential(complex(np.exp(c0)), c1)


def parse_expression(src: str) -> AnalyticFunction:
    """Parse one scenario function; raises :class:`ExpressionError`."""
    return _Parser(src).parse()


def parse_complex(src: str) -> complex:
    """Parse a complex scalar like ``0.5+0.375i``; ``inf`` is the point at
    infinity of the boundary-parameter sphere."""
    s = src.strip()
    if s == "inf":
        return RHO_INF
    fn = parse_expression(s)
    for t in fn.terms:
        if t.power != 0 or t.rate != 0 or t.windowed:
            raise ExpressionError("expected a constant", 0)
    return complex(sum(t.coeff for t in fn.terms))


# ---------------------------------------------------------------------------
# config files


_SECTION_KEYS = {
    "scenario": ("name", "gamma", "rho", "phi", "W", "ell", "h", "perturbation",
                 "alpha", "lambda", "V", "k"),
    "grid": ("n", "offset", "R"),
    "oracle": ("meshes", "tol"),
    "sweep": ("re", "im"),
    "output": ("format", "path"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario configuration.

    ``params`` keeps the raw value strings keyed by section and name, in
    canonical order, so that serialize/parse round-trips exactly.
    """

    scenario: str
    params: tuple[tuple[str, str, str], ...]  # (section, key, raw value)

    def get(self, section: str, key: str, default: str | None = None) -> str | None:
        for s, k, v in self.params:
            if s == section and k == key:
                return v
        return default

    @property
    def grid_n(self) -> int:
        return _read_number(self.get("grid", "n", "512"), "[grid] n", int)

    @property
    def grid_offset(self) -> float:
        default = "1e-6" if self.scenario in _SINGULAR_SCENARIOS else "0"
        return _read_number(self.get("grid", "offset", default), "[grid] offset")

    @property
    def grid_r(self) -> float:
        return _read_number(self.get("grid", "R", "40"), "[grid] R")

    @property
    def meshes(self) -> tuple[int, ...]:
        raw = self.get("oracle", "meshes", "64,128,256")
        return tuple(_read_number(p, "[oracle] meshes", int) for p in raw.split(","))

    @property
    def tol(self) -> float:
        return _read_number(self.get("oracle", "tol", "1e-6"), "[oracle] tol")

    @property
    def out_format(self) -> str:
        return self.get("output", "format", "json")

    @property
    def out_path(self) -> str | None:
        return self.get("output", "path")

    def sweep_axis(self, name: str) -> tuple[float, float, float] | None:
        raw = self.get("sweep", name)
        return None if raw is None else _read_axis(raw, f"[sweep] {name}")


def _read_number(raw: str, what: str, kind=float, where: tuple = (None, None)):
    """``kind(raw)``; a malformed number raises a ConfigError naming ``what``
    (``[section] key``) at ``where`` (line, column) when known."""
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{what} must be {kind.__name__}, got {raw!r}", *where) from None


def _read_axis(raw: str, what: str) -> tuple[float, float, float]:
    """A sweep axis ``min:max:step`` of finite numbers."""
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{what} must be min:max:step, got {raw!r}")
    lo, hi, step = (_read_number(p, what) for p in parts)
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise ConfigError(f"{what} needs finite numbers with step > 0 and max >= min, got {raw!r}")
    return lo, hi, step


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a config; diagnostics carry line/column."""
    section = None
    entries: list[tuple[str, str, str]] = []
    positions: dict[tuple[str, str], tuple[int, int]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = raw_line.index(stripped[0]) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header", lineno, col)
            section = stripped[1:-1].strip()
            if section not in _SECTION_KEYS:
                raise ConfigError(f"unknown section [{section}]", lineno, col)
            continue
        if section is None:
            raise ConfigError("key outside any section", lineno, col)
        if "=" not in stripped:
            raise ConfigError("expected key = value", lineno, col)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SECTION_KEYS[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno, col)
        if (section, key) in positions:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", lineno, col)
        positions[(section, key)] = (lineno, raw_line.index("=") + 2)
        entries.append((section, key, value))
    name = None
    for s, k, v in entries:
        if s == "scenario" and k == "name":
            name = v
    if name is None:
        raise ConfigError(
            "missing required key: [scenario] name "
            f"(one of {', '.join(_SCENARIOS)})"
        )
    if name not in _SCENARIOS:
        line, col = positions.get(("scenario", "name"), (None, None))
        raise ConfigError(f"unknown scenario {name!r}", line, col)
    cfg = ScenarioConfig(name, tuple(entries))
    _validate(cfg, positions)
    return cfg


def _value_error(positions, section, key, message) -> ConfigError:
    line, col = positions.get((section, key), (None, None))
    return ConfigError(message, line, col)


def _validate(cfg: ScenarioConfig, positions) -> None:
    def check_expr(key: str) -> None:
        raw = cfg.get("scenario", key)
        if raw is None:
            return
        try:
            parse_expression(raw)
        except ExpressionError as exc:
            line, col = positions.get(("scenario", key), (None, None))
            raise ConfigError(f"bad expression for {key}: {exc}", line, col) from None

    def number(key: str) -> float:
        where = positions.get(("scenario", key), (None, None))
        return _read_number(cfg.get("scenario", key), f"[scenario] {key}", where=where)

    def check_complex(key: str) -> None:
        raw = cfg.get("scenario", key)
        if raw is None:
            return
        try:
            parse_complex(raw)
        except ExpressionError as exc:
            line, col = positions.get(("scenario", key), (None, None))
            raise ConfigError(f"bad complex value for {key}: {exc}", line, col) from None

    for key in ("phi", "W", "ell", "V", "k"):
        check_expr(key)
    for key in ("rho", "h", "lambda"):
        check_complex(key)
    name = cfg.scenario
    if name == "shirley":
        gamma = cfg.get("scenario", "gamma")
        if gamma is None:
            raise ConfigError("shirley needs gamma (>= sqrt(3))")
        if number("gamma") < catalog.SHIRLEY_GAMMA_MIN - 1e-12:
            raise _value_error(positions, "scenario", "gamma",
                               f"gamma must be >= sqrt(3) ~ 1.732, got {gamma}")
        if cfg.get("scenario", "rho") is None:
            raise ConfigError("shirley needs rho (complex or inf)")
    elif name == "konzert":
        gamma = cfg.get("scenario", "gamma")
        if gamma is None:
            raise ConfigError("konzert needs gamma in (0, 1/2)")
        if not (0.0 < number("gamma") < 0.5):
            raise _value_error(positions, "scenario", "gamma",
                               f"gamma must satisfy 0 < gamma < 1/2, got {gamma}")
    elif name == "potsdam":
        if cfg.get("scenario", "rho") is None:
            raise ConfigError("potsdam needs rho (complex or inf)")
    else:  # halfline_schrodinger
        if cfg.get("scenario", "h") is None:
            raise ConfigError("halfline_schrodinger needs h (complex or inf)")
        pert = cfg.get("scenario", "perturbation", "rank_one")
        if pert not in ("rank_one", "multiplication"):
            raise _value_error(positions, "scenario", "perturbation",
                               f"perturbation must be rank_one or multiplication, got {pert!r}")
        if pert == "rank_one":
            if cfg.get("scenario", "alpha") is not None and number("alpha") <= 0:
                raise _value_error(positions, "scenario", "alpha",
                                   "rank-one strength alpha must be positive")
        else:
            if cfg.get("scenario", "V") is None or cfg.get("scenario", "k") is None:
                raise ConfigError("multiplication perturbation needs V and k expressions")
        h = parse_complex(cfg.get("scenario", "h"))
        if not is_inf(h) and h.imag < 0:
            raise _value_error(positions, "scenario", "h",
                               "Im h < 0 is not a dissipative boundary condition")
    if cfg.get("output", "format") not in (None, "csv", "json"):
        raise _value_error(positions, "output", "format", "format must be csv or json")


def serialize_config(cfg: ScenarioConfig) -> str:
    lines = []
    current = None
    for section, key, value in cfg.params:
        if section != current:
            if current is not None:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config -> problem


def _maybe_expr(cfg: ScenarioConfig, key: str) -> AnalyticFunction | None:
    raw = cfg.get("scenario", key)
    if raw is None:
        return None
    return parse_expression(raw)


def build_problem(cfg: ScenarioConfig, rho_override: complex | None = None) -> ExtensionProblem:
    """Instantiate the configured scenario (optionally overriding rho)."""
    n = cfg.grid_n
    name = cfg.scenario
    if name == "potsdam":
        rho = rho_override if rho_override is not None else parse_complex(cfg.get("scenario", "rho"))
        return catalog.build_potsdam(
            _maybe_expr(cfg, "W"), rho, _maybe_expr(cfg, "phi"), n=n, r=cfg.grid_r
        )
    if name == "shirley":
        rho = rho_override if rho_override is not None else parse_complex(cfg.get("scenario", "rho"))
        return catalog.build_shirley(
            float(cfg.get("scenario", "gamma")), rho, _maybe_expr(cfg, "phi"),
            n=n, offset=cfg.grid_offset,
        )
    if name == "konzert":
        return catalog.build_konzert(
            float(cfg.get("scenario", "gamma")), _maybe_expr(cfg, "ell"),
            n=n, offset=cfg.grid_offset,
        )
    h = rho_override if rho_override is not None else parse_complex(cfg.get("scenario", "h"))
    grid = make_grid("halfline", n, length=cfg.grid_r)
    if cfg.get("scenario", "perturbation", "rank_one") == "rank_one":
        alpha = float(cfg.get("scenario", "alpha", "1"))
        lam = parse_complex(cfg.get("scenario", "lambda", "0"))
        phi_fn = _maybe_expr(cfg, "phi")
        if phi_fn is None:
            phi_fn = exponential(math.sqrt(2.0), -1.0)
        nrm = math.sqrt(norm_sq(phi_fn, 0.0, grid.right_endpoint))
        if abs(nrm - 1.0) > 1e-10:
            # the deviation scale refers to the normalized direction
            phi_fn = phi_fn * (1.0 / nrm)
        pert = catalog.RankOnePerturbation(alpha, phi_fn, lam)
    else:
        pert = catalog.MultiplicationPerturbation(parse_expression(cfg.get("scenario", "V")),
                                                  parse_expression(cfg.get("scenario", "k")))
    return catalog.build_halfline_schrodinger(h, pert, n=n, r=cfg.grid_r)


# ---------------------------------------------------------------------------
# result serialization


def _jsonable(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def verdict_to_dict(cfg: ScenarioConfig, problem: ExtensionProblem, verdict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "scenario": cfg.scenario,
        "criterion": verdict.criterion,
        "lhs": _jsonable(verdict.lhs),
        "rhs": _jsonable(verdict.rhs),
        "margin": _jsonable(verdict.margin),
        "dissipative": verdict.dissipative,
        "necessity_failures": list(verdict.necessity_failures),
        "maximally_dissipative": problem.maximally_dissipative,
    }


def run_check(cfg: ScenarioConfig) -> tuple[int, dict]:
    """Evaluate the configured check; returns (exit code, JSON payload)."""
    try:
        problem = build_problem(cfg)
        verdict = criteria.decide(problem)
    except _LIBRARY_ERRORS as exc:
        return 2, _error_payload(exc)
    payload = verdict_to_dict(cfg, problem, verdict)
    if verdict.dissipative is None:
        return 2, payload
    return (0 if verdict.dissipative else 1), payload


def _error_payload(exc: Exception) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "error": {"code": type(exc).__name__, "message": str(exc)},
    }


def _axis_points(axis: tuple[float, float, float]) -> list[float]:
    lo, hi, step = axis
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + i * step for i in range(count)]


def _sweep_conic(cfg: ScenarioConfig) -> criteria.MarginConic | None:
    """The margin conic of a sweep (:func:`criteria.margin_conic`) between its
    anchor problems at ``rho = 0`` and ``rho = inf``; None when an anchor
    fails to build, to decide or a membership, or when the decay certificate
    of a half-line problem is not vouched for on the whole span."""
    try:
        at_zero = build_problem(cfg, rho_override=0j)
        at_inf = build_problem(cfg, rho_override=RHO_INF)
        grid = at_zero.grid
        if grid.is_halfline and not span_decay_certificate((at_zero.v, at_inf.v), grid.length):
            return None
        return criteria.margin_conic(at_zero, at_inf)
    except _LIBRARY_ERRORS:
        # the points are then built and decided one by one, and the first
        # that fails raises its own error, as ``check`` does
        return None


def run_sweep(
    cfg: ScenarioConfig,
    re_axis: tuple[float, float, float],
    im_axis: tuple[float, float, float],
    max_workers: int | None = None,
) -> dict:
    """Margin map over a rectangle of boundary parameters.

    Rows are in row-major order (re outer, im inner); identical inputs
    produce byte-identical files.  The extension vector of every sweepable
    scenario is ``a + rho b``, with ``a`` and ``b`` the vectors of the anchor
    problems at ``rho = 0`` and ``rho = inf``, so each margin is the value of
    one conic whose four coefficients come from four :func:`criteria.decide`
    calls (:func:`criteria.margin_conic`).  Its low bits differ from those
    of ``check`` at the same point, which sums in another order.  A point
    still has the checks of its own boundary parameter
    (:func:`catalog.check_boundary_parameter`).  The points of a sweep whose
    anchors fail (a membership, an error, or a half-line span without
    :func:`grid.span_decay_certificate`), and any point where the conic
    overflows, are built and decided one by one, so a failed membership
    writes ``null`` in JSON and an error is that of ``check``.
    ``max_workers`` is accepted and ignored.
    """
    if cfg.scenario not in ("potsdam", "shirley", "halfline_schrodinger"):
        raise ConfigError(f"scenario {cfg.scenario} has no boundary parameter to sweep")
    res = _axis_points(re_axis)
    ims = _axis_points(im_axis)
    conic = _sweep_conic(cfg)

    rows = []
    for re in res:
        for im in ims:
            rho = complex(re, im)
            margin = math.nan
            if conic is not None:
                catalog.check_boundary_parameter(cfg.scenario, rho)
                try:
                    margin = conic(rho)
                except OverflowError:
                    pass
            if math.isfinite(margin):
                dissipative = bool(margin >= -criteria.MARGIN_TOL)
            else:
                verdict = criteria.decide(build_problem(cfg, rho_override=rho))
                margin, dissipative = verdict.margin, verdict.dissipative
            rows.append({"re_rho": re, "im_rho": im, "margin": _jsonable(margin),
                         "dissipative": dissipative})
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "scenario": cfg.scenario,
        "parameters": {k: v for s, k, v in cfg.params if s == "scenario" and k != "name"},
        "axes": {"re": list(re_axis), "im": list(im_axis)},
        "rows": rows,
    }


def sweep_to_csv(payload: dict) -> str:
    lines = ["re_rho,im_rho,margin,dissipative"]
    for row in payload["rows"]:
        margin = math.nan if row["margin"] is None else row["margin"]
        lines.append(
            f"{row['re_rho']!r},{row['im_rho']!r},{margin!r},"
            f"{'true' if row['dissipative'] else 'false'}"
        )
    return "\n".join(lines) + "\n"


def run_oracle(cfg: ScenarioConfig) -> tuple[int, dict]:
    """Cross-validate the configured verdict against the discrete infimum."""
    try:
        problem = build_problem(cfg)
        verdict = criteria.decide(problem)
        if verdict.dissipative is None:
            return 2, verdict_to_dict(cfg, problem, verdict)
        report = oracle.cross_validate(problem, verdict, cfg.meshes, tol=cfg.tol)
    except _LIBRARY_ERRORS as exc:
        return 2, _error_payload(exc)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "scenario": cfg.scenario,
        "verdict": verdict_to_dict(cfg, problem, verdict),
        "meshes": list(report.meshes),
        "infima": [_jsonable(x) for x in report.infima],
        "extrapolated": _jsonable(report.extrapolated),
        "convergence_order": _jsonable(report.order) if report.order is not None else None,
        "agree": report.agree,
        "resolution_limited": report.resolution_limited,
        "resolution_threshold": report.threshold,
        "note": report.note,
    }
    ok = bool(report.agree) or report.resolution_limited
    return (0 if ok else 1), payload


# ---------------------------------------------------------------------------
# entry point


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dissipext",
        description="Decide dissipativity of catalogued operator extensions "
        "and cross-check against a discretized numerical range.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "sweep", "oracle"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if name == "sweep":
            p.add_argument("--format", choices=("csv", "json"), default=None)
            p.add_argument("--re", default=None, help="re axis min:max:step")
            p.add_argument("--im", default=None, help="im axis min:max:step")
        if name == "oracle":
            p.add_argument("--meshes", default=None, help="comma list, e.g. 64,128,256")
            p.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        sys.stderr.write(f"cannot read config: {exc}\n")
        return 2
    except (ConfigError, ExpressionError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2

    out_path = args.out if args.out is not None else cfg.out_path
    try:
        if args.command == "check":
            code, payload = run_check(cfg)
            _emit(_dump_json(payload), out_path)
            return code
        if args.command == "sweep":
            re_axis = _read_axis(args.re, "--re") if args.re else cfg.sweep_axis("re")
            im_axis = _read_axis(args.im, "--im") if args.im else cfg.sweep_axis("im")
            if re_axis is None or im_axis is None:
                sys.stderr.write("sweep needs [sweep] re/im axes or --re/--im flags\n")
                return 2
            payload = run_sweep(cfg, re_axis, im_axis)
            fmt = args.format if args.format is not None else cfg.out_format
            text = sweep_to_csv(payload) if fmt == "csv" else _dump_json(payload)
            _emit(text, out_path)
            return 0
        # oracle
        if args.meshes is not None or args.tol is not None:
            extra = []
            if args.meshes is not None:
                extra.append(("oracle", "meshes", args.meshes))
            if args.tol is not None:
                extra.append(("oracle", "tol", repr(args.tol)))
            kept = tuple(
                (s, k, v) for (s, k, v) in cfg.params
                if not (s == "oracle" and any(k == e[1] for e in extra))
            )
            cfg = replace(cfg, params=kept + tuple(extra))
        code, payload = run_oracle(cfg)
        _emit(_dump_json(payload), out_path)
        return code
    except _LIBRARY_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
