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
import cmath
import json
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, catalog, criteria, eigenh, forms, oracle
from .analytic import AnalyticFunction, AnalyticError, Term, exponential, indicator
from .catalog import ExtensionProblem, RHO_INF
from .grid import GridError, span_decay_certificate

__all__ = [
    "ConfigError",
    "ExpressionError",
    "parse_expression",
    "parse_complex",
    "ScenarioConfig",
    "parse_config",
    "build_problem",
    "run_check",
    "run_sweep",
    "run_oracle",
    "main",
]

SCHEMA_VERSION = 1
TOOL_VERSION = __version__

_SCENARIOS = ("potsdam", "shirley", "konzert", "halfline_schrodinger")
_RANK_ONE_PHI = exponential(math.sqrt(2.0), -1.0)  # the direction of a rank-one config without phi


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
        ch, j = src[i], i + 1
        if ch.isspace():
            pass
        elif ch.isdigit() or (ch == "." and j < n and src[j].isdigit()):
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1 + (src[j + 1:j + 2] in ("+", "-"))  # past the exponent's sign
                if k < n and src[k].isdigit():
                    j = k + 1
                    while j < n and src[j].isdigit():
                        j += 1
            imag = j < n and src[j] == "i"
            toks.append(_Tok("imag" if imag else "num", src[i:j], i))
            j += imag
        elif ch.isalpha() or ch == "_":
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Tok("name", src[i:j], i))
        elif ch in "+-*^(),":
            toks.append(_Tok(ch, ch, i))
        else:
            raise ExpressionError(f"unexpected character {ch!r}", i)
        i = j
    toks.append(_Tok("end", "", n))
    return toks


def _number(tok: _Tok) -> float:
    """The value of a ``num`` or ``imag`` token; an ExpressionError where float()
    does not read its text (two points, or a digit like ``²``) or reads inf."""
    try:
        value = float(tok.text)
    except ValueError:
        raise ExpressionError(f"malformed number {tok.text!r}", tok.pos) from None
    if math.isinf(value):
        raise ExpressionError(f"number {tok.text!r} is beyond the float range", tok.pos)
    return value


def _function(value) -> AnalyticFunction:
    """A parsed value as a function: a constant is its one term (none for 0)."""
    return value if isinstance(value, AnalyticFunction) else AnalyticFunction((Term(value, 0.0),))


def _combine(op: str, a, b, pos: int):
    """``a + b``, ``a - b`` or ``a * b`` of two parsed values; an ExpressionError
    at ``pos`` where a coefficient, power or rate is not finite."""
    if op == "-":  # a + (-1) b, as the term sums form it
        op, b = "+", b * (-1.0) if isinstance(b, AnalyticFunction) else 0.0 + b * complex(-1.0)
    if isinstance(a, complex) and isinstance(b, complex):
        # the merge of the two terms begins from 0.0; a constant 0 has no term
        out = (a + b if a and b else a or b) if op == "+" else (0.0 + a * b if a and b else 0j)
        finite, out = cmath.isfinite(out), out if out else 0j
    else:
        out = _function(a) + _function(b) if op == "+" else _function(a) * _function(b)
        finite = all(map(cmath.isfinite, (z for t in out.terms for z in t[:3])))
    if not finite:
        raise ExpressionError("value beyond the float range", pos)
    return out


class _Parser:
    """Recursive-descent parser of the closed scenario-function grammar.  A
    constant (numbers, ``i``, their sums and products) is a complex number:
    the coefficient of its one term, formed by the same float operations."""

    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.k = 0

    def take(self, kind: str | None = None) -> _Tok:
        tok = self.toks[self.k]
        if kind is not None and tok.kind != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok.text or 'end'!r}", tok.pos)
        self.k += 1
        return tok

    def accept(self, *kinds: str) -> _Tok | None:
        tok = self.toks[self.k]
        if tok.kind not in kinds:
            return None
        self.k += 1
        return tok

    def parse(self) -> AnalyticFunction | complex:
        """The function of the source, or the complex number it folds to."""
        value = self.expr()
        tok = self.toks[self.k]
        if tok.kind != "end":
            raise ExpressionError(f"trailing input {tok.text!r}", tok.pos)
        return value

    def expr(self):
        out = self.term()
        while op := self.accept("+", "-"):
            out = _combine(op.kind, out, self.term(), op.pos)
        return out

    def term(self):
        out = self.unary()
        while op := self.accept("*"):
            out = _combine("*", out, self.unary(), op.pos)
        return out

    def unary(self):
        if op := self.accept("-"):
            return _combine("-", 0j, self.unary(), op.pos)
        return self.unary() if self.accept("+") else self.postfix()

    def postfix(self):
        pos = self.toks[self.k].pos
        base = self.atom()
        if not (op := self.accept("^")):
            return base
        expo = self._signed_number()
        if isinstance(base, AnalyticFunction) and base.terms == (Term(1.0 + 0j, 1.0, 0.0),):
            return AnalyticFunction((Term(1.0, expo, 0.0),))
        if expo.imag == 0 and expo.real == round(expo.real) and 0 <= expo.real <= 16:
            out = 1.0 + 0j
            for _ in range(int(expo.real)):
                out = _combine("*", out, base, op.pos)
            return out
        raise ExpressionError("fractional powers apply to the bare variable x only", pos)

    def _signed_number(self) -> complex:
        sign = 1.0
        while tok := self.accept("+", "-"):
            sign = -sign if tok.kind == "-" else sign
        tok = self.accept("num", "imag")
        if tok is None:
            raise ExpressionError("expected a numeric exponent", self.toks[self.k].pos)
        return sign * _number(tok) if tok.kind == "num" else sign * 1j * _number(tok)

    def atom(self):
        tok = self.take()
        if tok.kind in ("num", "imag"):
            return 0.0 + (complex(_number(tok)) if tok.kind == "num" else 1j * _number(tok))
        if tok.kind == "(":
            out = self.expr()
            self.take(")")
            return out
        if tok.kind != "name":
            raise ExpressionError(f"unexpected token {tok.text or 'end'!r}", tok.pos)
        if tok.text in ("x", "i"):
            return AnalyticFunction((Term(1.0 + 0j, 1.0),)) if tok.text == "x" else 1j
        if tok.text not in ("exp", "indicator"):
            raise ExpressionError(f"unknown name {tok.text!r}", tok.pos)
        self.take("(")
        if tok.text == "exp":
            arg = self.expr()
            self.take(")")
            return self._exp_of(_function(arg), tok.pos)
        lo = self._signed_number()
        self.take(",")
        hi = self._signed_number()
        self.take(")")
        if lo.imag != 0 or hi.imag != 0 or hi.real <= lo.real:
            raise ExpressionError("indicator needs real bounds with lo < hi", tok.pos)
        return indicator(lo.real, hi.real)

    def _exp_of(self, arg: AnalyticFunction, pos: int) -> AnalyticFunction:
        c0 = c1 = 0.0 + 0.0j
        for t in arg.terms:
            if t.windowed or t.rate != 0 or t.power not in (0, 1):
                raise ExpressionError("exp argument must be affine in x", pos)
            if t.power == 0:
                c0 += t.coeff
            else:
                c1 += t.coeff
        with np.errstate(over="ignore", invalid="ignore"):
            scale = complex(np.exp(c0))
        if not cmath.isfinite(scale):
            raise ExpressionError("value beyond the float range", pos)
        return exponential(scale, c1)


def parse_expression(src: str) -> AnalyticFunction:
    """Parse one scenario function; raises :class:`ExpressionError`."""
    return _function(_Parser(src).parse())


def parse_complex(src: str) -> complex:
    """Parse a complex scalar like ``0.5+0.375i``; ``inf`` is the point at
    infinity of the boundary-parameter sphere, and no other value is."""
    s = src.strip()
    if s == "inf":
        return RHO_INF
    value = _Parser(s).parse()
    if isinstance(value, AnalyticFunction):
        if any(t.power != 0 or t.rate != 0 or t.windowed for t in value.terms):
            raise ExpressionError("expected a constant", 0)
        value = complex(sum(t.coeff for t in value.terms))
    return value


# ---------------------------------------------------------------------------
# config files


def _read_number(raw: str, what: str, kind=float):
    """``kind(raw)``; a malformed number raises a ConfigError naming ``what``."""
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{what} must be {kind.__name__}, got {raw!r}") from None


def _axis_numbers(raw: str, what: str) -> tuple[float, float, float]:
    """The numbers of a sweep axis ``min:max:step``, not yet range-checked."""
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{what} must be min:max:step, got {raw!r}")
    return tuple(_read_number(p, what) for p in parts)


def _checked_axis(axis: tuple[float, float, float], raw: str, what: str) -> tuple[float, float, float]:
    lo, hi, step = axis
    if not all(map(math.isfinite, axis)) or step <= 0 or hi < lo:
        raise ConfigError(f"{what} needs finite numbers with step > 0 and max >= min, got {raw!r}")
    return axis


def _read_axis(raw: str, what: str) -> tuple[float, float, float]:
    """A sweep axis ``min:max:step`` of finite numbers."""
    return _checked_axis(_axis_numbers(raw, what), raw, what)


# the readers of config values, ``reader(raw, "[section] key")``; parse_config
# gives a malformed value's ConfigError its position


def _parsed(parse, noun: str):
    def read(raw: str, what: str):
        try:
            return parse(raw)
        except ExpressionError as exc:
            raise ConfigError(f"bad {noun} for {what}: {exc}") from None
    return read


def _one_of(*choices: str):
    def read(raw: str, what: str) -> str:
        if raw not in choices:
            raise ConfigError(f"{what} must be {' or '.join(choices)}, got {raw!r}")
        return raw
    return read


def _ints(raw: str, what: str) -> tuple[int, ...]:
    return tuple(_read_number(p, what, int) for p in raw.split(","))


def _text(raw: str, what: str) -> str:
    return raw


_expression, _complex = _parsed(parse_expression, "expression"), _parsed(parse_complex, "complex value")
_KINDS = ("potsdam", "shirley", "konzert", "rank_one", "multiplication")
_HALFLINE = ("rank_one", "multiplication")
_REQUIRED = object()  # the default of a key the scenarios that read it need

#: every config key: its reader, its value when absent (or _REQUIRED), and
#: the scenarios that read it (rank_one and multiplication stand for
#: halfline_schrodinger with that perturbation); :func:`parse_config` reads
#: the keys in this order and has :func:`catalog.check_parameter` check the
#: range of each [scenario] value
_KEYS = {
    ("scenario", "name"): (_text, None, _KINDS),
    # read before the keys whose need it decides
    ("scenario", "perturbation"): (_one_of(*_HALFLINE), "rank_one", _HALFLINE),
    ("scenario", "phi"): (_expression, None, ("potsdam", "shirley", "rank_one")),
    ("scenario", "W"): (_expression, None, ("potsdam",)),
    ("scenario", "ell"): (_expression, None, ("konzert",)),
    ("scenario", "V"): (_expression, _REQUIRED, ("multiplication",)),
    ("scenario", "k"): (_expression, _REQUIRED, ("multiplication",)),
    ("scenario", "rho"): (_complex, _REQUIRED, ("potsdam", "shirley")),
    ("scenario", "h"): (_complex, _REQUIRED, _HALFLINE),
    ("scenario", "lambda"): (_complex, 0j, ("rank_one",)),
    ("scenario", "gamma"): (_read_number, _REQUIRED, ("shirley", "konzert")),
    ("scenario", "alpha"): (_read_number, 1.0, ("rank_one",)),
    ("output", "format"): (_one_of("csv", "json"), "json", _KINDS),
    ("output", "path"): (_text, None, _KINDS),
    # an interval's left offset (the singular scenarios are the intervals),
    # and a half-line's truncation radius
    ("grid", "offset"): (_read_number, 1e-6, ("shirley", "konzert")),
    ("grid", "R"): (_read_number, 40.0, ("potsdam", *_HALFLINE)),
    ("oracle", "meshes"): (_ints, (64, 128, 256), _KINDS),
    ("oracle", "tol"): (_read_number, 1e-6, _KINDS),
    ("sweep", "re"): (_axis_numbers, None, _KINDS),
    ("sweep", "im"): (_axis_numbers, None, _KINDS),
}
_SECTIONS = {section for section, _ in _KEYS}


#: the keys each kind reads, in the order of :data:`_KEYS`, with their readers,
#: defaults and names; None stands for a perturbation that is neither
_READS = {kind: {key: (reader, default, "[%s] %s" % key)
                 for key, (reader, default, by) in _KEYS.items() if not kinds.isdisjoint(by)}
          for kind, kinds in [*((k, {k}) for k in _KINDS), (None, set(_HALFLINE))]}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario configuration.

    ``params`` keeps the raw value strings in canonical order: the sweep
    payload's ``parameters`` and the error text of :meth:`sweep_axis` quote
    them as the file gave them.  ``values`` maps each (section, key)
    the scenario reads to what its reader gave once in :func:`parse_config`,
    or to its default when absent; it takes no part in equality.
    """

    scenario: str
    params: tuple[tuple[str, str, str], ...]  # (section, key, raw value)
    values: dict = field(default_factory=dict, compare=False, repr=False)

    def get(self, key: str, section: str = "scenario"):
        """The value of ``[section] key`` as :func:`parse_config` read it;
        None for a key the scenario does not read."""
        return self.values.get((section, key))

    @property
    def grid_offset(self) -> float:
        return self.get("offset", "grid")

    @property
    def grid_r(self) -> float:
        return self.get("R", "grid")

    @property
    def meshes(self) -> tuple[int, ...]:
        return self.get("meshes", "oracle")

    @property
    def tol(self) -> float:
        tol = self.get("tol", "oracle")
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ConfigError(f"[oracle] tol must be finite and >= 0, got {tol!r}")
        return tol

    def sweep_axis(self, name: str) -> tuple[float, float, float] | None:
        axis = self.get(name, "sweep")
        raw = next((v for s, k, v in self.params if (s, k) == ("sweep", name)), None)
        return None if axis is None else _checked_axis(axis, raw, f"[sweep] {name}")


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a config, running each present value's reader
    (:data:`_KEYS`) once and checking each [scenario] value's range with
    :func:`catalog.check_parameter`; diagnostics carry line/column."""
    section = None
    raw: dict[tuple[str, str], str] = {}
    where: dict[tuple[str, str], tuple[int, int, int]] = {}  # line, key column, value column
    headers: dict[str, tuple[int, int]] = {}  # a section's first header; a missing key cites it
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.partition("#")[0].strip()
        if not stripped:
            continue
        col = raw_line.index(stripped[0]) + 1
        if stripped[0] == "[":
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header", lineno, col)
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", lineno, col)
            headers.setdefault(section, (lineno, col))
            continue
        if section is None:
            raise ConfigError("key outside any section", lineno, col)
        key, eq, value = stripped.partition("=")
        if not eq:
            raise ConfigError("expected key = value", lineno, col)
        sk = (section, key.strip())
        if sk not in _KEYS:
            raise ConfigError(f"unknown key {sk[1]!r} in [{section}]", lineno, col)
        if sk in where:
            raise ConfigError(f"duplicate key {sk[1]!r} in [{section}]", lineno, col)
        after = raw_line.partition("=")[2]
        where[sk] = (lineno, col, len(raw_line) - len(after.lstrip()) + 1)
        raw[sk] = value.strip()
    name = raw.get(("scenario", "name"))
    if name is None:
        raise ConfigError(f"missing required key: [scenario] name (one of {', '.join(_SCENARIOS)})",
                          *headers.get("scenario", (1, 1)))
    if name not in _SCENARIOS:
        line, _, col = where[("scenario", "name")]
        raise ConfigError(f"unknown scenario {name!r}", line, col)
    reads, scope = _READS.get(name), f"for scenario {name}"
    if name == "halfline_schrodinger":
        pert = raw.get(("scenario", "perturbation"), "rank_one")
        reads = _READS[pert if pert in _HALFLINE else None]
        scope += f" with perturbation = {pert}"
    for (s, k), (line, col, _) in where.items():
        if (s, k) not in reads:
            context = scope if s == "scenario" else f"in [{s}]"
            raise ConfigError(f"unknown key {k!r} {context}", line, col)
    values: dict = {}
    for key, (reader, default, what) in reads.items():
        if key not in raw:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key: {what} {scope}", *headers[key[0]])
            values[key] = default
            continue
        try:
            values[key] = value = reader(raw[key], what)
            if key[0] == "scenario":
                catalog.check_parameter(name, key[1], value)
        except (ConfigError, catalog.CatalogError) as exc:
            line, _, col = where[key]
            raise ConfigError(exc.args[0], line, col) from None
    return ScenarioConfig(name, tuple([(s, k, v) for (s, k), v in raw.items()]), values)


# ---------------------------------------------------------------------------
# config -> problem


def build_problem(cfg: ScenarioConfig, rho_override: complex | None = None) -> ExtensionProblem:
    """Instantiate the configured scenario (optionally overriding rho) from
    the values :func:`parse_config` read."""
    name, get = cfg.scenario, cfg.get
    if rho_override is None:
        rho_override = get("h" if name == "halfline_schrodinger" else "rho")
    if name == "potsdam":
        return catalog.build_potsdam(get("W"), rho_override, get("phi"), r=cfg.grid_r)
    if name == "shirley":
        return catalog.build_shirley(get("gamma"), rho_override, get("phi"), offset=cfg.grid_offset)
    if name == "konzert":
        return catalog.build_konzert(get("gamma"), get("ell"), offset=cfg.grid_offset)
    if get("perturbation") == "rank_one":
        pert = catalog.RankOnePerturbation(get("alpha"), get("phi") or _RANK_ONE_PHI, get("lambda"))
    else:
        pert = catalog.MultiplicationPerturbation(get("V"), get("k"))
    return catalog.build_halfline_schrodinger(rho_override, pert, r=cfg.grid_r)


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
        # maximality is claimed of a dissipative extension only
        "maximally_dissipative": verdict.dissipative and problem.maximally_dissipative,
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


#: the most points a sweep computes; its row dicts take about 400 MB
MAX_SWEEP_POINTS = 10 ** 6


def _axis_count(axis: tuple[float, float, float]) -> float:
    """Number of points of ``min:max:step``; ``inf`` when it is not finite."""
    lo, hi, step = axis
    span = (hi - lo) / step + 1e-9
    return math.floor(span) + 1 if math.isfinite(span) else math.inf


def _axis_points(axis: tuple[float, float, float], count: int) -> list[float]:
    lo, _, step = axis
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


def _decided_row(cfg: ScenarioConfig, re: float, im: float) -> dict:
    """The sweep row of ``re + i im`` from its own build and decide, as
    ``check`` computes it: ``null`` margin where a membership fails."""
    verdict = criteria.decide(build_problem(cfg, rho_override=complex(re, im)))
    return {"re_rho": re, "im_rho": im, "margin": _jsonable(verdict.margin),
            "dissipative": verdict.dissipative}


def _conic_rows(cfg: ScenarioConfig, conic: criteria.MarginConic,
                res: list[float], ims: list[float]) -> list[dict]:
    """The rows of a sweep from its margin conic, row-major.

    The margins and ``dissipative`` flags of the whole grid come from one
    numpy pass (:meth:`criteria.MarginConic.on_grid`), and so does the
    boundary rule (:func:`catalog.boundary_parameter_rejected`).  Points
    where the conic is not finite are built and decided one by one.  The
    first point in row order that fails, at its boundary check or at its
    own decide, raises its error, as a loop over the points would.
    """
    margins = conic.on_grid(res, ims)
    lowest = -criteria.MARGIN_TOL  # the smallest dissipative margin
    row_res = [re for re in res for _ in ims]
    rows = [{"re_rho": re, "im_rho": im, "margin": margin, "dissipative": flag}
            for re, im, margin, flag in zip(row_res, ims * len(res), margins.tolist(),
                                            (margins >= lowest).tolist())]
    rejected = np.flatnonzero(catalog.boundary_parameter_rejected(
        cfg.scenario, np.array(res)[:, None], np.array(ims)))
    stop = int(rejected[0]) if len(rejected) else len(rows)
    for i in np.flatnonzero(~np.isfinite(margins[:stop])).tolist():
        rows[i] = _decided_row(cfg, rows[i]["re_rho"], rows[i]["im_rho"])
    if stop < len(rows):
        # raises the boundary rule's error of the first rejected point
        catalog.check_boundary_parameter(cfg.scenario, complex(rows[stop]["re_rho"],
                                                               rows[stop]["im_rho"]))
    return rows


def run_sweep(
    cfg: ScenarioConfig,
    re_axis: tuple[float, float, float],
    im_axis: tuple[float, float, float],
    max_workers: int | None = None,
) -> dict:
    """Margin map over a rectangle of boundary parameters.

    Rows are in row-major order (re outer, im inner); identical inputs
    produce byte-identical files.  A grid of more than
    :data:`MAX_SWEEP_POINTS` points, or of a count that is not finite, is a
    ConfigError before any point is listed.  The extension vector of every
    sweepable scenario is ``a + rho b``, with ``a`` and ``b`` the vectors of
    the anchor problems at ``rho = 0`` and ``rho = inf``, so each margin is
    the value of one conic whose four coefficients come from four
    :func:`criteria.decide` calls (:func:`criteria.margin_conic`, which
    evaluates the deviation's forms once).  The rows are then built in one
    pass (:func:`_conic_rows`): the margins and the boundary rule
    (:func:`catalog.boundary_parameter_rejected`) of the whole grid come from
    numpy, and the first point in row order that fails decides the error.
    Their low bits differ from those of ``check`` at the same point, which
    sums in another order.  The points of a sweep whose anchors fail (a
    membership, an error, or a half-line span without
    :func:`grid.span_decay_certificate`), and any point where the conic
    overflows, are built and decided one by one, so a failed membership
    writes ``null`` in JSON and an error is that of ``check``.
    ``max_workers`` is accepted and ignored.
    """
    scenario = cfg.scenario
    if scenario not in ("potsdam", "shirley", "halfline_schrodinger"):
        raise ConfigError(f"scenario {scenario} has no boundary parameter to sweep")
    n_re, n_im = _axis_count(re_axis), _axis_count(im_axis)
    if not n_re * n_im <= MAX_SWEEP_POINTS:
        raise ConfigError(
            f"sweep grid re = {':'.join(map(repr, re_axis))} by im = "
            f"{':'.join(map(repr, im_axis))} has {n_re:.6g} x {n_im:.6g} = "
            f"{n_re * n_im:.6g} points, more than the limit of {MAX_SWEEP_POINTS}")
    res = _axis_points(re_axis, n_re)
    ims = _axis_points(im_axis, n_im)
    conic = _sweep_conic(cfg)
    if conic is None:
        rows = [_decided_row(cfg, re, im) for re in res for im in ims]
    else:
        rows = _conic_rows(cfg, conic, res, ims)
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

    out_path = args.out if args.out is not None else cfg.get("path", "output")
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
            fmt = args.format if args.format is not None else cfg.get("format", "output")
            text = sweep_to_csv(payload) if fmt == "csv" else _dump_json(payload)
            _emit(text, out_path)
            return 0
        # oracle
        # a flag replaces the value the oracle reads; params keep the file's text
        values = dict(cfg.values)
        if args.meshes is not None:
            values["oracle", "meshes"] = _ints(args.meshes, "[oracle] meshes")
        if args.tol is not None:
            values["oracle", "tol"] = args.tol
        code, payload = run_oracle(replace(cfg, values=values))
        _emit(_dump_json(payload), out_path)
        return code
    except _LIBRARY_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
