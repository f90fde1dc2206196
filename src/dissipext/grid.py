"""Grids, quadrature and boundary values on (0,b) and (0,R).

A :class:`Grid` is a composite Gauss-Legendre rule (fixed panel order 8 over
uniform subintervals) on an interval ``(offset, b)`` or a truncated half-line
``(offset, R)``.  A :class:`GridFunction` is a scenario function's term sum,
an :class:`~dissipext.analytic.AnalyticFunction`, with its samples and
boundary values derived from it, so downstream evaluators integrate and
differentiate the term sum exactly.  The samples serve only input
validation (decay certificates, trace scales, and sign and realness checks)
and the right edge of the oracle's half-line core span.

Grids and grid functions are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import AnalyticError, AnalyticFunction

__all__ = [
    "GridError",
    "PANEL_ORDER",
    "DEFAULT_HALFLINE_R",
    "Grid",
    "Traces",
    "GridFunction",
    "make_grid",
    "decay_certificate",
]

PANEL_ORDER = 8
DEFAULT_INTERVAL_B = 1.0
DEFAULT_HALFLINE_R = 40.0


class GridError(Exception):
    """Invalid grid construction or mismatched grid operands."""


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(PANEL_ORDER)


def _composite_gauss(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True, eq=False)
class Grid:
    """Quadrature grid on ``(offset, length)``.

    Attributes
    ----------
    kind : str
        ``"interval"`` (finite right endpoint ``b``) or ``"halfline"``
        (right endpoint is the truncation radius ``R``).
    length : float
        ``b`` for intervals, ``R`` for truncated half-lines.
    n : int
        Node count (a multiple of the panel order).
    offset : float
        Distance of the covered domain's left edge from 0.  Positive
        offsets keep quadrature away from potentials singular at 0.
    nodes, weights : ndarray
        Strictly increasing Gauss-Legendre nodes and positive weights;
        the weights sum to ``length - offset``.
    """

    kind: str
    length: float
    n: int
    offset: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def is_halfline(self) -> bool:
        return self.kind == "halfline"

    @property
    def right_endpoint(self) -> float:
        return math.inf if self.is_halfline else self.length


def make_grid(kind: str, n: int, *, length: float | None = None, offset: float = 0.0) -> Grid:
    """Build the composite Gauss-Legendre grid for ``kind`` with ``n`` nodes.

    ``n`` is rounded up to the next multiple of the panel order.  ``length``
    defaults to 1 for intervals and to the standard truncation radius 40 for
    half-lines (chosen so products of the catalog's exponentially decaying
    basis functions are below 1e-24 at the cut).
    """
    if kind not in ("interval", "halfline"):
        raise GridError(f"unknown grid kind {kind!r}")
    if length is None:
        length = DEFAULT_HALFLINE_R if kind == "halfline" else DEFAULT_INTERVAL_B
    if not (length > 0.0) or not math.isfinite(length):
        raise GridError("grid length must be positive and finite")
    if n < PANEL_ORDER:
        raise GridError(f"need at least {PANEL_ORDER} nodes, got {n}")
    panels = -(-int(n) // PANEL_ORDER)
    first_spacing = (length - offset) / panels
    if offset < 0.0 or offset >= length or (offset > 0.0 and offset >= first_spacing):
        raise GridError("offset must satisfy 0 <= offset < first panel width")
    nodes, weights = _composite_gauss(offset, length, panels)
    return Grid(kind, float(length), panels * PANEL_ORDER, float(offset), nodes, weights)


@dataclass(frozen=True)
class Traces:
    """Boundary values ``{f(0), f(b)}``.

    On half-line grids ``value_b`` holds the decay limit (0 for the
    catalog's exponentially decaying functions).  Derivative traces come
    from the term sum's ``derivative()``.
    """

    value0: complex
    value_b: complex


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A finite term sum together with its samples on a :class:`Grid`.

    ``analytic`` is the one representation of the function; ``traces`` (the
    boundary values) are derived from it at construction, ``values`` (the
    samples at the grid nodes) at each use.  A trace the term sum does not
    define (a value at a singular 0, a half-line limit of a function that
    does not decay) is NaN.
    """

    grid: Grid
    analytic: AnalyticFunction = field(repr=False)
    traces: Traces = field(init=False)

    def __post_init__(self):
        fn = self.analytic
        if not isinstance(fn, AnalyticFunction):
            raise GridError("a grid function is built from its term sum (an AnalyticFunction)")
        grid = self.grid
        if grid.is_halfline:
            vb = 0.0 if fn.decays_at_infinity() else math.nan
        else:
            vb = fn.value_at(grid.length)
        try:
            v0 = fn.value_at_zero()
        except AnalyticError:
            v0 = math.nan
        object.__setattr__(self, "traces", Traces(v0, vb))

    @property
    def values(self) -> np.ndarray:
        return self.analytic(self.grid.nodes)

    @classmethod
    def from_analytic(cls, grid: Grid, fn: AnalyticFunction) -> "GridFunction":
        return cls(grid, fn)


def decay_certificate(f: GridFunction, rel_tol: float = 1e-10) -> bool:
    """True iff ``|f|`` at the last node is below ``rel_tol * max|f|``.

    Half-line truncation is only trustworthy for functions that have decayed
    by the cut; every half-line scenario checks this before evaluating.
    """
    mag = np.abs(f.values)
    peak = float(mag.max())
    if peak == 0.0:
        return True
    return float(mag[-1]) < rel_tol * peak
