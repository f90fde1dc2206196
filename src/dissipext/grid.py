"""Scenario domains: an interval ``(offset, b)`` or a truncated half-line ``(offset, R)``.

A :class:`Grid` holds only domain data.  The functions on it are term sums
(:class:`~dissipext.analytic.AnalyticFunction`), which are integrated,
differentiated and checked in closed form, so there are no nodes, weights
or samples here.  ``offset`` is the left edge of the oracle's core span
(singular potentials keep their splines off 0); ``R`` is the truncation
radius that the half-line decay certificate and the oracle's core span
refer to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analytic import AnalyticFunction, Term, envelope, peaks

__all__ = [
    "GridError",
    "DEFAULT_HALFLINE_R",
    "Grid",
    "GridFunction",
    "make_grid",
    "decay_certificate",
    "span_decay_certificate",
]

DEFAULT_INTERVAL_B = 1.0
DEFAULT_HALFLINE_R = 40.0
#: envelope at the truncation radius over the largest term peak
_DECAY_RTOL = 1e-10


class GridError(Exception):
    """Invalid domain construction."""


@dataclass(frozen=True)
class Grid:
    """Domain ``(offset, length)`` of one scenario.

    Attributes
    ----------
    kind : str
        ``"interval"`` (finite right endpoint ``b``) or ``"halfline"``
        (right endpoint is the truncation radius ``R``).
    length : float
        ``b`` for intervals, ``R`` for truncated half-lines.
    offset : float
        Distance of the oracle's core span from 0, below 1/64 of the span.
    """

    kind: str
    length: float
    offset: float

    @property
    def is_halfline(self) -> bool:
        return self.kind == "halfline"

    @property
    def right_endpoint(self) -> float:
        return math.inf if self.is_halfline else self.length


def make_grid(kind: str, *, length: float | None = None, offset: float = 0.0) -> Grid:
    """The domain of ``kind``: ``"interval"`` or ``"halfline"``.

    ``length`` defaults to 1 for intervals and to the standard truncation
    radius 40 for half-lines (products of the catalog's exponentially
    decaying basis functions are below 1e-24 there).
    """
    if kind not in ("interval", "halfline"):
        raise GridError(f"unknown grid kind {kind!r}")
    if length is None:
        length = DEFAULT_HALFLINE_R if kind == "halfline" else DEFAULT_INTERVAL_B
    if not (length > 0.0) or not math.isfinite(length):
        raise GridError("grid length must be positive and finite")
    # a zero offset needs no test: below a length of about 64 * 5e-324 the
    # bound (length - offset) / 64 underflows to 0 and would refuse it
    if offset and not 0.0 <= offset < (length - offset) / 64.0:
        raise GridError("offset must satisfy 0 <= offset < (length - offset)/64")
    return Grid(kind, float(length), float(offset))


class GridFunction:
    """Compatibility stub: a scenario function is its term sum.

    ``from_analytic`` returns the term sum unchanged.  It stays only as a
    layer the benchmark's tracer names; ROADMAP item 2 deletes it.
    """

    @classmethod
    def from_analytic(cls, grid: Grid, fn: AnalyticFunction) -> AnalyticFunction:
        return fn


def decay_certificate(f: AnalyticFunction, r: float) -> bool:
    """True iff ``f``'s envelope at ``r`` is below ``_DECAY_RTOL`` times its
    largest single-term peak on ``[0, r]`` (:func:`~dissipext.analytic.envelope`).

    Half-line truncation is only trustworthy for functions that have decayed
    by the cut; every half-line scenario checks this before evaluating.
    """
    scale = max((h for _, h in peaks(f, r)), default=0.0)
    return scale == 0.0 or envelope(f, r) < _DECAY_RTOL * scale


def span_decay_certificate(fns, r: float) -> bool:
    """True when :func:`decay_certificate` holds for every combination of ``fns``.

    A combination has the terms of ``fns`` with new coefficients ``c_t``, so
    its envelope at ``r`` is ``sum |c_t| E_t`` and its scale is
    ``max |c_t| P_t``, with ``E_t`` the modulus at ``r`` and ``P_t`` the peak
    height of the term with coefficient 1.  Hence envelope <= scale *
    ``sum E_t / P_t``, and a sum below half the certificate's tolerance
    leaves a factor 2 for the rounding of both sides.  False says nothing
    about any one combination.
    """
    shapes = {(t.power, t.rate, t.lo, t.hi) for f in fns for t in f.terms}
    total = 0.0
    for shape in shapes:
        unit = AnalyticFunction((Term(1.0, *shape),))
        heights = [h for _, h in peaks(unit, r)]
        if not heights:
            continue  # the window lies beyond r: in neither envelope nor scale
        if not 0.0 < heights[0] < math.inf:
            return False
        total += envelope(unit, r) / heights[0]
    return total < 0.5 * _DECAY_RTOL
