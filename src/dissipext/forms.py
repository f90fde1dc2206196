"""Quadratic forms of the smallest and largest non-negative selfadjoint
extensions of the catalog's imaginary parts.

Each :class:`ImaginaryPartSpec` names one family of non-negative symmetric
operators and fixes closed-form expressions for

* the Friedrichs square-root form (largest extension),
* the Kreĭn-von Neumann square-root form (smallest extension),
* the inverse solve and the associated inverse form,
* the skew projection onto the adjoint kernel (strictly positive case).

Every function is a term sum, so forms, derivatives, traces and inverses
are evaluated exactly, and every membership is decided from the term sums:
:func:`dissipext.analytic.norm_sq` decides whether ``int w|f|^2`` or ``int
|k|^2/V`` is finite from leading orders at 0, at infinity, at window edges
and at the zeros of ``V``, and :func:`dissipext.analytic.off_support` is
window logic.
Each spec carries its domain (a :class:`~dissipext.grid.Grid`); the
multiplication spec is the one place that checks ``V >= 0``
(:func:`dissipext.analytic.sign_check`).

No square-root matrix is formed: the criteria reach the isometry factor
``U`` of ``V_K^{1/2} = U V_F^{1/2}`` in closed form from these forms.
:func:`discrete_sqrt_pair` is a stub that raises :class:`FormsError`; it
stays only as a layer the benchmark's tracer names, until ROADMAP item 2
drops that target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import (
    AnalyticError,
    AnalyticFunction,
    DivergentIntegralError,
    Term,
    norm_sq,
    reciprocal,
    sign_check,
    trace,
)
from .grid import Grid, make_grid

__all__ = [
    "FormsError",
    "DomainError",
    "RangeError",
    "ImaginaryPartSpec",
    "dirichlet_laplacian_halfline",
    "dirichlet_laplacian_interval",
    "multiplication",
    "rank_one",
    "check_traces",
    "friedrichs_form_sq",
    "krein_form_sq",
    "friedrichs_form",
    "krein_form",
    "VfSolution",
    "vf_solve",
    "sqrt_scale_inv_form",
    "mult_inverse_norm_sq",
    "projection_P",
]

_TRACE_TOL = 1e-8


class FormsError(Exception):
    """Base error of the forms module."""


class DomainError(FormsError):
    """Function lies outside the form domain in question."""


class RangeError(FormsError):
    """Right-hand side is not in the range of the requested extension."""


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True, eq=False)
class ImaginaryPartSpec:
    """One imaginary-part family with its extension data.

    Attributes
    ----------
    family : str
        One of ``dirichlet_laplacian_halfline``, ``dirichlet_laplacian_interval``,
        ``multiplication``, ``rank_one``.
    domain : Grid
        The domain the operator acts on.
    weight : AnalyticFunction, optional
        Non-negative multiplier for the multiplication family.
    alpha, phi0 :
        Strength and normalized direction of the rank-one family.
    strict_lower_bound : float
        Largest known epsilon with ``V >= eps``; 0 when none.

    :attr:`friedrichs_equals_krein` follows from ``family``.
    """

    family: str
    domain: Grid
    weight: AnalyticFunction | None = None
    alpha: float | None = None
    phi0: AnalyticFunction | None = None
    strict_lower_bound: float = 0.0

    def __post_init__(self):
        if self.family == "multiplication":
            if self.weight is None:
                raise FormsError("multiplication family needs a weight")
            if not sign_check(self.weight, 0.0, self.end).nonneg:
                raise FormsError("multiplication weight must be non-negative")
        if self.family == "rank_one":
            # the comparison is false on nan too
            if self.alpha is None or not 0.0 < self.alpha < math.inf or self.phi0 is None:
                raise FormsError("rank_one family needs 0 < alpha < inf and a direction")
            nrm = norm_sq(self.phi0, 0.0, self.end)
            if abs(nrm - 1.0) > 1e-10:
                raise FormsError(f"rank_one direction must be normalized, got ||phi||^2={nrm}")

    @property
    def friedrichs_equals_krein(self) -> bool:
        """True exactly for the essentially selfadjoint families, whose small
        and large extensions coincide."""
        return self.family in ("multiplication", "rank_one")

    @property
    def is_laplacian(self) -> bool:
        return self.family in ("dirichlet_laplacian_halfline", "dirichlet_laplacian_interval")

    @property
    def end(self) -> float:
        """Right endpoint of the domain (``inf`` on the half-line)."""
        return self.domain.right_endpoint


def dirichlet_laplacian_halfline(domain: Grid | None = None) -> ImaginaryPartSpec:
    return ImaginaryPartSpec("dirichlet_laplacian_halfline", domain or make_grid("halfline"))


def dirichlet_laplacian_interval(strict_lower_bound: float = math.pi ** 2,
                                 domain: Grid | None = None) -> ImaginaryPartSpec:
    return ImaginaryPartSpec("dirichlet_laplacian_interval", domain or make_grid("interval"),
                             strict_lower_bound=strict_lower_bound)


def multiplication(weight: AnalyticFunction, domain: Grid,
                   strict_lower_bound: float = 0.0) -> ImaginaryPartSpec:
    return ImaginaryPartSpec("multiplication", domain, weight=weight,
                             strict_lower_bound=strict_lower_bound)


def rank_one(alpha: float, phi0: AnalyticFunction, domain: Grid | None = None) -> ImaginaryPartSpec:
    return ImaginaryPartSpec("rank_one", domain or make_grid("halfline"), alpha=alpha, phi0=phi0)


def _form_norm_sq(spec: ImaginaryPartSpec, f: AnalyticFunction, domain: str) -> float:
    """``||f'||^2`` or ``int w |f|^2``; DomainError naming ``domain`` if infinite."""
    try:
        if spec.is_laplacian:
            return norm_sq(f.derivative(), 0.0, spec.end)
        return norm_sq(f, 0.0, spec.end, spec.weight)
    except DivergentIntegralError:
        raise DomainError(f"form diverges: f outside the {domain} form domain") from None


# ---------------------------------------------------------------------------
# Friedrichs and Krein square-root forms


def _traces(spec: ImaginaryPartSpec, f: AnalyticFunction) -> list[tuple[float, complex, float]]:
    """``(x, f(x), scale)`` at 0 and, on an interval, at ``b``; a trace the
    term sum leaves undefined (a term singular at 0) is a FormsError."""
    ends = [0.0] if spec.family == "dirichlet_laplacian_halfline" else [0.0, spec.domain.length]
    try:
        return [(x, *trace(f, x)) for x in ends]
    except AnalyticError:
        raise FormsError("trace f(0) is undefined: a term is singular at 0") from None


def _jump(spec: ImaginaryPartSpec, f: AnalyticFunction) -> complex:
    """``f(b) - f(0)`` on the interval."""
    (_, f0, _), (_, fb, _) = _traces(spec, f)
    return fb - f0


def check_traces(spec: ImaginaryPartSpec, f: AnalyticFunction) -> None:
    """DomainError unless ``f`` meets the Laplacian's Dirichlet conditions to
    ``1e-8`` of the trace scale ``1 + sum |term values|``."""
    for x, value, scale in _traces(spec, f):
        if abs(value) > _TRACE_TOL * scale:
            raise DomainError(f"boundary value f({x:g})={value} violates the boundary condition")


def friedrichs_form_sq(spec: ImaginaryPartSpec, f) -> float:
    """``||V_F^{1/2} f||^2`` for ``f`` in the Friedrichs form domain."""
    if spec.family == "rank_one":
        return spec.alpha * abs(spec.phi0.inner(f, 0.0, spec.end)) ** 2
    val = _form_norm_sq(spec, f, "Friedrichs")
    if spec.is_laplacian:
        check_traces(spec, f)
    return val


def krein_form_sq(spec: ImaginaryPartSpec, f) -> float:
    """``||V_K^{1/2} f||^2`` for ``f`` in the Krein square-root domain."""
    if not spec.is_laplacian:
        return friedrichs_form_sq(spec, f)
    val = _form_norm_sq(spec, f, "small")
    if spec.family == "dirichlet_laplacian_interval":
        val -= abs(_jump(spec, f)) ** 2
    return val


def friedrichs_form(spec: ImaginaryPartSpec, f, g) -> complex:
    """Polarized Friedrichs form ``<V_F^{1/2} f, V_F^{1/2} g>``."""
    if spec.is_laplacian:
        return f.derivative().inner(g.derivative(), 0.0, spec.end)
    if spec.family == "multiplication":
        return (f.conj() * spec.weight * g).integral(0.0, spec.end)
    return spec.alpha * np.conj(spec.phi0.inner(f, 0.0, spec.end)) * spec.phi0.inner(g, 0.0, spec.end)


def krein_form(spec: ImaginaryPartSpec, f, g) -> complex:
    """Polarized Krein form ``<V_K^{1/2} f, V_K^{1/2} g>``."""
    val = friedrichs_form(spec, f, g)
    if spec.family == "dirichlet_laplacian_interval":
        val -= np.conj(_jump(spec, f)) * _jump(spec, g)
    return val


# ---------------------------------------------------------------------------
# inverse solve


@dataclass(frozen=True, eq=False)
class VfSolution:
    """Solution of ``V_F u = ell`` with ``inv_form = <ell, u> >= 0``."""

    u: AnalyticFunction
    inv_form: float


def _laplacian_inverse(
    spec: ImaginaryPartSpec, fn: AnalyticFunction, *, decay: bool = True
) -> tuple[AnalyticFunction, float]:
    """Exact ``u`` with ``-u'' = ell`` and the family's boundary conditions,
    together with ``<ell, u>``.

    On the half-line ``decay`` demands a solution vanishing at infinity (the
    operator range); without it ``<ell, u>`` is the square-root range's
    ``||V_F^{-1/2} ell||^2``.  Raises :class:`RangeError` on a divergent
    integral and :class:`FormsError` when an antiderivative leaves the closed
    term class.
    """
    xfn = AnalyticFunction((Term(1.0, 1.0),))
    one = AnalyticFunction((Term(1.0, 0.0),))
    try:
        a1 = (xfn * fn).antiderivative()  # int_0^x y ell(y) dy
        if spec.family == "dirichlet_laplacian_interval":
            b = spec.domain.length
            a2 = ((one - xfn * (1.0 / b)) * fn).antiderivative()
            # u = (1 - x/b) b * [...] scaled Green of -u'' on (0, b)
            c = a2.value_at(b)
            u = (one - xfn * (1.0 / b)) * a1 + xfn * (complex(c) * one - a2)
        else:
            a0 = fn.antiderivative()
            c_tot = fn.integral(0.0, math.inf)
            if decay:
                tail_mass = (xfn * fn).integral(0.0, math.inf)
                if abs(tail_mass) > 1e-10 * (1.0 + abs(c_tot)):
                    raise RangeError("inverse solution does not decay on the half-line")
            u = a1 + xfn * (complex(c_tot) * one - a0)
        inv = float(fn.inner(u, 0.0, spec.end).real)
    except DivergentIntegralError as exc:
        raise RangeError(str(exc)) from None
    except AnalyticError as exc:
        raise FormsError(f"Laplacian inverse outside the closed term class: {exc}") from None
    return u, inv


def vf_solve(spec: ImaginaryPartSpec, ell) -> VfSolution:
    """Solve ``V_F u = ell`` with the family's boundary conditions.

    Returns the solution together with ``<ell, u> = ||V_F^{-1/2} ell||^2``.
    Raises :class:`RangeError` when ``ell`` is detectably outside the range
    (divergent weighted integral, non-decaying half-line solution, or a
    component off the rank-one direction), and :class:`FormsError` when the
    inverse leaves the closed term class (a multiplier with more than one
    term, a Laplacian antiderivative outside the class).
    """
    if spec.family == "rank_one":
        c = spec.phi0.inner(ell, 0.0, spec.end)
        try:
            rest_sq = norm_sq(ell - c * spec.phi0, 0.0, spec.end)
        except DivergentIntegralError as exc:
            raise RangeError(str(exc)) from None
        # ||ell||^2 = ||rest||^2 + |c|^2 for the normalized phi0
        if math.sqrt(rest_sq) > 1e-8 * (1.0 + math.sqrt(rest_sq + abs(c) ** 2)):
            raise RangeError("right-hand side leaves the rank-one range")
        return VfSolution((c / spec.alpha) * spec.phi0, float(abs(c) ** 2 / spec.alpha))
    if spec.family == "multiplication":
        winv = reciprocal(spec.weight)
        if winv is None:
            raise FormsError("multiplier has no one-term pointwise inverse")
        inv = mult_inverse_norm_sq(spec.weight, ell, spec.end)
        return VfSolution(winv * ell, inv)
    return VfSolution(*_laplacian_inverse(spec, ell))


def mult_inverse_norm_sq(weight: AnalyticFunction, k: AnalyticFunction, end: float) -> float:
    """``||V^{-1/2} k||^2 = int_0^end |k|^2 / V`` for the multiplier ``V = weight``;
    :class:`RangeError` when ``k`` lives where ``V`` vanishes or it diverges."""
    try:
        return norm_sq(k, 0.0, end, weight, inverse=True)
    except DivergentIntegralError as exc:
        raise RangeError(str(exc)) from None


def sqrt_scale_inv_form(spec: ImaginaryPartSpec, ell) -> tuple[float, bool]:
    """``||V_F^{-1/2} ell||^2`` with a divergence flag instead of an error.

    This is the membership test of the square-root range: the value is
    finite exactly when ``ell`` lies in it.  Unlike :func:`vf_solve` the
    half-line path does not demand a decaying solution, since the
    square-root range is strictly larger than the operator range.
    """
    try:
        if spec.family == "dirichlet_laplacian_halfline":
            return _laplacian_inverse(spec, ell, decay=False)[1], False
        if spec.family == "multiplication":
            return mult_inverse_norm_sq(spec.weight, ell, spec.end), False
        return vf_solve(spec, ell).inv_form, False
    except RangeError:
        return math.inf, True


# ---------------------------------------------------------------------------
# projection onto the adjoint kernel


def projection_P(spec: ImaginaryPartSpec, v: AnalyticFunction) -> AnalyticFunction:
    """Skew projection of ``v`` onto the adjoint kernel (strictly positive case).

    For the interval Laplacian the kernel is spanned by 1 and x and the
    projection is the affine interpolant of the boundary values; for the
    essentially selfadjoint strictly positive families the kernel is trivial
    and the projection vanishes.
    """
    if not (spec.strict_lower_bound > 0.0):
        raise FormsError("projection defined only for strictly positive parts")
    if spec.family == "dirichlet_laplacian_interval":
        (_, v0, _), (b, vb, _) = _traces(spec, v)
        return AnalyticFunction((Term(v0, 0.0), Term((vb - v0) / b, 1.0)))
    if spec.friedrichs_equals_krein:
        return AnalyticFunction(())
    raise FormsError("no closed-form adjoint-kernel basis for this family")


# ROADMAP item 2 deletes this stub together with its benchmark tracer target
def discrete_sqrt_pair(spec: ImaginaryPartSpec, basis, description: str = ""):
    """Removed: the criteria reach the isometry factor in closed form."""
    raise FormsError("forms.discrete_sqrt_pair was removed")
