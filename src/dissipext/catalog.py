"""Worked extension scenarios with exact basis functions and reference verdicts.

Four families of one-dimensional dual pairs are built here:

* ``potsdam`` -- half-line first-kind operator ``-i f'' + W f`` on a
  double-zero domain; extension vectors combine the two decaying
  exponentials ``exp(-(1 +- i) x / sqrt(2))``.
* ``shirley`` -- interval operator ``-i f'' - gamma f / x^2`` with
  ``gamma >= sqrt(3)``; extension vectors combine ``x^omega`` and
  ``x^{conj(omega)+2}`` with ``omega = (1 + sqrt(1 + 4 i gamma)) / 2``.
* ``konzert`` -- interval operator ``i f' + i gamma f / x`` with
  ``0 < gamma < 1/2``; the single admissible extension vector is
  ``x^{gamma+1}``.
* ``halfline_schrodinger`` -- ``-f''`` with boundary parameter ``h`` plus a
  bounded rank-one or multiplication perturbation of the imaginary part.

Every builder states each scenario function as a term sum, checks its
inputs on the terms (traces, realness, decay by the truncation radius), and
records the scenario's closed-form reference margin next to the
criteria-module evaluation path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import forms
from .analytic import AnalyticFunction, DivergentIntegralError, Term, is_real, norm_sq
from .grid import DEFAULT_HALFLINE_R, Grid, decay_certificate, make_grid

__all__ = [
    "CatalogError",
    "RHO_INF",
    "is_inf",
    "RankOnePerturbation",
    "MultiplicationPerturbation",
    "ExtensionProblem",
    "build_potsdam",
    "build_shirley",
    "build_konzert",
    "build_halfline_schrodinger",
    "check_boundary_parameter",
    "SHIRLEY_GAMMA_MIN",
    "KONZERT_GAMMA_RANGE",
]

SHIRLEY_GAMMA_MIN = math.sqrt(3.0)
KONZERT_GAMMA_RANGE = (0.0, 0.5)

#: boundary parameter at infinity; its imaginary part counts as 0 by convention
RHO_INF = complex(math.inf, 0.0)


def is_inf(rho: complex | None) -> bool:
    return rho is not None and math.isinf(rho.real)


class CatalogError(Exception):
    """Invalid scenario parameters or basis construction failure."""


@dataclass(frozen=True)
class RankOnePerturbation:
    """Bounded imaginary part ``alpha |phi><phi|`` with deviation ``lambda phi``."""

    alpha: float
    phi: AnalyticFunction
    lam: complex


@dataclass(frozen=True)
class MultiplicationPerturbation:
    """Bounded imaginary part ``V(x)`` with deviation function ``k``."""

    v: AnalyticFunction
    k: AnalyticFunction


@dataclass(frozen=True, eq=False)
class ExtensionProblem:
    """One extension of a dual pair, ready for the criteria and the oracle.

    ``v`` spans the added one-dimensional space; the deviation from the
    maximal action is either ``V_F phi`` (``phi`` set) or the explicit
    function ``lv``.  All of them are term sums on the domain ``grid``.
    ``reference_margin`` stores the scenario's closed-form decision margin
    for cross-checking.

    :meth:`expression` and :meth:`deviation` are the one statement of the
    scenario's operator that the criteria and the oracle read.
    """

    scenario: str
    spec: forms.ImaginaryPartSpec
    grid: Grid
    v: AnalyticFunction
    rho: complex | None = None
    phi: AnalyticFunction | None = None
    lv: AnalyticFunction | None = None
    gamma: float | None = None
    h: complex | None = None
    perturbation: RankOnePerturbation | MultiplicationPerturbation | None = None
    w_potential: AnalyticFunction | None = None
    maximally_dissipative: bool | None = None
    reference_margin: float | None = None
    reference_dissipative: bool | None = None

    def expression(self) -> tuple[complex, complex, AnalyticFunction]:
        """``(c2, c1, m)`` of the unbounded action ``c2 f'' + c1 f' + m f``.

        ``m`` is the real potential ``W`` (potsdam), ``-gamma x^-2``
        (shirley), ``i gamma x^-1`` (konzert) or 0.  The bounded imaginary
        part of the Schroedinger scenario is not part of it: it is
        ``spec`` (and ``perturbation``).
        """
        if self.scenario == "konzert":
            return 0.0, 1.0j, AnalyticFunction((Term(1.0j * self.gamma, -1.0),))
        if self.scenario == "shirley":
            return -1.0j, 0.0, AnalyticFunction((Term(-self.gamma, -2.0),))
        if self.scenario == "potsdam" and self.w_potential is not None:
            return -1.0j, 0.0, self.w_potential
        return (-1.0j if self.scenario == "potsdam" else -1.0), 0.0, AnalyticFunction(())

    def action_on(self, fn: AnalyticFunction) -> AnalyticFunction:
        """The unbounded action of :meth:`expression` on a term sum."""
        c2, c1, m = self.expression()
        d1 = fn.derivative()
        return c2 * d1.derivative() + c1 * d1 + m * fn

    def deviation(self) -> AnalyticFunction | None:
        """``Lv``: ``lv`` when given, else ``V_F phi`` (None when ``phi`` is
        absent or zero)."""
        if self.lv is not None:
            return self.lv
        phi = self.phi
        if phi is None or not phi.terms:
            return None
        if not self.spec.is_laplacian:
            raise CatalogError("a deviation generator phi needs a Laplacian imaginary part")
        return phi.derivative().derivative() * (-1.0)

    def without_deviation(self) -> "ExtensionProblem":
        """The same extension with ``Lv = 0``: ``phi``, ``lv`` and the
        perturbation's deviation (``lambda`` or ``k``) set to zero.  Every
        criterion's margin is then a Hermitian form in ``v`` alone."""
        zero = AnalyticFunction(())
        pert = self.perturbation
        if isinstance(pert, RankOnePerturbation):
            pert = replace(pert, lam=0j)
        elif isinstance(pert, MultiplicationPerturbation):
            pert = replace(pert, k=zero)
        return replace(self, phi=None if self.phi is None else zero,
                       lv=None if self.lv is None else zero, perturbation=pert,
                       reference_margin=None, reference_dissipative=None)


def _check_phi(spec: forms.ImaginaryPartSpec, phi: AnalyticFunction, what: str) -> None:
    """CatalogError ``what`` unless ``phi`` meets the Dirichlet conditions of
    ``spec`` (:func:`forms.check_traces`; an undefined trace fails too)."""
    try:
        forms.check_traces(spec, phi)
    except forms.FormsError:
        raise CatalogError(what) from None


# ---------------------------------------------------------------------------
# potsdam: -i f'' + W on the half-line


def _decaying_vector(h: complex) -> AnalyticFunction:
    """The combination of the decaying kernel pair ``exp(-(1 +- i) x / sqrt(2))``
    with ``f(0) = 1, f'(0) = h`` (``f(0) = 0, f'(0) = 1`` at ``h = inf``)."""
    mu_p = -(1.0 + 1.0j) / math.sqrt(2.0)
    mu_m = -(1.0 - 1.0j) / math.sqrt(2.0)
    det = mu_m - mu_p
    if is_inf(h):
        val0, der0 = 0.0, 1.0
    else:
        val0, der0 = 1.0, h
    a = (val0 * mu_m - der0) / det
    b = (der0 - val0 * mu_p) / det
    return AnalyticFunction((Term(a, 0.0, mu_p), Term(b, 0.0, mu_m)))


def build_potsdam(
    w: AnalyticFunction | None,
    rho: complex,
    phi: AnalyticFunction | None,
    *,
    n: int = 512,
    r: float = DEFAULT_HALFLINE_R,
) -> ExtensionProblem:
    """Half-line scenario with potential ``W`` and deviation ``V_F phi``."""
    grid = make_grid("halfline", n, length=r)
    spec = forms.dirichlet_laplacian_halfline(grid)
    # trace-normalized pair: sigma(0) = tau'(0) = 1, sigma'(0) = tau(0) = 0
    sigma, tau = _decaying_vector(0j), _decaying_vector(RHO_INF)
    zeta = tau if is_inf(rho) else sigma + rho * tau
    if not decay_certificate(zeta, r):
        raise CatalogError("extension vector has not decayed by the truncation radius")
    phi_fn = phi if phi is not None else AnalyticFunction(())
    if phi is not None:
        if not phi_fn.decays_at_infinity() or not decay_certificate(phi_fn, r):
            raise CatalogError("phi must have decayed by the truncation radius")
        _check_phi(spec, phi_fn, "phi must vanish at 0")
    if w is not None:
        if not is_real(w):
            raise CatalogError("potential W must be real-valued")
        try:
            norm_sq(w, 0.0, math.inf)
        except DivergentIntegralError:
            raise CatalogError("potential W must be square-integrable") from None
    dphi = phi_fn.derivative()
    norm_dphi_sq = float((dphi.conj() * dphi).integral(0.0, math.inf).real)
    if is_inf(rho):
        margin = -0.25 * norm_dphi_sq
    else:
        margin = rho.real - 0.25 * norm_dphi_sq + float(dphi.value_at_zero().imag)
    return ExtensionProblem(
        scenario="potsdam",
        spec=spec,
        grid=grid,
        v=zeta,
        rho=rho,
        phi=phi_fn,
        w_potential=w,
        reference_margin=margin,
        reference_dissipative=margin >= -1e-12,
    )


# ---------------------------------------------------------------------------
# shirley: -i f'' - gamma/x^2 on the unit interval


def _shirley_vector(gamma: float, rho: complex) -> AnalyticFunction:
    omega = (1.0 + cmath.sqrt(1.0 + 4.0j * gamma)) / 2.0
    den = 2.0 + omega.conjugate() - omega
    lead = AnalyticFunction(
        (
            Term((2.0 + omega.conjugate()) / den, omega),
            Term(-omega / den, omega.conjugate() + 2.0),
        )
    )
    if is_inf(rho):
        return lead
    slope = AnalyticFunction(
        (Term(-1.0 / den, omega), Term(1.0 / den, omega.conjugate() + 2.0))
    )
    return rho * lead + slope


def build_shirley(
    gamma: float,
    rho: complex,
    phi: AnalyticFunction | None,
    *,
    n: int = 512,
    offset: float = 1e-6,
) -> ExtensionProblem:
    """Interval scenario with the inverse-square potential and ``V_F phi``."""
    if gamma < SHIRLEY_GAMMA_MIN - 1e-12:
        raise CatalogError(
            f"gamma must be at least sqrt(3) to keep one extension direction, got {gamma}"
        )
    if not offset > 0.0:
        raise CatalogError("the inverse-square potential needs an offset grid")
    grid = make_grid("interval", n, offset=offset)
    spec = forms.dirichlet_laplacian_interval(domain=grid)
    xi = _shirley_vector(gamma, rho)
    phi_fn = phi if phi is not None else AnalyticFunction(())
    if phi is not None:
        _check_phi(spec, phi_fn, "phi must vanish at both endpoints")
    dphi = phi_fn.derivative()
    norm_dphi_sq = float((dphi.conj() * dphi).integral(0.0, 1.0).real)
    dphi1 = complex(dphi(np.asarray(1.0))) if phi is not None else 0.0
    if is_inf(rho):
        margin = 1.0 - (0.25 * norm_dphi_sq + complex(dphi1).imag)
    else:
        try:
            margin = (abs(rho) ** 2 - rho.real) - (
                0.25 * norm_dphi_sq + (rho.conjugate() * dphi1).imag
            )
        except OverflowError:
            raise CatalogError(f"|rho|^2 overflows for rho = {rho}") from None
    return ExtensionProblem(
        scenario="shirley",
        spec=spec,
        grid=grid,
        v=xi,
        rho=rho,
        phi=phi_fn,
        gamma=float(gamma),
        reference_margin=float(margin),
        reference_dissipative=margin >= -1e-12,
    )


# ---------------------------------------------------------------------------
# konzert: i f' + i gamma/x on the unit interval


def build_konzert(
    gamma: float,
    ell: AnalyticFunction | None,
    *,
    n: int = 512,
    offset: float = 1e-6,
) -> ExtensionProblem:
    """Interval first-order scenario; deviation is an explicit L^2 function."""
    lo, hi = KONZERT_GAMMA_RANGE
    if not (lo < gamma < hi):
        raise CatalogError(f"gamma must lie in (0, 1/2), got {gamma}")
    if not offset > 0.0:
        raise CatalogError("the inverse-first-power potential needs an offset grid")
    grid = make_grid("interval", n, offset=offset)
    spec = forms.multiplication(AnalyticFunction((Term(gamma, -1.0),)), grid,
                                strict_lower_bound=gamma)
    v = AnalyticFunction((Term(1.0, gamma + 1.0),))
    ell_fn = ell if ell is not None else AnalyticFunction(())
    xw = AnalyticFunction((Term(1.0, 1.0),))
    weighted = float((ell_fn.conj() * xw * ell_fn).integral(0.0, 1.0).real)
    margin = 0.5 - weighted / (4.0 * gamma)
    return ExtensionProblem(
        scenario="konzert",
        spec=spec,
        grid=grid,
        v=v,
        lv=ell_fn,
        gamma=float(gamma),
        maximally_dissipative=True,  # one added dimension against defect one
        reference_margin=margin,
        reference_dissipative=margin >= -1e-12,
    )


# ---------------------------------------------------------------------------
# halfline Schroedinger with bounded imaginary part


def check_boundary_parameter(scenario: str, rho: complex) -> None:
    """CatalogError for a boundary parameter that ``scenario`` rejects
    whatever its other inputs: ``Im h < 0`` in the Schroedinger scenario."""
    if scenario == "halfline_schrodinger" and not is_inf(rho) and rho.imag < 0.0:
        raise CatalogError("Im h < 0 is not a dissipative boundary condition")


def build_halfline_schrodinger(
    h: complex,
    perturbation: RankOnePerturbation | MultiplicationPerturbation,
    *,
    n: int = 512,
    r: float = DEFAULT_HALFLINE_R,
) -> ExtensionProblem:
    """Bounded-imaginary-part scenario ``-f'' + i V`` with boundary parameter h.

    ``Im h >= 0`` is required (with ``h = inf`` the selfadjoint boundary
    condition, whose imaginary part counts as 0); for negative imaginary
    part no bounded non-negative imaginary part can restore dissipativity,
    so such inputs are rejected outright.
    """
    check_boundary_parameter("halfline_schrodinger", h)
    grid = make_grid("halfline", n, length=r)
    eta = _decaying_vector(h)
    if not decay_certificate(eta, r):
        raise CatalogError("boundary vector has not decayed by the truncation radius")
    im_h = 0.0 if is_inf(h) else h.imag
    if isinstance(perturbation, RankOnePerturbation):
        if perturbation.alpha <= 0:
            raise CatalogError("rank-one strength alpha must be positive")
        spec = forms.rank_one(perturbation.alpha, perturbation.phi, grid)
        lv = perturbation.lam * perturbation.phi
        margin = im_h - abs(perturbation.lam) ** 2 / (4.0 * perturbation.alpha)
    else:
        spec = forms.multiplication(perturbation.v, grid)  # checks V >= 0
        lv = perturbation.k
        try:
            margin = im_h - 0.25 * forms.mult_inverse_norm_sq(perturbation.v, lv, spec.end)
        except forms.FormsError:
            margin = None  # support violations surface when the criterion runs
    return ExtensionProblem(
        scenario="halfline_schrodinger",
        spec=spec,
        grid=grid,
        v=eta,
        h=h,
        lv=lv,
        perturbation=perturbation,
        reference_margin=margin,
        reference_dissipative=None if margin is None else margin >= -1e-12,
    )

