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

Every builder states each scenario function as a term sum and checks its
inputs on the terms (traces, realness, square-integrability, decay by the
truncation radius).  The decision itself is :func:`dissipext.criteria.decide`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

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
    "boundary_parameter_rejected",
    "check_boundary_parameter",
    "check_parameter",
    "SHIRLEY_GAMMA_MIN",
]

SHIRLEY_GAMMA_MIN = math.sqrt(3.0)

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
    maximal action is the explicit function ``lv``, the Schroedinger
    perturbation's ``lambda phi`` or ``k``, or ``V_F phi`` (``phi`` set),
    each stored once and read through :meth:`deviation`.  All of them are
    term sums on the domain :attr:`grid`, which is ``spec.domain``.

    :meth:`expression` and :meth:`deviation` are the one statement of the
    scenario's operator that the criteria and the oracle read.
    """

    scenario: str
    spec: forms.ImaginaryPartSpec
    v: AnalyticFunction
    rho: complex | None = None
    phi: AnalyticFunction | None = None
    lv: AnalyticFunction | None = None
    gamma: float | None = None
    h: complex | None = None
    perturbation: RankOnePerturbation | MultiplicationPerturbation | None = None
    w_potential: AnalyticFunction | None = None
    maximally_dissipative: bool | None = None

    @property
    def grid(self) -> Grid:
        """The domain, the one that ``spec`` holds."""
        return self.spec.domain

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
        """``Lv``: ``lv`` when given (Konzert, and hand-built problems), else
        the perturbation's ``lambda phi`` or ``k``, else ``V_F phi`` (None
        when ``phi`` is absent or zero)."""
        if self.lv is not None:
            return self.lv
        pert = self.perturbation
        if isinstance(pert, RankOnePerturbation):
            return pert.lam * pert.phi
        if isinstance(pert, MultiplicationPerturbation):
            return pert.k
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
                       lv=None if self.lv is None else zero, perturbation=pert)


def _check_square(value: complex, name: str) -> None:
    """CatalogError naming ``name`` when ``|value|^2``, which the criteria
    form, overflows."""
    try:
        abs(value) ** 2
    except OverflowError:
        raise CatalogError(f"|{name}|^2 overflows for {name} = {value}") from None


def _check_phi(spec: forms.ImaginaryPartSpec, phi: AnalyticFunction, what: str) -> None:
    """CatalogError ``what`` unless ``phi`` meets the Dirichlet conditions of
    ``spec`` (:func:`forms.check_traces`; an undefined trace fails too)."""
    try:
        forms.check_traces(spec, phi)
    except forms.FormsError:
        raise CatalogError(what) from None


# ---------------------------------------------------------------------------
# potsdam: -i f'' + W on the half-line


_MU_P, _MU_M = -(1.0 + 1.0j) / math.sqrt(2.0), -(1.0 - 1.0j) / math.sqrt(2.0)


def _decaying_vector(h: complex) -> AnalyticFunction:
    """The combination of the decaying kernel pair ``exp(-(1 +- i) x / sqrt(2))``
    with ``f(0) = 1, f'(0) = h`` (``f(0) = 0, f'(0) = 1`` at ``h = inf``)."""
    val0, der0 = (0.0, 1.0) if is_inf(h) else (1.0, h)
    a = (val0 * _MU_M - der0) / (_MU_M - _MU_P)
    b = (der0 - val0 * _MU_P) / (_MU_M - _MU_P)
    return AnalyticFunction((Term(a, 0.0, _MU_P), Term(b, 0.0, _MU_M)))


# the trace-normalized pair: sigma(0) = tau'(0) = 1, sigma'(0) = tau(0) = 0
_SIGMA, _TAU = _decaying_vector(0j), _decaying_vector(RHO_INF)


def build_potsdam(
    w: AnalyticFunction | None,
    rho: complex,
    phi: AnalyticFunction | None,
    *,
    r: float = DEFAULT_HALFLINE_R,
) -> ExtensionProblem:
    """Half-line scenario with potential ``W`` and deviation ``V_F phi``."""
    grid = make_grid("halfline", length=r)
    spec = forms.dirichlet_laplacian_halfline(grid)
    zeta = _TAU if is_inf(rho) else _SIGMA + rho * _TAU
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
    return ExtensionProblem(
        scenario="potsdam",
        spec=spec,
        v=zeta,
        rho=rho,
        phi=phi_fn,
        w_potential=w,
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
    offset: float = 1e-6,
) -> ExtensionProblem:
    """Interval scenario with the inverse-square potential and ``V_F phi``."""
    check_parameter("shirley", "gamma", gamma)
    if not offset > 0.0:
        raise CatalogError("the inverse-square potential needs an offset grid")
    grid = make_grid("interval", offset=offset)
    spec = forms.dirichlet_laplacian_interval(domain=grid)
    xi = _shirley_vector(gamma, rho)
    phi_fn = phi if phi is not None else AnalyticFunction(())
    if phi is not None:
        _check_phi(spec, phi_fn, "phi must vanish at both endpoints")
    _check_square(rho, "rho")
    return ExtensionProblem(
        scenario="shirley",
        spec=spec,
        v=xi,
        rho=rho,
        phi=phi_fn,
        gamma=float(gamma),
    )


# ---------------------------------------------------------------------------
# konzert: i f' + i gamma/x on the unit interval


def build_konzert(
    gamma: float,
    ell: AnalyticFunction | None,
    *,
    offset: float = 1e-6,
) -> ExtensionProblem:
    """Interval first-order scenario; deviation is an explicit L^2 function."""
    check_parameter("konzert", "gamma", gamma)
    if not offset > 0.0:
        raise CatalogError("the inverse-first-power potential needs an offset grid")
    grid = make_grid("interval", offset=offset)
    spec = forms.multiplication(AnalyticFunction((Term(gamma, -1.0),)), grid,
                                strict_lower_bound=gamma)
    v = AnalyticFunction((Term(1.0, gamma + 1.0),))
    ell_fn = ell if ell is not None else AnalyticFunction(())
    try:
        norm_sq(ell_fn, 0.0, 1.0)
    except DivergentIntegralError:
        raise CatalogError("deviation ell must be square-integrable on (0, 1)") from None
    return ExtensionProblem(
        scenario="konzert",
        spec=spec,
        v=v,
        lv=ell_fn,
        gamma=float(gamma),
        maximally_dissipative=True,  # one added dimension against defect one
    )


# ---------------------------------------------------------------------------
# halfline Schroedinger with bounded imaginary part


def boundary_parameter_rejected(scenario: str, re, im):
    """Whether ``scenario`` rejects the boundary parameter ``re + i im``
    whatever its other inputs: ``Im h < 0`` in the Schroedinger scenario,
    where ``h = inf`` counts as real.  ``re`` and ``im`` are floats, or numpy
    arrays that broadcast, for which the answer is an array (or False)."""
    return scenario == "halfline_schrodinger" and (im < 0.0) & (abs(re) != math.inf)


def check_boundary_parameter(scenario: str, rho: complex) -> None:
    """CatalogError for a boundary parameter that ``scenario`` rejects
    (:func:`boundary_parameter_rejected`)."""
    if boundary_parameter_rejected(scenario, rho.real, rho.imag):
        raise CatalogError("Im h < 0 is not a dissipative boundary condition")


def check_parameter(scenario: str, key: str, value: object) -> None:
    """CatalogError for a value of the parameter ``key`` outside the range
    ``scenario`` takes: the one statement of each range, which the builders
    and the config reader both call.  Keys without a range pass."""
    if key == "gamma" and scenario == "shirley":
        # a nan passes, and the criterion then reports its non-finite sides
        if value < SHIRLEY_GAMMA_MIN - 1e-12:
            raise CatalogError(f"gamma must be >= sqrt(3) ~ 1.732, got {value}")
    elif key == "gamma" and scenario == "konzert":
        if not 0.0 < value < 0.5:
            raise CatalogError(f"gamma must satisfy 0 < gamma < 1/2, got {value}")
    elif key == "alpha":
        if not 0.0 < value < math.inf:
            raise CatalogError(f"rank-one strength alpha must be finite and positive, got {value}")
    elif key in ("rho", "h"):
        check_boundary_parameter(scenario, value)


def build_halfline_schrodinger(
    h: complex,
    perturbation: RankOnePerturbation | MultiplicationPerturbation,
    *,
    r: float = DEFAULT_HALFLINE_R,
) -> ExtensionProblem:
    """Bounded-imaginary-part scenario ``-f'' + i V`` with boundary parameter h.

    ``Im h >= 0`` is required (with ``h = inf`` the selfadjoint boundary
    condition, whose imaginary part counts as 0); for negative imaginary
    part no bounded non-negative imaginary part can restore dissipativity,
    so such inputs are rejected outright.  A rank-one direction ``phi`` is
    normalized; one of norm 0, of infinite norm or not square-integrable is
    refused.
    """
    check_parameter("halfline_schrodinger", "h", h)
    grid = make_grid("halfline", length=r)
    eta = _decaying_vector(h)
    if not decay_certificate(eta, r):
        raise CatalogError("boundary vector has not decayed by the truncation radius")
    if isinstance(perturbation, RankOnePerturbation):
        check_parameter("halfline_schrodinger", "alpha", perturbation.alpha)
        try:
            nrm = math.sqrt(norm_sq(perturbation.phi, 0.0, grid.right_endpoint))
        except DivergentIntegralError as exc:
            raise CatalogError(f"rank-one direction phi must be square-integrable: {exc}") from None
        if not 0.0 < nrm < math.inf:
            raise CatalogError(f"rank-one direction phi needs a finite non-zero norm, got {nrm!r}")
        if abs(nrm - 1.0) > 1e-10:
            # the deviation scale refers to the normalized direction
            perturbation = replace(perturbation, phi=perturbation.phi * (1.0 / nrm))
        spec = forms.rank_one(perturbation.alpha, perturbation.phi, grid)
        _check_square(perturbation.lam, "lambda")
    else:
        spec = forms.multiplication(perturbation.v, grid)  # checks V >= 0
    return ExtensionProblem(
        scenario="halfline_schrodinger",
        spec=spec,
        v=eta,
        h=h,
        perturbation=perturbation,
    )

