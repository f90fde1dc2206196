"""Dissipativity criteria for one-dimensional extension problems.

Each criterion compares the imaginary part of the extension vector's
diagonal matrix element against a square-root-form expression and returns
an auditable :class:`Verdict` carrying both sides separately.  Which
criterion applies is a property of the scenario:

* ``ran_vf_5_1``   -- deviation given as the large extension applied to a
  generator ``phi`` (half-line scenario),
* ``strict_pos_5_3`` -- strictly positive imaginary part, using the skew
  projection onto the adjoint kernel (inverse-square interval scenario),
* ``unique_ext_5_8`` -- coinciding small and large extensions (first-order
  interval scenario),
* ``bounded_v_6_3``  -- bounded imaginary part (Schroedinger scenario),
* ``general_4_4``    -- the master inequality.  Its cross term is reached
  only through ``Lv = V_F phi`` (``phi`` given or ``u = V_F^{-1} Lv``), where
  the isometry factor maps ``V_F^{1/2} phi`` to ``V_K^{1/2} phi``; so the
  term is the polarized small form ``Im K(phi, v)`` in closed form, shared
  with ``ran_vf_5_1``.

Membership preconditions are checked first; a failing membership forces a
non-dissipative verdict, and when both memberships fail for a part whose
two extensions differ, no criterion applies and the verdict is returned as
``outside_theory`` with the decision left undetermined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import forms
from .analytic import AnalyticError, AnalyticFunction, DivergentIntegralError, norm_sq
from .catalog import ExtensionProblem, MultiplicationPerturbation, RankOnePerturbation

__all__ = [
    "CriteriaError",
    "SupportViolationError",
    "MARGIN_TOL",
    "FAIL_V_NOT_IN_DK",
    "FAIL_L_NOT_IN_RANVF",
    "FAIL_DOMAIN_NOT_IN_DSSTAR",
    "Verdict",
    "necessity_checks",
    "general_lhs",
    "verdict_general",
    "verdict_ran_vf",
    "verdict_strict_pos",
    "verdict_unique_ext",
    "verdict_bounded_v",
    "decide",
    "MarginConic",
    "margin_conic",
]

MARGIN_TOL = 1e-12

FAIL_V_NOT_IN_DK = "v_not_in_DK"
FAIL_L_NOT_IN_RANVF = "L_not_in_ranVF"
FAIL_DOMAIN_NOT_IN_DSSTAR = "domain_not_in_DSstar"

CRITERION_GENERAL = "general_4_4"
CRITERION_RAN_VF = "ran_vf_5_1"
CRITERION_STRICT_POS = "strict_pos_5_3"
CRITERION_UNIQUE_EXT = "unique_ext_5_8"
CRITERION_BOUNDED_V = "bounded_v_6_3"
CRITERION_OUTSIDE = "outside_theory"


class CriteriaError(Exception):
    """Criterion applied outside its precondition."""


class SupportViolationError(CriteriaError):
    """Deviation supported outside the bounded multiplier's support."""


@dataclass(frozen=True)
class Verdict:
    """Decision record: ``dissipative`` iff ``margin >= -1e-12`` and no
    membership failure; ``None`` when the inputs fall outside every
    criterion's reach."""

    criterion: str
    lhs: float
    rhs: float
    margin: float
    dissipative: bool | None
    necessity_failures: tuple[str, ...] = ()

    @staticmethod
    def from_sides(criterion: str, lhs: float, rhs: float) -> "Verdict":
        margin = lhs - rhs
        if not math.isfinite(margin):
            raise CriteriaError(f"{criterion}: non-finite sides lhs={lhs!r}, rhs={rhs!r}")
        return Verdict(criterion, lhs, rhs, margin, bool(margin >= -MARGIN_TOL))

    @staticmethod
    def failure(criterion: str, failures: tuple[str, ...]) -> "Verdict":
        return Verdict(criterion, math.nan, math.nan, math.nan, False, failures)

    @staticmethod
    def outside_theory(failures: tuple[str, ...]) -> "Verdict":
        return Verdict(CRITERION_OUTSIDE, math.nan, math.nan, math.nan, None, failures)


# ---------------------------------------------------------------------------
# shared evaluation helpers


def _im_action(problem: ExtensionProblem) -> float:
    """``Im <v, action v>`` for the unbounded part of the maximal action.

    The action includes the real half-line potential W, which adds nothing
    to the imaginary part.
    """
    vfn = problem.v
    act = problem.action_on(vfn)
    return float((vfn.conj() * act).integral(0.0, problem.grid.right_endpoint).imag)


def _bounded_part(problem: ExtensionProblem) -> float:
    """``<v, V v>`` of the bounded imaginary part (Schroedinger scenario)."""
    if problem.scenario != "halfline_schrodinger":
        return 0.0
    return forms.friedrichs_form_sq(problem.spec, problem.v)


def _generator(problem: ExtensionProblem) -> AnalyticFunction | None:
    """The deviation generator ``phi`` (None when absent or identically zero)."""
    phi = problem.phi
    if phi is None or not phi.terms:
        return None
    return phi


def _quarter_inv_form(problem: ExtensionProblem) -> float:
    """``(1/4) ||V_F^{-1/2} Lv||^2`` from whichever deviation data is present."""
    phi = _generator(problem)
    if phi is not None:
        return 0.25 * forms.friedrichs_form_sq(problem.spec, phi)
    lv = problem.deviation()
    if lv is None:
        return 0.0
    return 0.25 * forms.sqrt_scale_inv_form(problem.spec, lv)[0]


# ---------------------------------------------------------------------------
# membership preconditions


def necessity_checks(problem: ExtensionProblem) -> list[str]:
    """Membership failures of the extension data (empty list = all pass).

    Checks ``v`` against the small square-root form domain, the deviation
    against the large square-root range, and (bounded scenarios) ``v``
    against the maximal domain of the symmetric part.
    """
    failures: list[str] = []
    spec = problem.spec
    try:
        forms.krein_form_sq(spec, problem.v)
    except forms.DomainError:
        failures.append(FAIL_V_NOT_IN_DK)
    # a deviation V_F phi lies in the range by construction
    lv = problem.deviation() if problem.phi is None else None
    if lv is not None and lv.terms:
        _, diverged = forms.sqrt_scale_inv_form(spec, lv)
        if diverged:
            failures.append(FAIL_L_NOT_IN_RANVF)
    if problem.scenario == "halfline_schrodinger":
        try:
            norm_sq(problem.v.derivative().derivative(), 0.0, math.inf)
        except DivergentIntegralError:
            failures.append(FAIL_DOMAIN_NOT_IN_DSSTAR)
        except AnalyticError:
            pass
    return failures


def _gate(problem: ExtensionProblem, criterion: str) -> Verdict | None:
    failures = tuple(necessity_checks(problem))
    if not failures:
        return None
    both = FAIL_V_NOT_IN_DK in failures and FAIL_L_NOT_IN_RANVF in failures
    if both and not problem.spec.friedrichs_equals_krein:
        # open case: neither membership holds and the extensions differ
        return Verdict.outside_theory(failures)
    return Verdict.failure(criterion, failures)


# ---------------------------------------------------------------------------
# criteria


def verdict_ran_vf(problem: ExtensionProblem) -> Verdict:
    """Criterion for deviations ``Lv = V_F phi`` (no isometry factor needed).

    lhs: ``Im<v, action v> + Im<v, V_F phi>``;
    rhs: ``(1/4) || K-sqrt of (phi + 2iv) ||^2``, expanded as
    ``(1/4)||V_F^{1/2} phi||^2 + ||V_K^{1/2} v||^2 - Im K(phi, v)``.
    """
    if problem.phi is None:
        raise CriteriaError("criterion needs the deviation generator phi")
    return _master_verdict(problem, CRITERION_RAN_VF)


def verdict_strict_pos(problem: ExtensionProblem) -> Verdict:
    """Criterion for strictly positive imaginary parts.

    lhs: ``Im<v, action v> + Im<Pv, Lv>`` with P the skew projection onto
    the adjoint kernel; rhs: ``(1/4)||V_F^{-1/2} Lv||^2 + ||V_K^{1/2} v||^2``.
    """
    if not (problem.spec.strict_lower_bound > 0.0):
        raise CriteriaError("criterion needs a strictly positive imaginary part")
    gate = _gate(problem, CRITERION_STRICT_POS)
    if gate is not None:
        return gate
    spec = problem.spec
    v = problem.v
    lhs = _im_action(problem)
    lv = problem.deviation()
    if lv is not None:
        pv = forms.projection_P(spec, v)
        lhs += forms.inner(pv, lv, problem.grid.right_endpoint).imag
    rhs = _quarter_inv_form(problem) + forms.krein_form_sq(spec, v)
    return Verdict.from_sides(CRITERION_STRICT_POS, lhs, rhs)


def verdict_unique_ext(problem: ExtensionProblem) -> Verdict:
    """Criterion when the small and large extensions coincide.

    lhs: ``Im<v, action v>``; rhs: ``(1/4)||V^{-1/2} Lv||^2 + ||V^{1/2} v||^2``.
    Since the rhs dominates the zero-deviation rhs, a failing proper
    extension rules out every deviation on the same domain.
    """
    if not problem.spec.friedrichs_equals_krein:
        raise CriteriaError("criterion needs coinciding extensions")
    gate = _gate(problem, CRITERION_UNIQUE_EXT)
    if gate is not None:
        return gate
    lhs = _im_action(problem)
    rhs = _quarter_inv_form(problem) + forms.krein_form_sq(problem.spec, problem.v)
    return Verdict.from_sides(CRITERION_UNIQUE_EXT, lhs, rhs)


def verdict_bounded_v(problem: ExtensionProblem) -> Verdict:
    """Criterion for bounded imaginary parts.

    lhs: ``Im<v, S* v>`` (the boundary form of the symmetric part);
    rhs: ``(1/4)||V^{-1/2} Lv||^2`` in the bounded part's metric.
    """
    pert = problem.perturbation
    if pert is None:
        raise CriteriaError("criterion needs a bounded perturbation")
    end = problem.grid.right_endpoint
    multiplication = isinstance(pert, MultiplicationPerturbation)
    if multiplication and forms.support_violation(pert.v, pert.k, end):
        raise SupportViolationError(
            "deviation carries mass outside the multiplier support"
        )
    gate = _gate(problem, CRITERION_BOUNDED_V)
    if gate is not None:
        return gate
    lhs = _im_action(problem)
    if isinstance(pert, RankOnePerturbation):
        rhs = 0.25 * abs(pert.lam) ** 2 / pert.alpha
    else:
        rhs = 0.25 * forms.mult_inverse_norm_sq(pert.v, pert.k, end)
    return Verdict.from_sides(CRITERION_BOUNDED_V, lhs, rhs)


def general_lhs(problem: ExtensionProblem) -> float:
    """``Im <v, (action + L) v>`` including any bounded imaginary part."""
    lhs = _im_action(problem) + _bounded_part(problem)
    lv = problem.deviation()
    if lv is not None:
        lhs += forms.inner(problem.v, lv, problem.grid.right_endpoint).imag
    return lhs


def verdict_general(problem: ExtensionProblem, basis_dim: int = 24) -> Verdict:
    """Master criterion with the cross term in closed form.

    lhs: :func:`general_lhs`; rhs: ``(1/4)||V_F^{-1/2} Lv||^2 +
    ||V_K^{1/2} v||^2`` minus the cross term ``Im <U V_F^{1/2} phi,
    V_K^{1/2} v>``.  The deviation reaches the cross term only as
    ``Lv = V_F phi``, with ``phi`` given or ``phi = V_F^{-1} Lv`` from
    :func:`forms.vf_solve` (which raises off the range); there the isometry
    factor gives ``U V_F^{1/2} phi = V_K^{1/2} phi``, so the cross term is
    ``Im K(phi, v)``.  When the two extensions coincide that is
    ``Im <Lv, v>``, and no inverse is formed.

    ``basis_dim`` is unused.  It stays only because the benchmark's
    general_span workload passes it, and goes when that workload stops.
    """
    return _master_verdict(problem, CRITERION_GENERAL)


def _master_verdict(problem: ExtensionProblem, criterion: str) -> Verdict:
    """``general_lhs`` against ``(1/4)||V_F^{-1/2} Lv||^2 + ||V_K^{1/2} v||^2 -
    Im K(phi, v)`` with ``Lv = V_F phi``."""
    gate = _gate(problem, criterion)
    if gate is not None:
        return gate
    spec, v = problem.spec, problem.v
    lhs = general_lhs(problem)
    rhs = _quarter_inv_form(problem) + forms.krein_form_sq(spec, v)
    phi, lv = _generator(problem), problem.deviation()
    if phi is None and lv is not None:
        if spec.friedrichs_equals_krein:
            # K(V^{-1} Lv, v) = <Lv, v>: the cross term needs no inverse
            cross = forms.inner(lv, v, problem.grid.right_endpoint).imag
            return Verdict.from_sides(criterion, lhs, rhs - cross)
        phi = forms.vf_solve(spec, lv).u
    if phi is not None:
        rhs -= complex(forms.krein_form(spec, phi, v)).imag
    return Verdict.from_sides(criterion, lhs, rhs)


# ---------------------------------------------------------------------------
# dispatch


def decide(problem: ExtensionProblem) -> Verdict:
    """Route a problem to its scenario's criterion."""
    if problem.scenario == "halfline_schrodinger":
        return verdict_bounded_v(problem)
    if problem.spec.friedrichs_equals_krein:
        return verdict_unique_ext(problem)
    if problem.scenario == "shirley":
        return verdict_strict_pos(problem)
    if problem.phi is not None:
        return verdict_ran_vf(problem)
    return verdict_general(problem)


# ---------------------------------------------------------------------------
# the margin along a line of extension vectors


@dataclass(frozen=True)
class MarginConic:
    """``margin(rho) = c0 + c_re Re rho + c_im Im rho + c2 |rho|^2``: the margin
    of :func:`decide` at the extension vector ``a + rho b``.  Its dissipative
    set is a disc, the outside of one, or a half-plane."""

    c0: float
    c_re: float
    c_im: float
    c2: float

    def __call__(self, rho: complex) -> float:
        """The margin at ``rho``; OverflowError where ``|rho|^2`` overflows."""
        return self.c0 + self.c_re * rho.real + self.c_im * rho.imag + self.c2 * abs(rho) ** 2


def _margin_at(problem: ExtensionProblem, v: AnalyticFunction) -> float:
    return decide(replace(problem, v=v)).margin


def margin_conic(problem: ExtensionProblem, at_inf: ExtensionProblem) -> MarginConic | None:
    """The margin of :func:`decide` along ``a + rho b``, ``a = problem.v`` and
    ``b = at_inf.v``, from four :func:`decide` calls; None when ``a`` or ``b``
    fails a membership.

    Every criterion compares sides that are a Hermitian form in ``v``, a real
    linear term (the deviation against ``v``) and a constant, so the margin
    is a real quadratic in ``(Re rho, Im rho)`` whose ``|rho|^2`` coefficient
    is the form at ``b``.  ``c2`` is the margin at ``b`` of
    :meth:`~dissipext.catalog.ExtensionProblem.without_deviation`, free of
    the constant's rounding; ``c0`` is the margin at ``a``, and ``c_re``,
    ``c_im`` are the margins at ``a + b`` and ``a + i b`` less ``c0 + c2``.
    The memberships are subspaces (``D_K``, ``D(S*)``) or do not depend on
    ``v`` (``ran V_F``), so when ``a`` and ``b`` pass, every point passes.
    """
    a, b = problem.v, at_inf.v
    c0 = decide(problem).margin
    c2 = _margin_at(problem.without_deviation(), b)
    if math.isnan(c0) or math.isnan(c2):
        return None
    c_re = _margin_at(problem, a + b) - c0 - c2
    c_im = _margin_at(problem, a + 1j * b) - c0 - c2
    return MarginConic(c0, c_re, c_im, c2)
