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
from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np

from . import forms
from .analytic import AnalyticError, AnalyticFunction, DivergentIntegralError, norm_sq, off_support
from .catalog import CatalogError, ExtensionProblem, MultiplicationPerturbation, RankOnePerturbation

__all__ = [
    "CriteriaError",
    "SupportViolationError",
    "MARGIN_TOL",
    "FAIL_V_NOT_IN_DK",
    "FAIL_L_NOT_IN_RANVF",
    "FAIL_DOMAIN_NOT_IN_DSSTAR",
    "Verdict",
    "necessity_checks",
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
    def from_sides(criterion: str, lhs: float, rhs: float,
                   problem: ExtensionProblem | None = None) -> "Verdict":
        margin = lhs - rhs
        if not math.isfinite(margin):
            raise CriteriaError(f"{criterion}: non-finite sides lhs={lhs!r}, rhs={rhs!r}"
                                + _overflow_source(problem))
        return Verdict(criterion, lhs, rhs, margin, bool(margin >= -MARGIN_TOL))

    @staticmethod
    def failure(criterion: str, failures: tuple[str, ...]) -> "Verdict":
        return Verdict(criterion, math.nan, math.nan, math.nan, False, failures)

    @staticmethod
    def outside_theory(failures: tuple[str, ...]) -> "Verdict":
        return Verdict(CRITERION_OUTSIDE, math.nan, math.nan, math.nan, None, failures)


def _overflow_source(problem: ExtensionProblem | None) -> str:
    """Names the boundary parameter when the extension vector built from it
    has a coefficient beyond 1e150, whose square is within 1e8 of the float
    range, so that the quadratic forms of ``v`` overflow; else ``""``."""
    if problem is None or not max((abs(t.coeff) for t in problem.v.terms), default=0.0) > 1e150:
        return ""
    name = "h" if problem.scenario == "halfline_schrodinger" else "rho"
    return f": the forms of v overflow for {name} = {getattr(problem, name)}"


# ---------------------------------------------------------------------------
# shared evaluation helpers


class _Deviation:
    """The values of one :func:`decide` that depend on the deviation alone,
    each evaluated at its first read and then kept.  ``range_test`` is the
    ``ran V_F`` test ``sqrt_scale_inv_form(spec, lv)``, or ``(None, False)``
    where none is made (a deviation ``V_F phi`` lies in the range by
    construction, and one without terms has form 0); it sets ``lv =
    problem.deviation()`` first, and the gate reads it before any criterion
    reads ``lv``.  ``quarter`` is the rhs term ``(1/4) ||V_F^{-1/2} Lv||^2``,
    from ``phi`` (the generator with terms, else None) when that is given,
    and ``off_support`` the support test of ``k``.  :func:`margin_conic`
    hands one record to its decides that carry one deviation, and sets
    ``implied`` once their anchors have passed every membership.
    """

    def __init__(self, problem: ExtensionProblem):
        self._problem = problem
        self.phi = problem.phi if problem.phi is not None and problem.phi.terms else None
        self.implied = False
        self._range_test = self._quarter = self._off_support = None

    @property
    def range_test(self) -> tuple[float | None, bool]:
        if self._range_test is None:
            self.lv = lv = self._problem.deviation()
            if self._problem.phi is None and lv is not None and lv.terms:
                self._range_test = forms.sqrt_scale_inv_form(self._problem.spec, lv)
            else:
                self._range_test = None, False
        return self._range_test

    @property
    def quarter(self) -> float:
        if self._quarter is None:
            if self.phi is not None:
                self._quarter = 0.25 * forms.friedrichs_form_sq(self._problem.spec, self.phi)
            else:
                inv_form = self.range_test[0]
                self._quarter = 0.0 if inv_form is None else 0.25 * inv_form
        return self._quarter

    @property
    def off_support(self) -> bool:
        if self._off_support is None:
            pert = self._problem.perturbation
            self._off_support = isinstance(pert, MultiplicationPerturbation) and off_support(
                pert.k, pert.v, 0.0, self._problem.grid.right_endpoint)
        return self._off_support


#: the :class:`_Deviation` of the :func:`margin_conic` decide in progress;
#: None outside one, where each criterion makes its own
_SHARED: ContextVar[_Deviation | None] = ContextVar("margin_conic_deviation", default=None)


def _deviation(problem: ExtensionProblem) -> _Deviation:
    """The record of the :func:`margin_conic` decide in progress, or a new one."""
    return _SHARED.get() or _Deviation(problem)


def _im_action(problem: ExtensionProblem) -> float:
    """``Im <v, action v>`` for the unbounded part of the maximal action.

    The action includes the real half-line potential W, which adds nothing
    to the imaginary part.  The Schroedinger action ``-f''`` gives
    ``Im(conj(v(0)) v'(0))`` after one integration by parts
    (:func:`_boundary_form`).
    """
    vfn = problem.v
    if problem.scenario == "halfline_schrodinger" and all(
            t.power == 0 and not t.windowed for t in vfn.terms):
        return _boundary_form(vfn)
    act = problem.action_on(vfn)
    return float(vfn.inner(act, 0.0, problem.grid.right_endpoint).imag)


def _boundary_form(v: AnalyticFunction) -> float:
    """``Im(conj(v(0)) v'(0))`` of a sum of exponentials ``v = sum c e^{mu x}``.

    The Robin vector of ``h`` has coefficients of size ``|h|`` that sum to
    ``v(0) = 1`` and ``v'(0) = h``.  Each part of ``v(0)`` and of ``v'(0) =
    sum c mu`` is the exactly rounded sum (:func:`math.fsum`) of the parts
    of the ``c`` and of the products, so ``Im h`` survives where a rounded
    ``c mu``, and the term-sum integral, would cancel it.
    """
    pairs = [(complex(t.coeff), complex(t.rate)) for t in v.terms]
    v0_re = math.fsum([c.real for c, _ in pairs])
    v0_im = math.fsum([c.imag for c, _ in pairs])
    d0_re = math.fsum([x for c, mu in pairs for x in (c.real * mu.real, -c.imag * mu.imag)])
    d0_im = math.fsum([x for c, mu in pairs for x in (c.real * mu.imag, c.imag * mu.real)])
    return v0_re * d0_im - v0_im * d0_re


def _bounded_part(problem: ExtensionProblem) -> float:
    """``<v, V v>`` of the bounded imaginary part (Schroedinger scenario)."""
    if problem.scenario != "halfline_schrodinger":
        return 0.0
    return forms.friedrichs_form_sq(problem.spec, problem.v)


# ---------------------------------------------------------------------------
# membership preconditions


def _memberships(problem: ExtensionProblem, dev: _Deviation) -> tuple[tuple[str, ...], float | None]:
    """The failures, and ``krein_v = krein_form_sq(spec, v)`` (None outside
    ``D_K``), which the criterion reads instead of evaluating it again."""
    failures: list[str] = []
    try:
        krein_v = forms.krein_form_sq(problem.spec, problem.v)
    except forms.DomainError:
        krein_v = None
        failures.append(FAIL_V_NOT_IN_DK)
    except OverflowError:
        # the rank-one form squares <phi, v> in float arithmetic, and v is
        # the boundary vector of h; every criterion runs this check first
        raise CatalogError(f"|<phi, v>|^2 overflows for h = {problem.h}") from None
    if dev.range_test[1]:
        failures.append(FAIL_L_NOT_IN_RANVF)
    # D(S*) is a subspace: the points of a conic whose anchors lie in it do too
    if problem.scenario == "halfline_schrodinger" and not dev.implied:
        try:
            norm_sq(problem.v.derivative().derivative(), 0.0, math.inf)
        except DivergentIntegralError:
            failures.append(FAIL_DOMAIN_NOT_IN_DSSTAR)
        except AnalyticError:
            pass
    return tuple(failures), krein_v


def necessity_checks(problem: ExtensionProblem) -> list[str]:
    """Membership failures of the extension data (empty list = all pass).

    Checks ``v`` against the small square-root form domain, the deviation
    against the large square-root range, and (bounded scenarios) ``v``
    against the maximal domain of the symmetric part.
    """
    return list(_memberships(problem, _Deviation(problem))[0])


def _gate(problem: ExtensionProblem, criterion: str,
          dev: _Deviation) -> tuple[Verdict | None, float | None]:
    """The failure verdict of the memberships (None when all pass), and ``krein_v``."""
    failures, krein_v = _memberships(problem, dev)
    if not failures:
        return None, krein_v
    both = FAIL_V_NOT_IN_DK in failures and FAIL_L_NOT_IN_RANVF in failures
    if both and not problem.spec.friedrichs_equals_krein:
        # open case: neither membership holds and the extensions differ
        return Verdict.outside_theory(failures), krein_v
    return Verdict.failure(criterion, failures), krein_v


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
    dev = _deviation(problem)
    gate, krein_v = _gate(problem, CRITERION_STRICT_POS, dev)
    if gate is not None:
        return gate
    lhs = _im_action(problem)
    if dev.lv is not None:
        pv = forms.projection_P(problem.spec, problem.v)
        lhs += pv.inner(dev.lv, 0.0, problem.grid.right_endpoint).imag
    rhs = dev.quarter + krein_v
    return Verdict.from_sides(CRITERION_STRICT_POS, lhs, rhs, problem)


def verdict_unique_ext(problem: ExtensionProblem) -> Verdict:
    """Criterion when the small and large extensions coincide.

    lhs: ``Im<v, action v>``; rhs: ``(1/4)||V^{-1/2} Lv||^2 + ||V^{1/2} v||^2``.
    Since the rhs dominates the zero-deviation rhs, a failing proper
    extension rules out every deviation on the same domain.
    """
    if not problem.spec.friedrichs_equals_krein:
        raise CriteriaError("criterion needs coinciding extensions")
    dev = _deviation(problem)
    gate, krein_v = _gate(problem, CRITERION_UNIQUE_EXT, dev)
    if gate is not None:
        return gate
    lhs = _im_action(problem)
    rhs = dev.quarter + krein_v
    return Verdict.from_sides(CRITERION_UNIQUE_EXT, lhs, rhs, problem)


def verdict_bounded_v(problem: ExtensionProblem) -> Verdict:
    """Criterion for bounded imaginary parts.

    lhs: ``Im<v, S* v>`` (the boundary form of the symmetric part);
    rhs: ``(1/4)||V^{-1/2} Lv||^2`` in the bounded part's metric.
    """
    pert = problem.perturbation
    if pert is None:
        raise CriteriaError("criterion needs a bounded perturbation")
    dev = _deviation(problem)
    if dev.off_support:
        raise SupportViolationError("deviation carries mass outside the multiplier support")
    gate, _ = _gate(problem, CRITERION_BOUNDED_V, dev)
    if gate is not None:
        return gate
    lhs = _im_action(problem)
    if isinstance(pert, RankOnePerturbation):
        rhs = 0.25 * abs(pert.lam) ** 2 / pert.alpha
    else:
        rhs = dev.quarter
    return Verdict.from_sides(CRITERION_BOUNDED_V, lhs, rhs, problem)


def _general_lhs(problem: ExtensionProblem, lv: AnalyticFunction | None) -> float:
    """``Im <v, (action + L) v>`` including any bounded imaginary part, with
    ``lv = problem.deviation()`` given."""
    lhs = _im_action(problem) + _bounded_part(problem)
    if lv is not None:
        lhs += problem.v.inner(lv, 0.0, problem.grid.right_endpoint).imag
    return lhs


def verdict_general(problem: ExtensionProblem, basis_dim: int = 24) -> Verdict:
    """Master criterion with the cross term in closed form.

    lhs: ``Im <v, (action + L) v>``; rhs: ``(1/4)||V_F^{-1/2} Lv||^2 +
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
    """``_general_lhs`` against ``(1/4)||V_F^{-1/2} Lv||^2 + ||V_K^{1/2} v||^2 -
    Im K(phi, v)`` with ``Lv = V_F phi``."""
    dev = _deviation(problem)
    gate, krein_v = _gate(problem, criterion, dev)
    if gate is not None:
        return gate
    spec, v, lv, phi = problem.spec, problem.v, dev.lv, dev.phi
    lhs = _general_lhs(problem, lv)
    rhs = dev.quarter + krein_v
    if phi is None and lv is not None:
        if spec.friedrichs_equals_krein:
            # K(V^{-1} Lv, v) = <Lv, v>: the cross term needs no inverse
            cross = lv.inner(v, 0.0, problem.grid.right_endpoint).imag
            return Verdict.from_sides(criterion, lhs, rhs - cross, problem)
        phi = forms.vf_solve(spec, lv).u
    if phi is not None:
        rhs -= complex(forms.krein_form(spec, phi, v)).imag
    return Verdict.from_sides(criterion, lhs, rhs, problem)


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
    set is a disc, the outside of one, or a half-plane.

    :meth:`on_grid` evaluates the same expression, in the same order of
    float operations, on a whole rectangle of points in one numpy pass."""

    c0: float
    c_re: float
    c_im: float
    c2: float

    def _at(self, re, im, abs_sq):
        return self.c0 + self.c_re * re + self.c_im * im + self.c2 * abs_sq

    def __call__(self, rho: complex) -> float:
        """The margin at ``rho``; OverflowError where ``|rho|^2`` overflows."""
        return self._at(rho.real, rho.imag, abs(rho) ** 2)

    def on_grid(self, res: list[float], ims: list[float]) -> np.ndarray:
        """The margins at ``complex(re, im)`` for ``re`` in ``res`` (outer) and
        ``im`` in ``ims`` (inner), row-major: each entry is that of
        :meth:`__call__` bit for bit, and non-finite where it overflows.

        ``np.hypot`` is the ``hypot`` of Python's complex ``abs``, and
        ``np.float_power`` with a scalar exponent calls the C library's
        ``pow``, as Python's float ``** 2`` does.  An array's ``** 2``
        squares exactly instead and differs in the last bit at about one
        point in a thousand.
        """
        re = np.repeat(np.asarray(res, dtype=float), len(ims))
        im = np.tile(np.asarray(ims, dtype=float), len(res))
        with np.errstate(over="ignore", invalid="ignore"):
            return self._at(re, im, np.float_power(np.hypot(re, im), 2.0))


def _margin_with(dev: _Deviation, problem: ExtensionProblem) -> float:
    """``decide(problem).margin`` with ``dev`` as the record of its deviation."""
    token = _SHARED.set(dev)
    try:
        return decide(problem).margin
    finally:
        _SHARED.reset(token)


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

    The decides at ``a``, ``a + b`` and ``a + i b`` carry one deviation and
    read one :class:`_Deviation` record, so each value that depends on the
    deviation alone is evaluated at the first of them and read at the
    others; the decide at ``b`` has its own deviation, 0, and its own
    record.  The record is marked ``implied`` once ``a`` and ``b`` pass, so
    the decides at ``a + b`` and ``a + i b`` skip the ``D(S*)`` test.  It
    lives for this call only.
    """
    a, b = problem.v, at_inf.v
    dev = _Deviation(problem)
    c0 = _margin_with(dev, problem)
    c2 = decide(replace(problem.without_deviation(), v=b)).margin
    if math.isnan(c0) or math.isnan(c2):
        return None
    dev.implied = True
    c_re = _margin_with(dev, replace(problem, v=a + b)) - c0 - c2
    c_im = _margin_with(dev, replace(problem, v=a + 1j * b)) - c0 - c2
    return MarginConic(c0, c_re, c_im, c2)
