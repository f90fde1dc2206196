"""Closed-form margins and bounds that the tests compare the package against."""

import math
from fractions import Fraction

import numpy as np

from dissipext import forms
from dissipext.analytic import AnalyticFunction, Term
from dissipext.catalog import ExtensionProblem, MultiplicationPerturbation, is_inf
from dissipext.criteria import CriteriaError


def reference_margin(problem: ExtensionProblem) -> float | None:
    """The scenario's closed-form decision margin, from the paper's special
    cases rather than the criteria module's evaluation path; None for a
    multiplication perturbation whose deviation leaves the multiplier's
    support.

    * potsdam: ``Re rho - ||phi'||^2 / 4 + Im phi'(0)`` (``-||phi'||^2 / 4`` at
      ``rho = inf``);
    * shirley: ``|rho|^2 - Re rho - ||phi'||^2 / 4 - Im(conj(rho) phi'(1))``
      (``1 - ||phi'||^2 / 4 - Im phi'(1)`` at ``rho = inf``);
    * konzert: ``1/2 - int x |ell|^2 / (4 gamma)``;
    * halfline_schrodinger: ``Im h - |lambda|^2 / (4 alpha)`` or
      ``Im h - int |k|^2 / V / 4`` (``Im h`` counts as 0 at ``h = inf``).
    """
    if problem.scenario == "potsdam":
        rho = problem.rho
        dphi = problem.phi.derivative()
        norm_dphi_sq = float((dphi.conj() * dphi).integral(0.0, math.inf).real)
        if is_inf(rho):
            return -0.25 * norm_dphi_sq
        return rho.real - 0.25 * norm_dphi_sq + float(dphi.value_at(0.0).imag)
    if problem.scenario == "shirley":
        rho = problem.rho
        dphi = problem.phi.derivative()
        norm_dphi_sq = float((dphi.conj() * dphi).integral(0.0, 1.0).real)
        dphi1 = complex(dphi(np.asarray(1.0)))
        if is_inf(rho):
            return 1.0 - (0.25 * norm_dphi_sq + complex(dphi1).imag)
        return float((abs(rho) ** 2 - rho.real) - (
            0.25 * norm_dphi_sq + (rho.conjugate() * dphi1).imag
        ))
    if problem.scenario == "konzert":
        ell_fn = problem.lv
        xw = AnalyticFunction((Term(1.0, 1.0),))
        weighted = float((ell_fn.conj() * xw * ell_fn).integral(0.0, 1.0).real)
        return 0.5 - weighted / (4.0 * problem.gamma)
    h, perturbation = problem.h, problem.perturbation
    im_h = 0.0 if is_inf(h) else h.imag
    if not isinstance(perturbation, MultiplicationPerturbation):
        return im_h - abs(perturbation.lam) ** 2 / (4.0 * perturbation.alpha)
    try:
        return im_h - 0.25 * forms.mult_inverse_norm_sq(perturbation.v, perturbation.k,
                                                       problem.spec.end)
    except forms.FormsError:
        return None  # support violations surface when the criterion runs


def reference_dissipative(problem: ExtensionProblem) -> bool | None:
    """Whether :func:`reference_margin` is at least ``-1e-12``."""
    margin = reference_margin(problem)
    return None if margin is None else margin >= -1e-12


def shirley_margin_exact(
    rho_re: Fraction, rho_im: Fraction, phi_poly: tuple[Fraction, ...]
) -> Fraction:
    """Decision margin of the interval scenario in exact rational arithmetic.

    ``phi_poly`` holds polynomial coefficients (constant first) of a deviation
    generator with rational coefficients vanishing at 0 and 1; the margin of
    the finite-``rho`` criterion is a rational number in that case.
    """
    dcoef = [Fraction(k) * c for k, c in enumerate(phi_poly)][1:]
    # || phi' ||^2 = int_0^1 (sum d_j x^j)^2 dx with real rational d
    norm_sq = Fraction(0)
    for i, di in enumerate(dcoef):
        for j, dj in enumerate(dcoef):
            norm_sq += di * dj / (i + j + 1)
    dphi1 = sum(dcoef)
    # Im(conj(rho) * phi'(1)) = -rho_im * phi'(1) for real phi'
    lhs = rho_re * rho_re + rho_im * rho_im - rho_re
    rhs = Fraction(1, 4) * norm_sq - rho_im * dphi1
    return lhs - rhs


def semibound_estimate(eps: float, l_norm: float) -> float:
    """Lower bound ``-||L||^2/(4 eps)`` for the deviated symmetric part."""
    if eps <= 0.0:
        raise CriteriaError("strict positivity constant must be positive")
    if l_norm < 0.0:
        raise CriteriaError("operator norm cannot be negative")
    return -(l_norm**2) / (4.0 * eps)
