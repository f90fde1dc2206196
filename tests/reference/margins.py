"""Closed-form margins and bounds that the tests compare the package against."""

from fractions import Fraction

from dissipext.criteria import CriteriaError


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
