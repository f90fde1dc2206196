"""Closed-form function algebra used by the quadratic-form evaluators.

Every function appearing in the catalogued scenarios is a finite sum of
terms ``c * x^a * exp(b*x)``, optionally windowed to a sub-interval by an
indicator factor.  This module keeps that representation symbolic so that
products, derivatives, boundary values and definite integrals over ``(0, b)``
or ``(0, inf)`` can be computed without quadrature error.  Division and
non-elementary integrals fall back to ``mpmath`` adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

__all__ = [
    "AnalyticError",
    "DivergentIntegralError",
    "Term",
    "AnalyticFunction",
    "constant",
    "monomial",
    "power",
    "exponential",
    "indicator",
]

_INT_POWER_MAX = 64


class AnalyticError(Exception):
    """Raised when an operation leaves the representable function class."""


class DivergentIntegralError(AnalyticError):
    """Raised when a requested definite integral does not converge."""


def _is_small_int(a: complex) -> bool:
    return a.imag == 0.0 and a.real == round(a.real) and 0 <= a.real <= _INT_POWER_MAX


@dataclass(frozen=True)
class Term:
    """One summand ``coeff * x^power * exp(rate*x)`` on ``[lo, hi]``.

    ``lo``/``hi`` of ``None`` mean the term lives on the whole domain of
    whatever integral or evaluation it participates in.
    """

    coeff: complex
    power: complex = 0.0
    rate: complex = 0.0
    lo: float | None = None
    hi: float | None = None

    @property
    def windowed(self) -> bool:
        return self.lo is not None or self.hi is not None


def _clip_window(t: Term, lo: float, hi: float) -> tuple[float, float]:
    a = lo if t.lo is None else max(lo, t.lo)
    b = hi if t.hi is None else min(hi, t.hi)
    return a, b


def _exp_at(rate: complex, x: float) -> complex:
    if x == math.inf:
        if rate == 0:
            return 1.0
        if rate.real < 0:
            return 0.0
        raise DivergentIntegralError("exp factor does not decay at infinity")
    return complex(np.exp(rate * x))


def _pow_at(a: complex, x: float) -> complex:
    # x is a non-negative abscissa; x^a through the principal branch.
    if x == math.inf:
        raise DivergentIntegralError("power factor evaluated at infinity")
    if x == 0.0:
        if a == 0:
            return 1.0
        if a.real > 0:
            return 0.0
        raise DivergentIntegralError("x^a singular at 0")
    return complex(np.exp(a * np.log(x)))


def _integral_pure_power(a: complex, lo: float, hi: float) -> complex:
    if abs(a + 1.0) < 1e-14:
        if lo == 0.0 or hi == math.inf:
            raise DivergentIntegralError("integral of 1/x over an endpoint-touching range")
        return complex(np.log(hi / lo))
    ap1 = a + 1.0
    if hi == math.inf:
        if ap1.real >= 0:
            raise DivergentIntegralError("power integral diverges at infinity")
        upper = 0.0
    else:
        upper = _pow_at(ap1, hi)
    if lo == 0.0:
        if ap1.real <= 0:
            raise DivergentIntegralError("power integral diverges at 0")
        lower = 0.0
    else:
        lower = _pow_at(ap1, lo)
    return (upper - lower) / ap1


def _integral_int_power_exp(n: int, b: complex, lo: float, hi: float) -> complex:
    # recursive integration by parts; exp(b*hi)=0 at hi=inf needs Re b < 0
    if hi == math.inf and b.real >= 0:
        raise DivergentIntegralError("exponential integral diverges at infinity")

    def boundary(x: float, k: int) -> complex:
        if x == math.inf:
            return 0.0
        if x == 0.0:
            return 0.0 if k > 0 else _exp_at(b, 0.0) / b
        return _pow_at(float(k), x) * _exp_at(b, x) / b if k > 0 else _exp_at(b, x) / b

    if n == 0:
        return boundary(hi, 0) - boundary(lo, 0)
    return (boundary(hi, n) - boundary(lo, n)) - (n / b) * _integral_int_power_exp(n - 1, b, lo, hi)


def _integral_quad(a: complex, b: complex, lo: float, hi: float) -> complex:
    if lo == 0.0 and a.real <= -1:
        raise DivergentIntegralError("power factor not integrable at 0")
    if hi == math.inf:
        if b.real > 0 or (b.real == 0 and a.real >= -1):
            raise DivergentIntegralError("integrand does not decay at infinity")
        hi_mp = mpmath.inf
    else:
        hi_mp = hi

    def f(t):
        return mpmath.power(t, a) * mpmath.exp(b * t)

    return complex(mpmath.quad(f, [lo, hi_mp]))


def _term_integral(a: complex, b: complex, lo: float, hi: float) -> complex:
    """Exact ``int_lo^hi x^a exp(b x) dx`` (quadrature fallback if needed)."""
    if hi <= lo:
        return 0.0
    if b == 0:
        return _integral_pure_power(a, lo, hi)
    if _is_small_int(a):
        return _integral_int_power_exp(int(a.real), b, lo, hi)
    return _integral_quad(a, b, lo, hi)


class AnalyticFunction:
    """A finite sum of :class:`Term`, closed under the operations needed here."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        merged: dict[tuple, complex] = {}
        for t in terms:
            if t.coeff == 0:
                continue
            key = (t.power, t.rate, t.lo, t.hi)
            merged[key] = merged.get(key, 0.0) + t.coeff
        self.terms = tuple(
            Term(c, a, b, lo, hi) for (a, b, lo, hi), c in merged.items() if c != 0
        )

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "AnalyticFunction") -> "AnalyticFunction":
        return AnalyticFunction(self.terms + other.terms)

    def __sub__(self, other: "AnalyticFunction") -> "AnalyticFunction":
        return self + (other * (-1.0))

    def __mul__(self, other) -> "AnalyticFunction":
        if isinstance(other, AnalyticFunction):
            prods = []
            for s in self.terms:
                for t in other.terms:
                    lo = s.lo if t.lo is None else (t.lo if s.lo is None else max(s.lo, t.lo))
                    hi = s.hi if t.hi is None else (t.hi if s.hi is None else min(s.hi, t.hi))
                    if lo is not None and hi is not None and hi <= lo:
                        continue
                    prods.append(Term(s.coeff * t.coeff, s.power + t.power, s.rate + t.rate, lo, hi))
            return AnalyticFunction(prods)
        c = complex(other)
        return AnalyticFunction(tuple(Term(t.coeff * c, t.power, t.rate, t.lo, t.hi) for t in self.terms))

    __rmul__ = __mul__

    def conj(self) -> "AnalyticFunction":
        # conj(x^a e^{bx}) = x^conj(a) e^{conj(b) x} for x > 0
        return AnalyticFunction(
            tuple(
                Term(t.coeff.conjugate(), t.power.conjugate(), t.rate.conjugate(), t.lo, t.hi)
                for t in self.terms
            )
        )

    def derivative(self) -> "AnalyticFunction":
        out = []
        for t in self.terms:
            if t.windowed:
                raise AnalyticError("derivative of an indicator-windowed term is distributional")
            if t.power != 0:
                out.append(Term(t.coeff * t.power, t.power - 1.0, t.rate))
            if t.rate != 0:
                out.append(Term(t.coeff * t.rate, t.power, t.rate))
        return AnalyticFunction(out)

    def antiderivative(self) -> "AnalyticFunction":
        """Term-wise antiderivative vanishing at 0 (qualified classes only)."""
        out = []
        for t in self.terms:
            if t.windowed:
                raise AnalyticError("antiderivative of a windowed term is not supported")
            if t.rate == 0:
                if abs(t.power + 1.0) < 1e-14:
                    raise AnalyticError("antiderivative would produce a logarithm")
                out.append(Term(t.coeff / (t.power + 1.0), t.power + 1.0, 0.0))
            elif _is_small_int(t.power):
                # int x^n e^{bx} = e^{bx} sum_k (-1)^k n!/(n-k)! x^{n-k} / b^{k+1}
                n, b = int(t.power.real), t.rate
                coef = t.coeff
                fall = 1.0
                for k in range(n + 1):
                    out.append(Term(coef * (-1.0) ** k * fall / b ** (k + 1), float(n - k), b))
                    fall *= n - k
                # constant of integration so that F(0) = 0
                const = -sum(
                    o.coeff for o in out[-(n + 1):] if o.power == 0
                )
                if const != 0:
                    out.append(Term(const, 0.0, 0.0))
            else:
                raise AnalyticError("antiderivative outside the closed class")
        return AnalyticFunction(out)

    # -- evaluation ------------------------------------------------------

    def __call__(self, x) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        zero = xs == 0.0
        safe = np.where(zero, 1.0, xs)
        out = np.zeros(xs.shape, dtype=complex)
        for t in self.terms:
            if t.power == 0:
                vals = t.coeff * np.exp(t.rate * xs)
            else:
                vals = t.coeff * np.exp(t.power * np.log(safe.astype(complex)) + t.rate * safe)
                at0 = t.coeff if t.power == 0 else (0.0 if t.power.real > 0 else np.nan)
                vals = np.where(zero, at0, vals)
            if t.lo is not None:
                vals = np.where(xs >= t.lo, vals, 0.0)
            if t.hi is not None:
                vals = np.where(xs <= t.hi, vals, 0.0)
            out += vals
        return out

    def value_at_zero(self) -> complex:
        out = 0.0 + 0.0j
        for t in self.terms:
            if t.lo is not None and t.lo > 0:
                continue
            out += t.coeff * _pow_at(t.power, 0.0)
        return out

    def value_at(self, x: float) -> complex:
        if x == 0.0:
            return self.value_at_zero()
        return complex(self(np.asarray(x)))

    def decays_at_infinity(self) -> bool:
        for t in self.terms:
            if t.hi is not None:
                continue
            if t.rate.real < 0:
                continue
            if t.rate.real == 0 and t.rate.imag == 0 and t.power.real < 0:
                continue
            return False
        return True

    # -- integration -----------------------------------------------------

    def integral(self, lo: float, hi: float) -> complex:
        """Definite integral over ``(lo, hi)``; ``hi`` may be ``math.inf``."""
        total = 0.0 + 0.0j
        for t in self.terms:
            a, b = _clip_window(t, lo, hi)
            if b <= a:
                continue
            total += t.coeff * _term_integral(t.power, t.rate, a, b)
        return total

    def max_abs_on(self, xs: np.ndarray) -> float:
        return float(np.max(np.abs(self(xs)))) if len(xs) else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"AnalyticFunction({len(self.terms)} terms)"


def constant(c: complex) -> AnalyticFunction:
    return AnalyticFunction((Term(complex(c)),))


def monomial(c: complex, n: int) -> AnalyticFunction:
    return AnalyticFunction((Term(complex(c), float(n)),))


def power(c: complex, a: complex) -> AnalyticFunction:
    return AnalyticFunction((Term(complex(c), complex(a)),))


def exponential(c: complex, rate: complex) -> AnalyticFunction:
    return AnalyticFunction((Term(complex(c), 0.0, complex(rate)),))


def indicator(lo: float, hi: float) -> AnalyticFunction:
    if hi <= lo:
        raise AnalyticError("indicator needs lo < hi")
    return AnalyticFunction((Term(1.0 + 0.0j, 0.0, 0.0, float(lo), float(hi)),))
