"""Closed-form function algebra used by the quadratic-form evaluators.

Every function appearing in the catalogued scenarios is a finite sum of
terms ``c * x^a * exp(b*x)``, optionally windowed to a sub-interval by an
indicator factor.  This module keeps that representation symbolic so that
products, derivatives, boundary values and definite integrals over ``(0, b)``
or ``(0, inf)`` can be computed without quadrature error.  It is the one
representation of a scenario function.  Non-elementary integrals (a
non-integer power times an exponential) use ``mpmath`` adaptive quadrature.

A term is a :class:`Term`, a ``NamedTuple`` ``(coeff, power, rate, lo,
hi)``.  :class:`AnalyticFunction` takes any iterable of such 5-tuples,
``Term`` or plain, and keeps its terms in canonical form: one per
``(power, rate, lo, hi)`` in first-seen order with the coefficients
summed, and none with a zero coefficient.

:func:`norm_sq` decides whether ``int w |f|^2`` or ``int |k|^2 / V`` is
finite from leading orders of the term sums, so every membership test of
the package rests on them rather than on samples.  The input checks are
decided from the terms too: :func:`trace` gives a boundary value with its
cancellation scale, :func:`is_real` compares a sum with its conjugate,
:func:`envelope` and :func:`tail_point` bound where a sum has decayed, and
:func:`sign_check` decides ``Re f >= 0`` from the critical points of each
window piece.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath
import numpy as np

__all__ = [
    "AnalyticError",
    "DivergentIntegralError",
    "Term",
    "AnalyticFunction",
    "reciprocal",
    "off_support",
    "norm_sq",
    "trace",
    "is_real",
    "envelope",
    "peaks",
    "tail_point",
    "SignCheck",
    "sign_check",
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


class Term(NamedTuple):
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


def _exp_at(rate: complex, x: float) -> complex:
    if x == math.inf:
        if rate == 0:
            return 1.0
        if rate.real < 0:
            return 0.0
        raise DivergentIntegralError("exp factor does not decay at infinity")
    z = rate * x
    return complex(1.0, z.imag) if z == 0 else complex(np.exp(z))  # np.exp of a signed zero


def _pow_at(a: complex, x: float) -> complex:
    # x is a non-negative abscissa; x^a through the principal branch.
    if x == math.inf:
        raise DivergentIntegralError("power factor evaluated at infinity")
    if x == 0.0:
        if a == 0:
            return 1.0
        if a.real > 0:
            return 0.0
        if math.isnan(a.real):  # no value, and no singularity to reject
            return complex(math.nan)
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


def _boundary(b: complex, x: float, k: int) -> complex:
    """``x^k e^{bx} / b``, 0 at infinity (where ``Re b < 0``)."""
    if x == math.inf:
        return 0.0
    if x == 0.0:
        return 0.0 if k > 0 else _exp_at(b, 0.0) / b
    return _pow_at(float(k), x) * _exp_at(b, x) / b if k > 0 else _exp_at(b, x) / b


def _integral_int_power_exp(n: int, b: complex, lo: float, hi: float) -> complex:
    # integration by parts, from x^0 up; exp(b*hi)=0 at hi=inf needs Re b < 0
    if hi == math.inf and b.real >= 0:
        raise DivergentIntegralError("exponential integral diverges at infinity")
    total = _boundary(b, hi, 0) - _boundary(b, lo, 0)
    for k in range(1, n + 1):
        total = (_boundary(b, hi, k) - _boundary(b, lo, k)) - (k / b) * total
    return total


def _quad(f, points) -> complex:
    """The package's one quadrature: ``f`` over consecutive ``points``."""
    return complex(mpmath.quad(f, [mpmath.inf if p == math.inf else p for p in points]))


def _integral_quad(a: complex, b: complex, lo: float, hi: float) -> complex:
    if lo == 0.0 and a.real <= -1:
        raise DivergentIntegralError("power factor not integrable at 0")
    if hi == math.inf and (b.real > 0 or (b.real == 0 and a.real >= -1)):
        raise DivergentIntegralError("integrand does not decay at infinity")
    return _quad(lambda t: mpmath.power(t, a) * mpmath.exp(b * t), [lo, hi])


def _term_integral(a: complex, b: complex, lo: float, hi: float) -> complex:
    """Exact ``int_lo^hi x^a exp(b x) dx`` (quadrature fallback if needed)."""
    if hi <= lo:
        return 0.0
    if b == 0:
        return _integral_pure_power(a, lo, hi)
    if a == 0 or _is_small_int(a):
        return _integral_int_power_exp(int(a.real), b, lo, hi)
    return _integral_quad(a, b, lo, hi)


def _power_exp(a: complex, b: complex, xs: np.ndarray, logx, zero) -> np.ndarray:
    """``x^a e^{bx}`` at ``xs`` from ``logx = log xs`` (unused when ``a`` is
    0), real where ``a`` and ``b`` are; ``zero`` masks ``xs == 0`` (None
    when no point is 0), where the value is 1, 0 or NaN as ``a`` is 0, has
    a positive real part, or not."""
    if a.imag == 0.0 and b.imag == 0.0:
        a, b = a.real, b.real
    if a == 0:
        return np.exp(b * xs)
    vals = np.exp(a * logx + b * xs) if b != 0 else np.exp(a * logx)
    if zero is not None:
        vals = np.where(zero, 0.0 if a.real > 0 else np.nan, vals)
    return vals


def _where_scalar(keep, vals, other):
    return vals if keep else other


def _products(f: "AnalyticFunction", g: "AnalyticFunction", conj: bool = False) -> dict:
    """The merged sums ``{(power, rate, lo, hi): coeff}`` of ``f * g``, or of
    ``f.conj() * g`` with ``conj``, those that cancel to 0 included."""
    merged: dict = {}
    for sc, sa, sb, slo, shi in f.terms:
        if conj:  # the terms of f.conj(), whose keys stay apart
            sc, sa, sb = 0.0 + sc.conjugate(), sa.conjugate(), sb.conjugate()
        for tc, ta, tb, tlo, thi in g.terms:
            lo = slo if tlo is None else (tlo if slo is None else max(slo, tlo))
            hi = shi if thi is None else (thi if shi is None else min(shi, thi))
            if lo is not None and hi is not None and hi <= lo:
                continue
            c = sc * tc
            if c != 0:
                key = (sa + ta, sb + tb, lo, hi)
                merged[key] = merged.get(key, 0.0) + c
    return merged


def _integral(pairs, lo: float, hi: float) -> complex:
    """The integral over ``(lo, hi)`` of the terms ``((power, rate, lo, hi), coeff)``."""
    total = 0.0 + 0.0j
    for (a, b, tlo, thi), c in pairs:
        x0 = lo if tlo is None else max(lo, tlo)
        x1 = hi if thi is None else min(hi, thi)
        if x0 < x1 and c != 0:
            total += c * _term_integral(a, b, x0, x1)
    return total


class AnalyticFunction:
    """A finite sum of :class:`Term`, closed under the operations needed here;
    built from any iterable of 5-tuples into the canonical form (module
    docstring)."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        merged: dict[tuple, complex] = {}
        for t in terms:
            c = t[0]
            if c == 0:
                continue
            key = t[1:]
            merged[key] = merged.get(key, 0.0) + c
        self.terms = tuple([tuple.__new__(Term, (c, *key)) for key, c in merged.items() if c != 0])

    @classmethod
    def _merged(cls, merged: dict) -> "AnalyticFunction":
        """The function of the merged sums ``{(power, rate, lo, hi): coeff}``."""
        fn = object.__new__(cls)
        fn.terms = tuple([tuple.__new__(Term, (c, *key)) for key, c in merged.items() if c != 0])
        return fn

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "AnalyticFunction") -> "AnalyticFunction":
        if not (self.terms and other.terms):  # a canonical sum merged with none is itself
            return other if other.terms else self
        return AnalyticFunction(self.terms + other.terms)

    def __sub__(self, other: "AnalyticFunction") -> "AnalyticFunction":
        return self + (other * (-1.0))

    def __mul__(self, other) -> "AnalyticFunction":
        if isinstance(other, AnalyticFunction):
            return AnalyticFunction._merged(_products(self, other))
        # the keys stay apart, and each sum begins from 0.0
        s = complex(other)
        return AnalyticFunction._merged({(a, b, lo, hi): 0.0 + c * s for c, a, b, lo, hi in self.terms})

    __rmul__ = __mul__

    def conj(self) -> "AnalyticFunction":
        # conj(x^a e^{bx}) = x^conj(a) e^{conj(b) x} for x > 0
        return AnalyticFunction._merged({(a.conjugate(), b.conjugate(), lo, hi): 0.0 + c.conjugate()
                                         for c, a, b, lo, hi in self.terms})

    def derivative(self) -> "AnalyticFunction":
        out = []
        for c, a, b, lo, hi in self.terms:
            if lo is not None or hi is not None:
                raise AnalyticError("derivative of an indicator-windowed term is distributional")
            if a != 0:
                out.append((c * a, a - 1.0, b, None, None))
            if b != 0:
                out.append((c * b, a, b, None, None))
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

    def _sum(self, xs, zero, out, where):
        """Add each term at ``xs`` (an array, or a numpy scalar other than 0)
        to ``out``; ``zero`` as for :func:`_power_exp`, ``where`` is
        ``np.where`` or its scalar form.

        ``x^a e^{bx}`` is computed once per ``(a, b)``, unwindowed; a term
        whose pair is the conjugate of one already evaluated takes its
        conjugate, which is bitwise what exp gives, since cos is even and
        sin odd.
        """
        logx = None
        factors: dict[tuple[complex, complex], np.ndarray] = {}
        for c, a, b, lo, hi in self.terms:
            vals = factors.get((a, b))
            if vals is None:
                mirror = factors.get((a.conjugate(), b.conjugate()))
                if mirror is not None:
                    vals = np.conj(mirror)
                else:
                    if a != 0 and logx is None:
                        logx = np.log(xs if zero is None else np.where(zero, 1.0, xs))
                    vals = _power_exp(a, b, xs, logx, zero)
                factors[(a, b)] = vals
            vals = c * vals
            if lo is not None:
                vals = where(xs >= lo, vals, 0.0)
            if hi is not None:
                vals = where(xs <= hi, vals, 0.0)
            out += vals
        return out

    def __call__(self, x) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        zero = xs == 0.0
        return self._sum(xs, zero if zero.any() else None, np.zeros(xs.shape, dtype=complex),
                         np.where)

    def value_at(self, x: float) -> complex:
        """``self(x)`` at one point, bit for bit, on numpy scalars."""
        if x == 0.0:
            out = 0.0 + 0.0j
            for t in self.terms:
                if t.lo is None or not t.lo > 0:
                    out += t.coeff * _pow_at(t.power, 0.0)
            return out
        return complex(self._sum(np.float64(x), None, np.complex128(0.0), _where_scalar))

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
        return _integral(((t[1:], t[0]) for t in self.terms), lo, hi)

    def inner(self, other: "AnalyticFunction", lo: float, hi: float) -> complex:
        """``(self.conj() * other).integral(lo, hi)`` bit for bit, without either product."""
        return _integral(_products(self, other, conj=True).items(), lo, hi)

    def __repr__(self) -> str:  # pragma: no cover
        return f"AnalyticFunction({len(self.terms)} terms)"


def reciprocal(fn: AnalyticFunction) -> AnalyticFunction | None:
    """Pointwise inverse of a one-term function on its window (else None)."""
    if len(fn.terms) != 1:
        return None
    t = fn.terms[0]
    return AnalyticFunction((Term(1.0 / t.coeff, -t.power, -t.rate, t.lo, t.hi),))


#: a coefficient sum below this fraction of its parts' absolute sum cancels
_CANCEL_RTOL = 1e-12
#: powers, rates and orders are compared to this many decimals
_DECIMALS = 9
#: orders searched past the lowest; an order beyond them counts as infinite
_ORDER_DEPTH = 16
_ONE = AnalyticFunction((Term(1.0 + 0j),))


def _live(pairs) -> dict:
    """Coefficient sums of keys (powers, rates) equal to ``_DECIMALS``, less those that cancel."""
    groups: dict = {}
    for key, c in pairs:
        key = tuple(complex(round(z.real, _DECIMALS), round(z.imag, _DECIMALS)) for z in key)
        g = groups.setdefault(key, [0j, 0.0])
        g[0] += c
        g[1] += abs(c)
    return {k: c for k, (c, scale) in groups.items() if abs(c) > _CANCEL_RTOL * scale}


def _breakpoints(fns, lo: float, hi: float) -> list[float]:
    """``lo``, ``hi`` and every window edge of ``fns`` between them, ascending."""
    edges = {lo, hi}
    for fn in fns:
        edges.update(e for t in fn.terms for e in (t.lo, t.hi) if e is not None and lo < e < hi)
    return sorted(edges)


def _live_terms(fn: AnalyticFunction, a: float, b: float) -> list[Term]:
    """The terms of ``fn`` on a piece ``(a, b)``, unwindowed; empty where it vanishes."""
    on = (((t.power, t.rate), t.coeff) for t in fn.terms
          if (t.lo is None or t.lo <= a) and (t.hi is None or t.hi >= b))
    return [Term(c, p, r) for (p, r), c in _live(on).items()]


def _order(terms: list[Term], x0: float) -> float:
    """Leading order of the sum at ``x0``: at 0, Re of the lowest power left
    once each ``exp(b*x)`` is expanded; elsewhere the first nonzero derivative."""
    if x0 == 0.0:
        top = min(t.power.real for t in terms) + _ORDER_DEPTH
        pairs = []
        for t in terms:
            c = t.coeff
            for j in range(int(top - t.power.real) + 1):
                pairs.append(((t.power + j,), c))
                c = c * t.rate / (j + 1)
        return min((p.real for p, in _live(pairs)), default=math.inf)
    fn = AnalyticFunction(terms)
    for j in range(_ORDER_DEPTH + 1):
        if _live(((), t.coeff * mpmath.power(x0, t.power) * mpmath.exp(t.rate * x0))
                 for t in fn.terms):
            return float(j)
        fn = fn.derivative()
    return math.inf


def off_support(f: AnalyticFunction, weight: AnalyticFunction, lo: float, hi: float) -> bool:
    """True when ``f`` has terms that do not cancel on a piece of ``(lo, hi)``
    where every term of ``weight`` is windowed out or cancels."""
    pts = _breakpoints((f, weight), lo, hi)
    return any(_live_terms(f, a, b) and not _live_terms(weight, a, b)
               for a, b in zip(pts, pts[1:]))


def _finite_order(f, weight, inverse: bool, pts: list[float]) -> float:
    """Raise :class:`DivergentIntegralError` unless ``int w^{+-1} |f|^2`` is
    finite over the pieces between ``pts``; return its order ``s`` at 0
    (``x^s``; 0 when not singular).

    At each end ``x0`` of a piece the integrand is ``|x - x0|^s``, ``s = 2
    ord(f) +- ord(w)``, integrable iff ``s > -1``; at infinity ``x^s e^{r x}``
    from the dominant terms.  Pieces where ``f`` or ``w`` vanishes are
    skipped (for the inverse the caller has ruled out ``f`` there).
    """
    sign = -1.0 if inverse else 1.0
    order0 = 0.0
    for a, b in zip(pts, pts[1:]):
        ft, wt = _live_terms(f, a, b), _live_terms(weight, a, b)
        if not ft or not wt:
            continue
        for x0 in (a, b):
            if x0 == math.inf:
                rf, pf = max((t.rate.real, t.power.real) for t in ft)
                rw, pw = max((t.rate.real, t.power.real) for t in wt)
                r = round(2.0 * rf + sign * rw, _DECIMALS)
                s = round(2.0 * pf + sign * pw, _DECIMALS)
                if r > 0.0 or (r == 0.0 and s >= -1.0):
                    raise DivergentIntegralError("integrand does not decay at infinity")
                continue
            s = round(2.0 * _order(ft, x0) + sign * _order(wt, x0), _DECIMALS)
            if x0 == 0.0:
                order0 = min(order0, s)
            if s <= -1.0:
                raise DivergentIntegralError(f"integrand not integrable at x = {x0}")
    return order0


def _mp_value(fn: AnalyticFunction, t):
    return mpmath.fsum(term.coeff * mpmath.power(t, term.power) * mpmath.exp(term.rate * t)
                       for term in fn.terms
                       if (term.lo is None or term.lo <= t) and (term.hi is None or t <= term.hi))


def norm_sq(f: AnalyticFunction, lo: float, hi: float,
            weight: AnalyticFunction | None = None, *, inverse: bool = False) -> float:
    """``int_lo^hi w |f|^2`` for a weight ``w >= 0`` (1 when None), or ``int
    |f|^2 / w`` with ``inverse``; :class:`DivergentIntegralError` when infinite.

    The value is the term-wise closed form when every term converges, else
    (a divergence that cancels in the sum, a ``w`` with several terms) one
    quadrature of the integrand evaluated pointwise from its factors, so
    that a cancellation near 0 loses no digits.  With ``inverse`` the zeros
    of ``w`` inside a window (from :func:`sign_check`) are breakpoints like
    the window edges, so a zero where ``k`` does not vanish diverges.
    """
    w = _ONE if weight is None else weight
    if inverse:
        if off_support(f, w, lo, hi):
            raise DivergentIntegralError("integrand lives where the weight vanishes")
        winv = reciprocal(w)
        products = None if winv is None else _products(f.conj() * winv, f)
    else:
        products = _products(f, f, conj=True) if weight is None else _products(weight, f.conj() * f)
    if products is not None:
        try:
            return float(_integral(products.items(), lo, hi).real)
        except DivergentIntegralError:
            pass
    pts = _breakpoints((f, w), lo, hi)
    if inverse:
        pts = sorted(set(pts).union(sign_check(w, lo, hi).zeros))
    # x = t^p flattens an x^s singularity at 0, where the quadrature's nodes
    # stop at the working precision
    p = 1.0 / (1.0 + _finite_order(f, w, inverse, pts))

    def integrand(t):
        x = t ** p
        v, wx = abs(_mp_value(f, x)) ** 2 * p * t ** (p - 1.0), _mp_value(w, x).real
        if inverse:
            return v / wx if wx else wx  # f vanishes wherever w does
        return v * wx

    return float(_quad(integrand, [e ** (1.0 / p) for e in pts]).real)


# ---------------------------------------------------------------------------
# input checks on term sums: traces, realness, decay, sign


def _covers(t: Term, x: float) -> bool:
    return (t.lo is None or t.lo <= x) and (t.hi is None or x <= t.hi)


def trace(fn: AnalyticFunction, x: float) -> tuple[complex, float]:
    """``fn(x)`` and its cancellation scale ``1 + sum |term values|``;
    :class:`AnalyticError` where a term is singular (at 0)."""
    return fn.value_at(x), 1.0 + sum(abs(t.coeff * _pow_at(t.power, x) * _exp_at(t.rate, x))
                                     for t in fn.terms if _covers(t, x))


def is_real(fn: AnalyticFunction) -> bool:
    """True iff ``fn - conj(fn)`` cancels to ``1e-12 max|c|`` (real on ``x > 0``)."""
    top = max((abs(t.coeff) for t in fn.terms), default=0.0)
    return all(abs(t.coeff) <= _CANCEL_RTOL * top for t in (fn - fn.conj()).terms)


def _modulus(t: Term, x: float) -> float:
    if x == 0.0:
        return abs(t.coeff) if t.power == 0 else (0.0 if t.power.real > 0.0 else math.inf)
    e = t.power.real * math.log(x) + t.rate.real * x
    return abs(t.coeff) * math.exp(e) if e < 700.0 else math.inf


def envelope(fn: AnalyticFunction, x: float) -> float:
    """``env(x) = sum |c| x^{Re a} e^{Re b x}`` over the terms whose window holds ``x``."""
    return sum(_modulus(t, x) for t in fn.terms if _covers(t, x))


def peaks(fn: AnalyticFunction, reach: float) -> list[tuple[float, float]]:
    """``(x, height)`` of each term's largest modulus on its window within
    ``[0, reach]``, the later point on a tie: ``x = -Re a / Re b`` clipped to
    the window, or an edge.  A term singular at 0 peaks there, with its
    modulus at ``x = 1`` (or its right edge) as height."""
    out = []
    for t in fn.terms:
        a, b = max(0.0, t.lo or 0.0), min(reach, math.inf if t.hi is None else t.hi)
        if b < a:
            continue
        p, r = t.power.real, t.rate.real
        xs = [a, b] + ([min(max(-p / r, a), b)] if r < 0.0 < p else [])
        height, x = max((_modulus(t, y), y) for y in xs)
        out.append((x, _modulus(t, min(1.0, b)) if math.isinf(height) and x == 0.0 else height))
    return out


def tail_point(fn: AnalyticFunction, reach: float, rel: float) -> float | None:
    """Last ``x`` in ``[0, reach]`` where ``env(x)`` reaches ``rel`` times the
    largest peak (None without terms).  Every modulus, so ``env``, falls past
    the last term peak: bisection from the last peak above the threshold."""
    pks = peaks(fn, reach)
    if not pks:
        return None
    thr = rel * max(h for _, h in pks)
    if envelope(fn, reach) >= thr:
        return reach
    lo, hi = max(x for x, _ in pks if envelope(fn, x) >= thr), reach
    while hi - lo > 1e-12 * reach:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if envelope(fn, mid) >= thr else (lo, mid)
    return lo


class SignCheck(NamedTuple):
    """``nonneg``: ``Re f >= 0`` to ``1e-12`` of the cancellation scale;
    ``zeros``: points inside window pieces where it vanishes to that scale."""

    nonneg: bool
    zeros: tuple[float, ...]


def _real_at(g: AnalyticFunction, x: float) -> tuple[float, float]:
    """Value and ``sum |term values|`` of a real sum; at 0 the lowest power
    gives the limit, at infinity the fastest growth."""
    if x in (0.0, math.inf):
        key = ((lambda t: (-t.power.real, 0.0)) if x == 0.0
               else (lambda t: (t.rate.real, t.power.real)))
        top = max(map(key, g.terms))
        lead = [t.coeff.real for t in g.terms if key(t) == top]
        if top < (0.0, 0.0):  # vanishes
            return 0.0, 0.0
        if top > (0.0, 0.0):  # diverges
            return math.copysign(math.inf, sum(lead)), math.inf
        return sum(lead), sum(map(abs, lead))
    es = [t.power.real * math.log(x) + t.rate.real * x for t in g.terms]
    top = max(es)
    parts = [t.coeff.real * math.exp(e - top) for t, e in zip(g.terms, es)]
    if top > 700.0:
        return math.copysign(math.inf, math.fsum(parts)), math.inf
    return math.fsum(parts) * math.exp(top), sum(map(abs, parts)) * math.exp(top)


def _sign(g: AnalyticFunction, x: float) -> int:
    v = _real_at(g, x)[0]
    return (v > 0.0) - (v < 0.0)


def _sign_changes(g: AnalyticFunction, a: float, b: float) -> list[float]:
    """Points of ``(a, b)`` where the real sum ``g`` changes sign.

    Rolle's recursion behind the generalized rule of signs (Polya-Szegő,
    Part V): ``h = g / F`` has the sign changes of ``g`` and ``h'`` a term
    or a degree fewer, for ``F = x^{a_1} e^{rx}`` (lowest power) on a power
    sum ``e^{rx} sum c x^a``, ``F = e^{r_j x}`` (lowest-degree group) on an
    exponential polynomial ``sum p_j(x) e^{r_j x}``.  ``h`` is monotone
    between the sign changes of ``h'``, so bisection finds its one change
    on each such segment.  One term keeps its sign on ``x > 0``.
    """
    if len(g.terms) <= 1:
        return []
    rates = {t.rate.real for t in g.terms}
    degree = {r: max(t.power.real for t in g.terms if t.rate.real == r) for r in rates}
    r0 = min(rates, key=lambda r: (degree[r], r))
    p0 = min(t.power.real for t in g.terms) if len(rates) == 1 else 0.0
    h = g * AnalyticFunction((Term(1.0, -p0, -r0),))
    edges = [a, *_sign_changes(h.derivative(), a, b), b]
    out = []
    for lo, hi in zip(edges, edges[1:]):
        s = _sign(h, lo)
        if s * _sign(h, hi) < 0:
            if hi == math.inf:  # bracket by doubling
                hi = max(2.0 * lo, lo + 1.0)
                while _sign(h, hi) == s and hi < 1e300:
                    lo, hi = hi, 2.0 * hi
            mid = 0.5 * (lo + hi)
            while lo < mid < hi and (s_mid := _sign(h, mid)) != 0:
                lo, hi = (mid, hi) if s_mid == s else (lo, mid)
                mid = 0.5 * (lo + hi)
            out.append(mid)
    return out


def sign_check(fn: AnalyticFunction, lo: float, hi: float) -> SignCheck:
    """Decide ``Re fn >= 0`` on ``(lo, hi)``, one window piece at a time.

    Exact where every term is real with a positive coefficient.  Exact up to
    rounding for a real power sum (one rate) or a real-rate exponential
    polynomial (integer powers): ``fn`` at the piece edges (limits at 0 and
    infinity) and at its critical points, the sign changes of ``fn'``
    (:func:`_sign_changes`: bisection only, no library root finder).
    Anything else (complex powers or rates) is the package's one sampled
    decision: ``Re fn`` at the finite non-zero piece edges and 64 Chebyshev
    points per piece, with no zeros reported.
    """
    if all(t.power.imag == 0.0 and t.rate.imag == 0.0 and t.coeff.real > 0.0 for t in fn.terms):
        return SignCheck(True, ())  # what every piece below would give
    nonneg, zeros = True, []
    pts = _breakpoints((fn,), lo, hi)
    for a, b in zip(pts, pts[1:]):
        terms = _live_terms(fn, a, b)
        if all(t.power.imag == 0.0 and t.rate.imag == 0.0 for t in terms):
            g = AnalyticFunction(Term(complex(t.coeff.real), t.power, t.rate) for t in terms)
            if all(t.coeff.real > 0.0 for t in g.terms):
                continue
            if len({t.rate for t in g.terms}) == 1 or all(_is_small_int(t.power) for t in g.terms):
                for x in [a, *_sign_changes(g.derivative(), a, b), b]:
                    value, scale = _real_at(g, x)
                    nonneg &= value >= -_CANCEL_RTOL * max(1.0, scale)
                    if a < x < b and abs(value) <= _CANCEL_RTOL * scale:
                        zeros.append(x)
                continue
        c = np.cos((np.arange(64) + 0.5) * np.pi / 64)
        xs = a + (1.0 + c) / (1.0 - c) if b == math.inf else a + 0.5 * (b - a) * (1.0 + c)
        xs = np.append(xs, [e for e in (a, b) if 0.0 < e < math.inf])
        parts = np.array([AnalyticFunction((t,))(xs).real for t in terms])
        nonneg &= not np.any(parts.sum(0) < -_CANCEL_RTOL * np.maximum(1.0, np.abs(parts).sum(0)))
    return SignCheck(bool(nonneg), tuple(zeros))


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
