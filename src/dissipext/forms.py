"""Quadratic forms of the smallest and largest non-negative selfadjoint
extensions of the catalog's imaginary parts.

Each :class:`ImaginaryPartSpec` names one family of non-negative symmetric
operators and fixes closed-form expressions for

* the Friedrichs square-root form (largest extension),
* the Kreĭn-von Neumann square-root form (smallest extension),
* the inverse solve and the associated inverse form,
* the skew projection onto the adjoint kernel (strictly positive case).

The sup-formula evaluator :func:`krein_form_ando_nishio` is the independent
numerical route to the small form: it maximizes a Rayleigh quotient over a
finite family of graded splines and converges to the closed form from below.
The splines come from the package's one spline layer,
:mod:`dissipext.splines`, on a clamped knot vector graded toward both ends.

Every function carries its term sum, so forms, derivatives, traces and
inverses are evaluated exactly.  Sampled quadrature with divergence
heuristics decides only what the term sum leaves open: a term-wise
divergence that may cancel in the sum, and the inverse of a multiplier with
more than one term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import eigenh, splines
from .analytic import AnalyticError, AnalyticFunction, DivergentIntegralError, Term
from .grid import GridFunction, differentiate, integrate

__all__ = [
    "FormsError",
    "DomainError",
    "RangeError",
    "DegenerateFormError",
    "DIVERGENCE_THRESHOLD",
    "ImaginaryPartSpec",
    "dirichlet_laplacian_halfline",
    "dirichlet_laplacian_interval",
    "multiplication",
    "rank_one",
    "bounded_matrix",
    "friedrichs_form_sq",
    "krein_form_sq",
    "friedrichs_form",
    "krein_form",
    "krein_form_ando_nishio",
    "VfSolution",
    "vf_solve",
    "sqrt_scale_inv_form",
    "support_violation",
    "mult_inverse_norm_sq",
    "projection_P",
    "DiscreteSqrtPair",
    "discrete_sqrt_pair",
]

DIVERGENCE_THRESHOLD = 1e8
_TRACE_TOL = 1e-8


class FormsError(Exception):
    """Base error of the forms module."""


class DomainError(FormsError):
    """Function lies outside the form domain in question."""


class RangeError(FormsError):
    """Right-hand side is not in the range of the requested extension."""


class DegenerateFormError(FormsError):
    """The finite test family sees only the kernel of the form."""


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True, eq=False)
class ImaginaryPartSpec:
    """One imaginary-part family with its extension data.

    Attributes
    ----------
    family : str
        One of ``dirichlet_laplacian_halfline``, ``dirichlet_laplacian_interval``,
        ``multiplication``, ``rank_one``, ``bounded_matrix``.
    weight : GridFunction, optional
        Non-negative multiplier for the multiplication family.
    alpha, phi0 :
        Strength and normalized direction of the rank-one family.
    matrix : ndarray, optional
        Hermitian PSD matrix of the discrete family (acts on coefficient
        vectors instead of grid functions).
    strict_lower_bound : float
        Largest known epsilon with ``V >= eps``; 0 when none.
    friedrichs_equals_krein : bool
        True exactly for the essentially selfadjoint families.
    """

    family: str
    weight: GridFunction | None = None
    alpha: float | None = None
    phi0: GridFunction | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)
    strict_lower_bound: float = 0.0
    friedrichs_equals_krein: bool = False

    def __post_init__(self):
        same = self.family in ("multiplication", "rank_one", "bounded_matrix")
        if self.friedrichs_equals_krein != same:
            raise FormsError("friedrichs_equals_krein must match the family")
        if self.family == "multiplication":
            if self.weight is None:
                raise FormsError("multiplication family needs a weight")
            if float(np.min(self.weight.values.real)) < -1e-12:
                raise FormsError("multiplication weight must be non-negative")
        if self.family == "rank_one":
            if self.alpha is None or self.alpha <= 0 or self.phi0 is None:
                raise FormsError("rank_one family needs alpha > 0 and a direction")
            nrm = self.phi0.norm_sq()
            if abs(nrm - 1.0) > 1e-10:
                raise FormsError(f"rank_one direction must be normalized, got ||phi||^2={nrm}")
        if self.family == "bounded_matrix" and self.matrix is None:
            raise FormsError("bounded_matrix family needs a matrix")

    @property
    def is_laplacian(self) -> bool:
        return self.family in ("dirichlet_laplacian_halfline", "dirichlet_laplacian_interval")


def dirichlet_laplacian_halfline() -> ImaginaryPartSpec:
    return ImaginaryPartSpec("dirichlet_laplacian_halfline")


def dirichlet_laplacian_interval(strict_lower_bound: float = math.pi ** 2) -> ImaginaryPartSpec:
    return ImaginaryPartSpec("dirichlet_laplacian_interval", strict_lower_bound=strict_lower_bound)


def multiplication(weight: GridFunction, strict_lower_bound: float = 0.0) -> ImaginaryPartSpec:
    return ImaginaryPartSpec(
        "multiplication",
        weight=weight,
        strict_lower_bound=strict_lower_bound,
        friedrichs_equals_krein=True,
    )


def rank_one(alpha: float, phi0: GridFunction) -> ImaginaryPartSpec:
    return ImaginaryPartSpec("rank_one", alpha=alpha, phi0=phi0, friedrichs_equals_krein=True)


def bounded_matrix(matrix: np.ndarray) -> ImaginaryPartSpec:
    m = np.asarray(matrix, dtype=complex)
    if np.max(np.abs(m - m.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise FormsError("bounded_matrix needs a Hermitian matrix")
    return ImaginaryPartSpec("bounded_matrix", matrix=m, friedrichs_equals_krein=True)


# ---------------------------------------------------------------------------
# inner products


def _inner(f: GridFunction, g: GridFunction) -> complex:
    """<f, g> over the true domain, in closed form."""
    return (f.analytic.conj() * g.analytic).integral(0.0, f.grid.right_endpoint)


def _diverges_sampled(grid, integrand: np.ndarray, *, total: float) -> bool:
    """Heuristics for non-integrability of a sampled non-negative integrand.

    Flags (a) values beyond the global divergence threshold, (b) a fitted
    left-edge power law ``x^p`` with ``p <= -1``, and (c) on half-lines a
    tail whose dyadic increments stop decaying.
    """
    if not math.isfinite(total) or total > DIVERGENCE_THRESHOLD:
        return True
    x, w = grid.nodes, grid.weights
    head = integrand[:4]
    if np.all(head > 0) and head[0] * x[0] > 1e-9 * (1.0 + total):
        p = np.polyfit(np.log(x[:4]), np.log(head), 1)[0]
        if p <= -0.999:
            return True
    if grid.is_halfline:
        r = grid.length
        s1 = float(np.sum(w[x <= r / 4] * integrand[x <= r / 4]))
        s2 = float(np.sum(w[x <= r / 2] * integrand[x <= r / 2]))
        s3 = total
        inc1, inc2 = s2 - s1, s3 - s2
        if inc2 > 1e-8 * (1.0 + s3) and inc2 >= 0.9 * inc1:
            return True
    return False


def _weighted_norm_sq_checked(weight: GridFunction | None, f: GridFunction) -> tuple[float, bool]:
    """``int w |f|^2`` (w=1 when None) together with a divergence flag.

    Symbolic integration is term-wise, so an oscillatory sum of individually
    divergent terms can be flagged spuriously; the sampled heuristic on the
    pointwise (non-negative) integrand arbitrates those cases.
    """
    integrand = f.analytic.conj() * f.analytic
    if weight is not None:
        integrand = weight.analytic * integrand
    try:
        return float(integrand.integral(0.0, f.grid.right_endpoint).real), False
    except DivergentIntegralError:
        vals = np.abs(f.values) ** 2
        if weight is not None:
            vals = weight.values.real * vals
        total = float(np.sum(f.grid.weights * vals))
        if _diverges_sampled(f.grid, vals, total=total):
            return math.inf, True
        # term-wise divergence cancelled in the sum: trust quadrature
        return total, False


# ---------------------------------------------------------------------------
# Friedrichs and Krein square-root forms


def _check_friedrichs_domain(spec: ImaginaryPartSpec, f: GridFunction) -> None:
    if not spec.is_laplacian:
        return
    t = f.traces
    scale = 1.0 + float(np.max(np.abs(f.values)))
    if abs(t.value0) > _TRACE_TOL * scale:
        raise DomainError(f"boundary value f(0)={t.value0} violates the left condition")
    if spec.family == "dirichlet_laplacian_interval" and abs(t.value_b) > _TRACE_TOL * scale:
        raise DomainError(f"boundary value f(b)={t.value_b} violates the right condition")


def friedrichs_form_sq(spec: ImaginaryPartSpec, f) -> float:
    """``||V_F^{1/2} f||^2`` for ``f`` in the Friedrichs form domain."""
    if spec.family == "bounded_matrix":
        c = np.asarray(f, dtype=complex)
        return float(np.vdot(c, spec.matrix @ c).real)
    if spec.is_laplacian:
        _check_friedrichs_domain(spec, f)
        df = differentiate(f)
        val, diverged = _weighted_norm_sq_checked(None, df)
        if diverged:
            raise DomainError("||f'||^2 diverges: f outside the Friedrichs form domain")
        return val
    if spec.family == "multiplication":
        val, diverged = _weighted_norm_sq_checked(spec.weight, f)
        if diverged:
            raise DomainError("weighted norm diverges: f outside the form domain")
        return val
    # rank_one
    return spec.alpha * abs(_inner(spec.phi0, f)) ** 2


def krein_form_sq(spec: ImaginaryPartSpec, f) -> float:
    """``||V_K^{1/2} f||^2`` for ``f`` in the Krein square-root domain."""
    if spec.family == "dirichlet_laplacian_halfline":
        df = differentiate(f)
        val, diverged = _weighted_norm_sq_checked(None, df)
        if diverged:
            raise DomainError("||f'||^2 diverges: f outside the small form domain")
        return val
    if spec.family == "dirichlet_laplacian_interval":
        df = differentiate(f)
        val, diverged = _weighted_norm_sq_checked(None, df)
        if diverged:
            raise DomainError("||f'||^2 diverges: f outside the small form domain")
        t = f.traces
        return val - abs(t.value_b - t.value0) ** 2
    return friedrichs_form_sq(spec, f)


def friedrichs_form(spec: ImaginaryPartSpec, f, g) -> complex:
    """Polarized Friedrichs form ``<V_F^{1/2} f, V_F^{1/2} g>``."""
    if spec.family == "bounded_matrix":
        return complex(np.vdot(np.asarray(f, dtype=complex), spec.matrix @ np.asarray(g, dtype=complex)))
    if spec.is_laplacian:
        return _inner(differentiate(f), differentiate(g))
    if spec.family == "multiplication":
        integrand = f.analytic.conj() * spec.weight.analytic * g.analytic
        return integrand.integral(0.0, f.grid.right_endpoint)
    return spec.alpha * np.conj(_inner(spec.phi0, f)) * _inner(spec.phi0, g)


def krein_form(spec: ImaginaryPartSpec, f, g) -> complex:
    """Polarized Krein form ``<V_K^{1/2} f, V_K^{1/2} g>``."""
    if spec.family == "dirichlet_laplacian_interval":
        tf, tg = f.traces, g.traces
        jump = np.conj(tf.value_b - tf.value0) * (tg.value_b - tg.value0)
        return _inner(differentiate(f), differentiate(g)) - jump
    if spec.family == "dirichlet_laplacian_halfline":
        return _inner(differentiate(f), differentiate(g))
    return friedrichs_form(spec, f, g)


# ---------------------------------------------------------------------------
# Ando-Nishio sup formula


_AN_DEPTH = 13
# one Gauss panel per knot interval; the sup-formula values depend on this
# rule through the quadrature of non-polynomial targets and weights
_AN_SUBPANELS = 1


def _graded_knots(lo: float, hi: float) -> np.ndarray:
    """Clamped cubic knots of ``(lo, hi)``, dyadically graded at both ends.

    Knots accumulate geometrically at both endpoints (down to span scale
    ``2^-_AN_DEPTH``) around a uniform interior block, which resolves both
    the boundary layers forced by the endpoint conditions of admissible test
    functions and any power-law behavior of the target.
    """
    span = hi - lo
    left = [lo + span * 2.0 ** (-j) for j in range(_AN_DEPTH, 4, -1)]
    mid = [lo + span * k / 16.0 for k in range(1, 16)]
    right = [hi - span * 2.0 ** (-j) for j in range(5, _AN_DEPTH + 1)]
    interior = sorted(set(left + mid + right))
    return np.array([lo] * 4 + interior + [hi] * 4)


def _widest_first(knots: np.ndarray) -> list[int]:
    """Splines with vanishing value and slope at both ends, widest first.

    They belong to the closed operator domains of every catalog family;
    ties go left to right, so prefixes give nested spans.
    """
    order = list(range(2, len(knots) - 6))
    order.sort(key=lambda i: (-(knots[i + 4] - knots[i]), knots[i]))
    return order


def _an_spline_pencil(
    spec: ImaginaryPartSpec, h: GridFunction, knots: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Numerator column and form Gram of every spline of ``knots``.

    Integrals run on the knot-aligned Gauss panels of the spline layer
    (every pair of splines is polynomial on those panels), so the quadrature
    is exact at any grading depth regardless of the sample grid of ``h``.
    """
    tab = splines.spline_tables(knots, _AN_SUBPANELS)
    xs = tab.x.ravel()
    if spec.is_laplacian:
        # numerator via parts: <h, -f''> = <h', f'> (test slopes vanish at
        # the support edges)
        tgt = h.analytic.derivative()(xs).reshape(tab.x.shape)
        return tab.vector(tab.w * np.conj(tgt), tab.d1), tab.matrix(tab.w, tab.d1, tab.d1)
    weighted = tab.w * spec.weight.analytic(xs).real.reshape(tab.x.shape)
    tgt = h.analytic(xs).reshape(tab.x.shape)
    return tab.vector(weighted * np.conj(tgt), tab.val), tab.matrix(weighted, tab.val, tab.val)


def krein_form_ando_nishio(spec: ImaginaryPartSpec, h: GridFunction, test_dim: int) -> float:
    """Sup-formula value of the small square-root form at ``h``.

    Maximizes ``|<h, V f>|^2 / <f, V f>`` over the span of the first
    ``test_dim`` members of the edge-refined dyadic spline family, as the
    largest eigenvalue of the Hermitian pencil (numerator Gram vs. form
    Gram).  Non-decreasing in ``test_dim`` and bounded above by
    :func:`krein_form_sq`.
    """
    if test_dim < 2:
        raise FormsError("test_dim must be at least 2")
    if spec.family == "rank_one":
        # the quotient is the same on every test direction not annihilated
        return float(abs(_inner(spec.phi0, h)) ** 2 * spec.alpha)
    if spec.family == "bounded_matrix":
        bvec = spec.matrix @ np.asarray(h, dtype=complex)
        return _pencil_max(np.outer(bvec, np.conj(bvec)), spec.matrix)
    knots = _graded_knots(h.grid.offset, h.grid.length)
    order = _widest_first(knots)
    if test_dim > len(order):
        raise FormsError(
            f"graded spline family has {len(order)} members; "
            f"test_dim={test_dim} unavailable"
        )
    bcol, fgram = _an_spline_pencil(spec, h, knots)
    idx = order[:test_dim]
    bcol = bcol[idx]
    fgram = fgram[np.ix_(idx, idx)]
    fgram = 0.5 * (fgram + fgram.conj().T)
    if float(np.max(np.abs(np.diag(fgram)))) < 1e-14:
        raise DegenerateFormError("all test functions are annihilated by the form")
    num = np.outer(np.conj(bcol), bcol)
    return _pencil_max(num, fgram)


def _pencil_max(num: np.ndarray, den: np.ndarray) -> float:
    """Largest eigenvalue of ``num x = lam den x`` on the range of ``den``."""
    w, v = eigenh.eigh(den)
    wmax = float(np.max(w)) if len(w) else 0.0
    if wmax <= 0.0:
        raise DegenerateFormError("form Gram has no positive part")
    keep = w > 1e-13 * wmax
    t = v[:, keep] / np.sqrt(w[keep])[None, :]
    reduced = t.conj().T @ num @ t
    reduced = 0.5 * (reduced + reduced.conj().T)
    vals, _ = eigenh.eigh(reduced)
    return float(max(vals[-1], 0.0)) if len(vals) else 0.0


# ---------------------------------------------------------------------------
# inverse solve


@dataclass(frozen=True, eq=False)
class VfSolution:
    """Solution of ``V_F u = ell`` with ``inv_form = <ell, u> >= 0``."""

    u: GridFunction
    inv_form: float


def _laplacian_inverse(
    spec: ImaginaryPartSpec, ell: GridFunction, *, decay: bool = True
) -> tuple[AnalyticFunction, float]:
    """Exact ``u`` with ``-u'' = ell`` and the family's boundary conditions,
    together with ``<ell, u>``.

    On the half-line ``decay`` demands a solution vanishing at infinity (the
    operator range); without it ``<ell, u>`` is the square-root range's
    ``||V_F^{-1/2} ell||^2``.  Raises :class:`RangeError` on a divergent
    integral and :class:`FormsError` when an antiderivative leaves the closed
    term class.
    """
    fn = ell.analytic
    xfn = AnalyticFunction((Term(1.0, 1.0),))
    one = AnalyticFunction((Term(1.0, 0.0),))
    try:
        a1 = (xfn * fn).antiderivative()  # int_0^x y ell(y) dy
        if spec.family == "dirichlet_laplacian_interval":
            b = ell.grid.length
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
        inv = float((fn.conj() * u).integral(0.0, ell.grid.right_endpoint).real)
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
    if spec.family == "bounded_matrix":
        c = np.asarray(ell, dtype=complex)
        w, v = eigenh.eigh(spec.matrix)
        wmax = float(np.max(np.abs(w))) if len(w) else 0.0
        keep = w > 1e-12 * max(wmax, 1e-300)
        coeff = v.conj().T @ c
        if np.linalg.norm(coeff[~keep]) > 1e-8 * max(np.linalg.norm(c), 1e-300):
            raise RangeError("vector has a kernel component")
        u = v[:, keep] @ (coeff[keep] / w[keep])
        return VfSolution(u, float(np.vdot(c, u).real))
    if spec.family == "rank_one":
        # the residual uses the grid quadrature that normalized phi0; the
        # exact coefficient can differ from it by more than the threshold
        rest = ell.values - integrate(spec.phi0, ell) * spec.phi0.values
        rest_sq = float(np.sum(ell.grid.weights * (rest.real * rest.real + rest.imag * rest.imag)))
        if math.sqrt(rest_sq) > 1e-8 * (1.0 + math.sqrt(ell.norm_sq())):
            raise RangeError("right-hand side leaves the rank-one range")
        c = _inner(spec.phi0, ell)
        u = GridFunction.from_analytic(ell.grid, (c / spec.alpha) * spec.phi0.analytic)
        return VfSolution(u, float(abs(c) ** 2 / spec.alpha))
    if spec.family == "multiplication":
        if support_violation(spec.weight, ell):
            raise RangeError("right-hand side is supported outside the multiplier support")
        winv = _invert_single_term(spec.weight.analytic)
        if winv is None:
            raise FormsError("multiplier has no one-term pointwise inverse")
        integrand = ell.analytic.conj() * winv * ell.analytic
        try:
            inv = float(integrand.integral(0.0, ell.grid.right_endpoint).real)
        except DivergentIntegralError:
            # term-wise divergence that may cancel in the sum: sampled quadrature
            vals = np.abs(ell.values) ** 2 / np.maximum(spec.weight.values.real, 1e-300)
            inv = float(np.sum(ell.grid.weights * vals))
            if _diverges_sampled(ell.grid, vals, total=inv):
                raise RangeError("weighted inverse integral diverges") from None
        return VfSolution(GridFunction.from_analytic(ell.grid, winv * ell.analytic), inv)
    u, inv = _laplacian_inverse(spec, ell)
    return VfSolution(GridFunction.from_analytic(ell.grid, u), inv)


def _invert_single_term(fn: AnalyticFunction) -> AnalyticFunction | None:
    """Pointwise inverse of a one-term function on its own support window."""
    if len(fn.terms) != 1:
        return None
    t = fn.terms[0]
    if t.coeff == 0:
        return None
    return AnalyticFunction((Term(1.0 / t.coeff, -t.power, -t.rate, t.lo, t.hi),))


def support_violation(weight: GridFunction, k: GridFunction, tol: float = 1e-10) -> bool:
    """True when ``k`` carries mass where the multiplier ``weight`` vanishes."""
    if float(np.max(np.abs(k.values))) == 0.0:
        return False
    wv = weight.values.real
    dead = wv <= tol * max(1.0, float(np.max(wv)))
    mass = float(np.sum(k.grid.weights[dead] * np.abs(k.values[dead]) ** 2))
    total = float(np.sum(k.grid.weights * np.abs(k.values) ** 2))
    return mass > 1e-12 * max(total, 1e-300)


def mult_inverse_norm_sq(weight: GridFunction, k: GridFunction) -> float:
    """``int over the multiplier support of |k|^2 / weight``.

    The support condition (``k`` vanishing a.e. off the multiplier support)
    is enforced first; violating inputs are not in the square-root range of
    the multiplication part and are rejected.
    """
    if support_violation(weight, k):
        raise RangeError("deviation is supported outside the multiplier support")
    inv = _invert_single_term(weight.analytic)
    if inv is not None:
        try:
            integrand = k.analytic.conj() * inv * k.analytic
            return float(integrand.integral(0.0, weight.grid.right_endpoint).real)
        except DivergentIntegralError:
            raise RangeError("weighted inverse integral diverges") from None
    # a multiplier with several terms has no one-term inverse: sampled ratio
    wv = weight.values.real
    live = wv > 1e-12 * max(1.0, float(np.max(wv)))
    integrand = np.zeros_like(wv)
    integrand[live] = np.abs(k.values[live]) ** 2 / wv[live]
    total = float(np.sum(k.grid.weights * integrand))
    if _diverges_sampled(k.grid, integrand, total=total):
        raise RangeError("weighted inverse integral diverges")
    return total


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
        return vf_solve(spec, ell).inv_form, False
    except RangeError:
        return math.inf, True


# ---------------------------------------------------------------------------
# projection onto the adjoint kernel


def projection_P(spec: ImaginaryPartSpec, v: GridFunction) -> GridFunction:
    """Skew projection of ``v`` onto the adjoint kernel (strictly positive case).

    For the interval Laplacian the kernel is spanned by 1 and x and the
    projection is the affine interpolant of the boundary values; for the
    essentially selfadjoint strictly positive families the kernel is trivial
    and the projection vanishes.
    """
    if not (spec.strict_lower_bound > 0.0):
        raise FormsError("projection defined only for strictly positive parts")
    if spec.family == "dirichlet_laplacian_interval":
        t = v.traces
        b = v.grid.length
        fn = AnalyticFunction(
            (Term(t.value0, 0.0), Term((t.value_b - t.value0) / b, 1.0))
        )
        return GridFunction.from_analytic(v.grid, fn)
    if spec.family in ("multiplication", "rank_one", "bounded_matrix"):
        zero = AnalyticFunction(())
        return GridFunction.from_analytic(v.grid, zero)
    raise FormsError("no closed-form adjoint-kernel basis for this family")


# ---------------------------------------------------------------------------
# discrete square-root pair


@dataclass(frozen=True, eq=False)
class DiscreteSqrtPair:
    """Square-root matrices of both extensions on a finite subspace.

    All matrices live in the orthonormalized coordinates of the supplied
    basis (``transform`` maps coefficient vectors into them).  ``isometry``
    satisfies ``sqrt_krein = isometry @ sqrt_friedrichs`` on the span and is
    a partial isometry up to the discretization tolerance.
    """

    basis: str
    sqrt_friedrichs: np.ndarray = field(repr=False)
    sqrt_krein: np.ndarray = field(repr=False)
    isometry: np.ndarray = field(repr=False)
    transform: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.sqrt_friedrichs.shape[0]


def _matrix_sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, v = eigenh.eigh(m)
    # eigenvalues at rounding level are zeros: their square roots would be
    # ~1e-8 relative and survive the pseudo-inverse of the root
    wmax = float(np.max(w)) if len(w) else 0.0
    w = np.where(w > 1e-12 * wmax, w, 0.0)
    return (v * np.sqrt(w)[None, :]) @ v.conj().T


def _matrix_pinv_psd(m: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    w, v = eigenh.eigh(m)
    wmax = float(np.max(np.abs(w))) if len(w) else 0.0
    inv = np.where(w > rtol * max(wmax, 1e-300), 1.0 / np.maximum(w, 1e-300), 0.0)
    return (v * inv[None, :]) @ v.conj().T


def discrete_sqrt_pair(spec: ImaginaryPartSpec, basis, description: str = "") -> DiscreteSqrtPair:
    """Matrices of both square roots plus their isometry factor on a span.

    ``basis`` is a sequence of grid functions inside the Friedrichs form
    domain.  Raises on a numerically rank-deficient basis Gram.
    """
    m = len(basis)
    gram = np.empty((m, m), dtype=complex)
    fmat = np.empty((m, m), dtype=complex)
    kmat = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            gram[i, j] = _inner(basis[i], basis[j])
            fmat[i, j] = friedrichs_form(spec, basis[i], basis[j])
            kmat[i, j] = krein_form(spec, basis[i], basis[j])
    gram = 0.5 * (gram + gram.conj().T)
    w, v = eigenh.eigh(gram)
    if float(np.min(w)) <= 1e-12 * float(np.max(w)):
        raise DegenerateFormError("basis Gram is numerically rank-deficient")
    t = v / np.sqrt(w)[None, :]
    fhat = t.conj().T @ fmat @ t
    khat = t.conj().T @ kmat @ t
    sf = _matrix_sqrt_psd(0.5 * (fhat + fhat.conj().T))
    sk = _matrix_sqrt_psd(0.5 * (khat + khat.conj().T))
    u = sk @ _matrix_pinv_psd(sf)
    return DiscreteSqrtPair(description or f"{m}-dim span", sf, sk, u, t)
