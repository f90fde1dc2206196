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
inverses are evaluated exactly, and every membership is decided from the
term sums: :func:`dissipext.analytic.norm_sq` decides whether ``int w|f|^2``
or ``int |k|^2/V`` is finite from leading orders at 0, at infinity and at
window edges, and :func:`support_violation` is window logic.  Grid samples
serve only input validation here (trace scales, the sign of a weight).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import eigenh, splines
from .analytic import (
    AnalyticError,
    AnalyticFunction,
    DivergentIntegralError,
    Term,
    norm_sq,
    off_support,
    reciprocal,
)
from .grid import GridFunction

__all__ = [
    "FormsError",
    "DomainError",
    "RangeError",
    "DegenerateFormError",
    "ImaginaryPartSpec",
    "dirichlet_laplacian_halfline",
    "dirichlet_laplacian_interval",
    "multiplication",
    "rank_one",
    "inner",
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
            nrm = norm_sq(self.phi0.analytic, 0.0, self.phi0.grid.right_endpoint)
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


def inner(f: GridFunction, g: GridFunction) -> complex:
    """<f, g> over the true domain, in closed form."""
    return (f.analytic.conj() * g.analytic).integral(0.0, f.grid.right_endpoint)


def _form_norm_sq(spec: ImaginaryPartSpec, f: GridFunction, domain: str) -> float:
    """``||f'||^2`` or ``int w |f|^2``; DomainError naming ``domain`` if infinite."""
    try:
        if spec.is_laplacian:
            return norm_sq(f.analytic.derivative(), 0.0, f.grid.right_endpoint)
        return norm_sq(f.analytic, 0.0, f.grid.right_endpoint, spec.weight.analytic)
    except DivergentIntegralError:
        raise DomainError(f"form diverges: f outside the {domain} form domain") from None


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
    if spec.family == "rank_one":
        return spec.alpha * abs(inner(spec.phi0, f)) ** 2
    _check_friedrichs_domain(spec, f)
    return _form_norm_sq(spec, f, "Friedrichs")


def krein_form_sq(spec: ImaginaryPartSpec, f) -> float:
    """``||V_K^{1/2} f||^2`` for ``f`` in the Krein square-root domain."""
    if not spec.is_laplacian:
        return friedrichs_form_sq(spec, f)
    val = _form_norm_sq(spec, f, "small")
    if spec.family == "dirichlet_laplacian_interval":
        t = f.traces
        val -= abs(t.value_b - t.value0) ** 2
    return val


def friedrichs_form(spec: ImaginaryPartSpec, f, g) -> complex:
    """Polarized Friedrichs form ``<V_F^{1/2} f, V_F^{1/2} g>``."""
    if spec.family == "bounded_matrix":
        return complex(np.vdot(np.asarray(f, dtype=complex), spec.matrix @ np.asarray(g, dtype=complex)))
    if spec.is_laplacian:
        df = f.analytic.derivative()
        return (df.conj() * g.analytic.derivative()).integral(0.0, f.grid.right_endpoint)
    if spec.family == "multiplication":
        integrand = f.analytic.conj() * spec.weight.analytic * g.analytic
        return integrand.integral(0.0, f.grid.right_endpoint)
    return spec.alpha * np.conj(inner(spec.phi0, f)) * inner(spec.phi0, g)


def krein_form(spec: ImaginaryPartSpec, f, g) -> complex:
    """Polarized Krein form ``<V_K^{1/2} f, V_K^{1/2} g>``."""
    val = friedrichs_form(spec, f, g)
    if spec.family == "dirichlet_laplacian_interval":
        tf, tg = f.traces, g.traces
        val -= np.conj(tf.value_b - tf.value0) * (tg.value_b - tg.value0)
    return val


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
        return float(abs(inner(spec.phi0, h)) ** 2 * spec.alpha)
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
        c = inner(spec.phi0, ell)
        try:
            rest_sq = norm_sq(ell.analytic - c * spec.phi0.analytic, 0.0, ell.grid.right_endpoint)
        except DivergentIntegralError as exc:
            raise RangeError(str(exc)) from None
        # ||ell||^2 = ||rest||^2 + |c|^2 for the normalized phi0
        if math.sqrt(rest_sq) > 1e-8 * (1.0 + math.sqrt(rest_sq + abs(c) ** 2)):
            raise RangeError("right-hand side leaves the rank-one range")
        u = GridFunction.from_analytic(ell.grid, (c / spec.alpha) * spec.phi0.analytic)
        return VfSolution(u, float(abs(c) ** 2 / spec.alpha))
    if spec.family == "multiplication":
        winv = reciprocal(spec.weight.analytic)
        if winv is None:
            raise FormsError("multiplier has no one-term pointwise inverse")
        inv = mult_inverse_norm_sq(spec.weight, ell)
        return VfSolution(GridFunction.from_analytic(ell.grid, winv * ell.analytic), inv)
    u, inv = _laplacian_inverse(spec, ell)
    return VfSolution(GridFunction.from_analytic(ell.grid, u), inv)


def support_violation(weight: GridFunction, k: GridFunction) -> bool:
    """True when ``k`` lives where the multiplier vanishes (window logic)."""
    return off_support(k.analytic, weight.analytic, 0.0, k.grid.right_endpoint)


def mult_inverse_norm_sq(weight: GridFunction, k: GridFunction) -> float:
    """``||V^{-1/2} k||^2 = int |k|^2 / V`` for the multiplier ``V = weight``;
    :class:`RangeError` when ``k`` lives where ``V`` vanishes or it diverges."""
    try:
        return norm_sq(k.analytic, 0.0, weight.grid.right_endpoint, weight.analytic, inverse=True)
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
            return mult_inverse_norm_sq(spec.weight, ell), False
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
            gram[i, j] = inner(basis[i], basis[j])
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
