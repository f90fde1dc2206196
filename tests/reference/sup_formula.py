"""The Ando-Nishio sup formula: an independent numerical route to the small form.

It maximizes a Rayleigh quotient over a finite family of cubic splines on a
clamped knot vector graded toward both ends, and converges to the closed
form :func:`dissipext.forms.krein_form_sq` from below.  No command reaches
it; the tests check the closed forms against it.  The splines come from the
package's one spline layer, :mod:`dissipext.splines`, and the eigenvalues
from ``numpy.linalg``.
"""

from dataclasses import dataclass

import numpy as np

from dissipext import splines
from dissipext.analytic import AnalyticFunction
from dissipext.forms import FormsError, ImaginaryPartSpec, inner

from .assembly import dense_matrix


_AN_DEPTH = 13
# one Gauss panel per knot interval; the sup-formula values depend on this
# rule through the quadrature of non-polynomial targets and weights
_AN_SUBPANELS = 1


class DegenerateFormError(FormsError):
    """The finite test family sees only the kernel of the form."""


@dataclass(frozen=True, eq=False)
class MatrixSpec:
    """A Hermitian positive semidefinite matrix as the imaginary part; it acts
    on coefficient vectors instead of functions."""

    matrix: np.ndarray


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
    spec: ImaginaryPartSpec, h: AnalyticFunction, knots: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Numerator column and form Gram of every spline of ``knots``.

    Integrals run on the knot-aligned Gauss panels of the spline layer
    (every pair of splines is polynomial on those panels), so the quadrature
    is exact at any grading depth.
    """
    tab = splines.spline_tables(knots, _AN_SUBPANELS)
    xs = tab.x.ravel()
    if spec.is_laplacian:
        # numerator via parts: <h, -f''> = <h', f'> (test slopes vanish at
        # the support edges)
        tgt = h.derivative()(xs).reshape(tab.x.shape)
        return tab.vector(tab.w * np.conj(tgt), tab.d1), dense_matrix(tab, tab.w, tab.d1, tab.d1)
    weighted = tab.w * spec.weight(xs).real.reshape(tab.x.shape)
    tgt = h(xs).reshape(tab.x.shape)
    return tab.vector(weighted * np.conj(tgt), tab.val), dense_matrix(tab, weighted, tab.val, tab.val)


def krein_form_ando_nishio(spec: ImaginaryPartSpec | MatrixSpec, h, test_dim: int) -> float:
    """Sup-formula value of the small square-root form at ``h``.

    Maximizes ``|<h, V f>|^2 / <f, V f>`` over the span of the first
    ``test_dim`` members of the edge-refined dyadic spline family, as the
    largest eigenvalue of the Hermitian pencil (numerator Gram vs. form
    Gram).  Non-decreasing in ``test_dim`` and bounded above by
    :func:`dissipext.forms.krein_form_sq`.  On a :class:`MatrixSpec` the
    quotient runs over all coefficient vectors.
    """
    if test_dim < 2:
        raise FormsError("test_dim must be at least 2")
    if isinstance(spec, MatrixSpec):
        bvec = spec.matrix @ np.asarray(h, dtype=complex)
        return _pencil_max(np.outer(bvec, np.conj(bvec)), spec.matrix)
    if spec.family == "rank_one":
        # the quotient is the same on every test direction not annihilated
        return float(abs(inner(spec.phi0, h, spec.end)) ** 2 * spec.alpha)
    knots = _graded_knots(spec.domain.offset, spec.domain.length)
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
    w, v = np.linalg.eigh(den)
    wmax = float(np.max(w)) if len(w) else 0.0
    if wmax <= 0.0:
        raise DegenerateFormError("form Gram has no positive part")
    keep = w > 1e-13 * wmax
    t = v[:, keep] / np.sqrt(w[keep])[None, :]
    reduced = t.conj().T @ num @ t
    reduced = 0.5 * (reduced + reduced.conj().T)
    vals = np.linalg.eigvalsh(reduced)
    return float(max(vals[-1], 0.0)) if len(vals) else 0.0
