"""Hermitian and Hermitian-pencil eigensolvers.

Minimal eigenpair of ``H x = lam G x`` (``H`` Hermitian, ``G`` Hermitian
positive definite) on a band-plus-border pattern, the oracle's solver
(:func:`pencil_extreme`):

1. Both matrices are held as :class:`BandBorder` parts: the lower band of
   the leading block, of half-bandwidth at most 3, the dense border rows
   and the corner, ``O(N)`` numbers.  Each part keeps its dtype; the
   oracle's bands are real.
2. One ``L D L^H`` kernel without pivoting (:func:`_ldl`) factors
   ``H - sigma G`` on those parts.  Its core step is written out for
   half-bandwidth 3 and carries the entries it still updates in local
   variables, so it runs float arithmetic on a float band and complex
   arithmetic on a complex one; the border rows are forward solves against
   the core's factor, and the corner is factored as a dense block.  The
   core pass and the border/corner pass are two steps of that kernel, so a
   Gram matrix whose band is shared (the oracle's, per mesh) factors its
   band once (:func:`band_factor`) and only its border per problem
   (:class:`GramFactor`).  The
   signs of its pivots give the number of eigenvalues below ``sigma``
   (Sylvester's law of inertia; bisection on such counts after Barth,
   Martin and Wilkinson).  A rank-one term ``alpha q q^H`` of ``H``, which
   the parts do not hold, becomes one more border row of an augmented
   matrix, whose known last pivot corrects the count.
3. Counts bracket the minimal eigenvalue, walking down from the upper
   bound ``min H_ii / G_ii`` or from a caller's guess (the previous rung of
   a mesh ladder); inverse iteration at a certified lower shift, residual
   bounds and Rayleigh quotients close the bracket.  Each shift and each
   product costs ``O(N)``.

This is the package's only eigensolver; there is no dense one.
:func:`cholesky` and :func:`eigh` are stubs that raise :class:`EigenError`:
they stay only as layers the benchmark's tracer names, until ROADMAP item 2
drops those targets.  The tests check the pencil solver against a dense
``numpy.linalg`` reference (``tests/reference/dense.py``), whose dense
pencils run through the kernel's corner phase.

numpy supplies array arithmetic only; no library eigensolver is called.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenError",
    "NotPositiveDefiniteError",
    "BandBorder",
    "PencilStructure",
    "GramFactor",
    "band_factor",
    "BandPencil",
    "pencil_extreme",
    "rounding_floor",
]

_EPS = np.finfo(float).eps


class EigenError(Exception):
    """Generic eigensolver failure."""


class NotPositiveDefiniteError(EigenError):
    """Raised when a Gram/metric matrix is not positive definite."""


# ROADMAP item 2 deletes this stub together with its benchmark tracer target
def cholesky(a: np.ndarray) -> np.ndarray:
    """Removed: the oracle factors its Gram matrix with :class:`GramFactor`."""
    raise EigenError("eigenh.cholesky was removed; use GramFactor")


# ROADMAP item 2 deletes this stub together with its benchmark tracer target
def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Removed: the oracle's pencil minimum comes from :func:`pencil_extreme`."""
    raise EigenError("eigenh.eigh was removed; use pencil_extreme")


# ---------------------------------------------------------------------------
# band-plus-border pencils: inertia counts and the minimal eigenpair

#: a zero pivot is counted negative and replaced by minus this
_PIVMIN = math.sqrt(np.finfo(float).tiny)
#: solves per inverse-iteration round
_INVERSE_STEPS = 2
#: relative width of the certified bracket around the minimal eigenvalue
_CERT_RTOL = 1e-12
#: absolute width of that bracket, in units of the pencil's scale
_FLOOR = 64.0 * _EPS
#: half-bandwidth of the core band, the one :func:`_ldl` is written for
_P = 3
_PAD = [0.0] * _P


@dataclass(frozen=True, eq=False)
class BandBorder:
    """Band-plus-border parts of an ``N x N`` matrix ``A``, ``N = n + m``.

    ``band`` ``(n, 4)`` holds the lower band of the leading ``n`` rows,
    ``band[k, j] = A[k + j, k]`` (zero where ``k + j >= n``); entries of
    that block more than 3 off the diagonal are zero.  A narrower band is
    padded with zero columns, and a wider one is refused, since the
    factorization is written for half-bandwidth 3.  ``rows`` ``(m, n)``
    holds the border rows ``A[n:, :n]`` and ``corner`` ``(m, m)`` the block
    ``A[n:, n:]``.  ``A`` is Hermitian and given by these parts alone (the
    factorization reads the lower triangle of ``corner``).  Each part keeps
    its dtype: a real band is factored in float arithmetic.  ``len()`` is
    ``N``.
    """

    band: np.ndarray
    rows: np.ndarray
    corner: np.ndarray

    def __post_init__(self):
        width = self.band.shape[1]
        if width > _P + 1:
            raise ValueError(f"band of {width} columns: the half-bandwidth is at most {_P}")
        if width < _P + 1:
            object.__setattr__(self, "band", np.pad(self.band, ((0, 0), (0, _P + 1 - width))))

    @classmethod
    def outer(cls, alpha: float, q: np.ndarray, like: BandBorder) -> BandBorder:
        """Parts of ``alpha q q^H`` on the pattern of ``like``."""
        n, width = like.band.shape
        qc = np.conj(q)
        band = np.zeros((n, width), dtype=complex)
        for j in range(min(width, n)):
            band[: n - j, j] = alpha * q[j:n] * qc[: n - j]
        return cls(band, alpha * np.outer(q[n:], qc[:n]), alpha * np.outer(q[n:], qc[n:]))

    def __len__(self) -> int:
        return len(self.band) + len(self.rows)

    @property
    def parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.band, self.rows, self.corner

    def diagonal(self) -> np.ndarray:
        """Real part of the diagonal."""
        return np.concatenate([self.band[:, 0].real, self.corner.diagonal().real])

    def max_abs(self) -> float:
        """Largest modulus of a stored entry."""
        return max((float(np.max(np.abs(x))) for x in self.parts if x.size), default=0.0)

    def is_finite(self) -> bool:
        return all(bool(np.all(np.isfinite(x))) for x in self.parts)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A x`` for the Hermitian ``A`` of these parts, in ``O(N (p + m))``."""
        band, rows, corner = self.parts
        n = len(band)
        core, tail = x[:n], x[n:]
        y = band[:, 0] * core
        for j in range(1, min(band.shape[1], n)):
            lower = band[: n - j, j]
            y[j:] += lower * core[: n - j]
            y[: n - j] += np.conj(lower) * core[j:]
        y += rows.conj().T @ tail
        return np.concatenate([y, rows @ core + corner @ tail])

    def abs_row_sums(self) -> np.ndarray:
        """``sum_j |A[i, j]|`` over the stored pattern of the Hermitian ``A``."""
        band, rows, corner = (np.abs(x) for x in self.parts)
        n = len(band)
        s = band[:, 0] + rows.sum(axis=0)
        for j in range(1, min(band.shape[1], n)):
            s[j:] += band[: n - j, j]
            s[: n - j] += band[: n - j, j]
        return np.concatenate([s, rows.sum(axis=1) + corner.sum(axis=1)])


@dataclass(frozen=True, eq=False)
class PencilStructure:
    """What a Hermitian pencil ``H x = lam G x`` has besides its parts.

    ``H`` is its :class:`BandBorder` parts plus the dense term
    ``alpha q q^H`` when ``rank_one = (alpha, q)`` (``alpha`` real and
    non-zero, ``q`` of length ``N``); the parts never hold that term.
    ``gram`` is ``G``'s :class:`GramFactor` when the caller has factored it
    already; :class:`BandPencil` then does not factor ``G`` again.
    """

    rank_one: tuple[float, np.ndarray] | None = None
    gram: GramFactor | None = None

    def matvec(self, h: BandBorder, x: np.ndarray) -> np.ndarray:
        """``H x`` for the parts ``h`` plus the rank-one term."""
        y = h.matvec(x)
        if self.rank_one is not None:
            alpha, q = self.rank_one
            y += alpha * q * np.vdot(q, x)
        return y


def _padded(a: np.ndarray) -> np.ndarray:
    """``a`` with three zero columns appended, the padding :func:`_ldl` reads."""
    out = np.zeros((len(a), a.shape[1] + _P), dtype=a.dtype)
    out[:, : a.shape[1]] = a
    return out


def _layout(band: np.ndarray, rows: np.ndarray, corner: np.ndarray):
    """``(band, rows, corner)`` arrays in the layout of :func:`_ldl`: the
    band transposed to its diagonal and three sub-diagonals, and it and the
    border rows padded with three zeros."""
    return _padded(band.T), _padded(rows), corner


def _corner_lists(corner: np.ndarray) -> list:
    """The dense lower triangle of ``corner`` as :func:`_ldl` reads it,
    ``out[c][j] = C[c+j, c]``."""
    c = corner.tolist()
    m = len(c)
    return [[c[k + j][k] for j in range(m - k)] for k in range(m)]


def _lists(band: np.ndarray, rows: np.ndarray, corner: np.ndarray) -> tuple[list, list, list]:
    """Arrays of :func:`_layout` as the lists :func:`_ldl` reads."""
    return band.tolist(), rows.tolist(), _corner_lists(corner)


def _ldl(band: list, rows: list, corner: list, cap: int | None = None):
    """``L D L^H`` of a Hermitian band-plus-border matrix, no pivoting.

    ``band`` is four lists, the diagonal and the three sub-diagonals of the
    ``n``-row core (``band[j][k] = A[k+j, k]``), each padded with three
    zeros; ``rows[c][k]`` holds ``A[n+c, k]`` (also padded) and
    ``corner[c][j]`` holds ``A[n+c+j, n+c]``.

    1. The core (:func:`_ldl_core`): each step is written out for
       half-bandwidth 3, and the entries that the next three steps still
       update ride along in local variables, so a step neither loops nor
       indexes.  The arithmetic is that of the entries: a float band runs
       float operations.
    2. The border rows (:func:`_ldl_border`): ``W = A[n:, :n] L^{-H}`` is a
       forward solve of each row, their multipliers are ``W D^{-1}``, and
       the corner becomes its Schur complement ``A[n:, n:] - W D^{-1} W^H``.
    3. The corner, factored as a dense block in place.

    Returns ``(factor, D, neg)``: the conjugate ``conj(L)`` of the unit
    lower factor as ``(sub, rows, corner)`` (three sub-diagonal lists of
    length ``n``, the border rows, and the corner lists), the pivots ``D``,
    and how many pivots are not positive, which by Sylvester's law is the
    number of negative eigenvalues of ``A`` when none is zero.  With ``cap``
    the pass stops as soon as more than ``cap`` pivots are not positive;
    ``factor`` is then None.
    """
    sub, d, neg = _ldl_core(band, cap)
    if sub is None:
        return None, d, neg
    return _ldl_border(sub, d, neg, rows, corner, cap)


def _ldl_core(band: list, cap: int | None = None):
    """Step 1 of :func:`_ldl`, the core alone: ``(sub, D, neg)`` with
    ``sub`` the three sub-diagonal lists of ``conj(L)``, or None when the
    pass stopped at ``cap``."""
    b0, b1, b2, b3 = band
    cap = math.inf if cap is None else cap
    d: list = []
    s1: list = []
    s2: list = []
    s3: list = []
    neg = 0
    # p0..p2 hold A[k..k+2, ..] on the diagonal, q0, q1 the first and r0 the
    # second sub-diagonal, as the steps before k left them
    p0, p1, p2, q0, q1, r0 = b0[0], b0[1], b0[2], b1[0], b1[1], b2[0]
    for p3, q2, r1, c3 in zip(b0[3:], b1[2:], b2[1:], b3):
        piv = p0.real
        if not piv > 0.0:
            neg += 1
            if piv == 0.0:
                piv = -_PIVMIN
            if neg > cap:
                d.append(piv)
                return None, d, neg
        d.append(piv)
        inv = 1.0 / piv
        f1, f2, f3 = q0.conjugate() * inv, r0.conjugate() * inv, c3.conjugate() * inv
        # A[k+i, k+j] -= A[k+i, k] conj(A[k+j, k]) / piv for 1 <= j <= i <= 3
        p0, p1, p2 = p1 - q0 * f1, p2 - r0 * f2, p3 - c3 * f3
        q0, q1, r0 = q1 - r0 * f1, q2 - c3 * f2, r1 - c3 * f1
        s1.append(f1)
        s2.append(f2)
        s3.append(f3)
    return (s1, s2, s3), d, neg


def _ldl_border(sub: tuple, d: list, neg: int, rows: list, corner: list, cap: int | None = None):
    """Steps 2 and 3 of :func:`_ldl` on the core's factor ``sub``, its
    pivots ``d`` (the list is extended by the corner's) and its count
    ``neg``; returns what :func:`_ldl` returns."""
    cap = math.inf if cap is None else cap
    w = [_lower_solve(sub, r) for r in rows]
    conj_rows = [[x.conjugate() / p for x, p in zip(wc, d)] for wc in w]
    m = len(corner)
    for c in range(m):
        tail = corner[c]
        for c2 in range(c, m):
            tail[c2 - c] -= sum(map(operator.mul, w[c2], conj_rows[c]))
    for c in range(m):
        col = corner[c]
        piv = col[0].real
        if not piv > 0.0:
            neg += 1
            if piv == 0.0:
                piv = -_PIVMIN
            if neg > cap:
                d.append(piv)
                return None, d, neg
        d.append(piv)
        inv = 1.0 / piv
        for j in range(1, m - c):
            f = col[j].conjugate() * inv
            nxt = corner[c + j]
            for i in range(j, m - c):
                nxt[i - j] -= col[i] * f
            col[j] = f
    return (sub, conj_rows, corner), d, neg


def _lower_solve(sub: tuple, b: list) -> list:
    """``F^{-1} b`` for the unit lower band ``F`` of sub-diagonals ``sub``;
    ``b`` is padded with three zeros, the result is not."""
    y0, y1, y2 = b[0], b[1], b[2]
    out = []
    for f1, f2, f3, y3 in zip(*sub, b[3:]):
        out.append(y0)
        y0, y1, y2 = y1 - f1 * y0, y2 - f2 * y0, y3 - f3 * y0
    return out


def _upper_solve(sub: tuple, b: list) -> list:
    """``F^{-T} b`` for the unit lower band ``F`` of sub-diagonals ``sub``."""
    z1 = z2 = z3 = 0.0
    out = []
    for f1, f2, f3, bk in zip(*map(reversed, sub), reversed(b)):
        z1, z2, z3 = bk - (f1 * z1 + f2 * z2 + f3 * z3), z1, z2
        out.append(z1)
    out.reverse()
    return out


def _forward(factor: tuple, b: list) -> list:
    """``F^{-1} b`` for the factor ``F = conj(L)`` that :func:`_ldl` returns."""
    sub, rows, corner = factor
    n = len(sub[0])
    y = _lower_solve(sub, b[:n] + _PAD)
    tail = b[n:]
    m = len(corner)
    for c in range(m):
        t = tail[c] - sum(map(operator.mul, rows[c], y))
        tail[c] = t
        col = corner[c]
        for j in range(1, m - c):
            tail[c + j] -= col[j] * t
    return y + tail


def _backward(factor: tuple, z: list) -> list:
    """``F^{-T} z`` for the factor ``F = conj(L)`` that :func:`_ldl` returns."""
    sub, rows, corner = factor
    n = len(sub[0])
    core, tail = z[:n], z[n:]
    m = len(corner)
    for c in range(m - 1, -1, -1):
        col = corner[c]
        t = tail[c] - sum(col[j] * tail[c + j] for j in range(1, m - c))
        tail[c] = t
        core = [zk - fk * t for zk, fk in zip(core, rows[c])]
    return _upper_solve(sub, core) + tail


def _ldl_solve(factor: tuple, d: list, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` with a factor of :func:`_ldl`: with ``F = conj(L)``,
    ``x = L^{-H} D^{-1} L^{-1} b = F^{-T} (conj(F^{-1} conj(b)) / D)``."""
    y = _forward(factor, np.conj(b).tolist())
    return np.array(_backward(factor, (np.conj(y) / d).tolist()))


def band_factor(band: np.ndarray) -> tuple[tuple, tuple]:
    """``(sub, pivots)`` of ``L D L^H`` of a Hermitian positive definite
    band alone (:class:`BandBorder` ``band`` layout), as tuples, so that one
    factor can serve every :class:`GramFactor` whose core is that band.
    Raises :class:`NotPositiveDefiniteError` at the first pivot that is not
    positive."""
    sub, d, neg = _ldl_core(_padded(band.T).tolist(), cap=0)
    if neg:
        raise NotPositiveDefiniteError(f"pivot {len(d) - 1} non-positive in LDL^H")
    return tuple(map(tuple, sub)), tuple(d)


class GramFactor:
    """``G = L D L^H`` of a Hermitian positive definite ``G``, factored once.

    ``g`` holds the :class:`BandBorder` parts of ``G``.  ``core`` is the
    factor of ``g``'s band as :func:`band_factor` returns it
    (``(sub, pivots)``), computed here when not given; then the border rows
    and the corner are factored against it.  ``factor`` is ``conj(L)`` as :func:`_ldl` returns it, and
    ``pivots`` is ``D``.  Raises :class:`NotPositiveDefiniteError` at the
    first pivot that is not positive.
    """

    def __init__(self, g: BandBorder, core: tuple[tuple, tuple] | None = None):
        sub, pivots = band_factor(g.band) if core is None else core
        if not min(pivots, default=1.0) > 0.0:
            raise NotPositiveDefiniteError("a core pivot is non-positive in LDL^H")
        factor, d, neg = _ldl_border(sub, list(pivots), 0, _padded(g.rows).tolist(),
                                     _corner_lists(g.corner), cap=0)
        if neg:
            raise NotPositiveDefiniteError(f"pivot {len(d) - 1} non-positive in LDL^H")
        self.factor = factor
        self.pivots = np.asarray(d)

    def norm(self, b: np.ndarray) -> float:
        """``sqrt(b^H G^{-1} b)``, from the forward half of a solve."""
        y = _forward(self.factor, np.conj(b).tolist())
        return math.sqrt(float(np.sum(np.abs(y) ** 2 / self.pivots)))


class BandPencil:
    """``H - sigma G`` of a band-plus-border pencil, factored per shift.

    ``h`` and ``g`` are :class:`BandBorder` parts of one pattern.  Without a
    rank-one term the factored matrix is ``H - sigma G`` itself.  With
    ``alpha q q^H`` it is the augmented matrix
    ``[[h - sigma G, q], [q^H, -1/alpha]]``: ``q`` is one more border row,
    and the Schur complement of the last pivot is ``H - sigma G``.  Its
    inertia is therefore that of ``H - sigma G`` plus one negative
    eigenvalue when ``alpha > 0``.  Each shift costs ``O(N (3 + border)^2)``.
    ``G`` is factored once, or not at all when ``structure.gram`` holds its
    factor; :class:`GramFactor` raises :class:`NotPositiveDefiniteError`
    when it is not positive definite.
    """

    def __init__(self, h: BandBorder, g: BandBorder, structure: PencilStructure):
        self.gram = structure.gram if structure.gram is not None else GramFactor(g)
        hb, hr, hc = h.parts
        gb, gr, gc = g.parts
        self._dim = len(h)
        self._pad: list = []
        self._negative_extra = 0
        if structure.rank_one is not None:
            alpha, q = structure.rank_one
            qc = np.conj(q)
            n = len(hb)
            # the augmented row [q^H, -1/alpha]; G has zeros there
            hr = np.vstack([hr, qc[None, :n]])
            hc = np.block([[hc, np.zeros((len(hc), 1))], [qc[None, n:], np.full((1, 1), -1.0 / alpha)]])
            gr = np.vstack([gr, np.zeros((1, n))])
            gc = np.pad(gc, ((0, 1), (0, 1)))
            self._pad = [0.0]
            self._negative_extra = int(alpha > 0)
        self._h = _layout(hb, hr, hc)
        self._g = _layout(gb, gr, gc)

    def count(self, sigma: float, cap: int | None = None) -> int:
        """Number of eigenvalues of the pencil below ``sigma``.

        With ``cap`` the count stops as soon as it exceeds ``cap``.
        """
        return self.factor(sigma, cap)[0]

    def factor(self, sigma: float, cap: int | None = None):
        """``(count, solve)`` at ``sigma``: :meth:`count` and, when the pass
        ran to the end, ``solve: b -> (H - sigma G)^{-1} b`` (else None)."""
        shifted = _lists(*(a - sigma * b for a, b in zip(self._h, self._g)))
        extra = self._negative_extra
        factor, d, neg = _ldl(*shifted, None if cap is None else cap + extra)
        if factor is None:
            return neg - extra, None
        pad, dim = self._pad, self._dim

        def solve(b: np.ndarray) -> np.ndarray:
            return _ldl_solve(factor, d, np.append(b, pad))[:dim]

        return neg - extra, solve


def _scale(h: BandBorder, g: BandBorder, structure: PencilStructure) -> float:
    """``max |H| / min G_ii``, the rank-one term included (1 where it is 0)."""
    big = h.max_abs()
    if structure.rank_one is not None:
        alpha, q = structure.rank_one
        big = max(big, abs(alpha) * float(np.max(np.abs(q))) ** 2)
    return big / float(np.min(g.diagonal())) or 1.0


def rounding_floor(h: BandBorder, g: BandBorder, structure: PencilStructure | None = None) -> float:
    """The absolute part of the bracket :func:`pencil_extreme` certifies,
    ``64 eps max |H| / min G_ii``: it does not tell apart eigenvalues of the
    pencil closer than this."""
    return _FLOOR * _scale(h, g, structure or PencilStructure())


def pencil_extreme(
    h: BandBorder,
    g: BandBorder,
    structure: PencilStructure | None = None,
    *,
    guess: tuple[float, float] | None = None,
) -> tuple[float, np.ndarray]:
    """Minimal eigenpair of the Hermitian pencil ``H x = lam G x``.

    ``h`` and ``g`` are :class:`BandBorder` parts of one pattern, on which
    every step costs ``O(N)``.  ``structure`` adds the rank-one term of
    ``H`` and ``G``'s factor.  ``guess = (mu, radius)`` is an estimate of
    ``lam``, e.g. from a coarser discretization: the walk of step 1 starts
    at ``mu`` with the step ``max(radius, floor)`` (the rounding floor of
    step 4).  It saves factorizations when it is close
    and costs a few when it is not; the result is certified either way.

    1. Bracket: ``min H_ii / G_ii`` bounds ``lam`` from above; steps growing
       4x go down from it, or from the guess, until the inertia count is 0.
    2. Inverse iteration at the certified lower shift ``lo``, where
       ``H - lo G`` is positive definite.  Its vector ``x`` has the Rayleigh
       quotient ``mu`` and the residual ``r = H x - mu G x``; some eigenvalue
       lies within ``rho = ||r||_{G^-1} / ||x||_G`` of ``mu``.
    3. One inertia count at ``mu - rho``: if it is 0, that eigenvalue is
       ``lam`` and ``mu - rho`` is the next certified lower shift.  Otherwise
       counts at steps of growing length below the upper bound, none below
       the bracket's midpoint, raise ``lo`` until the bracket is at most half
       as wide as in the round before.
    4. Once ``rho`` or the bracket is below ``_CERT_RTOL |mu|`` plus a
       rounding floor, the Rayleigh quotient is returned with ``x``,
       ``G``-normalized.
    """
    if structure is None:
        structure = PencilStructure()
    finite = h.is_finite() and g.is_finite()
    hdiag = h.diagonal()
    if structure.rank_one is not None:
        alpha, q = structure.rank_one
        finite = finite and math.isfinite(alpha) and bool(np.all(np.isfinite(q)))
        hdiag = hdiag + alpha * np.abs(q) ** 2
    if not finite:
        raise EigenError("pencil has non-finite entries")
    pencil = BandPencil(h, g, structure)
    hi = float(np.min(hdiag / g.diagonal()))
    scale = _scale(h, g, structure)
    floor = _FLOOR * scale
    # walk down in steps growing 4x, from the upper bound or from the guess,
    # until the count is 0: every shift with a count of 0 is a certified
    # lower shift, and its factorization serves the inverse iteration there
    top, step = hi, max(abs(hi), scale / 1024.0)
    if guess is not None and guess[0] - max(guess[1], floor) < hi:
        top, step = guess[0], max(guess[1], floor)
    while True:
        below, solve = pencil.factor(top - step, cap=0)
        if not below:
            lo = top - step
            break
        hi = top = top - step
        step *= 4.0
    x = np.random.default_rng(7).standard_normal(len(h)).astype(complex)
    width = hi - lo
    while True:
        for _ in range(_INVERSE_STEPS):
            x = solve(g.matvec(x))
            x /= np.linalg.norm(x)
        gx = g.matvec(x)
        xgx = np.vdot(x, gx).real
        hx = structure.matvec(h, x)
        mu = float(np.vdot(x, hx).real / xgx)
        hi = min(hi, mu)
        tol = _CERT_RTOL * abs(mu) + floor
        if hi - lo <= tol:
            break
        r = hx - mu * gx
        rho = pencil.gram.norm(r) / math.sqrt(xgx)
        sigma = mu - max(rho, tol)
        if lo < sigma < hi:
            below, at_sigma = pencil.factor(sigma, cap=0)
            if below:
                hi = sigma
            elif rho <= tol:
                break
            else:
                lo, solve = sigma, at_sigma
        # walk down from hi in growing steps, none below the midpoint,
        # until the bracket is at most half as wide as before this round
        step = max(rho, tol)
        while hi - lo > max(0.5 * width, tol):
            sigma = max(hi - step, 0.5 * (lo + hi))
            below, at_sigma = pencil.factor(sigma, cap=0)
            if below:
                hi, step = sigma, 4.0 * step
            else:
                lo, solve = sigma, at_sigma
        width = hi - lo
    return mu, x / math.sqrt(xgx)
