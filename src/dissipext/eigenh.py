"""Hermitian and Hermitian-pencil eigensolvers.

Minimal eigenpair of ``H x = lam G x`` (``H`` Hermitian, ``G`` Hermitian
positive definite) on a band-plus-border pattern, the oracle's solver
(:func:`pencil_extreme`):

1. Both matrices are held as :class:`BandBorder` parts: the lower band of
   the leading block, the dense border rows and the corner, ``O(N)``
   numbers on a band of fixed width.
2. One ``L D L^H`` routine without pivoting (:func:`_ldl`) factors
   ``H - sigma G`` on those parts.  The signs of its pivots give the number
   of eigenvalues below ``sigma`` (Sylvester's law of inertia; bisection on
   such counts after Barth, Martin and Wilkinson).  A rank-one term
   ``alpha q q^H`` of ``H``, which the parts do not hold, becomes one more
   border row of an augmented matrix, whose known last pivot corrects the
   count.
3. Counts bracket the minimal eigenvalue, walking down from the upper
   bound ``min H_ii / G_ii`` or from a caller's guess (the previous rung of
   a mesh ladder); inverse iteration at a certified lower shift, residual
   bounds and Rayleigh quotients close the bracket.  Each shift and each
   product costs ``O(N)`` on a band of fixed width.

The dense stages :func:`cholesky` and :func:`eigh` (Householder reduction to
a real symmetric tridiagonal, then implicit QL with accumulated
eigenvectors) are on no command's path.  They stay only as layers the
benchmark's tracer names, until ROADMAP item 2 drops those targets; the
tests check the pencil solver against a dense ``numpy.linalg`` reference
(``tests/reference/dense.py``).

numpy supplies array arithmetic only; no library eigensolver is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenError",
    "NotPositiveDefiniteError",
    "ConvergenceError",
    "cholesky",
    "eigh",
    "BandBorder",
    "PencilStructure",
    "GramFactor",
    "BandPencil",
    "pencil_extreme",
]

_EPS = np.finfo(float).eps
_MAX_QL_ITER = 60


class EigenError(Exception):
    """Generic eigensolver failure."""


class NotPositiveDefiniteError(EigenError):
    """Raised when a Gram/metric matrix is not positive definite."""


class ConvergenceError(EigenError):
    """Raised when QL iteration exceeds its sweep budget."""


# kept only as a layer the benchmark's tracer names, until ROADMAP item 2
def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a Hermitian positive definite matrix."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    l = np.zeros_like(a)
    for j in range(n):
        s = a[j, j].real - np.sum(np.abs(l[j, :j]) ** 2)
        if s <= 0.0 or not math.isfinite(s):
            raise NotPositiveDefiniteError(f"pivot {j} non-positive in Cholesky")
        l[j, j] = math.sqrt(s)
        if j + 1 < n:
            l[j + 1:, j] = (a[j + 1:, j] - l[j + 1:, :j] @ np.conj(l[j, :j])) / l[j, j]
    return l


# kept only for eigh, a layer the benchmark's tracer names, until ROADMAP item 2
def _householder_tridiag(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce Hermitian ``a`` to real symmetric tridiagonal form.

    Returns ``(d, e, q)``: ``d`` diagonal, ``e`` non-negative real
    subdiagonal and the unitary ``q`` such that ``q^H a q`` is the real
    tridiagonal matrix.
    """
    a = np.array(a, dtype=complex)
    n = a.shape[0]
    q = np.eye(n, dtype=complex)
    for k in range(n - 2):
        x = a[k + 1:, k].copy()
        nx = np.linalg.norm(x)
        if nx == 0.0:
            continue
        phase = x[0] / abs(x[0]) if x[0] != 0 else 1.0
        alpha = -phase * nx
        v = x.copy()
        v[0] -= alpha
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        v /= nv
        # two-sided Hermitian update of the trailing block
        sub = a[k + 1:, k + 1:]
        p = 2.0 * (sub @ v)
        w = p - np.vdot(v, p) * v
        sub -= np.outer(w, np.conj(v)) + np.outer(v, np.conj(w))
        a[k + 1, k] = alpha
        a[k, k + 1] = np.conj(alpha)
        a[k + 2:, k] = 0.0
        a[k, k + 2:] = 0.0
        # accumulate q <- q (I - 2 v v^H) on the trailing columns
        q[:, k + 1:] -= 2.0 * np.outer(q[:, k + 1:] @ v, np.conj(v))
    d = a.diagonal().real.copy()
    e = np.zeros(max(n - 1, 0))
    # absorb subdiagonal phases to make the tridiagonal matrix real
    phase = 1.0 + 0.0j
    phases = np.ones(n, dtype=complex)
    for k in range(n - 1):
        ek = a[k + 1, k]
        mag = abs(ek)
        if mag > 0.0:
            phase = phase * (mag / ek).conjugate()
        phases[k + 1] = phase
        e[k] = mag
    q *= phases[None, :]
    return d, e, q


# kept only for eigh, a layer the benchmark's tracer names, until ROADMAP item 2
def _ql_implicit(d: np.ndarray, e: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Implicit QL with Wilkinson-style shifts on a real tridiagonal.

    Mutates copies of ``d``/``e``; the columns of ``z`` are rotated along,
    turning it into the eigenvector matrix.
    """
    n = len(d)
    d = [float(x) for x in d]
    e = [float(x) for x in e] + [0.0]
    # absolute deflation floor keeps noise-level blocks of rank-deficient
    # matrices from stalling the relative convergence test
    anorm = max((abs(x) for x in d), default=0.0) + max((abs(x) for x in e), default=0.0)
    floor = _EPS * anorm
    hypot = math.hypot
    copysign = math.copysign
    for l in range(n):
        iters = 0
        while True:
            m = l
            while m < n - 1:
                em = abs(e[m])
                if em <= _EPS * (abs(d[m]) + abs(d[m + 1])) or em <= floor:
                    break
                m += 1
            if m == l:
                break
            iters += 1
            if iters > _MAX_QL_ITER:
                raise ConvergenceError("QL iteration did not converge")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                col_i = z[:, i].copy()
                col_i1 = z[:, i + 1].copy()
                z[:, i + 1] = s * col_i + c * col_i1
                z[:, i] = c * col_i - s * col_i1
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return np.asarray(d)


# kept only as a layer the benchmark's tracer names, until ROADMAP item 2
def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues and eigenvectors of a Hermitian matrix.

    Returns ``(w, v)`` with ``w`` ascending and ``a v[:,k] = w[k] v[:,k]``.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=complex)
    if n == 1:
        return np.array([a[0, 0].real]), np.ones((1, 1), dtype=complex)
    d, e, q = _householder_tridiag(a)
    w = _ql_implicit(d, e, q)
    order = np.argsort(w)
    return w[order], q[:, order]


# ---------------------------------------------------------------------------
# band-plus-border pencils: inertia counts and the minimal eigenpair

#: a zero pivot is counted negative and replaced by minus this
_PIVMIN = math.sqrt(np.finfo(float).tiny)
#: solves per inverse-iteration round
_INVERSE_STEPS = 2
#: relative width of the certified bracket around the minimal eigenvalue
_CERT_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class BandBorder:
    """Band-plus-border parts of an ``N x N`` matrix ``A``, ``N = n + m``.

    ``band`` ``(n, p + 1)`` holds the lower band of the leading ``n`` rows,
    ``band[k, j] = A[k + j, k]`` (zero where ``k + j >= n``); entries of
    that block more than ``p`` off the diagonal are zero.  ``rows``
    ``(m, n)`` holds the border rows ``A[n:, :n]`` and ``corner`` ``(m, m)``
    the block ``A[n:, n:]``.  ``A`` is Hermitian and given by these parts
    alone (the factorization reads the lower triangle of ``corner``).
    ``len()`` is ``N``.
    """

    band: np.ndarray
    rows: np.ndarray
    corner: np.ndarray

    @classmethod
    def outer(cls, alpha: float, q: np.ndarray, like: BandBorder) -> BandBorder:
        """Parts of ``alpha q q^H`` on the pattern of ``like``."""
        n, width = like.band.shape
        qc = np.conj(q)
        band = np.zeros((n, width), dtype=complex)
        for j in range(width):
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
        for j in range(1, band.shape[1]):
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
        for j in range(1, band.shape[1]):
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


def _corner_band(c: np.ndarray) -> list:
    """Dense lower triangle of ``c`` in the band layout of :func:`_ldl`."""
    rows = c.tolist()
    m = len(rows)
    return [[rows[k + j][k] for j in range(m - k)] for k in range(m)]


def _ldl(band: list, rows: list, corner: list, cap: int | None = None) -> tuple[list, int]:
    """In-place ``L D L^H`` of a Hermitian band-plus-border matrix, no pivoting.

    ``band[k][j]`` holds ``A[k+j, k]`` of the ``n``-row core, ``rows[c][k]``
    holds ``A[n+c, k]`` and ``corner[c][j]`` holds ``A[n+c+j, n+c]``; on
    return the same places hold the multipliers of ``L``.  Returns the pivots
    ``D`` and how many are not positive, which by Sylvester's law is the
    number of negative eigenvalues of ``A`` when none is zero.  With ``cap``
    the pass stops as soon as more than ``cap`` pivots are not positive.
    """
    d: list = []
    neg = 0
    n, m = len(band), len(rows)
    p = len(band[0]) - 1 if n else 0
    for k in range(n):
        col = band[k]
        piv = col[0].real
        if not piv > 0.0:
            neg += 1
            if piv == 0.0:
                piv = -_PIVMIN
            if cap is not None and neg > cap:
                d.append(piv)
                return d, neg
        d.append(piv)
        inv = 1.0 / piv
        top = p if k + p < n else n - 1 - k
        for j in range(1, top + 1):
            cj = col[j]
            if cj:
                # A[k+i, k+j] -= A[k+i, k] conj(A[k+j, k]) / piv for i >= j
                f = cj.conjugate() * inv
                nxt = band[k + j]
                i = 0
                for ci in col[j:top + 1]:
                    nxt[i] -= ci * f
                    i += 1
                for r in rows:
                    r[k + j] -= r[k] * f
                col[j] = cj * inv
        for c in range(m):
            e = rows[c][k]
            if e:
                f = e.conjugate() * inv
                tail = corner[c]
                for c2 in range(c, m):
                    tail[c2 - c] -= rows[c2][k] * f
        for r in rows:
            r[k] *= inv
    if corner:
        dc, negc = _ldl(corner, [], [], None if cap is None else cap - neg)
        d += dc
        neg += negc
    return d, neg


def _forward(band: list, rows: list, corner: list, y: list) -> None:
    """``y <- L^{-1} y`` in place, with the factors :func:`_ldl` left."""
    n, m = len(band), len(rows)
    p = len(band[0]) - 1 if n else 0
    for k in range(n):
        yk = y[k]
        if yk:
            top = p if k + p < n else n - 1 - k
            i = k
            for l in band[k][1:top + 1]:
                i += 1
                y[i] -= l * yk
            for c in range(m):
                y[n + c] -= rows[c][k] * yk
    if m:
        tail = y[n:]
        _forward(corner, [], [], tail)
        y[n:] = tail


def _backward(band: list, rows: list, corner: list, z: list) -> None:
    """``z <- L^{-T} z`` in place; on ``z = conj(y)`` that is ``L^{-H} y``."""
    n, m = len(band), len(rows)
    p = len(band[0]) - 1 if n else 0
    if m:
        tail = z[n:]
        _backward(corner, [], [], tail)
        z[n:] = tail
    for k in range(n - 1, -1, -1):
        top = p if k + p < n else n - 1 - k
        s = z[k]
        i = k
        for l in band[k][1:top + 1]:
            i += 1
            s -= l * z[i]
        for c in range(m):
            s -= rows[c][k] * z[n + c]
        z[k] = s


def _ldl_solve(band: list, rows: list, corner: list, d: list, b: list) -> np.ndarray:
    """Solve ``A x = b`` with the factors :func:`_ldl` left in place."""
    y = list(b)
    _forward(band, rows, corner, y)
    z = np.conj(np.divide(y, d)).tolist()
    _backward(band, rows, corner, z)
    return np.conj(z)


def _lists(a: BandBorder) -> tuple[list, list, list]:
    """The parts of ``a`` in the list layout of :func:`_ldl`."""
    return a.band.tolist(), a.rows.tolist(), _corner_band(a.corner)


def _positive_ldl(band: list, rows: list, corner: list) -> list:
    """:func:`_ldl` of a matrix that must be positive definite; its pivots."""
    d, neg = _ldl(band, rows, corner, cap=0)
    if neg:
        raise NotPositiveDefiniteError(f"pivot {len(d) - 1} non-positive in LDL^H")
    return d


class GramFactor:
    """``G = L D L^H`` of a Hermitian positive definite ``G``, factored once.

    ``g`` holds the :class:`BandBorder` parts of ``G``.  ``factors`` are the
    same places holding ``L`` in the layout of :func:`_ldl`, and ``pivots``
    is ``D``.  Raises :class:`NotPositiveDefiniteError` at the first pivot
    that is not positive.
    """

    def __init__(self, g: BandBorder):
        self.factors = _lists(g)
        self.pivots = np.asarray(_positive_ldl(*self.factors))


class BandPencil:
    """``H - sigma G`` of a band-plus-border pencil, factored per shift.

    ``h`` and ``g`` are :class:`BandBorder` parts of one pattern.  Without a
    rank-one term the factored matrix is ``H - sigma G`` itself.  With
    ``alpha q q^H`` it is the augmented matrix
    ``[[h - sigma G, q], [q^H, -1/alpha]]``: ``q`` is one more border row,
    and the Schur complement of the last pivot is ``H - sigma G``.  Its
    inertia is therefore that of ``H - sigma G`` plus one negative
    eigenvalue when ``alpha > 0``.  Each shift costs
    ``O(N (bandwidth + border)^2)``.  ``G`` is factored once, or not at all
    when ``structure.gram`` holds its factor; :class:`GramFactor` raises
    :class:`NotPositiveDefiniteError` when it is not positive definite.
    """

    def __init__(self, h: BandBorder, g: BandBorder, structure: PencilStructure):
        gram = structure.gram if structure.gram is not None else GramFactor(g)
        self._gram = gram.factors
        self._gram_pivots = gram.pivots
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
        self._h = BandBorder(hb, hr, hc)
        self._g = BandBorder(gb, gr, gc)

    def _shifted(self, sigma: float) -> tuple[list, list, list]:
        return _lists(BandBorder(*(a - sigma * b for a, b in zip(self._h.parts, self._g.parts))))

    def count(self, sigma: float, cap: int | None = None) -> int:
        """Number of eigenvalues of the pencil below ``sigma``.

        With ``cap`` the count stops as soon as it exceeds ``cap``.
        """
        return self.factor(sigma, cap)[0]

    def factor(self, sigma: float, cap: int | None = None):
        """``(count, solve)`` at ``sigma``: :meth:`count` and, when the pass
        ran to the end, ``solve: b -> (H - sigma G)^{-1} b`` (else None)."""
        band, rows, corner = self._shifted(sigma)
        extra = self._negative_extra
        d, neg = _ldl(band, rows, corner, None if cap is None else cap + extra)
        if len(d) < len(band) + len(corner):
            return neg - extra, None
        pad, dim = self._pad, self._dim

        def solve(b: np.ndarray) -> np.ndarray:
            return _ldl_solve(band, rows, corner, d, b.tolist() + pad)[:dim]

        return neg - extra, solve

    def gram_norm(self, b: np.ndarray) -> float:
        """``sqrt(b^H G^{-1} b)``, from the forward half of a solve."""
        y = b.tolist()
        _forward(*self._gram, y)
        return math.sqrt(float(np.sum(np.abs(y) ** 2 / self._gram_pivots)))


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
    hdiag, big = h.diagonal(), h.max_abs()
    if structure.rank_one is not None:
        alpha, q = structure.rank_one
        finite = finite and math.isfinite(alpha) and bool(np.all(np.isfinite(q)))
        hdiag = hdiag + alpha * np.abs(q) ** 2
        big = max(big, abs(alpha) * float(np.max(np.abs(q))) ** 2)
    if not finite:
        raise EigenError("pencil has non-finite entries")
    pencil = BandPencil(h, g, structure)
    gdiag = g.diagonal()
    hi = float(np.min(hdiag / gdiag))
    scale = big / float(np.min(gdiag)) or 1.0
    floor = 64.0 * _EPS * scale
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
        rho = pencil.gram_norm(r) / math.sqrt(xgx)
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
