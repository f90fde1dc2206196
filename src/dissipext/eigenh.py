"""Hermitian and Hermitian-pencil eigensolvers.

Minimal eigenpair of ``H x = lam G x`` (``H`` Hermitian, ``G`` Hermitian
positive definite) on a band-plus-border pattern, the oracle's solver
(:func:`pencil_extreme`):

1. One ``L D L^H`` routine without pivoting (:func:`_ldl`) factors
   ``H - sigma G`` on a band with dense border rows.  The signs of its
   pivots give the number of eigenvalues below ``sigma`` (Sylvester's law of
   inertia; bisection on such counts after Barth, Martin and Wilkinson).  A
   rank-one term ``alpha q q^H`` of ``H`` becomes one more border row of an
   augmented matrix, whose known last pivot corrects the count.
2. Counts bracket the minimal eigenvalue; inverse iteration at a certified
   lower shift, residual bounds and Rayleigh quotients close the bracket.
   Each shift costs ``O(N)`` on a band of fixed width; a dense matrix is the
   band of full width.

The dense full-spectrum path stays for other callers and as a reference:
Cholesky factor ``G = L L^H``, ``C = L^{-1} H L^{-H}``, Householder reduction
of ``C`` to a real symmetric tridiagonal and implicit QL with accumulated
eigenvectors (:func:`eigh`, :func:`pencil_eigh`).

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
    "solve_lower",
    "solve_upper",
    "eigh",
    "pencil_eigh",
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


def solve_lower(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L x = b`` by forward substitution (columns of b in parallel)."""
    b = np.array(b, dtype=complex)
    vec = b.ndim == 1
    if vec:
        b = b[:, None]
    for i in range(l.shape[0]):
        b[i] = (b[i] - l[i, :i] @ b[:i]) / l[i, i]
    return b[:, 0] if vec else b


def solve_upper(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``U x = b`` by back substitution."""
    b = np.array(b, dtype=complex)
    vec = b.ndim == 1
    if vec:
        b = b[:, None]
    n = u.shape[0]
    for i in range(n - 1, -1, -1):
        b[i] = (b[i] - u[i, i + 1:] @ b[i + 1:]) / u[i, i]
    return b[:, 0] if vec else b


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


def pencil_eigh(h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of ``H x = lam G x``; eigenvectors G-orthonormal."""
    l = cholesky(g)
    c = solve_lower(l, np.asarray(h, dtype=complex))
    c = np.conj(solve_lower(l, np.conj(c).T)).T
    c = 0.5 * (c + np.conj(c).T)
    w, v = eigh(c)
    x = solve_upper(np.conj(l).T, v)
    return w, x




# ---------------------------------------------------------------------------
# band-plus-border pencils: inertia counts and the minimal eigenpair

#: a zero pivot is counted negative and replaced by minus this
_PIVMIN = math.sqrt(np.finfo(float).tiny)
#: solves per inverse-iteration round
_INVERSE_STEPS = 2
#: relative width of the certified bracket around the minimal eigenvalue
_CERT_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class PencilStructure:
    """Sparsity of a Hermitian pencil ``H x = lam G x`` of dimension ``N``.

    The leading ``N - border`` rows and columns form a band of half-bandwidth
    ``bandwidth``; the last ``border`` rows and columns are dense.  ``G`` has
    this pattern.  ``H`` has it too, plus the dense term ``alpha q q^H`` when
    ``rank_one = (alpha, q)`` (``alpha`` real and non-zero, ``q`` of length
    ``N``).  A dense matrix is the band of half-bandwidth ``N - 1``.
    ``gram`` is ``G``'s :class:`GramFactor` when the caller has factored it
    already; :class:`BandPencil` then does not factor ``G`` again.
    """

    bandwidth: int
    border: int = 0
    rank_one: tuple[float, np.ndarray] | None = None
    gram: GramFactor | None = None


def _split(a: np.ndarray, n: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower band ``(n, p + 1)``, border rows ``(m, n)`` and corner ``(m, m)``
    of ``a``; ``band[k, j] = a[k + j, k]``."""
    band = np.zeros((n, p + 1), dtype=a.dtype)
    for j in range(min(p, n - 1) + 1):
        band[: n - j, j] = np.diagonal(a, -j)[: n - j]
    return band, a[n:, :n], a[n:, n:]


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


def _lists(band: np.ndarray, rows: np.ndarray, corner: np.ndarray) -> tuple[list, list, list]:
    """The three parts of :func:`_split` in the list layout of :func:`_ldl`."""
    return band.tolist(), rows.tolist(), _corner_band(corner)


def _positive_ldl(band: list, rows: list, corner: list) -> list:
    """:func:`_ldl` of a matrix that must be positive definite; its pivots."""
    d, neg = _ldl(band, rows, corner, cap=0)
    if neg:
        raise NotPositiveDefiniteError(f"pivot {len(d) - 1} non-positive in LDL^H")
    return d


class GramFactor:
    """``G = L D L^H`` of a Hermitian positive definite ``G``, factored once.

    ``structure`` gives the band-plus-border pattern (its ``rank_one`` and
    ``gram`` are ignored); by default ``G`` is dense.  Only the lower
    triangle is read.  ``parts`` are the band, border rows and corner of
    ``G`` (:func:`_split`), ``factors`` the same places holding ``L`` in the
    layout of :func:`_ldl`, and ``pivots`` is ``D``.  Raises
    :class:`NotPositiveDefiniteError` at the first pivot that is not
    positive.
    """

    def __init__(self, g: np.ndarray, structure: PencilStructure | None = None):
        g = np.asarray(g, dtype=complex)
        dim = g.shape[0]
        border = structure.border if structure is not None else 0
        bandwidth = structure.bandwidth if structure is not None else dim - 1
        n = dim - border
        self.parts = _split(g, n, min(bandwidth, max(n - 1, 0)))
        self.factors = _lists(*self.parts)
        self.pivots = np.asarray(_positive_ldl(*self.factors))


class BandPencil:
    """``H - sigma G`` of a band-plus-border pencil, factored per shift.

    Without a rank-one term the factored matrix is ``H - sigma G`` itself.
    With ``alpha q q^H`` it is the augmented matrix
    ``[[H0 - sigma G, q], [q^H, -1/alpha]]`` with ``H0 = H - alpha q q^H``:
    ``q`` is one more border row, and the Schur complement of the last pivot
    is ``H - sigma G``.  Its inertia is therefore that of ``H - sigma G``
    plus one negative eigenvalue when ``alpha > 0``.  Each shift costs
    ``O(N (bandwidth + border)^2)``.  ``G`` is factored once, or not at all
    when ``structure.gram`` holds its factor; :class:`GramFactor` raises
    :class:`NotPositiveDefiniteError` when it is not positive definite.
    """

    def __init__(self, h: np.ndarray, g: np.ndarray, structure: PencilStructure):
        h = np.asarray(h, dtype=complex)
        gram = structure.gram if structure.gram is not None else GramFactor(g, structure)
        dim = h.shape[0]
        n = dim - structure.border
        p = min(structure.bandwidth, max(n - 1, 0))
        gb, gr, gc = gram.parts
        self._gram = gram.factors
        self._gram_pivots = gram.pivots
        hb, hr, hc = (x.copy() for x in _split(h, n, p))
        self._dim = dim
        self._pad: list = []
        self._negative_extra = 0
        if structure.rank_one is not None:
            alpha, q = structure.rank_one
            q = np.asarray(q, dtype=complex)
            qc = q.conj()
            for j in range(p + 1):
                hb[: n - j, j] -= alpha * q[j:n] * qc[: n - j]
            hr -= alpha * np.outer(q[n:], qc[:n])
            hc -= alpha * np.outer(q[n:], qc[n:])
            # the augmented row [q^H, -1/alpha]; G has zeros there
            hr = np.vstack([hr, qc[None, :n]])
            hc = np.block([[hc, np.zeros((len(hc), 1))], [qc[None, n:], np.full((1, 1), -1.0 / alpha)]])
            gr = np.vstack([gr, np.zeros((1, n))])
            gc = np.pad(gc, ((0, 1), (0, 1)))
            self._pad = [0.0]
            self._negative_extra = int(alpha > 0)
        self._h = (hb, hr, hc)
        self._g = (gb, gr, gc)

    def _shifted(self, sigma: float) -> tuple[list, list, list]:
        return _lists(*(a - sigma * b for a, b in zip(self._h, self._g)))

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
    h: np.ndarray, g: np.ndarray, structure: PencilStructure | None = None
) -> tuple[float, np.ndarray]:
    """Minimal eigenpair of the Hermitian pencil ``H x = lam G x``.

    ``structure`` is the band-plus-border pattern of the pencil (dense by
    default); on a band of fixed width every step costs ``O(N)``.

    1. Bracket: ``min H_ii / G_ii`` bounds ``lam`` from above; steps of
       growing length go down from it until the inertia count is 0.
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
    h = np.asarray(h, dtype=complex)
    g = np.asarray(g, dtype=complex)
    dim = h.shape[0]
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(g))):
        raise EigenError("pencil has non-finite entries")
    if structure is None:
        structure = PencilStructure(max(dim - 1, 0))
    pencil = BandPencil(h, g, structure)
    gdiag = g.diagonal().real
    hi = float(np.min(h.diagonal().real / gdiag))
    scale = float(np.max(np.abs(h)) / np.min(gdiag)) or 1.0
    floor = 64.0 * _EPS * scale
    step = max(abs(hi), scale / 1024.0)
    # every shift with a count of 0 is a certified lower shift, and its
    # factorization serves the inverse iteration there
    while True:
        below, solve = pencil.factor(hi - step, cap=0)
        if not below:
            lo = hi - step
            break
        hi, step = hi - step, 4.0 * step
    x = np.random.default_rng(7).standard_normal(dim).astype(complex)
    width = hi - lo
    while True:
        for _ in range(_INVERSE_STEPS):
            x = solve(g @ x)
            x /= np.linalg.norm(x)
        gx = g @ x
        xgx = np.vdot(x, gx).real
        hx = h @ x
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
