"""Dense Hermitian and Hermitian-pencil eigensolvers.

Self-contained solver stack for the generalized problem ``H x = lam G x``
with ``H`` Hermitian and ``G`` Hermitian positive definite:

1. Cholesky factor ``G = L L^H`` and transform ``C = L^{-1} H L^{-H}``.
2. Householder reduction of ``C`` to a real symmetric tridiagonal matrix.
3. Implicit QL iteration with shifts for the eigenvalues (optionally with
   accumulated eigenvectors for the full-spectrum path).
4. Inverse iteration for a single eigenvector when only one extreme
   eigenpair is needed.

numpy supplies array arithmetic only; no library eigensolver is called.
"""

from __future__ import annotations

import math

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
    "pencil_extreme",
]

_EPS = np.finfo(float).eps
_MAX_QL_ITER = 60


class EigenError(Exception):
    """Generic eigensolver failure."""


class NotPositiveDefiniteError(EigenError):
    """Raised when a Gram/metric matrix fails the Cholesky test."""


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


def _householder_tridiag(
    a: np.ndarray, accumulate: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, list]:
    """Reduce Hermitian ``a`` to real symmetric tridiagonal form.

    Returns ``(d, e, q, reflectors)``: ``d`` diagonal, ``e`` non-negative
    real subdiagonal.  With ``accumulate`` the full unitary ``q`` (such that
    ``q^H a q`` is the real tridiagonal matrix) is formed; otherwise the
    reflectors and diagonal phases are returned for on-demand application.
    """
    a = np.array(a, dtype=complex)
    n = a.shape[0]
    q = np.eye(n, dtype=complex) if accumulate else None
    reflectors: list = []
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
        reflectors.append((k, v))
        if q is not None:
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
    if q is not None:
        q *= phases[None, :]
    reflectors.append(("phases", phases))
    return d, e, q, reflectors


def _apply_reflectors(reflectors: list, y: np.ndarray) -> np.ndarray:
    """Map a tridiagonal-basis vector back to the original coordinates."""
    z = y.astype(complex)
    tag, phases = reflectors[-1]
    assert tag == "phases"
    z = phases * z
    for k, v in reversed(reflectors[:-1]):
        seg = z[k + 1:]
        seg -= 2.0 * np.vdot(v, seg) * v
    return z


def _ql_implicit(d: np.ndarray, e: np.ndarray, z: np.ndarray | None) -> np.ndarray:
    """Implicit QL with Wilkinson-style shifts on a real tridiagonal.

    Mutates copies of ``d``/``e``; when ``z`` is given its columns are
    rotated along, turning it into the eigenvector matrix.
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
                if z is not None:
                    col_i = z[:, i].copy()
                    col_i1 = z[:, i + 1].copy()
                    z[:, i + 1] = s * col_i + c * col_i1
                    z[:, i] = c * col_i - s * col_i1
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return np.asarray(d)


def _tridiag_solve_shifted(d: np.ndarray, e: np.ndarray, lam: float, b: np.ndarray) -> np.ndarray:
    """Solve ``(T - lam I) x = b`` with partial pivoting (T real tridiagonal)."""
    n = len(d)
    dd = (d - lam).astype(float)
    dl = e.astype(float).copy()
    du = np.zeros(n)
    du[: n - 1] = e
    du2 = np.zeros(n)
    bb = b.astype(float).copy()
    for i in range(n - 1):
        if abs(dl[i]) > abs(dd[i]):
            # swap rows i and i+1; fill-in appears two to the right
            dd[i], dl[i] = dl[i], dd[i]
            du_old_i = du[i]
            du[i] = dd[i + 1]
            dd[i + 1] = du_old_i
            if i + 1 < n - 1:
                du2[i] = du[i + 1]
                du[i + 1] = 0.0
            bb[i], bb[i + 1] = bb[i + 1], bb[i]
        if dd[i] == 0.0:
            dd[i] = 1e-300
        m = dl[i] / dd[i]
        dd[i + 1] -= m * du[i]
        if i + 1 < n - 1:
            du[i + 1] -= m * du2[i]
        bb[i + 1] -= m * bb[i]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        piv = dd[i] if dd[i] != 0.0 else 1e-300
        acc = bb[i]
        if i + 1 < n:
            acc -= du[i] * x[i + 1]
        if i + 2 < n:
            acc -= du2[i] * x[i + 2]
        x[i] = acc / piv
    return x


def _tridiag_eigenvector(d: np.ndarray, e: np.ndarray, lam: float, rng_seed: int = 7) -> np.ndarray:
    n = len(d)
    if n == 1:
        return np.ones(1)
    scale = float(np.max(np.abs(d)) + np.max(np.abs(e), initial=0.0) + 1.0)
    shift = lam + 1e-14 * scale
    rng = np.random.default_rng(rng_seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    for _ in range(3):
        x = _tridiag_solve_shifted(d, e, shift, x)
        nx = np.linalg.norm(x)
        if not math.isfinite(nx) or nx == 0.0:
            raise EigenError("inverse iteration broke down")
        x /= nx
    return x


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
    d, e, q, _ = _householder_tridiag(a)
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


def pencil_extreme(h: np.ndarray, g: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimal eigenpair of the Hermitian pencil ``H x = lam G x``.

    Uses the eigenvalues-only QL pass plus one inverse iteration, followed
    by a Rayleigh-quotient polish; cheaper than the full-spectrum path for
    the oracle's repeated minimum-eigenvalue queries.
    """
    h = np.asarray(h, dtype=complex)
    g = np.asarray(g, dtype=complex)
    l = cholesky(g)
    c = solve_lower(l, h)
    c = np.conj(solve_lower(l, np.conj(c).T)).T
    c = 0.5 * (c + np.conj(c).T)
    if c.shape[0] == 1:
        lam = c[0, 0].real
        x = np.array([1.0 + 0.0j]) / l[0, 0]
        return lam, x
    d, e, _, reflectors = _householder_tridiag(c, accumulate=False)
    w = _ql_implicit(d.copy(), e.copy(), None)
    lam = float(np.min(w))
    y = _tridiag_eigenvector(d, e, lam)
    z = _apply_reflectors(reflectors, y)
    x = solve_upper(np.conj(l).T, z)
    # Rayleigh polish in the original pencil metric
    denom = np.vdot(x, g @ x).real
    lam = float(np.vdot(x, h @ x).real / denom)
    x = x / math.sqrt(denom)
    return lam, x
