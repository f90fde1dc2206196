"""Hermitian and Hermitian-pencil eigensolvers.

Minimal eigenpair of ``H x = lam G x`` (``H`` Hermitian, ``G`` Hermitian
positive definite) on a band-plus-border pattern, the oracle's solver
(:func:`pencil_extreme`):

1. The pencil is one :class:`Pencil` record.  Both matrices are held as
   :class:`BandBorder` parts: the lower band of the leading block, of
   half-bandwidth at most 3, the dense border rows and the corner, ``O(N)``
   numbers.  Each part keeps its dtype; the oracle's bands are real.  The
   record adds ``H``'s rank-one term and ``G``'s factor when the caller has
   one.
2. One ``L D L^H`` kernel without pivoting (:func:`_ldl_core`) factors
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

A pencil computes each value once: ``max |H|`` (:meth:`BandBorder.max_abs`,
which the power-of-two scaling carries over exactly), the scaled pencil
(:func:`_unit_scaled`, on which the solver runs and checks its residual),
and the conjugated parts its products read (:meth:`BandBorder.matvec`).
Inverse iteration draws its seeded start vector once per size; the ``G x``
of each step is the next solve's right-hand side, and the last round's
``H x`` and ``G x`` give the residual.  A solve stays in Python lists from
its forward pass to its backward pass.

This is the package's only eigensolver; there is no dense one.
:func:`cholesky` and :func:`eigh` are stubs that raise :class:`EigenError`:
they stay only as layers the benchmark's tracer names, until ROADMAP item 2
drops those targets.  The tests check the pencil solver against a dense
``numpy.linalg`` reference (``tests/reference/dense.py``), whose dense
pencils run through the kernel's corner phase.

numpy supplies array arithmetic only; no library eigensolver is called.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "EigenError",
    "NotPositiveDefiniteError",
    "BandBorder",
    "Pencil",
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
#: half-bandwidth of the core band, the one :func:`_ldl_core` is written for
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
    ``N``.  The parts are not changed after construction: :meth:`max_abs`
    and :meth:`matvec` compute what they read from them once.
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
        """Largest modulus of a stored entry, computed once."""
        return self._max_abs

    @functools.cached_property
    def _max_abs(self) -> float:
        return _largest_modulus(self.parts)

    def scaled(self, k: int) -> BandBorder:
        """These parts times ``2^-k``, ``|k| <= 1022``.  The largest modulus
        is carried over as ``2^-k`` times this one's: the scaling is exact
        for it, so that is the value :meth:`max_abs` would compute again."""
        unit = 2.0 ** -k
        out = BandBorder(*(unit * part for part in self.parts))
        out.__dict__["_max_abs"] = math.ldexp(self.max_abs(), -k)
        return out

    def is_finite(self) -> bool:
        return all(bool(np.all(np.isfinite(x))) for x in self.parts)

    @functools.cached_property
    def _product_parts(self) -> tuple:
        """What every :meth:`matvec` reads: the diagonal, each sub-diagonal
        ``j`` with its conjugate (itself on a real band), and ``rows^H``."""
        band, rows, _ = self.parts
        n = len(band)
        subs = []
        for j in range(1, min(band.shape[1], n)):
            lower = band[: n - j, j]
            subs.append((j, lower, np.conj(lower) if np.iscomplexobj(lower) else lower))
        return band[:, 0], subs, rows.conj().T

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A x`` for the Hermitian ``A`` of these parts, in ``O(N (p + m))``."""
        diag, subs, rows_h = self._product_parts
        n = len(diag)
        core, tail = x[:n], x[n:]
        y = diag * core
        for j, lower, upper in subs:
            y[j:] += lower * core[: n - j]
            y[: n - j] += upper * core[j:]
        y += rows_h @ tail
        return np.concatenate([y, self.rows @ core + self.corner @ tail])

    def abs_row_sums(self) -> np.ndarray:
        """``sum_j |A[i, j]|`` over the stored pattern of the Hermitian ``A``."""
        band, rows, corner = (np.abs(x) for x in self.parts)
        n = len(band)
        s = band[:, 0] + rows.sum(axis=0)
        for j in range(1, min(band.shape[1], n)):
            s[j:] += band[: n - j, j]
            s[: n - j] += band[: n - j, j]
        return np.concatenate([s, rows.sum(axis=1) + corner.sum(axis=1)])


def _inf_norm(pencil: Pencil) -> float:
    """``||H||_inf`` of ``H = h + alpha q q^H``: the rank-one row sums
    ``|alpha| |q_i| ||q||_1``, corrected on the stored pattern."""
    h = pencil.h
    if pencil.rank_one is None:
        return float(np.max(h.abs_row_sums()))
    alpha, q = pencil.rank_one
    r = BandBorder.outer(alpha, q, h)
    both = BandBorder(*(a + b for a, b in zip(h.parts, r.parts)))
    full = abs(alpha) * np.abs(q) * float(np.sum(np.abs(q)))
    return float(np.max(both.abs_row_sums() - r.abs_row_sums() + full))


def _largest_modulus(parts) -> float:
    """Largest modulus of an entry of the arrays ``parts`` (0 when empty)."""
    return max((float(np.max(np.abs(x))) for x in parts if x.size), default=0.0)


@dataclass(frozen=True, eq=False)
class Pencil:
    """The Hermitian pencil ``H x = lam G x`` on one band-plus-border pattern.

    ``h`` and ``g`` are the :class:`BandBorder` parts of ``H`` and ``G``.
    ``H`` is ``h`` plus the dense term ``alpha q q^H`` when
    ``rank_one = (alpha, q)`` (``alpha`` real and non-zero, ``q`` of length
    ``N``); the parts never hold that term.  ``g_factor`` is ``G``'s
    :class:`GramFactor` when the caller has factored it already;
    :class:`BandPencil` then does not factor ``G`` again.  ``len()`` is ``N``.
    """

    h: BandBorder
    g: BandBorder
    rank_one: tuple[float, np.ndarray] | None = None
    g_factor: GramFactor | None = None

    def __len__(self) -> int:
        return len(self.h)

    def h_matvec(self, x: np.ndarray) -> np.ndarray:
        """``H x``: the parts' product plus the rank-one term."""
        y = self.h.matvec(x)
        if self.rank_one is not None:
            alpha, q = self.rank_one
            y += alpha * q * np.vdot(q, x)
        return y


def _padded(a: np.ndarray) -> np.ndarray:
    """``a`` with three zero columns appended, the padding :func:`_ldl_core` reads."""
    out = np.zeros((len(a), a.shape[1] + _P), dtype=a.dtype)
    out[:, : a.shape[1]] = a
    return out


def _layout(band: np.ndarray, rows: np.ndarray, corner: np.ndarray):
    """``(band, rows, corner)`` arrays in the layout of :func:`_ldl_core`: the
    band transposed to its diagonal and three sub-diagonals, and it and the
    border rows padded with three zeros."""
    return _padded(band.T), _padded(rows), corner


def _corner_lists(corner: np.ndarray) -> list:
    """The dense lower triangle of ``corner`` as :func:`_ldl_border` reads it,
    ``out[c][j] = C[c+j, c]``."""
    c = corner.tolist()
    m = len(c)
    return [[c[k + j][k] for j in range(m - k)] for k in range(m)]


def _ldl_core(band: list, cap: int | None = None):
    """``L D L^H`` of a Hermitian band-plus-border matrix, no pivoting: the
    core pass of the kernel, which :func:`_ldl_border` completes.

    ``band`` is four lists, the diagonal and the three sub-diagonals of the
    ``n``-row core (``band[j][k] = A[k+j, k]``), each padded with three
    zeros; the border pass reads ``rows[c][k]``, which holds ``A[n+c, k]``
    (also padded), and ``corner[c][j]``, which holds ``A[n+c+j, n+c]``.

    1. The core (this pass): each step is written out for half-bandwidth 3,
       and the entries that the next three steps still update ride along in
       local variables, so a step neither loops nor indexes.  The
       arithmetic is that of the entries: a float band runs float
       operations.
    2. The border rows (:func:`_ldl_border`): ``W = A[n:, :n] L^{-H}`` is a
       forward solve of each row, their multipliers are ``W D^{-1}``, and
       the corner becomes its Schur complement ``A[n:, n:] - W D^{-1} W^H``.
    3. The corner, factored as a dense block in place (:func:`_ldl_border`).

    Returns ``(sub, D, neg)``: the three sub-diagonal lists of the conjugate
    ``conj(L)`` of the unit lower factor, each of length ``n``, the pivots
    ``D``, and how many pivots are not positive, which by Sylvester's law is
    the number of negative eigenvalues of ``A`` when none is zero.  With
    ``cap`` the pass stops as soon as more than ``cap`` pivots are not
    positive; ``sub`` is then None.
    """
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
    """Steps 2 and 3 of the kernel of :func:`_ldl_core` on the core's factor
    ``sub``, its pivots ``d`` (extended here by the corner's) and its count
    ``neg``.  Returns ``(factor, D, neg)`` of the whole matrix, ``factor``
    being ``conj(L)`` as ``(sub, rows, corner)``, or None at ``cap``."""
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
    """``F^{-1} b`` for the factor ``F = conj(L)`` that :func:`_ldl_border` returns."""
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
    """``F^{-T} z`` for the factor ``F = conj(L)`` that :func:`_ldl_border` returns."""
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


def _ldl_solve(factor: tuple, d: list, conj_b: list) -> list:
    """``x = A^{-1} b`` as a list, from ``conj(b)`` as a list, with a factor
    of :func:`_ldl_border`: with ``F = conj(L)``,
    ``x = L^{-H} D^{-1} L^{-1} b = F^{-T} (conj(F^{-1} conj(b)) / D)``.
    ``D^{-1}`` is applied as ``conj(y) * (1 / d)``, a product with the
    reciprocal as in numpy's complex-by-real division, which the pinned
    outputs were computed with; Python's ``complex / float`` divides and
    rounds differently."""
    y = _forward(factor, conj_b)
    return _backward(factor, [yk.conjugate() * (1.0 / dk) for yk, dk in zip(y, d)])


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
    and the corner are factored against it.  ``factor`` is ``conj(L)`` as
    :func:`_ldl_border` returns it, and ``pivots`` is ``D``.  Raises
    :class:`NotPositiveDefiniteError` at the first pivot that is not
    positive.
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

    Without a rank-one term the factored matrix of the :class:`Pencil` is
    ``H - sigma G`` itself.  With ``alpha q q^H`` it is the augmented matrix
    ``[[h - sigma G, q], [q^H, -1/alpha]]``: ``q`` is one more border row,
    and the Schur complement of the last pivot is ``H - sigma G``.  Its
    inertia is therefore that of ``H - sigma G`` plus one negative
    eigenvalue when ``alpha > 0``.  Each shift costs ``O(N (3 + border)^2)``.
    ``G`` is factored once, or not at all when ``pencil.g_factor`` holds
    its factor; :class:`GramFactor` raises :class:`NotPositiveDefiniteError`
    when it is not positive definite.
    """

    def __init__(self, pencil: Pencil):
        self.g_factor = pencil.g_factor if pencil.g_factor is not None else GramFactor(pencil.g)
        hb, hr, hc = pencil.h.parts
        gb, gr, gc = pencil.g.parts
        self._dim = len(pencil)
        self._pad: list = []
        self._negative_extra = 0
        if pencil.rank_one is not None:
            alpha, q = pencil.rank_one
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

    def factor(self, sigma: float, cap: int | None = None):
        """``(count, solve)`` at ``sigma``: the number of eigenvalues of the
        pencil below ``sigma`` and, when the pass ran to the end,
        ``solve: b -> (H - sigma G)^{-1} b`` (else None).  With ``cap`` the
        pass stops as soon as the count exceeds ``cap``."""
        band, rows, corner = (a - sigma * b for a, b in zip(self._h, self._g))
        extra = self._negative_extra
        cap = None if cap is None else cap + extra
        sub, d, neg = _ldl_core(band.tolist(), cap)
        factor = None
        if sub is not None:
            factor, d, neg = _ldl_border(sub, d, neg, rows.tolist(), _corner_lists(corner), cap)
        if factor is None:
            return neg - extra, None
        pad, dim = self._pad, self._dim

        def solve(b: np.ndarray) -> np.ndarray:
            return np.array(_ldl_solve(factor, d, np.conj(b).tolist() + pad)[:dim])

        return neg - extra, solve


def _scale(pencil: Pencil) -> float:
    """``max |H| / min G_ii``, the rank-one term included (1 where it is 0)."""
    big = pencil.h.max_abs()
    if pencil.rank_one is not None:
        alpha, q = pencil.rank_one
        big = max(big, abs(alpha) * float(np.max(np.abs(q))) ** 2)
    return big / float(np.min(pencil.g.diagonal())) or 1.0


def _unit_scaled(pencil: Pencil) -> tuple[int, Pencil]:
    """``(k, pencil)`` with ``H`` scaled by ``2^-k``: the parts ``h`` and the
    rank-one ``alpha`` alike.

    ``2^k`` is the power of two (:func:`math.frexp`) of the largest entry of
    ``H``, within a factor 8 for the rank-one term, whose entries are not
    formed; ``|k| <= 1022``, where ``2^-k`` is a normal float.  Float
    arithmetic commutes exactly with the scaling wherever nothing under- or
    overflows.  The scaled parts keep ``max |H|`` (:meth:`BandBorder.scaled`)."""
    k = math.frexp(pencil.h.max_abs())[1]
    rank_one = pencil.rank_one
    if rank_one is not None:
        alpha, q = rank_one
        k = max(k, math.frexp(alpha)[1] + 2 * math.frexp(float(np.max(np.abs(q))))[1])
    k = min(max(k, -1022), 1022)
    if not k:
        return 0, pencil
    if rank_one is not None:
        rank_one = (2.0 ** -k * alpha, q)
    return k, replace(pencil, h=pencil.h.scaled(k), rank_one=rank_one)


def rounding_floor(pencil: Pencil) -> float:
    """The absolute part of the bracket :func:`pencil_extreme` certifies,
    ``64 eps max |H| / min G_ii``: it does not tell apart eigenvalues of the
    pencil closer than this."""
    return _FLOOR * _scale(pencil)


@functools.lru_cache(maxsize=8)
def _start_vector(n: int) -> np.ndarray:
    """The seeded start of inverse iteration on a pencil of size ``n``, drawn
    once per size; read-only, since every pencil of that size shares it."""
    x = np.random.default_rng(7).standard_normal(n).astype(complex)
    x.flags.writeable = False
    return x


def _finite(value: float, what: str) -> float:
    """``value``, or EigenError naming ``what`` when it is not finite."""
    if not math.isfinite(value):
        raise EigenError(f"pencil_extreme: non-finite {what} {value!r}")
    return value


def pencil_extreme(
    pencil: Pencil, *, guess: tuple[float, float] | None = None
) -> tuple[float, np.ndarray]:
    """Minimal eigenpair of the Hermitian :class:`Pencil` ``H x = lam G x``.

    Its parts share one pattern, on which every step costs ``O(N)``.
    ``guess = (mu, radius)`` is an estimate of ``lam``, e.g. from a coarser
    discretization: the walk of step 1 starts at ``mu`` with the step
    ``max(radius, floor)`` (the rounding floor of step 4).  It saves
    factorizations when it is close and costs a few when it is not; the
    result is certified either way.

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
       ``G``-normalized, if ``||H x - mu G x|| <= 1e-9 ||H||_inf ||x||``.

    The steps run on ``2^-k H``, with ``2^k`` the power of two of ``H``'s
    largest entry (:func:`_unit_scaled`), and on the guess scaled alike; the
    minimum is scaled back.  Float arithmetic commutes exactly with a power
    of two where nothing under- or overflows, so an ordinary pencil gives
    the bits it gives unscaled, and a pencil whose entries are only scaled
    (near ``1e300`` or ``1e-300``) gives its scaled minimum.

    :class:`EigenError` on non-finite entries, on a minimum outside the
    float range or a residual above that bound, and as soon as a shift, the
    iterate's norm, ``mu`` or ``rho`` leaves the float range: steps 1 to 3
    would not end there.
    """
    finite = pencil.h.is_finite() and pencil.g.is_finite()
    if pencil.rank_one is not None:
        alpha, q = pencil.rank_one
        finite = finite and math.isfinite(alpha) and bool(np.all(np.isfinite(q)))
    if not finite:
        raise EigenError("pencil has non-finite entries")
    k, pencil = _unit_scaled(pencil)
    if guess is not None:
        guess = (math.ldexp(guess[0], -k), math.ldexp(guess[1], -k))
    g = pencil.g
    hdiag = pencil.h.diagonal()
    if pencil.rank_one is not None:
        alpha, q = pencil.rank_one
        hdiag = hdiag + alpha * np.abs(q) ** 2
    shifted = BandPencil(pencil)
    hi = float(np.min(hdiag / g.diagonal()))
    scale = _scale(pencil)
    floor = _FLOOR * scale
    # walk down in steps growing 4x, from the upper bound or from the guess,
    # until the count is 0: every shift with a count of 0 is a certified
    # lower shift, and its factorization serves the inverse iteration there
    top, step = hi, max(abs(hi), scale / 1024.0)
    if guess is not None and guess[0] - max(guess[1], floor) < hi:
        top, step = guess[0], max(guess[1], floor)
    while True:
        sigma = _finite(top - step, "walk shift")
        below, solve = shifted.factor(sigma, cap=0)
        if not below:
            lo = sigma
            break
        hi = top = sigma
        step *= 4.0
    width = hi - lo
    # G x of the last step of a round is the first product of the next round
    gx = g.matvec(_start_vector(len(pencil)))
    while True:
        for _ in range(_INVERSE_STEPS):
            x = solve(gx)
            norm = np.linalg.norm(x)
            if not 0.0 < norm < math.inf:
                raise EigenError(f"pencil_extreme: iterate norm {norm!r} out of float range")
            x /= norm
            gx = g.matvec(x)
        xgx = np.vdot(x, gx).real
        hx = pencil.h_matvec(x)
        mu = _finite(float(np.vdot(x, hx).real / xgx), "Rayleigh quotient")
        hi = min(hi, mu)
        tol = _CERT_RTOL * abs(mu) + floor
        if hi - lo <= tol:
            break
        r = hx - mu * gx
        rho = _finite(shifted.g_factor.norm(r) / math.sqrt(xgx), "residual bound")
        sigma = mu - max(rho, tol)
        if lo < sigma < hi:
            below, at_sigma = shifted.factor(sigma, cap=0)
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
            sigma = _finite(max(hi - step, 0.5 * (lo + hi)), "walk shift")
            below, at_sigma = shifted.factor(sigma, cap=0)
            if below:
                hi, step = sigma, 4.0 * step
            else:
                lo, solve = sigma, at_sigma
        width = hi - lo
    # on 2^-k H, which keeps ||H|| and the residual's square in float range
    resid = float(np.linalg.norm(hx - mu * gx))
    if resid > 1e-9 * _inf_norm(pencil) * float(np.linalg.norm(x)):
        raise EigenError(f"pencil residual {resid * 2.0 ** k / math.sqrt(xgx):.2e} out of tolerance")
    return _finite(mu * 2.0 ** k, "minimum"), x / math.sqrt(xgx)
