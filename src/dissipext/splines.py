"""Cubic B-spline tables on knot-aligned Gauss panels.

This is the one spline layer of the package.  The oracle's core span
(``oracle.assemble_discrete``) and, in the tests' reference
kit, the dual-pair split on that span and the graded family of the
Ando-Nishio sup formula (clamped knots) all evaluate their splines here.

For a non-decreasing knot vector ``t_0 <= ... <= t_{L-1}`` the basis is the
``L - 4`` cubic B-splines ``B_k`` supported on ``[t_k, t_{k+4}]``.  Every
non-degenerate knot interval ``[t_j, t_{j+1}]`` becomes one panel made of
equal Gauss-Legendre sub-panels of order ``PANEL_ORDER``; on it the
splines ``B_{j-3}, ..., B_j`` are the only ones that may be non-zero, and
their values and first two derivatives are tabulated with de Boor's
recurrence, each step written into slices of one preallocated table.
Slots whose spline lies outside the basis (near the ends of an unclamped
knot vector) hold zeros.  Spline products are polynomial on each panel, so
the panel quadrature integrates them exactly.  Products of two tables
become per-panel 4x4 blocks, which :meth:`SplineTables.band` adds into the
``(nbasis, 4)`` lower band of their matrix by the splines' indices, in
``O(nbasis)`` time and memory; the tests' reference kit keeps a dense
assembly of the same blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PANEL_ORDER", "SplineTables", "spline_tables"]

#: Gauss-Legendre nodes per sub-panel
PANEL_ORDER = 8
_DEGREE = 3
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(PANEL_ORDER)


@dataclass(frozen=True, eq=False)
class SplineTables:
    """Quadrature and spline tables of the knot vector ``knots``.

    ``x`` and ``w`` have shape ``(panels, q)``; ``val``, ``d1`` and ``d2``
    have shape ``(panels, 4, q)`` with slot ``a`` of panel ``j`` holding
    spline ``index[j, a]`` (``-1`` and zero tables where it is absent).
    """

    nbasis: int
    knots: np.ndarray = field(repr=False)
    index: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    val: np.ndarray = field(repr=False)
    d1: np.ndarray = field(repr=False)
    d2: np.ndarray = field(repr=False)

    def blocks(self, weights: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Per-panel 4x4 blocks ``sum_x weights(x) left_a(x) right_b(x)``.

        ``weights`` has the shape of ``x``; ``left`` and ``right`` are
        ``(panels, 4, q)`` tables.  Added by the splines' ``index``, the
        blocks make the matrix ``M[k, l] = sum_x weights left_k right_l``.
        """
        return (weights[:, None, :] * left) @ right.transpose(0, 2, 1)

    def band(self, blocks: np.ndarray) -> np.ndarray:
        """Lower band of the matrix that :meth:`blocks` add up to.

        ``out[l, d] = M[l + d, l]``, an ``(nbasis, 4)`` array (zero past the
        last spline): each block entry is added where the splines' ``index``
        puts it, so the work and the storage are ``O(nbasis)`` on any knot
        vector.  ``band(blocks.swapaxes(1, 2))`` is the upper band,
        ``M[l, l + d]``, with the same diagonal.
        """
        width = self.index.shape[1]
        rows = self.index[:, :, None]
        cols = self.index[:, None, :]
        offset = rows - cols
        keep = (rows >= 0) & (cols >= 0) & (offset >= 0)
        pos = (cols * width + offset)[keep]
        return _accumulate(pos, blocks[keep], self.nbasis * width).reshape(self.nbasis, width)

    def vector(self, weights: np.ndarray, table: np.ndarray) -> np.ndarray:
        """``r[k] = sum_x weights(x) table_k(x)``, added into a basis-indexed vector."""
        cols = (table @ weights[:, :, None])[:, :, 0]
        keep = self.index >= 0
        return _accumulate(self.index[keep], cols[keep], self.nbasis)


def _accumulate(pos: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """``out[pos[i]] += values[i]`` into ``size`` zeros, summed in order."""
    out = np.zeros(size, dtype=values.dtype)
    out.real = np.bincount(pos, values.real, size)
    if np.iscomplexobj(values):
        out.imag = np.bincount(pos, values.imag, size)
    return out


def _raise_degree(t: np.ndarray, j: np.ndarray, p: int, prev: np.ndarray, x=None) -> np.ndarray:
    """One step of de Boor's recurrence on every panel at once.

    ``prev`` holds ``B_{j-p+1..j, p-1}`` (shape ``(panels, p, q)``).  With
    ``x`` the result is ``B_{j-p..j, p}`` at the points; without it, their
    derivatives, ``p/(t_{k+p}-t_k) B_{k,p-1} - p/(t_{k+p+1}-t_{k+1}) B_{k+1,p-1}``.
    Zero-width knot spans contribute nothing.
    """
    k = j[:, None] - p + np.arange(p + 1)
    left = t[k + p] - t[k]
    right = t[k + p + 1] - t[k + 1]
    inv_l = np.divide(1.0, left, out=np.zeros_like(left), where=left > 0)[..., None]
    inv_r = np.divide(1.0, right, out=np.zeros_like(right), where=right > 0)[..., None]
    out = np.empty((len(j), p + 1, prev.shape[2]))
    # slot i combines B_{k, p-1} = prev[i - 1] and B_{k+1, p-1} = prev[i];
    # the first slot has no B_{k, p-1} and the last no B_{k+1, p-1}
    if x is None:
        out[:, 0] = -p * (inv_r[:, 0] * prev[:, 0])
        out[:, 1:p] = p * (inv_l[:, 1:p] * prev[:, :-1] - inv_r[:, 1:p] * prev[:, 1:])
        out[:, p] = p * (inv_l[:, p] * prev[:, -1])
        return out
    xs = x[:, None, :]
    rise = (xs - t[k][..., None]) * inv_l
    fall = (t[k + p + 1][..., None] - xs) * inv_r
    out[:, 0] = fall[:, 0] * prev[:, 0]
    out[:, 1:p] = rise[:, 1:p] * prev[:, :-1] + fall[:, 1:p] * prev[:, 1:]
    out[:, p] = rise[:, p] * prev[:, -1]
    return out


def spline_tables(knots, subpanels: int) -> SplineTables:
    """Gauss panels and value/d1/d2 tables of the cubic B-splines of ``knots``.

    Each knot interval is split into ``subpanels`` equal Gauss sub-panels.
    """
    t = np.asarray(knots, dtype=float)
    if t.ndim != 1 or len(t) < _DEGREE + 2 or np.any(np.diff(t) < 0):
        raise ValueError("need a non-decreasing knot vector with at least 5 knots")
    nbasis = len(t) - _DEGREE - 1
    j = np.flatnonzero(t[1:] > t[:-1])
    # pad so every panel sees its 2*degree neighbouring knots; the padded
    # knots only shape splines outside the basis, whose slots are zeroed
    tp = np.concatenate([np.full(_DEGREE, t[0]), t, np.full(_DEGREE, t[-1])])
    jp = j + _DEGREE

    edges = np.linspace(0.0, 1.0, subpanels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    s = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    ws = (half[:, None] * _WEIGHTS[None, :]).ravel()
    width = (t[j + 1] - t[j])[:, None]
    x = t[j][:, None] + width * s[None, :]
    w = width * ws[None, :]

    b1 = _raise_degree(tp, jp, 1, np.ones((len(j), 1, len(s))), x)
    b2 = _raise_degree(tp, jp, 2, b1, x)
    val = _raise_degree(tp, jp, 3, b2, x)
    d1 = _raise_degree(tp, jp, 3, b2)
    d2 = _raise_degree(tp, jp, 3, _raise_degree(tp, jp, 2, b1))

    index = j[:, None] - _DEGREE + np.arange(_DEGREE + 1)
    absent = (index < 0) | (index >= nbasis)
    index[absent] = -1
    for table in (val, d1, d2):
        table[absent] = 0.0
    return SplineTables(nbasis, t, index, x, w, val, d1, d2)
