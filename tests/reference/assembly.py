"""Dense forms of the oracle's band-plus-border assembly.

``dense_matrix`` adds per-panel spline blocks into a dense matrix with
``np.add.at``, and ``assemble_dense`` is the oracle's assembly built that
way, from the full table of the action on every active spline
(``core_action``) instead of the oracle's per-mesh reference bands: dense
``(n+1)^2`` matrices ``M`` (with the rank-one term ``i alpha q q^H``) and
``G``; ``core_rounding_scale`` sizes the rounding of the real or the
imaginary part of ``M``'s core entries.  ``expand`` and ``dense_pencil``
turn the package's Hermitian :class:`~dissipext.eigenh.BandBorder` parts
back into dense matrices.  The tests check the band assembly and the pencil solver against
these.
"""

import numpy as np

from dissipext import forms
from dissipext.analytic import norm_sq
from dissipext.catalog import ExtensionProblem, MultiplicationPerturbation, RankOnePerturbation
from dissipext.eigenh import BandBorder, Pencil
from dissipext.oracle import _active_cut, _core_tables
from dissipext.splines import SplineTables


def dense_matrix(tab: SplineTables, weights: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``M[k, l] = sum_x weights(x) left_k(x) right_l(x)``, dense ``(nbasis, nbasis)``."""
    blocks = np.einsum("jq,jaq,jbq->jab", weights, left, right)
    rows = np.broadcast_to(tab.index[:, :, None], blocks.shape)
    cols = np.broadcast_to(tab.index[:, None, :], blocks.shape)
    keep = (rows >= 0) & (cols >= 0)
    out = np.zeros((tab.nbasis, tab.nbasis), dtype=complex)
    np.add.at(out, (rows[keep], cols[keep]), blocks[keep])
    return out


def _bounded(problem: ExtensionProblem, tab: SplineTables, include_bounded_v: bool):
    """The bounded imaginary part ``i V`` at the panel nodes, or 0."""
    pert = problem.perturbation if include_bounded_v else None
    if isinstance(pert, MultiplicationPerturbation):
        return 1.0j * pert.v(tab.x).real
    return 0.0


def core_action(problem: ExtensionProblem, tab: SplineTables, bounded=0.0) -> np.ndarray:
    """Action samples ``(panels, 4, q)`` of every active spline: the problem's
    expression plus the multiplier ``bounded`` (samples at the panel nodes)."""
    c2, c1, m = problem.expression()
    mult = m(tab.x) + bounded
    return c2 * tab.d2 + c1 * tab.d1 + mult[:, None, :] * tab.val


def assemble_dense(problem: ExtensionProblem, n: int, *, include_bounded_v: bool = True):
    """Dense ``(M, G)`` of :func:`dissipext.oracle.assemble_discrete`, ``M``
    with its rank-one term."""
    lo, hi = problem.grid.offset, _active_cut(problem)
    end = problem.grid.right_endpoint
    tab = _core_tables(lo, hi, n)
    xs, ws = tab.x, tab.w
    nb = tab.nbasis
    pert = problem.perturbation if include_bounded_v else None

    vfn = problem.v
    v_samp = vfn(xs)
    act = problem.action_on(vfn)
    act_v = act(xs)
    vv = (vfn.conj() * act).integral(0.0, end)
    lv = problem.deviation()
    if lv is not None:
        act_v = act_v + lv(xs)
        vv += problem.v.inner(lv, 0.0, end)
    bounded = _bounded(problem, tab, include_bounded_v)
    if isinstance(pert, MultiplicationPerturbation):
        act_v = act_v + bounded * v_samp
        vv += 1.0j * forms.friedrichs_form_sq(problem.spec, problem.v)
    act_local = core_action(problem, tab, bounded)

    mat = np.zeros((nb + 1, nb + 1), dtype=complex)
    gram = np.zeros((nb + 1, nb + 1), dtype=complex)
    mat[:nb, :nb] = dense_matrix(tab, ws, tab.val, act_local)
    mat[:nb, nb] = tab.vector(ws * act_v, tab.val)
    mat[nb, :nb] = tab.vector(ws * np.conj(v_samp), act_local)
    mat[nb, nb] = vv
    if isinstance(pert, RankOnePerturbation):
        q = np.append(tab.vector(ws * pert.phi(xs), tab.val), problem.v.inner(pert.phi, 0.0, end))
        mat += 1.0j * pert.alpha * np.outer(q, np.conj(q))
    gram[:nb, :nb] = dense_matrix(tab, ws, tab.val, tab.val)
    gv = tab.vector(ws * v_samp, tab.val)
    gram[:nb, nb] = gv
    gram[nb, :nb] = np.conj(gv)
    gram[nb, nb] = norm_sq(vfn, 0.0, end)
    return mat, gram


def core_rounding_scale(problem: ExtensionProblem, n: int, part=np.real) -> np.ndarray:
    """``S[k, l] = sum_x |w b_k| (|part(c2) b_l''| + |part(c1) b_l'| +
    |part(m + i V) b_l|)``: the moduli of the summands of the quadrature
    products that make ``part(M)[k, l]`` on the core, in
    :func:`assemble_dense` (``part`` is ``np.real`` or ``np.imag``).  The
    bounded imaginary part ``i V`` adds nothing to the real part."""
    tab = _core_tables(problem.grid.offset, _active_cut(problem), n)
    c2, c1, m = problem.expression()
    mult = m(tab.x) + _bounded(problem, tab, True)
    act = (abs(part(c2)) * np.abs(tab.d2) + abs(part(c1)) * np.abs(tab.d1)
           + np.abs(part(mult))[:, None, :] * np.abs(tab.val))
    return dense_matrix(tab, np.abs(tab.w), np.abs(tab.val), act).real


def expand(a: BandBorder) -> np.ndarray:
    """Dense Hermitian matrix of band-plus-border parts."""
    n, width = a.band.shape
    out = np.zeros((len(a), len(a)), dtype=complex)
    k = np.arange(n)
    for j in range(width):
        out[k[: n - j] + j, k[: n - j]] = a.band[: n - j, j]
    out[n:, :n] = a.rows
    out[n:, n:] = a.corner
    lower = np.tril(out)
    return lower + np.tril(lower, -1).conj().T


def dense_pencil(op: Pencil) -> tuple[np.ndarray, np.ndarray]:
    """Dense ``(H, G)`` of the oracle's pencil, ``H`` with its rank-one term."""
    h = expand(op.h)
    if op.rank_one is not None:
        alpha, q = op.rank_one
        h += alpha * np.outer(q, np.conj(q))
    return h, expand(op.g)
