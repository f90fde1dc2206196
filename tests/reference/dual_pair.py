"""The dual-pair split ``A = S + i V`` of a discretized operator.

A dual pair ``(A, Ã)`` with ``<f, Ã g> = <A f, g>`` splits into the symmetric
part ``S = (A + Ã) / 2`` and the imaginary part ``V = (A - Ã) / 2i``.  On the
oracle's core span the two actions are the problem's expression and its
adjoint; no command assembles them, and the tests check the split on them.
"""

from dataclasses import dataclass

import numpy as np

from dissipext.catalog import CatalogError, ExtensionProblem
from dissipext.oracle import _core_tables

from .assembly import core_action, dense_matrix
from .dense import pencil_eigh


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Dense ``M[j,k] = <b_j, action(b_k)>`` with Gram ``G`` on one basis."""

    basis: str
    matrix: np.ndarray
    gram: np.ndarray


def assemble_core_pair(problem: ExtensionProblem, n: int) -> tuple[DenseOperator, DenseOperator]:
    """Matrices of the dual pair's two actions on ``n`` core splines alone."""
    lo, hi = problem.grid.offset, problem.grid.length
    tab = _core_tables(lo, hi, n)
    m = dense_matrix(tab, tab.w, tab.val, core_action(problem, tab))
    gram = dense_matrix(tab, tab.w, tab.val, tab.val)
    desc = f"{tab.nbasis} cubic spline elements on [{lo:g},{hi:g}]"
    return DenseOperator(desc, m, gram), DenseOperator(desc, m.conj().T.copy(), gram)


def split_dual_pair(m_op: DenseOperator, m_tilde: DenseOperator) -> tuple[DenseOperator, DenseOperator]:
    """``(S, V)`` of a discrete dual pair sharing basis and Gram matrix.

    ``S`` is Hermitian and ``V`` positive semidefinite in the Gram metric;
    :class:`~dissipext.catalog.CatalogError` when the operands do not share
    their Gram matrix, fail the adjoint relation, or give an indefinite ``V``.
    """
    if m_op.matrix.shape != m_tilde.matrix.shape:
        raise CatalogError("dual pair matrices must share their basis")
    if np.max(np.abs(m_op.gram - m_tilde.gram)) > 1e-12 * (1 + np.max(np.abs(m_op.gram))):
        raise CatalogError("dual pair matrices must share their Gram matrix")
    scale = max(1.0, float(np.max(np.abs(m_op.matrix))))
    if np.max(np.abs(m_tilde.matrix - m_op.matrix.conj().T)) > 1e-8 * scale:
        raise CatalogError("operands fail the dual-pair adjoint test")
    s = 0.5 * (m_op.matrix + m_tilde.matrix)
    v = (m_op.matrix - m_tilde.matrix) / 2.0j
    v = 0.5 * (v + v.conj().T)
    w, _ = pencil_eigh(v, m_op.gram)
    if float(np.min(w)) < -1e-8 * max(1.0, float(np.max(np.abs(w)))):
        raise CatalogError("imaginary part is indefinite beyond tolerance")
    return DenseOperator(m_op.basis, s, m_op.gram), DenseOperator(m_op.basis, v, m_op.gram)
