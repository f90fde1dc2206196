"""Dense Hermitian-pencil reference on ``numpy.linalg``.

The tests check the package's band-plus-border solver
(:func:`dissipext.eigenh.pencil_extreme`) and the dual-pair split against it;
it shares no code with the package's solver.
"""

import numpy as np


def pencil_eigh(h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of ``H x = lam G x``, ascending; eigenvectors G-orthonormal.

    ``G = L L^H`` reduces the pencil to ``C = L^{-1} H L^{-H}``, whose
    eigenvectors ``y`` give ``x = L^{-H} y``.
    """
    l = np.linalg.cholesky(g)
    c = np.linalg.solve(l, np.linalg.solve(l, h).conj().T).conj().T
    w, y = np.linalg.eigh(0.5 * (c + c.conj().T))
    return w, np.linalg.solve(l.conj().T, y)
