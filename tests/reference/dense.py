"""Dense Hermitian-pencil reference on ``numpy.linalg``.

The tests check the package's band-plus-border solver
(:func:`dissipext.eigenh.pencil_extreme`) and the dual-pair split against it;
it shares no code with the package's solver.  ``band_border`` wraps a dense
Hermitian matrix as the solver's :class:`~dissipext.eigenh.BandBorder` parts.
"""

import numpy as np

from dissipext.eigenh import BandBorder


def pencil_eigh(h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of ``H x = lam G x``, ascending; eigenvectors G-orthonormal.

    ``G = L L^H`` reduces the pencil to ``C = L^{-1} H L^{-H}``, whose
    eigenvectors ``y`` give ``x = L^{-H} y``.
    """
    l = np.linalg.cholesky(g)
    c = np.linalg.solve(l, np.linalg.solve(l, h).conj().T).conj().T
    w, y = np.linalg.eigh(0.5 * (c + c.conj().T))
    return w, np.linalg.solve(l.conj().T, y)


def band_border(a: np.ndarray, bandwidth: int | None = None, border: int = 0) -> BandBorder:
    """Parts of a dense Hermitian ``a``, read from its lower triangle; by
    default the band has full width."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0] - border
    p = min(n - 1 if bandwidth is None else bandwidth, max(n - 1, 0))
    band = np.zeros((n, p + 1), dtype=complex)
    for j in range(p + 1):
        band[: n - j, j] = np.diagonal(a, -j)[: n - j]
    return BandBorder(band, a[n:, :n], a[n:, n:])
