"""Dense Hermitian-pencil reference on ``numpy.linalg``.

The tests check the package's band-plus-border solver
(:func:`dissipext.eigenh.pencil_extreme`) and the dual-pair split against it;
it shares no code with the package's solver.  ``band_border`` wraps a dense
Hermitian matrix as the solver's :class:`~dissipext.eigenh.BandBorder` parts,
by default all in the dense corner.
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
    """Parts of a dense Hermitian ``a``, read from its lower triangle: a band
    of half-bandwidth ``bandwidth`` (at most 3) and ``border`` border rows.
    By default the whole matrix is the corner, which the solver factors as a
    dense block."""
    a = np.asarray(a, dtype=complex)
    if bandwidth is None:
        bandwidth, border = 0, len(a)
    n = a.shape[0] - border
    band = np.zeros((n, bandwidth + 1), dtype=complex)
    for j in range(min(bandwidth + 1, n)):
        band[: n - j, j] = np.diagonal(a, -j)[: n - j]
    return BandBorder(band, a[n:, :n], a[n:, n:])
