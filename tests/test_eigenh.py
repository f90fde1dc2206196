import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissipext import eigenh
from reference.dense import pencil_eigh


def _random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def _random_spd(rng, n):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return b @ b.conj().T + n * np.eye(n)


def test_cholesky_against_numpy():
    rng = np.random.default_rng(0)
    g = _random_spd(rng, 17)
    l = eigenh.cholesky(g)
    assert np.max(np.abs(l @ l.conj().T - g)) < 1e-11


def test_cholesky_rejects_indefinite():
    with pytest.raises(eigenh.NotPositiveDefiniteError):
        eigenh.cholesky(np.diag([1.0, -1.0]).astype(complex))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 90])
def test_eigh_matches_numpy(n):
    rng = np.random.default_rng(n)
    h = _random_hermitian(rng, n)
    w, v = eigenh.eigh(h)
    w_ref = np.linalg.eigvalsh(h)
    scale = max(1.0, float(np.max(np.abs(w_ref))))
    assert np.max(np.abs(w - w_ref)) < 1e-12 * scale
    assert np.max(np.abs(h @ v - v * w[None, :])) < 1e-11 * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12 * n


def test_eigh_rank_deficient():
    # low-rank matrices exercise the absolute deflation floor
    rng = np.random.default_rng(5)
    u = rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2))
    h = u @ u.conj().T
    w, v = eigenh.eigh(h)
    assert np.max(np.abs(w - np.linalg.eigvalsh(h))) < 1e-12 * np.max(w)


def test_pencil_trivial_examples():
    g = np.eye(2, dtype=complex)
    lam, _ = eigenh.pencil_extreme(g.copy(), g)
    assert lam == pytest.approx(1.0)
    h = np.diag([-1.0, 2.0]).astype(complex)
    lam, x = eigenh.pencil_extreme(h, g)
    assert lam == pytest.approx(-1.0)
    assert abs(abs(x[0]) - 1.0) < 1e-12


def test_pencil_random_50_self_consistency():
    # agree with the eigenvalues of the symmetric-reduced matrix
    rng = np.random.default_rng(50)
    h = _random_hermitian(rng, 50)
    g = _random_spd(rng, 50)
    lam, x = eigenh.pencil_extreme(h, g)
    w_ref, _ = pencil_eigh(h, g)
    assert abs(lam - w_ref[0]) < 1e-9 * max(1.0, abs(w_ref[0]))
    resid = np.linalg.norm(h @ x - lam * (g @ x))
    assert resid <= 1e-9 * np.linalg.norm(h, 2) * np.linalg.norm(x)


def test_pencil_unitary_invariance():
    rng = np.random.default_rng(8)
    n = 24
    h = _random_hermitian(rng, n)
    g = _random_spd(rng, n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    lam1, _ = eigenh.pencil_extreme(h, g)
    lam2, _ = eigenh.pencil_extreme(q.conj().T @ h @ q, q.conj().T @ g @ q)
    assert abs(lam1 - lam2) < 1e-10 * max(1.0, abs(lam1))


def test_pencil_rayleigh_quotient_matches():
    rng = np.random.default_rng(13)
    h = _random_hermitian(rng, 31)
    g = _random_spd(rng, 31)
    lam, x = eigenh.pencil_extreme(h, g)
    rayleigh = float(np.vdot(x, h @ x).real / np.vdot(x, g @ x).real)
    assert abs(rayleigh - lam) < 1e-10 * max(1.0, abs(lam))


# ---------------------------------------------------------------------------
# band-plus-border pencils


def _band_border(rng, n, p, m, dominant):
    """Random Hermitian matrix: half-bandwidth ``p`` on the leading ``n``
    rows, ``m`` dense border rows; diagonally dominant when asked."""
    dim = n + m
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    i, j = np.indices((dim, dim))
    a[(abs(i - j) > p) & (i < n) & (j < n)] = 0.0
    a = 0.5 * (a + a.conj().T)
    if dominant:
        a[np.diag_indices(dim)] = np.sum(np.abs(a), axis=1) + 1.0
    return a


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 24),
    p=st.integers(0, 4),
    m=st.integers(0, 2),
    alpha=st.sampled_from([None, -2.5, -0.3, 0.7, 4.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_border_inertia_and_minimum(n, p, m, alpha, seed):
    rng = np.random.default_rng(seed)
    h = _band_border(rng, n, p, m, dominant=False)
    g = _band_border(rng, n, p, m, dominant=True)
    rank_one = None
    if alpha is not None:
        q = rng.standard_normal(n + m) + 1j * rng.standard_normal(n + m)
        h = h + alpha * np.outer(q, q.conj())
        rank_one = (alpha, q)
    structure = eigenh.PencilStructure(p, m, rank_one)
    w, _ = pencil_eigh(h, g)
    pencil = eigenh.BandPencil(h, g, structure)
    spread = max(1.0, float(np.max(np.abs(w))))
    # shifts strictly between eigenvalues, and outside the spectrum
    shifts = [w[0] - 1.0, w[-1] + 1.0]
    shifts += [0.5 * (a + b) for a, b in zip(w, w[1:]) if b - a > 1e-8 * spread]
    for sigma in shifts:
        assert pencil.count(sigma) == int(np.sum(w < sigma))
    lam, x = eigenh.pencil_extreme(h, g, structure)
    assert abs(lam - w[0]) <= 1e-10 * max(1.0, abs(w[0]))
    assert np.linalg.norm(h @ x - lam * (g @ x)) <= 1e-9 * np.linalg.norm(h, np.inf) * np.linalg.norm(x)


def test_ldl_pivots_match_cholesky():
    rng = np.random.default_rng(21)
    g = _band_border(rng, 30, 3, 1, dominant=True)
    d = eigenh.GramFactor(g, eigenh.PencilStructure(3, 1)).pivots
    assert np.max(np.abs(d - np.abs(np.diag(np.linalg.cholesky(g))) ** 2)) < 1e-12 * np.max(d)
    with pytest.raises(eigenh.NotPositiveDefiniteError):
        eigenh.GramFactor(-g, eigenh.PencilStructure(3, 1))


def test_pencil_rejects_non_finite_entries():
    h = np.diag([1.0, np.nan]).astype(complex)
    with pytest.raises(eigenh.EigenError):
        eigenh.pencil_extreme(h, np.eye(2, dtype=complex))
