import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissipext import eigenh
from reference.dense import band_border, pencil_eigh


def _random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def _random_spd(rng, n):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return b @ b.conj().T + n * np.eye(n)


def test_pencil_trivial_examples():
    g = band_border(np.eye(2))
    lam, _ = eigenh.pencil_extreme(band_border(np.eye(2)), g)
    assert lam == pytest.approx(1.0)
    lam, x = eigenh.pencil_extreme(band_border(np.diag([-1.0, 2.0])), g)
    assert lam == pytest.approx(-1.0)
    assert abs(abs(x[0]) - 1.0) < 1e-12


def test_pencil_random_50_self_consistency():
    # agree with the eigenvalues of the symmetric-reduced matrix
    rng = np.random.default_rng(50)
    h = _random_hermitian(rng, 50)
    g = _random_spd(rng, 50)
    lam, x = eigenh.pencil_extreme(band_border(h), band_border(g))
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
    lam1, _ = eigenh.pencil_extreme(band_border(h), band_border(g))
    lam2, _ = eigenh.pencil_extreme(band_border(q.conj().T @ h @ q), band_border(q.conj().T @ g @ q))
    assert abs(lam1 - lam2) < 1e-10 * max(1.0, abs(lam1))


def test_pencil_rayleigh_quotient_matches():
    rng = np.random.default_rng(13)
    h = _random_hermitian(rng, 31)
    g = _random_spd(rng, 31)
    lam, x = eigenh.pencil_extreme(band_border(h), band_border(g))
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
    p=st.integers(0, 3),
    m=st.integers(0, 2),
    alpha=st.sampled_from([None, -2.5, -0.3, 0.7, 4.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_border_inertia_and_minimum(n, p, m, alpha, seed):
    rng = np.random.default_rng(seed)
    h0 = _band_border(rng, n, p, m, dominant=False)
    g = _band_border(rng, n, p, m, dominant=True)
    h, rank_one = h0, None
    if alpha is not None:
        q = rng.standard_normal(n + m) + 1j * rng.standard_normal(n + m)
        h = h0 + alpha * np.outer(q, q.conj())
        rank_one = (alpha, q)
    structure = eigenh.PencilStructure(rank_one)
    w, _ = pencil_eigh(h, g)
    hp, gp = (band_border(a, p, m) for a in (h0, g))
    pencil = eigenh.BandPencil(hp, gp, structure)
    spread = max(1.0, float(np.max(np.abs(w))))
    # shifts strictly between eigenvalues, and outside the spectrum
    shifts = [w[0] - 1.0, w[-1] + 1.0]
    shifts += [0.5 * (a + b) for a, b in zip(w, w[1:]) if b - a > 1e-8 * spread]
    for sigma in shifts:
        assert pencil.count(sigma) == int(np.sum(w < sigma))
    lam, x = eigenh.pencil_extreme(hp, gp, structure)
    assert abs(lam - w[0]) <= 1e-10 * max(1.0, abs(w[0]))
    assert np.linalg.norm(h @ x - lam * (g @ x)) <= 1e-9 * np.linalg.norm(h, np.inf) * np.linalg.norm(x)


def test_band_border_parts_match_dense():
    rng = np.random.default_rng(4)
    a = _band_border(rng, 20, 3, 2, dominant=False)
    x = rng.standard_normal(22) + 1j * rng.standard_normal(22)
    for parts in (band_border(a, 3, 2), band_border(a)):
        assert len(parts) == 22
        assert np.max(np.abs(parts.matvec(x) - a @ x)) < 1e-12 * np.max(np.abs(a @ x))
        assert np.max(np.abs(parts.abs_row_sums() - np.abs(a).sum(axis=1))) < 1e-12
        assert np.array_equal(parts.diagonal(), a.diagonal().real)
        assert parts.max_abs() == np.max(np.abs(np.tril(a)))
    # the kernel is written for half-bandwidth 3: narrower bands are padded
    assert band_border(a, 1, 2).band.shape == (20, 4)
    with pytest.raises(ValueError):
        eigenh.BandBorder(np.zeros((20, 5)), np.zeros((2, 20)), np.eye(2))
    q = rng.standard_normal(22) + 1j * rng.standard_normal(22)
    r = eigenh.BandBorder.outer(0.7, q, band_border(a, 3, 2))
    pattern = band_border(0.7 * np.outer(q, q.conj()), 3, 2)
    assert all(np.allclose(u, v, rtol=0, atol=1e-14) for u, v in zip(r.parts, pattern.parts))


@pytest.mark.parametrize("rank_one", [False, True])
def test_pencil_guess_keeps_the_certified_minimum(rank_one):
    # a guess only moves where the downward walk starts
    rng = np.random.default_rng(30)
    n, p, m = 40, 3, 1
    h0 = _band_border(rng, n, p, m, dominant=False)
    g = _band_border(rng, n, p, m, dominant=True)
    h, structure = h0, eigenh.PencilStructure()
    if rank_one:
        q = rng.standard_normal(n + m) + 1j * rng.standard_normal(n + m)
        h, structure = h0 + 1.5 * np.outer(q, q.conj()), eigenh.PencilStructure((1.5, q))
    hp, gp = (band_border(a, p, m) for a in (h0, g))
    lam, _ = eigenh.pencil_extreme(hp, gp, structure)
    assert abs(lam - pencil_eigh(h, g)[0][0]) <= 1e-10 * abs(lam)
    guesses = [(lam + 100.0, 1.0), (lam + 100.0, 200.0), (lam - 100.0, 1.0), (lam, 1e-3), (lam, 0.0)]
    for guess in guesses:
        mu, x = eigenh.pencil_extreme(hp, gp, structure, guess=guess)
        assert abs(mu - lam) <= 2e-12 * abs(lam), guess
        resid = np.linalg.norm(h @ x - mu * (g @ x))
        assert resid <= 1e-9 * np.linalg.norm(h, np.inf) * np.linalg.norm(x), guess


def test_ldl_pivots_match_cholesky():
    rng = np.random.default_rng(21)
    g = _band_border(rng, 30, 3, 1, dominant=True)
    d = eigenh.GramFactor(band_border(g, 3, 1)).pivots
    assert np.max(np.abs(d - np.abs(np.diag(np.linalg.cholesky(g))) ** 2)) < 1e-12 * np.max(d)
    with pytest.raises(eigenh.NotPositiveDefiniteError):
        eigenh.GramFactor(band_border(-g, 3, 1))


def test_gram_factor_on_a_shared_band_factor():
    # a band factor passed in is the one GramFactor computes itself, so the
    # same bits; a non-positive pivot of either part is refused
    rng = np.random.default_rng(22)
    g = band_border(_band_border(rng, 30, 3, 2, dominant=True), 3, 2)
    core = eigenh.band_factor(g.band)
    assert all(isinstance(part, tuple) for part in (core[0], core[1], *core[0]))
    whole, shared = eigenh.GramFactor(g), eigenh.GramFactor(g, core)
    assert np.array_equal(whole.pivots, shared.pivots)
    b = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    assert whole.norm(b) == shared.norm(b)
    with pytest.raises(eigenh.NotPositiveDefiniteError):
        eigenh.band_factor(-g.band)
    with pytest.raises(eigenh.NotPositiveDefiniteError):
        eigenh.GramFactor(g, (core[0], (-1.0,) + core[1][1:]))
    indefinite = eigenh.BandBorder(g.band, g.rows, g.corner - 1e3 * np.eye(2))
    with pytest.raises(eigenh.NotPositiveDefiniteError):
        eigenh.GramFactor(indefinite, core)


def test_pencil_rejects_non_finite_entries():
    h = band_border(np.diag([1.0, np.nan]))
    with pytest.raises(eigenh.EigenError):
        eigenh.pencil_extreme(h, band_border(np.eye(2)))
