import gc
import math
import weakref

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
    lam, _ = eigenh.pencil_extreme(eigenh.Pencil(band_border(np.eye(2)), g))
    assert lam == pytest.approx(1.0)
    lam, x = eigenh.pencil_extreme(eigenh.Pencil(band_border(np.diag([-1.0, 2.0])), g))
    assert lam == pytest.approx(-1.0)
    assert abs(abs(x[0]) - 1.0) < 1e-12


def test_pencil_random_50_self_consistency():
    # agree with the eigenvalues of the symmetric-reduced matrix
    rng = np.random.default_rng(50)
    h = _random_hermitian(rng, 50)
    g = _random_spd(rng, 50)
    lam, x = eigenh.pencil_extreme(eigenh.Pencil(band_border(h), band_border(g)))
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
    lam1, _ = eigenh.pencil_extreme(eigenh.Pencil(band_border(h), band_border(g)))
    lam2, _ = eigenh.pencil_extreme(eigenh.Pencil(band_border(q.conj().T @ h @ q),
                                                  band_border(q.conj().T @ g @ q)))
    assert abs(lam1 - lam2) < 1e-10 * max(1.0, abs(lam1))


def test_pencil_rayleigh_quotient_matches():
    rng = np.random.default_rng(13)
    h = _random_hermitian(rng, 31)
    g = _random_spd(rng, 31)
    lam, x = eigenh.pencil_extreme(eigenh.Pencil(band_border(h), band_border(g)))
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
    w, _ = pencil_eigh(h, g)
    pencil = eigenh.Pencil(*(band_border(a, p, m) for a in (h0, g)), rank_one)
    shifted = eigenh.BandPencil(pencil)
    spread = max(1.0, float(np.max(np.abs(w))))
    # shifts strictly between eigenvalues, and outside the spectrum
    shifts = [w[0] - 1.0, w[-1] + 1.0]
    shifts += [0.5 * (a + b) for a, b in zip(w, w[1:]) if b - a > 1e-8 * spread]
    for sigma in shifts:
        assert shifted.factor(sigma)[0] == int(np.sum(w < sigma))
    lam, x = eigenh.pencil_extreme(pencil)
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


def _guess_pencil(rank_one):
    """A 41x41 band-plus-border pencil: ``(h0, g, rank-one (alpha, q) or
    None, the dense H)``."""
    rng = np.random.default_rng(30)
    n, p, m = 40, 3, 1
    h0 = _band_border(rng, n, p, m, dominant=False)
    g = _band_border(rng, n, p, m, dominant=True)
    if not rank_one:
        return h0, g, None, h0
    q = rng.standard_normal(n + m) + 1j * rng.standard_normal(n + m)
    return h0, g, (1.5, q), h0 + 1.5 * np.outer(q, q.conj())


def _scaled(h0, g, term, c):
    """The pencil of ``c H`` and ``G``; ``term`` is the rank-one
    ``(alpha, q)`` of ``H`` or None."""
    rank_one = None if term is None else (c * term[0], term[1])
    return eigenh.Pencil(band_border(c * h0, 3, 1), band_border(g, 3, 1), rank_one)


@pytest.mark.parametrize("rank_one", [False, True])
def test_pencil_guess_keeps_the_certified_minimum(rank_one):
    # a guess only moves where the downward walk starts
    h0, g, term, h = _guess_pencil(rank_one)
    pencil = _scaled(h0, g, term, 1.0)
    lam, _ = eigenh.pencil_extreme(pencil)
    assert abs(lam - pencil_eigh(h, g)[0][0]) <= 1e-10 * abs(lam)
    guesses = [(lam + 100.0, 1.0), (lam + 100.0, 200.0), (lam - 100.0, 1.0), (lam, 1e-3), (lam, 0.0)]
    for guess in guesses:
        mu, x = eigenh.pencil_extreme(pencil, guess=guess)
        assert abs(mu - lam) <= 2e-12 * abs(lam), guess
        resid = np.linalg.norm(h @ x - mu * (g @ x))
        assert resid <= 1e-9 * np.linalg.norm(h, np.inf) * np.linalg.norm(x), guess


@pytest.mark.parametrize("rank_one", [False, True])
@pytest.mark.parametrize("c", [1e200, 1e-200])
def test_scaled_pencil_gives_its_scaled_minimum(rank_one, c):
    # the solver walks on H scaled by a power of two to unit size: a pencil
    # that is only scaled gives its scaled minimum (1e200 raised EigenError
    # on an iterate norm that underflowed), with or without a scaled guess
    h0, g, term, h = _guess_pencil(rank_one)
    lam = pencil_eigh(h, g)[0][0]
    pencil = _scaled(h0, g, term, c)
    for guess in (None, (c * (lam + 1.0), c * 0.5)):
        mu, x = eigenh.pencil_extreme(pencil, guess=guess)
        assert abs(mu - c * lam) <= 2e-12 * abs(c * lam), guess
        resid = np.linalg.norm(h @ x - (mu / c) * (g @ x))
        assert resid <= 1e-9 * np.linalg.norm(h, np.inf) * np.linalg.norm(x), guess


@pytest.mark.parametrize("rank_one", [False, True])
def test_power_of_two_scaling_keeps_every_bit(rank_one):
    # float arithmetic commutes exactly with a power of two, so the minimum
    # of 2^j H is 2^j times that of H, bit for bit, and the vector is H's
    h0, g, term, _ = _guess_pencil(rank_one)
    lam, x = eigenh.pencil_extreme(_scaled(h0, g, term, 1.0))
    for j in (-600, -37, 1, 500):
        mu, y = eigenh.pencil_extreme(_scaled(h0, g, term, 2.0 ** j))
        assert mu == math.ldexp(lam, j)
        assert np.array_equal(x, y)


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
        eigenh.pencil_extreme(eigenh.Pencil(h, band_border(np.eye(2))))


@pytest.mark.parametrize("rank_one", [False, True])
def test_pencil_with_entries_near_the_float_range_ends(rank_one, deadline):
    # entries of about 1e300 made the inverse iteration divide by a norm
    # that underflows to 0 and spin on NaN vectors, and the downward walk
    # of diag(-1e308, 1e308) overflowed to a shift of -inf and never ended;
    # on H scaled to unit size both end with their minimum, and only a
    # minimum outside the float range is an EigenError
    h0, g, term, h = _guess_pencil(rank_one)
    if rank_one:
        term = (1.0, term[1])
        h = h0 + np.outer(term[1], term[1].conj())
    pencils = [(_scaled(h0, g, term, 1e300), 1e300 * pencil_eigh(h, g)[0][0]),
               (eigenh.Pencil(band_border(np.diag([-1e308, 1e308])), band_border(np.eye(2))),
                -1e308)]
    for pencil, expect in pencils:
        with deadline(10.0):
            mu, _ = eigenh.pencil_extreme(pencil)
        assert abs(mu - expect) <= 2e-12 * abs(expect)
    # G = I/4 puts the minimum at -4e308
    with deadline(10.0), pytest.raises(eigenh.EigenError, match="pencil_extreme: non-finite minimum"):
        eigenh.pencil_extreme(eigenh.Pencil(band_border(np.diag([-1e308, 1e308])),
                                            band_border(0.25 * np.eye(2))))


@pytest.mark.parametrize("top", [0.75, 3.0])
def test_scaled_parts_keep_max_abs_and_a_solved_pencil_is_freed(top):
    # BandBorder.scaled carries max|H| over exactly, and the solver keeps no
    # reference to a pencil it ran on: one is freed as soon as it is dropped,
    # also when it is its own scaled pencil (k = 0 for max|H| in [0.5, 1))
    h = band_border(np.diag([top, -0.5]), 1, 0)
    for k in (-3, 0, 2):
        scaled = h.scaled(k)
        assert scaled.max_abs() == math.ldexp(h.max_abs(), -k)
        assert scaled.max_abs() == float(np.max(np.abs(scaled.band)))
    pencil = eigenh.Pencil(h, band_border(np.eye(2), 1, 0))
    eigenh.pencil_extreme(pencil)
    ref = weakref.ref(pencil)
    gc.disable()
    try:
        del pencil
        assert ref() is None
    finally:
        gc.enable()
