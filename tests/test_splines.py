import numpy as np
import pytest

from dissipext import splines

UNIFORM = np.linspace(0.1, 1.3, 20)
# clamped, with knots accumulating geometrically toward 0
GRADED = np.array([0.0] * 4 + [2.0 ** -k for k in range(10, 0, -1)] + [0.75] + [1.0] * 4)


def cox_de_boor(t, i, x, order=0):
    """``order``-th derivative of the cubic B-spline ``B_i`` of knots ``t``.

    The textbook recursion on half-open knot spans, evaluated densely: the
    independent reference for the vectorized tables of the spline layer.
    """
    x = np.asarray(x, dtype=float)

    def b(idx, k, d):
        if k == 0:
            return ((x >= t[idx]) & (x < t[idx + 1])).astype(float)
        out = np.zeros_like(x)
        left = t[idx + k] - t[idx]
        right = t[idx + k + 1] - t[idx + 1]
        if d == 0:
            if left > 0:
                out += (x - t[idx]) / left * b(idx, k - 1, 0)
            if right > 0:
                out += (t[idx + k + 1] - x) / right * b(idx + 1, k - 1, 0)
            return out
        if left > 0:
            out += k / left * b(idx, k - 1, d - 1)
        if right > 0:
            out -= k / right * b(idx + 1, k - 1, d - 1)
        return out

    return b(i, 3, order)


@pytest.mark.parametrize("knots", [UNIFORM, GRADED], ids=["uniform", "graded"])
@pytest.mark.parametrize("subpanels", [1, 2])
def test_tables_match_cox_de_boor(knots, subpanels):
    tab = splines.spline_tables(knots, subpanels)
    assert tab.nbasis == len(knots) - 4
    assert tab.x.shape == (len(np.unique(knots)) - 1, 8 * subpanels)
    assert set(tab.index[tab.index >= 0].tolist()) == set(range(tab.nbasis))
    for order, table in enumerate((tab.val, tab.d1, tab.d2)):
        for j in range(len(tab.x)):
            for a in range(4):
                k = tab.index[j, a]
                if k < 0:
                    assert np.all(table[j, a] == 0.0)
                    continue
                ref = cox_de_boor(knots, k, tab.x[j], order)
                scale = max(1.0, float(np.max(np.abs(ref))))
                assert np.max(np.abs(table[j, a] - ref)) <= 1e-12 * scale


def test_partition_of_unity_on_clamped_knots():
    tab = splines.spline_tables(GRADED, 2)
    assert np.all(tab.index >= 0)
    assert np.max(np.abs(tab.val.sum(axis=1) - 1.0)) < 1e-14
    for table in (tab.d1, tab.d2):
        assert np.max(np.abs(table.sum(axis=1))) < 1e-14 * np.max(np.abs(table))


@pytest.mark.parametrize("knots", [UNIFORM, GRADED], ids=["uniform", "graded"])
@pytest.mark.parametrize("subpanels", [1, 2])
def test_panel_quadrature_exact_on_spline_products(knots, subpanels):
    tab = splines.spline_tables(knots, subpanels)
    nb = tab.nbasis
    # integral of each spline: (t_{k+4} - t_k) / 4
    widths = knots[4:] - knots[:-4]
    integrals = tab.vector(tab.w, tab.val)
    assert np.max(np.abs(integrals - widths / 4.0)) < 1e-14
    # products of degree 6 against a dense 5-point Gauss rule per knot span
    nodes, weights = np.polynomial.legendre.leggauss(5)
    breaks = np.unique(knots)
    half = 0.5 * np.diff(breaks)
    mid = 0.5 * (breaks[1:] + breaks[:-1])
    xs = (mid[:, None] + half[:, None] * nodes).ravel()
    ws = (half[:, None] * weights).ravel()
    for order in (0, 1, 2):
        ref = np.array([cox_de_boor(knots, k, xs, order) for k in range(nb)])
        val = np.array([cox_de_boor(knots, k, xs) for k in range(nb)])
        gram = tab.matrix(tab.w, tab.val, (tab.val, tab.d1, tab.d2)[order])
        dense = (val * ws) @ ref.T
        assert np.max(np.abs(gram - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_assembly_skips_absent_splines():
    tab = splines.spline_tables(UNIFORM, 1)
    weights = np.ones(tab.w.shape) / tab.w.shape[1]
    ones = np.ones(tab.val.shape)
    # each spline of an unclamped knot vector is active on four panels, and
    # two splines share 4 - |k - l| of them
    assert np.all(tab.vector(weights, ones) == 4.0)
    k = np.arange(tab.nbasis)
    band = np.maximum(4 - np.abs(k[:, None] - k[None, :]), 0)
    assert np.max(np.abs(tab.matrix(weights, ones, ones) - band)) < 1e-14


def test_rejects_bad_knot_vectors():
    with pytest.raises(ValueError):
        splines.spline_tables([0.0, 1.0, 0.5, 2.0, 3.0], 1)
    with pytest.raises(ValueError):
        splines.spline_tables([0.0, 1.0, 2.0, 3.0], 1)
