"""The textbook Cox-de Boor recursion, which shares no code with the package."""

import numpy as np


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
