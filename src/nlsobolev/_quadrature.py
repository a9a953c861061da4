"""Low-level quadrature and differentiation helpers on uniform grids.

Everything here works in the log-radius variable x = log r, where the grids
are uniform.  The composite trapezoidal rule is corrected at both ends with
Gregory-type weights so that smooth non-decaying integrands (in particular
the volume Jacobian e^{N x}) are integrated to ~1e-12 relative accuracy,
while the interior weights stay equal to h, which preserves the spectral
accuracy of the plain trapezoidal rule for integrands decaying at both ends.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp

__all__ = ["fornberg_weights", "gregory_correction", "uniform_weights", "derivative_matrix"]


def fornberg_weights(xs: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at x0 from nodes xs."""
    n = len(xs)
    d = np.zeros((m + 1, n, n))
    d[0, 0, 0] = 1.0
    c1 = 1.0
    for i in range(1, n):
        c2 = 1.0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            for k in range(min(i, m) + 1):
                d[k, i, j] = ((xs[i] - x0) * d[k, i - 1, j] - k * d[k - 1, i - 1, j]) / c3
        for k in range(min(i, m) + 1):
            d[k, i, i] = c1 / c2 * (k * d[k - 1, i - 1, i - 1]
                                    - (xs[i - 1] - x0) * d[k, i - 1, i - 1])
        c1 = c2
    return d[m, n - 1, :]


def gregory_correction() -> np.ndarray:
    """End-correction weights (in units of h) added to the trapezoidal rule.

    Built from the Euler-Maclaurin boundary series with the odd derivatives
    replaced by one-sided finite differences on the first 8 nodes, the largest
    stencil for which all resulting composite weights stay positive.
    """
    xs = np.arange(8, dtype=float)
    gam = np.zeros(8)
    # B_{2k}/(2k)! for the (2k-1)-th derivative at the left endpoint
    for order, coef in ((1, 1.0 / 12), (3, -1.0 / 720), (5, 1.0 / 30240), (7, -1.0 / 1209600)):
        gam += coef * fornberg_weights(xs, 0.0, order)
    return gam


_GREGORY = gregory_correction()


def uniform_weights(n: int, h: float) -> np.ndarray:
    """Gregory-corrected trapezoidal weights on an n-node grid of step h."""
    p = len(_GREGORY)
    if n < 2 * p:
        raise ValueError(f"need at least {2 * p} nodes, got {n}")
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    w[:p] += h * _GREGORY
    w[n - p:] += h * _GREGORY[::-1]
    return w


@lru_cache(maxsize=32)
def _stencil_rows(n: int, h: float, order: int, width: int, shift: float,
                  rows: int) -> tuple[np.ndarray, np.ndarray]:
    """`width`-point Fornberg rows for the order-th derivative at the points
    (i + shift) h, i < rows: the weights, shape (rows, width), and each row's
    first column j0, cached and read-only.  The window is centered on the
    point inside and is the nearest full window (one-sided rows) at the ends."""
    xs = np.arange(width, dtype=float) * h
    lead = (width - 1) // 2          # window nodes left of an interior point
    j0 = np.clip(np.arange(rows) - lead, 0, n - width)
    vals = np.tile(fornberg_weights(xs, (lead + shift) * h, order), (rows, 1))
    for i in np.flatnonzero(j0 != np.arange(rows) - lead):
        vals[i] = fornberg_weights(xs, (i - j0[i] + shift) * h, order)
    vals.flags.writeable = j0.flags.writeable = False
    return vals, j0


@lru_cache(maxsize=32)
def derivative_matrix(n: int, h: float, order: int) -> sp.csr_array:
    """n x n sparse differentiation matrix of the given derivative order, one
    cached CSR object per (n, h, order) that every caller shares read-only.

    Centered 9-point stencils in the interior, matching one-sided stencils
    near the ends; 9 points give 8th-order interior accuracy, which keeps
    gradient energies below the quadrature error floor.  The CSR band holds
    9n nonzeros, so a matvec costs O(n).
    """
    st = 9
    if n < st:
        raise ValueError(f"grid too small for stencil: n={n} < {st}")
    vals, j0 = _stencil_rows(n, h, order, st, 0, n)
    return sp.csr_array((vals.flatten(), (j0[:, None] + np.arange(st)).ravel(),
                         np.arange(0, n * st + 1, st)), shape=(n, n))


def staggered_derivative_matrix(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(n-1) x n first-derivative matrix D at the cell midpoints, as its rows:
    the weights, shape (n-1, 8), and each row k's first column j0[k].

    Used for assembling Dirichlet quadratic forms: a staggered stencil never
    annihilates the grid's Nyquist sawtooth, so the assembled form has no
    spurious low-energy modes (a wide centered stencil maps the sawtooth to
    zero and fabricates eigenvalues for it).  8 points centered on the cell
    give 8th-order accuracy; the Dirichlet form D^T Q D then has bandwidth 7.
    """
    if n < 9:
        raise ValueError(f"grid too small for staggered stencil: n={n}")
    return _stencil_rows(n, h, 1, 8, 0.5, n - 1)
