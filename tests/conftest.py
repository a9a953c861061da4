import math
import os

import numpy as np
import pytest
import scipy.linalg as sla

import nlsobolev as nl


@pytest.fixture(scope="session")
def p32():
    return nl.make_params(3, 2.0)


@pytest.fixture(scope="session")
def p31():
    return nl.make_params(3, 1.0)


@pytest.fixture(scope="session")
def p42():
    return nl.make_params(4, 2.0)


@pytest.fixture(scope="session")
def p64():
    return nl.make_params(6, 4.0)


@pytest.fixture(scope="session")
def grid_default():
    return nl.make_log_grid(1e-3, 1e3, 2048)


@pytest.fixture(scope="session")
def grid_1024():
    return nl.make_log_grid(1e-3, 1e3, 1024)


def cold_grid(r_min=1e-3, r_max=1e3, n=2048):
    """A grid with make_log_grid's nodes whose memo starts empty: a direct
    RadialGrid, not the grid that make_log_grid shares between calls."""
    nodes = np.exp(np.linspace(math.log(r_min), math.log(r_max), n))
    return nl.RadialGrid(r_min=r_min, r_max=r_max, nodes=nodes)


def bump_field(grid, center=0.0, width=1.0, amp=1.0):
    """Smooth compactly-concentrated test field (Gaussian bump in log r)."""
    vals = amp * np.exp(-0.5 * ((grid.x - center) / width) ** 2)
    return nl.RadialField(grid=grid, values=vals, tail_exponent=np.inf,
                          head_value=float(vals[0]))


def unit_bubble(p, grid, lam=1.0, c=1.0):
    return nl.bubble(p, nl.BubbleParams(c=c, lam=lam), grid)


def dense_b(op):
    """The dense n x n matrix B of a SectorOperator, built from its factors
    diag(b_scale) T diag(b_scale) + diag(b_diag), T[i, j] = b_col[|i-j|]."""
    n = len(op.b_scale)
    B = sla.toeplitz(op.b_col)
    B *= np.outer(op.b_scale, op.b_scale)
    B[np.diag_indices(n)] += op.b_diag
    return B


def dense_a(op):
    """The dense n x n matrix A of a SectorOperator, from its upper band
    a_band[u + i - j, j] = A[i, j], i <= j, mirrored below the diagonal."""
    u, n = op.a_band.shape[0] - 1, op.a_band.shape[1]
    A = np.zeros((n, n))
    for d in range(u + 1):
        A[np.arange(n - d), np.arange(d, n)] = op.a_band[u - d, d:]
    return A + np.triu(A, 1).T


def src_env():
    """Environment for a child Python process that imports this nlsobolev."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(nl.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _degree_forms(N, alpha, j):
    """(E_j, E_0 rho_j, w, 2*_a) of the stereographic diagonalization derived
    in the spectrum module docstring: on degree-j harmonics the two forms of
    the pencil are a = E_j + w and b = E_0 rho_j + w."""
    ts = (2 * N - alpha) / (N - 2)
    a = (N - 2) / 2

    def E(i):
        return (i + a) * (i + a + 1)

    def rho(i):
        return math.exp(math.lgamma(i + alpha / 2) + math.lgamma(N - alpha / 2)
                        - math.lgamma(alpha / 2) - math.lgamma(i + N - alpha / 2))

    w = (E(1) - ts * E(0) * rho(1)) / (ts - 1)
    return E(j), E(0) * rho(j), w, ts


def closed_form_mu(N, alpha, j):
    """mu_j = (E_j + w) / (E_0 rho_j + w), the j-th eigenvalue of A v = mu B v."""
    e, b, w, _ = _degree_forms(N, alpha, j)
    return (e + w) / (b + w)


def closed_form_c_star(N, alpha):
    """Sharp local constant c* = 1 - 1/nu_2 of deficit/dist^2 near the
    manifold, with nu_j = E_j / (2*_a E_0 rho_j + (2*_a - 1) w) the eigenvalues
    of (A - M_W) v = nu (2*_a B - M_W) v (criterion 6 of the acceptance suite)."""
    e, b, w, ts = _degree_forms(N, alpha, 2)
    return 1.0 - (ts * b + (ts - 1) * w) / e
