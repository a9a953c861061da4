"""Discretization and solution of the weighted linearized eigenproblem
    A v = mu B v,
    a(v,v) = int |grad v|^2 + int W v^2,
    b(v,v) = int (|x|^{-alpha} * (U^{2*_a - 1} v)) U^{2*_a - 1} v + int W v^2,
with W = (|x|^{-alpha} * U^{2*_a}) U^{2*_a - 2}, per angular-momentum sector.

Both forms are symmetric by construction, with no averaging pass: the
Dirichlet part as G^T G, G = diag(sqrt(q)) D with the quadrature weights
folded in (a sparse band), the nonlocal part as diag(m) kappa T diag(m) from
the Toeplitz product-integration weights T of the sector kernel, kept as
their exactly palindromic lag table, so that B x is one FFT convolution and
B is certified positive semidefinite from T alone by an O(n^2) Schur
recursion: no n x n array is ever formed.
Beyond r_max a sector-ell mode is harmonic and decays like
(r/r_max)^{-(ell+N-2)}; its Dirichlet energy omega (ell+N-2) r_max^{N-2} v_n^2
on A's last diagonal entry is the exact Dirichlet-to-Neumann exterior
condition (Keller-Givoli 1989), so every node stays an unknown.  The solve
factors A (positive definite here) once as a band and runs Lanczos for the
largest 1/mu; factoring B instead, as one might first try, loses the low
eigenvalues whenever B's small-eigenvalue tail carries weight of the
physical modes.

Closed form.  Stereographic projection onto S^N diagonalizes the pencil.
Let J(x) = (2/(1+|x|^2))^N be its Jacobian, xi the image of x, and write
v(x) = J(x)^{(N-2)/(2N)} phi(xi).  Then:

- int |grad v|^2 dx = int_{S^N} phi P phi for the conformal Laplacian
  P = -Laplace_{S^N} + N(N-2)/4, which acts on degree-j spherical harmonics
  by E_j = (j+a)(j+a+1), a = (N-2)/2;
- U is a multiple of J^{(N-2)/(2N)} (phi constant), so U^{2*_a-1} v is a
  multiple of J^{(2N-alpha)/(2N)} phi; with |x-y| = |xi-eta|
  (J(x)J(y))^{-1/(2N)} the nonlocal form becomes
  int int phi(xi) |xi-eta|^{-alpha} phi(eta), which by Funk-Hecke acts on
  degree-j harmonics by R_j, a multiple of Gamma(j+alpha/2)/Gamma(j+N-alpha/2);
- |x|^{-alpha} * U^{2*_a} is a multiple of J^{alpha/(2N)}, so W is a
  multiple of J^{2/N}, the conformal weight, and int W v^2 dx is a constant
  w times int_{S^N} phi^2.

On degree j, then, a = E_j + w and b = kappa R_j + w in common units.  The
bubble (j = 0, mu = 1) fixes kappa R_0 = E_0 and the translations (j = 1,
mu = 2*_a) fix w:

    mu_j = (E_j + w) / (E_0 rho_j + w),
    rho_j = R_j / R_0 = Gamma(j+alpha/2) Gamma(N-alpha/2)
                        / (Gamma(alpha/2) Gamma(j+N-alpha/2)),
    w = (E_1 - 2*_a E_0 rho_1) / (2*_a - 1).

The degree-j harmonics of S^N hold one radial mode of angular momentum ell
for each j >= ell, so the k-th eigenvalue (k = 0, 1, ...) of sector ell is
mu_{k+ell}.  On [1e-3, 1e3] at n = 1024 the discrete spectra match this to
~1e-7 relative, except sector 0 at low N: 1.2e-6 at N = 4 and 5.9e-5 at
N = 3, where the error is ~4.3 h / r_max (first order in the discrete end
condition; the bubble's quotient a(U,U)/b(U,U) is 1 to 1e-8).  The radial
eigenfunction of mu_2, J^{(N-2)/(2N)} C_2^{((N-1)/2)}(xi_{N+1}), is the ratio
sweep's "eigen-gap" direction (`experiments`), taken in this closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import rfft

from ._quadrature import staggered_derivative_matrix
from .errors import IndefiniteOperatorError, NumericsError, ValidationError
from .grid import RadialGrid, field_abs_pow, make_log_grid
from .manifold import BubbleParams, bubble
from .params import Params, _as_int, sphere_area
from .riesz import (_fft_len, _lag_convolve, angular_kernel, angular_kernels,
                    riesz_potential)

__all__ = ["SectorOperator", "SpectrumReport", "assemble_sector",
           "solve_generalized", "spectral_gap", "SECTOR_ELLS"]

SECTOR_ELLS = (0, 1, 2)
_MATCH_TOL = 1e-3      # identification tolerance against {1, 2*_alpha}


@dataclass(eq=False)
class SectorOperator:
    """Discretized quadratic forms of one angular-momentum sector: A as a
    sparse band, B by its factors

        B = diag(b_scale) T diag(b_scale) + diag(b_diag),
        T[i, j] = b_lags[n - 1 + i - j],

    with b_lags, over lags -(n-1)..(n-1), exactly palindromic, so that T and
    B are exactly symmetric.  `apply_b` multiplies by B with one FFT
    convolution; B is never materialized."""
    ell: int
    A: sp.csr_array
    b_scale: np.ndarray
    b_lags: np.ndarray
    b_diag: np.ndarray
    grid: RadialGrid
    params: Params
    w_potential: np.ndarray = dc_field(repr=False, default=None)
    _b_lags_hat: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self):
        for name, a in (("A", self.A.data), ("b_scale", self.b_scale),
                        ("b_lags", self.b_lags), ("b_diag", self.b_diag)):
            if not np.all(np.isfinite(a)):
                raise NumericsError(f"sector form {name} has non-finite entries")
        if abs(self.A - self.A.T).max() > 1e-12 * abs(self.A).max():
            raise IndefiniteOperatorError("A is not symmetric to tolerance")
        if not np.array_equal(self.b_lags, self.b_lags[::-1]):
            raise IndefiniteOperatorError("B is not symmetric: b_lags is not palindromic")
        n = len(self.b_scale)
        self._b_lags_hat = rfft(self.b_lags, _fft_len(n, len(self.b_lags), n - 1))

    def apply_b(self, x: np.ndarray) -> np.ndarray:
        """B x for a vector x, by one FFT convolution with the lag table."""
        m = self.b_scale
        return m * _lag_convolve(m * x, self.b_lags, len(m) - 1, self._b_lags_hat) \
            + self.b_diag * x


@dataclass(eq=False)
class SpectrumReport:
    """Sorted eigenvalues of one sector (or merged sectors for ell = None),
    the gap above the degenerate eigenvalue, and the count inside (1, 2*_a).

    `b1_candidate` is 2(mu_gap - 2*_a), the lower constant the ratio-bracket
    acceptance criterion was first written with.  It is reported unchanged
    for comparison, not as a remainder constant: whenever it exceeds 1 it
    lies above the upper bound on deficit/dist^2 (8/3 at (N, alpha) = (6, 4)).
    The sharp local constant near the manifold is 1 - 1/nu_gap, with nu_gap
    the first eigenvalue above 1 of -Laplace v = nu [(2*_a - 1) W + 2*_a K] v
    (0.52 at (6, 4)); see criterion 6 of the acceptance suite."""
    ell: int | None
    eigenvalues: list[float]
    mu_gap: float | None
    k_count: int
    b1_candidate: float | None
    eigenvectors: np.ndarray | None = dc_field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        return {"ell": self.ell, "eigenvalues": list(self.eigenvalues),
                "mu_gap": self.mu_gap, "k_count": self.k_count,
                "b1_candidate": self.b1_candidate}


def _report(p: Params, ell: int | None, mu, vecs=None) -> SpectrumReport:
    """Report ascending eigenvalues mu: the first one above 2*_a (mu_gap) and
    the count inside (1, 2*_a), both up to the identification tolerance."""
    ts = p.two_star_alpha
    mu = [float(m) for m in mu]
    gap = next((m for m in mu if m > ts + _MATCH_TOL), None)
    kc = sum(1.0 + _MATCH_TOL < m < ts - _MATCH_TOL for m in mu)
    return SpectrumReport(ell=ell, eigenvalues=mu, mu_gap=gap, k_count=kc,
                          b1_candidate=None if gap is None else 2.0 * (gap - ts),
                          eigenvectors=vecs)


def _check_resolution(grid: RadialGrid) -> None:
    if grid.n / math.log10(grid.r_max / grid.r_min) < 32:
        raise ValidationError("grid too coarse: need >= 32 nodes per decade")


def _sector_common(p: Params, grid: RadialGrid) -> tuple:
    """The ell-independent part of every sector's forms: the Dirichlet form
    om G^T G, G = diag(sqrt(q)) D on the staggered grid (no spurious Nyquist
    modes), 7 diagonals on each side; the potential W and its mass weights;
    the nonlocal scaling m; and the centrifugal weights.  On extreme grids
    these overflow to inf, which SectorOperator rejects with a NumericsError."""
    N, al, ts = p.N, p.alpha, p.two_star_alpha
    om = sphere_area(N)
    x = grid.x
    wl = grid.log_weights
    U = bubble(p, BubbleParams(c=1.0, lam=1.0), grid)
    potF = riesz_potential(field_abs_pow(U, ts), p, 0)
    W = potF.values * U.values ** (ts - 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        x_mid = 0.5 * (x[:-1] + x[1:])
        q_mid = grid.h * np.exp((N - 2) * x_mid)
        G = sp.diags_array(np.sqrt(q_mid)) @ staggered_derivative_matrix(grid.n, grid.h)
        dirichlet = om * (G.T @ G)
        mw = om * (wl * np.exp(N * x) * W)
        centrifugal = wl * np.exp((N - 2) * x)
        mvec = np.sqrt(wl) * np.exp((N - al / 2) * x) * U.values ** (ts - 1.0)
    return dirichlet, W, mw, centrifugal, mvec


def assemble_sector(p: Params, ell: int, grid: RadialGrid) -> SectorOperator:
    """Build the symmetric (A, B) pair for sector ell on the given grid."""
    ell = _as_int("ell", ell)
    if ell not in SECTOR_ELLS:
        raise ValidationError(f"supported sectors are {SECTOR_ELLS}, got ell={ell}")
    _check_resolution(grid)
    return _assemble(p, ell, grid, _sector_common(p, grid))


def _assemble(p: Params, ell: int, grid: RadialGrid, common: tuple) -> SectorOperator:
    """assemble_sector from the ell-independent part `_sector_common`: A adds
    the diagonal centrifugal term and, on the last node, the exact energy of
    the decaying harmonic extension v_n (r/r_max)^{-(ell+N-2)} beyond r_max."""
    dirichlet, W, mw, centrifugal, mvec = common
    N, al = p.N, p.alpha
    om = sphere_area(N)
    with np.errstate(over="ignore", invalid="ignore"):   # rejected by SectorOperator
        diag = om * ell * (ell + N - 2) * centrifugal + mw
        diag[-1] += om * (ell + N - 2) * np.float64(grid.r_max) ** (N - 2)
        A = dirichlet + sp.diags_array(diag)
    # nonlocal form diag(m) kappa T diag(m) + M_W from the sector kernel's
    # Toeplitz weights, kept as the lags -(n-1)..(n-1) of its palindromic table
    kern = angular_kernel(p, ell, grid)
    half = kern.tables.half
    lags = kern.tables.weights[half - grid.n + 1:half + grid.n] \
        * (om * kern.c_norm * 2.0 ** (-al / 2))
    return SectorOperator(ell=ell, A=A, b_scale=mvec, b_lags=lags, b_diag=mw,
                          grid=grid, params=p, w_potential=W)


def _toeplitz_pd(col: np.ndarray) -> bool:
    """Whether the symmetric Toeplitz matrix with first column col is positive
    definite: the Schur algorithm, the O(n^2) Cholesky of a Toeplitz matrix,
    runs without breakdown (every pivot positive, every reflection coefficient
    inside (-1, 1)).  It propagates the generators u, v of T - Z T Z^T in the
    mixed form of Bojanczyk, Brent, de Hoog and Sweet (SIAM J. Matrix Anal.
    Appl. 16 (1995)), stable for positive definite T; u is kept shifted so
    that step k reads u[:n-k] against v[k:], both updated in place by BLAS."""
    daxpy, dscal = sla.blas.daxpy, sla.blas.dscal
    n = len(col)
    u, v = col.copy(), col.copy()
    v[0] = 0.0
    for k in range(1, n):
        U, V = u[:n - k], v[k:]
        if not U[0] > 0:
            return False
        rho = V[0] / U[0]
        if not abs(rho) < 1.0:
            return False
        daxpy(U, V, a=-rho)             # v <- v - rho u, then
        dscal(1.0 - rho * rho, U)       # u <- (1 - rho^2) u - rho v
        daxpy(V, U, a=-rho)             # with the new v
    return bool(u[0] > 0)


def _psd_to_tolerance(op: SectorOperator, v0: np.ndarray) -> None:
    """Raise unless B's smallest eigenvalue is at least -1e-10 times its largest.

    A sufficient test on the Toeplitz factor T, with m = b_scale: if
    T + delta I is positive semidefinite, B - (-delta max m^2 + min(b_diag, 0)) I
    is too, and that bound is -1e-10 lambda_max for
    delta = (1e-10 lambda_max + min(b_diag, 0)) / max m^2.  So B passes when
    this delta is nonnegative and the Schur algorithm factors T + delta I;
    lambda_max comes from FFT matvecs.  Up to the Schur algorithm's backward
    error, of order n eps ||T||, the test never passes a B below the bound;
    it may reject one whose indefinite T the scaling m masks."""
    n = len(v0)
    b_op = spla.LinearOperator((n, n), matvec=op.apply_b, dtype=float)
    lam_max = spla.eigsh(b_op, k=1, which="LA", v0=v0, return_eigenvectors=False)[0]
    floor = -1e-10 * lam_max
    delta = (min(op.b_diag.min(), 0.0) - floor) / np.max(op.b_scale ** 2)
    col = op.b_lags[n - 1:].copy()
    col[0] += delta
    if not (delta >= 0 and _toeplitz_pd(col)):
        raise IndefiniteOperatorError(
            f"B is not certified positive semidefinite to -1e-10 * max = {floor:.3e}")


def solve_generalized(op: SectorOperator, k: int) -> SpectrumReport:
    """k smallest eigenvalues of A v = mu B v with B-normalized eigenvectors.

    B is certified positive semidefinite to tolerance from its Toeplitz
    factor (`_psd_to_tolerance`) and acts only by FFT matvecs
    (`SectorOperator.apply_b`); no n x n array is formed.  On all n nodes, after
    the diagonal scaling d = diag(A)^{-1/2}, implicitly restarted Lanczos
    (ARPACK, generalized mode 2) finds the k largest nu = 1/mu of
    dBd x = nu dAd x, with dBd applied as y -> d o B(d o y) and the banded
    Cholesky factor of dAd as the inverse of the mass form.  Without
    the scaling ARPACK's A-norm tolerance would leave the inner nodes
    unpinned.  B's numerical kernel (far-field nodes where the weights
    underflow) lands at nu = 0 and is cut at 1e-13 nu_max.  k is clamped to
    n - 1, ARPACK's limit.  Each eigenvector's largest-magnitude entry is
    positive.
    """
    if _as_int("k", k) < 1:
        raise ValidationError(f"need k >= 1 eigenvalues, got k={k}")
    A = op.A
    m = A.shape[0]
    # a fixed start vector keeps the Krylov spaces, hence the output digits,
    # the same from call to call
    v0 = np.random.default_rng(0).standard_normal(m)
    _psd_to_tolerance(op, v0)
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise IndefiniteOperatorError("A is not positive definite")
    d = 1.0 / np.sqrt(diag)
    dA = sp.diags_array(d) @ A @ sp.diags_array(d)
    # upper banded storage: ab[u - o, o:] holds the o-th superdiagonal
    coo = dA.tocoo()
    u = int(np.max(coo.col - coo.row))
    ab = np.zeros((u + 1, m))
    for o in range(u + 1):
        ab[u - o, o:] = dA.diagonal(o)
    try:
        cb = sla.cholesky_banded(ab, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteOperatorError("A is not positive definite") from exc
    minv = spla.LinearOperator(
        (m, m), dtype=float,
        matvec=lambda y: sla.cho_solve_banded((cb, False), y, check_finite=False))
    dBd = spla.LinearOperator((m, m), dtype=float, matvec=lambda y: d * op.apply_b(d * y))
    k = min(k, m - 1)
    try:
        nu, Q = spla.eigsh(dBd, k, M=dA, Minv=minv, which="LA", tol=0, v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise NumericsError(f"Lanczos did not converge for k={k}: {exc}") from exc
    order = np.argsort(nu)[::-1]
    nu, Q = nu[order], Q[:, order]
    k = int(np.sum(nu > 1e-13 * nu[0]))
    mu = 1.0 / nu[:k]
    vecs = d[:, None] * Q[:, :k]
    vecs *= np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(k)])
    # normalize in the B-form; reject grid-frequency (sawtooth) eigenvectors,
    # which would indicate a defective Dirichlet discretization
    for j in range(k):
        nrm = math.sqrt(abs(vecs[:, j] @ op.apply_b(vecs[:, j])))
        if nrm > 0:
            vecs[:, j] /= nrm
        rough = np.linalg.norm(np.diff(vecs[:, j], 2)) / max(np.linalg.norm(vecs[:, j]), 1e-300)
        if rough > 1.0:
            raise IndefiniteOperatorError(
                f"eigenvector {j} oscillates at the grid scale (mu={mu[j]:.6g})")
    return _report(op.params, op.ell, mu, vecs)


def spectral_gap(p: Params, grid: RadialGrid | None = None, k: int = 10) -> SpectrumReport:
    """Merge sectors ell in {0, 1, 2} and locate the gap above 2*_alpha.

    Sectors ell >= 3 are omitted: their lowest eigenvalues lie strictly above
    the ell = 2 ones (larger centrifugal barrier), so they cannot carry the
    gap.  Eigenvalues are listed once per sector, without the angular
    multiplicities.  The default grid serves every N: its worst error,
    sector 0 at N = 3, is 5.9e-5 relative.  The three sector kernels not
    already cached are built together, from one profile evaluation, and the
    ell-independent part of the forms once, before the sectors are assembled.
    """
    if grid is None:
        grid = make_log_grid(1e-3, 1e3, 1024)
    _check_resolution(grid)   # before the kernel builds it would waste
    angular_kernels(p, SECTOR_ELLS, grid)
    common = _sector_common(p, grid)
    merged: list[float] = []
    for ell in SECTOR_ELLS:
        rep = solve_generalized(_assemble(p, ell, grid, common), k)
        merged.extend(rep.eigenvalues)
    return _report(p, None, sorted(merged))
