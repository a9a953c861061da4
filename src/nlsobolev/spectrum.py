"""Discretization and solution of the weighted linearized eigenproblem
    A v = mu B v,
    a(v,v) = int |grad v|^2 + int W v^2,
    b(v,v) = int (|x|^{-alpha} * (U^{2*_a - 1} v)) U^{2*_a - 1} v + int W v^2,
with W = (|x|^{-alpha} * U^{2*_a}) U^{2*_a - 2} = -Laplace U / U = N(N-2)(1+r^2)^{-2}
(the bubble's Euler-Lagrange equation, for every alpha), per angular-momentum sector.

Both forms are symmetric by construction, with no averaging pass: the
Dirichlet part as G^T G, G = diag(sqrt(q)) D with the quadrature weights
folded in, assembled into the LAPACK upper band the Cholesky factor reads,
the nonlocal part as diag(m) kappa T diag(m) from the Toeplitz
product-integration weights T of the sector kernel, kept as T's first column,
so that B x is one FFT convolution and B is certified positive semidefinite
from T alone, by one FFT of a circulant that holds T, or where that is
inconclusive by an O(n^2) Schur recursion: no n x n array.
Beyond r_max a sector-ell mode is harmonic and decays like
(r/r_max)^{-(ell+N-2)}; its Dirichlet energy omega (ell+N-2) r_max^{N-2} v_n^2
on A's last diagonal entry is the exact Dirichlet-to-Neumann exterior
condition (Keller-Givoli 1989), so every node stays an unknown.  A, free of
alpha, is factored once per grid, N and ell as a band, A = U^T U (positive
definite here), and the solve runs standard-form Lanczos on U^{-T} B U^{-1}
for the largest 1/mu; factoring B instead loses the low eigenvalues whenever
B's small-eigenvalue tail carries weight of the physical modes.

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
from scipy.fft import irfft, next_fast_len, rfft

from ._quadrature import staggered_derivative_matrix
from .errors import IndefiniteOperatorError, NumericsError, ValidationError
from .grid import RadialGrid, _check_resolution, make_log_grid
from .manifold import BubbleParams, bubble
from .params import Params, _as_int, sphere_area
from .riesz import KernelProfile, _check_ells, _moment_tables, _toeplitz_weights

__all__ = ["SectorOperator", "SpectrumReport", "assemble_sector", "assemble_sectors",
           "merge_sectors", "solve_generalized", "solve_sectors", "spectral_gap",
           "SECTOR_ELLS"]

SECTOR_ELLS = (0, 1, 2)   # the sectors spectral_gap merges; ell >= 3 cannot carry the gap
_MATCH_TOL = 1e-3      # identification tolerance against {1, 2*_alpha}
# Lanczos passed the Ritz test for k pairs after 2k + 12 to 2k + 22 steps at
# k = 8 and 30 (N = 3..12, 64 to 4096 nodes), and after 2k - 7 to 2k + 2 at
# k = 100.  A test costs about 2/3 of a step per sector, so a sector takes it at
# every other step from step 2k + 12 on, and gives up after 4k + 64 steps, over
# twice the most it took, unless the n steps that span R^n come first.
_CHECK_EVERY = 2
_STEP_CAP = (4, 64)


@dataclass(eq=False)
class SectorOperator:
    """Discretized quadratic forms of one angular-momentum sector: A as its
    LAPACK upper band, a_band[7 + i - j, j] = A[i, j] for i <= j, B by its factors

        B = diag(b_scale) T diag(b_scale) + diag(b_diag),
        T[i, j] = b_col[|i - j|],

    so that T and B are symmetric by construction; the factors must be finite,
    a_band of shape (8, n) and the others of length n.  `apply_b` multiplies
    by B with one FFT convolution (`_b_products`); B is never materialized.
    `solve_sectors` takes A's factor from _a_chol = (band, factor) while a_band is band."""
    ell: int
    a_band: np.ndarray
    b_scale: np.ndarray
    b_col: np.ndarray
    b_diag: np.ndarray
    params: Params
    _a_chol: tuple = dc_field(default=(None, None), repr=False)
    _lags_hat: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self):
        n = np.size(self.b_scale)
        for name in ("a_band", "b_scale", "b_col", "b_diag"):
            a, shape = getattr(self, name), (8, n) if name == "a_band" else (n,)
            if np.shape(a) != shape:
                raise ValidationError(f"sector form {name} has shape {np.shape(a)}, not {shape}")
            if not np.all(np.isfinite(a)):
                raise NumericsError(f"sector form {name} has non-finite entries")
        self._lags_hat = rfft(np.concatenate((self.b_col[:0:-1], self.b_col)),
                              2 * next_fast_len(n, True))

    def apply_b(self, x: np.ndarray) -> np.ndarray:
        """B x for a vector x: the one-row case of `_b_products`."""
        return _b_products(self.b_scale, self._lags_hat, self.b_diag, x)


def _b_products(scale, lags_hat, diag, X: np.ndarray) -> np.ndarray:
    """B X row by row, each row of X against its own sector's factors (rows of
    scale, lags_hat and diag, or one row for all): one batched real FFT of
    length L = 2 (len(lags_hat) - 1) >= 2n convolves every row with its T's
    lags -(n-1)..(n-1), as `riesz._lag_convolve` does one."""
    n, L = X.shape[-1], 2 * lags_hat.shape[-1] - 2
    return scale * irfft(rfft(scale * X, L) * lags_hat, L)[..., n - 1:2 * n - 1] + diag * X


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


def assemble_sector(p: Params, ell: int, grid: RadialGrid) -> SectorOperator:
    """Build the symmetric (A, B) pair for sector ell on the given grid."""
    return assemble_sectors(p, (ell,), grid)[0]


def assemble_sectors(p: Params, ells, grid: RadialGrid) -> list[SectorOperator]:
    """The symmetric (A, B) pairs of the sectors ells on the given grid, in request
    order, once the grid's resolution and the ells (0..MAX_ELL) pass their checks.
    A does not involve alpha: `_sector_a` memoizes it on the grid.  B's scaling m
    comes from the bubble, its Toeplitz column (kappa included) from the sector
    kernel's weights at lags 0..n-1, formed as `AngularKernel` forms them but from
    moment tables over only the n + 2 cells those lags read, all sectors from one
    profile evaluation, with no kernel built or cached.  On extreme grids the forms
    overflow to inf, which SectorOperator rejects with a NumericsError."""
    _check_resolution(grid)
    ells = _check_ells(ells)
    N, al, ts, n, om = p.N, p.alpha, p.two_star_alpha, grid.n, sphere_area(p.N)
    moments = _moment_tables(KernelProfile(N, al, ells), grid.h, n + 2)
    U = bubble(p, BubbleParams(c=1.0, lam=1.0), grid)
    with np.errstate(over="ignore", invalid="ignore"):   # rejected by SectorOperator
        mvec = np.sqrt(grid.log_weights) * np.exp((N - al / 2) * grid.x) * U.values ** (ts - 1.0)
    ops = []
    for ell, P in zip(ells, moments):
        (band, factor, mw), (w, half) = _sector_a(N, ell, grid), _toeplitz_weights(P, grid.h)
        ops.append(SectorOperator(ell=ell, a_band=band, b_scale=mvec, b_col=w[half:half + n] * om,
                                  b_diag=mw, params=p, _a_chol=(band, factor)))
    return ops


def _sector_a(N: int, ell: int, grid: RadialGrid) -> tuple:
    """Sector ell's A as its upper band, its banded Cholesky factor (None if that
    fails, for `solve_sectors` to report) and W's mass weights, memoized on the grid
    per (N, ell) over the upper band of om G^T G, G = diag(sqrt(q)) D staggered, and
    W = N(N-2)(1+r^2)^{-2}'s mass weights, memoized per N; A adds the centrifugal
    diagonal and, on the last node, the exact exterior energy."""
    n, x, om = grid.n, grid.x, sphere_area(N)
    def parts():
        W = N * (N - 2) / (1.0 + grid.nodes ** 2) ** 2
        rows, j0 = staggered_derivative_matrix(n, grid.h)   # g: G's rows, q on the midpoints
        g = np.sqrt(grid.h * np.exp((N - 2) * (0.5 * (x[:-1] + x[1:]))))[:, None] * rows
        a, b = np.triu_indices(8)
        # G[k, j0 + a] G[k, j0 + b] into band[7 + a - b, j0 + b]; bincount adds
        # in input order, so each entry sums over ascending k, as G^T G would
        dirichlet = om * np.bincount(((7 + a - b) * n + j0[:, None] + b).ravel(),
                                     (g[:, a] * g[:, b]).ravel(), 8 * n).reshape(8, n)
        return dirichlet, om * (grid.log_weights * np.exp(N * x) * W)
    def build():
        dirichlet, mw = grid.memo(("sector_a_parts", N), parts)
        diag = om * ell * (ell + N - 2) * grid.dirichlet_weights(N) + mw
        diag[-1] += om * (ell + N - 2) * np.float64(grid.r_max) ** (N - 2)
        band = np.vstack((dirichlet[:-1], dirichlet[-1] + diag))
        try:
            return band, sla.cholesky_banded(band, check_finite=False), mw
        except np.linalg.LinAlgError:
            return band, None, mw
    with np.errstate(over="ignore", invalid="ignore"):   # rejected by SectorOperator
        return grid.memo(("sector_a", N, ell), build)


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


def _circulant_embedding(col: np.ndarray) -> np.ndarray:
    """First column of a symmetric circulant of fast length L ~ 6n whose
    leading block is the Toeplitz matrix with first column col: the free lags
    n..L/2 continue col[-1] geometrically (ratio col[-1]/col[-2] clamped to
    [0, 1]) under a raised cosine that falls from 1 at lag n-1 to 0 at L/2."""
    n = len(col)
    L = next_fast_len(6 * n, True)
    half = L // 2
    c, d = abs(col[-1]), abs(col[-2])
    ratio = min(c, d) / d if col[-1] * col[-2] > 0 else 0.0
    k = np.arange(1, half - n + 2)                   # lag n - 1 + k
    taper = 0.5 + 0.5 * np.cos(np.pi * k / (half - n + 1))
    h = np.concatenate((col, col[-1] * ratio ** k * taper))
    return np.concatenate((h, h[1:L - half][::-1]))


def _circulant_psd(col: np.ndarray) -> bool:
    """A sufficient test that the Toeplitz matrix T with first column col is
    positive semidefinite: T is a principal submatrix of the circulant
    `_circulant_embedding(col)`, whose eigenvalues are one real FFT, and the
    test passes when the smallest clears that FFT's rounding bound
    8 eps log2(L) sum |g_k| (Dembo, Mallows and Shepp, IEEE Trans. Inf.
    Theory 35 (1989); Dietrich and Newsam, SIAM J. Sci. Comput. 18 (1997))."""
    g = _circulant_embedding(col)
    bound = 8 * np.finfo(float).eps * math.log2(len(g)) * np.abs(g).sum()
    return bool(rfft(g).real.min() >= bound)


def _psd_to_tolerance(op: SectorOperator) -> None:
    """Raise unless B's smallest eigenvalue is at least -1e-10 times its largest
    diagonal entry lambda_lo, a Rayleigh quotient of B, so at most lambda_max.

    A sufficient test on the Toeplitz factor T, first column b_col, with
    m = b_scale: if T + delta I is positive semidefinite, B >= (-delta max m^2
    + min(b_diag, 0)) I = -1e-10 lambda_lo I for delta = (1e-10 lambda_lo +
    min(b_diag, 0)) / max m^2.  So B passes when delta >= 0 and T + delta I is
    certified: first by one FFT of a circulant that holds it (`_circulant_psd`,
    sufficient only), and where that is inconclusive by the Schur algorithm,
    which factors T + delta I exactly when it is positive definite.  Up to
    their rounding, of order n eps ||T||, neither test passes a B below the
    bound; they may reject one whose indefinite T the scaling m masks."""
    col = op.b_col.copy()
    m2 = op.b_scale ** 2
    floor = -1e-10 * np.max(m2 * col[0] + op.b_diag)
    delta = (min(op.b_diag.min(), 0.0) - floor) / np.max(m2)
    col[0] += delta
    if not (delta >= 0 and (_circulant_psd(col) or _toeplitz_pd(col))):
        raise IndefiniteOperatorError("B is not certified positive semidefinite to "
                                      f"-1e-10 * largest diagonal entry = {floor:.3e}")


def solve_generalized(op: SectorOperator, k: int) -> SpectrumReport:
    """k smallest eigenvalues of A v = mu B v with B-normalized eigenvectors:
    `solve_sectors` on the one sector op."""
    return solve_sectors([op], k)[0]


def solve_sectors(ops: list[SectorOperator], k: int) -> list[SpectrumReport]:
    """The k smallest eigenvalues of A v = mu B v, with B-normalized
    eigenvectors, of each sector of ops (all on one grid), in order.

    B is certified positive semidefinite to tolerance (`_psd_to_tolerance`)
    and acts only by FFT products; no n x n array is formed.  A = U^T U is
    factored as a band, unless the operator carries its a_band's factor
    (`_sector_a` memoizes it on the grid).  Lanczos with full
    reorthogonalization (Paige 1972; Parlett 1980) finds the k largest
    nu = 1/mu of C = U^{-T} B U^{-1}, all sectors in lockstep: a step makes
    one batched FFT product with B (`_b_products`), two banded triangular
    solves per sector and two classical Gram-Schmidt passes.  A sector stops
    once its k Ritz pairs pass ARPACK's tol = 0 test,
    beta |s_i| <= eps max(eps^(2/3), |theta_i|), so its steps and digits do
    not depend on the other sectors.  It also stops when the second pass cuts
    the residual below 0.717 of the first, to rounding ("twice is enough"):
    its Krylov space is then invariant and holds every simple eigenvalue,
    exactly.  n steps span R^n, so k is clamped to n.  An eigenvector y of C
    gives v = U^{-1} y / sqrt(nu), with v^T B v = 1.  B's numerical kernel
    (far-field nodes where the weights underflow) lands at nu = 0 and is cut
    at 1e-13 nu_max.  Each eigenvector's largest-magnitude entry is positive."""
    if _as_int("k", k) < 1:
        raise ValidationError(f"need k >= 1 eigenvalues, got k={k}")
    if len({op.a_band.shape[1] for op in ops}) != 1:
        raise ValidationError("solve_sectors needs one or more sectors on one grid")
    cbs, n, s = [], ops[0].a_band.shape[1], len(ops)
    for op in ops:
        _psd_to_tolerance(op)
        band, cb = op._a_chol
        try:
            cbs.append(cb if band is op.a_band and cb is not None
                       else sla.cholesky_banded(op.a_band, check_finite=False))
        except np.linalg.LinAlgError as exc:
            raise IndefiniteOperatorError("A is not positive definite") from exc
    k, tbtrs, eps = min(k, n), sla.lapack.dtbtrs, np.finfo(float).eps
    cap = min(n, _STEP_CAP[0] * k + _STEP_CAP[1])
    act, ritz = list(range(s)), [None] * s
    Q = np.empty((s, min(cap, 2 * k + 24), n))    # the Lanczos basis by rows, doubled when full
    # a fixed start vector keeps the output digits the same from call to call
    Q[:, 0] = np.random.default_rng(0).standard_normal(n)
    Q[:, 0] /= np.linalg.norm(Q[:, 0], axis=1)[:, None]
    alphas, betas = np.zeros((s, cap)), np.zeros((s, cap))
    scale, diag, lags_hat = (np.array([getattr(op, f) for op in ops])
                             for f in ("b_scale", "b_diag", "_lags_hat"))
    for j in range(cap):
        W = Q[:, j].copy()
        for r, i in enumerate(act):
            tbtrs(cbs[i], W[r], overwrite_b=True)               # U x = y
        W = _b_products(scale, lags_hat, diag, W)
        for r, i in enumerate(act):
            tbtrs(cbs[i], W[r], trans="T", overwrite_b=True)    # U^T x = y
        Qj, norms = Q[:, :j + 1], []
        for _ in range(2):
            h = Qj @ W[:, :, None]
            W -= (h.transpose(0, 2, 1) @ Qj)[:, 0]
            alphas[:, j] += h[:, j, 0]
            norms.append(np.linalg.norm(W, axis=1))
        # beta = 0: an invariant subspace, where the second pass leaves rounding
        betas[:, j] = np.where(norms[1] > 0.717 * norms[0], norms[1], 0.0)
        due = j + 1 == n or (j + 1 >= 2 * k + 12 and (j + 1) % _CHECK_EVERY == 0)
        done = []
        for r in np.flatnonzero((betas[:, j] == 0) | due):
            theta, S, info = sla.lapack.dstevd(alphas[r, :j + 1], betas[r, :max(j, 1)])
            if info:
                raise NumericsError(f"the Lanczos tridiagonal eigensolve failed (info={info})")
            bound = betas[r, j] * np.abs(S[-1, -k:])
            if j + 1 == n or np.all(bound <= eps * np.maximum(eps ** (2 / 3), np.abs(theta[-k:]))):
                ritz[act[r]] = theta[:-k - 1:-1], Qj[r].T @ S[:, :-k - 1:-1]
                done.append(r)
        if done:
            live = [r for r in range(len(act)) if r not in done]
            act = [act[r] for r in live]
            Q, W, alphas, betas, scale, diag, lags_hat = (
                a[live] for a in (Q, W, alphas, betas, scale, diag, lags_hat))
        if not act:
            break
        if j + 1 < cap:
            if j + 1 == Q.shape[1]:
                Q = np.concatenate((Q, np.empty((len(act), min(cap, 2 * j + 2) - j - 1, n))), 1)
            Q[:, j + 1] = W / betas[:, j, None]
    if act:
        raise NumericsError(f"Lanczos did not converge for k={k} in {cap} steps")
    reports = []
    for op, cb, (nu, Y) in zip(ops, cbs, ritz):
        keep = nu > 1e-13 * nu[0]
        nu, k = nu[keep], int(keep.sum())
        vecs = tbtrs(cb, Y[:, keep])[0] / np.sqrt(nu)
        vecs *= np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(k)])
        # a grid-frequency (sawtooth) eigenvector means a defective Dirichlet stencil
        rough = np.linalg.norm(np.diff(vecs, 2, axis=0), axis=0) / np.linalg.norm(vecs, axis=0)
        if np.any(rough > 1.0):
            j = int(np.argmax(rough > 1.0))
            raise IndefiniteOperatorError(
                f"eigenvector {j} oscillates at the grid scale (mu={1.0 / nu[j]:.6g})")
        reports.append(_report(op.params, op.ell, 1.0 / nu, vecs))
    return reports


def spectral_gap(p: Params, grid: RadialGrid | None = None, k: int = 10) -> SpectrumReport:
    """Merge sectors ell in {0, 1, 2} and locate the gap above 2*_alpha.

    Sectors ell >= 3 are omitted: their lowest eigenvalues lie strictly above
    the ell = 2 ones (larger centrifugal barrier), so they cannot carry the
    gap.  Eigenvalues are listed once per sector, without the angular
    multiplicities.  The default grid serves every N: its worst error,
    sector 0 at N = 3, is 5.9e-5 relative.  The sectors are assembled
    together (`assemble_sectors`) and solved together (`solve_sectors`).
    """
    if grid is None:
        grid = make_log_grid(1e-3, 1e3, 1024)
    return merge_sectors(p, solve_sectors(assemble_sectors(p, SECTOR_ELLS, grid), k))


def merge_sectors(p: Params, reports: list[SpectrumReport]) -> SpectrumReport:
    """One report (ell = None) over the eigenvalues of the given sector reports."""
    return _report(p, None, sorted(mu for rep in reports for mu in rep.eigenvalues))
