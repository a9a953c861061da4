"""Discretization and solution of the weighted linearized eigenproblem
    A v = mu B v,
    a(v,v) = int |grad v|^2 + int W v^2,
    b(v,v) = int (|x|^{-alpha} * (U^{2*_a - 1} v)) U^{2*_a - 1} v + int W v^2,
with W = (|x|^{-alpha} * U^{2*_a}) U^{2*_a - 2}, per angular-momentum sector.

Both forms are assembled symmetric by construction: the Dirichlet part as
D^T Q D with the quadrature weights folded in, the nonlocal part from the
symmetric Toeplitz product-integration weights of the sector kernel.  A
Dirichlet condition at the outermost node removes constant-tail quasi-modes
that do not belong to the energy space.  LAPACK reduces the pencil to an
ordinary symmetric problem by factoring A (which is positive definite here);
factoring B instead, as one might first try, loses the low eigenvalues whenever
B's small-eigenvalue tail carries weight of the physical modes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg as sla

from ._quadrature import staggered_derivative_matrix
from .errors import IndefiniteOperatorError, ValidationError
from .grid import RadialGrid, field_abs_pow, make_log_grid
from .manifold import BubbleParams, bubble
from .params import Params, sphere_area
from .riesz import angular_kernel, riesz_potential

__all__ = ["SectorOperator", "SpectrumReport", "assemble_sector",
           "solve_generalized", "spectral_gap", "SECTOR_ELLS"]

SECTOR_ELLS = (0, 1, 2)
_MATCH_TOL = 1e-3      # identification tolerance against {1, 2*_alpha}


@dataclass(eq=False)
class SectorOperator:
    """Discretized quadratic forms of one angular-momentum sector."""
    ell: int
    A: np.ndarray
    B: np.ndarray
    grid: RadialGrid
    params: Params
    w_potential: np.ndarray = dc_field(repr=False, default=None)

    def __post_init__(self):
        for name, M in (("A", self.A), ("B", self.B)):
            scale = float(np.max(np.abs(M)))
            if float(np.max(np.abs(M - M.T))) > 1e-12 * scale:
                raise IndefiniteOperatorError(f"{name} is not symmetric to tolerance")


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
    if ell not in SECTOR_ELLS:
        raise ValidationError(f"supported sectors are {SECTOR_ELLS}, got ell={ell}")
    decades = math.log10(grid.r_max / grid.r_min)
    if grid.n / decades < 32:
        raise ValidationError("grid too coarse: need >= 32 nodes per decade")
    N, al, ts = p.N, p.alpha, p.two_star_alpha
    om = sphere_area(N)
    x = grid.x
    wl = grid.log_weights
    U = bubble(p, BubbleParams(c=1.0, lam=1.0), grid)
    potF = riesz_potential(field_abs_pow(U, ts), p, 0)
    W = potF.values * U.values ** (ts - 2.0)
    # Dirichlet form D^T Q D on the staggered grid (no spurious Nyquist modes)
    # plus centrifugal and potential terms
    D1 = staggered_derivative_matrix(grid.n, grid.h)
    x_mid = 0.5 * (x[:-1] + x[1:])
    q_mid = grid.h * np.exp((N - 2) * x_mid)
    A = om * (D1.T @ (q_mid[:, None] * D1))
    if ell > 0:
        qd = wl * np.exp((N - 2) * x)
        A += om * np.diag(ell * (ell + N - 2) * qd)
    MW = om * np.diag(wl * np.exp(N * x) * W)
    A = A + MW
    A = 0.5 * (A + A.T)
    # nonlocal form through the sector kernel's Toeplitz weights
    kern = angular_kernel(p, ell, grid)
    mvec = np.sqrt(wl) * np.exp((N - al / 2) * x) * U.values ** (ts - 1.0)
    kappa = om * kern.c_norm * 2.0 ** (-al / 2)
    B = kappa * (mvec[:, None] * kern.tables.toeplitz(grid.n) * mvec[None, :]) + MW
    B = 0.5 * (B + B.T)
    return SectorOperator(ell=ell, A=A, B=B, grid=grid, params=p, w_potential=W)


def solve_generalized(op: SectorOperator, k: int) -> SpectrumReport:
    """k smallest eigenvalues of A v = mu B v with B-normalized eigenvectors.

    B is validated positive semidefinite to tolerance; after a Dirichlet
    restriction at the outer node, LAPACK's subset solver (dsygvx) factors the
    positive-definite A and returns only the k largest 1/mu, so B's numerical
    kernel (far-field nodes where the weights underflow) is deflated
    implicitly: those modes land at 1/mu = 0.  k is clamped to the n - 1
    unknowns.  Each eigenvector's largest-magnitude entry is positive.
    """
    if k < 1:
        raise ValidationError(f"need k >= 1 eigenvalues, got k={k}")
    A = op.A[:-1, :-1]
    B = op.B[:-1, :-1]
    beig = np.linalg.eigvalsh(B)
    if beig[0] < -1e-10 * beig[-1]:
        raise IndefiniteOperatorError(
            f"B has a negative eigenvalue beyond tolerance: {beig[0]:.3e}")
    d = 1.0 / np.sqrt(np.diag(A))
    m = len(d)
    k = min(k, m)
    try:
        nu, Q = sla.eigh(d[:, None] * B * d[None, :], d[:, None] * A * d[None, :],
                         subset_by_index=[m - k, m - 1], driver="gvx")
    except np.linalg.LinAlgError as exc:
        raise IndefiniteOperatorError("A is not positive definite") from exc
    nu, Q = nu[::-1], Q[:, ::-1]
    k = int(np.sum(nu > 1e-13 * nu[0]))
    mu = 1.0 / nu[:k]
    vecs_in = d[:, None] * Q[:, :k]
    vecs_in *= np.sign(vecs_in[np.argmax(np.abs(vecs_in), axis=0), np.arange(k)])
    vecs = np.zeros((op.grid.n, k))
    vecs[:-1, :] = vecs_in
    # normalize in the B-form; reject grid-frequency (sawtooth) eigenvectors,
    # which would indicate a defective Dirichlet discretization
    for j in range(k):
        nrm = math.sqrt(abs(vecs_in[:, j] @ B @ vecs_in[:, j]))
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
    multiplicities.  For N = 3 the slowly decaying bubble tail makes a wider
    grid (say [1e-4, 1e4]) advisable; the default span costs ~1e-3 there.
    """
    if grid is None:
        grid = make_log_grid(1e-3, 1e3, 1024)
    merged: list[float] = []
    for ell in SECTOR_ELLS:
        rep = solve_generalized(assemble_sector(p, ell, grid), k)
        merged.extend(rep.eigenvalues)
    return _report(p, None, sorted(merged))
