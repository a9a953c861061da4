"""The nonlocal Sobolev deficit, Euler-Lagrange residual, and weak L^q norm."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._quadrature import derivative_matrix
from .errors import NumericsError, ValidationError
from .grid import RadialField, field_abs_pow, field_signed_pow, h1_inner
from .params import Params, hls_sobolev_constant, sphere_area
from .riesz import interaction_energy, riesz_potential

__all__ = ["DeficitReport", "hls_energy", "deficit", "el_residual", "weak_norm"]

_EDGE = 4   # nodes per end excluded from sup-norms (one-sided stencil rows)


@dataclass
class DeficitReport:
    """Energies and remainder data for one trial field; dist/ratio stay None
    until a manifold decomposition fills them."""
    grad_energy: float
    hls_energy: float
    deficit: float
    dist: float | None = None
    ratio: float | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def hls_energy(u: RadialField, p: Params) -> float:
    """D(u) = int (|x|^{-alpha} * |u|^{2*_a}) |u|^{2*_a} dx."""
    F = field_abs_pow(u, p.two_star_alpha)
    return interaction_energy(F, F, p)


def deficit(u: RadialField, p: Params) -> DeficitReport:
    """grad energy minus S_HLS * D(u)^{1/2*_a}; nonnegative on the energy space."""
    grad = h1_inner(u, u, 0, p.N)
    if grad <= 0.0:
        raise ValidationError("deficit of the zero field is undefined")
    dd = hls_energy(u, p)
    if not 0.0 <= dd < math.inf:
        raise NumericsError(f"interaction energy D(u) = {dd:.6g} is negative or not finite")
    s_hls = hls_sobolev_constant(p).s_hls
    return DeficitReport(grad_energy=grad, hls_energy=dd,
                         deficit=grad - s_hls * dd ** (1.0 / p.two_star_alpha))


def el_residual(u: RadialField, p: Params) -> float:
    """Relative sup-norm (interior nodes) of the Euler-Lagrange defect
    -Laplace(u) - (|x|^{-alpha} * |u|^{2*_a}) |u|^{2*_a - 2} u,
    normalized by the sup of the nonlinear term."""
    g = u.grid
    N, ts = p.N, p.two_star_alpha
    pot = riesz_potential(field_abs_pow(u, ts), p, 0)
    nonlin = pot.values * field_signed_pow(u, ts - 1.0).values
    with np.errstate(over="ignore", invalid="ignore"):   # r^{-2} may overflow
        D1, D2 = derivative_matrix(g.n, g.h, 1), derivative_matrix(g.n, g.h, 2)
        lap = (D2 @ u.values + (N - 2) * (D1 @ u.values)) * np.exp(-2 * g.x)
        resid = -lap - nonlin
    inner = slice(_EDGE, g.n - _EDGE)
    scale = float(np.max(np.abs(nonlin[inner])))
    if scale == 0.0:
        raise ValidationError("nonlinear term vanishes identically")
    res = float(np.max(np.abs(resid[inner]))) / scale
    if not math.isfinite(res):
        raise NumericsError(f"Euler-Lagrange residual is not finite ({res}) on this grid")
    return res


def weak_norm(u: RadialField, R: float, q: float) -> float:
    """Weak L^q norm sup_D int_D |u| / |D|^{(q-1)/q} over subsets of B_R.

    Valid for radial |u| nonincreasing on [0, R], where the supremum is
    attained on centered balls.  The exponent encodes the dimension through
    q = N/(N-2).  F(r) = int_{B_r} |u| is the trapezoid rule in log r, so the
    result is accurate to O(h^2).  On that model F / |B_r|^{1-1/q} is
    stationary where |u(r)| |B_r| = (1 - 1/q) F(r): beside the grid argmax,
    one secant step on that equation locates the root inside its cell, and
    the cell's exact trapezoid-model integral gives the value there.  A cell
    starting at a jump marker is not refined, since |u| drops across it.
    """
    if not (math.isfinite(R) and R > 0):
        raise ValidationError(f"R must be finite and positive, got {R}")
    if not (math.isfinite(q) and q > 1):
        raise ValidationError(f"weak norm needs a finite q > 1, got {q}")
    N = 2.0 * q / (q - 1.0)
    if abs(N - round(N)) > 1e-9:
        raise ValidationError(f"q={q} does not match an integer dimension via q = N/(N-2)")
    N = int(round(N))
    if N < 3:
        raise ValidationError(f"q={q} maps to dimension N={N} < 3")
    g = u.grid
    sel = g.nodes <= R * (1 + 1e-12)
    if not np.any(sel):
        raise ValidationError("grid lies entirely outside [0, R]")
    n_in = int(np.sum(sel))
    absu = np.abs(u.values[:n_in])
    drop_tol = 1e-12 * max(float(absu.max()), 1e-300)
    if np.any(np.diff(absu) > drop_tol):
        raise ValidationError("weak_norm requires |u| nonincreasing on [0, R]")
    om = sphere_area(N)
    # cumulative om * int_0^{r_j} |u| r^{N-1} dr, trapezoid per cell in log r
    integ = absu * np.exp(N * g.x[:n_in])
    cells = 0.5 * g.h * (integ[1:] + integ[:-1])
    cum = om * (np.concatenate([[0.0], np.cumsum(cells)])
                + abs(u.head_value) * g.nodes[0] ** N / N)
    vol = om / N * g.nodes[:n_in] ** N
    expo = (q - 1.0) / q
    gvals = cum / vol ** expo
    j = int(np.argmax(gvals))
    best = float(gvals[j])
    # dF/dx = f = om |u| r^N, so d log(F / |B_r|^expo)/dx has the sign of
    # H = f - N expo F; the sup sits where H falls from > 0 to <= 0
    f = om * integ
    H = f - N * expo * cum
    a = j if H[j] > 0 else j - 1
    if 0 <= a < n_in - 1 and H[a] > 0 >= H[a + 1] and a not in {b for b, _ in u.jumps}:
        d = g.h * H[a] / (H[a] - H[a + 1])
        F = cum[a] + d * f[a] + d * d * (f[a + 1] - f[a]) / (2 * g.h)
        best = max(best, F / (om / N * math.exp(N * (g.x[a] + d))) ** expo)
    return best
