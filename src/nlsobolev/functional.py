"""The nonlocal Sobolev deficit, Euler-Lagrange residual, and weak L^q norm."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from ._quadrature import _golden_section
from .errors import ValidationError
from .grid import RadialField, _dmat, field_abs_pow, field_signed_pow, h1_inner
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
        return {"grad_energy": self.grad_energy, "hls_energy": self.hls_energy,
                "deficit": self.deficit, "dist": self.dist, "ratio": self.ratio}


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
    lap = (_dmat(g.n, g.h, 2) @ u.values
           + (N - 2) * (_dmat(g.n, g.h, 1) @ u.values)) * np.exp(-2 * g.x)
    resid = -lap - nonlin
    inner = slice(_EDGE, g.n - _EDGE)
    scale = float(np.max(np.abs(nonlin[inner])))
    if scale == 0.0:
        raise ValidationError("nonlinear term vanishes identically")
    return float(np.max(np.abs(resid[inner]))) / scale


def weak_norm(u: RadialField, R: float, q: float) -> float:
    """Weak L^q norm sup_D int_D |u| / |D|^{(q-1)/q} over subsets of B_R.

    Valid for radial |u| nonincreasing on [0, R], where the supremum is
    attained on centered balls; the scan runs over grid radii with a local
    refinement around the argmax.  The exponent encodes the dimension through
    q = N/(N-2).
    """
    if R <= 0:
        raise ValidationError("R must be positive")
    if q <= 1:
        raise ValidationError("weak norm needs q > 1")
    N = 2.0 * q / (q - 1.0)
    if abs(N - round(N)) > 1e-9:
        raise ValidationError(f"q={q} does not match an integer dimension via q = N/(N-2)")
    N = int(round(N))
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
    # parabola-free local refinement: maximize the pchip-interpolated quotient
    lo, hi = max(j - 1, 0), min(j + 1, n_in - 1)
    if hi > lo:
        cub = PchipInterpolator(g.x[max(j - 2, 0):min(j + 3, n_in)],
                                cum[max(j - 2, 0):min(j + 3, n_in)])

        def negg(x):
            return -float(cub(x)) / (om / N * math.exp(N * x)) ** expo

        best = max(best, -_golden_section(negg, g.x[lo], g.x[hi], 1e-12)[2])
    return best
