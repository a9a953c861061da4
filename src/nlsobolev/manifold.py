"""The extremal manifold {c U_{lambda,0}}: bubbles, tangent directions,
orthogonal projection, and distance minimization.

The center z is pinned to the origin: the whole pipeline is radial, and
translating a radial target away from the origin only increases the gradient
distance in the near-manifold regime, so the two translation parameters are
frozen and the translation direction enters only as the ell = 1 tangent
profile.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from ._quadrature import derivative_matrix
from .errors import BracketingError, NumericsError, ValidationError
from .grid import RadialField, RadialGrid, _h1_form, _tail_correction, h1_inner
from .params import Params, hls_sobolev_constant, sphere_area

__all__ = ["BubbleParams", "Decomposition", "bubble", "tangent_basis",
           "dist_to_manifold", "project_orthogonal"]


@dataclass(frozen=True)
class BubbleParams:
    """Coordinates (c, lambda) on the extremal manifold; the center is 0."""
    c: float
    lam: float

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValidationError(f"bubble scale must be positive and finite, got {self.lam}")
        if not math.isfinite(self.c):
            raise ValidationError(f"bubble coefficient must be finite, got {self.c}")


@dataclass(eq=False)
class Decomposition:
    """u = c U_{lambda,0} + d w with w a unit-norm tangent-orthogonal direction."""
    best: BubbleParams
    d: float
    w: RadialField


def bubble(p: Params, bp: BubbleParams, grid: RadialGrid) -> RadialField:
    """c lambda^{(N-2)/2} a (1 + lambda^2 r^2)^{-(N-2)/2}; NumericsError if it overflows."""
    amp = hls_sobolev_constant(p).bubble_amp
    e = (p.N - 2) / 2.0
    with np.errstate(over="ignore"):
        pref = float(bp.c * np.float64(bp.lam) ** e * amp)
        s2 = (bp.lam * grid.nodes) ** 2
    if not math.isfinite(pref):
        raise NumericsError(f"the bubble's peak value at lambda = {bp.lam:.6g} overflows")
    vals = pref * (1.0 + s2) ** (-e)
    if math.isinf(s2[-1]):   # where (lambda r)^2 overflows, take its power by logs
        big = np.isinf(s2)
        vals[big] = pref * np.exp(-2.0 * e * (math.log(bp.lam) + grid.x[big]))
    return RadialField(grid=grid, values=vals, tail_exponent=float(p.N - 2),
                       head_value=pref)


def _dlam_bubble(p: Params, lam: float, grid: RadialGrid) -> RadialField:
    """Analytic d/dlambda of the unit bubble at scale lam (ell = 0 profile)."""
    amp = hls_sobolev_constant(p).bubble_amp
    N = p.N
    r2 = (lam * grid.nodes) ** 2
    head = (N - 2) / (2 * lam) * amp * lam ** ((N - 2) / 2.0)
    vals = head * (1.0 - r2) * (1.0 + r2) ** (-N / 2.0)
    return RadialField(grid=grid, values=vals, tail_exponent=float(N - 2), head_value=head)


def _dlam2_bubble(p: Params, lam: float, grid: RadialGrid) -> np.ndarray:
    """Node values of lam d/dlambda `_dlam_bubble`, the log-lambda slope of the
    stationarity profile: with s = lam r and e = (N-2)/2,
    e a lam^{e-1} (1+s^2)^{-e-1} [(e-1)(1-s^2) - 2s^2 - 2(e+1) s^2 (1-s^2)/(1+s^2)]."""
    amp = hls_sobolev_constant(p).bubble_amp
    e = (p.N - 2) / 2.0
    s2 = (lam * grid.nodes) ** 2
    q, t = 1.0 - s2, 1.0 + s2
    return (e * amp * lam ** (e - 1.0) * t ** (-e - 1.0)
            * ((e - 1.0) * q - 2.0 * s2 - 2.0 * (e + 1.0) * s2 * q / t))


def _dr_bubble(p: Params, lam: float, grid: RadialGrid) -> RadialField:
    """Analytic radial derivative of the bubble (the ell = 1 translation profile)."""
    amp = hls_sobolev_constant(p).bubble_amp
    N = p.N
    r2 = (lam * grid.nodes) ** 2
    vals = (-(N - 2) * amp * lam ** ((N + 2) / 2.0) * grid.nodes
            * (1.0 + r2) ** (-N / 2.0))
    return RadialField(grid=grid, values=vals, tail_exponent=float(N - 1), head_value=0.0)


def tangent_basis(p: Params, lam: float, grid: RadialGrid) -> list[tuple[int, RadialField]]:
    """Radial profiles of the tangent directions at U_{lam,0}, unit-normalized
    in the Dirichlet form of their sector: (0, U), (0, d/dlam U), (1, d/dr U)."""
    out = []
    for ell, f in ((0, bubble(p, BubbleParams(c=1.0, lam=lam), grid)),
                   (0, _dlam_bubble(p, lam, grid)),
                   (1, _dr_bubble(p, lam, grid))):
        nrm = math.sqrt(h1_inner(f, f, ell, p.N))
        out.append((ell, replace(f, values=f.values / nrm, head_value=f.head_value / nrm)))
    return out


def _bubble_energy(p: Params, grid: RadialGrid) -> float:
    """||U_lambda||^2 = h1_inner(U_1, U_1, 0, N), memoized on the grid per Params."""
    def build():
        U1 = bubble(p, BubbleParams(c=1.0, lam=1.0), grid)
        return h1_inner(U1, U1, 0, p.N)
    return grid.memo(("bubble_energy", p), build)


def _overlap_representer(u: RadialField, ux: np.ndarray, N: int) -> np.ndarray:
    """The vector rep with rep @ v.values == h1_inner(u, v, 0, N) for every v of
    tail exponent N - 2 (the bubbles and their lambda-derivatives): from ux = D u,
    omega_{N-1} D^T (ew * ux), D^T memoized on the grid, with h1_inner's gradient
    tail, linear in v's end slope Dv[-1] / r_max, folded into the last row."""
    g = u.grid
    gw = g.dirichlet_weights(N) * ux
    gw[-1] += _tail_correction(ux[-1] / g.r_max, u.tail_exponent + N, N, g.r_max) / g.r_max
    DT = g.memo(("stencil_transpose",), lambda: derivative_matrix(g.n, g.h, 1).T)
    return sphere_area(N) * (DT @ gw)


def _overlap_scan(rep: np.ndarray, N: int, grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """The scan nodes xs = x0 + k h, k = -K..K, x0 = -(x_0 + x_{n-1}) / 2 and
    K = floor((n - 1) / 2) + 1: every log lambda whose bubble peak 1 / lambda
    lies on the grid, and |<u, U_lambda>| / a on them, a the bubble amplitude.
    With e = (N-2)/2 and x = log r, U_lambda = a e^{-e x} f(x + log lambda),
    f(y) = (2 cosh y)^{-e}, so node k reads the window of f from index k of its
    samples on the extended grid, and the scan is every lag of one real-FFT
    cross-correlation sum_i f[i + l] q[i], q = e^{-e x} rep.  Both factors
    peak at x = 0 and decay on both sides, so the FFT's rounding, of order
    eps |f| |q|, stays at that of the direct sums.  The nodes, f's rfft and
    e^{-e x} are memoized on the grid per N: a scan is one rfft and one irfft."""
    def build():
        K = (grid.n - 1) // 2 + 1
        xs = -0.5 * (grid.x[0] + grid.x[-1]) + grid.h * np.arange(-K, K + 1)
        nf = grid.n + 2 * K
        y = grid.x[0] + xs[0] + grid.h * np.arange(nf)
        with np.errstate(over="ignore"):   # cosh overflows to inf, and f to 0, past |y| = 710
            f = (2.0 * np.cosh(y)) ** -e
        L = next_fast_len(nf, True)   # >= nf, so no lag up to 2 K wraps
        return xs, L, rfft(f, L), np.exp(-e * grid.x)

    e = (N - 2) / 2.0
    xs, L, F, emx = grid.memo(("overlap_scan", N), build)
    return xs, np.abs(irfft(F * np.conj(rfft(emx * rep, L)), L)[:len(xs)])


def dist_to_manifold(u: RadialField, p: Params) -> Decomposition:
    """Minimize ||u - c U_{lambda,0}|| in the gradient norm.

    For fixed lambda the optimal coefficient is closed-form,
    c(lambda) = p(lambda) / ||U||^2 with p(lambda) = <u, U_lambda>_{D^{1,2}},
    and ||U_lambda|| does not depend on lambda, so the minima of
    d^2 = ||u||^2 - c^2 ||U||^2 (||U||^2 memoized on the grid) are the maxima
    of |p|.  The form is linear in U_lambda, so u is differentiated once, for
    ||u||^2 and every overlap rep @ U_lambda, rep = `_overlap_representer(u)`.
    The scan of p runs over log lambda = x0 + k h in steps of the grid's h,
    across every scale whose bubble peak 1 / lambda lies on the grid, from
    -log r_max to -log r_min (at most one step beyond).  On those nodes
    U_lambda is a window of the bubble profile sampled once on the extended
    grid, so the scan is every lag of one real-FFT cross-correlation of that
    profile with rep (`_overlap_scan`).  It picks the (at most 3) best
    interior maxima of |p|.  On the two scan cells around each, Newton in
    log lambda solves the stationarity equation <u, d/dlambda U_lambda> = 0,
    which, unlike d^2, does not cancel, on its exact derivative
    <u, lambda d^2/dlambda^2 U_lambda>, from the vertex of the parabola
    through |p| at the three nodes, until a step is at most 2e-14 or at most
    the rounding of the stationarity value over its derivative (2 steps on
    the sweep fields).  A candidate whose iterate leaves its cells, whose
    derivative is zero or not finite, or that takes 8 steps, is dropped.
    The root with the largest |p| wins.  A scan with no interior maximum, or
    with every candidate dropped, raises BracketingError.
    """
    grid = u.grid
    ux = derivative_matrix(grid.n, grid.h, 1) @ u.values
    uu = _h1_form(u, u, ux, ux, 0, p.N)
    if uu <= 0.0:
        raise ValidationError("distance to the manifold is undefined for the zero field")
    rep = _overlap_representer(u, ux, p.N)
    xs, absp = _overlap_scan(rep, p.N, grid)
    mid = absp[1:-1]
    interior = np.flatnonzero((mid >= absp[:-2]) & (mid >= absp[2:])) + 1
    if len(interior) == 0:
        raise BracketingError("no interior minimum over lambda; distance not bracketed")

    def root(j: int) -> float | None:
        """The stationarity root on the two scan cells around node j, or None."""
        lo, hi = xs[j - 1], xs[j + 1]
        left, top, right = absp[j - 1:j + 2]
        curv = left - 2.0 * top + right
        t = xs[j] + (0.25 * (hi - lo) * (left - right) / curv if curv < 0 else 0.0)
        for _ in range(8):
            slope = float(rep @ _dlam2_bubble(p, math.exp(t), grid))
            if slope == 0.0 or not math.isfinite(slope):
                return None
            dU = _dlam_bubble(p, math.exp(t), grid).values
            value = float(rep @ dU)
            step = value / slope
            t -= step
            if not lo <= t <= hi:
                return None
            # a value at its rounding, ~eps sum |rep dU|, can 2-cycle the steps above 2e-14
            if (abs(step) <= 2e-14
                    or abs(value) <= 8 * np.finfo(float).eps * float(np.abs(rep) @ np.abs(dU))):
                return t
        return None

    best = None
    for j in sorted(interior, key=lambda j: -absp[j])[:3]:
        ll = root(j)
        if ll is None:
            continue
        U = bubble(p, BubbleParams(c=1.0, lam=math.exp(ll)), grid)
        pl = float(rep @ U.values)
        if best is None or abs(pl) > abs(best[0]):
            best = (pl, ll, U)
    if best is None:
        raise BracketingError("no stationarity root over lambda; distance not bracketed")
    pl, ll, U = best
    c = pl / _bubble_energy(p, grid)
    # at the final lambda, d = ||u - c U_lambda|| directly: unlike
    # uu - c^2 ||U||^2 it does not cancel, and w gets unit norm by construction
    resid = RadialField(grid=grid, values=u.values - c * U.values,
                        tail_exponent=min(u.tail_exponent, p.N - 2.0),
                        head_value=u.head_value - c * U.head_value)
    d = math.sqrt(h1_inner(resid, resid, 0, p.N))
    if d > 1e-9 * math.sqrt(uu):
        w = replace(resid, values=resid.values / d, head_value=resid.head_value / d)
    else:
        d = 0.0
        w = RadialField(grid=grid, values=np.zeros(grid.n),
                        tail_exponent=np.inf, head_value=0.0)
    return Decomposition(best=BubbleParams(c=c, lam=math.exp(ll)), d=d, w=w)


def project_orthogonal(w: RadialField, p: Params, lam: float, ell: int) -> RadialField:
    """Remove the sector-ell tangent components of w (in the Dirichlet form)
    and renormalize to unit norm; the unit tangent directions t and their
    derivatives D t are memoized on the grid per (Params, lam)."""
    nrm0 = math.sqrt(h1_inner(w, w, ell, p.N))   # h1_inner validates ell
    if nrm0 == 0.0:
        raise ValidationError("cannot project the zero field")
    D = derivative_matrix(w.grid.n, w.grid.h, 1)
    basis = w.grid.memo(("tangent_basis", p, lam), lambda: tuple(
        (k, t, D @ t.values) for k, t in tangent_basis(p, lam, w.grid)))
    dirs = [(t, Dt) for k, t, Dt in basis if k == ell]
    out = w
    for _ in range(2):   # re-orthogonalize once for 1e-12 residuals
        for t, Dt in dirs:
            coef = _h1_form(out, t, D @ out.values, Dt, ell, p.N)   # t has unit norm
            out = RadialField(grid=w.grid, values=out.values - coef * t.values,
                              tail_exponent=min(out.tail_exponent, t.tail_exponent),
                              head_value=out.head_value - coef * t.head_value)
    nrm = math.sqrt(max(h1_inner(out, out, ell, p.N), 0.0))
    if nrm < 1e-10 * nrm0:
        raise ValidationError("direction lies entirely inside the tangent space")
    return replace(out, values=out.values / nrm, head_value=out.head_value / nrm)
