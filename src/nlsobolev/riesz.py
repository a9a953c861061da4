"""Riesz-potential convolutions |x|^{-alpha} * f for radial fields, per
angular-momentum sector.

The degree-ell projection of the kernel factorizes on a log grid: with
x = log r, y = log s and chi = (r^2+s^2)/(2rs) = cosh(x-y),

    k_ell(r, s) = c_ell (2 r s)^{-alpha/2} phi_ell(x - y),
    phi_ell(xi) = int_{-1}^{1} (cosh xi - t)^{-alpha/2} G_ell(t) (1-t^2)^{(N-3)/2} dt,

where G_ell is the degree-ell Gegenbauer polynomial of index (N-2)/2 with
G_ell(1) = 1.  The potential is therefore a one-dimensional convolution of
psi(y) = e^{(N-alpha/2) y} f(e^y) with the fixed profile phi_ell.  The profile
is weakly singular at xi = 0 (like |xi|^{N-1-alpha}, divergent for
alpha >= N-1), so the convolution is discretized by product integration:
Toeplitz weights exact for piecewise-cubic psi, built from moment tables of
phi over grid cells; the singular cell uses one fixed Gauss rule graded
geometrically toward xi = 0 (Schwab, Computing 53 (1994)).  From
xi_0 = _SERIES_XI = 4 on, the Gegenbauer generating function (DLMF 18.12.4)
turns phi_ell into the exponential sum 2^{alpha/2} sum_{k<K} d_k
e^{-(alpha/2+k) xi}, so those cells (about nine in ten) have moments in
closed form, one matrix product for the whole far block; K follows from the
bound |C_k^{(a)}| <= (2a)_k/k! (DLMF 18.14.4) at xi_0, for every N and alpha.
Fields carrying jump markers are split into a continuous part plus exact
exponential-step contributions so that ball indicators lose no accuracy.
Both the smooth part and the step parts are one FFT convolution with a lag
table (`_lag_convolve`); the smooth part's table is transformed once per
kernel, and built kernels sit in a small LRU cache.  Since ell enters
phi_ell only through G_ell, sectors requested together (`angular_kernels`)
share one profile evaluation: every power of (cosh xi - t) and every
singular moment is formed once, and each sector adds only its weighted sums.

The normalization is c_ell = omega_{N-2} = |S^{N-2}| by the Funk-Hecke
formula (Stein-Weiss, Fourier Analysis on Euclidean Spaces, ch. IV): for
unit vectors e, w and a degree-ell spherical harmonic Y,
int_{S^{N-1}} F(e.w) Y(w) dw = Y(e) omega_{N-2} int_{-1}^{1} F(t) G_ell(t)
(1-t^2)^{(N-3)/2} dt, applied to F(t) = (r^2 + s^2 - 2 r s t)^{-alpha/2}.
"""
from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import beta, hyp1f1, hyp2f1, roots_jacobi

from .errors import DivergentTailError, NumericsError, ValidationError
from .grid import RadialField, RadialGrid
from .params import Params, _as_int, sphere_area

__all__ = ["AngularKernel", "angular_kernel", "angular_kernels", "riesz_potential",
           "interaction_energy", "MAX_ELL"]

MAX_ELL = 3
_NEAR_XI = 0.33
_SERIES_XI = 4.0     # far-field exponential sum from here on (see KernelProfile)
_MOMENT_DEGREE = 8
_KERNEL_CACHE_SIZE = 8
_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_C_FLOOR = 1e-280        # near-branch floor on c = cosh xi - 1, reached at xi ~ sqrt(2 c)
# cubic Lagrange basis on eta-nodes {-1, 0, 1, 2}, ascending monomial coefficients
_LAGRANGE4 = np.array([[0.0, -1 / 3, 1 / 2, -1 / 6],
                       [1.0, -1 / 2, -1.0, 1 / 2],
                       [0.0, 1.0, 1 / 2, -1 / 2],
                       [0.0, -1 / 6, 0.0, 1 / 6]])


def _fft_len(nseq: int, nlags: int) -> int:
    return next_fast_len(nseq + nlags - 1, True)


def _lag_convolve(seq: np.ndarray, lags: np.ndarray, half: int,
                  lags_hat: np.ndarray | None = None) -> np.ndarray:
    """out[i] = sum_j lags[half + i - j] seq[j] for i < len(seq), by one real FFT;
    a caller that reuses `lags` passes lags_hat = rfft(lags, _fft_len(...))."""
    L = _fft_len(len(seq), len(lags))
    if lags_hat is None:
        lags_hat = rfft(lags, L)
    return irfft(rfft(seq, L) * lags_hat, L)[half:half + len(seq)]


@lru_cache(maxsize=64)
def _gauss_jacobi(q: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """roots_jacobi(q, a, b), computed once per rule and read-only."""
    t, w = roots_jacobi(q, a, b)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _gegenbauer_coeffs(ell: int, N: int) -> np.ndarray:
    """Ascending power coefficients of C_ell^{(N-2)/2}(t) / C_ell^{(N-2)/2}(1)."""
    lam = (N - 2) / 2.0
    polys = [np.array([1.0]), np.array([0.0, 2 * lam])]
    for m in range(1, ell):
        nxt = np.zeros(m + 2)
        nxt[1:] += 2 * (m + lam) / (m + 1) * polys[m]
        nxt[:m] -= (m + 2 * lam - 1) / (m + 1) * polys[m - 1]
        polys.append(nxt)
    c = polys[ell]
    return c / np.polyval(c[::-1], 1.0)


class KernelProfile:
    """Evaluator for phi_ell(xi) of several sectors at once.  Below
    _SERIES_XI the far branch is Gauss-Jacobi in t, and the near branch a
    subtracted scheme: a [1,2] Gauss-Jacobi piece plus a Taylor series whose
    singular moments int_0^1 u^a (c+u)^{-alpha/2} du obey a stable upward
    recurrence (c = cosh xi - 1).  From _SERIES_XI on, phi_ell is the
    exponential sum 2^{alpha/2} sum_{k<K} d_k e^{-(alpha/2+k) xi} of the
    Gegenbauer generating function, with K set per alpha from the bound
    |C_k^{(alpha/2)}| <= (alpha)_k / k! (`_init_series`); `series_moments`
    integrates it over grid cells in closed form.  By Funk-Hecke, ell enters
    only through the Gegenbauer weights, so the sectors share every power
    matrix, every moment, the recurrence and the exponentials; each sector
    adds one weight vector per rule, its own Taylor coefficients and its own
    d_k.  Row j of a call's result is sector ells[j]."""

    _FAR_EDGES = (_NEAR_XI, 0.5, 0.8, 1.3, 2.2, _SERIES_XI)
    _FAR_ORDERS = (96, 72, 48, 32, 24)

    def __init__(self, N: int, alpha: float, ells: tuple[int, ...]):
        self.N, self.alpha, self.ells = N, float(alpha), tuple(ells)
        self.beta = (N - 1) / 2.0
        self.a0 = self.beta - 1.0
        gcoefs = [_gegenbauer_coeffs(ell, N) for ell in self.ells]
        rules = [_gauss_jacobi(q, self.a0, self.a0) for q in self._FAR_ORDERS]
        self._far_rules = [(t, [w * np.polyval(g[::-1], t) for g in gcoefs]) for t, w in rules]
        self._init_series()
        # Taylor coefficients of rho(u) = G_ell(1-u)(2-u)^{beta-1} about u = 0,
        # one row per sector
        J = 60
        binom = np.zeros(J)
        binom[0] = 1.0
        for k in range(1, J):
            binom[k] = binom[k - 1] * (self.beta - 1 - (k - 1)) / k * (-0.5)
        binom *= 2.0 ** (self.beta - 1)
        self.rho = np.empty((len(gcoefs), J))
        for row, gcoef in zip(self.rho, gcoefs):
            g_u = np.zeros(J)
            for i, gc in enumerate(gcoef):              # expand G_ell(1-u)
                for k in range(i + 1):
                    g_u[k] += gc * math.comb(i, k) * (-1.0) ** k
            row[:] = np.convolve(g_u, binom)[:J]
        # rule for the [1, 2] piece, weight (2-u)^{beta-1}, with the fixed
        # factor G_ell(1-u) u^{a0} of the integrand folded in
        xj, wj = _gauss_jacobi(24, self.a0, 0.0)
        self._i2_u = (xj + 3.0) / 2.0
        self._i2_w = [wj * 2.0 ** (-self.beta) * np.polyval(g[::-1], 1 - self._i2_u)
                      * self._i2_u ** self.a0 for g in gcoefs]
        # A0 = int_0^1 v^{a0} (1+v)^{-alpha/2} dv, in closed form
        self._A0 = hyp2f1(self.alpha / 2, self.a0 + 1, self.a0 + 2, -1.0) / (self.a0 + 1)

    # -- far field: exponential sum -------------------------------------------
    def _init_series(self) -> None:
        """With z = e^{-xi}, cosh xi - t = (1 - 2tz + z^2) / (2z), so the
        generating function (1 - 2tz + z^2)^{-a} = sum_k C_k^{(a)}(t) z^k
        (DLMF 18.12.4), a = alpha/2, gives phi_ell(xi) = 2^a sum_k d_k
        e^{-(a+k) xi} with d_k = int C_k^{(a)} G_ell (1-t^2)^{(N-3)/2} dt,
        zero unless k >= ell and k - ell is even.  |C_k^{(a)}| <= (2a)_k / k!
        (DLMF 18.14.4) bounds the terms by those of (1 - z)^{-2a}; K is the
        first count whose tail at xi = _SERIES_XI is below eps/16 of the k = 0
        bound.  The ratio of consecutive bounds, (2a+k) z / (k+1), tends to z
        monotonically, so the tail is at most term_K / (1 - max(ratio_K, z)).
        The d_k come from the 96-node rule, exact while k + ell <= 191."""
        a = self.alpha / 2
        t, ws = self._far_rules[0]
        z = math.exp(-_SERIES_XI)
        term = 1.0
        for K in range(2 * len(t) - max(self.ells)):
            ratio = (2 * a + K) / (K + 1) * z
            sup = max(ratio, z)
            if sup < 1 and term / (1 - sup) <= np.finfo(float).eps / 16:
                break
            term *= ratio
        else:
            raise NumericsError(f"far-field series of alpha = {self.alpha} needs more "
                                f"than {K} terms")
        C = [np.ones_like(t), 2 * a * t]               # C_k^{(a)}(t) by recurrence
        for k in range(1, K - 1):
            C.append((2 * (k + a) * t * C[k] - (k + 2 * a - 1) * C[k - 1]) / (k + 1))
        C = np.array(C[:K])
        k, ell = np.arange(K), np.array(self.ells)[:, None]
        self._coef = 2.0 ** a * np.array([C @ w for w in ws])   # (sectors, K)
        self._coef[(k < ell) | ((k - ell) % 2 == 1)] = 0.0      # zero, not round-off
        self._rates = a + k

    def series_moments(self, h: float, ms: np.ndarray) -> np.ndarray:
        """int_0^1 phi((m+eta)h) eta^d deta of every sector for cells m (mh >=
        _SERIES_XI), as an array (sectors, _MOMENT_DEGREE + 1, len(ms)): each
        exponential term integrates in closed form, int_0^1 e^{-c eta} eta^d
        deta = 1F1(d+1; d+2; -c) / (d+1), so the cells are one matrix product
        of the d_k-weighted cell integrals with the geometric sequences
        e^{-(a+k) mh}, one per sector so that a sector's bits do not depend
        on the batch it was built in."""
        d = np.arange(_MOMENT_DEGREE + 1)
        E = hyp1f1(d + 1, d + 2, -h * self._rates[:, None]) / (d + 1)      # (K, D)
        geo = np.exp(-np.outer(self._rates, ms * h))
        return np.array([(c * E.T) @ geo for c in self._coef])

    # -- far branch ---------------------------------------------------------
    def _far(self, xi: np.ndarray) -> np.ndarray:
        out = np.empty((len(self.ells), len(xi)))
        lo = self._FAR_EDGES[0]
        for hi, (t, ws) in zip(self._FAR_EDGES[1:], self._far_rules):
            m = (xi >= lo) & (xi < hi)
            if np.any(m):
                powm = (np.cosh(xi[m])[:, None] - t) ** (-self.alpha / 2)
                for row, w in zip(out, ws):
                    row[m] = powm @ w
                del powm       # free before the next band's matrix is formed
            lo = hi
        m = xi >= lo
        if np.any(m):
            geo = np.exp(-np.outer(self._rates, xi[m]))
            for row, c in zip(out, self._coef):
                row[m] = c @ geo
        return out

    # -- near branch --------------------------------------------------------
    def _m_start(self, c: np.ndarray) -> np.ndarray:
        """M_{a0}(c) = int_0^1 u^{a0} (c+u)^{-alpha/2} du by split quadrature:
        [0, c] in closed form, [c, 1] on max(4, ceil(-log(c) / 1.5)) equal
        panels in log u, a count of each node's own.  With the nodes sorted by
        count, panel p runs over the prefix of nodes that have one."""
        al, a0 = self.alpha, self.a0
        order = np.argsort(c, kind="stable")             # deepest (most panels) first
        c = c[order]
        lnc = np.log(c)
        K = np.maximum(4, np.ceil(-lnc / 1.5))
        out = c ** (a0 + 1 - al / 2) * self._A0          # [0, c] piece
        for p in range(int(K[0])):                       # [c, 1] piece, log panels
            n = np.searchsorted(-K, -p)                  # the nodes with K > p
            t0 = lnc[:n] * (1 - p / K[:n])
            t1 = lnc[:n] * (1 - (p + 1) / K[:n])
            mid = 0.5 * (t0[:, None] + t1[:, None]) + 0.5 * (t1 - t0)[:, None] * _GL_X
            vals = np.exp((a0 + 1 - al / 2) * mid) * (1 + c[:n, None] * np.exp(-mid)) ** (-al / 2)
            out[:n] += (vals @ _GL_W) * 0.5 * (t1 - t0)
        return out[np.argsort(order)]

    def _near(self, xi: np.ndarray) -> np.ndarray:
        al = self.alpha
        c = np.maximum(2.0 * np.sinh(xi / 2.0) ** 2, _C_FLOOR)
        powm = (c[:, None] + self._i2_u) ** (-al / 2)
        i2 = np.array([powm @ w for w in self._i2_w])
        Ma = self._m_start(c)
        acc = self.rho[:, :1] * Ma
        one_c = (1 + c) ** (1 - al / 2)
        for j in range(1, self.rho.shape[1]):
            a = self.a0 + j
            Ma = (one_c - a * c * Ma) / (a + 1 - al / 2)
            acc += self.rho[:, j:j + 1] * Ma
        return acc + i2

    def __call__(self, xi) -> np.ndarray:
        xi = np.abs(np.atleast_1d(np.asarray(xi, dtype=float)))
        out = np.empty((len(self.ells),) + xi.shape)
        near = xi < _NEAR_XI
        far = ~near
        # row by row through the 1-D mask: a 2-D masked write is measurably slower
        if np.any(near):
            for row, v in zip(out, self._near(xi[near])):
                row[near] = v
        if np.any(far):
            for row, v in zip(out, self._far(xi[far])):
                row[far] = v
        return out


@dataclass(frozen=True)
class _SectorProfile:
    """phi_ell of one sector of a shared KernelProfile, as a 1-D evaluator."""
    shared: KernelProfile
    row: int

    def __call__(self, xi) -> np.ndarray:
        return self.shared(xi)[self.row]


def _moment_tables(profile: KernelProfile, h: float, nlag: int) -> np.ndarray:
    """Monomial moment tables P[j, d, m] = int_0^1 phi((m+eta)h) eta^d deta for
    every sector j of the profile and cells m < nlag, from two profile calls
    that the sectors share: one over the regular cells 1 <= m < ceil(_SERIES_XI / h)
    and one over the singular cell's graded rule.  The cells beyond take the
    exponential sum in closed form (`KernelProfile.series_moments`)."""
    D = _MOMENT_DEGREE + 1
    P = np.zeros((len(profile.ells), D, nlag))
    eta = (_GL_X + 1) / 2
    wtab = np.array([_GL_W / 2 * eta ** d for d in range(D)])   # (D, 12)
    m_far = min(max(1, math.ceil(_SERIES_XI / h)), nlag)
    ms = np.arange(1, m_far)
    vals = profile(((ms[:, None] + eta) * h).ravel())
    for Pj, v in zip(P, vals):
        Pj[:, 1:m_far] = wtab @ v.reshape(len(ms), len(eta)).T
    P[:, :, m_far:] = profile.series_moments(h, np.arange(m_far, nlag))
    # singular cell m = 0: eta = e^t, t in [t_lo, 0] on equal 12-node panels no
    # wider than 0.75 (so e^{9t} to round-off).  phi ~ xi^pw + const, pw = N-1-alpha,
    # leaves < e^{-37} below -T; where `_near`'s c-floor stops the rule short of -T,
    # the rest is exact for phi's leading term 2^{a0} B(a0+1, -pw/2) (xi^2/2)^{pw/2},
    # the same in every sector since G_ell(1) = 1.
    a0, pw = profile.a0, profile.N - 1 - profile.alpha
    T = 37.0 / min(1.0, pw + 1)
    t_lo = max(-T, math.log(math.sqrt(2 * _C_FLOOR) / h))
    K = math.ceil(-t_lo / 0.75)
    t = (t_lo / K * (np.arange(K)[:, None] + eta)).ravel()   # counted down from 0
    wt = np.tile(_GL_W, K) * (-t_lo / (2 * K)) * profile(h * np.exp(t))
    powers = np.exp(np.outer(np.arange(1, D + 1), t))
    for Pj, w in zip(P, wt):
        Pj[:, 0] = powers @ w
    if t_lo > -T:   # only for N - alpha < 0.12, where pw < -0.88
        q = pw + 1 + np.arange(D)
        P[:, :, 0] += 2 ** (a0 - pw / 2) * beta(a0 + 1, -pw / 2) * h ** pw * np.exp(q * t_lo) / q
    return P


class _ConvTables:
    """Product-integration data for one sector's moment table P (see
    `_moment_tables`) on cells of width h: the symmetric Toeplitz weight
    sequence exact for piecewise-cubic psi, and exponential cell integrals
    used for step (jump) fields."""

    def __init__(self, P: np.ndarray, h: float):
        self.P, self.h = P, h
        self.nlag = nlag = P.shape[1]
        wpos = np.zeros(nlag + 3)                 # lags -1 .. nlag+1
        contrib = h * (_LAGRANGE4 @ P[:4])        # (4, nlag): weight vs (nu, cell)
        for j, nu in enumerate((-1, 0, 1, 2)):
            wpos[1 + nu:1 + nu + nlag] += contrib[j]
        M = nlag + 1                              # w[M + m] = wpos[1 + m] + wpos[1 - m]
        w = np.zeros(2 * M + 1)
        w[M - 1:] += wpos
        w[:M + 2] += wpos[::-1]
        self.weights = w
        self.half = M
        # every psi spans the nlag padded nodes, so the weights transform once
        self._weights_hat = rfft(w, _fft_len(nlag, len(w)))

    def convolve(self, psi: np.ndarray) -> np.ndarray:
        return _lag_convolve(psi, self.weights, self.half, self._weights_hat)

    def cell_exp(self, gam: float) -> np.ndarray:
        """CE(m) = int_0^1 phi((m+eta)h) e^{gam eta h} deta for m >= 0."""
        D = self.P.shape[0]
        coef = np.array([(gam * self.h) ** d / math.factorial(d) for d in range(D)])
        return coef @ self.P

    def step_kernel(self, gam: float) -> np.ndarray:
        """Lag table for potentials of exponential steps: entry at lag m is
        CE(m, -gam) continued to negative m by reflection."""
        M = self.half
        pos = self.cell_exp(-gam)
        neg = math.exp(-gam * self.h) * self.cell_exp(gam)
        ce = np.zeros(2 * M + 1)
        ce[M:M + self.nlag] = pos
        ce[M - self.nlag:M] = neg[:self.nlag][::-1]
        return ce


_kernel_cache: OrderedDict[tuple, "AngularKernel"] = OrderedDict()   # LRU, most recent last


@dataclass(eq=False)
class AngularKernel:
    """Degree-ell projected Riesz kernel on one grid: the profile phi_ell,
    the product-integration tables over the padded log grid, and the
    Funk-Hecke normalization c_norm, so that pointwise
    k_ell(r, s) = c_norm (2 r s)^{-alpha/2} profile(log r - log s).  `apply`
    integrates a field against it; nothing dense of size n x n is kept."""
    ell: int
    params: Params
    grid: RadialGrid
    profile: _SectorProfile
    tables: _ConvTables
    c_norm: float
    npad: int

    def x_extended(self) -> np.ndarray:
        g = self.grid
        return g.x[0] + np.arange(-self.npad, g.n + self.npad) * g.h

    def extend_psi(self, f: RadialField, values: np.ndarray, head: float) -> np.ndarray:
        """psi = e^{(N - alpha/2) y} f(e^y) on the padded grid, continued by the
        declared head/tail models."""
        p = self.params
        g = self.grid
        gam = p.N - p.alpha / 2
        xe = self.x_extended()
        psi = np.empty(len(xe))
        # e^{gam x} may overflow on a wide grid; the callers reject non-finite results
        with np.errstate(over="ignore", invalid="ignore"):
            psi[:self.npad] = head * np.exp(gam * xe[:self.npad])
            psi[self.npad:self.npad + g.n] = np.exp(gam * g.x) * values
            vend = values[-1]
            if vend == 0.0 or np.isinf(f.tail_exponent):
                psi[self.npad + g.n:] = 0.0
            else:
                margin = f.tail_exponent + p.alpha - p.N
                if margin <= 0:
                    raise DivergentTailError(
                        f"Riesz potential diverges: tail exponent {f.tail_exponent} "
                        f"needs tail_exponent + alpha - N > 0")
                xt = xe[self.npad + g.n:]
                psi[self.npad + g.n:] = vend * np.exp(gam * xt - f.tail_exponent * (xt - g.x[-1]))
        return psi

    def apply(self, f: RadialField) -> np.ndarray:
        """Node values of int k_ell(r, s) f(s) s^{N-1} ds."""
        p = self.params
        g = self.grid
        vals = f.values
        head = f.head_value
        if f.jumps:
            vals = vals.copy()
            for b, drop in f.jumps:
                vals[:b + 1] -= drop
            head = head - sum(drop for _, drop in f.jumps)
        psi = self.extend_psi(f, vals, head)
        kappa = self.c_norm * 2.0 ** (-p.alpha / 2)
        # psi overflows on a wide grid; the non-finite result is rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.tables.convolve(psi)[self.npad:self.npad + g.n]
            for b, drop in f.jumps:
                out = out + drop * self._step_values(b)
            res = kappa * np.exp(-p.alpha / 2 * g.x) * out
        if not np.all(np.isfinite(res)):
            raise NumericsError("Riesz potential quadrature produced non-finite values")
        return res

    def _step_values(self, b: int) -> np.ndarray:
        """Convolution contribution of the unit step 1_{r <= r_b} (cells are
        integrated against the exact exponential, immune to the jump)."""
        p = self.params
        g = self.grid
        gam = p.N - p.alpha / 2
        xe = self.x_extended()
        seq = np.zeros(len(xe))
        nb = self.npad + b
        seq[1:nb + 1] = np.exp(gam * xe[1:nb + 1])
        out = _lag_convolve(seq, self.tables.step_kernel(gam), self.tables.half)
        return out[self.npad:self.npad + g.n] * g.h


def angular_kernels(p: Params, ells, grid: RadialGrid) -> list[AngularKernel]:
    """The sector kernels for each ell in ells on this grid, in request order.
    Those not in the LRU cache of the last _KERNEL_CACHE_SIZE kernels are
    built together from one profile evaluation; every returned kernel is
    filed as most recent."""
    ells = [_as_int("ell", ell) for ell in ells]
    for ell in ells:
        if not (0 <= ell <= MAX_ELL):
            raise ValidationError(f"ell must lie in 0..{MAX_ELL}, got {ell}")
    keys = [(p.N, p.alpha, ell, grid.key()) for ell in ells]
    missing = tuple(dict.fromkeys(ell for ell, key in zip(ells, keys)
                                  if key not in _kernel_cache))
    built = {}
    if missing:
        profile = KernelProfile(p.N, p.alpha, missing)
        span = grid.x[-1] - grid.x[0]
        npad = int(math.ceil(span / grid.h)) + 8
        moments = _moment_tables(profile, grid.h, grid.n + 2 * npad)
        for j, ell in enumerate(missing):
            built[ell] = AngularKernel(ell=ell, params=p, grid=grid,
                                       profile=_SectorProfile(profile, j),
                                       tables=_ConvTables(moments[j], grid.h),
                                       c_norm=sphere_area(p.N - 1), npad=npad)
    kernels = []
    for ell, key in zip(ells, keys):
        kernel = _kernel_cache.setdefault(key, built.get(ell))
        _kernel_cache.move_to_end(key)
        kernels.append(kernel)
    while len(_kernel_cache) > _KERNEL_CACHE_SIZE:
        _kernel_cache.popitem(last=False)
    return kernels


def angular_kernel(p: Params, ell: int, grid: RadialGrid) -> AngularKernel:
    """The sector-ell kernel on this grid: `angular_kernels` for one sector."""
    return angular_kernels(p, (ell,), grid)[0]


def riesz_potential(f: RadialField, p: Params, ell: int = 0) -> RadialField:
    """g(r) = int k_ell(r, s) f(s) s^{N-1} ds on the same grid."""
    kernel = angular_kernel(p, ell, f.grid)
    out = kernel.apply(f)
    if np.isinf(f.tail_exponent) or f.values[-1] == 0.0:
        tail = p.alpha + ell
    else:
        tail = min(p.alpha + ell, f.tail_exponent + p.alpha - p.N)
    head = float(out[0]) if ell == 0 else 0.0
    return RadialField(grid=f.grid, values=out, tail_exponent=float(tail), head_value=head)


def interaction_energy(f: RadialField, g: RadialField, p: Params) -> float:
    """Double Riesz integral int int f(x) g(y) |x-y|^{-alpha} dy dx for radial
    densities, as a symmetric discrete quadratic form in log space (NumericsError
    if not finite)."""
    if f.jumps or g.jumps:
        raise ValidationError("interaction_energy does not support jump-marked fields")
    gr = f.grid
    if g.grid is not gr and g.grid.key() != gr.key():
        raise ValidationError("interaction_energy requires fields on the same grid")
    kernel = angular_kernel(p, 0, gr)
    psi_f = kernel.extend_psi(f, f.values, f.head_value)
    psi_g = kernel.extend_psi(g, g.values, g.head_value)
    kappa = kernel.c_norm * 2.0 ** (-p.alpha / 2)
    with np.errstate(over="ignore", invalid="ignore"):   # rejected below
        val = float(psi_f @ kernel.tables.convolve(psi_g))
    if not math.isfinite(val):
        raise NumericsError(f"interaction energy is not finite ({val}) on this grid")
    return sphere_area(p.N) * kappa * gr.h * val

