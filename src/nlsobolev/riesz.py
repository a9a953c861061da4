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
geometrically toward xi = 0 (Schwab, Computing 53 (1994)).  Below
_NEAR_XI = 0.33 the profile is a Taylor series in singular moments; the
first of them takes, after w = c/u, log-panel sums of one integral free of c
that every node of the profile shares, so a node costs one 12-point rule.
From _NEAR_XI on, the Gegenbauer generating function (DLMF 18.12.4) turns
phi_ell into the exponential sum 2^{alpha/2} sum_{k<K} d_k e^{-(alpha/2+k) xi},
whose d_k the Gegenbauer connection formula (DLMF 18.18.16) gives in closed
form.  So every cell but the few dozen below _NEAR_XI and the singular one
has moments in closed form, one matrix product per sector and band of xi;
the bound |C_k^{(a)}| <= (2a)_k/k! (DLMF 18.14.4) at a band's lower edge
sets each sector's K there against its leading term, for every N and alpha.
Fields carrying jump markers are split into a continuous part plus exact
exponential-step contributions so that ball indicators lose no accuracy.
Both parts are one FFT convolution with a lag table placed about lag 0
(`_lag_convolve`); the smooth part's table is transformed once per kernel,
when first applied, and built kernels sit in a small LRU cache.  Since ell enters
phi_ell only through G_ell, sectors requested together (`_moment_tables`)
share one profile evaluation: every power of (cosh xi - t) and every
singular moment is formed once, and each sector adds only its weighted sums.

The normalization is c_ell = omega_{N-2} = |S^{N-2}| by the Funk-Hecke
formula (Stein-Weiss, Fourier Analysis on Euclidean Spaces, ch. IV): for
unit vectors e, w and a degree-ell spherical harmonic Y,
int_{S^{N-1}} F(e.w) Y(w) dw = Y(e) omega_{N-2} int_{-1}^{1} F(t) G_ell(t)
(1-t^2)^{(N-3)/2} dt, applied to F(t) = (r^2 + s^2 - 2 r s t)^{-alpha/2}.
`_moment_tables` multiplies kappa = omega_{N-2} 2^{-alpha/2} into the
moment tables once, so every lag table a kernel forms from them, and every
potential, energy and sector form built on those, carries it already.
"""
from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import beta, hyp1f1, hyp2f1, roots_jacobi

from .errors import DivergentTailError, NumericsError, ValidationError
from .grid import RadialField, RadialGrid, _reject_jumps
from .params import Params, _as_int, sphere_area

__all__ = ["AngularKernel", "angular_kernel", "angular_kernels", "riesz_potential",
           "interaction_energy", "MAX_ELL"]

MAX_ELL = 3
_NEAR_XI = 0.33
# lower edges of the far field's bands, each with its own term count per sector
_SERIES_EDGES = (_NEAR_XI, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
_LOG_TAIL = math.log(np.finfo(float).eps / 16)   # series tail allowed, relative to the leading term
_SERIES_MAX_CANCEL = 1e3   # sum |terms| / |sum| at _NEAR_XI: about 1e3 ulps lost at most
_MOMENT_DEGREE = 8
_KERNEL_CACHE_SIZE = 8
_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_C_FLOOR = 1e-280        # near-branch floor on c = cosh xi - 1, reached at xi ~ sqrt(2 c)
_M_PANEL = 1.5           # log-panel width of `_m_start`'s shared sums, exact in binary
_M_PANELS = math.ceil(-math.log(_C_FLOOR) / _M_PANEL)   # panels down to the c-floor
# cubic Lagrange basis on eta-nodes {-1, 0, 1, 2}, ascending monomial coefficients
_LAGRANGE4 = np.array([[0.0, -1 / 3, 1 / 2, -1 / 6],
                       [1.0, -1 / 2, -1.0, 1 / 2],
                       [0.0, 1.0, 1 / 2, -1 / 2],
                       [0.0, -1 / 6, 0.0, 1 / 6]])


def _fft_len(nseq: int, nlags: int, half: int) -> int:
    """The shortest fast circular length at which no lag of the table, -half ..
    nlags - 1 - half, lies a multiple of L from another lag i - j that an
    output i < nseq of `_lag_convolve` reads, so placing lag m at m mod L is exact."""
    return next_fast_len(max(nseq + nlags - 1 - half, half + nseq), True)


def _lag_convolve(seq: np.ndarray, lags: np.ndarray, half: int,
                  lags_hat: np.ndarray | None = None) -> np.ndarray:
    """out[i] = sum_j lags[half + i - j] seq[j] for i < len(seq), by one real FFT;
    a caller that reuses `lags` passes lags_hat = _lags_hat(lags, half, len(seq))."""
    L = _fft_len(len(seq), len(lags), half)
    if lags_hat is None:
        lags_hat = _lags_hat(lags, half, len(seq))
    return irfft(rfft(seq, L) * lags_hat, L)[:len(seq)]


def _lags_hat(lags: np.ndarray, half: int, nseq: int) -> np.ndarray:
    """rfft of the lags m, |m| < nseq, that reach an output, m at index m mod L."""
    lo, hi = max(0, half - nseq + 1), min(len(lags), half + nseq)
    placed = np.zeros(_fft_len(nseq, len(lags), half))
    placed[(np.arange(lo, hi) - half) % len(placed)] = lags[lo:hi]
    return rfft(placed)


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
    """Evaluator for phi_ell(xi) of several sectors at once.  From _NEAR_XI on,
    phi_ell is the exponential sum 2^{alpha/2} sum_k d_k e^{-(alpha/2+k) xi},
    d_k in closed form (`_init_series`), which `_moment_tables` integrates
    over grid cells in closed form.  Below, a subtracted scheme: a [1,2]
    Gauss-Jacobi piece plus a Taylor series whose singular moments
    int_0^1 u^a (c+u)^{-alpha/2} du (c = cosh xi - 1) obey a stable upward
    recurrence from a first moment on shared panel sums (`_init_m_start`).
    By Funk-Hecke, ell enters only through the Gegenbauer weights, so the
    sectors share every power matrix, moment and exponential; each adds its
    weights, Taylor coefficients and d_k.  Row j of a result is sector ells[j]."""

    def __init__(self, N: int, alpha: float, ells: tuple[int, ...]):
        self.N, self.alpha, self.ells = N, float(alpha), tuple(ells)
        self.beta = (N - 1) / 2.0
        self.a0 = self.beta - 1.0
        gcoefs = [_gegenbauer_coeffs(ell, N) for ell in self.ells]
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
        self._init_m_start(0)

    # -- far field: exponential sum -------------------------------------------
    def _init_series(self) -> None:
        """With z = e^{-xi}, cosh xi - t = (1 - 2tz + z^2) / (2z), so the
        generating function (1 - 2tz + z^2)^{-a} = sum_k C_k^{(a)}(t) z^k
        (DLMF 18.12.4), a = alpha/2, gives phi_ell(xi) = 2^a sum_k d_k
        e^{-(a+k) xi}, d_k = int C_k^{(a)} G_ell (1-t^2)^{lam-1/2} dt with
        lam = (N-2)/2.  The connection formula (DLMF 18.18.16) and the
        orthogonality of the C^{(lam)} leave, for k = ell + 2j, one cumulative
        product, d_k = B(1/2, lam+1/2) (a-lam)_j/j! (a)_{ell+j}/(lam+1)_{ell+j},
        and d_k = 0 otherwise; at xi = _NEAR_XI, where the sum converges
        slowest, the terms may cancel by at most _SERIES_MAX_CANCEL.  |d_k| z^k /
        B(1/2, lam+1/2) <= b_k = (2a)_k z^k / k! (DLMF 18.14.4, |G_ell| <= 1), whose
        ratios fall to z: the tail from K is at most b_K / (1 - max(b_{K+1}/b_K, z)).
        Band b gives each sector the first K with it below eps/16 of d_ell z^ell at its edge."""
        a, lam = self.alpha / 2, (self.N - 2) / 2
        xi, n = np.array(_SERIES_EDGES)[:, None], 256
        first = [math.prod((a + i) / (lam + 1 + i) for i in range(ell)) for ell in self.ells]
        lead = np.log(first)[:, None] - np.outer(self.ells, _SERIES_EDGES)   # log d_ell z^ell / B
        while True:
            k = np.arange(n)
            growth = (2 * a + k) / (k + 1)
            log_term = np.concatenate([[0.0], np.cumsum(np.log(growth[:-1]))]) - k * xi
            sup = np.maximum(growth, 1.0) * np.exp(-xi)
            with np.errstate(divide="ignore", invalid="ignore"):   # sup >= 1 fails
                done = (sup < 1) & (log_term - np.log1p(-sup) <= _LOG_TAIL + lead[:, :, None])
            if np.all(np.any(done, axis=2)):
                break
            n *= 2
        self._terms = np.argmax(done, axis=2)    # (sector, band), falling with the band
        K = self._terms[:, 0].max()
        self._coef = np.zeros((len(self.ells), K))
        for row, ell, first_ell in zip(self._coef, self.ells, first):
            j = np.arange((K - 1 - ell) // 2)
            steps = (a - lam + j) / (j + 1) * (a + ell + j) / (lam + 1 + ell + j)
            d0 = 2.0 ** a * beta(0.5, lam + 0.5) * first_ell
            row[ell::2] = d0 * np.cumprod(np.concatenate([[1.0], steps]))
        self._rates = a + np.arange(K)
        terms = self._coef * math.exp(-_NEAR_XI) ** np.arange(K)
        with np.errstate(divide="ignore", invalid="ignore"):   # a 0/0 is rejected below
            cancel = np.max(np.sum(np.abs(terms), axis=1) / np.abs(np.sum(terms, axis=1)))
        if not cancel <= _SERIES_MAX_CANCEL:
            raise NumericsError(
                f"far-field series at (N, alpha) = ({self.N}, {self.alpha}) cancels by "
                f"{cancel:.3g} > {_SERIES_MAX_CANCEL:g} at xi = {_NEAR_XI}")

    def _series(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_k weights[j, :, k] e^{-(a+k) x} of each sector j for ascending
        x >= _NEAR_XI, on its first _terms[j, b] terms in band b of _SERIES_EDGES:
        one product per sector, so its bits do not depend on the batch."""
        out = np.empty(weights.shape[:2] + x.shape)
        cuts = list(np.searchsorted(x, _SERIES_EDGES[1:]))
        for lo, hi, Ks in zip([0] + cuts, cuts + [len(x)], self._terms.T):
            geo = np.exp(-np.outer(self._rates[:Ks.max()], x[lo:hi]))
            for row, w, K in zip(out, weights, Ks):
                row[:, lo:hi] = w[:, :K] @ geo[:K]
        return out

    # -- near branch --------------------------------------------------------
    def _init_m_start(self, panels: int) -> None:
        """Sums on the first `panels` panels, shared by every `_m_start` node.
        With sigma = alpha/2 - a0 - 1 and w = c/u, M_{a0}(c) = c^{-sigma} [A0 +
        int_c^1 w^{sigma-1} (1+w)^{-alpha/2} dw], with a c-free integrand.  In
        x = log w it is integrated once, on 12 Gauss nodes per panel
        [T_{i+1}, T_i], T_i = -_M_PANEL i, as J_i = int e^{sigma (x - T_{i+1})}
        (1+e^x)^{-alpha/2} dx.  The sums
            C_j = e^{-lam T_j} int_{T_j}^0 e^{sigma x} (1+e^x)^{-alpha/2} dx
                = sum_{i<j} e^{(sigma-lam) T_{i+1}} e^{lam (T_{i+1} - T_j)} J_i
        keep each exponent small where its term is large: lam = 0 for
        sigma >= 0, where the panels near 0 dominate, and lam = sigma for
        sigma < 0, where those near T_j dominate and the unscaled sum would
        overflow at the c-floor.  A prefix scan by doubling forms them, so each
        C_j is a tree of at most ten additions rather than a running sum of
        hundreds, and each factor e^{lam _M_PANEL k} comes from its exponent."""
        sig = self.sigma = self.alpha / 2 - self.a0 - 1
        lam = min(sig, 0.0)
        s = (_GL_X + 1) / 2 * _M_PANEL                   # offsets within a panel
        x = _M_PANEL * np.arange(1, panels + 1)          # -T_{i+1}, exact
        vals = np.exp(sig * s) * (1 + np.exp(s - x[:, None])) ** (-self.alpha / 2)
        # einsum, not gemv: row bits, and with the scan each C_j, do not depend on `panels`
        sums = np.exp((lam - sig) * x) * np.einsum("ij,j->i", vals, _GL_W) * (_M_PANEL / 2)
        k = 1
        while k < panels:
            sums[k:] = sums[k:] + np.exp(lam * _M_PANEL * k) * sums[:-k]
            k *= 2
        self._m_sums = np.concatenate([[0.0], sums])

    def _m_start(self, c: np.ndarray) -> np.ndarray:
        """M_{a0}(c) = int_0^1 u^{a0} (c+u)^{-alpha/2} du from the shared panel
        sums (`_init_m_start`, out to the deepest j asked for): with
        j = floor(-log(c) / _M_PANEL) and R = e^{T_j}/c in [1, e^{_M_PANEL}),
            M = c^{-sigma} A0 + s_j C_j + int_0^{log R} e^{sigma v} (1 + c e^v)^{-alpha/2} dv,
        s_j = c^{-sigma} or R^sigma as C_j is unscaled or scaled, the last
        integral on 12 Gauss nodes.  R comes from e^{T_j} and c, not from
        log c, whose rounding would carry into R^sigma."""
        al, sig = self.alpha, self.sigma
        j = np.clip(np.floor(np.log(c) / -_M_PANEL), 0, _M_PANELS).astype(np.intp)
        if j.max(initial=0) >= len(self._m_sums):
            self._init_m_start(int(j.max()))
        R = np.exp(-_M_PANEL * j) / c
        lnR = np.log(R)
        v = lnR[:, None] * ((_GL_X + 1) / 2)
        rest = (np.exp(sig * v) * (1 + c[:, None] * np.exp(v)) ** (-al / 2)) @ _GL_W * (lnR / 2)
        head = c ** -sig
        return head * self._A0 + (head if sig >= 0 else R ** sig) * self._m_sums[j] + rest

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
        order = np.argsort(xi, axis=None)    # ascending, as `_series` needs
        xs = xi.ravel()[order]
        n = np.searchsorted(xs, _NEAR_XI)
        out = np.empty((len(self.ells), xs.size))
        out[:, order] = np.hstack([self._near(xs[:n]),
                                   self._series(xs[n:], self._coef[:, None])[:, 0]])
        return out.reshape((len(self.ells),) + xi.shape)


def _moment_tables(profile: KernelProfile, h: float, nlag: int) -> np.ndarray:
    """Monomial moment tables P[j, d, m] = kappa int_0^1 phi((m+eta)h) eta^d deta,
    kappa = omega_{N-2} 2^{-alpha/2} (Funk-Hecke), for every sector j of the
    profile and cells m < nlag, from one profile call
    that the sectors share, on the regular cells 1 <= m < ceil(_NEAR_XI / h)
    and the singular cell's graded rule together.  The cells beyond, all but
    a few dozen, integrate the exponential sum in closed form, one matrix
    product per band of the d_k-weighted cell integrals with the geometric
    sequences e^{-(a+k) mh}."""
    D = _MOMENT_DEGREE + 1
    P = np.zeros((len(profile.ells), D, nlag))
    eta = (_GL_X + 1) / 2
    wtab = np.array([_GL_W / 2 * eta ** d for d in range(D)])   # (D, 12)
    m_far = min(max(1, math.ceil(_NEAR_XI / h)), nlag)
    ms = np.arange(1, m_far)
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
    regular = ((ms[:, None] + eta) * h).ravel()
    vals = profile(np.concatenate([regular, h * np.exp(t)]))
    for Pj, v in zip(P, vals[:, :regular.size]):
        Pj[:, 1:m_far] = wtab @ v.reshape(len(ms), len(eta)).T
    wt = np.tile(_GL_W, K) * (-t_lo / (2 * K)) * vals[:, regular.size:]
    powers = np.exp(np.outer(np.arange(1, D + 1), t))
    for Pj, w in zip(P, wt):
        Pj[:, 0] = powers @ w
    if t_lo > -T:   # only for N - alpha < 0.12, where pw < -0.88
        q = pw + 1 + np.arange(D)
        P[:, :, 0] += 2 ** (a0 - pw / 2) * beta(a0 + 1, -pw / 2) * h ** pw * np.exp(q * t_lo) / q
    # from _NEAR_XI on, each exponential term integrates in closed form,
    # int_0^1 e^{-c eta} eta^d deta = 1F1(d+1; d+2; -c) / (d+1)
    d = np.arange(D)
    E = hyp1f1(d + 1, d + 2, -h * profile._rates[:, None]) / (d + 1)      # (K, D)
    P[:, :, m_far:] = profile._series(np.arange(m_far, nlag) * h, profile._coef[:, None] * E.T)
    return sphere_area(profile.N - 1) * 2.0 ** (-profile.alpha / 2) * P


def _toeplitz_weights(P: np.ndarray, h: float) -> tuple[np.ndarray, int]:
    """The symmetric Toeplitz weights w, exact for piecewise-cubic psi, of one sector's
    moment table P over nlag cells, and w's lag 0, M: lags |m| <= nlag - 2 are complete."""
    nlag = P.shape[1]
    wpos = np.zeros(nlag + 3)                      # lags -1 .. nlag+1
    contrib = h * (_LAGRANGE4 @ P[:4])             # (4, nlag): weight vs (nu, cell)
    for j, nu in enumerate((-1, 0, 1, 2)):
        wpos[1 + nu:1 + nu + nlag] += contrib[j]
    M = nlag + 1                                   # w[M + m] = wpos[1 + m] + wpos[1 - m]
    w = np.zeros(2 * M + 1)
    w[M - 1:] += wpos
    w[:M + 2] += wpos[::-1]
    return w, M


def _check_ells(ells) -> list[int]:
    """The sectors ells as ints, each in 0..MAX_ELL, else a ValidationError."""
    ells = [_as_int("ell", ell) for ell in ells]
    for ell in ells:
        if not (0 <= ell <= MAX_ELL):
            raise ValidationError(f"ell must lie in 0..{MAX_ELL}, got {ell}")
    return ells


_kernel_cache: OrderedDict[tuple, "AngularKernel"] = OrderedDict()   # LRU, most recent last


@dataclass(eq=False)
class AngularKernel:
    """Degree-ell projected Riesz kernel on one grid,
    k_ell(r, s) = kappa (r s)^{-alpha/2} phi_ell(log r - log s), as product
    integration over the nlag cells of the padded log grid.  Its moment table
    P (`_moment_tables`, cells of width h = grid.h) carries the Funk-Hecke
    factor kappa = omega_{N-2} 2^{-alpha/2}, and so does everything formed
    from it: `weights`, the symmetric Toeplitz weight sequence exact for
    piecewise-cubic psi with lag 0 at index `half`, transformed on first use,
    and the exponential cell integrals of step (jump) fields.  `apply`
    integrates a field against the kernel; nothing dense of size n x n is kept."""
    ell: int
    params: Params
    grid: RadialGrid
    P: np.ndarray
    npad: int

    def __post_init__(self):
        self.nlag = self.P.shape[1]
        self.weights, self.half = _toeplitz_weights(self.P, self.grid.h)
        self._L = _fft_len(self.nlag, len(self.weights), self.half)

    @cached_property
    def _weights_hat(self) -> np.ndarray:   # every psi spans the nlag padded nodes
        return _lags_hat(self.weights, self.half, self.nlag)

    def convolve(self, psi: np.ndarray) -> np.ndarray:
        return _lag_convolve(psi, self.weights, self.half, self._weights_hat)

    @cached_property
    def symbol(self) -> np.ndarray:
        """s with psi_f @ convolve(psi_g) = sum_k s_k Re(conj(F_k) G_k), F, G =
        rfft(psi, L): by Parseval, as `convolve` does not wrap, the form is
        sum_k conj(F_k) W_k G_k / L on the full spectrum, W = `_weights_hat`,
        real as the weights, placed about lag 0, are symmetric."""
        s = self._weights_hat.real / self._L
        s[1:(self._L + 1) // 2] *= 2
        return s

    def form(self, psi_f: np.ndarray, psi_g: np.ndarray) -> float:
        """psi_f @ convolve(psi_g) by Parseval: one rfft if psi_g is psi_f."""
        F = rfft(psi_f, self._L)
        G = F if psi_g is psi_f else rfft(psi_g, self._L)
        return float(self.symbol @ (F.conj() * G).real)

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
        # psi overflows on a wide grid; the non-finite result is rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.convolve(psi)[self.npad:self.npad + g.n]
            for b, drop in f.jumps:
                out = out + drop * self._step_values(b)
            res = np.exp(-p.alpha / 2 * g.x) * out
        if not np.all(np.isfinite(res)):
            raise NumericsError("Riesz potential quadrature produced non-finite values")
        return res

    def _step_values(self, b: int) -> np.ndarray:
        """Convolution contribution of the unit step 1_{r <= r_b}: cells are
        integrated against the exact exponential, immune to the jump.  The lag
        table holds CE(m, -gam) at lags m >= 0, CE(m, c) = int_0^1
        phi((m+eta)h) e^{c eta h} deta a power series in the moments P, and
        e^{-gam h} CE(-1-m, gam) at lags m < 0, continued by reflection."""
        p, g, nlag = self.params, self.grid, self.nlag
        gam = p.N - p.alpha / 2
        d = np.arange(len(self.P))
        coef = (np.array([[-gam], [gam]]) * g.h) ** d / [math.factorial(k) for k in d]
        ce_pos, ce_neg = coef @ self.P
        ce = np.concatenate([math.exp(-gam * g.h) * ce_neg[::-1], ce_pos])   # lags -nlag .. nlag-1
        xe = self.x_extended()
        seq = np.zeros(len(xe))
        nb = self.npad + b
        seq[1:nb + 1] = np.exp(gam * xe[1:nb + 1])
        return _lag_convolve(seq, ce, nlag)[self.npad:self.npad + g.n] * g.h


def angular_kernels(p: Params, ells, grid: RadialGrid) -> list[AngularKernel]:
    """The sector kernels for each ell in ells on this grid, in request order.
    Those not in the LRU cache of the last _KERNEL_CACHE_SIZE kernels are
    built together from one profile evaluation; every returned kernel is
    filed as most recent."""
    ells = _check_ells(ells)
    keys = [(p.N, p.alpha, ell, grid.key()) for ell in ells]
    missing = tuple(dict.fromkeys(ell for ell, key in zip(ells, keys)
                                  if key not in _kernel_cache))
    built = {}
    if missing:
        npad = grid.n + 7   # the grid spans (n - 1) h; pad by that plus 8 nodes
        moments = _moment_tables(KernelProfile(p.N, p.alpha, missing), grid.h, grid.n + 2 * npad)
        for ell, P in zip(missing, moments):
            built[ell] = AngularKernel(ell=ell, params=p, grid=grid, P=P, npad=npad)
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
    _reject_jumps("interaction_energy", f, g)
    gr = f.grid
    if g.grid is not gr and g.grid.key() != gr.key():
        raise ValidationError("interaction_energy requires fields on the same grid")
    kernel = angular_kernel(p, 0, gr)
    psi_f = kernel.extend_psi(f, f.values, f.head_value)
    psi_g = psi_f if g is f else kernel.extend_psi(g, g.values, g.head_value)
    with np.errstate(over="ignore", invalid="ignore"):   # rejected below
        val = kernel.form(psi_f, psi_g)
    if not math.isfinite(val):
        raise NumericsError(f"interaction energy is not finite ({val}) on this grid")
    return sphere_area(p.N) * gr.h * val

