import gc
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec
from scipy.special import gegenbauer as scipy_gegenbauer

import nlsobolev as nl
from nlsobolev import riesz
from nlsobolev.errors import DivergentTailError, NumericsError, ValidationError
from conftest import bump_field, cold_grid, memo_entries, src_env, unit_bubble


def funk_hecke_factor(p):
    """kappa = omega_{N-2} 2^{-alpha/2}, which the kernels' moment tables carry."""
    return nl.sphere_area(p.N - 1) * 2.0 ** (-p.alpha / 2)


def pointwise_table(kern):
    """Dense pointwise kernel k_ell(r_i, s_j) = omega_{N-2} (2 r_i s_j)^{-alpha/2}
    phi_ell(|x_i - x_j|) on the kernel's grid; the diagonal is phi_ell(0) as the
    production profile evaluates it."""
    g, p = kern.grid, kern.params
    xi = np.abs(g.x[:, None] - g.x[None, :])
    vals = riesz.KernelProfile(p.N, p.alpha, (kern.ell,))(xi.ravel())[0].reshape(xi.shape)
    return nl.sphere_area(p.N - 1) * (2.0 * g.nodes[:, None] * g.nodes[None, :]) \
        ** (-p.alpha / 2) * vals


def riesz_identity_exact(p, r):
    """|x|^{-alpha} * (1+|x|^2)^{-(2N-alpha)/2} =
    pi^{N/2} Gamma((N-alpha)/2)/Gamma(N-alpha/2) (1+|x|^2)^{-alpha/2}."""
    N, al = p.N, p.alpha
    I = math.pi ** (N / 2) * nl.gamma_fn((N - al) / 2) / nl.gamma_fn(N - al / 2)
    return I * (1 + r * r) ** (-al / 2)


@pytest.mark.parametrize("N,alpha", [(3, 2.0), (4, 2.0), (6, 4.0), (5, 4.5)])
def test_potential_of_lieb_profile(N, alpha):
    p = nl.make_params(N, alpha)
    g = nl.make_log_grid(1e-3, 1e3, 2048)
    f = nl.RadialField(grid=g, values=(1 + g.nodes ** 2) ** (-(2 * N - alpha) / 2),
                       tail_exponent=2.0 * N - alpha, head_value=1.0)
    pot = nl.riesz_potential(f, p, 0)
    exact = riesz_identity_exact(p, g.nodes)
    assert np.max(np.abs(pot.values - exact) / exact) < 1e-6


def newton_indicator_exact(N, r):
    om = nl.sphere_area(N)
    mr = np.minimum(r, 1.0)
    return om * (r ** (2.0 - N) * mr ** N / N + (1 - mr ** 2) / 2)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_newton_indicator(N):
    p = nl.make_params(N, float(N - 2))
    g = nl.make_log_grid(1e-3, 1e3, 1025)
    pot = nl.riesz_potential(nl.indicator_field(g, 1.0), p, 0)
    exact = newton_indicator_exact(N, g.nodes)
    assert np.max(np.abs(pot.values - exact) / exact) < 1e-6


def test_kernel_homogeneity_and_symmetry(p32, p42):
    # grid with nodes at exact powers of 2: k(2r, 2s) = 2^{-alpha} k(r, s)
    for p in (p42, p32):
        g = nl.make_log_grid(0.5, 8.0, 129)
        tab = pointwise_table(nl.angular_kernel(p, 0, g))
        iu, ju = np.triu_indices(g.n, k=1)  # off the diagonal, singular when alpha >= N-1
        scale = np.max(np.abs(tab[iu, ju]))
        assert np.max(np.abs(tab[iu, ju] - tab[ju, iu])) <= 1e-12 * scale
        off = ~np.eye(g.n, dtype=bool)
        i1, j1 = g.index_of(1.0), g.index_of(2.0)
        i2, j2 = g.index_of(2.0), g.index_of(4.0)
        assert tab[i2, j2] == pytest.approx(2.0 ** (-p.alpha) * tab[i1, j1], rel=1e-12)
        assert tab[off].min() > 0 and tab.min() > 0   # ell = 0 kernel positive
    # alpha >= N-1: the profile is unbounded at xi = 0, so it grows as xi shrinks
    prof = riesz.KernelProfile(p32.N, p32.alpha, (0,))
    assert np.all(np.diff(prof(np.logspace(-3, -12, 10))[0]) > 0)


def test_newton_kernel_closed_form(p31):
    # alpha = N-2, ell = 0: k_0(r,s) = omega_{N-1} max(r,s)^{-(N-2)}
    g = nl.make_log_grid(1e-2, 1e2, 257)
    tab = pointwise_table(nl.angular_kernel(p31, 0, g))
    om = nl.sphere_area(3)
    idx = [10, 60, 128, 200, 250]
    for i in idx:
        for j in idx:
            exact = om * max(g.nodes[i], g.nodes[j]) ** (-1.0)
            assert tab[i, j] == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("N,alpha,ell",
                         [pytest.param(5, 2.7, ell, id=str(ell)) for ell in (1, 2, 3)]
                         + [(N, alpha, ell) for N in (3, 4, 5, 6)
                            for alpha in (0.5, N - 2.0, N - 1.0, N - 0.95)
                            for ell in (0, 1, 2, 3)])
def test_kernel_vs_angular_quadrature_oracle(N, alpha, ell):
    """Direct polar-angle quadrature of int |r e1 - s w|^{-alpha} G_ell(w1) dw,
    with the Gegenbauer polynomial taken from scipy for independence; checks
    the Funk-Hecke normalization omega_{N-2} of every sector."""
    p = nl.make_params(N, alpha)
    g = nl.make_log_grid(1e-2, 1e2, 129)
    tab = pointwise_table(nl.angular_kernel(p, ell, g))
    Gl = scipy_gegenbauer(ell, (N - 2) / 2.0)
    norm = Gl(1.0)
    om2 = nl.sphere_area(N - 1)
    rng = np.random.default_rng(5)
    for _ in range(4):
        i, j = rng.integers(10, 119, size=2)
        while i == j:   # off the diagonal, where the oracle integrand is singular
            i, j = rng.integers(10, 119, size=2)
        r, s = g.nodes[i], g.nodes[j]

        def f(th):
            ct = math.cos(th)
            return ((r * r + s * s - 2 * r * s * ct) ** (-alpha / 2)
                    * Gl(ct) / norm * math.sin(th) ** (N - 2))

        oracle = om2 * quad(f, 0, math.pi, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        assert tab[i, j] == pytest.approx(oracle, rel=1e-6)


def test_potential_scaling(p42, grid_default):
    # potential of F(lam .) at r equals lam^{alpha-N} (potential of F)(lam r);
    # lam = e^{k h} near 3 puts lam r_i on node i + k, so both sides are node arrays
    g = grid_default
    N, al = p42.N, p42.alpha
    k = round(math.log(3.0) / g.h)
    lam = math.exp(k * g.h)
    ts = p42.two_star_alpha
    pot = nl.riesz_potential(nl.field_abs_pow(unit_bubble(p42, g), ts), p42, 0)
    # F(lam r) = U(lam r)^ts = (lam^{-(N-2)/2} U_lam(r))^ts
    F_lam = nl.field_abs_pow(unit_bubble(p42, g, lam, c=lam ** (-(N - 2) / 2)), ts)
    lhs = nl.riesz_potential(F_lam, p42, 0).values[400:1400]
    pot_at = pot.values[400 + k:1400 + k]   # pot(lam r)
    assert np.max(np.abs(lhs - lam ** (al - N) * pot_at) / np.abs(lhs)) < 1e-6


def test_euler_lagrange_potential_identity(p32, grid_default):
    # (|x|^{-alpha} * U^{2*_a}) U^{2*_a - 2} = N(N-2) (1+r^2)^{-2}
    U = unit_bubble(p32, grid_default)
    ts = p32.two_star_alpha
    pot = nl.riesz_potential(nl.field_abs_pow(U, ts), p32, 0)
    W = pot.values * U.values ** (ts - 2.0)
    exact = p32.N * (p32.N - 2) * (1 + grid_default.nodes ** 2) ** (-2.0)
    assert np.max(np.abs(W - exact) / exact) < 1e-6


def test_divergent_tail_signaled(p32, grid_default):
    # bare bubble decays like r^{-(N-2)}: not integrable against the kernel at alpha=2, N=3
    U = unit_bubble(p32, grid_default)
    with pytest.raises(DivergentTailError):
        nl.riesz_potential(U, p32, 0)


def test_ell_out_of_range(p32, grid_default):
    with pytest.raises(ValidationError):
        nl.angular_kernel(p32, 4, grid_default)


@pytest.mark.parametrize("ell", [1.0, 2.5, True])
@pytest.mark.parametrize("call", ["kernel", "kernels", "potential"])
def test_non_integer_ell_rejected(p32, grid_default, call, ell):
    # a float sector used to fail with a raw TypeError, and True passed as sector 1
    with pytest.raises(ValidationError, match="ell must be an integer"):
        if call == "kernel":
            nl.angular_kernel(p32, ell, grid_default)
        elif call == "kernels":
            nl.angular_kernels(p32, (0, ell), grid_default)
        else:
            nl.riesz_potential(bump_field(grid_default, 0.0, 1.0), p32, ell)


def test_interaction_energy_symmetric(p42, grid_1024):
    g = grid_1024
    f = bump_field(g, -0.4, 0.8, 1.3)
    h = bump_field(g, 0.6, 0.5, -0.7)
    e1 = nl.interaction_energy(f, h, p42)
    e2 = nl.interaction_energy(h, f, p42)
    assert e1 == pytest.approx(e2, rel=1e-10)


def test_interaction_energy_gaussians_vs_bruteforce():
    """Two Gaussian densities against a direct double quadrature.  For N = 3
    the polar-angle integral is elementary,
    int_{-1}^{1} (r^2+s^2-2rsu)^{-a/2} du
        = ((r+s)^{2-a} - |r-s|^{2-a}) / (2rs(1-a/2)),
    leaving a nested adaptive (r, s) integral with a kink at s = r."""
    N, al = 3, 1.5
    p = nl.make_params(N, al)
    g = nl.make_log_grid(1e-3, 12.0, 1024)
    a_, b_ = 1.0, 2.5
    f = nl.RadialField(grid=g, values=np.exp(-a_ * g.nodes ** 2),
                       tail_exponent=np.inf, head_value=1.0)
    h = nl.RadialField(grid=g, values=np.exp(-b_ * g.nodes ** 2),
                       tail_exponent=np.inf, head_value=1.0)
    val = nl.interaction_energy(f, h, p)
    om, om2 = nl.sphere_area(N), nl.sphere_area(N - 1)

    def theta_int(r, s):
        return (((r + s) ** (2 - al) - abs(r - s) ** (2 - al))
                / (2 * r * s * (1 - al / 2)))

    def inner(r):
        fi = lambda s: math.exp(-b_ * s * s) * s * s * theta_int(r, s)
        v1 = quad(fi, 0.0, r, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
        v2 = quad(fi, r, 8.0, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
        return v1 + v2

    brute = om * om2 * quad(lambda r: math.exp(-a_ * r * r) * r * r * inner(r),
                            0.0, 8.0, epsabs=1e-12, epsrel=1e-9, limit=200)[0]
    assert val == pytest.approx(brute, rel=1e-6)


def test_interaction_positive_definite(p42, grid_1024):
    rng = np.random.default_rng(17)
    for _ in range(5):
        vals = rng.normal(size=grid_1024.n) * np.exp(-0.5 * (grid_1024.x / 1.5) ** 2)
        f = nl.RadialField(grid=grid_1024, values=vals, tail_exponent=np.inf,
                           head_value=float(vals[0]))
        assert nl.interaction_energy(f, f, p42) >= 0.0


def test_potential_monotone_for_monotone_density(p42, grid_1024):
    f = nl.field_abs_pow(unit_bubble(p42, grid_1024), p42.two_star_alpha)
    pot = nl.riesz_potential(f, p42, 0)
    assert np.all(np.diff(pot.values) <= 1e-12 * pot.values[0])


def test_hls_form_bounds(p42, grid_1024):
    """Form bounds behind the first-eigenvalue argument: for unit-gradient v,
    <T(Pv), Pv> <= 1 and <W v, v> <= 1, with equality only at v = U."""
    p, g = p42, grid_1024
    N, ts = p.N, p.two_star_alpha
    U = unit_bubble(p, g)
    P = nl.field_abs_pow(U, ts - 1.0)
    W = nl.riesz_potential(nl.field_abs_pow(U, ts), p, 0).values \
        * U.values ** (ts - 2.0)
    rng = np.random.default_rng(23)
    fields = [U] + [bump_field(g, rng.uniform(-1, 1), rng.uniform(0.4, 1.2))
                    for _ in range(3)]
    for i, v in enumerate(fields):
        nrm = math.sqrt(nl.h1_inner(v, v, 0, N))
        vv = nl.RadialField(grid=g, values=v.values / nrm,
                            tail_exponent=v.tail_exponent, head_value=v.head_value / nrm)
        pv = nl.RadialField(grid=g, values=P.values * vv.values,
                            tail_exponent=P.tail_exponent + vv.tail_exponent,
                            head_value=P.head_value * vv.head_value)
        t_form = nl.interaction_energy(pv, pv, p)
        w_form = nl.integrate(nl.RadialField(grid=g, values=W * vv.values ** 2,
                                             tail_exponent=np.inf, head_value=0.0), N)
        assert t_form <= 1.0 + 1e-6
        assert w_form <= 1.0 + 1e-6
        if i == 0:   # v proportional to U saturates the T-form bound
            assert t_form == pytest.approx(1.0, rel=1e-6)
        else:
            assert t_form < 1.0 - 1e-3


@pytest.mark.parametrize("module", ["scipy.signal", "scipy.integrate",
                                    "scipy.interpolate"])
def test_import_skips_scipy_module(module):
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, nlsobolev; print({module!r} in sys.modules)"],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("N,alpha,ell", [(N, alpha, ell) for N in (3, 4, 5, 6)
                                         for alpha in (0.5, N - 2.0, N - 1.0, N - 0.95)
                                         for ell in (0, 3)])
def test_singular_cell_matches_adaptive_oracle(N, alpha, ell):
    """The graded rule's singular-cell moments P[d, 0] = int_0^1 phi(h eta)
    eta^d deta against adaptive Gauss-Kronrod on [0, h] in the original
    variable, through the alpha >= N-1 range where phi is unbounded."""
    g = nl.make_log_grid(1e-2, 1e2, 129)
    p = nl.make_params(N, alpha)
    kern = nl.angular_kernel(p, ell, g)
    profile = riesz.KernelProfile(N, alpha, (ell,))
    h, powers = g.h, np.arange(kern.P.shape[0])
    ref = quad_vec(lambda s: profile(s)[0, 0] * (s / h) ** powers, 0.0, h,
                   epsabs=0.0, epsrel=1e-12, limit=400, quadrature="gk15")[0] / h
    assert np.max(np.abs(kern.P[:, 0] / funk_hecke_factor(p) / ref - 1)) <= 1e-11


@pytest.mark.parametrize("alpha", [2.9, 2.99])
def test_singular_cell_near_alpha_N_closed_form(alpha):
    """N = 3, ell = 0 has phi(xi) = ((c+2)^b - c^b)/b, c = 2 sinh^2(xi/2),
    b = 1 - alpha/2.  As alpha -> N the graded rule's depth falls below the
    near branch's c-floor and is finished by the leading term; the moments
    must still match a 40-digit integral of the closed form."""
    mp = pytest.importorskip("mpmath")
    g = nl.make_log_grid(1e-3, 1e3, 1025)
    p = nl.make_params(3, alpha)
    P0 = nl.angular_kernel(p, 0, g).P[:, 0] / funk_hecke_factor(p)

    def moment(d):
        h, b = mp.mpf(g.h), 1 - mp.mpf(alpha) / 2
        pw = 2 - mp.mpf(alpha)          # phi ~ xi^pw; xi = h v^{1/(pw+1)} absorbs it

        def f(v):
            xi = h * v ** (1 / (pw + 1))
            c = 2 * mp.sinh(xi / 2) ** 2
            return ((c + 2) ** b - c ** b) / b * xi ** -pw * v ** (d / (pw + 1))
        return mp.quad(f, [0, mp.mpf(10) ** -30, mp.mpf(10) ** -10, 1]) * h ** pw / (pw + 1)

    with mp.workdps(40):
        ref = np.array([float(moment(d)) for d in range(len(P0))])
    assert np.max(np.abs(P0 / ref - 1)) <= 1e-12


@pytest.mark.parametrize("N,alpha", [(6, 1.0), (4, 0.5), (3, 2.0), (3, 2.0 + 1e-10),
                                     (3, 2.0 - 1e-10), (4, 1.0 + 1e-9), (3, 2.999), (4, 3.02)])
def test_m_start_matches_hypergeometric(N, alpha):
    """The near branch's first singular moment M_{a0}(c) = int_0^1 u^{a0}
    (c+u)^{-alpha/2} du = c^{-alpha/2} / (a0+1) 2F1(alpha/2, a0+1; a0+2; -1/c)
    against 40-digit mpmath, from the c-floor to past the branch's largest c
    and on both sides of panel edges e^{-1.5 j}, for sigma = alpha/2 - a0 - 1
    below 0 (where unscaled panel sums overflow), at and within 1e-10 of 0,
    near -1 and above 0."""
    mp = pytest.importorskip("mpmath")
    edges = np.exp(-1.5 * np.array([2.0, 7.0, 100.0, 400.0]))
    c = np.concatenate([np.geomspace(riesz._C_FLOOR, 0.06, 40), edges * (1 - 1e-15),
                        edges * (1 + 1e-15)])
    profile = riesz.KernelProfile(N, alpha, (0,))
    with mp.workdps(40):
        a0, a = mp.mpf(N - 3) / 2, mp.mpf(alpha) / 2
        ref = np.array([float(mp.mpf(ci) ** -a / (a0 + 1)
                              * mp.hyp2f1(a, a0 + 1, a0 + 2, -1 / mp.mpf(ci))) for ci in c])
    assert np.max(np.abs(profile._m_start(c) / ref - 1)) <= 1e-14


@pytest.mark.parametrize("N,alpha", [(3, 0.5), (4, 3.02), (6, 5.04), (12, 7.0)])
def test_regular_cells_match_funk_hecke_oracle(N, alpha):
    """Moments P[d, m] = int_0^1 phi_ell((m+eta)h) eta^d deta of cells m >= 1
    in sectors 0-3 against nested adaptive quadrature of the Funk-Hecke
    t-integral (QAWS in t, Gegenbauer polynomials from scipy): cells on both
    sides of the near branch's end, where the exponential sum begins, and of
    its last term-count band edge, and a deep cell where the sum's higher
    terms e^{-(alpha/2+k) mh} underflow.  N = 12 needs the most terms."""
    g = nl.make_log_grid(1e-3, 1e60, 512)
    ells = (0, 1, 2, 3)
    p = nl.make_params(N, alpha)
    kerns = nl.angular_kernels(p, ells, g)
    h, a0, a = g.h, (N - 3) / 2, alpha / 2
    gegs = [scipy_gegenbauer(ell, (N - 2) / 2.0) for ell in ells]
    powers = np.arange(kerns[0].P.shape[0])

    def phi(xi):
        chi = math.cosh(xi)
        out = []
        for G in gegs:
            scale = abs(out[0]) * 1e-14 if out else 0.0
            out.append(quad(lambda t: (chi - t) ** -a * G(t) / G(1.0), -1, 1, weight="alg",
                            wvar=(a0, a0), epsabs=scale, epsrel=2e-14, limit=200)[0])
        return np.array(out)

    m_near = math.ceil(riesz._NEAR_XI / h)
    m_band = math.ceil(riesz._SERIES_EDGES[-1] / h)
    m_deep = round(720 / (a + 1.5) / h)   # e^{-a mh} normal, e^{-(a+2) mh} underflows
    assert m_deep < kerns[0].nlag
    for m in (1, m_near - 1, m_near, m_near + 1, m_band - 1, m_band, m_deep):
        ref = quad_vec(lambda eta: np.outer(phi((m + eta) * h), eta ** powers), 0.0, 1.0,
                       epsabs=0.0, epsrel=2e-14, norm="max", quadrature="gk21")[0]
        got = np.array([k.P[:, m] for k in kerns]) / funk_hecke_factor(p)
        assert np.max(np.abs(got - ref)) <= 1e-12 * abs(ref[0, 0]), m


def test_cold_build_makes_few_profile_calls(monkeypatch):
    """One vector call for the regular cells of the near branch and the
    singular cell together: 12 nodes per regular cell below _NEAR_XI, where
    the exponential sum takes over, plus the graded rule's 12-node panels, and
    not 12 per cell of the whole table."""
    calls = []
    call = riesz.KernelProfile.__call__

    def counted(self, xi):
        calls.append(len(np.atleast_1d(xi)))
        return call(self, xi)

    monkeypatch.setattr(riesz.KernelProfile, "__call__", counted)
    N, alpha, g = 5, 4.02, cold_grid()
    nl.angular_kernel(nl.make_params(N, alpha), 0, g)
    assert len(calls) == 1
    singular = 12 * math.ceil(37.0 / min(1.0, N - alpha) / 0.75)
    assert sum(calls) <= 12 * math.ceil(riesz._NEAR_XI / g.h) + singular


@pytest.mark.parametrize("n,m,half", [(1, 1, 0), (7, 15, 7), (40, 17, 3), (64, 129, 64),
                                      (33, 200, 150), (10, 61, 5), (69, 40, 60), (16, 100, 20)])
def test_lag_convolve_matches_direct_sum(n, m, half):
    # the circular length needs n + m - 1 - half = 65 at (10, 61, 5) and
    # half + n = 129 at (69, 40, 60), one past a power of two, so one point
    # less would alias; (16, 100, 20) crops lags that reach no output
    rng = np.random.default_rng(n * 1000 + m)
    seq, lags = rng.normal(size=n), rng.normal(size=m)
    direct = np.array([sum(lags[half + i - j] * seq[j] for j in range(n)
                           if 0 <= half + i - j < m) for i in range(n)])
    got = riesz._lag_convolve(seq, lags, half)
    assert got.shape == (n,)
    assert np.allclose(got, direct, rtol=0, atol=1e-12 * np.sum(np.abs(lags)) * np.max(np.abs(seq)))


@pytest.mark.parametrize("n,m,half,L", [(10, 61, 5, 72), (69, 40, 60, 135), (10, 60, 5, 64),
                                        (1024, 2047, 1023, 2048), (6158, 12319, 6159, 12500)])
def test_fft_len_is_shortest_alias_free_length(n, m, half, L):
    # the outputs need max(n + m - 1 - half, half + n) points, not n + m - 1;
    # the last two are the shapes of B at n = 1024 and of the n = 2048 kernel
    assert riesz._fft_len(n, m, half) == L


@pytest.mark.parametrize("N,alpha,ell", [(4, 2.0, 0), (5, 2.7, 1), (3, 1.0, 3)])
def test_weights_exactly_symmetric(N, alpha, ell):
    kern = nl.angular_kernel(nl.make_params(N, alpha), ell, nl.make_log_grid(1e-2, 1e2, 129))
    assert len(kern.weights) == 2 * kern.half + 1
    assert np.array_equal(kern.weights, kern.weights[::-1])


def test_grid_memo_keeps_the_last_four_params():
    """Kernels, like every per-Params entry, stay in their grid's memo while
    their Params is among the last 4 it was asked for; grid-only and per-N
    entries stay."""
    bound = nl.grid._MEMO_PARAMS
    assert bound == 4   # the sweep cycles 3 pairs on one grid, cli_cold 2 grids x 4
    g = cold_grid(1e-1, 1e1, 40)
    weights = g.dirichlet_weights(4)
    ps = [nl.make_params(4, 1.0 + 0.1 * k) for k in range(bound + 3)]
    kernels = [nl.angular_kernel(p, 0, g) for p in ps]
    assert list(g._params_memo) == ps[-bound:]
    for p, k in zip(ps[::-1][:bound], kernels[::-1][:bound]):
        assert nl.angular_kernel(p, 0, g) is k
    assert list(g._params_memo) == ps[-bound:][::-1]   # least recently asked first
    assert nl.angular_kernel(ps[0], 0, g) is not kernels[0]   # evicted, rebuilt
    assert list(g._params_memo) == ps[-bound:-1][::-1] + [ps[0]]
    assert g.dirichlet_weights(4) is weights
    assert sum(key[0] == "kernels" for key in memo_entries(g)) == bound


@pytest.mark.parametrize("N,alpha", [(4, 1.5), (6, 4.0), (3, 2.0), (5, 4.03), (4, 3.02),
                                     (3, 2.99)])
def test_batch_build_is_bit_identical(N, alpha):
    """Sectors built together from one profile pass give exactly the tables
    and profile values of one-at-a-time builds; (3, 2.99) takes the
    closed-form finish of the singular cell."""
    p, g = nl.make_params(N, alpha), cold_grid(1e-2, 1e2, 129)
    ells = (0, 1, 2, 3)
    xi = np.concatenate([[0.0], np.logspace(-12, 1.5, 60), [riesz._NEAR_XI, 800.0]])
    batch = nl.angular_kernels(p, ells, g)
    batch_profile = riesz.KernelProfile(N, alpha, ells)(xi)
    assert [k.ell for k in batch] == list(ells)
    for j, (ell, kb) in enumerate(zip(ells, batch)):
        ks = nl.angular_kernel(p, ell, cold_grid(1e-2, 1e2, 129))
        assert ks is not kb
        assert np.array_equal(kb.P, ks.P)
        assert np.array_equal(kb.weights, ks.weights)
        assert np.array_equal(batch_profile[j], riesz.KernelProfile(N, alpha, (ell,))(xi)[0])


@pytest.mark.parametrize("N,alpha,ells", [(4, 1.3, (0,)), (5, 4.02, (0,)), (5, 2.3, (0, 1, 2)),
                                          (3, 2.99, (0, 1))])
def test_profile_values_do_not_depend_on_the_node_set(N, alpha, ells):
    """`_moment_tables` evaluates the regular near cells and the singular
    cell's graded rule in one call; each node's value is the one a call on
    its own part alone gives, bit for bit, and so with 1-8 more nodes in front,
    which shift the others' rows (a gemv rounds a row by its position)."""
    profile = riesz.KernelProfile(N, alpha, ells)
    h = nl.make_log_grid(1e-3, 1e3, 2048).h
    eta = (riesz._GL_X + 1) / 2
    regular = ((np.arange(1, math.ceil(riesz._NEAR_XI / h))[:, None] + eta) * h).ravel()
    singular = h * np.exp(np.linspace(0.0, -40.0, 600))
    joint = profile(np.concatenate([regular, singular]))
    assert np.array_equal(joint[:, :regular.size], profile(regular))
    assert np.array_equal(joint[:, regular.size:], profile(singular))
    for k in range(1, 9):
        shifted = profile(np.concatenate([np.full(k, 0.2), regular, singular]))
        assert np.array_equal(shifted[:, k:], joint), k


def test_batch_builds_only_missing_sectors(monkeypatch):
    built = []

    class Recording(riesz.KernelProfile):
        def __init__(self, N, alpha, ells):
            built.append(tuple(ells))
            super().__init__(N, alpha, ells)

    monkeypatch.setattr(riesz, "KernelProfile", Recording)
    p, g = nl.make_params(4, 1.0), cold_grid(1e-1, 1e1, 40)
    cached = nl.angular_kernels(p, (1, 3), g)
    for k in range(nl.grid._MEMO_PARAMS - 1):   # fill the memo, p least recent
        nl.angular_kernel(nl.make_params(4, 1.5 + 0.1 * k), 0, g)
    assert len(g._params_memo) == nl.grid._MEMO_PARAMS
    built.clear()
    got = nl.angular_kernels(p, (3, 0, 1, 2), g)
    assert built == [(0, 2)]
    assert got[0] is cached[1] and got[2] is cached[0]
    assert [k.ell for k in got] == [3, 0, 1, 2]
    assert all(k.grid is g and k.params == p for k in got)
    # p is now the most recent Params, and its memo holds each sector once
    assert list(g._params_memo)[-1] == p
    assert memo_entries(g)[("kernels", p)] == {k.ell: k for k in got}
    built.clear()
    assert nl.angular_kernels(p, (2, 1), g) == [got[3], got[2]]
    assert built == []


def test_memo_of_a_shared_grid_stays_bounded_over_many_params():
    """Potentials and projections at 200 (N, alpha) on one shared grid keep 4
    Params in its memo, and memory grows by less than 4 kernels once it holds
    them: each new Params replaces one, kernels, bubble energy and tangent
    basis together (an unbounded memo grows by ~47 kernels here)."""
    g = nl.make_log_grid(1e-1, 1e1, 73)
    # made before measuring: make_params caches each Params' constants outside the grid
    ps = [nl.make_params(4 + k % 2, 1.0 + 0.005 * k) for k in range(200)]

    def op(p):
        U = unit_bubble(p, g)
        u = nl.RadialField(grid=g, values=U.values * (1 + 1e-3 * np.exp(-g.x ** 2)),
                           tail_exponent=U.tail_exponent, head_value=U.head_value)
        nl.riesz_potential(nl.field_abs_pow(u, p.two_star_alpha), p, 0)
        nl.dist_to_manifold(u, p)
        nl.project_orthogonal(u, p, 1.0, 0)

    tracemalloc.start()
    try:
        for p in ps[:4]:
            op(p)
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        for p in ps[4:]:
            op(p)
            assert len(g._params_memo) <= nl.grid._MEMO_PARAMS
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert list(g._params_memo) == ps[-4:]
    assert {key[1] for key in memo_entries(g)
            if len(key) > 1 and isinstance(key[1], nl.Params)} == set(ps[-4:])
    kern = memo_entries(g)[("kernels", ps[-1])][0]
    kernel_bytes = sum(a.nbytes for a in vars(kern).values() if isinstance(a, np.ndarray))
    assert kernel_bytes > 9 * 3 * g.n * 8   # at least its moment table P
    assert growth < 4 * kernel_bytes


def test_twin_grid_builds_its_own_kernel(tmp_path):
    """A direct RadialGrid and the grid of a CSV round trip build kernels of
    their own, and their potentials and energies are the shared grid's bit for bit."""
    p, g = nl.make_params(4, 1.5), nl.make_log_grid(1e-3, 1e3, 256)
    f = bump_field(g, 0.2, 0.8)
    path = os.path.join(tmp_path, "f.csv")
    nl.write_field_csv(f, path)
    twin = cold_grid(n=256)
    twins = [bump_field(twin, 0.2, 0.8), nl.read_field_csv(path)]
    ref = (nl.riesz_potential(f, p, 1).values, nl.interaction_energy(f, f, p))
    for t in twins:
        assert t.grid is not g and t.grid.key() == g.key()
        assert np.array_equal(t.values, f.values)
        assert memo_entries(t.grid) == {}
        got = (nl.riesz_potential(t, p, 1).values, nl.interaction_energy(t, t, p))
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]
        kernels = memo_entries(t.grid)[("kernels", p)]
        assert sorted(kernels) == [0, 1] and all(k.grid is t.grid for k in kernels.values())
        assert kernels[1] is not nl.angular_kernel(p, 1, g)


def test_grid_dropped_by_make_log_grid_is_freed_with_its_kernels():
    """Kernels point back at their grid, so a grid and its memo form a cycle;
    once make_log_grid's LRU drops the grid, gc.collect frees both."""
    p, g = nl.make_params(4, 1.5), nl.make_log_grid(1e-1, 1e1, 59)
    nl.riesz_potential(bump_field(g, 0.2, 0.8), p, 0)
    kernel = weakref.ref(nl.angular_kernel(p, 0, g))
    grid = weakref.ref(g)
    assert kernel().grid is g
    del g
    for k in range(nl.grid._GRID_CACHE_SIZE):
        nl.make_log_grid(1e-1, 1e1, 60 + k)
    gc.collect()
    assert grid() is None and kernel() is None


@pytest.mark.parametrize("N,alpha,ell", [(4, 2.0, 0), (5, 2.7, 1), (3, 2.5, 0)])
def test_cached_weight_spectrum_is_bit_identical(N, alpha, ell, monkeypatch):
    # the lag table's rfft is taken once per kernel; re-transforming it on
    # every call, as before, must give the same bits
    p, g = nl.make_params(N, alpha), nl.make_log_grid(1e-3, 1e3, 512)
    f = bump_field(g, 0.2, 0.8)
    U = nl.field_abs_pow(unit_bubble(p, g), p.two_star_alpha - 1.0)
    ind = nl.indicator_field(g, float(g.nodes[300]))

    def results():
        return (nl.riesz_potential(f, p, ell).values, nl.riesz_potential(U, p, ell).values,
                nl.riesz_potential(ind, p, ell).values,
                nl.interaction_energy(f, U, p), nl.interaction_energy(U, U, p))

    cached = results()
    monkeypatch.setattr(riesz.AngularKernel, "convolve",
                        lambda self, psi: riesz._lag_convolve(psi, self.weights, self.half))
    for a, b in zip(cached, results()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("op", ["potential", "energy"])
def test_wide_grid_overflow_is_numerics_error_without_warnings(p31, op):
    # on [1e-3, 1e150] psi overflows, and the kernel's cosh with it (to the
    # right value, 0); the caller's finiteness check raises, nothing warns
    g = nl.make_log_grid(1e-3, 1e150, 2048)
    f = nl.RadialField(grid=g, values=(1 + g.nodes) ** -0.1, tail_exponent=2.5,
                       head_value=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="non-finite|not finite"):
            if op == "potential":
                nl.riesz_potential(f, p31)
            else:
                nl.interaction_energy(f, f, p31)


def _phi_reference(mp, N, alpha, ell, xi):
    """phi_ell(xi) in mpmath by Rodrigues' formula: ell integrations by parts
    turn int (cosh xi - t)^{-a} G_ell(t) (1-t^2)^{lam-1/2} dt into
    (a)_ell / (2^ell (lam+1/2)_ell) int (cosh xi - t)^{-a-ell} (1-t^2)^{ell+lam-1/2} dt,
    a hypergeometric series in 1/cosh^2 xi; independent of the connection
    formula that the profile's d_k come from."""
    lam, a, half = mp.mpf(N - 2) / 2, mp.mpf(alpha) / 2, mp.mpf(1) / 2
    b, mu, chi = a + ell, lam + ell, mp.cosh(mp.mpf(xi))
    return (mp.rf(a, ell) / (2 ** ell * mp.rf(lam + half, ell)) * mp.beta(half, mu + half)
            * chi ** -b * mp.hyp2f1(b / 2, (b + 1) / 2, mu + 1, chi ** -2))


def test_phi_reference_matches_direct_quadrature():
    mp = pytest.importorskip("mpmath")
    N, alpha, xi = 5, 3.3, 0.41
    with mp.workdps(30):
        lam, a, ch = mp.mpf(N - 2) / 2, mp.mpf(alpha) / 2, mp.cosh(mp.mpf(xi))
        for ell in range(4):
            G1 = mp.gegenbauer(ell, lam, 1)
            direct = mp.quad(lambda th: (ch - mp.cos(th)) ** -a * mp.sin(th) ** (N - 2)
                             * mp.gegenbauer(ell, lam, mp.cos(th)) / G1, [0, mp.pi / 2, mp.pi])
            assert abs(_phi_reference(mp, N, alpha, ell, xi) / direct - 1) < 1e-25


@pytest.mark.parametrize("N,alpha,tol", [(3, 0.5, 1e-13), (4, 2.0, 1e-13), (6, 4.0, 1e-13),
                                         (5, 4.03, 1e-13), (8, 1.0, 1e-13), (12, 7.0, 1e-13),
                                         (12, 11.5, 1e-13), (3, 2.9, 1e-13), (20, 10.0, 4e-14),
                                         (40, 20.0, 4e-14), (40, 1.0, 4e-14), (20, 18.5, 4e-14)])
def test_far_profile_matches_mpmath(N, alpha, tol):
    """phi_ell from _NEAR_XI on, sectors 0-3, against the 40-digit reference:
    relative to each value below the last band edge, which lies past every xi
    here, as each sector's term counts are set against its own leading term
    (at (40, 1), phi_3(4) is 1e-9 of phi_0(4)), and relative to the sector-0
    value beyond it.  Up to N = 40, where the terms cancel by ~2e2 at _NEAR_XI."""
    mp = pytest.importorskip("mpmath")
    xi = np.array([riesz._NEAR_XI, 0.5, 1.0, 2.0, 3.9, 4.0, 9.0])
    got = riesz.KernelProfile(N, alpha, (0, 1, 2, 3))(xi)
    with mp.workdps(40):
        ref = np.array([[float(_phi_reference(mp, N, alpha, ell, x)) for x in xi]
                        for ell in range(4)])
    scale = np.where(xi < riesz._SERIES_EDGES[-1], np.abs(ref), np.abs(ref[0]))
    assert np.max(np.abs(got - ref) / scale) <= tol


@pytest.mark.parametrize("N,alpha", [(3, 0.5), (4, 2.0), (5, 3.0), (6, 2.0), (12, 7.0),
                                     (5, 4.03)])
def test_series_coefficients_match_exact_integrals(N, alpha):
    """d_k = int C_k^{(a)} G_ell (1-t^2)^{lam-1/2} dt from monomial moments
    B(m+1/2, lam+1/2) in 60-digit arithmetic.  At alpha = N-2 (a = lam) only
    k = ell survives and at (6, 2) (a - lam = -1) only k = ell, ell+2: the
    other d_k must be exactly 0, as must those with k < ell or k - ell odd."""
    mp = pytest.importorskip("mpmath")
    profile = riesz.KernelProfile(N, alpha, (0, 1, 2, 3))
    kmax = 24
    got = profile._coef[:, :kmax] / 2.0 ** (alpha / 2)
    with mp.workdps(60):
        lam, a = mp.mpf(N - 2) / 2, mp.mpf(alpha) / 2
        moment = [mp.beta(n / mp.mpf(2) + mp.mpf(1) / 2, lam + mp.mpf(1) / 2) if n % 2 == 0
                  else mp.mpf(0) for n in range(2 * kmax)]

        def coeffs(k, s):   # ascending monomial coefficients of C_k^{(s)}, DLMF 18.5.10
            c = [mp.mpf(0)] * (k + 1)
            for m in range(k // 2 + 1):
                n = k - 2 * m
                c[n] = (-1) ** m * mp.rf(s, k - m) * 2 ** n / (mp.factorial(m) * mp.factorial(n))
            return c

        for ell in range(4):
            g = coeffs(ell, lam)
            g1 = sum(g)
            for k in range(kmax):
                c = coeffs(k, a)
                ref = sum(ci * gj * moment[i + j] for i, ci in enumerate(c)
                          for j, gj in enumerate(g)) / g1
                survives = k >= ell and (k - ell) % 2 == 0
                if alpha == N - 2:
                    survives = k == ell
                elif (N, alpha) == (6, 2.0):
                    survives = survives and k <= ell + 2
                if survives:
                    assert abs(got[ell, k] / float(ref) - 1) <= 1e-13, (ell, k)
                else:
                    assert got[ell, k] == 0.0 and abs(ref) < mp.mpf(10) ** -40, (ell, k)


def test_series_cancellation_is_capped():
    """sum |terms| / |sum| of the exponential sum at _NEAR_XI, worst over
    sectors 0-3, measured: at most 6.3 for N <= 12, 2.2e2 for N <= 40 (all
    of which build) and 2.8e3 at N = 60.  Above _SERIES_MAX_CANCEL the build
    raises NumericsError rather than lose more than ~1e3 ulps."""
    def cancel(N, alpha):
        profile = riesz.KernelProfile(N, alpha, (0, 1, 2, 3))
        terms = profile._coef * math.exp(-riesz._NEAR_XI) ** np.arange(profile._coef.shape[1])
        return np.max(np.sum(np.abs(terms), axis=1) / np.abs(np.sum(terms, axis=1)))

    assert max(cancel(N, alpha) for N in (3, 6, 12)
               for alpha in np.linspace(0.05, N - 0.01, 12)) <= 7.0
    assert max(cancel(N, alpha) for N in (20, 30, 40)
               for alpha in np.linspace(0.05, N - 0.01, 24)) <= 2.5e2
    assert cancel(40, 20.0) == pytest.approx(197, rel=0.01)
    for N, alpha in [(60, 30.0), (100, 50.0)]:
        with pytest.raises(NumericsError, match="cancels"):
            riesz.KernelProfile(N, alpha, (0,))


@pytest.mark.parametrize("tail", [np.inf, 6.5])
def test_energy_form_matches_convolution(tail):
    """The Parseval form interaction_energy uses against the direct
    psi_f @ convolve(psi_g), for f = g and f != g, with a field that ends on
    the grid and one whose declared power tail continues past it."""
    p = nl.make_params(5, 3.0)
    g = nl.make_log_grid(1e-3, 1e3, 2048)
    kernel = nl.angular_kernel(p, 0, g)
    vals = np.exp(-g.nodes ** 2) if np.isinf(tail) else (1 + g.nodes ** 2) ** (-tail / 2)
    f = nl.RadialField(grid=g, values=vals, tail_exponent=tail, head_value=1.0)
    h = bump_field(g, 0.3, 0.7)
    psi_f = kernel.extend_psi(f, f.values, f.head_value)
    psi_h = kernel.extend_psi(h, h.values, h.head_value)
    assert psi_f[-1] != 0.0 or np.isinf(tail)
    for a, b in [(psi_f, psi_f), (psi_f, psi_h), (psi_h, psi_f)]:
        direct = a @ kernel.convolve(b)
        assert kernel.form(a, b) == pytest.approx(direct, rel=1e-14, abs=0)


def _series_reference(mp, N, alpha, ell, xi):
    """phi_ell(xi) = 2^a sum_k d_k e^{-(a+k) xi} from the closed-form d_k
    (DLMF 18.18.16) in mpmath, summed until a term is 1e-40 of the sum, far
    past the profile's tail bound.  Each exponent is the double (a + k) * xi
    that the profile forms: phi's condition number in the exponent is about
    (a + ell) xi, so a half-ulp rounding of it alone is 30 eps of phi_3 at
    (12, 6), xi = 16.01, more than the truncation this reference checks."""
    lam, a = mp.mpf(N - 2) / 2, mp.mpf(alpha) / 2
    d = mp.beta(mp.mpf(1) / 2, lam + mp.mpf(1) / 2) * mp.rf(a, ell) / mp.rf(lam + 1, ell)
    total, j = mp.mpf(0), 0
    while True:
        term = d * mp.exp(-mp.mpf((alpha / 2 + (ell + 2 * j)) * xi))
        total += term
        if j > 4 and abs(term) <= mp.mpf(10) ** -40 * abs(total):
            return 2 ** a * total
        d *= (a - lam + j) / (j + 1) * (a + ell + j) / (lam + 1 + ell + j)
        j += 1


@pytest.mark.parametrize("N,alpha", [(3, 0.3), (3, 2.5), (4, 2.0), (5, 3.0), (6, 4.0),
                                     (8, 3.0), (12, 6.0), (20, 1.0)])
def test_far_profile_is_exact_in_every_sector(N, alpha):
    """phi_ell of sectors 0-3 in the far bands, each value within 4 eps of
    the fully summed series: every sector's term count is set against its
    own leading term d_ell e^{-(a+ell) xi}, not sector 0's, so a higher
    sector keeps its digits where it is orders below phi_0 (off by up to 64
    eps at xi = 4.01 when the counts follow term 0), and no far value of a
    sector ell >= 2 drops to 0 where fewer than ell + 1 terms would do for
    sector 0 (past xi ~ 16)."""
    mp = pytest.importorskip("mpmath")
    xi = np.array([2.01, 4.01, 8.01, 16.01, 33.0])
    got = riesz.KernelProfile(N, alpha, (0, 1, 2, 3))(xi)
    with mp.workdps(40):
        ref = np.array([[float(_series_reference(mp, N, alpha, ell, x)) for x in xi]
                        for ell in range(4)])
    assert np.all(ref > 0)
    assert np.max(np.abs(got / ref - 1)) <= 4 * np.finfo(float).eps


def test_far_series_exponentials_are_capped():
    """The sector-0 table at (4, 1.3), n = 2048 on [1e-3, 1e3] forms at most
    45,000 far-field exponentials sum_b K_b cells_b (77,082 while the last
    band, from xi = 4, kept its 10 terms out to the table's end at xi ~ 41.6)."""
    g = nl.make_log_grid(1e-3, 1e3, 2048)
    profile = riesz.KernelProfile(4, 1.3, (0,))
    nlag = g.n + 2 * (g.n + 7)    # the padded table `angular_kernels` builds
    x = np.arange(math.ceil(riesz._NEAR_XI / g.h), nlag) * g.h
    cells = np.diff([0, *np.searchsorted(x, riesz._SERIES_EDGES[1:]), len(x)])
    assert profile._terms[0] @ cells <= 45_000


@pytest.mark.parametrize("N,alpha", [(3, 1.0), (4, 2.0), (5, 4.02), (6, 1.5), (3, 2.99)])
def test_m_start_sums_are_built_as_deep_as_asked(N, alpha, monkeypatch):
    """`_m_start` on the near-branch nodes of a default-grid build takes the
    panel sums only as deep as those nodes reach (at most 60 of the 430 down
    to the c-floor, except for N - alpha < 0.12, where the singular cell's
    rule meets the floor), and its values equal, bit for bit, those of a
    profile that built the full table first."""
    nodes = []
    call = riesz.KernelProfile.__call__

    def recorded(self, xi):
        nodes.append(np.atleast_1d(xi))
        return call(self, xi)

    monkeypatch.setattr(riesz.KernelProfile, "__call__", recorded)
    nl.angular_kernel(nl.make_params(N, alpha), 0, cold_grid())
    xi = np.concatenate(nodes)
    c = np.maximum(2.0 * np.sinh(xi[xi < riesz._NEAR_XI] / 2) ** 2, riesz._C_FLOOR)
    lazy, full = riesz.KernelProfile(N, alpha, (0,)), riesz.KernelProfile(N, alpha, (0,))
    full._init_m_start(riesz._M_PANELS)
    assert np.array_equal(lazy._m_start(c), full._m_start(c))
    panels = len(lazy._m_sums) - 1
    assert panels == math.floor(-math.log(c.min()) / riesz._M_PANEL)
    assert panels <= 60 or N - alpha < 0.12   # where the graded rule meets the c-floor
    assert np.array_equal(lazy._m_sums, full._m_sums[:panels + 1])


@pytest.mark.parametrize("op", ["potential", "energy"])
def test_spectrum_adds_no_kernels_to_the_grid_memo(op, monkeypatch):
    """`spectral_gap` forms B's Toeplitz column from moment tables of its own
    and memoizes nothing per Params, so it adds no `kernels` entry to the
    grid's memo and leaves the kernels there as it found them; a later
    potential or energy builds its sector-0 kernel itself, and transforms only
    that kernel."""
    p, q, g = nl.make_params(4, 2.0), nl.make_params(5, 3.0), cold_grid(n=256)
    nl.angular_kernel(q, 1, g)     # a kernel already in the memo

    def kernels():
        return {key: dict(v) for key, v in memo_entries(g).items() if key[0] == "kernels"}

    before = kernels()
    nl.spectral_gap(p, g, k=4)
    assert kernels() == before and list(g._params_memo) == [q]
    built = []
    profile = riesz.KernelProfile

    class Recording(profile):
        def __init__(self, N, alpha, ells):
            built.append((N, alpha, tuple(ells)))
            super().__init__(N, alpha, ells)

    monkeypatch.setattr(riesz, "KernelProfile", Recording)
    f = bump_field(g, 0.2, 0.8)
    if op == "potential":
        nl.riesz_potential(f, p, 0)
    else:
        nl.interaction_energy(f, f, p)
    assert built == [(4, 2.0, (0,))]
    new = memo_entries(g)[("kernels", p)]
    assert [(ell, k.params.alpha, "_weights_hat" in vars(k)) for ell, k in new.items()] == \
        [(0, 2.0, True)]
    assert kernels()[("kernels", q)] == before[("kernels", q)]
