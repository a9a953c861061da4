import math
import subprocess
import sys
import warnings
from collections import OrderedDict

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec
from scipy.special import gegenbauer as scipy_gegenbauer

import nlsobolev as nl
from nlsobolev import riesz
from nlsobolev.errors import DivergentTailError, NumericsError, ValidationError
from conftest import bump_field, src_env, unit_bubble


def pointwise_table(kern):
    """Dense pointwise kernel k_ell(r_i, s_j) = c_norm (2 r_i s_j)^{-alpha/2}
    phi_ell(|x_i - x_j|) on the kernel's grid; the diagonal is phi_ell(0) as the
    production profile evaluates it."""
    g, al = kern.grid, kern.params.alpha
    xi = np.abs(g.x[:, None] - g.x[None, :])
    vals = kern.profile(xi.ravel()).reshape(xi.shape)
    return kern.c_norm * (2.0 * g.nodes[:, None] * g.nodes[None, :]) ** (-al / 2) * vals


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
    prof = nl.angular_kernel(p32, 0, nl.make_log_grid(0.5, 8.0, 129)).profile
    assert np.all(np.diff(prof(np.logspace(-3, -12, 10))) > 0)


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
    # potential of f(lam .) at r equals lam^{alpha-N} (potential of f)(lam r)
    lam = 3.0
    N, al = p42.N, p42.alpha
    g = grid_default
    f = unit_bubble(p42, g)
    F = nl.field_abs_pow(f, p42.two_star_alpha)
    pot = nl.riesz_potential(F, p42, 0)
    f_scaled = nl.dilate(F, lam, N)   # lam^{(N-2)/2} F(lam r)
    pot_scaled = nl.riesz_potential(f_scaled, p42, 0)
    # remove the dilate prefactor: potential of F(lam .) = pot_scaled / lam^{(N-2)/2}
    inner = slice(400, 1400)
    lhs = pot_scaled.values[inner] / lam ** ((N - 2) / 2)
    pot_at = nl.dilate(pot, lam, N).values[inner] / lam ** ((N - 2) / 2)  # pot(lam r)
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
    kern = nl.angular_kernel(nl.make_params(N, alpha), ell, g)
    h, powers = g.h, np.arange(kern.tables.P.shape[0])
    ref = quad_vec(lambda s: kern.profile(s)[0] * (s / h) ** powers, 0.0, h,
                   epsabs=0.0, epsrel=1e-12, limit=400, quadrature="gk15")[0] / h
    assert np.max(np.abs(kern.tables.P[:, 0] / ref - 1)) <= 1e-11


@pytest.mark.parametrize("alpha", [2.9, 2.99])
def test_singular_cell_near_alpha_N_closed_form(alpha):
    """N = 3, ell = 0 has phi(xi) = ((c+2)^b - c^b)/b, c = 2 sinh^2(xi/2),
    b = 1 - alpha/2.  As alpha -> N the graded rule's depth falls below the
    near branch's c-floor and is finished by the leading term; the moments
    must still match a 40-digit integral of the closed form."""
    mp = pytest.importorskip("mpmath")
    g = nl.make_log_grid(1e-3, 1e3, 1025)
    P0 = nl.angular_kernel(nl.make_params(3, alpha), 0, g).tables.P[:, 0]

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
    sides of the exponential-sum cut and a deep cell where the sum's higher
    terms e^{-(alpha/2+k) mh} underflow.  N = 12 needs the most terms."""
    g = nl.make_log_grid(1e-3, 1e60, 512)
    ells = (0, 1, 2, 3)
    kerns = nl.angular_kernels(nl.make_params(N, alpha), ells, g)
    h, a0, a = g.h, (N - 3) / 2, alpha / 2
    gegs = [scipy_gegenbauer(ell, (N - 2) / 2.0) for ell in ells]
    powers = np.arange(kerns[0].tables.P.shape[0])

    def phi(xi):
        chi = math.cosh(xi)
        out = []
        for G in gegs:
            scale = abs(out[0]) * 1e-14 if out else 0.0
            out.append(quad(lambda t: (chi - t) ** -a * G(t) / G(1.0), -1, 1, weight="alg",
                            wvar=(a0, a0), epsabs=scale, epsrel=2e-14, limit=200)[0])
        return np.array(out)

    m_cut = math.ceil(riesz._SERIES_XI / h)
    m_deep = round(720 / (a + 1.5) / h)   # e^{-a mh} normal, e^{-(a+2) mh} underflows
    assert m_deep < kerns[0].tables.nlag
    for m in (1, m_cut - 1, m_cut, m_cut + 1, m_deep):
        ref = quad_vec(lambda eta: np.outer(phi((m + eta) * h), eta ** powers), 0.0, 1.0,
                       epsabs=0.0, epsrel=2e-14, norm="max", quadrature="gk21")[0]
        got = np.array([k.tables.P[:, m] for k in kerns])
        assert np.max(np.abs(got - ref)) <= 1e-12 * abs(ref[0, 0]), m


def test_cold_build_makes_few_profile_calls(monkeypatch):
    """One vector call for the regular cells below the exponential-sum cut and
    one for the singular cell: 12 nodes per regular cell up to the cut, plus
    the graded rule's 12-node panels, and not 12 per cell of the whole table."""
    monkeypatch.setattr(riesz, "_kernel_cache", OrderedDict())
    calls = []
    call = riesz.KernelProfile.__call__

    def counted(self, xi):
        calls.append(len(np.atleast_1d(xi)))
        return call(self, xi)

    monkeypatch.setattr(riesz.KernelProfile, "__call__", counted)
    N, alpha, g = 5, 4.02, nl.make_log_grid(1e-3, 1e3, 2048)
    nl.angular_kernel(nl.make_params(N, alpha), 0, g)
    assert 1 <= len(calls) <= 4
    singular = 12 * math.ceil(37.0 / min(1.0, N - alpha) / 0.75)
    assert sum(calls) <= 12 * math.ceil(riesz._SERIES_XI / g.h) + singular


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
    tables = nl.angular_kernel(nl.make_params(N, alpha), ell,
                               nl.make_log_grid(1e-2, 1e2, 129)).tables
    assert len(tables.weights) == 2 * tables.half + 1
    assert np.array_equal(tables.weights, tables.weights[::-1])


def test_kernel_cache_is_bounded_lru(monkeypatch):
    monkeypatch.setattr(riesz, "_kernel_cache", OrderedDict())
    size = riesz._KERNEL_CACHE_SIZE
    assert size >= 6   # spectral_gap's three sectors and the sweep's three pairs
    p = nl.make_params(4, 1.0)
    grids = [nl.make_log_grid(1e-1, 1e1, 16 + k) for k in range(size + 3)]
    kernels = [nl.angular_kernel(p, 0, g) for g in grids]
    assert len(riesz._kernel_cache) == size
    for g, k in zip(grids[::-1][:size], kernels[::-1][:size]):
        assert nl.angular_kernel(p, 0, g) is k
    assert len(riesz._kernel_cache) == size
    assert nl.angular_kernel(p, 0, grids[0]) is not kernels[0]   # evicted, rebuilt
    assert len(riesz._kernel_cache) == size


@pytest.mark.parametrize("N,alpha", [(4, 1.5), (6, 4.0), (3, 2.0), (5, 4.03), (4, 3.02),
                                     (3, 2.99)])
def test_batch_build_is_bit_identical(N, alpha, monkeypatch):
    """Sectors built together from one profile pass give exactly the tables
    and profile values of one-at-a-time builds; (3, 2.99) takes the
    closed-form finish of the singular cell."""
    monkeypatch.setattr(riesz, "_kernel_cache", OrderedDict())
    p, g = nl.make_params(N, alpha), nl.make_log_grid(1e-2, 1e2, 129)
    ells = (0, 1, 2, 3)
    xi = np.concatenate([[0.0], np.logspace(-12, 1.5, 60), [riesz._NEAR_XI, 800.0]])
    batch = nl.angular_kernels(p, ells, g)
    assert [k.ell for k in batch] == list(ells)
    for ell, kb in zip(ells, batch):
        riesz._kernel_cache.clear()
        ks = nl.angular_kernel(p, ell, g)
        assert ks is not kb
        assert np.array_equal(kb.tables.P, ks.tables.P)
        assert np.array_equal(kb.tables.weights, ks.tables.weights)
        assert np.array_equal(kb.profile(xi), ks.profile(xi))


def test_batch_builds_only_missing_sectors(monkeypatch):
    monkeypatch.setattr(riesz, "_kernel_cache", OrderedDict())
    built = []

    class Recording(riesz.KernelProfile):
        def __init__(self, N, alpha, ells):
            built.append(tuple(ells))
            super().__init__(N, alpha, ells)

    monkeypatch.setattr(riesz, "KernelProfile", Recording)
    size = riesz._KERNEL_CACHE_SIZE
    p, g = nl.make_params(4, 1.0), nl.make_log_grid(1e-1, 1e1, 40)
    cached = nl.angular_kernels(p, (1, 3), g)
    for k in range(size - 2):   # fill the cache, the two sectors oldest
        nl.angular_kernel(p, 0, nl.make_log_grid(1e-1, 1e1, 16 + k))
    assert len(riesz._kernel_cache) == size
    built.clear()
    got = nl.angular_kernels(p, (3, 0, 1, 2), g)
    assert built == [(0, 2)]
    assert got[0] is cached[1] and got[2] is cached[0]
    assert [k.ell for k in got] == [3, 0, 1, 2]
    assert len(riesz._kernel_cache) == size
    # the request is the most recent part of the cache, in request order
    assert list(riesz._kernel_cache.values())[-4:] == got
    built.clear()
    assert nl.angular_kernels(p, (2, 1), g) == [got[3], got[2]]
    assert built == []


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
    monkeypatch.setattr(riesz._ConvTables, "convolve",
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
