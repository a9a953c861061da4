import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nlsobolev as nl
from nlsobolev.errors import BracketingError, ValidationError
from nlsobolev.experiments import SweepConfig, _direction_field
from conftest import bump_field, cold_grid, src_env, unit_bubble


def test_bubble_params_validation():
    with pytest.raises(ValidationError):
        nl.BubbleParams(c=1.0, lam=0.0)
    # a non-finite c is invalid input (exit 1), not a bubble overflow (NumericsError, exit 2)
    for c in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="coefficient must be finite"):
            nl.BubbleParams(c=c, lam=1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0])
def test_nonfinite_or_nonpositive_lambda_is_validation_error(lam, p42, grid_default):
    with pytest.raises(ValidationError, match="positive and finite"):
        nl.BubbleParams(c=1.0, lam=lam)
    with pytest.raises(ValidationError, match="positive and finite"):
        nl.tangent_basis(p42, lam, grid_default)
    with pytest.raises(ValidationError, match="positive and finite"):
        nl.project_orthogonal(bump_field(grid_default), p42, lam, 0)


def test_bubble_amplitude_and_tail(p42, grid_default):
    U = unit_bubble(p42, grid_default)
    amp = nl.hls_sobolev_constant(p42).bubble_amp
    assert U.head_value == pytest.approx(amp, rel=1e-14)
    # r^{N-2} U(r) -> a as r -> infinity
    far = grid_default.nodes[-5]
    assert U.values[-5] * far ** (p42.N - 2) == pytest.approx(amp, rel=1e-5)
    assert U.tail_exponent == p42.N - 2


def test_bubble_gradient_norm_scale_invariant(p42, grid_default):
    base = nl.h1_inner(unit_bubble(p42, grid_default),
                       unit_bubble(p42, grid_default), 0, p42.N)
    for lam in (0.1, 1.0, 10.0):
        U = unit_bubble(p42, grid_default, lam=lam)
        assert nl.h1_inner(U, U, 0, p42.N) == pytest.approx(base, rel=1e-7)


def test_tangent_basis_normalized_and_orthogonal(p42, grid_default):
    basis = nl.tangent_basis(p42, 1.0, grid_default)
    assert [ell for ell, _ in basis] == [0, 0, 1]
    for ell, f in basis:
        assert nl.h1_inner(f, f, ell, p42.N) == pytest.approx(1.0, rel=1e-10)
    # dilation direction is gradient-orthogonal to the bubble
    (l0, Uh), (l1, dlam), _ = basis
    assert abs(nl.h1_inner(Uh, dlam, 0, p42.N)) < 1e-8


def linearized_residual(p, v, ell, grid):
    """Relative defect of the linearized equation
    -Lap_ell v = ts T(U^{ts-1} v) U^{ts-1} + (ts-1) W v."""
    from nlsobolev._quadrature import derivative_matrix
    N, ts = p.N, p.two_star_alpha
    U = unit_bubble(p, grid)
    P = nl.field_abs_pow(U, ts - 1.0)
    Pv = nl.RadialField(grid=grid, values=P.values * v.values,
                        tail_exponent=P.tail_exponent + v.tail_exponent,
                        head_value=P.head_value * v.head_value)
    TPv = nl.riesz_potential(Pv, p, ell)
    W = nl.riesz_potential(nl.field_abs_pow(U, ts), p, 0).values * U.values ** (ts - 2)
    rhs = ts * TPv.values * P.values + (ts - 1.0) * W * v.values
    D1 = derivative_matrix(grid.n, grid.h, 1)
    D2 = derivative_matrix(grid.n, grid.h, 2)
    lap = (D2 @ v.values + (N - 2) * (D1 @ v.values)) * np.exp(-2 * grid.x)
    if ell > 0:
        lap = lap - ell * (ell + N - 2) * v.values / grid.nodes ** 2
    resid = -lap - rhs
    inner = slice(6, grid.n - 6)
    return float(np.max(np.abs(resid[inner])) / np.max(np.abs(rhs[inner])))


def test_tangent_directions_solve_linearized_equation(p42, grid_default):
    basis = nl.tangent_basis(p42, 1.0, grid_default)
    _, dlam = basis[1]
    assert linearized_residual(p42, dlam, 0, grid_default) < 1e-3
    _, dr = basis[2]
    assert linearized_residual(p42, dr, 1, grid_default) < 1e-3


def test_dist_on_manifold_points(p42, grid_default):
    dec = nl.dist_to_manifold(unit_bubble(p42, grid_default), p42)
    # d is the direct residual norm ||u - c U_lambda||; on the manifold it
    # falls below the 1e-9 ||u|| cut-off and is reported as exactly 0
    assert dec.d == pytest.approx(0.0, abs=1e-6)
    assert dec.best.c == pytest.approx(1.0, rel=1e-7)
    assert dec.best.lam == pytest.approx(1.0, rel=1e-6)
    # the scan maximizes |<u, U_lambda>|, so a negative multiple is found too
    for c in (3.0, -3.0):
        dec = nl.dist_to_manifold(unit_bubble(p42, grid_default, lam=5.0, c=c), p42)
        assert dec.d == pytest.approx(0.0, abs=3e-6)
        assert dec.best.c == pytest.approx(c, rel=1e-7)
        assert dec.best.lam == pytest.approx(5.0, rel=1e-6)


def _sum(a, b, s):
    return nl.RadialField(grid=a.grid, values=a.values + s * b.values,
                          tail_exponent=min(a.tail_exponent, b.tail_exponent),
                          head_value=a.head_value + s * b.head_value)


def test_dist_finds_stationarity_root(p31, grid_default):
    # far from the manifold: a golden-section search on the cancelling d^2
    # stopped at a relative stationarity residual of 2.2e-8 here
    u = _sum(unit_bubble(p31, grid_default), unit_bubble(p31, grid_default, lam=10.0), 0.5)
    dec = nl.dist_to_manifold(u, p31)
    _, dlam = nl.tangent_basis(p31, dec.best.lam, grid_default)[1]   # unit norm
    resid = nl.h1_inner(u, dlam, 0, p31.N) / math.sqrt(nl.h1_inner(u, u, 0, p31.N))
    assert abs(resid) <= 1e-12


@pytest.mark.parametrize("s, lam", [(0.9, 1.1030), (1.2, 45.695)])
def test_dist_two_bubble_multistart(p42, grid_default, s, lam):
    # the scan sees two interior maxima of |<u, U_lambda>|; the larger wins
    u = _sum(unit_bubble(p42, grid_default), unit_bubble(p42, grid_default, lam=50.0), s)
    assert nl.dist_to_manifold(u, p42).best.lam == pytest.approx(lam, rel=1e-4)


def test_dist_raises_when_no_root_bracketed(p42, grid_default, monkeypatch):
    # a stationarity function with no sign change must raise, not fall back to
    # the best scan node; <U_1, U_lambda> > 0 has none
    import nlsobolev.manifold as manifold
    monkeypatch.setattr(manifold, "_dlam_bubble",
                        lambda p, lam, grid: unit_bubble(p, grid, lam=lam))
    with pytest.raises(BracketingError):
        nl.dist_to_manifold(unit_bubble(p42, grid_default), p42)


def test_dist_h1_inner_call_budget(p42, grid_default, monkeypatch):
    # the residual norm, and ||U||^2 if the grid has not memoized it yet;
    # ||u||^2 and every overlap come from u's one derivative, so a second
    # h1_inner on u or a scan of per-lambda calls (~135) fails this
    import nlsobolev.manifold as manifold
    U = unit_bubble(p42, grid_default)
    w = nl.project_orthogonal(bump_field(grid_default, 0.4, 0.7), p42, 1.0, 0)
    u = _sum(U, w, 1e-3)
    calls = []
    inner = manifold.h1_inner
    monkeypatch.setattr(manifold, "h1_inner", lambda *a: calls.append(1) or inner(*a))
    nl.dist_to_manifold(u, p42)
    assert len(calls) <= 2


def _rep(u, N):
    """dist_to_manifold's overlap representer of u, from u's log-derivative."""
    import nlsobolev.manifold as manifold
    from nlsobolev._quadrature import derivative_matrix
    return manifold._overlap_representer(u, derivative_matrix(u.grid.n, u.grid.h, 1) @ u.values, N)


def _sweep_field(p, grid, k, eps):
    """u = U + eps w with w the sweep's `random-<k>` direction."""
    w = _direction_field(f"random-{k}", SweepConfig(params=p, grid=grid), grid)
    return _sum(unit_bubble(p, grid), w, eps)


def _tight_root(u, p, t):
    """brentq on dist_to_manifold's stationarity function near log lambda = t,
    run to the last bits."""
    from scipy.optimize import brentq
    import nlsobolev.manifold as manifold
    rep = _rep(u, p.N)

    def stationarity(s):
        return float(rep @ manifold._dlam_bubble(p, math.exp(s), u.grid).values)

    return brentq(stationarity, t - 0.05, t + 0.05, xtol=1e-17, rtol=8.9e-16)


@pytest.mark.parametrize("N, alpha", [(3, 1.0), (4, 2.0), (5, 3.0), (6, 4.0)])
def test_dist_newton_root_is_the_tight_brentq_root(N, alpha, grid_default):
    # the Newton polish stops once a step is <= 2e-14; it landed within 7.5e-15
    # of the tight root on these fields, and brentq at xtol = 1e-14 within 4.5e-15
    p = nl.make_params(N, alpha)
    for k in range(1, 5):
        for eps in (1e-2, 1e-3):
            u = _sweep_field(p, grid_default, k, eps)
            t = math.log(nl.dist_to_manifold(u, p).best.lam)
            assert abs(t - _tight_root(u, p, t)) <= 2e-14


def test_dist_stationarity_call_budget(p42, grid_default, monkeypatch):
    # Newton from the vertex of the parabola through adjacent scan lags takes
    # 2 steps, one stationarity value each; the bubbles are U_1 for ||U||^2,
    # if the grid has not memoized it yet, and one at the root, reused for
    # the residual
    import nlsobolev.manifold as manifold
    calls, builds = [], []
    dlam, bubble = manifold._dlam_bubble, manifold.bubble
    monkeypatch.setattr(manifold, "_dlam_bubble",
                        lambda *a: calls.append(1) or dlam(*a))
    monkeypatch.setattr(manifold, "bubble", lambda *a: builds.append(1) or bubble(*a))
    for k in range(1, 5):
        for eps in (1e-2, 1e-3):
            u = _sweep_field(p42, grid_default, k, eps)
            calls.clear()
            builds.clear()
            nl.dist_to_manifold(u, p42)
            assert len(calls) <= 2
            assert len(builds) <= 2


def test_dist_newton_stops_at_the_rounding_floor(p31):
    # on this slow tail the stationarity value rounds at ~3.9e-14 of a step,
    # so Newton 2-cycles there and never meets a fixed 2e-14; the step test
    # scales with that rounding and accepts the root
    g = nl.make_log_grid(1e-3, 1e3, 2048)
    u = nl.RadialField(grid=g, values=(1.0 + (6.8 * g.nodes) ** 2) ** -0.3,
                       tail_exponent=0.6, head_value=1.0)
    t = math.log(nl.dist_to_manifold(u, p31).best.lam)
    assert abs(t - _tight_root(u, p31, t)) <= 2e-13


def test_dist_drops_a_diverging_newton(p42, grid_default, monkeypatch):
    # a slope of the wrong sign sends every Newton step away from the root,
    # out of the scan cells or past 8 steps; the candidate is dropped, and
    # with none left the distance is not bracketed
    import nlsobolev.manifold as manifold
    u = _sweep_field(p42, grid_default, 1, 1e-3)
    slope = manifold._dlam2_bubble
    monkeypatch.setattr(manifold, "_dlam2_bubble", lambda *a: -slope(*a))
    with pytest.raises(BracketingError):
        nl.dist_to_manifold(u, p42)


def test_import_leaves_out_scipy_optimize():
    # nor scipy.sparse.linalg, since the eigensolver runs its own Lanczos
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, nlsobolev, nlsobolev.cli; "
         "print('scipy.optimize' in sys.modules, 'scipy.sparse.linalg' in sys.modules)"],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


@pytest.mark.parametrize("ell", [0.5, True, np.float64(1.0)])
def test_non_integer_ell_is_validation_error(p42, grid_default, ell):
    U = unit_bubble(p42, grid_default)
    with pytest.raises(ValidationError, match="ell must be an integer"):
        nl.h1_inner(U, U, ell, p42.N)
    with pytest.raises(ValidationError, match="ell must be an integer"):
        nl.project_orthogonal(bump_field(grid_default), p42, 1.0, ell)


def test_dlam2_bubble_is_the_log_lambda_derivative(p42, p31, grid_default):
    import nlsobolev.manifold as manifold
    for p in (p31, p42, nl.make_params(6, 4.0)):
        for lam in (0.05, 1.0, 30.0):
            dt = 1e-5
            fd = (manifold._dlam_bubble(p, lam * math.exp(dt), grid_default).values
                  - manifold._dlam_bubble(p, lam * math.exp(-dt), grid_default).values) / (2 * dt)
            got = manifold._dlam2_bubble(p, lam, grid_default)
            assert np.max(np.abs(got - fd)) <= 1e-8 * np.max(np.abs(got))


@pytest.mark.parametrize("n", [2048, 256, 64])
def test_overlap_scan_matches_strided_product(n):
    # the FFT correlation reads the same |p| at every lag as the sliding
    # window product it replaced, with the same candidates, and rep @ U_lambda
    # at the nodes.  Both sums round at eps sum_i |f_i q_i|: that is up to
    # 450 max|p| for the N = 3 fields and 5.3e3 max|p| for the slow tail at
    # N = 3, where the two differ by 1.8e-12 max|p|; the other N = 3 fields
    # agree to 1.3e-13 max|p|, and those at N >= 4 to 3.7e-14 max|p|
    from numpy.lib.stride_tricks import sliding_window_view
    import nlsobolev.manifold as manifold
    g = nl.make_log_grid(1e-3, 1e3, n)

    def candidates(absp):
        mid = absp[1:-1]
        return sorted(np.flatnonzero((mid >= absp[:-2]) & (mid >= absp[2:])) + 1,
                      key=lambda j: -absp[j])[:3]

    for N, alpha in ((3, 1.0), (4, 2.0), (6, 4.0)):
        p = nl.make_params(N, alpha)
        amp = nl.hls_sobolev_constant(p).bubble_amp
        fields = list(_fields(p, g).values())
        fields.append(_sum(unit_bubble(p, g), unit_bubble(p, g, 50.0), 1.2))
        if n == 2048:
            fields.append(_sweep_field(p, g, 1, 1e-3))
        for u in fields:
            rep = _rep(u, N)
            xs, absp = manifold._overlap_scan(rep, N, g)
            K = len(xs) // 2
            e = (N - 2) / 2
            y = g.x[0] + xs[0] + g.h * np.arange(n + 2 * K)
            windows = sliding_window_view(np.exp(-e * np.logaddexp(0.0, 2.0 * y)), n)
            want = np.abs(np.exp(e * xs) * (windows @ rep))
            terms = np.exp(e * xs) * (np.abs(windows) @ np.abs(rep))
            bound = 1e-13 * np.max(want) + 4 * np.finfo(float).eps * np.max(terms)
            assert np.max(np.abs(absp - want)) <= bound
            assert candidates(absp) == candidates(want)
            for k in (0, K // 2, K, 2 * K):
                direct = abs(rep @ unit_bubble(p, g, lam=math.exp(xs[k])).values) / amp
                assert absp[k] == pytest.approx(direct, abs=bound)


def _oracle_dist(u, p):
    """The per-lambda search the representer replaced: a linspace scan of
    h1_inner overlaps over the grid-resolved range -log r_max .. -log r_min,
    with spacing no coarser than 2 log 100 / 120, then brentq on h1_inner
    stationarity values."""
    from scipy.optimize import brentq
    import nlsobolev.manifold as manifold
    grid, N = u.grid, p.N
    U1 = unit_bubble(p, grid)
    EU = nl.h1_inner(U1, U1, 0, N)

    def overlap(s):
        return nl.h1_inner(u, unit_bubble(p, grid, lam=math.exp(s)), 0, N)

    def stationarity(s):
        return nl.h1_inner(u, manifold._dlam_bubble(p, math.exp(s), grid), 0, N)

    span = grid.x[-1] - grid.x[0]
    xs = np.linspace(-grid.x[-1], -grid.x[0], math.ceil(span / (2 * math.log(100.0) / 120)) + 1)
    absp = np.abs([overlap(x) for x in xs])
    interior = sorted((j for j in range(1, len(xs) - 1)
                       if absp[j] >= absp[j - 1] and absp[j] >= absp[j + 1]),
                      key=lambda j: -absp[j])
    best = None
    for j in interior[:3]:
        if stationarity(xs[j - 1]) * stationarity(xs[j + 1]) > 0:
            continue
        s = brentq(stationarity, xs[j - 1], xs[j + 1], xtol=1e-14)
        if best is None or abs(overlap(s)) > abs(best[0]):
            best = (overlap(s), s)
    c, lam = best[0] / EU, math.exp(best[1])
    Ub = unit_bubble(p, grid, lam=lam, c=c)
    resid = _sum(u, Ub, -1.0)
    return c, lam, math.sqrt(nl.h1_inner(resid, resid, 0, N))


def _fields(p, grid):
    """A bubble plus a bump (declared tail N - 2), a bump alone (infinite
    tail) and a profile decaying slower than the bubble (tail N - 2.4)."""
    U = unit_bubble(p, grid)
    bump = bump_field(grid, 0.4, 0.7)
    slow = nl.RadialField(grid=grid, values=(1.0 + grid.nodes ** 2) ** (-(p.N - 2.4) / 2),
                          tail_exponent=p.N - 2.4, head_value=1.0)
    return {"finite": _sum(U, bump, 0.05 * U.head_value), "infinite": bump, "slow": slow}


@pytest.mark.parametrize("N, alpha", [(3, 1.0), (4, 2.0), (5, 3.0), (6, 4.0)])
@pytest.mark.parametrize("n", [2048, 256, 64])   # at n = 64 the grid step exceeds the scan's
@pytest.mark.parametrize("tail", ["finite", "infinite"])
def test_dist_matches_per_lambda_oracle(N, alpha, n, tail):
    p = nl.make_params(N, alpha)
    u = _fields(p, nl.make_log_grid(1e-3, 1e3, n))[tail]
    dec = nl.dist_to_manifold(u, p)
    got, want = (dec.best.c, dec.best.lam, dec.d), _oracle_dist(u, p)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-10)


@pytest.mark.parametrize("tail", ["finite", "infinite", "slow"])
def test_overlap_representer_is_h1_inner(p42, p31, grid_default, tail):
    import nlsobolev.manifold as manifold
    for p in (p31, p42):
        u = _fields(p, grid_default)[tail]
        rep = _rep(u, p.N)
        for lam in (0.03, 0.5, 1.0, 7.0, 60.0):
            for v in (unit_bubble(p, grid_default, lam=lam),
                      manifold._dlam_bubble(p, lam, grid_default)):
                want = nl.h1_inner(u, v, 0, p.N)
                assert rep @ v.values == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [16, 17, 64, 256, 1023, 1024, 2048, 8192])
def test_dist_scan_covers_every_grid_scale(n):
    # the scan nodes step by the grid's h and reach the scales whose bubble
    # peak 1 / lambda is an end node, -x_{n-1} and -x_0, no further than
    # one step beyond, on a centred and an off-centre grid
    import nlsobolev.manifold as manifold
    for r_min, r_max in ((1e-3, 1e3), (1e-4, 10.0)):
        g = nl.make_log_grid(r_min, r_max, n)
        rep = _rep(unit_bubble(nl.make_params(4, 2.0), g), 4)
        xs, absp = manifold._overlap_scan(rep, 4, g)
        assert len(xs) == len(absp) and len(xs) % 2 == 1
        assert np.allclose(np.diff(xs), g.h, rtol=1e-12, atol=0.0)
        assert -g.x[-1] - g.h - 1e-12 <= xs[0] <= -g.x[-1]
        assert -g.x[0] <= xs[-1] <= -g.x[0] + g.h + 1e-12


def test_dist_picks_the_larger_of_two_distant_maxima(p31):
    # u = U_0.4054 - 0.985 U_26.01: |p| peaks at log lambda = 3.561 (d = 2.5175)
    # and higher at -1.197, 4.6 below the half-height scale of |u| (3.421), so
    # a two-decade window around that scale misses the minimum
    g = nl.make_log_grid(1e-3, 1e3, 2048)
    u = _sum(unit_bubble(p31, g, 0.4054), unit_bubble(p31, g, 26.01), -0.985)
    dec = nl.dist_to_manifold(u, p31)
    assert dec.d == pytest.approx(2.4793, abs=1e-4)
    assert math.log(dec.best.lam) == pytest.approx(-1.197, abs=1e-3)


def test_dist_of_orthogonal_perturbation(p42, grid_default):
    U = unit_bubble(p42, grid_default)
    w = nl.project_orthogonal(bump_field(grid_default, 0.4, 0.7), p42, 1.0, 0)
    eps = 1e-3
    u = nl.RadialField(grid=grid_default, values=U.values + eps * w.values,
                       tail_exponent=U.tail_exponent,
                       head_value=U.head_value + eps * w.head_value)
    dec = nl.dist_to_manifold(u, p42)
    assert abs(dec.d - eps) <= 3 * eps * eps
    # decomposition invariants: orthogonality of w to the tangent directions
    basis = nl.tangent_basis(p42, dec.best.lam, grid_default)
    wn = math.sqrt(nl.h1_inner(dec.w, dec.w, 0, p42.N))
    for ell, t in basis:
        if ell == 0:
            assert abs(nl.h1_inner(dec.w, t, 0, p42.N)) < 1e-6 * wn
    # Pythagoras
    uu = nl.h1_inner(u, u, 0, p42.N)
    EU = nl.h1_inner(U, U, 0, p42.N)
    assert uu == pytest.approx(dec.d ** 2 + dec.best.c ** 2 * EU, rel=1e-8)


def test_dist_is_direct_residual_norm(p42, grid_default):
    # d is ||u - c U_lambda|| at the final (c, lambda), not the cancelling
    # ||u||^2 - c^2 ||U||^2, which was off by 6e-5 relative at eps = 1e-4
    U = unit_bubble(p42, grid_default)
    eps = 1e-4
    u = nl.RadialField(grid=grid_default, values=U.values * (1.0 + eps * grid_default.x / 7),
                       tail_exponent=U.tail_exponent, head_value=U.head_value)
    dec = nl.dist_to_manifold(u, p42)
    Ub = unit_bubble(p42, grid_default, lam=dec.best.lam, c=dec.best.c)
    resid = nl.RadialField(grid=grid_default, values=u.values - Ub.values,
                           tail_exponent=U.tail_exponent,
                           head_value=u.head_value - Ub.head_value)
    assert dec.d == pytest.approx(math.sqrt(nl.h1_inner(resid, resid, 0, p42.N)), rel=1e-12)
    assert nl.h1_inner(dec.w, dec.w, 0, p42.N) == pytest.approx(1.0, rel=1e-12)


def test_dist_allocates_no_dense_stencil(p42, grid_default):
    # a dense 2048 x 2048 derivative matrix alone is 33.6 MB; the CSR band, its
    # transpose, the grid's memoized arrays and every field of one distance
    # evaluation fit in well under 4 MB.  u lives on a grid that nothing has
    # touched, so the memo is built inside the trace
    import tracemalloc
    from nlsobolev._quadrature import derivative_matrix
    U = unit_bubble(p42, grid_default)
    w = nl.project_orthogonal(bump_field(grid_default, 0.4, 0.7), p42, 1.0, 0)
    u = nl.RadialField(grid=cold_grid(),
                       values=U.values + 1e-3 * w.values, tail_exponent=U.tail_exponent,
                       head_value=U.head_value + 1e-3 * w.head_value)
    derivative_matrix.cache_clear()
    tracemalloc.start()
    try:
        nl.dist_to_manifold(u, p42)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_dist_rescaling_invariance(p42, grid_default):
    # the dilation lam^{(N-2)/2} u(lam r) of u = U + 0.05 P_1 bump, built in
    # closed form: the bubble at scale lam plus the bump moved to centre
    # -0.3 - log lam with amplitude lam^{(N-2)/2}, projected at lam (the
    # dilation is a D^{1,2} isometry and maps the tangent space at 1 to that at lam)
    def dilated(lam):
        w = nl.project_orthogonal(bump_field(grid_default, -0.3 - math.log(lam), 0.9,
                                             lam ** ((p42.N - 2) / 2)), p42, lam, 0)
        return _sum(unit_bubble(p42, grid_default, lam), w, 0.05)

    d0 = nl.dist_to_manifold(dilated(1.0), p42).d
    for lam in (0.5, 2.0):
        d1 = nl.dist_to_manifold(dilated(lam), p42).d
        assert d1 == pytest.approx(d0, rel=1e-4)


def test_optimal_c_reduction_exact(p42, grid_default):
    # at fixed lambda the residual u - c(lam) U_lam is h1-orthogonal to U_lam
    u = nl.RadialField(grid=grid_default,
                       values=unit_bubble(p42, grid_default).values
                       + 0.2 * bump_field(grid_default, 0.2, 0.5).values,
                       tail_exponent=float(p42.N - 2), head_value=0.0)
    lam = 1.7
    Ul = unit_bubble(p42, grid_default, lam=lam)
    c = nl.h1_inner(u, Ul, 0, p42.N) / nl.h1_inner(Ul, Ul, 0, p42.N)
    resid = nl.RadialField(grid=grid_default, values=u.values - c * Ul.values,
                           tail_exponent=float(p42.N - 2), head_value=0.0)
    denom = math.sqrt(nl.h1_inner(resid, resid, 0, p42.N)
                      * nl.h1_inner(Ul, Ul, 0, p42.N))
    assert abs(nl.h1_inner(resid, Ul, 0, p42.N)) < 1e-10 * denom


def test_dist_rejects_zero(p42, grid_1024):
    z = nl.RadialField(grid=grid_1024, values=np.zeros(grid_1024.n),
                       tail_exponent=np.inf, head_value=0.0)
    with pytest.raises(ValidationError):
        nl.dist_to_manifold(z, p42)


def test_project_orthogonal_properties(p42, grid_default):
    # projecting the bubble itself leaves nothing
    with pytest.raises(ValidationError):
        nl.project_orthogonal(unit_bubble(p42, grid_default), p42, 1.0, 0)
    w = nl.project_orthogonal(bump_field(grid_default, 0.1, 0.8), p42, 1.0, 0)
    assert nl.h1_inner(w, w, 0, p42.N) == pytest.approx(1.0, rel=1e-10)
    for ell, t in nl.tangent_basis(p42, 1.0, grid_default):
        if ell == 0:
            assert abs(nl.h1_inner(w, t, 0, p42.N)) < 1e-10
    # idempotence
    w2 = nl.project_orthogonal(w, p42, 1.0, 0)
    assert np.max(np.abs(w2.values - w.values)) < 1e-12 * np.max(np.abs(w.values))


def test_project_orthogonal_ell1(p42, grid_default):
    w = nl.project_orthogonal(bump_field(grid_default, 0.0, 1.0), p42, 1.0, 1)
    assert nl.h1_inner(w, w, 1, p42.N) == pytest.approx(1.0, rel=1e-10)
    basis = nl.tangent_basis(p42, 1.0, grid_default)
    _, dr = basis[2]
    assert abs(nl.h1_inner(w, dr, 1, p42.N)) < 1e-10


_DILATION_GRID = nl.make_log_grid(1e-3, 1e3, 2048)


@given(pair=st.sampled_from([(4, 2.0), (5, 3.0), (6, 4.0)]),
       k=st.integers(min_value=1, max_value=4),
       eps=st.sampled_from([1e-2, 1e-3]),
       shift=st.integers(min_value=-40, max_value=60))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_dilation_by_whole_grid_steps_is_invisible(pair, k, eps, shift):
    # lam = e^{shift h} makes the dilation lam^{(N-2)/2} u(lam r) a shift by
    # whole nodes: u and v are two windows of one field F = U + eps w on a
    # grid extended by |shift| nodes, so F, not a head or tail model, supplies
    # the nodes v shifts in, and the deficit, the distance and the optimal
    # scale move only by the end extrapolation and rounding: at (4, 2),
    # eps = 1e-3, the distance moves by <= 1.7e-11.  N = 3 is left out: its
    # sector-0 end closure is first order, and there the optimal scale moves
    # by ~2e-8.
    g = _DILATION_GRID
    p = nl.make_params(*pair)
    ext = nl.make_log_grid(g.r_min * math.exp(min(shift, 0) * g.h),
                           g.r_max * math.exp(max(shift, 0) * g.h), g.n + abs(shift))
    w = _direction_field(f"random-{k}", SweepConfig(params=p, grid=ext), ext)
    F = _sum(unit_bubble(p, ext), w, eps)
    lam, a = math.exp(shift * g.h), max(-shift, 0)
    scale = lam ** ((p.N - 2) / 2)
    u = nl.RadialField(grid=g, values=F.values[a:a + g.n], tail_exponent=F.tail_exponent,
                       head_value=F.head_value)
    v = nl.RadialField(grid=g, values=scale * F.values[a + shift:a + shift + g.n],
                       tail_exponent=F.tail_exponent, head_value=scale * F.head_value)
    ru, rv = nl.deficit(u, p), nl.deficit(v, p)
    assert abs(rv.deficit - ru.deficit) <= 1e-10 * ru.grad_energy
    du, dv = nl.dist_to_manifold(u, p), nl.dist_to_manifold(v, p)
    assert dv.d == pytest.approx(du.d, rel=1e-7)
    assert dv.best.lam == pytest.approx(lam * du.best.lam, rel=1e-9)


def test_grid_memo_is_read_only_and_per_instance(p42):
    g = cold_grid()
    twin = cold_grid(1e-3, 1e3 * (1 + 1e-14))   # the same key(), rounded
    assert twin.key() == g.key()
    u = _sweep_field(p42, g, 1, 1e-3)
    nl.dist_to_manifold(u, p42)
    arrays = [a for v in g._memo.values() for a in (v if isinstance(v, tuple) else (v,))
              if isinstance(a, np.ndarray)]
    assert len(arrays) >= 4   # the Dirichlet weights and the scan geometry
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    assert twin._memo == {}
    np.testing.assert_array_equal(g.dirichlet_weights(4),
                                  g.log_weights * np.exp(2 * g.x))


def test_dist_reuses_the_grid_memo(p42, monkeypatch):
    # a second distance on the same grid builds no scan profile (one rfft, of
    # the representer, instead of two) and no unit bubble; u sits near lambda = 3,
    # so the root's bubble is not the unit one
    import nlsobolev.manifold as manifold
    g = cold_grid()
    w = nl.project_orthogonal(bump_field(g, -1.0, 0.7), p42, 3.0, 0)
    u = _sum(unit_bubble(p42, g, lam=3.0), w, 1e-3)
    builds, ffts = [], []
    bubble, rfft = manifold.bubble, manifold.rfft
    monkeypatch.setattr(manifold, "bubble", lambda p, bp, grid: builds.append(bp) or
                        bubble(p, bp, grid))
    monkeypatch.setattr(manifold, "rfft", lambda *a: ffts.append(1) or rfft(*a))
    unit = nl.BubbleParams(c=1.0, lam=1.0)
    first = nl.dist_to_manifold(u, p42)
    assert unit in builds and len(ffts) == 2
    builds.clear()
    ffts.clear()
    second = nl.dist_to_manifold(u, p42)
    assert unit not in builds and len(ffts) == 1
    assert (second.d, second.best) == (first.d, first.best)


def test_warm_projection_differentiates_only_the_direction(p42, monkeypatch):
    # the unit tangent directions and their derivatives come from the grid
    # memo, read-only: no profile is built, and h1_inner runs only for the
    # norms of w before and after, so each coefficient differentiates one field
    import nlsobolev.manifold as manifold
    g = cold_grid()
    w = bump_field(g, 0.4, 0.7)
    first = nl.project_orthogonal(w, p42, 1.0, 0)
    basis = g._memo[("tangent_basis", p42, 1.0)]
    assert [k for k, _, _ in basis] == [0, 0, 1]
    for _, t, Dt in basis:
        for a in (t.values, Dt):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
    calls = []
    for name in ("h1_inner", "bubble", "_dlam_bubble", "_dr_bubble"):
        f = getattr(manifold, name)
        monkeypatch.setattr(manifold, name, lambda *a, f=f, name=name:
                            calls.append(name) or f(*a))
    second = nl.project_orthogonal(w, p42, 1.0, 0)
    assert calls == ["h1_inner", "h1_inner"]
    np.testing.assert_array_equal(second.values, first.values)


def test_sweep_rows_on_a_warm_shared_grid_equal_a_cold_grid():
    # make_log_grid's grid keeps its memo between sweeps; rows on it, warmed
    # at this and at other (N, alpha), are bitwise those of a cold grid
    def rows(p, grid):
        return [(r.deficit, r.dist, r.ratio, r.note)
                for r in nl.ratio_sweep(SweepConfig(params=p, grid=grid, seed=7))]

    p = nl.make_params(5, 3.0)
    shared = nl.make_log_grid(1e-3, 1e3, 2048)
    rows(nl.make_params(4, 2.0), shared)
    rows(p, nl.make_log_grid(1e-3, 1e3, 2048))
    assert ("tangent_basis", p, 1.0) in shared._memo
    assert rows(p, nl.make_log_grid(1e-3, 1e3, 2048)) == rows(p, cold_grid())


def test_sweep_rows_do_not_depend_on_a_warm_memo():
    # a grid warmed by sweeps at the same N and at another N, with other alphas,
    # gives rows bitwise equal to a cold grid's: the memo keys on every argument
    def rows(p, grid):
        cfg = SweepConfig(params=p, directions=("eigen-gap", "random-3"), grid=grid, seed=5)
        return [(r.deficit, r.dist, r.ratio, r.note) for r in nl.ratio_sweep(cfg)]

    p = nl.make_params(4, 2.0)
    cold = rows(p, cold_grid())
    warm = cold_grid()
    rows(nl.make_params(4, 1.0), warm)
    rows(nl.make_params(5, 3.0), warm)
    assert rows(p, warm) == cold
    assert rows(p, warm) == cold
    assert all(r[2] is not None for r in cold)
