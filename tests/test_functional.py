import math

import numpy as np
import pytest

import nlsobolev as nl
from nlsobolev.errors import ValidationError
from conftest import bump_field, unit_bubble


def grad_energy_exact(p):
    """||grad U||^2 = a^2 (N-2)^2 omega_{N-1} B((N+2)/2, (N-2)/2) / 2."""
    from scipy.special import beta as beta_fn
    N = p.N
    a = nl.hls_sobolev_constant(p).bubble_amp
    return a * a * (N - 2) ** 2 * nl.sphere_area(N) * beta_fn((N + 2) / 2, (N - 2) / 2) / 2


@pytest.mark.parametrize("pn", ["p32", "p42", "p64"])
def test_hls_energy_equals_grad_energy(pn, request, grid_default):
    # D(U) = ||grad U||^2 via the Euler-Lagrange identity
    p = request.getfixturevalue(pn)
    U = unit_bubble(p, grid_default)
    D = nl.hls_energy(U, p)
    assert D == pytest.approx(grad_energy_exact(p), rel=1e-8)
    assert nl.h1_inner(U, U, 0, p.N) == pytest.approx(grad_energy_exact(p), rel=1e-8)


def test_hls_energy_homogeneity(p42, grid_default):
    u = unit_bubble(p42, grid_default)
    u2 = nl.RadialField(grid=grid_default, values=1.7 * u.values,
                        tail_exponent=u.tail_exponent, head_value=1.7 * u.head_value)
    expo = 2 * p42.two_star_alpha
    assert nl.hls_energy(u2, p42) == pytest.approx(
        1.7 ** expo * nl.hls_energy(u, p42), rel=1e-12)


def test_hls_energy_scale_invariance(p42, grid_default):
    base = nl.hls_energy(unit_bubble(p42, grid_default), p42)
    for lam in (0.5, 2.0, 10.0):
        assert nl.hls_energy(unit_bubble(p42, grid_default, lam=lam), p42) == \
            pytest.approx(base, rel=1e-6)


@pytest.mark.parametrize("pn", ["p32", "p42", "p64"])
def test_bubble_deficit_vanishes(pn, request, grid_default):
    p = request.getfixturevalue(pn)
    for lam in (0.5, 1.0, 2.0, 10.0):
        rep = nl.deficit(unit_bubble(p, grid_default, lam=lam), p)
        assert abs(rep.deficit) < 1e-6 * rep.grad_energy


@pytest.mark.parametrize("pn", ["p32", "p42", "p64"])
def test_grad_norm_identity(pn, request, grid_default):
    # ||grad U||^2 = S_HLS^{(2N-alpha)/(N+2-alpha)}
    p = request.getfixturevalue(pn)
    c = nl.hls_sobolev_constant(p)
    ident = c.s_hls ** ((2 * p.N - p.alpha) / (p.N + 2 - p.alpha))
    U = unit_bubble(p, grid_default)
    assert nl.h1_inner(U, U, 0, p.N) == pytest.approx(ident, rel=1e-5)


def test_deficit_scaling_quadratic(p42, grid_default):
    U = unit_bubble(p42, grid_default)
    w = bump_field(grid_default, 0.3, 0.8)
    u = nl.RadialField(grid=grid_default, values=U.values + 0.05 * w.values,
                       tail_exponent=U.tail_exponent, head_value=U.head_value)
    u2 = nl.RadialField(grid=grid_default, values=2.0 * u.values,
                        tail_exponent=u.tail_exponent, head_value=2.0 * u.head_value)
    r1 = nl.deficit(u, p42)
    r2 = nl.deficit(u2, p42)
    assert r2.deficit == pytest.approx(4.0 * r1.deficit, rel=1e-8)


def test_deficit_dilation_invariant(p42, grid_default):
    # the dilation lam^{(N-2)/2} u(lam r) of u = U + 0.1 bump in closed form:
    # the bubble at scale lam plus the bump moved to centre -0.2 - log lam
    # with amplitude lam^{(N-2)/2}
    def dilated(lam):
        U = unit_bubble(p42, grid_default, lam)
        w = bump_field(grid_default, -0.2 - math.log(lam), 0.6, lam ** ((p42.N - 2) / 2))
        return nl.RadialField(grid=grid_default, values=U.values + 0.1 * w.values,
                              tail_exponent=U.tail_exponent, head_value=U.head_value)

    base = nl.deficit(dilated(1.0), p42).deficit
    for lam in (0.5, 2.0, 10.0):
        d = nl.deficit(dilated(lam), p42).deficit
        assert d == pytest.approx(base, rel=1e-4)


def test_deficit_nonnegative_on_random_fields(p42, grid_1024):
    rng = np.random.default_rng(41)
    for _ in range(6):
        vals = np.abs(rng.normal(size=grid_1024.n)) \
            * np.exp(-0.5 * ((grid_1024.x - rng.uniform(-1, 1)) / 1.0) ** 2)
        u = nl.RadialField(grid=grid_1024, values=vals + 1e-8,
                           tail_exponent=np.inf, head_value=float(vals[0]))
        rep = nl.deficit(u, p42)
        assert rep.deficit >= -1e-8 * rep.grad_energy


def test_deficit_rejects_zero_field(p42, grid_1024):
    z = nl.RadialField(grid=grid_1024, values=np.zeros(grid_1024.n),
                       tail_exponent=np.inf, head_value=0.0)
    with pytest.raises(ValidationError):
        nl.deficit(z, p42)


def test_deficit_report_json(p42, grid_default):
    rep = nl.deficit(unit_bubble(p42, grid_default), p42)
    d = rep.to_json_dict()
    assert set(d) == {"grad_energy", "hls_energy", "deficit", "dist", "ratio"}
    assert d["dist"] is None and d["ratio"] is None


@pytest.mark.parametrize("pn,lam", [("p32", 1.0), ("p42", 1.0), ("p64", 1.0),
                                    ("p32", 5.0)])
def test_el_residual_bubble(pn, lam, request, grid_default):
    p = request.getfixturevalue(pn)
    assert nl.el_residual(unit_bubble(p, grid_default, lam=lam), p) < 1e-4


def test_el_residual_wrong_multiple(p42, grid_default):
    # 2U is not a solution: homogeneity mismatch makes the defect order one
    U2 = unit_bubble(p42, grid_default, c=2.0)
    assert nl.el_residual(U2, p42) > 0.3


def test_weak_norm_indicator():
    # indicator of B_1, N = 3, q = 3 -> (4 pi / 3)^{1/3} for every R >= 1: the
    # refinement must not step across the jump into the zero region
    g = nl.make_log_grid(1e-3, 1e3, 2049)
    ind = nl.indicator_field(g, 1.0)
    exact = (4 * math.pi / 3) ** (1.0 / 3.0)
    vals = [nl.weak_norm(ind, R, 3.0) for R in (1.0, 10.0, 100.0)]
    assert vals[1] == pytest.approx(vals[0], rel=1e-12)
    assert vals[2] == pytest.approx(vals[0], rel=1e-12)
    assert vals[0] == pytest.approx(exact, rel=1e-4)


@pytest.mark.parametrize("R,q,match", [
    (math.nan, 3.0, "R must be finite"), (math.inf, 3.0, "R must be finite"),
    (1.0, math.nan, "finite q"), (1.0, math.inf, "finite q"),
    (1.0, 1e300, "maps to dimension N=2"),
])
def test_weak_norm_rejects_bad_R_or_q(R, q, match):
    g = nl.make_log_grid(1e-3, 1.0, 256)
    u = nl.RadialField(grid=g, values=np.ones(g.n), tail_exponent=np.inf, head_value=1.0)
    with pytest.raises(ValidationError, match=match):
        nl.weak_norm(u, R, q)


def _weak_norm_oracle(u, R, q):
    """The same trapezoid F, with the quotient's grid maximum refined by a
    bounded scalar maximization of a PCHIP through five values of F."""
    from scipy.interpolate import PchipInterpolator
    from scipy.optimize import minimize_scalar
    N, g = round(2 * q / (q - 1)), u.grid
    n = int(np.sum(g.nodes <= R * (1 + 1e-12)))
    integ = np.abs(u.values[:n]) * np.exp(N * g.x[:n])
    cells = 0.5 * g.h * (integ[1:] + integ[:-1])
    F = nl.sphere_area(N) * (np.concatenate([[0.0], np.cumsum(cells)])
                             + abs(u.head_value) * g.nodes[0] ** N / N)
    quot = lambda x, c: c / (nl.sphere_area(N) / N * np.exp(N * x)) ** (1 - 1 / q)
    j = int(np.argmax(quot(g.x[:n], F)))
    cub = PchipInterpolator(g.x[max(j - 2, 0):j + 3], F[max(j - 2, 0):j + 3])
    res = minimize_scalar(lambda x: -quot(x, cub(x)), method="bounded",
                          bounds=(g.x[max(j - 1, 0)], g.x[min(j + 1, n - 1)]),
                          options={"xatol": 1e-12})
    return max(quot(g.x[j], F[j]), -res.fun)


def _truncated_bubble(N, lam, g):
    U = unit_bubble(nl.make_params(N, 1.0), g, lam=lam)
    aR = U.head_value * (1 + lam * lam) ** (-(N - 2) / 2)
    return nl.RadialField(grid=g, values=np.maximum(U.values - aR, 0.0),
                          tail_exponent=np.inf, head_value=U.head_value - aR)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_weak_norm_matches_pchip_oracle(N):
    """Truncated bubbles on the bounded-domain grid, as `nlsob bounded` builds them."""
    g = nl.make_log_grid(1e-7, 1.0, 2048)
    q = N / (N - 2)
    for lam in (1e2, 1e4):
        u = _truncated_bubble(N, lam, g)
        assert nl.weak_norm(u, 1.0, q) == pytest.approx(_weak_norm_oracle(u, 1.0, q),
                                                        rel=2e-7)


def test_weak_norm_below_strong_norm(p31):
    g = nl.make_log_grid(1e-5, 1.0, 2048)
    q = p31.q_weak
    for lam in (30.0, 300.0):
        amp = nl.hls_sobolev_constant(p31).bubble_amp
        e = (p31.N - 2) / 2
        pref = amp * lam ** e
        aR = pref * (1 + lam * lam) ** (-e)
        vals = np.maximum(pref * (1 + (lam * g.nodes) ** 2) ** (-e) - aR, 0.0)
        u = nl.RadialField(grid=g, values=vals, tail_exponent=np.inf,
                           head_value=pref - aR)
        wk = nl.weak_norm(u, 1.0, q)
        st = nl.integrate(nl.field_abs_pow(u, q), p31.N) ** (1 / q)
        assert wk <= st * (1 + 1e-9)


def test_weak_norm_scaling_law(p31):
    """Rescaled bubbles follow weak_norm ~ lambda^{-(N-2)/2} over two decades."""
    q = p31.q_weak
    amp = nl.hls_sobolev_constant(p31).bubble_amp
    e = (p31.N - 2) / 2
    lams = np.array([10.0, 31.6, 100.0, 316.0, 1000.0])
    vals = []
    for lam in lams:
        g = nl.make_log_grid(1e-6, 1.0, 2048)
        u = nl.RadialField(grid=g, values=amp * lam ** e
                           * (1 + (lam * g.nodes) ** 2) ** (-e),
                           tail_exponent=float(p31.N - 2),
                           head_value=amp * lam ** e)
        vals.append(nl.weak_norm(u, 1.0, q))
        assert vals[-1] == pytest.approx(_weak_norm_oracle(u, 1.0, q), rel=2e-7)
    slope = np.polyfit(np.log(lams), np.log(vals), 1)[0]
    assert abs(slope + e) < 0.01 * e


def test_weak_norm_rejects_nonmonotone(grid_1024):
    vals = np.abs(np.sin(grid_1024.x)) + 0.1
    u = nl.RadialField(grid=grid_1024, values=vals, tail_exponent=np.inf,
                       head_value=vals[0])
    with pytest.raises(ValidationError):
        nl.weak_norm(u, 100.0, 3.0)


def test_sharpness_over_talenti_shaped_trials(p32, grid_default):
    """The quotient ||grad u||^2 / D(u)^{1/2*_a} over the one-parameter family
    u_t = (1+r^2)^{-t/2} is minimized (to grid tolerance) at the bubble decay
    t = N-2, matching s_hls to 1e-6."""
    p = p32
    best = None
    for t in [0.8, 0.9, 1.0, 1.1, 1.2]:
        vals = (1 + grid_default.nodes ** 2) ** (-t / 2)
        u = nl.RadialField(grid=grid_default, values=vals, tail_exponent=t,
                           head_value=1.0)
        quot = nl.h1_inner(u, u, 0, p.N) / nl.hls_energy(u, p) ** (1 / p.two_star_alpha)
        if best is None or quot < best[0]:
            best = (quot, t)
    assert best[1] == 1.0   # t = N - 2
    assert best[0] == pytest.approx(nl.hls_sobolev_constant(p).s_hls, rel=1e-6)


from hypothesis import given, settings, strategies as st


@given(t=st.floats(min_value=0.25, max_value=4.0))
@settings(max_examples=8, deadline=None)
def test_deficit_quadratic_in_amplitude(p42, grid_default, t):
    # both deficit terms scale as t^2, so deficit(t u) = t^2 deficit(u)
    U = unit_bubble(p42, grid_default)
    w = bump_field(grid_default, 0.1, 0.7)
    u = nl.RadialField(grid=grid_default, values=U.values + 0.1 * w.values,
                       tail_exponent=U.tail_exponent,
                       head_value=U.head_value + 0.1 * w.head_value)
    ut = nl.RadialField(grid=grid_default, values=t * u.values,
                        tail_exponent=u.tail_exponent, head_value=t * u.head_value)
    assert nl.deficit(ut, p42).deficit == pytest.approx(
        t * t * nl.deficit(u, p42).deficit, rel=1e-8)


def test_weak_norm_exact_scaling_identity(p31):
    """weak_norm(U_lam, R) = lam^{-(N-2)/2} weak_norm(U, R lam): the change of
    variables maps the two computations onto each other exactly."""
    amp = nl.hls_sobolev_constant(p31).bubble_amp
    e = (p31.N - 2) / 2
    q = p31.q_weak
    lam, R = 50.0, 1.0
    g1 = nl.make_log_grid(1e-6, R, 2048)
    u_lam = nl.RadialField(grid=g1, values=amp * lam ** e
                           * (1 + (lam * g1.nodes) ** 2) ** (-e),
                           tail_exponent=float(p31.N - 2), head_value=amp * lam ** e)
    lhs = nl.weak_norm(u_lam, R, q)
    g2 = nl.make_log_grid(1e-6 * lam, R * lam, 2048)
    u = nl.RadialField(grid=g2, values=amp * (1 + g2.nodes ** 2) ** (-e),
                       tail_exponent=float(p31.N - 2), head_value=amp)
    rhs = lam ** (-e) * nl.weak_norm(u, R * lam, q)
    assert lhs == pytest.approx(rhs, rel=1e-10)
