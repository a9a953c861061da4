import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import nlsobolev as nl
from nlsobolev.errors import NumericsError, ValidationError


def test_make_params_examples():
    assert nl.make_params(6, 4.0).two_star_alpha == pytest.approx(2.0, abs=1e-15)
    assert nl.make_params(3, 2.0).two_star_alpha == pytest.approx(4.0, abs=1e-15)
    p = nl.make_params(5, 3.0)
    assert p.two_star == pytest.approx(10.0 / 3.0)
    assert p.q_weak == pytest.approx(5.0 / 3.0)


@pytest.mark.parametrize("N,alpha", [(3, 0.0), (3, 3.0), (3, -1.0), (2, 1.0), (1, 0.5)])
def test_make_params_rejects(N, alpha):
    with pytest.raises(ValidationError):
        nl.make_params(N, alpha)


def test_make_params_rejects_non_integer_dim():
    with pytest.raises(ValidationError):
        nl.make_params(3.5, 1.0)


@given(N=st.integers(min_value=3, max_value=12),
       frac=st.floats(min_value=1e-6, max_value=1 - 1e-6))
@settings(max_examples=40, deadline=None)
def test_derived_exponents(N, frac):
    alpha = frac * N
    p = nl.make_params(N, alpha)
    assert p.two_star_alpha == pytest.approx((2 * N - alpha) / (N - 2), rel=1e-15)
    # the upper critical exponent dominates the lower one
    assert (2 * N - alpha) / N <= p.two_star_alpha + 1e-15


def test_gamma_values():
    assert nl.gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert nl.gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)
    assert nl.gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValidationError):
        nl.gamma_fn(0.0)
    with pytest.raises(ValidationError):
        nl.gamma_fn(-1.5)


def test_sphere_area():
    assert nl.sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
    assert nl.sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert nl.sphere_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-14)
    with pytest.raises(ValidationError):
        nl.sphere_area(1)
    # Gamma(N/2) overflows from N = 344 on, and pi^{N/2} from N = 1242 on
    assert nl.sphere_area(343) > sys.float_info.min
    for N in (344, 1242):
        with pytest.raises(NumericsError, match="not a positive normal double"):
            nl.sphere_area(N)


def test_hls_sharp_constant_alpha_to_zero():
    p = nl.make_params(5, 1e-9)
    assert nl.hls_sharp_constant(p) == pytest.approx(1.0, abs=1e-8)


def test_hls_sharp_constant_closed_forms(p42, p32):
    # (4,2): Gamma(1) pi / Gamma(3) * (Gamma(4)/Gamma(2))^{1/2} = (pi/2) sqrt(6)
    assert nl.hls_sharp_constant(p42) == pytest.approx(math.pi / 2 * math.sqrt(6), rel=1e-12)
    # (3,2): evaluated with log-Gamma arithmetic, frozen
    lg = math.lgamma
    expected = math.exp(lg(0.5) + lg(2 * 0.5) * 0 - lg(2.0)) * math.pi \
        * math.exp((lg(3.0) - lg(1.5)) / 3.0)
    assert expected == pytest.approx(7.3038, abs=5e-4)
    assert nl.hls_sharp_constant(p32) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_hls_constant_positive_and_continuous(N):
    vals = [nl.hls_sharp_constant(nl.make_params(N, a))
            for a in np.linspace(0.05, N - 0.05, 25)]
    assert all(np.isfinite(v) and v > 0 for v in vals)
    # pointwise continuity at interior spots (the constant diverges only at alpha -> N)
    for a in np.linspace(0.3, N - 0.3, 5):
        c0 = nl.hls_sharp_constant(nl.make_params(N, a))
        c1 = nl.hls_sharp_constant(nl.make_params(N, a + 1e-7))
        assert abs(c1 - c0) <= 1e-5 * c0


def _sobolev_quad_oracle(N):
    """Independent Rayleigh quotient of the Talenti profile via adaptive quadrature."""
    amp = (N * (N - 2)) ** ((N - 2) / 4)
    om = nl.sphere_area(N)
    grad = om * quad(lambda r: (amp * (N - 2)) ** 2 * r ** (N + 1) * (1 + r * r) ** (-N),
                     0, np.inf, epsabs=1e-13, epsrel=1e-12)[0]
    two_star = 2 * N / (N - 2)
    vnorm = om * quad(lambda r: amp ** two_star * r ** (N - 1) * (1 + r * r) ** (-N),
                      0, np.inf, epsabs=1e-13, epsrel=1e-12)[0]
    return grad / vnorm ** (2 / two_star)


def test_sobolev_constant_against_quad_oracle():
    assert nl.sobolev_constant(3) == pytest.approx(_sobolev_quad_oracle(3), rel=1e-9)
    assert nl.sobolev_constant(3) == pytest.approx(5.478, abs=2e-3)
    assert nl.sobolev_constant(4) == pytest.approx(_sobolev_quad_oracle(4), rel=1e-9)


def test_sobolev_constant_refinement_stable():
    for N in (3, 4):
        s1 = nl.sobolev_constant(N, grid_n=1024)
        s2 = nl.sobolev_constant(N, grid_n=4096)
        assert abs(s1 - s2) <= 1e-8 * s2


@pytest.mark.parametrize("N, grid_n", [(3, 100.5), (3, True), (3.5, 4096), (3, "4096")])
def test_sobolev_constant_rejects_non_integer_arguments(N, grid_n):
    # a non-integer grid_n must not reach np.linspace (a raw TypeError)
    with pytest.raises(ValidationError, match="must be an integer"):
        nl.sobolev_constant(N, grid_n=grid_n)


def test_sharp_constants_relation(p32, p42, p64):
    for p in (p32, p42, p64):
        c = nl.hls_sobolev_constant(p)
        expo = (p.N - 2) / (2 * p.N - p.alpha)
        assert c.s_hls == pytest.approx(c.s_sob / c.c_hls ** expo, rel=1e-14)
        assert min(c.c_hls, c.s_sob, c.s_hls, c.bubble_amp) > 0
    # (6,4): the exponent (N-2)/(2N-alpha) is exactly 1/2
    c64 = nl.hls_sobolev_constant(p64)
    assert c64.s_hls == pytest.approx(c64.s_sob / math.sqrt(c64.c_hls), rel=1e-14)


def test_bubble_amp_consistent_with_euler_lagrange(p32, p42, p64):
    # independent amplitude: a^{2(2*_a - 1)} = N(N-2) / I with
    # I = pi^{N/2} Gamma((N-alpha)/2)/Gamma(N-alpha/2)
    for p in (p32, p42, p64):
        N, al = p.N, p.alpha
        I = math.pi ** (N / 2) * nl.gamma_fn((N - al) / 2) / nl.gamma_fn(N - al / 2)
        a_el = (N * (N - 2) / I) ** ((N - 2) / (2 * (N + 2 - al)))
        assert nl.hls_sobolev_constant(p).bubble_amp == pytest.approx(a_el, rel=1e-9)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_gaussian_normalization(N):
    # sphere_area(N) * int_0^inf r^{N-1} e^{-r^2} dr = pi^{N/2}
    grid = nl.make_log_grid(1e-4, 30.0, 2048)
    vals = np.exp(-grid.nodes ** 2)
    f = nl.RadialField(grid=grid, values=vals, tail_exponent=np.inf, head_value=1.0)
    assert nl.integrate(f, N) == pytest.approx(math.pi ** (N / 2), rel=1e-10)
