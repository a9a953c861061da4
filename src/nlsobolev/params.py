"""Problem parameters, special functions, and closed-form sharp constants.

The sharp constant of the diagonal Hardy-Littlewood-Sobolev inequality has a
closed Gamma-function form; the best Sobolev constant is *not* taken from a
formula but fixed by a quadrature Rayleigh quotient of the Talenti profile
V(x) = [N(N-2)]^{(N-2)/4} (1+|x|^2)^{-(N-2)/2}, for which V is the exact
minimizer.  All derived constants are computed eagerly and cached per
(N, alpha).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.special as sp

from ._quadrature import uniform_weights
from .errors import ValidationError

__all__ = [
    "Params", "SharpConstants", "make_params", "gamma_fn", "sphere_area",
    "hls_sharp_constant", "sobolev_constant", "hls_sobolev_constant",
]


@dataclass(frozen=True)
class Params:
    """Dimension, interaction exponent, and the derived critical exponents."""
    N: int
    alpha: float
    two_star_alpha: float   # (2N - alpha)/(N - 2), upper critical exponent
    two_star: float         # 2N/(N - 2)
    q_weak: float           # N/(N - 2), exponent of the weak-norm remainder


@dataclass(frozen=True)
class SharpConstants:
    """Sharp constants and the extremal-profile amplitude for one (N, alpha)."""
    c_hls: float       # sharp diagonal HLS constant
    s_sob: float       # best Sobolev constant
    s_hls: float       # best nonlocal Sobolev constant
    bubble_amp: float  # amplitude a = U(0) of the extremal bubble

    def __post_init__(self):
        if min(self.c_hls, self.s_sob, self.s_hls, self.bubble_amp) <= 0:
            raise ValidationError("sharp constants must be strictly positive")


def _as_int(name: str, value) -> int:
    """value as an int; ValidationError unless it is an integer (bools excluded)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def make_params(N: int, alpha: float) -> Params:
    """Validate (N, alpha) and populate the derived exponents."""
    N = _as_int("dimension", N)
    alpha = float(alpha)
    if N < 3:
        raise ValidationError(f"dimension must satisfy N >= 3, got {N}")
    if not (0.0 < alpha < N):
        raise ValidationError(f"exponent must satisfy 0 < alpha < N, got {alpha}")
    p = Params(
        N=N,
        alpha=alpha,
        two_star_alpha=(2.0 * N - alpha) / (N - 2.0),
        two_star=2.0 * N / (N - 2.0),
        q_weak=N / (N - 2.0),
    )
    hls_sobolev_constant(p)   # constants are read in hot loops; warm the cache now
    return p


def gamma_fn(x: float) -> float:
    """Gamma function on the positive half line (>= 12 correct digits)."""
    if not x > 0:
        raise ValidationError(f"gamma_fn requires x > 0, got {x}")
    return float(sp.gamma(x))


def sphere_area(N: int) -> float:
    """Surface measure of the unit sphere S^{N-1}: 2 pi^{N/2} / Gamma(N/2)."""
    if N < 2:
        raise ValidationError(f"sphere_area requires N >= 2, got {N}")
    return 2.0 * math.pi ** (N / 2.0) / gamma_fn(N / 2.0)


def hls_sharp_constant(p: Params) -> float:
    """Sharp constant of the diagonal HLS inequality."""
    N, alpha = p.N, p.alpha
    return (gamma_fn((N - alpha) / 2.0) * math.pi ** (alpha / 2.0)
            / gamma_fn(N - alpha / 2.0)
            * (gamma_fn(float(N)) / gamma_fn(N / 2.0)) ** ((N - alpha) / N))


@lru_cache(maxsize=None)
def sobolev_constant(N: int, grid_n: int = 4096) -> float:
    """Best Sobolev constant from the Rayleigh quotient of the Talenti profile.

    Evaluated by log-grid quadrature with the analytic gradient of
    V(r) = [N(N-2)]^{(N-2)/4} (1+r^2)^{-(N-2)/2} and closed-form corrections
    for the truncated head and power-law tail.  Stable to far better than
    1e-6 under grid refinement.
    """
    if N < 3:
        raise ValidationError(f"sobolev_constant requires N >= 3, got {N}")
    if grid_n < 64:
        raise ValidationError("grid_n too small for a stable quotient")
    x = np.linspace(math.log(1e-4), math.log(1e4), grid_n)
    h = x[1] - x[0]
    r = np.exp(x)
    w = uniform_weights(grid_n, h)
    two_star = 2.0 * N / (N - 2.0)
    amp = (N * (N - 2.0)) ** ((N - 2.0) / 4.0)
    grad_sq = (amp * (N - 2.0)) ** 2 * r * r * (1 + r * r) ** (-N)          # |V'(r)|^2
    v_pow = amp ** two_star * (1 + r * r) ** (-N)                           # V^{2*}
    # int g dx = omega_{N-1} int g(r) r^{N-1} dr, plus head/tail closed forms
    jac = np.exp(N * x)
    om = sphere_area(N)
    grad_int = float(w @ (grad_sq * jac))
    grad_int += grad_sq[-1] * r[-1] ** N / ((2 * N - 2) - N)    # tail ~ r^{-(2N-2)}
    v_int = float(w @ (v_pow * jac))
    v_int += v_pow[0] * r[0] ** N / N                           # head ~ const
    v_int += v_pow[-1] * r[-1] ** N / (2 * N - N)               # tail ~ r^{-2N}
    return om * grad_int / (om * v_int) ** (2.0 / two_star)


@lru_cache(maxsize=None)
def hls_sobolev_constant(p: Params) -> SharpConstants:
    """All sharp constants for one (N, alpha), cached."""
    N, alpha = p.N, p.alpha
    c = hls_sharp_constant(p)
    s = sobolev_constant(N)
    s_hls = s / c ** ((N - 2.0) / (2.0 * N - alpha))
    amp = (s ** ((N - alpha) * (2.0 - N) / (4.0 * (N - alpha + 2.0)))
           * c ** ((2.0 - N) / (2.0 * (N - alpha + 2.0)))
           * (N * (N - 2.0)) ** ((N - 2.0) / 4.0))
    return SharpConstants(c_hls=c, s_sob=s, s_hls=s_hls, bubble_amp=amp)
