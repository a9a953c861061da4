"""Problem parameters, special functions, and closed-form sharp constants.

The sharp constant of the diagonal Hardy-Littlewood-Sobolev inequality has a
closed Gamma-function form; the best Sobolev constant is *not* taken from a
formula but fixed by a quadrature Rayleigh quotient of the Talenti profile
V(x) = [N(N-2)]^{(N-2)/4} (1+|x|^2)^{-(N-2)/2}, for which V is the exact
minimizer.  All derived constants are computed eagerly and cached per
(N, alpha), in log space (log-Gamma), so that a large N neither overflows
on the way nor passes NaN through: a constant that itself lies outside the
normal double range raises NumericsError.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.special as sp

from ._quadrature import uniform_weights
from .errors import NumericsError, ValidationError

__all__ = [
    "Params", "SharpConstants", "make_params", "gamma_fn", "sphere_area",
    "hls_sharp_constant", "sobolev_constant", "hls_sobolev_constant",
]

_LOG_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))


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


def _exp(name: str, log_value: float) -> float:
    """e^log_value, or NumericsError if it leaves the normal double range."""
    if not _LOG_RANGE[0] < log_value < _LOG_RANGE[1]:
        raise NumericsError(f"{name} = e^{log_value:.6g} is outside double precision")
    return math.exp(log_value)


def hls_sharp_constant(p: Params) -> float:
    """Sharp constant of the diagonal HLS inequality,
    pi^{alpha/2} Gamma((N-alpha)/2) / Gamma(N-alpha/2) (Gamma(N)/Gamma(N/2))^{(N-alpha)/N}."""
    N, alpha, lg = p.N, p.alpha, math.lgamma
    return _exp("the HLS constant",
                lg((N - alpha) / 2.0) + alpha / 2.0 * math.log(math.pi) - lg(N - alpha / 2.0)
                + (N - alpha) / N * (lg(float(N)) - lg(N / 2.0)))


@lru_cache(maxsize=None)
def sobolev_constant(N: int, grid_n: int = 4096) -> float:
    """Best Sobolev constant from the Rayleigh quotient |grad V|_2^2 / |V|_{2*}^2
    of the Talenti profile, by log-grid quadrature with closed-form head and
    tail corrections; stable to far better than 1e-6 under grid refinement.

    The amplitude a = [N(N-2)]^{(N-2)/4} cancels from the quotient (a^2
    against (a^{2*})^{2/2*}), and in x = log r the integrands r^N |V'|^2 / a^2
    and r^N V^{2*} / a^{2*} are 2^{-N} times (N-2)^2 e^{2x} q and q, with
    q = cosh(x)^{-N} formed from its logarithm: no power of r or of 2 is
    formed, so a large N neither overflows nor loses the integrals.
    """
    if N < 3:
        raise ValidationError(f"sobolev_constant requires N >= 3, got {N}")
    if grid_n < 64:
        raise ValidationError("grid_n too small for a stable quotient")
    x = np.linspace(math.log(1e-4), math.log(1e4), grid_n)
    w = uniform_weights(grid_n, x[1] - x[0])
    q = np.exp(-N * (np.logaddexp(x, -x) - math.log(2.0)))
    grad = (N - 2.0) ** 2 * np.exp(2 * x) * q
    grad_int = float(w @ grad) + grad[-1] / (N - 2)     # tail ~ e^{-(N-2) x}
    v_int = float(w @ q) + (q[0] + q[-1]) / N           # head and tail ~ e^{-N |x|}
    # S = omega^{1-2/2*} grad_int / v_int^{2/2*}, 2/2* = (N-2)/N; 2^{-N} cancels to 1/4
    log_omega = math.log(2.0) + N / 2.0 * math.log(math.pi) - math.lgamma(N / 2.0)
    return _exp("the Sobolev constant", 2.0 / N * log_omega + math.log(grad_int / 4.0)
                - (N - 2.0) / N * math.log(v_int))


@lru_cache(maxsize=None)
def hls_sobolev_constant(p: Params) -> SharpConstants:
    """All sharp constants for one (N, alpha), cached; NumericsError if one of
    them is outside the normal double range."""
    N, alpha = p.N, p.alpha
    c, s = hls_sharp_constant(p), sobolev_constant(N)
    log_c, log_s = math.log(c), math.log(s)
    log_amp = ((N - alpha) * (2.0 - N) / (4.0 * (N - alpha + 2.0)) * log_s
               + (2.0 - N) / (2.0 * (N - alpha + 2.0)) * log_c
               + (N - 2.0) / 4.0 * math.log(N * (N - 2.0)))
    return SharpConstants(c_hls=c, s_sob=s,
                          s_hls=_exp("the nonlocal Sobolev constant",
                                     log_s - (N - 2.0) / (2.0 * N - alpha) * log_c),
                          bubble_amp=_exp("the bubble amplitude", log_amp))
