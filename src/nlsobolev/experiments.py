"""Experiment drivers: deficit/distance ratio sweeps near the extremal
manifold, bubble tail energies, and the bounded-domain weak-vs-strong-norm
comparison."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import beta as beta_fn, betainc

from .errors import NumericsError, ValidationError
from .functional import deficit, weak_norm
from .grid import (RadialField, RadialGrid, _check_resolution, differentiate,
                   field_abs_pow, integrate, make_log_grid)
from .manifold import BubbleParams, _bubble_energy, bubble, dist_to_manifold, project_orthogonal
from .params import Params, _as_int, hls_sobolev_constant, sphere_area

__all__ = ["SweepConfig", "SweepRow", "BoundedDomainReport", "ratio_sweep",
           "summarize_sweep", "tail_energy", "bounded_domain_experiment"]


@dataclass(frozen=True)
class SweepConfig:
    """One ratio-sweep run: perturbation sizes, direction specs, grid, seed.

    Direction specs, each projected orthogonal to the tangent space:
    "eigen-gap" is the first radial eigenfunction above the degenerate
    eigenvalue in closed form (`spectrum` docstring), (1 + r^2)^{-(N-2)/2}
    ((N+1) s^2 - 1), s = (1 - r^2)/(1 + r^2), with exact r^{-(N-2)} tail and
    head value N; "random-<k>" is a seeded bump in t = (log r - x0)/(3 sigma),
    exp(1 - 1/(1 - t^2)) for |t| < 1 and exactly 0 elsewhere (x0 uniform in
    [-2, 2], sigma in [0.4, 1.2], drawn from seed + k, both non-negative
    integers).  The bump is C-infinity with compact support, so after
    projection its far field is exactly the tangent directions' r^{-(N-2)}
    tail that the field declares; a malformed spec, or a support that does
    not lie strictly inside the grid, is a validation error, recorded as the
    row's note.
    """
    params: Params
    epsilons: tuple[float, ...] = (1e-2, 3e-3, 1e-3)
    directions: tuple[str, ...] = ("eigen-gap", "random-1", "random-2")
    grid: RadialGrid | None = None
    seed: int = 0

    def __post_init__(self):
        eps = self.epsilons
        if not all(0 < e < math.inf for e in eps) or any(a <= b for a, b in zip(eps, eps[1:])):
            raise ValidationError("epsilons must be finite, positive and strictly decreasing")
        if _as_int("seed", self.seed) < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")


@dataclass
class SweepRow:
    direction: str
    eps: float
    deficit: float | None
    dist: float | None
    ratio: float | None
    note: str | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _direction_field(spec: str, cfg: SweepConfig, grid: RadialGrid) -> RadialField:
    p = cfg.params
    if spec == "eigen-gap":
        r2 = grid.nodes ** 2
        s = (1.0 - r2) / (1.0 + r2)
        vals = (1.0 + r2) ** (-(p.N - 2) / 2.0) * ((p.N + 1) * s * s - 1.0)
        w = RadialField(grid=grid, values=vals, tail_exponent=float(p.N - 2),
                        head_value=float(p.N))
    elif spec.startswith("random-"):
        k = spec[len("random-"):]
        if not (k.isascii() and k.isdigit()):
            raise ValidationError(f"{spec}: random-<k> needs a non-negative integer k")
        rng = np.random.default_rng(cfg.seed + int(k))
        x0 = rng.uniform(-2.0, 2.0)
        sig = rng.uniform(0.4, 1.2)
        lo, hi = x0 - 3 * sig, x0 + 3 * sig
        if not grid.x[0] < lo < hi < grid.x[-1]:
            raise ValidationError(
                f"{spec}: bump support r in [{math.exp(lo):.4g}, {math.exp(hi):.4g}] "
                f"does not lie strictly inside the grid [{grid.r_min:.4g}, {grid.r_max:.4g}]")
        t2 = ((grid.x - x0) / (3 * sig)) ** 2
        vals = np.zeros(grid.n)
        vals[t2 < 1] = np.exp(1.0 - 1.0 / (1.0 - t2[t2 < 1]))
        w = RadialField(grid=grid, values=vals, tail_exponent=np.inf, head_value=0.0)
    else:
        raise ValidationError(f"unknown direction spec {spec!r}")
    return project_orthogonal(w, p, 1.0, 0)


def ratio_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """deficit and manifold distance of u = U + eps * w along each direction;
    failed rows are recorded with a note instead of aborting the sweep, but a
    grid on which the bubble's own energy is not finite raises NumericsError."""
    p = cfg.params
    grid = cfg.grid if cfg.grid is not None else make_log_grid(1e-3, 1e3, 2048)
    _check_resolution(grid)
    U = bubble(p, BubbleParams(c=1.0, lam=1.0), grid)
    _bubble_energy(p, grid)
    rows: list[SweepRow] = []
    for spec in cfg.directions:
        try:
            w = _direction_field(spec, cfg, grid)
        except (ValidationError, NumericsError) as exc:
            for eps in cfg.epsilons:
                rows.append(SweepRow(spec, eps, None, None, None, note=str(exc)))
            continue
        for eps in cfg.epsilons:
            try:
                u = RadialField(grid=grid, values=U.values + eps * w.values,
                                tail_exponent=min(U.tail_exponent, w.tail_exponent),
                                head_value=U.head_value + eps * w.head_value)
                rep = deficit(u, p)
                dec = dist_to_manifold(u, p)
                ratio = rep.deficit / dec.d ** 2 if dec.d > 0 else None
                note = None if dec.d > 0 else "distance is zero; ratio undefined"
                rows.append(SweepRow(spec, eps, rep.deficit, dec.d, ratio, note))
            except (ValidationError, NumericsError) as exc:
                rows.append(SweepRow(spec, eps, None, None, None, note=str(exc)))
    return rows


def summarize_sweep(rows: list[SweepRow]) -> dict:
    """Empirical lower-bound candidate: smallest ratio at the smallest eps."""
    ok = [r for r in rows if r.ratio is not None]
    if not ok:
        return {"empirical_b1_lower_bound_candidate": None}
    eps_min = min(r.eps for r in ok)
    vals = [r.ratio for r in ok if r.eps == eps_min]
    return {"empirical_b1_lower_bound_candidate": min(vals)}


def tail_energy(p: Params, R: float, lam: float) -> float:
    """Gradient energy of the bubble outside the ball of radius R:
    (N-2)^2 a^2 omega_{N-1} int_{R lam}^inf s^{N+1} (1+s^2)^{-N} ds,
    evaluated by the incomplete-Beta closed form and cross-checked against
    grid quadrature of the bubble field; disagreement beyond 1e-6 relative is
    an error."""
    if R <= 0 or lam <= 0:
        raise ValidationError("R and lambda must be positive")
    N = p.N
    a = hls_sobolev_constant(p).bubble_amp
    tau = 1.0 / (1.0 + (R * lam) ** 2)
    reduction = 0.5 * betainc((N - 2) / 2.0, N / 2.0 + 1.0, tau) \
        * beta_fn((N - 2) / 2.0, N / 2.0 + 1.0)
    closed = (N - 2) ** 2 * a * a * sphere_area(N) * reduction
    # independent route: |U'|^2 sampled on [R, 1e3 R], with its r^{-2(N-1)} tail beyond
    grid = make_log_grid(R, R * 1e3, 1025)
    du = differentiate(bubble(p, BubbleParams(c=1.0, lam=lam), grid))
    f2 = RadialField(grid=grid, values=du.values ** 2,
                     tail_exponent=2.0 * (N - 1), head_value=0.0)
    by_field = integrate(f2, N)
    if abs(by_field - closed) > 1e-6 * abs(closed):
        raise NumericsError(
            f"tail energy routes disagree: field {by_field:.12e} vs closed {closed:.12e}")
    return closed


@dataclass
class BoundedDomainReport:
    """Per-lambda diagnostics of the truncated-bubble family on B_R, computed
    on `grid` (not serialized)."""
    R: float
    grid: RadialGrid
    lambdas: list[float]
    deficit: list[float]
    weak_norm: list[float]
    strong_norm: list[float]
    weak_ratio: list[float]
    strong_ratio: list[float]
    tail_energy: list[float]

    def to_json_dict(self) -> dict:
        return {"R": self.R, "lambdas": self.lambdas, "deficit": self.deficit,
                "weak_norm": self.weak_norm, "strong_norm": self.strong_norm,
                "weak_ratio": self.weak_ratio, "strong_ratio": self.strong_ratio,
                "tail_energy": self.tail_energy}


def bounded_domain_experiment(p: Params, R: float, lambdas: list[float],
                              grid_n: int = 2048) -> BoundedDomainReport:
    """Truncated bubbles u = (U_{lam,0} - U_{lam,0}(R))_+ supported in B_R:
    deficit, weak and strong L^{N/(N-2)} norms, and their remainder ratios.

    The support lies inside B_R, so the whole-space deficit formulas apply on
    the domain; the grid spans [R 1e-7, R] with grid_n nodes.  Requires
    lam * R >= 10 (the concentration regime)."""
    if R <= 0:
        raise ValidationError("R must be positive")
    lams = [float(l) for l in lambdas]
    if not all(math.isfinite(l) for l in lams):
        raise ValidationError("lambdas must be finite")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValidationError("lambdas must be increasing")
    if any(l * R < 10 for l in lams):
        raise ValidationError("need lambda * R >= 10 for every lambda")
    N, q = p.N, p.q_weak
    grid = make_log_grid(R * 1e-7, R, grid_n)
    _check_resolution(grid)
    out = BoundedDomainReport(R=R, grid=grid, lambdas=lams, deficit=[], weak_norm=[],
                              strong_norm=[], weak_ratio=[], strong_ratio=[],
                              tail_energy=[])
    e = (N - 2) / 2.0
    for lam in lams:
        U = bubble(p, BubbleParams(c=1.0, lam=lam), grid)
        try:
            a_R = U.head_value * (1.0 + (lam * R) ** 2) ** (-e)
        except OverflowError:
            raise NumericsError(f"(lambda R)^2 overflows double precision at "
                                f"lambda = {lam:g}, R = {R:g}") from None
        u = RadialField(grid=grid, values=np.maximum(U.values - a_R, 0.0),
                        tail_exponent=np.inf, head_value=U.head_value - a_R)
        rep = deficit(u, p)
        wk = weak_norm(u, R, q)
        st = integrate(field_abs_pow(u, q), N) ** (1.0 / q)
        if st < wk * (1 - 1e-9):
            raise NumericsError("strong norm fell below the weak norm")
        out.deficit.append(rep.deficit)
        out.weak_norm.append(wk)
        out.strong_norm.append(st)
        out.weak_ratio.append(rep.deficit / wk ** 2)
        out.strong_ratio.append(rep.deficit / st ** 2)
        out.tail_energy.append(tail_energy(p, R, lam))
    return out
