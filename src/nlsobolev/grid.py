"""Radial fields on log-spaced grids: quadrature, differentiation, inner products.

Every grid, from `make_log_grid` or a CSV, is at least 16 log-uniform nodes:
`RadialGrid` checks them and derives x = log r, the step h and the weights once.
`make_log_grid` shares one grid, and its memo, between calls with equal values.

A field stores node values together with a declared far-field decay exponent
(`tail_exponent`: the field behaves like values[-1] * (r/r_max)^{-tail_exponent}
beyond the grid) and the extrapolated value at the origin (`head_value`).
Integrals carry closed-form head/tail corrections, which matters because the
extremal bubbles have power-law tails whose truncation error would otherwise
dominate everything.

Fields may additionally carry jump markers: `jumps` is a tuple of
(node_index, drop) pairs, each an integer node in 0..n-1 and a finite drop,
recording that the field falls by `drop` immediately to the right of that
node.  The stored node value is the left limit.  Markers are consumed by
the Riesz convolution to integrate piecewise-smooth fields (such as ball
indicators) exactly and honoured by the weak norm; every other field
operation rejects them (ValidationError), and CSV does not store them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache

import numpy as np

from ._quadrature import derivative_matrix, uniform_weights
from .errors import DivergentTailError, NumericsError, ValidationError
from .params import _as_int, sphere_area

__all__ = [
    "RadialGrid", "RadialField", "make_log_grid", "integrate", "differentiate", "h1_inner",
    "field_abs_pow", "field_signed_pow", "indicator_field", "write_field_csv",
    "read_field_csv",
]

_GRID_CACHE_SIZE = 8   # shared make_log_grid grids, least recently used dropped first


@dataclass(eq=False)
class RadialGrid:
    """n >= 16 nodes r_min e^{i h}, h = log(r_max / r_min) / (n - 1), with x = log r, h
    and the Gregory-corrected log_weights of int g(x) dx set once, all arrays read-only
    (nodes copied); what derives from them and a few arguments is memoized per instance."""
    r_min: float
    r_max: float
    nodes: np.ndarray

    def __post_init__(self):
        self.nodes = np.array(self.nodes, dtype=float)   # a copy, locked below
        n = len(self.nodes)
        if n < 16:
            raise ValidationError(f"need n >= 16 nodes, got {n}")
        if not 0 < self.r_min < self.r_max < math.inf:
            raise ValidationError(f"need 0 < r_min < r_max < inf, got {self.r_min, self.r_max}")
        lo, hi = math.log(self.r_min), math.log(self.r_max)
        self.h = (hi - lo) / (n - 1)
        with np.errstate(divide="ignore", invalid="ignore"):   # a node <= 0 fails below
            self.x = np.log(self.nodes)
        # log() rounds each x by ~eps (1 + |x|), which exceeds 1e-9 h once h < ~1e-7
        tol = 1e-9 * self.h + 8 * np.finfo(float).eps * (1 + max(abs(lo), abs(hi)))
        if not np.max(np.abs(self.x - lo - self.h * np.arange(n))) <= tol:
            raise ValidationError("grid nodes are not log-uniform from r_min to r_max")
        self.log_weights = uniform_weights(n, self.h)
        _lock((self.nodes, self.x, self.log_weights))
        self._memo = {}

    @property
    def n(self) -> int:
        return len(self.nodes)

    def weights(self, N: int) -> np.ndarray:
        """Quadrature weights for int_{r_min}^{r_max} f(r) r^{N-1} dr."""
        return self.log_weights * self.nodes ** N

    def memo(self, key: tuple, build):
        """build(), run once per grid under key (a name and its arguments), arrays read-only."""
        if key not in self._memo:
            self._memo[key] = build()
            _lock(self._memo[key])
        return self._memo[key]

    def dirichlet_weights(self, N: int) -> np.ndarray:
        """log_weights e^{(N-2) x}, the weights of int g(r) r^{N-3} dr, memoized."""
        def build():
            with np.errstate(over="ignore"):
                return self.log_weights * np.exp((N - 2) * self.x)
        return self.memo(("dirichlet_weights", N), build)

    def key(self) -> tuple:
        return (self.n, round(math.log(self.r_min), 12), round(math.log(self.r_max), 12))

    def index_of(self, r: float) -> int:
        """Index of the node at radius r (must match to 1e-9 in log)."""
        lr = math.log(r) if r > 0 else math.nan   # r <= 0 and NaN r match no node
        i = int(np.argmin(np.abs(self.x - lr)))
        if not abs(self.x[i] - lr) <= 1e-9:
            raise ValidationError(f"radius {r} does not coincide with a grid node")
        return i


@dataclass(eq=False)
class RadialField:
    """Node values of a radial function plus head/tail extrapolation data."""
    grid: RadialGrid
    values: np.ndarray
    tail_exponent: float   # decay exponent beyond r_max; np.inf for hard truncation
    head_value: float      # extrapolated value at r -> 0
    jumps: tuple = dc_field(default_factory=tuple)   # ((node_index, drop), ...)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValidationError("values must have one entry per grid node")
        if not np.isfinite(self.values).all():
            raise ValidationError("field values must be finite at every node")
        if math.isnan(self.tail_exponent) or self.tail_exponent == -math.inf:
            raise ValidationError(f"tail_exponent must be finite or +inf, "
                                  f"got {self.tail_exponent}")
        if not math.isfinite(self.head_value):
            raise ValidationError(f"head_value must be finite, got {self.head_value}")
        for b, drop in self.jumps:
            if not (0 <= _as_int("jump node", b) < self.grid.n and math.isfinite(drop)):
                raise ValidationError(f"jump marker {(b, drop)} needs a node in "
                                      f"0..{self.grid.n - 1} and a finite drop")


def _lock(value) -> None:
    """Make read-only an array, a field's values, or those in a (nested) tuple of them."""
    if isinstance(value, tuple):
        for v in value:
            _lock(v)
    elif isinstance(value, (np.ndarray, RadialField)):
        getattr(value, "values", value).flags.writeable = False


def make_log_grid(r_min: float, r_max: float, n: int) -> RadialGrid:
    """n log-spaced nodes from r_min to r_max; RadialGrid rejects n < 16.  Equal
    (float(r_min), float(r_max), n) give one shared grid, and with it its memo,
    while it is among the last _GRID_CACHE_SIZE asked for."""
    try:   # a Python int past the largest double overflows float(), and numpy's comparisons
        ok = 0 < r_min < r_max < math.inf and float(r_max) < math.inf
    except OverflowError:
        ok = False
    if not ok:
        raise ValidationError(f"need 0 < r_min < r_max < inf as doubles, got ({r_min}, {r_max})")
    return _shared_grid(float(r_min), float(r_max), _as_int("n", n))


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _shared_grid(r_min: float, r_max: float, n: int) -> RadialGrid:
    try:
        nodes = np.exp(np.linspace(math.log(r_min), math.log(r_max), max(n, 0)))
    except (ValueError, IndexError):   # n past the largest array numpy can index
        raise ValidationError(f"n = {n} is too large for an array") from None
    return RadialGrid(r_min=r_min, r_max=r_max, nodes=nodes)


def _reject_jumps(name: str, *fields: RadialField) -> None:
    """ValidationError for jump-marked fields: only riesz_potential and weak_norm take them."""
    if any(f.jumps for f in fields):
        raise ValidationError(f"{name} does not support jump-marked fields")


def _check_resolution(grid: RadialGrid) -> None:
    """Reject a grid with fewer than 32 nodes per decade of r, too coarse for
    the sector forms and the bubble-based experiments to mean anything."""
    if grid.n / math.log10(grid.r_max / grid.r_min) < 32:
        raise ValidationError("grid too coarse: need >= 32 nodes per decade")


def _tail_correction(v_end: float, exponent: float, moment: float, r_max: float) -> float:
    """Closed form of int_{r_max}^inf v_end (r/r_max)^{-exponent} r^{moment-1} dr."""
    if v_end == 0.0 or np.isinf(exponent):
        return 0.0
    margin = exponent - moment
    if margin <= 0:
        raise DivergentTailError(
            f"tail exponent {exponent} too small for the r^{moment - 1} moment")
    try:
        return v_end * r_max ** moment / margin
    except OverflowError:
        raise NumericsError(f"tail correction overflows: r_max^{moment} "
                            f"with r_max = {r_max:g}") from None


def integrate(f: RadialField, N: int) -> float:
    """omega_{N-1} * int_0^inf f(r) r^{N-1} dr with head/tail extensions;
    a non-finite result (r^N overflowing on the grid) is a NumericsError."""
    _reject_jumps("integrate", f)
    g = f.grid
    with np.errstate(over="ignore", invalid="ignore"):   # r^N may overflow
        core = float(g.weights(N) @ f.values)
    head = f.head_value * g.r_min ** N / N
    tail = _tail_correction(f.values[-1], f.tail_exponent, N, g.r_max)
    total = core + head + tail
    if not math.isfinite(total):
        raise NumericsError(f"integral is not finite ({total}) on this grid")
    return sphere_area(N) * total


def differentiate(f: RadialField) -> RadialField:
    """Radial derivative df/dr via centered differences in the log variable."""
    _reject_jumps("differentiate", f)
    g = f.grid
    dx = derivative_matrix(g.n, g.h, 1) @ f.values
    return RadialField(grid=g, values=dx / g.nodes,
                       tail_exponent=f.tail_exponent + 1.0, head_value=0.0)


def h1_inner(u: RadialField, v: RadialField, ell: int, N: int) -> float:
    """Dirichlet form of degree-ell modes, on the grid's memoized `dirichlet_weights`:
    omega_{N-1} * int (u'v' + ell(ell+N-2) u v / r^2) r^{N-1} dr;
    a non-finite result (r^{N-2} overflowing on the grid) is a NumericsError."""
    g = u.grid
    if v.grid is not g and v.grid.key() != g.key():
        raise ValidationError("h1_inner requires both fields on the same grid")
    if _as_int("ell", ell) < 0:
        raise ValidationError("ell must be nonnegative")
    D = derivative_matrix(g.n, g.h, 1)
    ux = D @ u.values
    return _h1_form(u, v, ux, ux if v is u else D @ v.values, ell, N)


def _h1_form(u: RadialField, v: RadialField, ux, vx, ell: int, N: int) -> float:
    """h1_inner(u, v, ell, N) from ux = D u and vx = D v, for callers that reuse ux."""
    _reject_jumps("h1_inner", u, v)
    g = u.grid
    with np.errstate(over="ignore", invalid="ignore"):   # r^{N-2} may overflow
        ew = g.dirichlet_weights(N)
        total = float(ew @ (ux * vx))
        # gradient tail: u' ~ u'(r_max) (r/r_max)^{-(tail_exponent+1)}, likewise v'
        du_end, dv_end = ux[-1] / g.r_max, vx[-1] / g.r_max
        total += _tail_correction(du_end * dv_end, (u.tail_exponent + 1) + (v.tail_exponent + 1),
                                  N, g.r_max)
        if ell > 0:
            cf = ell * (ell + N - 2)
            total += cf * float(ew @ (u.values * v.values))
            total += cf * u.head_value * v.head_value * g.r_min ** (N - 2) / (N - 2)
            total += _tail_correction(cf * u.values[-1] * v.values[-1],
                                      u.tail_exponent + v.tail_exponent, N - 2, g.r_max)
    if not math.isfinite(total):
        raise NumericsError(f"h1_inner is not finite ({total}) on this grid")
    return sphere_area(N) * total


def field_abs_pow(f: RadialField, q: float) -> RadialField:
    """|f|^q with the tail exponent scaled accordingly; NumericsError on overflow."""
    _reject_jumps("field_abs_pow", f)
    with np.errstate(over="ignore"):
        values, head = np.abs(f.values) ** q, float(np.float64(abs(f.head_value)) ** q)
    if not (math.isfinite(head) and np.all(np.isfinite(values))):
        raise NumericsError(f"|f|^{q:.6g} overflows double precision")
    return RadialField(grid=f.grid, values=values, tail_exponent=f.tail_exponent * q,
                       head_value=head)


def field_signed_pow(f: RadialField, q: float) -> RadialField:
    """|f|^{q-1} f, the sign-preserving power used by the Euler-Lagrange map."""
    a = field_abs_pow(f, q)
    return replace(a, values=np.sign(f.values) * a.values,
                   head_value=math.copysign(a.head_value, f.head_value))


def indicator_field(grid: RadialGrid, r_cut: float) -> RadialField:
    """Indicator of the centered ball of radius r_cut (r_cut must be a node)."""
    b = grid.index_of(r_cut)
    vals = np.zeros(grid.n)
    vals[:b + 1] = 1.0
    return RadialField(grid=grid, values=vals, tail_exponent=np.inf,
                       head_value=1.0, jumps=((b, 1.0),))


def write_field_csv(f: RadialField, path: str) -> None:
    """CSV format: header r,value; 17 significant digits; footer metadata rows."""
    with open(path, "w") as fh:
        fh.write("r,value\n")
        for r, v in zip(f.grid.nodes, f.values):
            fh.write(f"{r:.17g},{v:.17g}\n")
        fh.write(f"#tail_exponent={f.tail_exponent:.17g}\n")
        fh.write(f"#head_value={f.head_value:.17g}\n")


def read_field_csv(path: str) -> RadialField:
    """Read a field written by write_field_csv (bit-exact round trip)."""
    rs, vs = [], []
    meta = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "r,value":
            raise ValidationError(f"unexpected CSV header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    key, _, val = line[1:].partition("=")
                    meta[key] = float(val)
                    continue
                a, _, b = line.partition(",")
                rs.append(float(a))
                vs.append(float(b))
            except ValueError:
                raise ValidationError(
                    f"{path}, line {lineno}: malformed number in {line!r}") from None
    if not rs or "tail_exponent" not in meta or "head_value" not in meta:
        raise ValidationError("CSV missing node rows or tail_exponent/head_value footer rows")
    grid = RadialGrid(r_min=rs[0], r_max=rs[-1], nodes=np.array(rs))
    return RadialField(grid=grid, values=np.array(vs),
                       tail_exponent=meta["tail_exponent"], head_value=meta["head_value"])
