"""Numerics for the nonlocal Sobolev inequality with a Riesz-convolution
nonlinearity: sharp constants, extremal bubbles, the linearized eigenvalue
problem, deficit/distance ratios near the extremal manifold, and
bounded-domain weak-norm remainder experiments."""

__version__ = "0.1.0"

from .errors import (BracketingError, DivergentTailError, IndefiniteOperatorError,
                     NumericsError, ValidationError)
from .params import (Params, SharpConstants, gamma_fn, hls_sharp_constant,
                     hls_sobolev_constant, make_params, sobolev_constant, sphere_area)
from .grid import (RadialField, RadialGrid, differentiate, field_abs_pow,
                   field_signed_pow, h1_inner, indicator_field, integrate,
                   make_log_grid, read_field_csv, write_field_csv)
from .riesz import (AngularKernel, angular_kernel, angular_kernels, interaction_energy,
                    riesz_potential)
from .functional import DeficitReport, deficit, el_residual, hls_energy, weak_norm
from .manifold import (BubbleParams, Decomposition, bubble, dist_to_manifold,
                       project_orthogonal, tangent_basis)
from .spectrum import (SectorOperator, SpectrumReport, assemble_sector, assemble_sectors,
                       merge_sectors, solve_generalized, solve_sectors, spectral_gap)
from .experiments import (BoundedDomainReport, SweepConfig, SweepRow,
                          bounded_domain_experiment, ratio_sweep, summarize_sweep,
                          tail_energy)


def __getattr__(name):
    # nlsobolev.cli is loaded on first use: importing it here would put it in
    # sys.modules before `python -m nlsobolev.cli` runs it, which runpy warns about
    if name == "run_cli":
        from .cli import run_cli
        return run_cli
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "BracketingError", "DivergentTailError", "IndefiniteOperatorError",
    "NumericsError", "ValidationError",
    "Params", "SharpConstants", "gamma_fn", "hls_sharp_constant",
    "hls_sobolev_constant", "make_params", "sobolev_constant", "sphere_area",
    "RadialField", "RadialGrid", "differentiate", "field_abs_pow",
    "field_signed_pow", "h1_inner", "indicator_field", "integrate",
    "make_log_grid", "read_field_csv", "write_field_csv",
    "AngularKernel", "angular_kernel", "angular_kernels", "interaction_energy",
    "riesz_potential",
    "DeficitReport", "deficit", "el_residual", "hls_energy", "weak_norm",
    "BubbleParams", "Decomposition", "bubble", "dist_to_manifold",
    "project_orthogonal", "tangent_basis",
    "SectorOperator", "SpectrumReport", "assemble_sector", "assemble_sectors",
    "merge_sectors", "solve_generalized", "solve_sectors", "spectral_gap",
    "BoundedDomainReport", "SweepConfig", "SweepRow", "bounded_domain_experiment",
    "ratio_sweep", "summarize_sweep", "tail_energy",
    "run_cli",
]
