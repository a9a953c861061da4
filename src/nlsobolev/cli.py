"""Command-line surface: constants, verify-bubble, spectrum, deficit, sweep,
bounded.  Reports are wrapped in a deterministic JSON envelope
{tool_version, params, grid, payload}; exit codes are 0 on success, 1 on
validation and file errors, 2 on numerical failures.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .errors import NumericsError, ValidationError
from .experiments import (SweepConfig, bounded_domain_experiment, ratio_sweep,
                          summarize_sweep)
from .functional import deficit, el_residual
from .grid import make_log_grid, read_field_csv
from .manifold import BubbleParams, bubble, dist_to_manifold
from .params import hls_sobolev_constant, make_params
from .spectrum import assemble_sector, solve_generalized, spectral_gap

__all__ = ["run_cli", "run_guarded", "float_list", "main", "ArgParser"]


class _UsageError(ValidationError):
    pass


class ArgParser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise a ValidationError (exit 1
    under run_guarded) instead of exiting 2, the numerical-failure code."""
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> ArgParser:
    """The `nlsob` parser, built on first use and shared by every later call."""
    parser = ArgParser(prog="nlsob", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, grid_default=(1e-3, 1e3, 2048)):
        """--dim, --alpha, --out and, unless grid_default is None, the grid flags."""
        sp.add_argument("--dim", type=int, required=True, help="space dimension N >= 3")
        sp.add_argument("--alpha", type=float, required=True,
                        help="interaction exponent, 0 < alpha < N")
        if grid_default is not None:
            sp.add_argument("--grid-min", type=float, default=grid_default[0])
            sp.add_argument("--grid-max", type=float, default=grid_default[1])
            sp.add_argument("--grid-n", type=int, default=grid_default[2])
        sp.add_argument("--out", type=str, default=None, help="write the JSON report here")

    common(sub.add_parser("constants", help="sharp constants and exponents"),
           grid_default=None)
    common(sub.add_parser("verify-bubble",
                          help="Euler-Lagrange residual and deficit of the bubble"))
    sp = sub.add_parser("spectrum", help="linearized eigenvalues per sector or merged")
    common(sp, grid_default=(1e-3, 1e3, 1024))
    sp.add_argument("--ell", type=int, default=None,
                    help="angular sector 0..3; omit for the merged gap report")
    sp.add_argument("--k", type=int, default=8, help="eigenvalues per sector")
    sp = sub.add_parser("deficit", help="deficit report for a field read from CSV")
    common(sp, grid_default=None)
    sp.add_argument("--input", type=str, required=True, help="RadialField CSV path")
    sp = sub.add_parser("sweep", help="deficit/distance ratios near the manifold")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--epsilons", type=str, default="1e-2,3e-3,1e-3")
    sp.add_argument("--directions", type=str, default="eigen-gap,random-1,random-2")
    sp = sub.add_parser("bounded", help="bounded-domain weak/strong norm experiment")
    common(sp, grid_default=None)
    sp.add_argument("--grid-n", type=int, default=2048, help="nodes on [radius 1e-7, radius]")
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--lambdas", type=str, default="1e2,1e3,1e4")
    return parser


def float_list(flag: str, text: str) -> list[float]:
    try:
        return [float(s) for s in text.split(",")]
    except ValueError:
        raise ValidationError(
            f"{flag} must be a comma-separated list of numbers, got {text!r}") from None


def _envelope(p, grid, payload) -> dict:
    return {
        "tool_version": __version__,
        "params": {"N": p.N, "alpha": p.alpha},
        "grid": None if grid is None else {"r_min": grid.r_min, "r_max": grid.r_max,
                                           "n": grid.n},
        "payload": payload,
    }


def _emit(env: dict, out: str | None) -> None:
    text = json.dumps(env, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_cli(argv=None) -> int:
    """Dispatch subcommands; 0 on success, 1 validation or file error, 2 numerical
    failure."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    return run_guarded(lambda: _run(args))


def _run(args) -> int:
    """Run one parsed subcommand and return its exit code."""
    p = make_params(args.dim, args.alpha)
    grid = (make_log_grid(args.grid_min, args.grid_max, args.grid_n)
            if hasattr(args, "grid_min") else None)
    exit_code = 0
    if args.command == "constants":
        c = hls_sobolev_constant(p)
        payload = {"c_hls": c.c_hls, "s_sob": c.s_sob, "s_hls": c.s_hls,
                   "bubble_amp": c.bubble_amp,
                   "two_star_alpha": p.two_star_alpha, "two_star": p.two_star,
                   "q_weak": p.q_weak}
    elif args.command == "verify-bubble":
        U = bubble(p, BubbleParams(c=1.0, lam=1.0), grid)
        res = el_residual(U, p)
        rep = deficit(U, p)
        c = hls_sobolev_constant(p)
        ident = c.s_hls ** ((2 * p.N - p.alpha) / (p.N + 2 - p.alpha))
        payload = {"el_residual": res,
                   "deficit_rel": rep.deficit / rep.grad_energy,
                   "grad_energy": rep.grad_energy,
                   "hls_energy": rep.hls_energy,
                   "norm_identity_rel": abs(rep.grad_energy - ident) / ident}
        # the acceptance tolerances: a failed check still writes the report
        failed = [f"{key} = {payload[key]:.3g} (needs |.| < {tol:g})" for key, tol in
                  (("el_residual", 1e-4), ("deficit_rel", 1e-6), ("norm_identity_rel", 1e-5))
                  if not abs(payload[key]) < tol]
        if failed:
            print(f"numerical failure: bubble check failed: {'; '.join(failed)}",
                  file=sys.stderr)
            exit_code = 2
    elif args.command == "spectrum":
        if args.ell is not None:
            rep = solve_generalized(assemble_sector(p, args.ell, grid), args.k)
        else:
            rep = spectral_gap(p, grid, args.k)
        payload = rep.to_json_dict()
    elif args.command == "deficit":
        f = read_field_csv(args.input)
        grid = f.grid
        rep = deficit(f, p)
        dec = dist_to_manifold(f, p)
        rep.dist = dec.d
        rep.ratio = rep.deficit / dec.d ** 2 if dec.d > 0 else None
        payload = rep.to_json_dict()
    elif args.command == "sweep":
        eps = tuple(float_list("--epsilons", args.epsilons))
        dirs = tuple(s.strip() for s in args.directions.split(","))
        cfg = SweepConfig(params=p, epsilons=eps, directions=dirs,
                          grid=grid, seed=args.seed)
        rows = ratio_sweep(cfg)
        payload = {"rows": [r.to_json_dict() for r in rows], **summarize_sweep(rows)}
    elif args.command == "bounded":
        lams = float_list("--lambdas", args.lambdas)
        rep = bounded_domain_experiment(p, args.radius, lams, args.grid_n)
        grid = rep.grid
        payload = rep.to_json_dict()
    else:  # pragma: no cover - argparse enforces the choices
        raise ValidationError(f"unknown command {args.command!r}")
    _emit(_envelope(p, grid, payload), args.out)
    return exit_code


def run_guarded(body):
    """Return body(); a validation or file error instead prints an `error:` line
    and returns 1, a numerical failure a `numerical failure:` line and 2."""
    try:
        return body()
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
