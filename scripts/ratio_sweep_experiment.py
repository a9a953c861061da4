#!/usr/bin/env python3
"""Deficit/distance ratio trajectories near the extremal manifold.

Perturbs the bubble along the first radial eigenfunction above the degenerate
eigenvalue and along seeded random directions, prints the ratio ladder as
eps -> 0, and compares the limit with the second-order spectral prediction."""
import sys

import nlsobolev as nl
from nlsobolev.cli import ArgParser, float_list, run_guarded


def main():
    ap = ArgParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=6)
    ap.add_argument("--alpha", type=float, default=4.0)
    ap.add_argument("--epsilons", default="3e-2,1e-2,3e-3,1e-3")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--grid-n", type=int, default=2048)
    args = ap.parse_args()
    p = nl.make_params(args.dim, args.alpha)
    grid = nl.make_log_grid(1e-3, 1e3, args.grid_n)
    eps = tuple(float_list("--epsilons", args.epsilons))
    cfg = nl.SweepConfig(params=p, epsilons=eps,
                         directions=("eigen-gap", "random-1", "random-2"),
                         grid=grid, seed=args.seed)
    rows = nl.ratio_sweep(cfg)
    print(f"N={p.N} alpha={p.alpha}  2*_alpha={p.two_star_alpha:.6g}")
    print(f"{'direction':12s} {'eps':>9s} {'deficit':>13s} {'dist':>11s} {'ratio':>9s}")
    for r in rows:
        if r.ratio is None:
            print(f"{r.direction:12s} {r.eps:9.1e}   -- {r.note}")
        else:
            print(f"{r.direction:12s} {r.eps:9.1e} {r.deficit:13.6e} "
                  f"{r.dist:11.4e} {r.ratio:9.6f}")
    gap = nl.spectral_gap(p, grid if args.grid_n <= 1024
                          else nl.make_log_grid(1e-3, 1e3, 1024))
    ts = p.two_star_alpha
    note = (" (original criterion formula; > 1, not a remainder constant)"
            if gap.b1_candidate > 1 else "")
    print(f"\nmu_gap = {gap.mu_gap:.6f}; "
          f"2(mu_gap - 2*_a) = {gap.b1_candidate:.6f}{note}; "
          f"floor (mu_gap - 2*_a)/mu_gap = {(gap.mu_gap - ts)/gap.mu_gap:.6f}")
    print(nl.summarize_sweep(rows))


if __name__ == "__main__":
    sys.exit(run_guarded(main))
