#!/usr/bin/env python3
"""Scan the linearized spectrum over a list of (N, alpha) pairs and print the
per-sector eigenvalues, the gap above the degenerate eigenvalue, the original
acceptance formula 2(mu_gap - 2*_a) (not a remainder constant whenever it
exceeds 1, since deficit/dist^2 <= 1 + o(1)), and the mu_gap-only floor
(mu_gap - 2*_a)/mu_gap of the second-order coefficient."""
import sys

import numpy as np

import nlsobolev as nl
from nlsobolev.cli import ArgParser, run_guarded


def main():
    ap = ArgParser(description=__doc__)
    ap.add_argument("--pairs", default="3:1,3:2,4:2,5:3,6:4",
                    help="comma list of N:alpha")
    ap.add_argument("--grid-n", type=int, default=1024)
    ap.add_argument("--k", type=int, default=6)
    args = ap.parse_args()
    try:
        pairs = [(int(n), float(a))
                 for n, a in (spec.split(":") for spec in args.pairs.split(","))]
    except ValueError:
        raise nl.ValidationError(
            f"--pairs must be a comma list of N:alpha, got {args.pairs!r}") from None
    grid = nl.make_log_grid(1e-3, 1e3, args.grid_n)
    for n, a in pairs:
        p = nl.make_params(n, a)
        print(f"\nN={p.N} alpha={p.alpha}  (2*_alpha = {p.two_star_alpha:.6g})")
        # the sectors are solved together and the reports merged as spectral_gap does
        reps = nl.solve_sectors(nl.assemble_sectors(p, nl.spectrum.SECTOR_ELLS, grid), args.k)
        for rep in reps:
            print(f"  ell={rep.ell}: {np.round(rep.eigenvalues, 6).tolist()}")
        merged = nl.merge_sectors(p, reps)
        ts = p.two_star_alpha
        print(f"  mu_gap = {merged.mu_gap:.8f}   k_count = {merged.k_count}")
        note = ("  (original criterion formula; > 1, not a remainder constant)"
                if merged.b1_candidate > 1 else "")
        print(f"  2(mu_gap - 2*_a)      = {merged.b1_candidate:.6f}{note}")
        print(f"  (mu_gap - 2*_a)/mu_gap = {(merged.mu_gap - ts)/merged.mu_gap:.6f}")


if __name__ == "__main__":
    sys.exit(run_guarded(main))
