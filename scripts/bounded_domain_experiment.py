#!/usr/bin/env python3
"""Bounded-domain remainder experiment: truncated bubbles concentrating in a
ball B_R.  The deficit controls the *weak* L^{N/(N-2)} norm squared with a
positive floor, while the strong-norm quotient decays like 1/log(R lambda):
this is the numerical signature that the weak norm cannot be upgraded."""
import math
import sys

import nlsobolev as nl
from nlsobolev.cli import ArgParser, float_list, run_guarded


def main():
    ap = ArgParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--radius", type=float, default=1.0)
    ap.add_argument("--lambdas", default="1e2,3e2,1e3,3e3,1e4")
    args = ap.parse_args()
    p = nl.make_params(args.dim, args.alpha)
    lams = float_list("--lambdas", args.lambdas)
    rep = nl.bounded_domain_experiment(p, args.radius, lams)
    print(f"N={p.N} alpha={p.alpha} R={args.radius}  q = {p.q_weak:.4g}")
    head = (f"{'lambda':>9s} {'deficit':>12s} {'weak':>10s} {'strong':>10s} "
            f"{'weak_ratio':>11s} {'strong_ratio':>13s} {'sr*log':>8s} {'tail':>11s}")
    print(head)
    for i, lam in enumerate(rep.lambdas):
        sr = rep.strong_ratio[i]
        print(f"{lam:9.1e} {rep.deficit[i]:12.5e} {rep.weak_norm[i]:10.4e} "
              f"{rep.strong_norm[i]:10.4e} {rep.weak_ratio[i]:11.5f} "
              f"{sr:13.5e} {sr * math.log(args.radius * lam):8.4f} "
              f"{rep.tail_energy[i]:11.4e}")
    floor = min(rep.weak_ratio) / max(rep.weak_ratio)
    print(f"\nweak-ratio floor (min/max): {floor:.4f}")


if __name__ == "__main__":
    sys.exit(run_guarded(main))
