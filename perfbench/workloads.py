"""Seeded inputs, the one-call op of each workload, and its acceptance checks.

Inputs depend only on (workload, seed).  An op is one call into a public
driver of nlsobolev: `spectral_gap`, `ratio_sweep` or `run_cli`.  A check
turns an op's output into "tolerance uses", each a measured error over its
acceptance tolerance; a use above 1 fails the op.

Why these workloads:

- spectrum: the linearized spectrum at the bubble, as `nlsob spectrum` and
  scripts/spectrum_scan.py compute it.  Every op draws a new (N, alpha), so
  all three sector kernels build cold; the generalized eigensolve and sector
  assembly carry most of the time and `manifold` is barely touched.  alpha
  stays at or below N-2: above it the cold kernel build climbs steeply
  (sector 0 at n=2048: ~1.1 s at N-1.5, ~2.5 s at N-1), which would let the seed
  decide the op mix; that path is loaded by cli_cold instead.
- sweep: deficit/distance ratios near the manifold {c U_lambda}.  Ops cycle
  over three fixed (N, alpha) pairs, so kernels are warm after the first op
  per pair, and almost all time is the distance minimization (dense-stencil
  h1_inner evaluations).  The eigen-gap direction is left out on purpose: the
  workload bypasses the eigensolver, so spectrum-layer changes should leave it
  unchanged.
- cli_cold: what every fresh `nlsob` process pays.  Ops alternate
  `verify-bubble` and `bounded`, each with a new (N, alpha), so the sector-0
  kernel is built from scratch; one op in four has alpha >= N-1, the
  degenerate-diagonal case whose build takes seconds.  op_p50_s then follows
  the common op and ops_per_s carries the degenerate builds.

Known defects the workloads route around without fixing them:

- `nlsob bounded` ignores --grid-min/--grid-max/--grid-n, so cli_cold passes
  no grid flags to either command.
- The cold kernel build grows steeply as alpha -> N (about 20 s at
  (3, 2.77)); degenerate draws stay within alpha <= N-0.95.
- The module-level kernel cache is unbounded and gains one entry per cli_cold
  op, which peak_rss_mb shows.

Known defect left standing: on the default grid the deficit carries an
absolute error near 1e-7, about a tenth of eps^2 at eps = 1e-3, so for a few
random directions the sweep's eps = 1e-3 ratio exceeds 1.05 and the op fails
(seed 204, op 9: (4, 2), random-785044, ratio 1.078; 0.958 on a
[1e-4, 1e4] grid with n = 4096).  About one sweep op in 400 did so.
"""
from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("spectrum", "sweep", "cli_cold")
MAX_OPS = 4096   # inputs generated per run, far more than a 60 s run completes

SPECTRUM_GRID = (1e-3, 1e3, 1024)
SPECTRUM_K = 8
SWEEP_GRID = (1e-3, 1e3, 2048)
SWEEP_EPS = (1e-2, 3e-3, 1e-3)
SWEEP_PAIRS = ((4, 2.0), (5, 3.0), (6, 4.0))
CLI_DIMS = (3, 4, 5, 6)
# op positions (mod 8) that draw alpha in [N-1, N-0.95], the degenerate-diagonal
# kernel build; positions 3 and 6 put one in four ops there, split evenly
# between verify-bubble and bounded
CLI_DEGENERATE_SLOTS = (3, 6)
# ops per cycle of the input mix; a run ends on a cycle boundary so that every
# run measures the same mix of dimensions, commands and degenerate builds
CYCLE = {"spectrum": 3, "sweep": len(SWEEP_PAIRS), "cli_cold": 8}
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# whether op times are reported at the nominal machine speed (see worker.py).
# spectrum (LAPACK) and cli_cold (kernel builds) are compute-bound and follow
# the probe; sweep streams a dense 2048x2048 stencil matrix from memory ~1000
# times per op and does not (over ten runs the probe's median spread 0.30,
# sweep's raw op time 0.06), so scaling would only add the probe's noise.
SCALED = {"spectrum": True, "sweep": False, "cli_cold": True}

# acceptance tolerances (the floor; see tests/test_acceptance.py)
TOL_LOWEST = 1e-3          # lowest merged eigenvalue is 1
TOL_TWO_STAR = 1e-2        # one eigenvalue sits at 2*_alpha
RATIO_MAX = 1.05           # every sweep ratio lies in (0, RATIO_MAX]
TOL_EL = 1e-4              # verify-bubble Euler-Lagrange residual
TOL_DEFICIT = 1e-6         # verify-bubble relative deficit
TOL_NORM_IDENTITY = 1e-5   # verify-bubble norm identity
WEAK_FLOOR_N3 = 0.3        # bounded, N = 3: min/max of deficit / weak norm^2

SIZES = {
    "spectrum": {"grid": SPECTRUM_GRID, "k": SPECTRUM_K, "dims": [4, 5, 6],
                 "alpha": "evenly covers [1, N-2]"},
    "sweep": {"grid": SWEEP_GRID, "epsilons": SWEEP_EPS, "pairs": SWEEP_PAIRS,
              "directions": "one random-<k> per op"},
    "cli_cold": {"verify-bubble grid": (1e-3, 1e3, 2048),
                 "bounded grid": "fixed by nlsob: (1e-7, 1, 2048), lambdas 1e2,1e3,1e4",
                 "dims": CLI_DIMS, "alpha": "evenly covers [0.25, max(N-2, 1)]",
                 "degenerate alpha": "evenly covers [N-1, N-0.95], 2 ops in 8"},
}


def _spread(rng: random.Random):
    """Positions in [0, 1) from a golden-ratio sequence with a seeded start:
    any run length covers the interval evenly, so op costs that depend on the
    position mix the same way in every run."""
    u = rng.random()
    while True:
        yield u
        u = (u + GOLDEN) % 1.0


def make_inputs(workload: str, seed: int, count: int = MAX_OPS) -> list[dict]:
    """The run's op inputs, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}/{seed}")
    pos, deg_pos = _spread(rng), _spread(rng)
    dim_offset = rng.randrange(len(CLI_DIMS))
    ops = []
    for i in range(count):
        if workload == "spectrum":
            N = 4 + i % 3
            ops.append({"N": N, "alpha": 1.0 + next(pos) * (N - 3.0)})
        elif workload == "sweep":
            N, alpha = SWEEP_PAIRS[i % len(SWEEP_PAIRS)]
            ops.append({"N": N, "alpha": alpha,
                        "direction": f"random-{rng.randrange(1, 10 ** 6)}"})
        elif workload == "cli_cold":
            # consecutive op pairs share N; the dimension order rotates by one
            # each cycle, so both commands and both degenerate slots meet every N
            N = CLI_DIMS[(i // 2 + i // 8 + dim_offset) % len(CLI_DIMS)]
            degenerate = i % 8 in CLI_DEGENERATE_SLOTS
            if degenerate:
                alpha = N - 1.0 + 0.05 * next(deg_pos)
            else:
                alpha = 0.25 + next(pos) * (max(N - 2.0, 1.0) - 0.25)
            ops.append({"command": "bounded" if i % 2 else "verify-bubble",
                        "N": N, "alpha": alpha, "degenerate": degenerate})
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return ops


def run_op(nl, workload: str, inp: dict, seed: int, out_path: str):
    """One op: a single call into a public driver; returns its raw output."""
    if workload == "spectrum":
        p = nl.make_params(inp["N"], inp["alpha"])
        return nl.spectral_gap(p, nl.make_log_grid(*SPECTRUM_GRID), k=SPECTRUM_K)
    if workload == "sweep":
        cfg = nl.SweepConfig(params=nl.make_params(inp["N"], inp["alpha"]),
                             epsilons=SWEEP_EPS, directions=(inp["direction"],),
                             grid=nl.make_log_grid(*SWEEP_GRID), seed=seed)
        return nl.ratio_sweep(cfg)
    # `nlsob bounded` ignores --grid-*, so no grid flags are passed to either command
    argv = [inp["command"], "--dim", str(inp["N"]), "--alpha", repr(inp["alpha"]),
            "--out", out_path]
    if os.path.exists(out_path):
        os.remove(out_path)
    code = nl.run_cli(argv)
    payload = None
    if code == 0:
        with open(out_path) as fh:
            payload = json.load(fh)["payload"]
    return code, payload


def measure(workload: str, inp: dict, out) -> dict:
    """The checked quantities of an op's output."""
    if workload == "spectrum":
        ev = out.eigenvalues
        ts = (2.0 * inp["N"] - inp["alpha"]) / (inp["N"] - 2.0)
        return {"lowest": ev[0], "two_star_dist": min(abs(m - ts) for m in ev),
                "has_mu_gap": out.mu_gap is not None}
    if workload == "sweep":
        return {"ratios": [r.ratio for r in out], "notes": [r.note for r in out]}
    code, payload = out
    vals = {"exit": code}
    if payload is not None and inp["command"] == "verify-bubble":
        vals.update({k: payload[k] for k in ("el_residual", "deficit_rel",
                                             "norm_identity_rel")})
    elif payload is not None:
        vals["weak_ratio_floor"] = min(payload["weak_ratio"]) / max(payload["weak_ratio"])
    return vals


def perturb(workload: str, vals: dict) -> dict:
    """A wrong result, for the self-test: each must fail its check."""
    vals = dict(vals)
    if workload == "spectrum":
        vals["lowest"] += 2 * TOL_LOWEST
    elif workload == "sweep":
        vals["ratios"] = [vals["ratios"][0] + RATIO_MAX] + vals["ratios"][1:]
    elif "el_residual" in vals:
        vals["el_residual"] += TOL_EL
    else:
        vals["exit"] = 2
    return vals


def check(workload: str, inp: dict, vals: dict) -> dict:
    """Tolerance use of each check (measured / tolerance); > 1 fails."""
    if workload == "spectrum":
        return {"lowest_eigenvalue": abs(vals["lowest"] - 1.0) / TOL_LOWEST,
                "two_star_eigenvalue": vals["two_star_dist"] / TOL_TWO_STAR,
                "mu_gap_present": 0.0 if vals["has_mu_gap"] else math.inf}
    if workload == "sweep":
        uses = {}
        for j, (r, note) in enumerate(zip(vals["ratios"], vals["notes"])):
            uses[f"row{j}_note"] = 0.0 if note is None else math.inf
            uses[f"row{j}_ratio"] = r / RATIO_MAX if r is not None and r > 0 else math.inf
        return uses
    uses = {"exit_code": 0.0 if vals["exit"] == 0 else math.inf}
    if vals["exit"] != 0:
        return uses
    if inp["command"] == "verify-bubble":
        uses["el_residual"] = vals["el_residual"] / TOL_EL
        uses["deficit_rel"] = abs(vals["deficit_rel"]) / TOL_DEFICIT
        uses["norm_identity_rel"] = vals["norm_identity_rel"] / TOL_NORM_IDENTITY
    elif inp["N"] == 3:
        f = vals["weak_ratio_floor"]
        uses["weak_ratio_floor"] = WEAK_FLOOR_N3 / f if f > 0 else math.inf
    return uses
