"""Acceptance suite: every criterion at its pinned tolerance, one printed
PASS/FAIL line per criterion (run with -s to see them).

Criterion 6 brackets deficit/dist^2 near the extremal manifold from both
sides.  For u = U + eps w with w D^{1,2}-orthogonal to the tangent space and
||grad w|| = 1, deficit = eps^2 Q(w) + O(eps^3) with
Q(w) = ||grad w||^2 - (2*_a - 1) int W w^2
       - 2*_a int (|x|^{-alpha} * (U^{2*_a - 1} w)) U^{2*_a - 1} w,
and the infimum of Q over such w is c* = 1 - 1/nu_gap, where nu_gap is the
first eigenvalue above 1 of -Laplace v = nu [(2*_a - 1) W + 2*_a K] v.  The
criterion asserts c* - 0.05 <= ratio <= 1.05 and that the eigen-direction
ratio, corrected for the bubble's own discretized deficit, converges to c*.

Recorded finding: the criterion was first written with the lower constant
2(mu_gap - 2*_a), with mu_gap the first eigenvalue of A v = mu B v above
2*_a.  The measured spectrum puts it above the upper bound 1 (8/3 at (6, 4)),
so that bracket is empty; the test still prints it, and the companion remark
mu_gap <= 2*_a + 0.55, which the spectrum violates.
"""
import json
import math
import os
import time

import numpy as np
import scipy.linalg as sla

import nlsobolev as nl
from nlsobolev.cli import run_cli
from nlsobolev.manifold import _dlam_bubble, _dr_bubble
from conftest import closed_form_c_star, dense_b

EL_PAIRS = [(3, 1.0), (3, 2.0), (4, 2.0), (5, 3.0), (6, 4.0)]
SPECTRUM_PAIRS = [(6, 4.0), (4, 2.0)]


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_1_sharp_constants():
    t0 = time.perf_counter()
    nl.sobolev_constant.cache_clear()
    p42 = nl.make_params(4, 2.0)
    c42 = nl.hls_sharp_constant(p42)
    ok_c = abs(c42 - math.pi / 2 * math.sqrt(6)) <= 1e-10
    c_small = nl.hls_sharp_constant(nl.make_params(4, 1e-9))
    ok_lim = abs(c_small - 1.0) <= 1e-8
    s1 = nl.sobolev_constant(3, grid_n=1024)
    s2 = nl.sobolev_constant(3, grid_n=4096)
    ok_s = abs(s1 - s2) <= 1e-6 * s2
    dt = time.perf_counter() - t0
    ok = report(1, "sharp-constants", ok_c and ok_lim and ok_s and dt < 5.0,
                f"(C(4,2) err {abs(c42 - math.pi/2*math.sqrt(6)):.1e}, "
                f"alpha->0 err {abs(c_small-1):.1e}, "
                f"S refinement shift {abs(s1-s2)/s2:.1e}, {dt:.2f}s)")
    assert ok


def test_criterion_2_euler_lagrange():
    t0 = time.perf_counter()
    grid = nl.make_log_grid(1e-3, 1e3, 2048)
    worst = {}
    for N, al in EL_PAIRS:
        p = nl.make_params(N, al)
        U = nl.bubble(p, nl.BubbleParams(c=1.0, lam=1.0), grid)
        worst[(N, al)] = nl.el_residual(U, p)
    dt = time.perf_counter() - t0
    ok = all(v < 1e-4 for v in worst.values()) and dt < 30.0
    report(2, "euler-lagrange-residual", ok,
           f"(max residual {max(worst.values()):.2e}, {dt:.1f}s)")
    assert ok


def test_criterion_3_sharpness():
    grid = nl.make_log_grid(1e-3, 1e3, 2048)
    worst_def, worst_id = 0.0, 0.0
    for N, al in EL_PAIRS:
        p = nl.make_params(N, al)
        c = nl.hls_sobolev_constant(p)
        ident = c.s_hls ** ((2 * N - al) / (N + 2 - al))
        for lam in (0.5, 1.0, 2.0, 10.0):
            rep = nl.deficit(nl.bubble(p, nl.BubbleParams(c=1.0, lam=lam), grid), p)
            worst_def = max(worst_def, abs(rep.deficit) / rep.grad_energy)
            worst_id = max(worst_id, abs(rep.grad_energy - ident) / ident)
    ok = worst_def < 1e-6 and worst_id < 1e-5
    report(3, "bubble-sharpness", ok,
           f"(max deficit/E {worst_def:.2e}, max norm-identity err {worst_id:.2e})")
    assert ok


def test_criterion_4_newton_oracle():
    worst = 0.0
    for N in (3, 4, 5):
        p = nl.make_params(N, float(N - 2))
        g = nl.make_log_grid(1e-3, 1e3, 1025)
        pot = nl.riesz_potential(nl.indicator_field(g, 1.0), p, 0)
        om = nl.sphere_area(N)
        mr = np.minimum(g.nodes, 1.0)
        exact = om * (g.nodes ** (2.0 - N) * mr ** N / N + (1 - mr ** 2) / 2)
        worst = max(worst, float(np.max(np.abs(pot.values - exact) / exact)))
    ok = worst < 1e-6
    report(4, "newton-oracle", ok, f"(max sup-relative error {worst:.2e})")
    assert ok


def _b_cos(B, v1, v2):
    return abs(v1 @ B @ v2) / math.sqrt((v1 @ B @ v1) * (v2 @ B @ v2))


def test_criterion_5_spectrum():
    failures = []
    details = []
    for N, al in SPECTRUM_PAIRS:
        t0 = time.perf_counter()
        p = nl.make_params(N, al)
        ts = p.two_star_alpha
        g = nl.make_log_grid(1e-3, 1e3, 1024)
        op0 = nl.assemble_sector(p, 0, g)
        rep0 = nl.solve_generalized(op0, 8)
        op1 = nl.assemble_sector(p, 1, g)
        rep1 = nl.solve_generalized(op1, 6)
        dt = time.perf_counter() - t0
        mu0 = np.array(rep0.eigenvalues)
        U = nl.bubble(p, nl.BubbleParams(c=1.0, lam=1.0), g)
        if abs(mu0[0] - 1.0) > 1e-3:
            failures.append(f"({N},{al}) mu_1 = {mu0[0]:.5f}")
        if _b_cos(dense_b(op0), rep0.eigenvectors[:, 0], U.values) <= 0.999:
            failures.append(f"({N},{al}) ground eigenvector does not match U")
        j0 = int(np.argmin(np.abs(mu0 - ts)))
        if abs(mu0[j0] - ts) > 1e-2:
            failures.append(f"({N},{al}) sector-0 misses {ts}")
        if _b_cos(dense_b(op0), rep0.eigenvectors[:, j0],
                  _dlam_bubble(p, 1.0, g).values) <= 0.99:
            failures.append(f"({N},{al}) dilation eigenvector mismatch")
        if abs(rep1.eigenvalues[0] - ts) > 1e-2:
            failures.append(f"({N},{al}) sector-1 lowest {rep1.eigenvalues[0]:.5f} != {ts}")
        if _b_cos(dense_b(op1), rep1.eigenvectors[:, 0],
                  _dr_bubble(p, 1.0, g).values) <= 0.99:
            failures.append(f"({N},{al}) translation eigenvector mismatch")
        if N == 6:
            if abs(rep1.eigenvalues[0] - 2.0) > 1e-2:
                failures.append(f"(6,4) degenerate eigenvalue != 2")
        # refinement stability 1024 -> 2048
        g2 = nl.make_log_grid(1e-3, 1e3, 2048)
        mu_ref = nl.solve_generalized(nl.assemble_sector(p, 0, g2), 5).eigenvalues
        for a, b in zip(mu0[:5], mu_ref):
            if abs(a - b) > 1e-3 * abs(b):
                failures.append(f"({N},{al}) eigenvalue drift {a:.6f}->{b:.6f}")
        if dt >= 180.0:
            failures.append(f"({N},{al}) runtime {dt:.0f}s >= 180s")
        details.append(f"({N},{al}): mu = {np.round(mu0[:4], 5).tolist()}, {dt:.0f}s")
    ok = report(5, "linearized-spectrum", not failures,
                "; ".join(details) + ("; " + "; ".join(failures) if failures else ""))
    assert ok


def _sharp_local_constant(p, grid):
    """c* = 1 - 1/nu_gap from sector 0 of the pencil
    (A - M_W) v = nu (2*_a B - M_W) v, with M_W the W-mass diagonal of
    assemble_sector, restricted by a Dirichlet condition at the outer node.
    Returns (c*, nu_gap, Dirichlet form / h1_inner for the gap eigenvector)."""
    N, ts = p.N, p.two_star_alpha
    op = nl.assemble_sector(p, 0, grid)
    MW = nl.sphere_area(N) * np.diag(grid.log_weights * np.exp(N * grid.x)
                                     * op.w_potential)
    dirichlet = (op.A.toarray() - MW)[:-1, :-1]
    sigma, vecs = sla.eigh((ts * dense_b(op) - MW)[:-1, :-1], dirichlet)
    nu = 1.0 / sigma[::-1][:6]
    j = int(np.argmax(nu > 1.0 + 1e-3))
    v = np.zeros(grid.n)
    v[:-1] = vecs[:, ::-1][:, j]
    f = nl.RadialField(grid=grid, values=v, tail_exponent=float(N - 2),
                       head_value=float(v[0]))
    form_ratio = (v[:-1] @ dirichlet @ v[:-1]) / nl.h1_inner(f, f, 0, N)
    return 1.0 - 1.0 / nu[j], float(nu[j]), float(form_ratio)


def test_criterion_6_ratio_bracket():
    """Two-sided bracket c* - 0.05 <= deficit/dist^2 <= 1.05 near the manifold,
    with the sharp local constant c* = 1 - 1/nu_gap of sector 0 (the sweep and
    the manifold are radial), and convergence of the eigen-direction ratio to c*.

    The first version of this criterion used the lower constant
    2(mu_gap - 2*_a), which exceeds the upper bound 1 whenever
    mu_gap > 2*_a + 1/2, as the spectrum measures (8/3 at (6, 4)): no
    program could pass it.  Its convergence check also compared the raw
    ratio, whose eps -> 0 limit carries deficit(U)/eps^2 from the bubble's
    own discretized deficit; the corrected ratio
    (deficit(u) - deficit(U))/dist^2 is the one that tends to c*.  Both the
    old constant and the violated remark mu_gap <= 2*_a + 0.55 are printed
    as findings, not asserted."""
    p = nl.make_params(6, 4.0)
    ts = p.two_star_alpha
    g1024 = nl.make_log_grid(1e-3, 1e3, 1024)
    mu_gap = nl.spectral_gap(p, g1024).mu_gap
    old_target = 2.0 * (mu_gap - ts)
    remark_ok = mu_gap <= ts + 0.5 + 0.05
    print(f"ACCEPTANCE 6 FINDING: mu_gap = {mu_gap:.6f}, 2*_alpha = {ts}; "
          f"original lower constant 2(mu_gap - 2*_alpha) = {old_target:.4f} > 1 "
          f"(empty bracket); bound mu_gap <= 2*_alpha + 0.55 is "
          f"{'satisfied' if remark_ok else f'VIOLATED by {mu_gap - ts - 0.55:.3f}'}")
    c_star, nu_gap, form_ratio = _sharp_local_constant(p, g1024)
    failures = []
    if not 0.0 < c_star < 1.0:
        failures.append(f"c* = {c_star:.4f} outside (0, 1)")
    c_closed = closed_form_c_star(6, 4.0)
    if abs(c_star - c_closed) > 1e-6:
        failures.append(f"c* = {c_star:.8f} differs from the closed form "
                        f"{c_closed:.8f} by {c_star - c_closed:.2e}")
    if abs(form_ratio - 1.0) > 1e-5:
        failures.append(f"Dirichlet form of the gap eigenvector drifts from "
                        f"h1_inner by {form_ratio - 1.0:.2e}")
    grid = nl.make_log_grid(1e-3, 1e3, 2048)
    cfg = nl.SweepConfig(params=p, epsilons=(1e-2, 1e-3),
                         directions=("eigen-gap", "random-1", "random-2"),
                         grid=grid, seed=0)
    rows = nl.ratio_sweep(cfg)
    delta_U = nl.deficit(nl.bubble(p, nl.BubbleParams(c=1.0, lam=1.0), grid), p).deficit
    lo, hi = c_star - 0.05, 1.05
    raw, corrected = {}, {}
    for r in rows:
        if r.ratio is None:
            failures.append(f"{r.direction}@eps={r.eps:g}: no ratio ({r.note})")
            continue
        if not lo <= r.ratio <= hi:
            failures.append(f"{r.direction}@eps={r.eps:g}: ratio {r.ratio:.4f} "
                            f"outside [{lo:.4f}, {hi:.2f}]")
        if r.direction == "eigen-gap":
            raw[r.eps] = r.ratio
            corrected[r.eps] = (r.deficit - delta_U) / r.dist ** 2
    if len(corrected) == 2:
        drift_ok = abs(corrected[1e-3] - c_star) <= abs(corrected[1e-2] - c_star)
        close_ok = abs(corrected[1e-3] - c_star) <= 0.05
        if not (drift_ok and close_ok):
            failures.append(f"corrected eigen-direction ratio "
                            f"{corrected[1e-2]:.5f} -> {corrected[1e-3]:.5f} does not "
                            f"converge to c* = {c_star:.5f}")
        print(f"ACCEPTANCE 6 c* = 1 - 1/nu_gap = {c_star:.5f} (nu_gap = {nu_gap:.6f}, "
              f"mu_gap = {mu_gap:.6f}); deficit(U) = {delta_U:.3e}; eigen-direction "
              f"ratio raw {raw[1e-2]:.5f} -> {raw[1e-3]:.5f}, "
              f"corrected {corrected[1e-2]:.5f} -> {corrected[1e-3]:.5f}")
    ratios = [r.ratio for r in rows if r.ratio is not None]
    ok = report(6, "ratio-bracket", not failures,
                f"(ratios in [{min(ratios):.4f}, {max(ratios):.4f}] within "
                f"[{lo:.4f}, {hi:.2f}])" if not failures else "; ".join(failures))
    assert ok


def test_criterion_7_tail_energy():
    worst_fit = 0.0
    for N, al in ((3, 1.0), (4, 2.0)):
        p = nl.make_params(N, al)
        s = np.logspace(1, 4, 9)
        # the op itself cross-checks quadrature vs closed form to 1e-6
        vals = np.array([nl.tail_energy(p, 1.0, l) for l in s])
        slope = np.polyfit(np.log(s), np.log(vals), 1)[0]
        worst_fit = max(worst_fit, abs(slope + (N - 2)) / (N - 2))
    ok = worst_fit < 0.02
    report(7, "tail-energy", ok, f"(max scaling-exponent error {worst_fit*100:.2f}%)")
    assert ok


def test_criterion_8_bounded_domain():
    t0 = time.perf_counter()
    p = nl.make_params(3, 1.0)
    rep = nl.bounded_domain_experiment(p, 1.0, [1e2, 1e3, 1e4])
    dt = time.perf_counter() - t0
    floor = min(rep.weak_ratio) / max(rep.weak_ratio)
    prods = [sr * math.log(l) for sr, l in zip(rep.strong_ratio, rep.lambdas)]
    band = max(prods) / min(prods)
    ok = floor > 0.3 and band <= 1.2 / 0.8 and dt < 120.0
    report(8, "bounded-domain", ok,
           f"(weak-ratio floor {floor:.3f}, strong_ratio*log spread x{band:.3f}, {dt:.0f}s)")
    assert ok


def test_criterion_9_determinism(tmp_path):
    texts = []
    for name in ("a", "b"):
        out = os.path.join(tmp_path, f"sw_{name}.json")
        code = run_cli(["sweep", "--dim", "6", "--alpha", "4", "--grid-n", "512",
                        "--epsilons", "1e-2", "--directions", "random-1",
                        "--seed", "11", "--out", out])
        assert code == 0
        with open(out, "rb") as fh:
            texts.append(fh.read())
    ok = texts[0] == texts[1]
    texts2 = []
    for name in ("c", "d"):
        out = os.path.join(tmp_path, f"bd_{name}.json")
        code = run_cli(["bounded", "--dim", "3", "--alpha", "1",
                        "--lambdas", "1e2,1e3", "--out", out])
        assert code == 0
        with open(out, "rb") as fh:
            texts2.append(fh.read())
    ok = ok and texts2[0] == texts2[1]
    report(9, "determinism", ok, "(byte-identical JSON reports)")
    assert ok
