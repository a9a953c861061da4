import dataclasses
import math
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

import nlsobolev as nl
from nlsobolev import riesz
from nlsobolev._quadrature import staggered_derivative_matrix
from nlsobolev.errors import IndefiniteOperatorError, NumericsError, ValidationError
from nlsobolev.experiments import _direction_field
from nlsobolev.manifold import _dlam_bubble, _dr_bubble
from conftest import bump_field, closed_form_mu, cold_grid, dense_a, dense_b, unit_bubble


@pytest.fixture(scope="module")
def grid64():
    return nl.make_log_grid(1e-3, 1e3, 1024)


@pytest.fixture(scope="module")
def op64_s0(p64, grid64):
    return nl.assemble_sector(p64, 0, grid64)


@pytest.fixture(scope="module")
def op64_s1(p64, grid64):
    return nl.assemble_sector(p64, 1, grid64)


@pytest.fixture(scope="module")
def op64_s2(p64, grid64):
    return nl.assemble_sector(p64, 2, grid64)


@pytest.fixture(scope="module")
def rep64_s0(op64_s0):
    return nl.solve_generalized(op64_s0, 8)


def b_cosine(op, v1, v2):
    B = dense_b(op)
    num = abs(v1 @ B @ v2)
    return num / math.sqrt((v1 @ B @ v1) * (v2 @ B @ v2))


def test_forms_symmetric(op64_s0, op64_s1, op64_s2):
    for op in (op64_s0, op64_s1, op64_s2):
        for M in (dense_a(op), dense_b(op)):
            assert np.max(np.abs(M - M.T)) <= 1e-12 * np.max(np.abs(M))
            # symmetric by construction, not by an averaging pass
            assert np.array_equal(M, M.T)


@pytest.mark.parametrize("N, alpha", [(3, 1.0), (4, 2.0), (6, 4.0)])
def test_apply_b_matches_materialized_b(N, alpha, grid64):
    rng = np.random.default_rng(17)
    p = nl.make_params(N, alpha)
    for ell in nl.spectrum.SECTOR_ELLS:
        op = nl.assemble_sector(p, ell, grid64)
        B = dense_b(op)
        for _ in range(3):
            x = rng.standard_normal(grid64.n)
            bx = B @ x
            assert np.linalg.norm(op.apply_b(x) - bx) <= 1e-14 * np.linalg.norm(bx)


@pytest.mark.parametrize("name", ["b_scale", "b_col", "b_diag", "a_band"])
def test_non_finite_factor_rejected(op64_s0, name):
    bad = getattr(op64_s0, name).copy()
    bad[len(bad) // 2] = np.nan
    with pytest.raises(NumericsError, match=f"{name} has non-finite entries"):
        dataclasses.replace(op64_s0, **{name: bad})


@pytest.mark.parametrize("name", ["b_scale", "b_col", "b_diag", "a_band"])
@pytest.mark.parametrize("cut", [1, 2])
def test_factor_of_wrong_length_rejected(op64_s0, name, cut):
    # a short factor would describe a smaller pencil and give wrong
    # eigenvalues, so every factor must span the n nodes (n is read from
    # b_scale, so a short b_scale is reported against a_band)
    short = getattr(op64_s0, name)[..., :-cut]
    with pytest.raises(ValidationError, match="sector form [a-z_]+ has shape"):
        dataclasses.replace(op64_s0, **{name: short})


def test_operator_holds_no_dense_matrix(op64_s0, op64_s1, op64_s2):
    # the largest array is A's band, 8 n entries
    for op in (op64_s0, op64_s1, op64_s2):
        n = len(op.b_scale)
        assert all(v.size <= 8 * n for v in vars(op).values() if isinstance(v, np.ndarray))


def _band_oracle(p, grid, op):
    """triu(om G^T G + diag(d)) of sector op.ell through scipy.sparse, in
    LAPACK upper band storage: G = diag(sqrt(q)) D with D the staggered
    stencil as CSR, d the centrifugal, W-mass and exterior terms."""
    N, n, ell, x, wl = p.N, grid.n, op.ell, grid.x, grid.log_weights
    om = nl.sphere_area(N)
    rows, j0 = staggered_derivative_matrix(n, grid.h)
    D = sp.csr_array((rows.ravel(), (j0[:, None] + np.arange(8)).ravel(),
                      np.arange(0, 8 * (n - 1) + 1, 8)), shape=(n - 1, n))
    q_mid = grid.h * np.exp((N - 2) * (0.5 * (x[:-1] + x[1:])))
    G = sp.diags_array(np.sqrt(q_mid)) @ D
    W = N * (N - 2) / (1.0 + grid.nodes ** 2) ** 2      # -Laplace U / U
    d = om * ell * (ell + N - 2) * (wl * np.exp((N - 2) * x)) \
        + om * (wl * np.exp(N * x) * W)
    d[-1] += om * (ell + N - 2) * np.float64(grid.r_max) ** (N - 2)
    up = sp.triu(om * (G.T @ G) + sp.diags_array(d), format="coo")
    band = np.zeros((8, n))
    band[7 + up.row - up.col, up.col] = up.data
    return band


@pytest.mark.parametrize("N", [3, 4, 5, 6, 12])
@pytest.mark.parametrize("r_min, r_max, n", [(1e-3, 1e3, 1024), (1e-3, 1e3, 2048),
                                            (1e-4, 1e4, 4096)])
def test_a_band_matches_sparse_oracle(N, r_min, r_max, n):
    # the bincount assembly sums each entry over ascending stencil rows, as
    # the sparse product does, so the bands agree to the bit
    p, grid = nl.make_params(N, max(N / 2 - 0.5, 1.0)), nl.make_log_grid(r_min, r_max, n)
    for op in nl.assemble_sectors(p, nl.spectrum.SECTOR_ELLS, grid):
        assert np.array_equal(op.a_band, _band_oracle(p, grid, op))


def test_b_positive_semidefinite(op64_s0):
    ev = np.linalg.eigvalsh(dense_b(op64_s0))
    assert ev[0] >= -1e-10 * ev[-1]


def test_forms_agree_at_bubble(p64, grid64, op64_s0):
    # a(U, U) = b(U, U), the identity behind mu_1 = 1
    u = unit_bubble(p64, grid64).values
    assert u @ dense_a(op64_s0) @ u == pytest.approx(u @ dense_b(op64_s0) @ u, rel=1e-4)


def test_rayleigh_quotients_of_known_eigenfunctions(p64, grid64, op64_s0, op64_s1):
    ts = p64.two_star_alpha
    u = unit_bubble(p64, grid64).values
    A0, A1 = dense_a(op64_s0), dense_a(op64_s1)
    assert (u @ A0 @ u) / (u @ dense_b(op64_s0) @ u) == pytest.approx(1.0, abs=1e-4)
    dl = _dlam_bubble(p64, 1.0, grid64).values
    assert (dl @ A0 @ dl) / (dl @ dense_b(op64_s0) @ dl) == pytest.approx(ts, abs=1e-3)
    dr = _dr_bubble(p64, 1.0, grid64).values
    assert (dr @ A1 @ dr) / (dr @ dense_b(op64_s1) @ dr) == pytest.approx(ts, abs=1e-3)


def test_first_eigenvalue_simple_with_bubble_eigenvector(p64, grid64, op64_s0, rep64_s0):
    mu = rep64_s0.eigenvalues
    assert mu[0] == pytest.approx(1.0, abs=1e-3)
    assert mu[1] > 1.0 + 1e-3   # simple
    u = unit_bubble(p64, grid64).values
    assert b_cosine(op64_s0, rep64_s0.eigenvectors[:, 0], u) > 0.999


def test_degenerate_eigenvalue_both_sectors(p64, grid64, op64_s0, op64_s1, rep64_s0):
    ts = p64.two_star_alpha
    mu0 = np.array(rep64_s0.eigenvalues)
    j0 = int(np.argmin(np.abs(mu0 - ts)))
    assert mu0[j0] == pytest.approx(ts, abs=1e-2)
    assert b_cosine(op64_s0, rep64_s0.eigenvectors[:, j0],
                    _dlam_bubble(p64, 1.0, grid64).values) > 0.99
    rep1 = nl.solve_generalized(op64_s1, 6)
    assert rep1.eigenvalues[0] == pytest.approx(ts, abs=1e-2)
    assert b_cosine(op64_s1, rep1.eigenvectors[:, 0],
                    _dr_bubble(p64, 1.0, grid64).values) > 0.99
    # for (6,4) the degenerate eigenvalue is exactly 2
    assert rep1.eigenvalues[0] == pytest.approx(2.0, abs=1e-2)


def test_eigenvalues_ascending_and_consistent(op64_s0, rep64_s0):
    mu = np.array(rep64_s0.eigenvalues)
    assert np.all(np.diff(mu) > -1e-12)
    # returned eigenvectors reproduce the eigenvalues through the Rayleigh quotient
    A, B = dense_a(op64_s0), dense_b(op64_s0)
    for j in range(len(mu)):
        v = rep64_s0.eigenvectors[:, j]
        quot = (v @ A @ v) / (v @ B @ v)
        assert quot == pytest.approx(mu[j], rel=1e-10)


def _full_reduction(op, k):
    """Oracle: the k smallest mu of A v = mu B v by a Cholesky reduction of the
    scaled pencil and a full symmetric eigensolve, with B-normalized
    eigenvectors whose largest-magnitude entry is positive."""
    A, B = dense_a(op), dense_b(op)
    d = 1.0 / np.sqrt(np.diag(A))
    L = np.linalg.cholesky(d[:, None] * A * d[None, :])
    C = sla.solve_triangular(L, sla.solve_triangular(L, d[:, None] * B * d[None, :],
                                                     lower=True).T, lower=True)
    nu, Q = np.linalg.eigh(0.5 * (C + C.T))
    V = d[:, None] * sla.solve_triangular(L.T, Q[:, ::-1][:, :k], lower=False)
    V /= np.sqrt(np.einsum("ij,ij->j", V, B @ V))
    V *= np.sign(V[np.argmax(np.abs(V), axis=0), np.arange(k)])
    return 1.0 / nu[::-1][:k], V


@pytest.mark.parametrize("sector", [0, 1, 2])
def test_subset_solve_matches_full_reduction(sector, request):
    op = request.getfixturevalue(f"op64_s{sector}")
    rep = nl.solve_generalized(op, 8)
    mu_ref, V_ref = _full_reduction(op, 8)
    np.testing.assert_allclose(rep.eigenvalues, mu_ref, rtol=1e-12, atol=0)
    V = rep.eigenvectors
    assert np.max(np.abs(V - V_ref)) <= 1e-9
    assert np.all(V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])] > 0)


def _dip_b(op, frac):
    """op with b_diag lowered at node 0 by B_00 + frac * lambda_max.  B_00 and
    B's first row are below 1e-16 lambda_max there, so B's smallest eigenvalue
    becomes -frac * lambda_max, along e_0, whatever the round-off in B's
    near-null space."""
    B = dense_b(op)
    b_diag = op.b_diag.copy()
    b_diag[0] -= B[0, 0] + frac * np.linalg.eigvalsh(B)[-1]
    return dataclasses.replace(op, b_diag=b_diag)


def test_b_dip_beyond_tolerance_rejected(op64_s0):
    op = _dip_b(op64_s0, 1e-8)
    ev = np.linalg.eigvalsh(dense_b(op))
    assert ev[0] / ev[-1] == pytest.approx(-1e-8, rel=1e-6)
    with pytest.raises(IndefiniteOperatorError):
        nl.solve_generalized(op, 8)


def test_b_dip_within_tolerance_solves(op64_s0, rep64_s0):
    rep = nl.solve_generalized(_dip_b(op64_s0, 1e-12), 8)
    np.testing.assert_allclose(rep.eigenvalues, rep64_s0.eigenvalues, rtol=1e-8)


@pytest.mark.parametrize("N, alpha", [(3, 1.0), (3, 2.9), (5, 4.5), (6, 0.25), (6, 4.0)])
def test_toeplitz_certificate_agrees_with_dense_cholesky(N, alpha, grid64):
    # both accept every real operator (each raises on rejection): the oracle,
    # a dense Cholesky of B + 1e-10 max diag(B) I, and the Toeplitz certificate
    p = nl.make_params(N, alpha)
    for ell in nl.spectrum.SECTOR_ELLS:
        op = nl.assemble_sector(p, ell, grid64)
        B = dense_b(op)
        B[np.diag_indices(len(B))] += 1e-10 * np.max(np.diag(B))
        sla.cholesky(B, lower=True, overwrite_a=True)
        nl.spectrum._psd_to_tolerance(op)


def _toeplitz_delta(op):
    """lambda_min(T) and the certificate's shift delta, from dense matrices."""
    lam_lo = np.max(np.diag(dense_b(op)))
    delta = (1e-10 * lam_lo + min(op.b_diag.min(), 0.0)) / np.max(op.b_scale ** 2)
    return np.linalg.eigvalsh(sla.toeplitz(op.b_col))[0], delta


@pytest.mark.parametrize("depth, indefinite", [(2.0, True), (0.5, False)])
def test_indefinite_toeplitz_factor(op64_s0, depth, indefinite):
    # lag 0 lowered so that lambda_min(T) = -depth * delta
    lam_min, delta = _toeplitz_delta(op64_s0)
    col = op64_s0.b_col.copy()
    col[0] -= lam_min + depth * delta
    op = dataclasses.replace(op64_s0, b_col=col)
    if indefinite:
        with pytest.raises(IndefiniteOperatorError, match="not certified"):
            nl.solve_generalized(op, 8)
    else:
        nl.spectrum._psd_to_tolerance(op)
        ev = np.linalg.eigvalsh(dense_b(op))     # what the pass certifies
        assert ev[0] >= -1e-10 * ev[-1]


@given(n=st.integers(2, 128), decay=st.floats(0.05, 0.99), seed=st.integers(0, 2 ** 32 - 1),
       margin=st.floats(-1e-2, 1e-1))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_circulant_certificate_never_passes_indefinite_toeplitz(n, decay, seed, margin):
    # a decaying column of mixed signs, its lag 0 set so that lambda_min(T) is
    # margin * sum |col[1:]|: whenever the FFT test passes, the dense oracle
    # reads lambda_min(T) >= -(the test's rounding bound)
    rng = np.random.default_rng(seed)
    col = np.concatenate(([0.0], rng.choice([-1.0, 1.0], n - 1) * rng.uniform(0, 1, n - 1)
                          * decay ** np.arange(1, n)))
    scale = np.abs(col).sum() or 1.0
    col[0] = margin * scale - np.linalg.eigvalsh(sla.toeplitz(col))[0]
    if nl.spectrum._circulant_psd(col):
        g = nl.spectrum._circulant_embedding(col)
        bound = 8 * np.finfo(float).eps * math.log2(len(g)) * np.abs(g).sum()
        assert np.linalg.eigvalsh(sla.toeplitz(col))[0] >= -bound


def test_circulant_embedding_holds_the_toeplitz_lags(op64_s0):
    # a symmetric circulant whose leading n x n block is T
    n, col = len(op64_s0.b_scale), op64_s0.b_col
    g = nl.spectrum._circulant_embedding(col)
    assert len(g) >= 6 * n
    np.testing.assert_array_equal(g[:n], col)
    np.testing.assert_array_equal(g[1:], g[1:][::-1])


@pytest.mark.parametrize("N, alpha", [(N, alpha) for N in (4, 5, 6)
                                      for alpha in (1.0, N / 2 - 0.5, N - 2.0)])
def test_spectrum_range_certified_without_schur(N, alpha, grid64, monkeypatch):
    # every sector of the spectrum workload's range passes the FFT test, so
    # the O(n^2) Schur recursion never runs there
    def schur(col):
        raise AssertionError("the Schur fallback was reached")

    monkeypatch.setattr(nl.spectrum, "_toeplitz_pd", schur)
    rep = nl.spectral_gap(nl.make_params(N, alpha), grid64, 8)
    assert rep.eigenvalues[0] == pytest.approx(1.0, abs=1e-3)


def test_small_alpha_sector_certified_by_schur(grid64, monkeypatch):
    # at (4, 0.08), ell = 0 the FFT test is inconclusive; the exact Schur test
    # decides, and passes
    verdicts = []
    schur = nl.spectrum._toeplitz_pd
    monkeypatch.setattr(nl.spectrum, "_toeplitz_pd",
                        lambda col: verdicts.append(schur(col)) or verdicts[-1])
    nl.spectrum._psd_to_tolerance(nl.assemble_sector(nl.make_params(4, 0.08), 0, grid64))
    assert verdicts == [True]


@pytest.mark.parametrize("sector", [0, 1, 2])
def test_certificate_floor_below_lambda_max(sector, request):
    # the diagonal bound lambda_lo = max diag(B) is a Rayleigh quotient of B
    op = request.getfixturevalue(f"op64_s{sector}")
    B = dense_b(op)
    lam_lo = np.max(op.b_scale ** 2 * op.b_col[0] + op.b_diag)
    assert lam_lo == pytest.approx(np.max(np.diag(B)), rel=1e-15)
    assert lam_lo <= np.linalg.eigvalsh(B)[-1]


@pytest.mark.parametrize("sector", [0, 1, 2])
def test_eigenvectors_b_orthonormal(sector, request):
    # the eigenvectors are B-normalized without a B matvec
    op = request.getfixturevalue(f"op64_s{sector}")
    V = nl.solve_generalized(op, 8).eigenvectors
    np.testing.assert_allclose(V.T @ dense_b(op) @ V, np.eye(V.shape[1]), rtol=0, atol=1e-10)


@pytest.mark.parametrize("N, alpha", [(6, 4.0), (4, 2.0), (3, 1.0), (5, 1.2)])
def test_b_matvec_budget(N, alpha, grid64, monkeypatch):
    # standard-form Lanczos over the banded Cholesky of A, with no lambda_max
    # eigensolve: the sectors share one batched B product per step, one row per
    # sector still running, and no sector runs more than 40 steps at
    # n = 1024, k = 8 (34 measured)
    rows = []
    b_products = nl.spectrum._b_products
    monkeypatch.setattr(nl.spectrum, "_b_products",
                        lambda *args: rows.append(len(args[3])) or b_products(*args))
    ops = nl.assemble_sectors(nl.make_params(N, alpha), nl.spectrum.SECTOR_ELLS, grid64)
    nl.spectrum.solve_sectors(ops, 8)
    assert rows[0] == len(ops) and rows == sorted(rows, reverse=True)
    assert len(rows) <= 40 and sum(rows) <= 40 * len(ops), rows


def test_solve_forms_no_dense_matrix(op64_s0):
    # one n x n float64 array is 8 MiB at n = 1024
    tracemalloc.start()
    try:
        nl.solve_generalized(op64_s0, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_negative_a_rejected(op64_s0):
    with pytest.raises(IndefiniteOperatorError, match="A is not positive definite"):
        nl.solve_generalized(dataclasses.replace(op64_s0, a_band=-op64_s0.a_band), 8)


def _solve_spectral_gap(p, grid, monkeypatch):
    """spectral_gap's report and the sector reports it merged."""
    batch = []
    solve_sectors = nl.spectrum.solve_sectors
    monkeypatch.setattr(nl.spectrum, "solve_sectors",
                        lambda ops, k: batch.append(solve_sectors(ops, k)) or batch[-1])
    return nl.spectral_gap(p, grid), batch[0]


def test_second_alpha_reuses_the_memoized_a(monkeypatch):
    """A spectral_gap at a known N and a new alpha, on the shared grid, builds
    no Dirichlet band and factors no A: both come from the grid's memo.  Its
    report and eigenvectors are, bit for bit, those on a grid whose memo
    starts empty."""
    g = nl.make_log_grid(1e-3, 1e3, 1024)
    nl.spectral_gap(nl.make_params(5, 2.2), g, k=4)
    calls = []

    def counted(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    for mod, name in [(nl.spectrum, "staggered_derivative_matrix"), (sla, "cholesky_banded"),
                      (sla.lapack, "dpbtrf")]:
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    p = nl.make_params(5, 3.1)
    warm, warm_sectors = _solve_spectral_gap(p, g, monkeypatch)
    assert calls == []
    cold, cold_sectors = _solve_spectral_gap(p, cold_grid(n=1024), monkeypatch)
    assert calls.count("staggered_derivative_matrix") == 1
    assert calls.count("cholesky_banded") == len(nl.spectrum.SECTOR_ELLS)
    assert warm.to_json_dict() == cold.to_json_dict()
    for w, c in zip(warm_sectors, cold_sectors):
        assert w.eigenvalues == c.eigenvalues
        assert np.array_equal(w.eigenvectors, c.eigenvectors)


def test_memoized_a_is_read_only_and_never_outlives_its_band(grid64, monkeypatch):
    """A's band and factor in the grid's memo are read-only, so no caller can
    change the band under its factor; an operator given another band by
    dataclasses.replace is factored anew: negated, A raises, and doubled,
    every eigenvalue doubles to rounding.  A directly built operator solves
    as the assembled one, to the bit."""
    p = nl.make_params(4, 2.0)
    op = nl.assemble_sector(p, 1, grid64)
    band, factor = op._a_chol
    assert band is op.a_band
    for a in (band, factor, op.b_diag):
        assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        op.a_band[7, 0] = 1.0
    base = nl.solve_generalized(op, 8)
    factored = []
    cholesky = sla.cholesky_banded
    monkeypatch.setattr(sla, "cholesky_banded",
                        lambda *args, **kwargs: factored.append(1) or cholesky(*args, **kwargs))
    with pytest.raises(IndefiniteOperatorError, match="A is not positive definite"):
        nl.solve_generalized(dataclasses.replace(op, a_band=-op.a_band), 8)
    doubled = nl.solve_generalized(dataclasses.replace(op, a_band=2 * op.a_band), 8)
    np.testing.assert_allclose(doubled.eigenvalues, 2 * np.array(base.eigenvalues),
                               rtol=1e-12, atol=0)
    assert len(factored) == 2
    direct = nl.SectorOperator(ell=1, a_band=op.a_band.copy(), b_scale=op.b_scale,
                               b_col=op.b_col, b_diag=op.b_diag, params=p)
    again = nl.solve_generalized(direct, 8)
    assert len(factored) == 3
    assert again.eigenvalues == base.eigenvalues
    assert np.array_equal(again.eigenvectors, base.eigenvectors)


@pytest.mark.parametrize("n", [64, 1024, 4096])
@pytest.mark.parametrize("N, alpha", [(3, 2.5), (5, 4.3), (4, 3.93), (3, 2.95), (6, 4.0)])
def test_pencil_column_is_the_kernel_weights(N, alpha, n, monkeypatch):
    """B's Toeplitz column, formed from moment tables over n + 2 cells, is the
    padded sector kernel's weights at lags 0..n-1 times omega_{N-1}, bit for
    bit, in every sector: for alpha > N - 1 and for N - alpha < 0.12, where
    the singular cell's rule meets the c-floor."""
    monkeypatch.setattr(riesz, "_kernel_cache", OrderedDict())
    p = nl.make_params(N, alpha)
    g = nl.make_log_grid(0.1, 10, n) if n == 64 else nl.make_log_grid(1e-3, 1e3, n)
    ops = nl.assemble_sectors(p, range(riesz.MAX_ELL + 1), g)
    for op in ops:
        kern = nl.angular_kernel(p, op.ell, g)
        assert np.array_equal(op.b_col, kern.weights[kern.half:kern.half + n] * nl.sphere_area(N))


def test_lanczos_no_convergence_is_numerics_error(op64_s0, monkeypatch):
    # a step cap of 20 stops Lanczos before its first Ritz test at k = 8
    monkeypatch.setattr(nl.spectrum, "_STEP_CAP", (0, 20))
    with pytest.raises(NumericsError, match="did not converge for k=8 in 20 steps"):
        nl.solve_generalized(op64_s0, 8)


@pytest.mark.parametrize("N, alpha", [(3, 1.0), (4, 2.0), (6, 4.0)])
def test_spectral_gap_sectors_match_one_at_a_time(N, alpha, grid64, monkeypatch):
    # every sector of the lockstep solve is the one-sector solve to the bit:
    # each row of the batch runs its own steps, transforms and BLAS calls
    batch = []
    solve_sectors = nl.spectrum.solve_sectors
    monkeypatch.setattr(nl.spectrum, "solve_sectors",
                        lambda ops, k: batch.append((ops, solve_sectors(ops, k))) or batch[-1][1])
    nl.spectral_gap(nl.make_params(N, alpha), grid64)
    (ops, reps), = batch
    assert [op.ell for op in ops] == list(nl.spectrum.SECTOR_ELLS)
    for op, rep in zip(ops, reps):
        one = nl.solve_generalized(op, 10)
        assert one.eigenvalues == rep.eigenvalues
        assert np.array_equal(one.eigenvectors, rep.eigenvectors)


@pytest.fixture(scope="module")
def grid_small():
    return nl.make_log_grid(0.1, 10, 64)


def _count_b_products(monkeypatch):
    steps = []
    b_products = nl.spectrum._b_products
    monkeypatch.setattr(nl.spectrum, "_b_products",
                        lambda *args: steps.append(1) or b_products(*args))
    return steps


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_krylov_space_exhausted_matches_dense_solve(grid_small, ell, monkeypatch):
    # k = 30 on 64 nodes runs Lanczos to all 64 steps, where the last
    # residual is rounding: every Ritz pair is exact there
    op = nl.assemble_sector(nl.make_params(4, 2.0), ell, grid_small)
    nu = sla.eigh(dense_b(op), dense_a(op), eigvals_only=True)[::-1][:30]
    steps = _count_b_products(monkeypatch)
    rep = nl.solve_generalized(op, 30)
    assert len(steps) == 64
    np.testing.assert_allclose(rep.eigenvalues, 1.0 / nu, rtol=1e-12, atol=0)


def test_invariant_krylov_space_stops_the_sector(grid_small, monkeypatch):
    # B kept on nodes 20..39 has rank 20, so the Krylov space is invariant
    # after 22 steps, before the first Ritz test due at 2k + 12 = 36: the
    # residual is rounding there, and the Ritz pairs are already exact
    op = nl.assemble_sector(nl.make_params(4, 2.0), 0, grid_small)
    band = (np.arange(64) >= 20) & (np.arange(64) < 40)
    op = dataclasses.replace(op, b_scale=op.b_scale * band, b_diag=op.b_diag * band)
    steps = _count_b_products(monkeypatch)
    rep = nl.solve_generalized(op, 12)
    assert len(steps) == 22
    nu = sla.eigh(dense_b(op), dense_a(op), eigvals_only=True)[::-1][:12]
    np.testing.assert_allclose(rep.eigenvalues, 1.0 / nu, rtol=1e-12, atol=0)


def test_solve_sectors_needs_sectors_on_one_grid(op64_s0, grid_small):
    other = nl.assemble_sector(nl.make_params(6, 4.0), 0, grid_small)
    for ops in ([], [op64_s0, other]):
        with pytest.raises(ValidationError, match="on one grid"):
            nl.solve_sectors(ops, 8)


@given(case=st.sampled_from([3, 4, 5, 6]).flatmap(
    lambda N: st.tuples(st.just(N), st.floats(min_value=0.5, max_value=N - 2.0))))
@example(case=(5, 3.0))    # the derandomized draws above take no N = 5
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
def test_eigenvalues_match_closed_form(case):
    N, alpha = case
    p = nl.make_params(N, alpha)
    grid = nl.make_log_grid(1e-3, 1e3, 1024)
    for ell in range(riesz.MAX_ELL + 1):
        mu = nl.solve_generalized(nl.assemble_sector(p, ell, grid), 6).eigenvalues
        # sector 0 at N = 3, 4 carries the first-order error of the discrete
        # end condition at r_max (~4.3 h / r_max at N = 3)
        rtol = {3: 1e-4, 4: 5e-6}.get(N, 1e-6) if ell == 0 else 1e-6
        exact = [closed_form_mu(N, alpha, k + ell) for k in range(len(mu))]
        assert len(mu) == 6
        np.testing.assert_allclose(mu, exact, rtol=rtol, atol=0)


@pytest.mark.parametrize("N, alpha", [(6, 4.0), (4, 2.0), (3, 1.0)])
def test_eigen_gap_direction_is_gap_eigenvector(grid64, N, alpha):
    # the sweep's closed-form eigen-gap direction, the pulled-back degree-2
    # zonal harmonic, against the eigensolver's sector-0 gap eigenvector
    p = nl.make_params(N, alpha)
    op = nl.assemble_sector(p, 0, grid64)
    rep = nl.solve_generalized(op, 10)
    vec = rep.eigenvectors[:, rep.eigenvalues.index(rep.mu_gap)]
    w = _direction_field("eigen-gap", nl.SweepConfig(params=p, grid=grid64), grid64)
    assert b_cosine(op, w.values, vec) >= 1.0 - 1e-6


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_spectral_gap_low_dimension(alpha):
    # at N = 3 the gap is mu_2 (12.2941, 35/3, 9.5), well above the dilation
    # eigenvalue 2*_a, from the default grid
    rep = nl.spectral_gap(nl.make_params(3, alpha))
    assert rep.mu_gap == pytest.approx(closed_form_mu(3, alpha, 2), rel=1e-3)


def test_quotient_at_least_one(p64, grid64, op64_s0):
    rng = np.random.default_rng(9)
    A, B = dense_a(op64_s0), dense_b(op64_s0)
    for _ in range(5):
        v = bump_field(grid64, rng.uniform(-1.5, 1.5), rng.uniform(0.4, 1.2)).values
        assert (v @ A @ v) / (v @ B @ v) >= 1.0 - 1e-6


def test_nonlocal_form_positive(p64, grid64):
    # the pure nonlocal part of B is positive at ell = 0
    rng = np.random.default_rng(31)
    U = unit_bubble(p64, grid64)
    ts = p64.two_star_alpha
    P = nl.field_abs_pow(U, ts - 1.0)
    for _ in range(4):
        v = bump_field(grid64, rng.uniform(-1, 1), rng.uniform(0.4, 1.0)).values
        pv = nl.RadialField(grid=grid64, values=P.values * v, tail_exponent=np.inf,
                            head_value=0.0)
        assert nl.interaction_energy(pv, pv, p64) >= 0.0


def test_refinement_stability(p64):
    g1 = nl.make_log_grid(1e-3, 1e3, 768)
    g2 = nl.make_log_grid(1e-3, 1e3, 1152)
    m1 = nl.solve_generalized(nl.assemble_sector(p64, 0, g1), 5).eigenvalues
    m2 = nl.solve_generalized(nl.assemble_sector(p64, 0, g2), 5).eigenvalues
    for a, b in zip(m1, m2):
        assert abs(a - b) <= 1e-3 * abs(b)


def test_spectral_gap_merged(p64, grid64):
    rep = nl.spectral_gap(p64, grid64, k=8)
    ts = p64.two_star_alpha
    assert rep.ell is None
    assert rep.mu_gap is not None and rep.mu_gap > ts
    assert rep.k_count == 0
    assert rep.b1_candidate == pytest.approx(2 * (rep.mu_gap - ts), rel=1e-12)
    # merged spectrum contains 1 and the degenerate value
    arr = np.array(rep.eigenvalues)
    assert np.min(np.abs(arr - 1.0)) < 1e-3
    assert np.min(np.abs(arr - ts)) < 1e-2
    d = rep.to_json_dict()
    assert set(d) == {"ell", "eigenvalues", "mu_gap", "k_count", "b1_candidate"}
    # the per-sector solves, merged, are spectral_gap's report to the bit
    sectors = [nl.solve_generalized(nl.assemble_sector(p64, ell, grid64), 8)
               for ell in nl.spectrum.SECTOR_ELLS]
    assert nl.merge_sectors(p64, sectors).to_json_dict() == d


def test_spectral_gap_builds_sectors_in_one_profile_pass(monkeypatch):
    """A cold spectral_gap evaluates the kernel profile once for the regular
    cells and once for the singular cell, shared by the three sectors."""
    monkeypatch.setattr(riesz, "_kernel_cache", OrderedDict())
    calls = []
    call = riesz.KernelProfile.__call__

    def counted(self, xi):
        calls.append(len(np.atleast_1d(xi)))
        return call(self, xi)

    monkeypatch.setattr(riesz.KernelProfile, "__call__", counted)
    nl.spectral_gap(nl.make_params(5, 2.5), nl.make_log_grid(1e-3, 1e3, 1024), k=4)
    assert 1 <= len(calls) <= 2


def test_w_potential_is_closed_form_on_wide_grid():
    """W = -Laplace U / U = N(N-2)(1+r^2)^{-2} in every sector, so the W mass
    on B's diagonal stays nonnegative where e^{Nx} reaches 1e48."""
    p, grid = nl.make_params(12, 9.0), nl.make_log_grid(1e-4, 1e4, 4096)
    W = 12 * 10 / (1.0 + grid.nodes ** 2) ** 2
    mw = nl.sphere_area(12) * (grid.log_weights * np.exp(12 * grid.x) * W)
    for op in nl.assemble_sectors(p, nl.spectrum.SECTOR_ELLS, grid):
        np.testing.assert_allclose(op.b_diag, mw, rtol=1e-15, atol=0)
        assert np.all(op.b_diag >= 0)


def test_spectral_gap_computes_no_riesz_potential(monkeypatch):
    """The pencil reaches the Riesz layer only through the sector kernels."""
    def no_potential(*args, **kwargs):
        raise AssertionError("riesz_potential called")

    for mod in [nl, riesz, nl.spectrum]:
        if hasattr(mod, "riesz_potential"):
            monkeypatch.setattr(mod, "riesz_potential", no_potential)
    rep = nl.spectral_gap(nl.make_params(5, 3.0), nl.make_log_grid(1e-3, 1e3, 1024))
    assert rep.mu_gap == pytest.approx(closed_form_mu(5, 3.0, 2), rel=1e-6)


@pytest.mark.parametrize("N,alpha", [(6, 4.0), (5, 4.5)])
def test_assemble_sectors_matches_one_at_a_time(N, alpha, grid64, monkeypatch):
    """The sectors assembled together, from one kernel batch and one
    ell-independent part, are the one-at-a-time operators to the bit."""
    monkeypatch.setattr(riesz, "_kernel_cache", OrderedDict())
    p = nl.make_params(N, alpha)
    batch = nl.assemble_sectors(p, nl.spectrum.SECTOR_ELLS, grid64)
    assert [op.ell for op in batch] == list(nl.spectrum.SECTOR_ELLS)
    for ob in batch:
        riesz._kernel_cache.clear()
        one = nl.assemble_sector(p, ob.ell, grid64)
        for a, b in [(ob.a_band, one.a_band), (ob.b_scale, one.b_scale),
                     (ob.b_col, one.b_col), (ob.b_diag, one.b_diag)]:
            assert np.array_equal(a, b)


@pytest.mark.parametrize("ells", [(0, 1, 4), (2, -1), (0, 1.5), (True, 0)])
def test_assemble_sectors_rejects_any_bad_ell_before_building(p64, grid64, ells,
                                                              monkeypatch):
    monkeypatch.setattr(riesz, "_kernel_cache", OrderedDict())
    with pytest.raises(ValidationError, match="ell"):
        nl.assemble_sectors(p64, ells, grid64)
    assert not riesz._kernel_cache


def test_spectral_gap_rejects_coarse_grid_before_building(p64, monkeypatch):
    monkeypatch.setattr(riesz, "_kernel_cache", OrderedDict())
    with pytest.raises(ValidationError, match="too coarse"):
        nl.spectral_gap(p64, nl.make_log_grid(1e-3, 1e3, 64))
    assert not riesz._kernel_cache


@pytest.mark.parametrize("ell", [1.0, 2.5, True])
def test_non_integer_sector_rejected(p64, grid64, ell):
    with pytest.raises(ValidationError, match="ell must be an integer"):
        nl.assemble_sector(p64, ell, grid64)


def test_non_integer_k_rejected(p64, grid64, op64_s0):
    # a float k used to reach the eigensolver and fail there with SystemError
    with pytest.raises(ValidationError, match="k must be an integer"):
        nl.solve_generalized(op64_s0, 2.5)
    with pytest.raises(ValidationError, match="k must be an integer"):
        nl.spectral_gap(p64, grid64, k=2.5)


def test_sector_validation(p64, grid64, op64_s0):
    with pytest.raises(ValidationError):
        nl.solve_generalized(op64_s0, 0)
    with pytest.raises(ValidationError):
        nl.assemble_sector(p64, 4, grid64)
    with pytest.raises(ValidationError):
        nl.assemble_sector(p64, 0, nl.make_log_grid(1e-3, 1e3, 64))
