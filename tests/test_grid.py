import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nlsobolev as nl
from nlsobolev._quadrature import (_stencil_rows, derivative_matrix, fornberg_weights,
                                   uniform_weights)
from nlsobolev.errors import DivergentTailError, NumericsError, ValidationError
from conftest import bump_field


def test_make_log_grid_construction():
    g = nl.make_log_grid(1e-3, 1e3, 2048)
    assert g.n == 2048
    assert g.nodes[0] == pytest.approx(1e-3, rel=1e-14)
    assert g.nodes[-1] == pytest.approx(1e3, rel=1e-14)
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.log_weights > 0)


@pytest.mark.parametrize("args", [(1.0, 1.0, 64), (2.0, 1.0, 64), (0.0, 1.0, 64),
                                  (1e-3, 1e3, 8), (1e-2, 1e2, 20.5), (1e-2, 1e2, 20.0)])
def test_make_log_grid_rejects(args):
    with pytest.raises(ValidationError):
        nl.make_log_grid(*args)


@pytest.mark.parametrize("r_min, r_max", [(1e-3, 10 ** 400), (10 ** 400, 10 ** 401),
                                          (1e-3, 2 ** 1024), (-10 ** 400, 1.0),
                                          (np.float64(1e-3), 10 ** 400)],
                         ids=["r_max", "both", "2**1024", "negative-r_min", "numpy-r_min"])
def test_make_log_grid_rejects_bounds_past_the_largest_double(r_min, r_max):
    # a Python int compares below inf however large, but float() of it overflows
    with pytest.raises(ValidationError, match="r_min < r_max"):
        nl.make_log_grid(r_min, r_max, 64)


def test_make_log_grid_shares_one_grid_per_value():
    # the memo is the grid's, so equal values share it; an int or numpy
    # argument names the same grid as its float
    g = nl.make_log_grid(1e-3, 1e3, 2048)
    assert nl.make_log_grid(np.float64(1e-3), 1000, np.int64(2048)) is g
    others = [nl.make_log_grid(*a) for a in ((2e-3, 1e3, 2048), (1e-3, 2e3, 2048),
                                              (1e-3, 1e3, 2047))]
    assert len({id(o) for o in others + [g]}) == 4
    with pytest.raises(ValueError, match="read-only"):
        g.nodes[0] = 1.0


def test_radial_grid_locks_a_copy_of_the_nodes():
    nodes = np.exp(np.linspace(0.0, 1.0, 32))
    g = nl.RadialGrid(r_min=1.0, r_max=math.e, nodes=nodes)
    nodes[0] = 2.0
    assert g.nodes[0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        g.nodes[0] = 2.0


def test_make_log_grid_holds_the_last_eight_grids():
    import gc
    import weakref
    refs = [weakref.ref(nl.make_log_grid(1.0, 2.0, n)) for n in range(1016, 1028)]
    gc.collect()
    assert [r() is not None for r in refs] == [False] * 4 + [True] * 8


def test_weights_reproduce_monomial():
    # int_1^2 r^2 dr = 7/3 for N = 3
    g = nl.make_log_grid(1.0, 2.0, 256)
    assert float(np.sum(g.weights(3))) == pytest.approx(7.0 / 3.0, rel=1e-10)


@given(N=st.integers(min_value=3, max_value=7),
       lo=st.floats(min_value=-3.0, max_value=0.0),
       span=st.floats(min_value=1.0, max_value=6.0))
@settings(max_examples=20, deadline=None)
def test_weights_jacobian_exactness(N, lo, span):
    g = nl.make_log_grid(10.0 ** lo, 10.0 ** (lo + span), 700)
    exact = (g.r_max ** N - g.r_min ** N) / N
    assert float(np.sum(g.weights(N))) == pytest.approx(exact, rel=1e-10)


def test_integrate_box_field():
    # f = 1 on [1, 2], zero elsewhere, N = 3 -> 4 pi * 7/3
    g = nl.make_log_grid(1.0, 2.0, 256)
    f = nl.RadialField(grid=g, values=np.ones(g.n), tail_exponent=np.inf, head_value=0.0)
    assert nl.integrate(f, 3) == pytest.approx(4 * math.pi * 7.0 / 3.0, rel=1e-10)


def test_integrate_exponential_with_tail_extension():
    # int_0^inf r^2 e^{-r} dr = Gamma(3) = 2 (times the sphere factor)
    g = nl.make_log_grid(1e-3, 40.0, 2048)
    vals = np.exp(-g.nodes)
    # declared power-law slope at r_max: -d log f / d log r = r_max
    f = nl.RadialField(grid=g, values=vals, tail_exponent=40.0, head_value=1.0)
    assert nl.integrate(f, 3) == pytest.approx(4 * math.pi * 2.0, rel=1e-8)


def test_integrate_divergent_tail_signaled():
    g = nl.make_log_grid(1e-2, 1e2, 256)
    f = nl.RadialField(grid=g, values=(g.nodes / g.r_max) ** -2.0,
                       tail_exponent=2.0, head_value=0.0)
    with pytest.raises(DivergentTailError):
        nl.integrate(f, 3)


def test_integrate_overflow_on_wide_grid_is_numerics_error():
    # r_max^3 = 1e450 overflows a float: a typed error, and no warning leaks
    g = nl.make_log_grid(1e-3, 1e150, 2048)
    vals = (1 + g.nodes ** 2) ** -2.0
    vals[-1] = 1e-300
    f = nl.RadialField(grid=g, values=vals, tail_exponent=4.0, head_value=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError):
            nl.integrate(f, 3)


def test_integrate_on_grid_from_one_matches_closed_form():
    # a grid that starts at r = 1 with no head integrates over [1, infinity)
    g = nl.make_log_grid(1.0, 1e2, 513)
    f = nl.RadialField(grid=g, values=(1 + g.nodes ** 2) ** -3.0,
                       tail_exponent=6.0, head_value=0.0)
    from scipy.integrate import quad
    exact = 4 * math.pi * quad(lambda r: r * r * (1 + r * r) ** -3.0, 1.0, np.inf)[0]
    assert nl.integrate(f, 3) == pytest.approx(exact, rel=1e-8)


def test_differentiate_power():
    g = nl.make_log_grid(1e-2, 1e2, 512)
    f = nl.RadialField(grid=g, values=g.nodes ** 2, tail_exponent=-2.0, head_value=0.0)
    df = nl.differentiate(f)
    inner = slice(5, -5)
    assert np.max(np.abs(df.values[inner] - 2 * g.nodes[inner])
                  / (2 * g.nodes[inner])) < 1e-6
    assert df.tail_exponent == pytest.approx(-1.0)


def test_differentiate_constant():
    g = nl.make_log_grid(1e-2, 1e2, 256)
    f = nl.RadialField(grid=g, values=np.ones(g.n), tail_exponent=0.0, head_value=1.0)
    df = nl.differentiate(f)
    assert np.max(np.abs(df.values)) < 1e-10


def test_differentiate_bubble_far_field(p32, grid_default):
    # r^{N-1} U'(r) -> -(N-2) a as r -> infinity
    U = nl.bubble(p32, nl.BubbleParams(c=1.0, lam=1.0), grid_default)
    dU = nl.differentiate(U)
    amp = nl.hls_sobolev_constant(p32).bubble_amp
    far = grid_default.nodes[-10]
    val = dU.values[-10] * far ** (p32.N - 1)
    assert val == pytest.approx(-(p32.N - 2) * amp, rel=1e-4)


def test_derivative_matrices_are_banded():
    # 9-point stencils: a CSR band with 9 nonzeros per row, never a dense n x n
    import scipy.sparse as sp
    g = nl.make_log_grid(1e-3, 1e3, 2048)
    for order in (1, 2):
        D = derivative_matrix(g.n, g.h, order)
        assert sp.issparse(D) and D.nnz == 9 * g.n


def test_integration_by_parts():
    g = nl.make_log_grid(1e-3, 1e3, 1024)
    N = 3
    u = bump_field(g, center=-0.5, width=0.7)
    v = bump_field(g, center=0.5, width=0.9)
    du, dv = nl.differentiate(u), nl.differentiate(v)
    t1 = nl.integrate(nl.RadialField(grid=g, values=du.values * v.values,
                                     tail_exponent=np.inf, head_value=0.0), N)
    t2 = nl.integrate(nl.RadialField(grid=g, values=u.values * dv.values,
                                     tail_exponent=np.inf, head_value=0.0), N)
    t3 = nl.integrate(nl.RadialField(grid=g, values=u.values * v.values / g.nodes,
                                     tail_exponent=np.inf, head_value=0.0), N)
    scale = abs(t1) + abs(t2) + (N - 1) * abs(t3)
    assert abs(t1 + t2 + (N - 1) * t3) < 1e-6 * scale


def test_h1_inner_symmetric_and_positive(grid_1024):
    g = grid_1024
    rng = np.random.default_rng(3)
    for _ in range(4):
        u = bump_field(g, rng.uniform(-1, 1), rng.uniform(0.5, 1.0), rng.uniform(-2, 2))
        v = bump_field(g, rng.uniform(-1, 1), rng.uniform(0.5, 1.0), rng.uniform(-2, 2))
        for ell in (0, 1, 2):
            a = nl.h1_inner(u, v, ell, 3)
            b = nl.h1_inner(v, u, ell, 3)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-14)
            assert nl.h1_inner(u, u, ell, 3) > 0
    z = nl.RadialField(grid=g, values=np.zeros(g.n), tail_exponent=np.inf, head_value=0.0)
    assert nl.h1_inner(z, z, 0, 3) == 0.0


def test_h1_inner_of_a_field_with_itself_is_bit_identical(grid_1024):
    # h1_inner(u, u) differentiates u once and reuses it for v
    g = grid_1024
    bubble_like = nl.RadialField(grid=g, values=(1 + g.nodes ** 2) ** -1.0,
                                 tail_exponent=2.0, head_value=1.0)
    for u in (bump_field(g, 0.3, 0.7, -1.5), bubble_like):
        twin = nl.RadialField(grid=g, values=u.values.copy(), tail_exponent=u.tail_exponent,
                              head_value=u.head_value)
        for ell, N in ((0, 3), (1, 4), (2, 4)):
            assert nl.h1_inner(u, u, ell, N) == nl.h1_inner(u, twin, ell, N)


@pytest.mark.parametrize("ell", [0, 2])
def test_h1_inner_divergent_gradient_tail(ell):
    # u ~ r^{-0.2}: u' u' r^{N-1} ~ r^{-1.4} is not integrable at infinity for N = 3
    g = nl.make_log_grid(1e-2, 1e2, 256)
    u = nl.RadialField(grid=g, values=(1 + g.nodes ** 2) ** -0.1,
                       tail_exponent=0.2, head_value=1.0)
    with pytest.raises(DivergentTailError):
        nl.h1_inner(u, u, ell, 3)
    steep = nl.RadialField(grid=g, values=u.values, tail_exponent=1.5, head_value=1.0)
    assert np.isfinite(nl.h1_inner(steep, steep, ell, 3))


def test_h1_inner_grid_mismatch():
    u = bump_field(nl.make_log_grid(1e-2, 1e2, 128))
    v = bump_field(nl.make_log_grid(1e-3, 1e2, 128))
    with pytest.raises(ValidationError):
        nl.h1_inner(u, v, 0, 3)


def test_field_powers():
    g = nl.make_log_grid(1e-2, 1e2, 128)
    vals = np.sin(g.x)
    f = nl.RadialField(grid=g, values=vals, tail_exponent=2.0, head_value=-0.5)
    p3 = nl.field_abs_pow(f, 3.0)
    assert p3.tail_exponent == pytest.approx(6.0)
    assert np.all(p3.values >= 0)
    s3 = nl.field_signed_pow(f, 3.0)
    assert np.allclose(s3.values, np.sign(vals) * np.abs(vals) ** 3)
    assert s3.head_value == pytest.approx(-0.125)


@pytest.mark.parametrize("tail, head", [(math.nan, 0.0), (-math.inf, 0.0),
                                        (2.0, math.nan), (2.0, math.inf),
                                        (2.0, -math.inf), (math.inf, math.inf)])
def test_field_rejects_nonfinite_metadata(tail, head):
    g = nl.make_log_grid(1e-2, 1e2, 128)
    with pytest.raises(ValidationError):
        nl.RadialField(grid=g, values=np.ones(g.n), tail_exponent=tail, head_value=head)
    # +inf tail_exponent (hard truncation) with a finite head stays legal
    nl.RadialField(grid=g, values=np.ones(g.n), tail_exponent=math.inf, head_value=1.0)


def test_csv_round_trip(tmp_path):
    g = nl.make_log_grid(1e-3, 1e3, 128)
    rng = np.random.default_rng(11)
    f = nl.RadialField(grid=g, values=rng.normal(size=g.n),
                       tail_exponent=2.5, head_value=0.125)
    path = os.path.join(tmp_path, "field.csv")
    nl.write_field_csv(f, path)
    f2 = nl.read_field_csv(path)
    assert np.array_equal(f.values, f2.values)
    assert np.array_equal(f.grid.nodes, f2.grid.nodes)
    assert f2.tail_exponent == f.tail_exponent
    assert f2.head_value == f.head_value
    # byte-identical rewrite
    path2 = os.path.join(tmp_path, "field2.csv")
    nl.write_field_csv(f2, path2)
    with open(path) as fh, open(path2) as fh2:
        assert fh.read() == fh2.read()


@given(log_rmin=st.floats(min_value=-6.0, max_value=3.0),
       log_spread=st.floats(min_value=-6.0, max_value=12.0),
       n=st.integers(min_value=16, max_value=4096),
       tail=st.one_of(st.just(math.inf), st.floats(min_value=0.1, max_value=50.0)),
       head=st.floats(min_value=-1e3, max_value=1e3),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_csv_round_trip_on_random_log_grids(log_rmin, log_spread, n, tail, head, seed):
    # r_max / r_min = 1 + 10^log_spread, from 1 + 1e-6 up: on narrow grids the
    # rounding of log(nodes) is larger than 1e-9 h, and must not read as a
    # non-uniform grid
    r_min = 10.0 ** log_rmin
    g = nl.make_log_grid(r_min, r_min * (1 + 10.0 ** log_spread), n)
    f = nl.RadialField(grid=g, values=np.random.default_rng(seed).normal(size=n),
                       tail_exponent=tail, head_value=head)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.csv")
        nl.write_field_csv(f, path)
        f2 = nl.read_field_csv(path)
    assert np.array_equal(f2.grid.nodes, g.nodes)
    assert np.array_equal(f2.values, f.values)
    assert f2.tail_exponent == tail and f2.head_value == head
    assert f2.grid.key() == g.key()


def test_csv_rejects_non_uniform_nodes(tmp_path):
    g = nl.make_log_grid(1e-3, 1e3, 128)
    nodes = g.nodes.copy()
    nodes[50] *= 1 + 1e-6
    path = os.path.join(tmp_path, "field.csv")
    with open(path, "w") as fh:
        fh.write("r,value\n")
        fh.writelines(f"{r:.17g},1\n" for r in nodes)
        fh.write("#tail_exponent=inf\n#head_value=1\n")
    with pytest.raises(ValidationError, match="not log-uniform"):
        nl.read_field_csv(path)


def _scaled_node(nodes):
    nodes = nodes.copy()
    nodes[50] *= 1 + 1e-6
    return nodes


@pytest.mark.parametrize("nodes, match", [
    (_scaled_node, "not log-uniform"),
    (lambda nodes: nodes[:15], "n >= 16"),
    (lambda nodes: np.concatenate([[0.0], nodes[1:]]), "not log-uniform"),
    (lambda nodes: np.concatenate([[-nodes[0]], nodes[1:]]), "not log-uniform"),
    (lambda nodes: nodes * 1.01, "not log-uniform"),   # the nodes miss r_min and r_max
], ids=["scaled-node", "15-nodes", "zero-first-node", "negative-first-node", "shifted-nodes"])
def test_grid_rejects_nodes_that_are_not_log_uniform(nodes, match):
    g = nl.make_log_grid(1e-3, 1e3, 128)
    with pytest.raises(ValidationError, match=match):
        nl.RadialGrid(g.r_min, g.r_max, nodes(g.nodes))


def _csv_grid(tmp_path):
    g = nl.make_log_grid(1e-3, 1e3, 1024)
    path = os.path.join(tmp_path, "field.csv")
    nl.write_field_csv(nl.RadialField(grid=g, values=np.ones(g.n), tail_exponent=math.inf,
                                      head_value=1.0), path)
    return nl.read_field_csv(path).grid


@pytest.mark.parametrize("grid", [(1e-3, 1e3, 1024), (1e-3, 1e3, 2048), (1e-4, 1e4, 4096),
                                  (1e-7, 1.0, 2048), "csv"])
def test_grid_weights_use_the_grid_step(grid, tmp_path):
    # x, h and the weights are derived once from the nodes; the weights use
    # the step h every stencil and kernel uses, not a difference of two nodes
    g = _csv_grid(tmp_path) if grid == "csv" else nl.make_log_grid(*grid)
    assert g.h == (math.log(g.r_max) - math.log(g.r_min)) / (g.n - 1)
    assert np.array_equal(g.log_weights, uniform_weights(g.n, g.h))
    assert np.array_equal(g.x, np.log(g.nodes))
    for arr in (g.x, g.log_weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_kernel_padding_is_the_grid_span():
    # the padded grid reaches one grid span, n - 1 steps, plus 8 nodes beyond
    # each end; ceil(span / h) read n here through the rounding of span / h
    p = nl.make_params(4, 2.0)
    assert nl.angular_kernel(p, 0, nl.make_log_grid(1e-3, 12.0, 1024)).npad == 1031


@pytest.mark.parametrize("call", [
    lambda ind, p: nl.h1_inner(ind, ind, 0, p.N),
    lambda ind, p: nl.differentiate(ind),
    lambda ind, p: nl.integrate(ind, p.N),
    lambda ind, p: nl.field_abs_pow(ind, 2.0),
    lambda ind, p: nl.field_signed_pow(ind, 2.0),
    lambda ind, p: nl.interaction_energy(ind, ind, p),
    lambda ind, p: nl.deficit(ind, p),
    lambda ind, p: nl.dist_to_manifold(ind, p),
], ids=["h1_inner", "differentiate", "integrate", "field_abs_pow", "field_signed_pow",
        "interaction_energy", "deficit", "dist_to_manifold"])
def test_jump_marked_fields_are_rejected(call):
    # a ball indicator's jump makes its gradient energy infinite and its
    # node quadrature wrong; only the Riesz potential and the weak norm
    # integrate it across the jump
    ind = nl.indicator_field(nl.make_log_grid(1e-3, 1e3, 1025), 1.0)
    with pytest.raises(ValidationError, match="does not support jump-marked fields"):
        call(ind, nl.make_params(3, 1.0))


@pytest.mark.parametrize("jump", [(1025, 1.0), (5000, 1.0), (-1, 1.0), (512.0, 1.0),
                                  (True, 1.0), (512, math.nan), (512, math.inf)])
def test_jump_marker_outside_grid_or_not_finite_rejected(jump):
    # a marker off the grid makes the Riesz potential meaningless (7.8e18 for
    # a field bounded by 1 at node 5000), and a non-finite drop is invalid
    # input, not a numerical failure
    g = nl.make_log_grid(1e-3, 1e3, 1025)
    with pytest.raises(ValidationError, match="jump"):
        nl.RadialField(grid=g, values=np.ones(g.n), tail_exponent=np.inf, head_value=1.0,
                       jumps=(jump,))


def test_jump_marker_at_last_node_accepted():
    # the indicator of B_{r_max}: the whole grid with its drop at node n - 1
    g = nl.make_log_grid(1e-3, 1e3, 1025)
    ind = nl.indicator_field(g, 1e3)
    assert ind.jumps == ((g.n - 1, 1.0),)


def test_indicator_requires_node():
    g = nl.make_log_grid(1e-2, 1e2, 257)
    ind = nl.indicator_field(g, 1.0)
    assert ind.jumps == ((g.index_of(1.0), 1.0),)
    with pytest.raises(ValidationError):
        nl.indicator_field(g, 1.234567)


@pytest.mark.parametrize("r", [math.nan, 0.0, -1.0, -math.inf, math.inf])
def test_index_of_rejects_nan_and_nonpositive_radius(r):
    # a NaN radius must not match node 0 (indicator_field would return the
    # indicator of B_{r_min}), and r <= 0 must not reach math.log
    g = nl.make_log_grid(1e-2, 1e2, 257)
    with pytest.raises(ValidationError, match="does not coincide with a grid node"):
        g.index_of(r)
    with pytest.raises(ValidationError, match="does not coincide with a grid node"):
        nl.indicator_field(g, r)


def test_quadrature_second_order_or_better(p42):
    # refinement study on the smooth integrand V^{2*}: errors must shrink at
    # least quadratically (the corrected trapezoid is in fact far better)
    from scipy.special import beta as beta_fn
    N = p42.N
    amp = (N * (N - 2)) ** ((N - 2) / 4)
    two_star = 2 * N / (N - 2)
    exact = nl.sphere_area(N) * amp ** two_star * beta_fn(N / 2, N / 2) / 2
    errs = []
    for n in (256, 512, 1024):
        g = nl.make_log_grid(1e-3, 1e3, n)
        f = nl.RadialField(grid=g, values=amp ** two_star * (1 + g.nodes ** 2) ** (-N),
                           tail_exponent=2.0 * N, head_value=amp ** two_star)
        errs.append(abs(nl.integrate(f, N) - exact) / exact)
    assert errs[-1] <= max(errs[0] / 4.0, 1e-13)


def _stencil_rows_by_loop(n, h, order, width, shift, rows):
    """One Fornberg call per row: the reference for the cached stencil rows."""
    xs = np.arange(width, dtype=float) * h
    j0 = np.clip(np.arange(rows) - (width - 1) // 2, 0, n - width)
    return np.array([fornberg_weights(xs, (i - j0[i] + shift) * h, order)
                     for i in range(rows)]), j0


@pytest.mark.parametrize("order, width, shift", [(1, 8, 0.5), (1, 9, 0), (2, 9, 0)])
@pytest.mark.parametrize("n", [16, 17, 64, 1024])
def test_stencil_rows_match_per_row_fornberg(order, width, shift, n):
    h = math.log(1e6) / (n - 1)
    rows = n - 1 if shift else n
    vals, j0 = _stencil_rows(n, h, order, width, shift, rows)
    ref_vals, ref_j0 = _stencil_rows_by_loop(n, h, order, width, shift, rows)
    assert np.array_equal(vals, ref_vals) and np.array_equal(j0, ref_j0)
    # built once per argument tuple, read-only; the CSR matrix owns a copy
    assert _stencil_rows(n, h, order, width, shift, rows)[0] is vals
    assert not vals.flags.writeable and not j0.flags.writeable
    if width == 9:
        D = derivative_matrix(n, h, order)
        assert D.data.flags.writeable
        assert np.array_equal(D.data, ref_vals.ravel())


@given(t=st.floats(min_value=0.2, max_value=5.0),
       q=st.floats(min_value=1.2, max_value=4.0))
@settings(max_examples=25, deadline=None)
def test_field_power_homogeneity(t, q):
    g = nl.make_log_grid(1e-2, 1e2, 64)
    base = np.cos(g.x)
    f = nl.RadialField(grid=g, values=t * base, tail_exponent=1.0,
                       head_value=t * base[0])
    p1 = nl.field_abs_pow(f, q)
    assert np.allclose(p1.values, t ** q * np.abs(base) ** q, rtol=1e-12)
    assert p1.tail_exponent == pytest.approx(q)
    s1 = nl.field_signed_pow(f, q)
    assert np.all(np.sign(s1.values) == np.sign(base) * (np.abs(base) > 0))
