import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

import nlsobolev as nl
from nlsobolev.errors import ValidationError
from nlsobolev.experiments import _direction_field
from conftest import closed_form_c_star, unit_bubble


@pytest.fixture(scope="module")
def sweep_rows(p64):
    cfg = nl.SweepConfig(params=p64, epsilons=(1e-2, 1e-3),
                         directions=("eigen-gap", "random-1"),
                         grid=nl.make_log_grid(1e-3, 1e3, 1024), seed=0)
    return nl.ratio_sweep(cfg)


def test_sweep_config_validation(p64):
    with pytest.raises(ValidationError):
        nl.SweepConfig(params=p64, epsilons=(1e-3, 1e-2))
    with pytest.raises(ValidationError):
        nl.SweepConfig(params=p64, epsilons=(1e-2, -1e-3))
    for eps in ((1e-2, math.nan), (math.inf, 1e-2), (1e-2, 0.0), (math.nan,), (0.0,)):
        with pytest.raises(ValidationError, match="finite, positive"):
            nl.SweepConfig(params=p64, epsilons=eps)
    # a non-integer seed must fail here, not as a TypeError from default_rng
    # inside ratio_sweep, outside its row-note handler
    for seed in (1.5, True, "1", None):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            nl.SweepConfig(params=p64, seed=seed)


def test_sweep_rows_invariants(sweep_rows):
    by_eps = {}
    for r in sweep_rows:
        assert r.deficit is not None and r.deficit >= 0
        assert r.dist is not None and r.dist > 0
        assert r.ratio is not None and 0 < r.ratio <= 1.05
        by_eps.setdefault(r.direction, {})[r.eps] = r.ratio
    # the orthogonal-direction distance is eps to leading order
    for r in sweep_rows:
        assert r.dist == pytest.approx(r.eps, rel=5e-3)


def test_sweep_deterministic(p64, sweep_rows):
    cfg = nl.SweepConfig(params=p64, epsilons=(1e-2, 1e-3),
                         directions=("eigen-gap", "random-1"),
                         grid=nl.make_log_grid(1e-3, 1e3, 1024), seed=0)
    rows2 = nl.ratio_sweep(cfg)
    j1 = json.dumps([r.to_json_dict() for r in sweep_rows], sort_keys=True)
    j2 = json.dumps([r.to_json_dict() for r in rows2], sort_keys=True)
    assert j1 == j2


@pytest.mark.parametrize("N, alpha", [(3, 1.0), (4, 2.0), (5, 3.0), (6, 4.0)])
def test_eigen_gap_rows_converge_to_c_star(grid_1024, N, alpha):
    # the closed-form direction carries its exact r^{-(N-2)} tail, so no
    # first-order far-field term enters the deficit: every row stays in the
    # bracket, and the ratio corrected for the bubble's own discretized
    # deficit tends to c* as eps shrinks
    p = nl.make_params(N, alpha)
    rows = nl.ratio_sweep(nl.SweepConfig(params=p, directions=("eigen-gap",),
                                         grid=grid_1024))
    assert [r.eps for r in rows] == [1e-2, 3e-3, 1e-3]
    for r in rows:
        assert r.ratio is not None and 0 < r.ratio <= 1.05
    delta_U = nl.deficit(unit_bubble(p, grid_1024), p).deficit
    corrected = (rows[-1].deficit - delta_U) / rows[-1].dist ** 2
    assert corrected == pytest.approx(closed_form_c_star(N, alpha), abs=5e-4)


def test_sweep_unknown_direction_recorded(p64):
    cfg = nl.SweepConfig(params=p64, epsilons=(1e-2,), directions=("bogus",),
                         grid=nl.make_log_grid(1e-3, 1e3, 1024))
    rows = nl.ratio_sweep(cfg)
    assert len(rows) == 1 and rows[0].ratio is None and rows[0].note


# (run seed, direction) of the (4, 2) sweep-benchmark ops whose eps = 1e-3
# ratio once exceeded 1.05 (up to 1.078): the old Gaussian bump's far field
# did not match its declared tail and put a first-order term in the deficit
KNOWN_BIASED_OPS = [(204, "random-785044"), (8, "random-386423"), (11, "random-776808")]


@pytest.mark.parametrize("seed, spec", KNOWN_BIASED_OPS)
def test_random_direction_ratio_has_no_first_order_bias(p42, grid_default, seed, spec):
    # the symmetric estimate ([delta(U + eps w) + delta(U - eps w)]/2 - delta(U))
    # / d^2 cancels every odd order in eps, so the raw ratio may differ from
    # it only at second order
    cfg = nl.SweepConfig(params=p42, epsilons=(1e-3,), directions=(spec,),
                         grid=grid_default, seed=seed)
    (row,) = nl.ratio_sweep(cfg)
    assert row.ratio is not None and row.ratio <= 1.05
    w = _direction_field(spec, cfg, grid_default)
    U = nl.bubble(p42, nl.BubbleParams(c=1.0, lam=1.0), grid_default)
    u_minus = nl.RadialField(grid=grid_default, values=U.values - row.eps * w.values,
                             tail_exponent=min(U.tail_exponent, w.tail_exponent),
                             head_value=U.head_value - row.eps * w.head_value)
    sym = (0.5 * (row.deficit + nl.deficit(u_minus, p42).deficit)
           - nl.deficit(U, p42).deficit) / row.dist ** 2
    assert abs(row.ratio - sym) <= 0.01


def test_random_direction_support_outside_grid_recorded(p42):
    # seed 0, random-1 draws the support r in [0.032, 34], wider than [0.1, 10]
    cfg = nl.SweepConfig(params=p42, epsilons=(1e-2, 1e-3), directions=("random-1",),
                         grid=nl.make_log_grid(1e-1, 1e1, 512), seed=0)
    rows = nl.ratio_sweep(cfg)
    assert len(rows) == 2
    for r in rows:
        assert r.ratio is None and "support" in r.note


def test_summarize_sweep(sweep_rows):
    s = nl.summarize_sweep(sweep_rows)
    assert 0 < s["empirical_b1_lower_bound_candidate"] <= 1.05


def test_tail_energy_against_adaptive_quad(p31):
    # N = 3: (N-2)^2 a^2 omega int_{10}^inf s^4 (1+s^2)^{-3} ds
    val = nl.tail_energy(p31, 1.0, 10.0)
    a = nl.hls_sobolev_constant(p31).bubble_amp
    oracle = a * a * nl.sphere_area(3) * quad(
        lambda s: s ** 4 / (1 + s * s) ** 3, 10.0, np.inf,
        epsabs=1e-13, epsrel=1e-12)[0]
    assert val == pytest.approx(oracle, rel=1e-8)


def test_tail_energy_vanishes_at_infinity(p31):
    vals = [nl.tail_energy(p31, 1.0, lam) for lam in (1e2, 1e4, 1e6)]
    assert vals[0] > vals[1] > vals[2]
    # decays like (R lam)^{-(N-2)}
    assert vals[2] < 1.01e-4 * vals[0]


def test_tail_energy_scaling_exponent(p31, p42):
    for p in (p31, p42):
        s = np.logspace(1, 4, 10)
        vals = np.array([nl.tail_energy(p, 1.0, l) for l in s])
        slope = np.polyfit(np.log(s), np.log(vals), 1)[0]
        assert abs(slope + (p.N - 2)) < 0.02 * (p.N - 2)


def test_tail_energy_validation(p31):
    with pytest.raises(ValidationError):
        nl.tail_energy(p31, -1.0, 10.0)


@pytest.fixture(scope="module")
def bounded31(p31):
    return nl.bounded_domain_experiment(p31, 1.0, [1e2, 1e3, 1e4])


def test_bounded_domain_invariants(bounded31):
    rep = bounded31
    for d, w, s in zip(rep.deficit, rep.weak_norm, rep.strong_norm):
        assert d > 0
        assert s >= w
    # weak-norm remainder has a positive floor
    assert min(rep.weak_ratio) / max(rep.weak_ratio) > 0.3
    # strong-norm remainder decays like 1/log: ratio * log stays put
    prods = [sr * math.log(l) for sr, l in zip(rep.strong_ratio, rep.lambdas)]
    assert max(prods) / min(prods) < 1.2 / 0.8


def test_bounded_domain_deficit_tracks_tail_energy(bounded31):
    # dist^2 >= tail energy: the deficit scale is set by the tail-energy decay
    rep = bounded31
    for d, t in zip(rep.deficit, rep.tail_energy):
        assert 0.2 < d / t < 5.0


def test_bounded_domain_validation(p31):
    with pytest.raises(ValidationError):
        nl.bounded_domain_experiment(p31, 1.0, [1e3, 1e2])
    with pytest.raises(ValidationError):
        nl.bounded_domain_experiment(p31, 1.0, [5.0])


def test_bounded_domain_json(bounded31):
    d = bounded31.to_json_dict()
    assert set(d) == {"R", "lambdas", "deficit", "weak_norm", "strong_norm",
                      "weak_ratio", "strong_ratio", "tail_energy"}
