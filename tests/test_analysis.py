import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hinterland.analysis as analysis
import hinterland.integrals as integrals
from hinterland.analysis import (
    SWEEP_CATEGORIES,
    classify_point,
    existence_margins,
    multistart_probe,
    parameter_sweep,
    regime_classify,
    sweep_rows,
    uniqueness_condition,
)
from hinterland.equilibrium import (
    ModelParams,
    SolverOptions,
    TwoSector,
    composite_params,
    subset_geography,
    variant_transform,
)
from hinterland.errors import CoincidentSites, HinterlandError, InvalidInput
from hinterland.fields import explicit_trade_costs
from hinterland.geometry import cross_distances, sample_feasible_weights
from hinterland.integrals import semielasticity_sup

from helpers import (
    bracket_threshold,
    loop_environment_trade_decay,
    loop_existence_margins,
    loop_feasible_starts,
)
from test_equilibrium import EUCLID, PARAMS, SYM2, make_geography


# ---------------------------------------------------------------------------
# regime classification

def test_reference_point_classification():
    report = regime_classify(PARAMS)
    assert report.alpha_cutoff == pytest.approx(0.125)
    assert report.location_multiplicity == "multiple"
    assert report.gamma_ratio == pytest.approx(0.4 / 2.1, rel=1e-12)
    assert report.labor_uniqueness
    assert report.reconciliation


def test_classification_trichotomy():
    assert classify_point(0.25, -0.5, 5.0).location_multiplicity == "knife_edge"
    assert classify_point(0.25 + 1e-9, -0.5, 5.0).location_multiplicity == "multiple"
    assert classify_point(0.0, -0.5, 2.0).location_multiplicity == "spread"
    # degenerate gamma1 reports a non-unique labor regime instead of raising
    r = classify_point(2.0, -0.5, 2.0)
    assert r.gamma_ratio == math.inf
    assert not r.labor_uniqueness


def test_classification_is_variant_aware():
    p = ModelParams(sigma=5.0, alpha=0.1, beta=-0.9, delta=1.0,
                    variant=TwoSector(mu=0.5, beta=-0.2))
    report = regime_classify(p)
    # congestion weight is (1-mu)/mu * beta_ag = -0.2, not params.beta
    assert report.gamma_ratio == pytest.approx(abs(0.7 / 1.6), rel=1e-12)


# ---------------------------------------------------------------------------
# uniqueness condition

def test_uniqueness_condition_frozen_reference_value():
    geo = make_geography(SYM2)
    comp = composite_params(PARAMS, geo.productivities, geo.trade)
    cond = uniqueness_condition(comp, n_star=2, eta_hat=0.01)
    # 0.4/2.1 + (8/17)*(2*1*2 + 3*28/3)*0.01
    expected = 0.4 / 2.1 + (8.0 / 17.0) * (4.0 + 28.0) * 0.01
    assert cond.lhs == pytest.approx(expected, rel=1e-12)
    assert cond.lhs == pytest.approx(0.3410644257703081, rel=1e-12)
    assert cond.holds


def test_uniqueness_condition_zero_eta_is_pure_ratio():
    geo = make_geography(SYM2)
    comp = composite_params(PARAMS, geo.productivities, geo.trade)
    cond = uniqueness_condition(comp, n_star=3, eta_hat=0.0)
    assert cond.lhs == pytest.approx(abs(comp.gamma_ratio), rel=1e-14)


def test_uniqueness_condition_monotone_in_eta_and_sites():
    geo = make_geography(SYM2)
    comp = composite_params(PARAMS, geo.productivities, geo.trade)
    l1 = uniqueness_condition(comp, 2, 0.01).lhs
    l2 = uniqueness_condition(comp, 2, 0.02).lhs
    l3 = uniqueness_condition(comp, 3, 0.01).lhs
    assert l1 < l2
    assert l1 < l3


def test_uniqueness_condition_fails_when_ratio_exceeds_one():
    geo = make_geography(SYM2)
    p = ModelParams(sigma=2.0, alpha=0.9, beta=-0.1, delta=1.0)
    comp = composite_params(p, geo.productivities, geo.trade)
    assert abs(comp.gamma_ratio) >= 1.0
    assert not uniqueness_condition(comp, 2, 0.0).holds
    assert not uniqueness_condition(comp, 2, 5.0).holds


# ---------------------------------------------------------------------------
# existence margins

def test_symmetric_margins_pass_for_strong_decay():
    geo = make_geography(SYM2, tau=0.1)
    p = ModelParams(sigma=9.0, alpha=0.2, beta=-0.3, delta=8.0)
    report = existence_margins(geo, p)
    assert report.precondition_holds
    assert report.passes
    assert report.min_margin >= 0
    assert np.isnan(report.margins[0, 0])


def test_margins_fail_when_trade_creep_dominates():
    geo = make_geography(SYM2, tau=4.0)
    p = ModelParams(sigma=9.0, alpha=0.2, beta=-0.3, delta=0.1)
    report = existence_margins(geo, p)
    assert not report.precondition_holds
    assert not report.passes
    assert report.min_margin < 0


def test_symmetric_lhs_reduces_to_spillover_term():
    geo = make_geography(SYM2, tau=0.1)
    p = ModelParams(sigma=9.0, alpha=0.2, beta=-0.3, delta=8.0)
    report = existence_margins(geo, p)
    comp = composite_params(p, geo.productivities, geo.trade)
    decay = comp.weight_scale * abs(comp.gamma1)
    creep = 0.1 * 8.0
    d01 = 0.4
    expected = (decay - creep) * d01 \
        - (-2.0 * p.beta * report.eta_hat * report.interaction_radius)
    assert report.margins[0, 1] == pytest.approx(expected, rel=1e-12)


def test_sharper_bound_requires_metric_trade():
    geo = make_geography(SYM2)
    t = explicit_trade_costs(np.array([[1.0, 1.5], [1.5, 1.0]]))
    geo2 = type(geo)(grid=geo.grid, sites=geo.sites, system=geo.system,
                     amenity=geo.amenity, trade=t)
    # explicit costs: the environment rate is extracted from the matrix
    report = existence_margins(geo2, PARAMS, eta_hat=0.0)
    assert report.trade_decay_rate == pytest.approx(math.log(1.5) / 0.4, rel=1e-12)


def test_metric_fallback_rate_equals_tau():
    geo = make_geography(SYM2, tau=0.7)
    a = existence_margins(geo, PARAMS, eta_hat=0.0)
    assert a.trade_decay_rate == pytest.approx(0.7)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**16),
       eta_hat=st.sampled_from([0.0, 0.3, 2.0]), delta=st.sampled_from([0.5, 2.0, 8.0]),
       scaled=st.booleans())
def test_margins_match_pair_loop(n, seed, eta_hat, delta, scaled):
    rng = np.random.default_rng(seed)
    positions = [(0.15 + 0.18 * i, float(y)) for i, y in
                 enumerate(rng.uniform(0.1, 0.9, n))]
    geo = make_geography(positions, productivities=list(rng.uniform(0.8, 1.25, n)),
                         tau=0.5, n=16,
                         scales=rng.uniform(1.0, 2.0, n) if scaled else None)
    p = ModelParams(sigma=9.0, alpha=0.2, beta=-0.3, delta=delta)
    report = existence_margins(geo, p, eta_hat=eta_hat)
    expected = loop_existence_margins(geo, p, eta_hat, report.trade_decay_rate)
    assert np.array_equal(report.margins, expected, equal_nan=True)


@pytest.mark.parametrize("scaled", [False, True])
def test_environment_trade_decay_matches_pair_loop(scaled):
    rng = np.random.default_rng(5)
    for n in (2, 3, 5, 8):
        positions = [(0.1 + 0.11 * i, float(y)) for i, y in
                     enumerate(rng.uniform(0.1, 0.9, n))]
        geo = make_geography(positions, n=8,
                             scales=rng.uniform(0.5, 2.0, n) if scaled else None)
        # an explicit, asymmetric matrix; one row below 1 tests the floor at 0
        values = np.exp(rng.uniform(0.0, 1.5, (n, n)))
        np.fill_diagonal(values, 1.0)
        if n == 2:
            values[:, :] = [[1.0, 0.5], [0.7, 1.0]]
        geo = replace(geo, trade=explicit_trade_costs(values))
        assert analysis._environment_trade_decay(geo) \
            == loop_environment_trade_decay(geo)
    assert loop_environment_trade_decay(geo) > 0


@pytest.mark.parametrize("origin", ["from_metric", "explicit"])
def test_existence_margins_of_one_site_pass_with_no_pairs(origin):
    geo = make_geography(SYM2, tau=0.7)
    if origin == "explicit":
        geo = replace(geo, trade=explicit_trade_costs(geo.trade.values))
    report = existence_margins(subset_geography(geo, [1]), PARAMS)
    assert np.isnan(report.margins).all() and report.margins.shape == (1, 1)
    assert report.min_margin == math.inf and report.passes
    assert report.eta_hat == 0.0 and report.interaction_radius == 0.0
    assert report.trade_decay_rate == (0.7 if origin == "from_metric" else 0.0)


def test_existence_margins_reject_coincident_sites_before_dividing():
    twins = make_geography(((0.3, 0.5), (0.3, 0.5)))
    twins = replace(twins, trade=explicit_trade_costs(twins.trade.values))
    with np.errstate(all="raise"), pytest.raises(CoincidentSites):
        existence_margins(twins, PARAMS, eta_hat=0.0)


def test_margin_threshold_bracketing_over_delta():
    # asymmetric productivities: margins flip sign as delta sweeps upward
    geo = make_geography(SYM2, productivities=[1.0, 1.5], tau=0.5)

    def min_margin(delta):
        p = ModelParams(sigma=9.0, alpha=0.2, beta=-0.3, delta=delta)
        return existence_margins(geo, p, eta_hat=0.0).min_margin

    assert min_margin(0.5) < 0
    assert min_margin(20.0) > 0
    root = bracket_threshold(min_margin, 0.5, 20.0, tol=1e-4)
    assert abs(min_margin(root)) < 1e-2
    # direct evaluation on each side of the bracket agrees with the sign flip
    assert min_margin(root - 0.05) < 0 < min_margin(root + 0.05)


def test_margins_increase_with_separation():
    near = make_geography(((0.4, 0.5), (0.6, 0.5)), tau=0.1)
    far = make_geography(((0.1, 0.5), (0.9, 0.5)), tau=0.1)
    p = ModelParams(sigma=9.0, alpha=0.2, beta=-0.3, delta=8.0)
    rn = existence_margins(near, p)
    rf = existence_margins(far, p)
    assert rn.precondition_holds and rf.precondition_holds
    assert (cross_distances(far.sites, far.system)[0, 1]
            > cross_distances(near.sites, near.system)[0, 1])
    assert rf.min_margin > rn.min_margin


def test_separation_report_flags_never_satisfiable():
    geo = make_geography(SYM2, tau=4.0)
    p = ModelParams(sigma=9.0, alpha=0.2, beta=-0.3, delta=0.1)
    assert not existence_margins(geo, p).precondition_holds


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_boundary_is_exact():
    sweep = parameter_sweep(kind="alpha_sigma",
                            alphas=np.linspace(0.0, 0.6, 25),
                            sigmas=np.linspace(2.0, 12.0, 21), beta=-0.3)
    for a_bound, s in sweep.boundary:
        assert a_bound == 1.0 / (s - 1.0)  # exact arithmetic, no tolerance
    # category flips exactly at the cutoff in every sigma row
    for iy, s in enumerate(sweep.y_values):
        cutoff = 1.0 / (s - 1.0)
        for ix, a in enumerate(sweep.x_values):
            cat = SWEEP_CATEGORIES[sweep.category[iy, ix]]
            if abs(a - cutoff) <= 1e-12:
                assert cat.startswith("knife_edge")
            elif a > cutoff:
                assert cat.startswith("multiple")
            else:
                assert cat.startswith("spread")


def test_sweep_contains_reference_point_in_reconciliation_region():
    sweep = parameter_sweep(kind="alpha_beta",
                            alphas=np.linspace(0.0, 0.6, 61),
                            betas=np.linspace(-0.6, 0.0, 61), sigma=9.0)
    ix = int(np.argmin(np.abs(sweep.x_values - 0.2)))
    iy = int(np.argmin(np.abs(sweep.y_values - (-0.3))))
    assert sweep.x_values[ix] == pytest.approx(0.2)
    assert sweep.y_values[iy] == pytest.approx(-0.3)
    assert SWEEP_CATEGORIES[sweep.category[iy, ix]] == "multiple+unique"
    rows = sweep_rows(sweep)
    assert len(rows) == 61 * 61
    assert any(r["reconciliation"] for r in rows)


def test_sweep_cutoff_moves_with_sigma():
    lo = parameter_sweep(kind="alpha_beta", sigma=5.0,
                         alphas=np.linspace(0.0, 0.6, 61),
                         betas=np.linspace(-0.6, -0.1, 11))
    hi = parameter_sweep(kind="alpha_beta", sigma=9.0,
                         alphas=np.linspace(0.0, 0.6, 61),
                         betas=np.linspace(-0.6, -0.1, 11))
    # at alpha = 0.2: spread for sigma=5 (cutoff 0.25), multiple for sigma=9
    ix = int(np.argmin(np.abs(lo.x_values - 0.2)))
    assert SWEEP_CATEGORIES[lo.category[0, ix]].startswith("spread")
    assert SWEEP_CATEGORIES[hi.category[0, ix]].startswith("multiple")


def test_sweep_validates_axes():
    with pytest.raises(ValueError):
        parameter_sweep(kind="alpha_beta", alphas=[0.1], betas=[-0.3, -0.2])
    with pytest.raises(ValueError):
        parameter_sweep(kind="unknown")
    # the region map's cell edges assume increasing axes
    with pytest.raises(InvalidInput, match="sweep alpha axis needs at least 2 "
                                           "strictly increasing values"):
        parameter_sweep(kind="alpha_beta", alphas=np.linspace(0.6, 0.0, 7))
    with pytest.raises(InvalidInput, match="sweep beta axis needs at least 2 "
                                           "strictly increasing values"):
        parameter_sweep(kind="alpha_beta", betas=[-0.1, -0.5, -0.3])


# ---------------------------------------------------------------------------
# multistart probe

def test_probe_collapses_to_one_cluster_in_uniqueness_regime():
    geo = make_geography(SYM2, productivities=[1.0, 1.1], tau=0.5)
    p = ModelParams(sigma=9.0, alpha=0.2, beta=-0.3, delta=10.0)
    comp = composite_params(p, geo.productivities, geo.trade)
    eta = semielasticity_sup(geo, variant_transform(p).kernel, n_samples=4).value
    assert uniqueness_condition(comp, 2, eta).holds
    probe = multistart_probe(geo, p, n_starts=8, seed=123)
    assert probe.n_converged == 8
    assert probe.unique_up_to_normalization
    assert probe.clusters[0].count == 8
    assert probe.clusters[0].residual < 1e-8


def test_probe_single_start_single_cluster():
    geo = make_geography(SYM2)
    probe = multistart_probe(geo, PARAMS, n_starts=1, seed=0)
    assert len(probe.clusters) == 1
    assert probe.n_starts == 1


THREE = ((0.2, 0.3), (0.75, 0.35), (0.45, 0.8))


def test_probe_starts_are_the_seeded_feasible_draws(monkeypatch):
    geo = make_geography(THREE, n=16)
    starts = []

    def record(geography, params, y_star=None, options=None):
        starts.append(options.weights_init)
        raise HinterlandError("start recorded")

    monkeypatch.setattr(analysis, "fixed_point_solve", record)
    probe = multistart_probe(geo, PARAMS, n_starts=6, seed=11)
    assert probe.n_converged == 0 and len(probe.failures) == 6
    expected = loop_feasible_starts(geo.sites, geo.system, 0.5, 6, 11)
    assert len(starts) == 6
    assert all(np.array_equal(s, e) for s, e in zip(starts, expected))

    starts.clear()
    multistart_probe(geo, PARAMS, y_star=[2], n_starts=3, seed=11)
    assert len(starts) == 3 and all(np.array_equal(s, [0.0]) for s in starts)


def test_probe_draws_its_starts_from_the_solver_shrunk_set(monkeypatch):
    geo = make_geography(THREE, n=16)
    starts = []

    def record(geography, params, y_star=None, options=None):
        starts.append(options.weights_init)
        raise HinterlandError("start recorded")

    monkeypatch.setattr(analysis, "fixed_point_solve", record)
    multistart_probe(geo, PARAMS, n_starts=6, seed=11,
                     options=SolverOptions(k_shrink=0.3))
    expected = sample_feasible_weights(geo.sites, geo.system, 0.3, 6, 11)
    assert len(starts) == 6
    assert all(np.array_equal(s, e) for s, e in zip(starts, expected))


def test_semielasticity_sup_evaluates_zero_then_seeded_draws(monkeypatch):
    geo = make_geography(THREE, n=16)
    weights = []
    real = integrals.assign_labels

    def record(grid, sites, system, w, distances=None):
        weights.append(np.asarray(w))
        return real(grid, sites, system, w, distances)

    monkeypatch.setattr(integrals, "assign_labels", record)
    bound = semielasticity_sup(geo, variant_transform(PARAMS).kernel,
                               n_samples=5, seed=4)
    assert bound.n_weight_vectors == 5
    expected = [np.zeros(3)] + loop_feasible_starts(geo.sites, geo.system, 0.5, 4, 4)
    assert len(weights) == 5
    assert all(np.array_equal(w, e) for w, e in zip(weights, expected))


def test_probe_deterministic_in_seed():
    geo = make_geography(SYM2, productivities=[1.0, 1.05])
    a = multistart_probe(geo, PARAMS, n_starts=4, seed=9)
    b = multistart_probe(geo, PARAMS, n_starts=4, seed=9)
    assert len(a.clusters) == len(b.clusters)
    assert np.array_equal(a.clusters[0].representative,
                          b.clusters[0].representative)
