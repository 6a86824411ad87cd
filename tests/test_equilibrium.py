import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hinterland.equilibrium as equilibrium
import hinterland.integrals as integrals
from hinterland import cli, sustainability
from hinterland.analysis import classify_point, existence_margins
from helpers import (
    damped_fixed_point_solve,
    damped_knife_edge_solve,
    damped_market_solve,
    log_wage_map,
    loop_amenity_integral,
    loop_reproject_scale,
)
from hinterland.equilibrium import (
    Baseline,
    CompositeParams,
    HomeConsumption,
    ModelParams,
    SolverOptions,
    TwoSector,
    _reproject,
    _solve_linear,
    composite_params,
    fixed_point_solve,
    market_equilibrium_solve,
    solve_knife_edge_system,
    subset_geography,
    transformed_weight_map,
    variant_transform,
)
from hinterland.errors import (
    CoincidentSites,
    DegenerateConstantRecovery,
    DegenerateGamma1,
    EmptyCellInSum,
    InvalidInput,
    InvalidVariantParams,
    LeftFeasibleSet,
    NonFiniteWeight,
    NotConverged,
    ZeroLabor,
)
from hinterland.fields import (
    Geography,
    amenity_from_function,
    explicit_trade_costs,
    trade_costs_from_metric,
)
from hinterland.geometry import (
    DistanceSystem,
    Site,
    assign_labels,
    build_grid,
    lambda_feasibility,
    sample_feasible_weights,
)
from hinterland.integrals import NarrowBand

EUCLID = DistanceSystem()


def make_geography(positions, productivities=None, tau=0.5, n=64,
                   amenity_fn=None, scales=None):
    """A unit-square geography; per-site ``scales`` make d_i(y_j) asymmetric
    and take trade costs exp(tau * Euclidean distance) as an explicit matrix."""
    grid = build_grid((0.0, 0.0, 1.0, 1.0), (n, n))
    prods = productivities or [1.0] * len(positions)
    sites = tuple(Site(i, p, prod) for i, (p, prod) in
                  enumerate(zip(positions, prods)))
    fn = amenity_fn or (lambda x, y: np.ones_like(x))
    amen = amenity_from_function(grid, fn)
    trade = trade_costs_from_metric(sites, EUCLID, tau=tau)
    system = EUCLID
    if scales is not None:
        system = DistanceSystem("scaled_euclidean", scales=tuple(scales))
        trade = explicit_trade_costs(trade.values)
    return Geography(grid=grid, sites=sites, system=system, amenity=amen,
                     trade=trade)


SYM2 = ((0.3, 0.5), (0.7, 0.5))
PARAMS = ModelParams(sigma=9.0, alpha=0.2, beta=-0.3, delta=2.0)


# ---------------------------------------------------------------------------
# composite parameters

def test_composite_reference_point():
    geo = make_geography(SYM2)
    comp = composite_params(PARAMS, geo.productivities, geo.trade)
    assert comp.gamma1 == pytest.approx(2.1, rel=1e-14)
    assert comp.gamma2 == pytest.approx(0.4, rel=1e-14)
    assert comp.sigma_tilde == pytest.approx(8.0 / 17.0, rel=1e-14)
    assert comp.phi1 == pytest.approx(2.0, rel=1e-14)
    assert comp.phi2 == pytest.approx(28.0 / 3.0, rel=1e-14)
    assert abs(comp.gamma_ratio) < 1.0
    # the composite identity tying the two exponent families together
    assert comp.sigma_tilde * (comp.gamma1 - comp.gamma2) == pytest.approx(
        -(PARAMS.sigma - 1.0) * (PARAMS.alpha + PARAMS.beta), rel=1e-12)
    assert comp.weight_scale == pytest.approx(
        -(PARAMS.delta / PARAMS.beta) * comp.sigma_tilde, rel=1e-14)


def test_composite_weak_congestion_limit():
    geo = make_geography(SYM2)
    p = ModelParams(sigma=2.0, alpha=0.0, beta=-1e-9, delta=1.0)
    comp = composite_params(p, geo.productivities, geo.trade)
    assert abs(comp.gamma1 - 1.0) < 1e-8
    assert abs(comp.gamma2 - 1.0) < 1e-8


def test_composite_gamma1_zero_raises():
    geo = make_geography(SYM2)
    p = ModelParams(sigma=2.0, alpha=2.0, beta=-0.5, delta=1.0)
    with pytest.raises(DegenerateGamma1):
        composite_params(p, geo.productivities, geo.trade)


def test_degenerate_gamma1_message_carries_the_congestion_weight():
    # gamma1 = 1 - 8*0.4625 + 9*0.3 = 0
    geo = make_geography(SYM2)
    p = ModelParams(sigma=9.0, alpha=0.4625, beta=-0.3, delta=2.0)
    with pytest.raises(DegenerateGamma1, match=r"congestion=-0\.3;"):
        composite_params(p, geo.productivities, geo.trade)


def test_composite_kernel_matrix():
    geo = make_geography(SYM2, productivities=[1.0, 2.0], tau=0.5)
    comp = composite_params(PARAMS, geo.productivities, geo.trade)
    st = comp.sigma_tilde
    d = 0.4
    log_t = (1.0 - PARAMS.sigma) * 0.5 * d
    assert comp.log_K[0, 1] == pytest.approx(log_t + st * 9.0 * math.log(2.0),
                                             rel=1e-12)
    assert comp.log_K[1, 0] == pytest.approx(log_t + st * 8.0 * math.log(2.0),
                                             rel=1e-12)
    assert comp.log_K[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_two_sector_composites_match_hand_arithmetic():
    geo = make_geography(SYM2)
    # (sigma, alpha, mu, beta_ag, delta) -> hand-computed gamma1, gamma2
    cases = [
        (5.0, 0.1, 0.5, -0.2, 1.0, 1.6, 0.7),
        (9.0, 0.2, 0.5, -0.3, 2.0, 1.0 - 1.6 + 2.7, 1.0 + 1.8 - 2.4),
        (5.0, 0.25, 0.8, -0.4, 1.0, 1.0 - 1.0 + 0.5, 1.0 + 1.25 - 0.4),
        (3.0, 0.0, 0.25, -0.1, 1.5, 1.0 + 0.9, 1.0 - 0.6),
        (7.0, 0.15, 0.6, -0.5, 0.7, 1.0 - 0.9 + 7.0 / 3.0, 1.0 + 1.05 - 2.0),
    ]
    for sigma, alpha, mu, beta_ag, delta, g1, g2 in cases:
        p = ModelParams(sigma=sigma, alpha=alpha, beta=-0.3, delta=delta,
                        variant=TwoSector(mu=mu, beta=beta_ag))
        comp = composite_params(p, geo.productivities, geo.trade)
        b = (1.0 - mu) / mu * beta_ag
        assert comp.gamma1 == pytest.approx(1.0 - (sigma - 1) * alpha - sigma * b,
                                            rel=1e-13)
        assert comp.gamma2 == pytest.approx(1.0 + sigma * alpha + (sigma - 1) * b,
                                            rel=1e-13)
        assert comp.gamma1 == pytest.approx(g1, rel=1e-12)
        assert comp.gamma2 == pytest.approx(g2, rel=1e-12)
        assert comp.weight_scale == pytest.approx(
            -(delta * mu / beta_ag) * (sigma - 1) / (2 * sigma - 1), rel=1e-13)


def test_two_sector_tends_to_baseline_as_mu_to_one():
    geo = make_geography(SYM2)
    p = ModelParams(sigma=5.0, alpha=0.1, beta=-0.3, delta=1.0,
                    variant=TwoSector(mu=1.0 - 1e-9, beta=-0.2))
    comp = composite_params(p, geo.productivities, geo.trade)
    assert comp.gamma1 == pytest.approx(1.0 - 4.0 * 0.1, abs=1e-8)


def test_variant_transform_kernels():
    base = variant_transform(ModelParams(sigma=5, alpha=0.1, beta=-0.3, delta=2.0))
    assert base.kernel.distance_coeff == 2.0
    assert base.weight_decay == 2.0
    home = variant_transform(ModelParams(sigma=5, alpha=0.1, beta=-0.3,
                                         delta=2.0, tau=0.5,
                                         variant=HomeConsumption()))
    assert home.kernel.distance_coeff == 2.5
    assert home.weight_decay == 2.5
    two = variant_transform(ModelParams(sigma=5, alpha=0.1, beta=-0.3, delta=2.0,
                                        variant=TwoSector(mu=0.5, beta=-0.2)))
    assert two.kernel.beta_eff == -0.2
    assert two.kernel.distance_coeff == pytest.approx(2.0 * (0.5 + 0.2 * 0.5))
    assert two.weight_decay == pytest.approx(1.0)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(sigma=1.0, alpha=0.1, beta=-0.3, delta=1.0)
    with pytest.raises(ValueError):
        ModelParams(sigma=5.0, alpha=0.1, beta=0.3, delta=1.0)
    with pytest.raises(ValueError):
        ModelParams(sigma=5.0, alpha=0.1, beta=-0.3, delta=-1.0)
    with pytest.raises(InvalidVariantParams):
        ModelParams(sigma=5.0, alpha=0.1, beta=-0.3, delta=1.0,
                    variant=TwoSector(mu=1.5, beta=-0.2))
    with pytest.raises(InvalidVariantParams):
        ModelParams(sigma=5.0, alpha=0.1, beta=-0.3, delta=1.0,
                    variant=TwoSector(mu=0.5, beta=0.2))


@pytest.mark.parametrize("k_shrink", [1.0, 0.0, -2.0, float("nan")])
def test_solver_options_reject_k_shrink_outside_the_unit_interval(k_shrink):
    # the shrunk set Λ^k needs k in (0, 1)
    with pytest.raises(InvalidInput, match="k_shrink must be in"):
        SolverOptions(k_shrink=k_shrink)


@pytest.mark.parametrize("k_shrink", [math.nan, math.inf, -math.inf, -1.0,
                                      0.0, 1.0, 2.0])
def test_every_k_shrink_reader_rejects_it_outside_the_unit_interval(k_shrink):
    # one rule for Λ^k, and the sampler applies it before its first draw
    geo = make_geography(SYM2)
    checks = (
        lambda: SolverOptions(k_shrink=k_shrink),
        lambda: lambda_feasibility(geo.sites, geo.system, [0.0, 0.0], k_shrink),
        lambda: sample_feasible_weights(geo.sites, geo.system, k_shrink, 2, 0),
        lambda: integrals.semielasticity_sup(
            geo, variant_transform(PARAMS).kernel, k_shrink=k_shrink,
            n_samples=4),
        lambda: existence_margins(subset_geography(geo, [1]), PARAMS,
                                  k_shrink=k_shrink),
    )
    for check in checks:
        with pytest.raises(InvalidInput, match=r"k_shrink must be in \(0, 1\)"):
            check()


def test_tau_applies_only_to_home_consumption():
    # only home consumption adds tau to the distance decay; elsewhere a
    # non-zero tau would be accepted and then ignored
    for variant in (Baseline(), TwoSector(mu=0.5, beta=-0.2)):
        with pytest.raises(ValueError, match="tau applies only to the "
                                             "home_consumption variant"):
            ModelParams(sigma=5.0, alpha=0.1, beta=-0.3, delta=1.0, tau=0.9,
                        variant=variant)
        assert ModelParams(sigma=5.0, alpha=0.1, beta=-0.3, delta=1.0,
                           tau=0.0, variant=variant).tau == 0.0
    home = ModelParams(sigma=5.0, alpha=0.1, beta=-0.3, delta=1.0, tau=0.9,
                       variant=HomeConsumption())
    assert variant_transform(home).weight_decay == pytest.approx(1.9)


# ---------------------------------------------------------------------------
# transformed map

def test_transformed_map_shift_covariance():
    geo = make_geography(SYM2, productivities=[1.0, 1.2])
    comp = composite_params(PARAMS, geo.productivities, geo.trade)
    lam_t = np.array([0.1, -0.2])
    g0, _ = transformed_weight_map(lam_t, comp, geo)
    c = 0.7
    g1, _ = transformed_weight_map(lam_t + c, comp, geo)
    assert np.allclose(g1, g0 + comp.gamma_ratio * c, rtol=0, atol=1e-12)


def test_subset_geography_slices_trade_and_sites():
    geo = make_geography(((0.2, 0.2), (0.8, 0.2), (0.5, 0.8)),
                         productivities=[1.0, 1.1, 1.2])
    sub = subset_geography(geo, [2, 0])
    assert tuple(s.id for s in sub.sites) == (2, 0)
    assert sub.trade.values[0, 1] == geo.trade.values[2, 0]
    assert sub.productivities.tolist() == [1.2, 1.0]
    with pytest.raises(ValueError):
        subset_geography(geo, [0, 0])
    with pytest.raises(ValueError):
        subset_geography(geo, [7])


def test_subset_geography_identity_and_distance_rows():
    geo = make_geography(((0.2, 0.2), (0.8, 0.2), (0.5, 0.8)))
    assert subset_geography(geo, [0, 1, 2]) is geo
    sub = subset_geography(geo, [2, 0])
    assert np.array_equal(sub.distances, geo.distances[[2, 0]])
    assert not sub.distances.flags.writeable


def test_weight_map_validation_on_cached_stack():
    geo = make_geography(SYM2)
    comp = composite_params(PARAMS, geo.productivities, geo.trade)
    transformed_weight_map(np.zeros(2), comp, geo)
    assert "distances" in vars(geo)
    with pytest.raises(NonFiniteWeight):
        transformed_weight_map(np.array([0.0, np.nan]), comp, geo)

    twins = make_geography(((0.3, 0.5), (0.3, 0.5)))
    with pytest.raises(CoincidentSites):
        transformed_weight_map(np.zeros(2), comp, twins)
    assert "distances" not in vars(twins)


# ---------------------------------------------------------------------------
# fixed-point solver

def test_symmetric_pair_splits_labor_evenly():
    geo = make_geography(SYM2)
    sol = fixed_point_solve(geo, PARAMS)
    assert sol.converged
    assert abs(sol.weights[0] - sol.weights[1]) < 1e-10
    assert sol.labor[0] == pytest.approx(0.5, rel=1e-8)
    assert sol.labor[1] == pytest.approx(0.5, rel=1e-8)
    assert sol.residuals["weights"] < 1e-8
    assert sol.residuals["population"] < 1e-12
    assert sol.residuals["market"] < 1e-10
    assert sol.residuals["welfare_spread"] < 1e-6


def test_monocentric_solution_closed_form():
    geo = make_geography(SYM2, productivities=[1.3, 1.0])
    L = PARAMS.total_labor
    sol = fixed_point_solve(geo, PARAMS, y_star=[0])
    assert sol.site_ids == (0,)
    assert sol.labor[0] == pytest.approx(L, rel=1e-12)
    # numeraire w*L = 1 and real wage equals the spillover-adjusted productivity
    assert sol.wages[0] == pytest.approx(1.0 / L, rel=1e-10)
    assert sol.real_wages[0] == pytest.approx(1.3 * L ** PARAMS.alpha, rel=1e-10)
    # welfare direct from the definition
    expected_v = sol.B[0] * sol.real_wages[0] * L ** PARAMS.beta
    assert sol.welfare == pytest.approx(expected_v, rel=1e-10)


def test_asymmetric_solution_residual_via_independent_path():
    geo = make_geography(SYM2, productivities=[1.0, 1.1])
    sol = fixed_point_solve(geo, PARAMS)
    assert sol.converged
    assert sol.residuals["weights"] < 1e-8

    # recompute every object along an independent path: loop-sum amenity
    # aggregates, population-constraint welfare, and the raw system in logs
    p = PARAMS
    st = (p.sigma - 1.0) / (2.0 * p.sigma - 1.0)
    g1 = 1.0 - (p.sigma - 1.0) * p.alpha - p.sigma * p.beta
    g2 = 1.0 + p.sigma * p.alpha + (p.sigma - 1.0) * p.beta
    phi1 = (1.0 - (p.sigma - 1.0) * p.alpha) / p.beta
    phi2 = -(1.0 + p.sigma * p.alpha) / p.beta
    s = -(p.delta / p.beta) * st

    lam = sol.weights
    tess = sol.tessellation
    B = []
    for i, site in enumerate(geo.sites):
        raw = loop_amenity_integral(geo.grid, tess.labels, i, site, EUCLID,
                                    geo.amenity.values, p.beta, p.delta)
        B.append(raw ** (-p.beta))
    B = np.array(B)
    assert np.allclose(B, sol.B, rtol=1e-10)

    S = sum(B[i] ** (-1.0 / p.beta) * math.exp(-p.delta * lam[i] / p.beta)
            for i in range(2))
    V = S ** (-p.beta) * p.total_labor ** p.beta
    assert V == pytest.approx(sol.welfare, rel=1e-10)
    L_i = np.array([V ** (1.0 / p.beta) * B[i] ** (-1.0 / p.beta)
                    * math.exp(-p.delta * lam[i] / p.beta) for i in range(2)])
    assert np.allclose(L_i, sol.labor, rtol=1e-10)

    abar = geo.productivities
    for i in range(2):
        lhs = s * g1 * lam[i]
        total = 0.0
        for j in range(2):
            total += (geo.trade.values[i, j] ** (1.0 - p.sigma)
                      * abar[i] ** (st * (p.sigma - 1.0))
                      * abar[j] ** (st * p.sigma)
                      * B[i] ** (st * phi1) * B[j] ** (st * phi2)
                      * math.exp(s * g2 * lam[j]))
        rhs = ((p.sigma - 1.0) * p.alpha / p.beta) * math.log(V) + math.log(total)
        assert abs(lhs - rhs) < 1e-8


def test_more_productive_site_attracts_more_labor():
    geo = make_geography(SYM2, productivities=[1.0, 1.15])
    sol = fixed_point_solve(geo, PARAMS)
    assert sol.labor[1] > sol.labor[0]
    assert sol.weights[1] > sol.weights[0]


def test_anchor_choice_does_not_move_solution():
    # the anchor is the first site of y_star, so reordering it moves the anchor
    geo = make_geography(SYM2, productivities=[1.0, 1.1])
    a = fixed_point_solve(geo, PARAMS, y_star=[0, 1])
    b = fixed_point_solve(geo, PARAMS, y_star=[1, 0])
    assert b.site_ids == (1, 0)
    same_site = [b.site_ids.index(i) for i in a.site_ids]
    assert np.allclose(a.weights, b.weights[same_site], atol=1e-8)
    assert a.welfare == pytest.approx(b.welfare, rel=1e-8)
    assert np.allclose(a.labor, b.labor[same_site], rtol=1e-8)


def test_warm_start_reaches_same_fixed_point():
    geo = make_geography(SYM2, productivities=[1.0, 1.1])
    a = fixed_point_solve(geo, PARAMS)
    b = fixed_point_solve(geo, PARAMS, options=SolverOptions(
        weights_init=np.array([0.05, -0.05])))
    assert np.allclose(a.weights, b.weights, atol=1e-9)


def test_real_wage_weight_identity_across_sites():
    geo = make_geography(((0.2, 0.25), (0.8, 0.3), (0.5, 0.75)),
                         productivities=[1.0, 1.1, 0.95])
    sol = fixed_point_solve(geo, PARAMS)
    ident = np.log(sol.real_wages) / PARAMS.delta - sol.weights
    assert ident.max() - ident.min() < 1e-6


def test_wage_scaling_invariant():
    geo = make_geography(((0.2, 0.25), (0.8, 0.3), (0.5, 0.75)),
                         productivities=[1.0, 1.1, 0.95])
    p = PARAMS
    sol = fixed_point_solve(geo, p)
    expo = p.beta * (1 - p.sigma) - 1 + p.alpha * (p.sigma - 1)
    resid = ((2 * p.sigma - 1) * np.log(sol.wages)
             - (p.sigma - 1) * np.log(geo.productivities)
             - (1 - p.sigma) * np.log(sol.B) - expo * np.log(sol.labor))
    assert resid.max() - resid.min() < 1e-6


def test_scale_law_for_welfare():
    geo = make_geography(SYM2, productivities=[1.0, 1.1])
    # without spillovers welfare scales exactly like L^beta
    p0 = ModelParams(sigma=9.0, alpha=0.0, beta=-0.3, delta=2.0)
    a = fixed_point_solve(geo, p0)
    b = fixed_point_solve(geo, ModelParams(sigma=9.0, alpha=0.0, beta=-0.3,
                                           delta=2.0, total_labor=2.0))
    assert b.welfare / a.welfare == pytest.approx(2.0 ** p0.beta, rel=1e-8)
    assert np.array_equal(a.tessellation.labels, b.tessellation.labels)
    assert np.allclose(b.labor / 2.0, a.labor, rtol=1e-8)

    # with spillovers the exponent becomes alpha + beta
    a = fixed_point_solve(geo, PARAMS)
    b = fixed_point_solve(geo, ModelParams(sigma=9.0, alpha=0.2, beta=-0.3,
                                           delta=2.0, total_labor=2.0))
    assert b.welfare / a.welfare == pytest.approx(
        2.0 ** (PARAMS.alpha + PARAMS.beta), rel=1e-8)
    assert np.allclose(b.labor / 2.0, a.labor, rtol=1e-8)


def test_home_consumption_collapses_to_baseline_at_zero_tau():
    geo = make_geography(SYM2, productivities=[1.0, 1.1])
    base = fixed_point_solve(geo, ModelParams(sigma=9.0, alpha=0.2, beta=-0.3,
                                              delta=2.0))
    home = fixed_point_solve(geo, ModelParams(sigma=9.0, alpha=0.2, beta=-0.3,
                                              delta=2.0, tau=0.0,
                                              variant=HomeConsumption()))
    diff_base = base.weights - base.weights[0]
    diff_home = home.weights - home.weights[0]
    assert np.array_equal(diff_base, diff_home)
    assert np.array_equal(base.labor, home.labor)


def test_home_consumption_positive_tau_shifts_weights():
    geo = make_geography(SYM2, productivities=[1.0, 1.1])
    base = fixed_point_solve(geo, PARAMS)
    home = fixed_point_solve(geo, ModelParams(sigma=9.0, alpha=0.2, beta=-0.3,
                                              delta=2.0, tau=0.5,
                                              variant=HomeConsumption()))
    assert home.residuals["weights"] < 1e-8
    assert not np.allclose(base.weights - base.weights[0],
                           home.weights - home.weights[0], atol=1e-6)


def test_two_sector_solve():
    geo = make_geography(SYM2, productivities=[1.0, 1.1])
    p = ModelParams(sigma=5.0, alpha=0.1, beta=-0.3, delta=2.0,
                    variant=TwoSector(mu=0.6, beta=-0.25))
    sol = fixed_point_solve(geo, p)
    assert sol.converged
    assert sol.residuals["weights_transformed"] < 1e-8
    assert sol.residuals["population"] < 1e-12
    assert sol.residuals["welfare_spread"] < 1e-6
    assert sol.labor.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(sol.labor > 0)


# ---------------------------------------------------------------------------
# knife-edge all-sites solver

def test_knife_edge_requires_exact_cutoff():
    geo = make_geography(SYM2)
    bad = ModelParams(sigma=5.0, alpha=0.25 + 1e-6, beta=-0.5, delta=2.0)
    with pytest.raises(InvalidVariantParams):
        solve_knife_edge_system(geo, bad)
    two = ModelParams(sigma=5.0, alpha=0.25, beta=-0.5, delta=2.0,
                      variant=TwoSector(mu=0.5, beta=-0.2))
    with pytest.raises(InvalidVariantParams):
        solve_knife_edge_system(geo, two)


@pytest.mark.parametrize("sigma", [5.0, 4.0, 9.0])
def test_knife_edge_call_sites_agree_near_the_cutoff(sigma):
    geo = make_geography(SYM2, n=16)
    cutoff = 1.0 / (sigma - 1.0)
    verdicts = {}
    for offset in (0.0, 1e-12, -1e-12, 2e-12, -2e-12):
        p = ModelParams(sigma=sigma, alpha=cutoff + offset, beta=-0.5, delta=2.0)
        try:
            solve_knife_edge_system(geo, p)
            solver_accepts = True
        except InvalidVariantParams:
            solver_accepts = False
        sites = {
            "predicate": equilibrium.is_knife_edge(p.alpha, p.sigma),
            "spillover_regime": equilibrium.spillover_regime(p.alpha, p.sigma)
                                == "knife_edge",
            "cli": cli._is_knife_edge(p),
            "classify_point": classify_point(p.alpha, p.beta, p.sigma)
                              .location_multiplicity == "knife_edge",
            "sustainability": sustainability._spillover_regime(p)
                              == sustainability.KNIFE_EDGE,
            "solve_knife_edge_system": solver_accepts,
        }
        assert len(set(sites.values())) == 1, (offset, sites)
        verdicts[offset] = sites["predicate"]
    assert verdicts[0.0] and not verdicts[2e-12] and not verdicts[-2e-12]
    # the CLI routes only the baseline variant to the all-sites solver
    two = ModelParams(sigma=sigma, alpha=cutoff, beta=-0.5, delta=2.0,
                      variant=TwoSector(mu=0.5, beta=-0.2))
    assert equilibrium.is_knife_edge(two.alpha, two.sigma)
    assert not cli._is_knife_edge(two)


@pytest.mark.parametrize("sigma", [5.0, 4.0, 9.0])
def test_one_regime_test_names_both_sides_of_the_cutoff(sigma):
    cutoff = 1.0 / (sigma - 1.0)
    expected = {2e-12: ("multiple", sustainability.STRONG_SPILLOVER),
                -2e-12: ("spread", sustainability.WEAK_SPILLOVER),
                0.0: ("knife_edge", sustainability.KNIFE_EDGE),
                0.3: ("multiple", sustainability.STRONG_SPILLOVER),
                -0.05: ("spread", sustainability.WEAK_SPILLOVER)}
    for offset, (regime, spillover) in expected.items():
        p = ModelParams(sigma=sigma, alpha=cutoff + offset, beta=-0.5,
                        delta=2.0)
        assert equilibrium.spillover_regime(p.alpha, p.sigma) == regime
        assert classify_point(p.alpha, p.beta, p.sigma) \
            .location_multiplicity == regime
        assert sustainability._spillover_regime(p) == spillover


def test_knife_edge_symmetric_pair():
    geo = make_geography(SYM2)
    p = ModelParams(sigma=5.0, alpha=0.25, beta=-0.5, delta=2.0)
    sol = solve_knife_edge_system(geo, p)
    assert sol.converged
    assert abs(sol.weights[0] - sol.weights[1]) < 1e-10
    assert sol.labor[0] == pytest.approx(0.5, rel=1e-8)
    assert sol.residuals["weights"] < 1e-8
    assert sol.active_ids == (0, 1)
    # the knife edge pins the weight level: no normalization freedom left
    ident = np.log(sol.real_wages) / p.delta - sol.weights
    assert np.abs(ident).max() < 1e-6


def test_knife_edge_matches_restricted_solver_on_active_set():
    geo = make_geography(SYM2, productivities=[1.0, 1.05])
    p = ModelParams(sigma=5.0, alpha=0.25, beta=-0.5, delta=2.0)
    all_sites = solve_knife_edge_system(geo, p)
    restricted = fixed_point_solve(geo, p, y_star=[0, 1])
    # same weight differences and labor split
    assert np.allclose(np.diff(all_sites.weights), np.diff(restricted.weights),
                       atol=1e-8)
    assert np.allclose(all_sites.labor, restricted.labor, rtol=1e-7)
    # and the absolute level agrees too: the anchored solve recovers the
    # same normalization from the population constraint
    assert np.allclose(all_sites.weights, restricted.weights, atol=1e-8)


# ---------------------------------------------------------------------------
# the iteration driver against the damped weight loops

@pytest.fixture
def map_evaluations(monkeypatch):
    """A list that counts each transformed-map evaluation, raised or not."""
    calls = []
    evaluate = equilibrium.transformed_weight_map

    def counting(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "transformed_weight_map", counting)
    return calls


def _outcome(solve):
    try:
        return "converged", solve()
    except (LeftFeasibleSet, NotConverged) as exc:
        return type(exc).__name__, None


def _grow(mask):
    """The mask and the 4-neighbours of its cells."""
    out = mask.copy()
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    return out


def _boundary_cells(labels):
    """Cells with a 4-neighbour of another label."""
    return np.logical_or.reduce([_grow(labels == k) & (labels != k)
                                 for k in np.unique(labels)])


def _random_geography(rng, n):
    """n sites at least 0.2 apart, productivities in [0.9, 1.1], one amenity
    bump, on a 48², 56² or 64² grid."""
    size = int(rng.choice([48, 56, 64]))
    positions = []
    while len(positions) < n:
        xy = rng.uniform(0.1, 0.9, 2)
        if all(math.dist(xy, q) >= 0.2 for q in positions):
            positions.append(xy)
    cx, cy = rng.uniform(0.2, 0.8, 2)
    return make_geography(
        [tuple(xy) for xy in positions], list(rng.uniform(0.9, 1.1, n)), n=size,
        amenity_fn=lambda x, y: 1.0 + np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / 0.04))


def test_weight_solvers_agree_with_damped_loops(map_evaluations):
    # two draws per (site count, regime): spread, strong and knife edge
    rng = np.random.default_rng(0)
    evaluations = {"newton": 0, "damped": 0}
    outcomes = set()
    for n in range(2, 7):
        for alpha in (0.05, 0.2, 1.0 / 8.0) * 2:
            geo = _random_geography(rng, n)
            p = ModelParams(sigma=9.0, alpha=alpha, beta=-0.3, delta=2.0)
            if equilibrium.is_knife_edge(alpha, p.sigma):
                solvers = {"newton": solve_knife_edge_system,
                           "damped": damped_knife_edge_solve}
            else:
                solvers = {"newton": fixed_point_solve,
                           "damped": damped_fixed_point_solve}
            results = {}
            for name, solve in solvers.items():
                map_evaluations.clear()
                results[name] = _outcome(lambda: solve(geo, p))
                if results[name][0] == "converged":
                    evaluations[name] += len(map_evaluations)
            (outcome, new), (expected, old) = results["newton"], results["damped"]
            assert outcome == expected, (n, alpha)
            outcomes.add(outcome)
            if new is None:
                continue
            a, b = new.tessellation.labels, old.tessellation.labels
            if np.array_equal(a, b):
                assert np.abs(new.weights - old.weights).max() < 1e-10
                assert np.abs(new.labor - old.labor).max() < 1e-10
                assert abs(new.welfare - old.welfare) < 1e-10
            else:  # another discrete fixed point: interfaces shifted by a few cells
                for sol in (new, old):
                    assert sol.residuals["weights"] <= 1e4 * SolverOptions().tol
                # within two cells of an interface: in 120 draws of this kind
                # (seeds 0-3), the 3 whose labels differ each touch one
                band = _grow(_boundary_cells(a) | _boundary_cells(b))
                assert band[a != b].all()
    assert {"converged", "LeftFeasibleSet"} <= outcomes
    # converged solves only: a failing solve costs about what the damped
    # loop spends on it (both spend max_iter on a raster cycle). This batch
    # gives 0.19; batches from seeds 1-3 give 0.17, 0.17 and 0.22 (0.19 over
    # all 120 draws: spread 0.15, knife edge 0.17, strong 0.27)
    assert evaluations["newton"] <= evaluations["damped"] / 3


SPREAD3 = ((0.2, 0.3), (0.8, 0.4), (0.5, 0.8))


def test_rejected_newton_iterate_that_empties_a_cell_falls_back(
        monkeypatch, map_evaluations):
    geo = make_geography(SPREAD3, productivities=[1.0, 1.1, 0.95])
    p = ModelParams(sigma=9.0, alpha=0.05, beta=-0.3, delta=2.0)
    map_evaluations.clear()
    expected = damped_fixed_point_solve(geo, p)
    damped_evaluations = len(map_evaluations)

    emptied, anchors = [], []
    evaluate = equilibrium.transformed_weight_map

    def recording(lam_t, *args, **kwargs):
        anchors.append(lam_t[0])
        try:
            return evaluate(lam_t, *args, **kwargs)
        except EmptyCellInSum:
            emptied.append(1)
            raise

    # ∂G = 0.98·I makes the first Newton step 50·f, far outside the feasible
    # set; ∂G = I after it leaves ∂G − I singular, so damped steps follow
    jacobians = iter([0.98])
    monkeypatch.setattr(equilibrium, "transformed_weight_map", recording)
    monkeypatch.setattr(equilibrium, "_weight_jacobian", lambda lam_t, comp, agg:
                        next(jacobians, 1.0) * np.eye(len(lam_t)))
    sol = fixed_point_solve(geo, p)
    assert emptied == [1]          # one rejected evaluation, and no exit
    # Newton, rejected and fallback iterates keep the anchor at 0
    assert all(anchor == 0.0 for anchor in anchors)
    assert not sol.exited_feasible
    assert np.array_equal(sol.tessellation.labels, expected.tessellation.labels)
    assert np.abs(sol.weights - expected.weights).max() < 1e-10
    assert np.abs(sol.labor - expected.labor).max() < 1e-10
    # the damped steps of the oracle plus the rejected one, without the
    # oracle's final evaluation and up to one step for the stricter stop rule
    assert abs(sol.iterations - damped_evaluations) <= 1


def test_damped_step_that_empties_a_cell_is_an_exit(monkeypatch):
    # from the start, the Newton iterate empties a cell and yields to the
    # damped step; when that empties a cell too, both solvers reproject at
    # once instead of retrying it (alpha is not -beta, which is rejected
    # before the first step)
    geo = make_geography(SYM2, productivities=[1.0, 2.0])
    p = ModelParams(sigma=9.0, alpha=0.32, beta=-0.3, delta=2.0)
    evaluate = equilibrium.transformed_weight_map
    points = {}
    for name, solve in (("newton", fixed_point_solve),
                        ("damped", damped_fixed_point_solve)):
        seen = points[name] = []

        def recording(lam_t, *args, **kwargs):
            seen.append(np.array(lam_t))
            return evaluate(lam_t, *args, **kwargs)

        monkeypatch.setattr(equilibrium, "transformed_weight_map", recording)
        with pytest.raises(LeftFeasibleSet):
            solve(geo, p)
    comp = composite_params(p, geo.productivities, geo.trade)
    start, newton, step, reprojected = points["newton"][:4]
    assert np.array_equal(reprojected, _reproject(step, comp, geo, 0.5))
    for a, b in zip([start, step, reprojected], points["damped"][:3]):
        assert np.array_equal(a, b)
    # the Newton, damped and reprojected iterates keep the anchor at 0
    assert all(lam_t[0] == 0.0 for seen in points.values() for lam_t in seen)


def _jacobian_error(lam_t, comp, geo, active_only, h=1e-7):
    """max|J − FD| / max|J| of ``_weight_jacobian`` against central
    differences of the anchored map g − g_0 at λ̃, or None when a step of h
    relabels a cell (the map is smooth only between relabellings)."""
    def anchored(x):
        g, agg = transformed_weight_map(x, comp, geo, active_only=active_only)
        return g - g[0], agg, equilibrium._tessellate(x, comp, geo).labels

    _, agg, labels = anchored(lam_t)
    columns = []
    for e in h * np.eye(len(lam_t)):
        (up, _, up_labels), (down, _, down_labels) = anchored(lam_t + e), \
            anchored(lam_t - e)
        if not (np.array_equal(up_labels, labels)
                and np.array_equal(down_labels, labels)):
            return None
        columns.append((up - down) / (2 * h))
    J = equilibrium._weight_jacobian(lam_t, comp, agg)
    return np.abs(J - np.column_stack(columns)).max() / np.abs(J).max()


def test_weight_jacobian_matches_central_differences():
    # spread, strong and knife-edge draws at the start and at two seeded
    # feasible points each; the knife edge's sums skip empty cells
    rng = np.random.default_rng(4)
    errors = []
    for n in range(2, 7):
        for alpha in (0.05, 0.2, 1.0 / 8.0):
            geo = _random_geography(rng, n)
            p = ModelParams(sigma=9.0, alpha=alpha, beta=-0.3, delta=2.0)
            comp = composite_params(p, geo.productivities, geo.trade)
            starts = sample_feasible_weights(geo.sites, geo.system, 0.5, 2, n)
            for w in [np.zeros(n), *starts]:
                lam_t = (w - w[0]) * (comp.weight_scale * comp.gamma1)
                errors.append(_jacobian_error(
                    lam_t, comp, geo, equilibrium.is_knife_edge(alpha, p.sigma)))
    # the knife-edge solution whose anchor's cell is empty: the anchor's
    # column of S is zero, yet G = g − g_0 still subtracts its row
    geo = make_geography(((0.5078125, 0.5078125), (0.3, 0.5), (0.7, 0.5)),
                         [0.5, 1.0, 1.0])
    p = ModelParams(sigma=5.0, alpha=0.25, beta=-0.5, delta=2.0)
    sol = solve_knife_edge_system(geo, p)
    comp = composite_params(p, geo.productivities, geo.trade)
    assert sol.active_ids == (1, 2)
    errors.append(_jacobian_error(
        (sol.weights - sol.weights[0]) * (comp.weight_scale * comp.gamma1),
        comp, geo, True))
    assert errors[-1] is not None
    checked = [e for e in errors if e is not None]
    assert len(checked) >= 40
    assert max(checked) < 1e-6


def test_alpha_equal_to_minus_beta_fails_before_any_evaluation(
        tmp_path, map_evaluations, capsys):
    # gamma1 = gamma2 = 1 + alpha: the normalization constant is lost, so the
    # solve stops before the first map evaluation, and the CLI exits 1; at
    # sigma = 9, alpha = 1/8 is also the knife edge
    geo = make_geography(((0.2, 0.3), (0.8, 0.3), (0.5, 0.8)))
    for alpha in (0.3, 0.125):
        p = ModelParams(sigma=9.0, alpha=alpha, beta=-alpha, delta=2.0)
        if equilibrium.is_knife_edge(alpha, p.sigma):
            with pytest.raises(DegenerateConstantRecovery):
                solve_knife_edge_system(geo, p)
        else:
            with pytest.raises(DegenerateConstantRecovery):
                fixed_point_solve(geo, p)
            with pytest.raises(DegenerateConstantRecovery):
                fixed_point_solve(geo, p, y_star=[0, 2])
        assert map_evaluations == []
        config = tmp_path / f"run-{alpha}.yaml"
        config.write_text(
            "geography:\n  resolution: [48, 48]\n  sites:\n"
            "    - {position: [0.2, 0.3]}\n    - {position: [0.8, 0.3]}\n"
            "    - {position: [0.5, 0.8]}\n"
            "  trade: {kind: from_metric, tau: 0.5}\n"
            f"params: {{sigma: 9.0, alpha: {alpha}, beta: {-alpha}, delta: 2.0}}\n")
        assert cli.main(["solve", "--config", str(config),
                         "--out", str(tmp_path / f"out-{alpha}")]) == 1
        assert "normalization constant" in capsys.readouterr().err
        assert map_evaluations == []


def test_newton_steps_keep_the_anchor_at_zero_when_gamma_ratio_exceeds_one(
        monkeypatch):
    # at |γ2/γ1| > 1 (here -10.3) a Newton elimination can pivot away from
    # the anchor's row −e_0 and leave rounding in dx_0
    anchors = []
    evaluate = equilibrium.transformed_weight_map

    def recording(lam_t, *args, **kwargs):
        anchors.append(lam_t[0])
        return evaluate(lam_t, *args, **kwargs)

    monkeypatch.setattr(equilibrium, "transformed_weight_map", recording)
    rng = np.random.default_rng(0)
    p = ModelParams(sigma=9.0, alpha=0.5, beta=-0.3, delta=2.0)
    comp = composite_params(p, [1.0], explicit_trade_costs([[1.0]]))
    assert abs(comp.gamma_ratio) > 1
    for n in (2, 3, 4):
        _outcome(lambda: fixed_point_solve(_random_geography(rng, n), p))
    assert len(anchors) > 12
    assert all(anchor == 0.0 for anchor in anchors)


@pytest.mark.parametrize("positions, productivities, active", [
    (((0.3, 0.5), (0.7, 0.5), (0.5078125, 0.5078125)), [1.0, 1.0, 1.0], (0, 1, 2)),
    (((0.5078125, 0.5078125), (0.3, 0.5), (0.7, 0.5)), [0.5, 1.0, 1.0], (1, 2)),
], ids=["all-active", "anchor-empties"])
def test_knife_edge_evaluations_keep_the_anchor_at_zero(
        monkeypatch, positions, productivities, active):
    # the knife-edge solve is anchored at its first site like the restricted
    # one, also when that site's own cell empties and it drops out of the sums
    geo = make_geography(positions, productivities, n=64)
    p = ModelParams(sigma=5.0, alpha=0.25, beta=-0.5, delta=2.0)
    expected = damped_knife_edge_solve(geo, p)
    anchors = []
    evaluate = equilibrium.transformed_weight_map

    def recording(lam_t, *args, **kwargs):
        anchors.append(lam_t[0])
        return evaluate(lam_t, *args, **kwargs)

    monkeypatch.setattr(equilibrium, "transformed_weight_map", recording)
    sol = solve_knife_edge_system(geo, p)
    assert len(anchors) == sol.iterations
    assert all(anchor == 0.0 for anchor in anchors)
    assert sol.active_ids == expected.active_ids == active
    assert np.array_equal(sol.tessellation.labels, expected.tessellation.labels)
    assert np.abs(sol.weights - expected.weights).max() < 1e-10


def test_every_fixed_point_runs_through_the_one_driver(monkeypatch):
    solved = []
    iterate = equilibrium._iterate

    def recording(evaluate, x, tol, max_iter, what, **kwargs):
        solved.append(what)
        return iterate(evaluate, x, tol, max_iter, what, **kwargs)

    monkeypatch.setattr(equilibrium, "_iterate", recording)
    geo = make_geography(SYM2, productivities=[1.0, 1.05])
    fixed_point_solve(geo, PARAMS)
    assert solved == ["weights", "market"]
    solve_knife_edge_system(geo, ModelParams(sigma=5.0, alpha=0.25, beta=-0.5,
                                             delta=2.0))
    assert solved[2:] == ["knife-edge weights", "market"]
    market_equilibrium_solve([0.4, 0.6], [1.0, 1.0], geo.trade, PARAMS)
    assert solved[4:] == ["market"]


# ---------------------------------------------------------------------------
# narrow band

def _evaluate(lam, comp, geo, band=None):
    """The map at original-variable weights, and whether EmptyCellInSum was
    raised (then the active-only map gives the rest)."""
    lam_t = lam * (comp.weight_scale * comp.gamma1)
    try:
        return transformed_weight_map(lam_t, comp, geo, band=band), False
    except EmptyCellInSum:
        return transformed_weight_map(lam_t, comp, geo, active_only=True,
                                      band=band), True


def _assert_band_matches_full_pass(lam, comp, geo, band):
    """Evaluate with the band and statelessly; True when the band relabelled.

    A wrong label or tie-break in the band moves a cell's kernel term to
    another site's sum, which shifts ``log_raw`` far past 1e-13."""
    (g, agg), raised = _evaluate(lam, comp, geo, band)
    relabelled = band.cells is not None
    (g_ref, agg_ref), raised_ref = _evaluate(lam, comp, geo)
    assert raised == raised_ref
    assert np.array_equal(agg.active, agg_ref.active)
    assert np.allclose(agg.log_raw, agg_ref.log_raw, rtol=0, atol=1e-13)
    assert np.allclose(g, g_ref, rtol=0, atol=1e-12)
    return relabelled


def _tie_through_a_cell_center(lam, geo):
    """Weights shifted so that the two cheapest sites of the inside cell with
    the smallest cost gap tie exactly at its center: both costs are 0.0."""
    d = geo.distances[:, geo.grid.inside]
    cost = np.sort(d - lam[:, None], axis=0)
    cell = int(np.argmin(cost[1] - cost[0]))
    a, b = np.argsort(d[:, cell] - lam, kind="stable")[:2]
    tied = lam + (d[a, cell] - lam[a])
    tied[a], tied[b] = d[a, cell], d[b, cell]
    return tied


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8), scaled=st.booleans(), seed=st.integers(0, 2**32 - 1),
       block=st.sampled_from([37, 111, integrals.BLOCK_CELLS]))
def test_band_evaluations_match_full_passes(n, scaled, seed, block):
    # a weight walk with steps shrinking geometrically to 1e-14, every third
    # step moved so that an interface runs exactly through a cell center; the
    # band is built in blocks of one row, three rows or the whole grid
    with mock.patch.object(integrals, "BLOCK_CELLS", block):
        _band_walk(n, scaled, seed)


def _band_walk(n, scaled, seed):
    rng = np.random.default_rng(seed)
    grid = build_grid((0.0, 0.0, 1.0, 0.75), (37, 29),
                      lambda X, Y: (X - 0.5) ** 2 + (Y - 0.4) ** 2 < 0.2)
    sites = tuple(Site(i, (float(x), float(y))) for i, (x, y) in
                  enumerate(zip(rng.uniform(0.1, 0.9, n), rng.uniform(0.1, 0.65, n))))
    system = (DistanceSystem("scaled_euclidean", scales=tuple(rng.uniform(0.5, 2.0, n)))
              if scaled else EUCLID)
    geo = Geography(grid=grid, sites=sites, system=system,
                    amenity=amenity_from_function(grid, lambda x, y: 1.0 + 0.5 * x * y),
                    trade=trade_costs_from_metric(sites, EUCLID, tau=0.5))
    comp = composite_params(PARAMS, geo.productivities, geo.trade)
    band = NarrowBand(geo, comp.effective.kernel)
    lam = rng.uniform(-0.1, 0.1, n)
    steps = 0.2 * (1e-14 / 0.2) ** (np.arange(60) / 59)   # from about 7 cells
    relabelled = 0
    for k, step in enumerate(steps):
        lam = lam + step * rng.uniform(-1.0, 1.0, n)
        if k % 3 == 2:
            lam = _tie_through_a_cell_center(lam, geo)
        relabelled += _assert_band_matches_full_pass(lam, comp, geo, band)
    assert relabelled > 0


def test_band_follows_a_cell_that_empties_at_the_knife_edge():
    # site 2 sits between the others with a cell of a few raster cells; a
    # lower weight empties it while the weights stay within the band's reach
    geo = make_geography(((0.3, 0.5), (0.7, 0.5), (0.5078125, 0.5078125)), n=64)
    p = ModelParams(sigma=5.0, alpha=0.25, beta=-0.5, delta=2.0)
    comp = composite_params(p, geo.productivities, geo.trade)
    band = NarrowBand(geo, comp.effective.kernel)
    h = geo.grid.dx
    lam = np.array([0.0, 0.0, -0.2078125 + 1.5 * h])   # d_0(y_2) - w_2 margin 1.5h
    tess = assign_labels(geo.grid, geo.sites, geo.system, lam, geo.distances)
    assert 0 < tess.cell_measure[2] <= 16 * geo.grid.cell_area
    assert band.aggregates(lam).active[2]   # the full pass, the band's reference
    emptied = False
    for k in range(1, 12):
        lam_k = lam - np.array([0.0, 0.0, 0.25 * k * h])
        g, agg = transformed_weight_map(
            lam_k * (comp.weight_scale * comp.gamma1), comp, geo,
            active_only=True, band=band)
        g_ref, agg_ref = transformed_weight_map(
            lam_k * (comp.weight_scale * comp.gamma1), comp, geo, active_only=True)
        assert band.cells is not None   # every step is a band evaluation
        assert np.array_equal(agg.active, agg_ref.active)
        assert np.allclose(agg.log_raw, agg_ref.log_raw, rtol=0, atol=1e-13)
        assert np.allclose(g, g_ref, rtol=0, atol=1e-12)
        if not agg.active[2]:
            emptied = True
            assert agg.log_raw[2] == -np.inf
            break
    assert emptied


def test_band_adds_no_raster_to_the_solve_peak(monkeypatch):
    # one 8-site solve at 192² against the same evaluations done statelessly
    geo = make_geography(((0.161, 0.282), (0.343, 0.261), (0.635, 0.333),
                          (0.849, 0.318), (0.153, 0.735), (0.405, 0.66),
                          (0.639, 0.663), (0.858, 0.674)), n=192,
                         productivities=[1.07, 1.01, 0.96, 0.98, 0.91, 0.92, 1.03, 1.03])
    p = ModelParams(sigma=9.0, alpha=0.05, beta=-0.3, delta=2.0)
    expected = fixed_point_solve(geo, p)   # builds the stack and caches first

    def peak():
        tracemalloc.start()
        try:
            sol = fixed_point_solve(geo, p)
            return tracemalloc.get_traced_memory()[1], sol
        finally:
            tracemalloc.stop()

    with_band, sol = peak()
    full_pass = equilibrium.transformed_weight_map
    monkeypatch.setattr(equilibrium, "transformed_weight_map",
                        lambda *args, band=None, **kwargs: full_pass(*args, **kwargs))
    stateless, stateless_sol = peak()
    assert sol.iterations == stateless_sol.iterations == expected.iterations
    assert np.array_equal(sol.tessellation.labels, stateless_sol.tessellation.labels)
    assert np.abs(sol.weights - stateless_sol.weights).max() < 1e-12
    # a raster at 192² is at least 36 KB; small Python objects differ by bytes
    assert with_band <= stateless + 4096

    full_passes = []
    assign = integrals.assign_labels
    monkeypatch.setattr(equilibrium, "transformed_weight_map", full_pass)
    monkeypatch.setattr(integrals, "assign_labels",
                        lambda *args: full_passes.append(1) or assign(*args))
    assert fixed_point_solve(geo, p).iterations == expected.iterations
    assert 0 < len(full_passes) < expected.iterations


@pytest.mark.parametrize("knife_edge", [False, True], ids=["anchored", "knife-edge"])
def test_a_solve_labels_its_cells_once_at_the_last_evaluation(monkeypatch,
                                                              knife_edge):
    # the band sums aggregates only, so a solve whose last evaluation was a
    # band evaluation labels with assign_labels at that evaluation's weights
    geo = make_geography(SPREAD3, productivities=[1.0, 1.1, 0.95], n=96)
    last = []
    evaluate = equilibrium.transformed_weight_map

    def recording(lam_t, comp, geography, *args, band=None, **kwargs):
        out = evaluate(lam_t, comp, geography, *args, band=band, **kwargs)
        last[:] = [np.array(lam_t), comp, geography, band.cells is not None]
        return out

    monkeypatch.setattr(equilibrium, "transformed_weight_map", recording)
    if knife_edge:
        sol = solve_knife_edge_system(geo, ModelParams(sigma=5.0, alpha=0.25,
                                                       beta=-0.5, delta=2.0))
    else:
        sol = fixed_point_solve(geo, PARAMS)
    lam_t, comp, sub, banded = last
    assert banded
    tess = assign_labels(sub.grid, sub.sites, sub.system,
                         lam_t / (comp.weight_scale * comp.gamma1), sub.distances)
    for raster in ("labels", "own_distance", "cell_measure"):
        assert np.array_equal(getattr(sol.tessellation, raster),
                              getattr(tess, raster))
    assert not sol.tessellation.labels.flags.writeable
    assert not sol.tessellation.own_distance.flags.writeable


# ---------------------------------------------------------------------------
# market block

def test_market_symmetric_pair():
    p = ModelParams(sigma=5.0, alpha=0.1, beta=-0.3, delta=1.0)
    trade = trade_costs_from_metric(
        (Site(0, (0.3, 0.5)), Site(1, (0.7, 0.5))), EUCLID, tau=0.5)
    m = market_equilibrium_solve([0.5, 0.5], [1.0, 1.0], trade, p)
    assert m.wages[0] == pytest.approx(m.wages[1], rel=1e-12)
    assert m.prices[0] == pytest.approx(m.prices[1], rel=1e-12)
    assert m.wages[0] * 0.5 + m.wages[1] * 0.5 == pytest.approx(1.0, rel=1e-12)
    assert m.residual < 1e-10


def test_market_blocks_hold_pointwise():
    p = ModelParams(sigma=7.0, alpha=0.15, beta=-0.3, delta=1.0)
    sites = (Site(0, (0.2, 0.2)), Site(1, (0.8, 0.3)), Site(2, (0.5, 0.8)))
    trade = trade_costs_from_metric(sites, EUCLID, tau=0.8)
    L = [0.5, 0.3, 0.2]
    abar = [1.0, 1.2, 0.9]
    m = market_equilibrium_solve(L, abar, trade, p)
    A = [abar[i] * L[i] ** p.alpha for i in range(3)]
    T = trade.values
    for i in range(3):
        p_pow = sum(T[j][i] ** (1 - p.sigma) * A[j] ** (p.sigma - 1)
                    * m.wages[j] ** (1 - p.sigma) for j in range(3))
        assert m.prices[i] ** (1 - p.sigma) == pytest.approx(p_pow, rel=1e-9)
        income = sum(T[i][j] ** (1 - p.sigma) * m.prices[j] ** (p.sigma - 1)
                     * m.wages[j] * L[j] for j in range(3))
        assert m.wages[i] ** p.sigma * L[i] == pytest.approx(
            A[i] ** (p.sigma - 1) * income, rel=1e-9)


def _assert_gravity_holds(m, L, abar, trade, p, rel=1e-9):
    A = [abar[i] * L[i] ** p.alpha for i in range(len(L))]
    T = trade.values
    for i in range(len(L)):
        p_pow = sum(T[j][i] ** (1 - p.sigma) * A[j] ** (p.sigma - 1)
                    * m.wages[j] ** (1 - p.sigma) for j in range(len(L)))
        assert m.prices[i] ** (1 - p.sigma) == pytest.approx(p_pow, rel=rel)
        income = sum(T[i][j] ** (1 - p.sigma) * m.prices[j] ** (p.sigma - 1)
                     * m.wages[j] * L[j] for j in range(len(L)))
        assert m.wages[i] ** p.sigma * L[i] == pytest.approx(
            A[i] ** (p.sigma - 1) * income, rel=rel)


@st.composite
def random_markets(draw):
    """(labor, productivities, trade, params) on n ∈ 2..8 distinct lattice sites."""
    n = draw(st.integers(2, 8))
    sigma = draw(st.sampled_from([5.0, 9.0]))
    alpha = draw(st.sampled_from([0.05, 1.0 / (sigma - 1.0), 0.2]))
    cells = draw(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                          min_size=n, max_size=n, unique=True))
    labor = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    prods = draw(st.lists(st.floats(0.8, 1.25), min_size=n, max_size=n))
    sites = tuple(Site(i, (0.05 * a, 0.05 * b)) for i, (a, b) in enumerate(cells))
    return (labor, prods, trade_costs_from_metric(sites, EUCLID, tau=0.5),
            ModelParams(sigma=sigma, alpha=alpha, beta=-0.3, delta=1.0))


# The damped loop's error after its last step is about step / (1 - rate), and
# its rate nears 1 on slow draws, so both solvers run at tol 1e-13 here.
@settings(max_examples=40, deadline=None)
@given(market=random_markets())
def test_anderson_market_matches_damped_oracle(market):
    L, abar, trade, p = market
    log_w, log_P, damped_iterations = damped_market_solve(L, abar, trade, p,
                                                          tol=1e-13)
    m = market_equilibrium_solve(L, abar, trade, p, tol=1e-13)
    assert np.abs(np.log(m.wages) - log_w).max() < 1e-10
    assert np.abs(np.log(m.prices) - log_P).max() < 1e-10
    _assert_gravity_holds(m, L, abar, trade, p)
    assert m.iterations <= damped_iterations


def test_anderson_market_needs_a_quarter_of_the_damped_iterations():
    rng = np.random.default_rng(3)
    anderson = damped = 0
    for _ in range(40):
        n = int(rng.integers(2, 9))
        sigma = float(rng.choice([5.0, 9.0]))
        alpha = float(rng.choice([0.05, 1 / (sigma - 1), 0.2]))
        p = ModelParams(sigma=sigma, alpha=alpha, beta=-0.3, delta=1.0)
        sites = tuple(Site(i, tuple(xy)) for i, xy in
                      enumerate(rng.uniform(0.0, 1.0, (n, 2))))
        trade = trade_costs_from_metric(sites, EUCLID, tau=0.5)
        L, abar = rng.uniform(0.05, 1.0, n), rng.uniform(0.8, 1.25, n)
        anderson += market_equilibrium_solve(L, abar, trade, p).iterations
        damped += damped_market_solve(L, abar, trade, p)[2]
    assert anderson <= damped / 4


def _market_driver_arguments(market):
    """The log-wage ``evaluate`` and ``jacobian`` the market block hands to
    the driver."""
    seen = {}
    iterate = equilibrium._iterate

    def recording(evaluate, x, *args, jacobian=None, **kwargs):
        seen.update(evaluate=evaluate, jacobian=jacobian)
        return iterate(evaluate, x, *args, jacobian=jacobian, **kwargs)

    with mock.patch.object(equilibrium, "_iterate", recording):
        market_equilibrium_solve(*market)
    return seen["evaluate"], seen["jacobian"]


@settings(max_examples=40, deadline=None)
@given(market=random_markets(), shift=st.lists(st.floats(-0.5, 0.5), min_size=16,
                                                max_size=16))
def test_market_jacobian_matches_central_differences(market, shift):
    # at a point off the fixed point, against the independent map of the helpers
    evaluate, jacobian = _market_driver_arguments(market)
    G, numeraire, _ = log_wage_map(*market)
    x = numeraire(np.asarray(shift[:len(market[0])]))
    out = evaluate(x)
    assert np.abs(out[0] - G(x)).max() < 1e-13
    h = 1e-6
    fd = np.column_stack([(G(x + h * e) - G(x - h * e)) / (2 * h)
                          for e in np.eye(len(x))])
    J = jacobian(out)
    assert np.abs(J - fd).max() <= 1e-6 * np.abs(J).max()


@settings(max_examples=60, deadline=None)
@given(market=random_markets())
def test_newton_market_takes_at_most_8_iterations(market):
    assert market_equilibrium_solve(*market).iterations <= 8


def test_solve_linear_matches_the_product():
    rng = np.random.default_rng(5)
    for n in range(1, 17):
        for _ in range(10):
            # a diagonally dominant matrix with its rows shuffled: a pivot
            # search is needed to find each column's largest entry
            A = rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)
            A = A[rng.permutation(n)]
            b = rng.uniform(-1.0, 1.0, n)
            x = _solve_linear(A, b)
            assert np.abs(A @ x - b).max() < 1e-13 * n
    assert _solve_linear(np.zeros((3, 3)), np.ones(3)) is None
    assert _solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]) is None


@settings(max_examples=20, deadline=None)
@given(market=random_markets())
def test_market_with_a_singular_newton_system_takes_damped_steps(market):
    # ∂G = I makes ∂G − I zero: every step is the damped step of the oracle
    L, abar, trade, p = market
    log_w, log_P, damped_iterations = damped_market_solve(L, abar, trade, p,
                                                          tol=1e-13)
    with mock.patch.object(equilibrium, "_market_jacobian",
                           lambda S, R, q, sigma: np.eye(len(q))):
        m = market_equilibrium_solve(L, abar, trade, p, tol=1e-13)
    assert np.abs(np.log(m.wages) - log_w).max() < 1e-10
    assert np.abs(np.log(m.prices) - log_P).max() < 1e-10
    assert abs(m.iterations - damped_iterations) <= 1


def test_newton_iterate_that_raises_the_residual_yields_to_the_damped_step():
    # ∂G = 2I makes every Newton step −f, away from the fixed point: each
    # Newton iterate is evaluated and rejected, and the damped step from the
    # same point follows, so the damped oracle's steps come with one
    # rejected evaluation between each two
    p = ModelParams(sigma=7.0, alpha=0.15, beta=-0.3, delta=1.0)
    sites = (Site(0, (0.2, 0.2)), Site(1, (0.8, 0.3)), Site(2, (0.5, 0.8)))
    trade = trade_costs_from_metric(sites, EUCLID, tau=0.8)
    L, abar = [0.5, 0.3, 0.2], [1.0, 1.2, 0.9]
    log_w, log_P, damped_iterations = damped_market_solve(L, abar, trade, p)
    with mock.patch.object(equilibrium, "_market_jacobian",
                           lambda S, R, q, sigma: 2.0 * np.eye(len(q))):
        m = market_equilibrium_solve(L, abar, trade, p)
    assert np.abs(np.log(m.wages) - log_w).max() < 1e-10
    assert np.abs(np.log(m.prices) - log_P).max() < 1e-10
    assert abs(m.iterations - (2 * damped_iterations - 1)) <= 2


def test_solution_keeps_market_iterations():
    geography = make_geography(((0.2, 0.3), (0.8, 0.4), (0.5, 0.8)),
                               productivities=[1.0, 1.15, 0.9])
    solution = fixed_point_solve(geography, PARAMS)
    market = market_equilibrium_solve(solution.labor, geography.productivities,
                                      geography.trade, PARAMS)
    damped = damped_market_solve(solution.labor, geography.productivities,
                                 geography.trade, PARAMS)[2]
    assert isinstance(solution.market_iterations, int)
    assert 0 < solution.market_iterations == market.iterations < damped


@settings(max_examples=60, deadline=None)
@given(lam=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=6),
       k_shrink=st.sampled_from([0.25, 0.5, 1.0]), scaled=st.booleans())
def test_reproject_scale_matches_pair_loop(lam, k_shrink, scaled):
    positions = [(0.1 + 0.15 * i, 0.2 + 0.1 * (i % 3)) for i in range(len(lam))]
    scales = [1.0 + 0.5 * i for i in range(len(lam))] if scaled else None
    geo = make_geography(positions, n=8, scales=scales)
    comp = composite_params(PARAMS, geo.productivities, geo.trade)
    scale = comp.weight_scale * comp.gamma1
    lam_t = np.asarray(lam) * scale
    t = loop_reproject_scale(lam_t / scale, geo, k_shrink)
    assert np.array_equal(_reproject(lam_t, comp, geo, k_shrink), lam_t * t)


def test_market_rejects_zero_labor():
    p = ModelParams(sigma=5.0, alpha=0.1, beta=-0.3, delta=1.0)
    trade = trade_costs_from_metric(
        (Site(0, (0.3, 0.5)), Site(1, (0.7, 0.5))), EUCLID, tau=0.5)
    with pytest.raises(ZeroLabor):
        market_equilibrium_solve([0.5, 0.0], [1.0, 1.0], trade, p)


def test_solver_not_converged_surfaces():
    geo = make_geography(SYM2, productivities=[1.0, 1.1])
    with pytest.raises(NotConverged):
        fixed_point_solve(geo, PARAMS, options=SolverOptions(max_iter=2))
