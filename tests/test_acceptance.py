"""End-to-end acceptance checklist.

One test per numbered requirement; each prints a single PASS/FAIL line
(visible with ``pytest -s``), and ``pytest -v`` shows one PASSED/FAILED
row per criterion either way.  Tolerances here are contractual — do not
loosen them to make a failure go away.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import brute_labels, disk_kernel_integral, loop_amenity_integral
from test_equilibrium import make_geography
from test_sustainability import geo_with_sites, square_candidates

from hinterland.analysis import (
    classify_point,
    existence_margins,
    multistart_probe,
    parameter_sweep,
    uniqueness_condition,
)
from hinterland.equilibrium import (
    HomeConsumption,
    KNIFE_EDGE_TOL,
    ModelParams,
    TwoSector,
    composite_params,
    fixed_point_solve,
    market_equilibrium_solve,
    solve_knife_edge_system,
    subset_geography,
    variant_transform,
)
from hinterland.fields import amenity_from_function
from hinterland.geometry import (
    DistanceSystem,
    Site,
    assign_labels,
    build_grid,
)
from hinterland.integrals import (
    KernelSpec,
    aggregate_amenities,
    semielasticity_matrix,
    semielasticity_sup,
)
from hinterland.sustainability import (
    enumerate_urban_systems,
    potential_weight,
    sustainability_check,
)

EUCLID = DistanceSystem()


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number:2d}: FAIL - {label}", flush=True)
        raise
    print(f"CRITERION {number:2d}: PASS - {label}", flush=True)


# ---------------------------------------------------------------------------
# 1. labeling oracle

def test_criterion_01_labeling_matches_exhaustive_argmin():
    with criterion(1, "labeling matches exhaustive argmin on 10 random "
                      "configurations in under 1 s"):
        rng = np.random.default_rng(42)
        grid = build_grid((0.0, 0.0, 1.0, 1.0), (64, 64))
        elapsed = 0.0
        for _ in range(10):
            n = int(rng.integers(1, 6))
            sites = tuple(
                Site(i, (float(rng.uniform(0.05, 0.95)),
                         float(rng.uniform(0.05, 0.95))))
                for i in range(n))
            weights = rng.normal(0.0, 0.05, n)
            t0 = time.perf_counter()
            tess = assign_labels(grid, sites, EUCLID, weights)
            elapsed += time.perf_counter() - t0
            assert np.array_equal(
                tess.labels, brute_labels(grid, sites, EUCLID, weights))
        assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. quadrature vs closed form

def test_criterion_02_quadrature_matches_polar_closed_form():
    with criterion(2, "disk quadrature within 0.5% of the closed form at "
                      "512^2; halving h cuts the error by 1.5x"):
        for eps, delta, beta in ((1.0, 1.0, -1.0), (0.8, 4.0, -0.5),
                                 (0.5, 8.0, -0.3)):
            exact = disk_kernel_integral(eps, delta, beta)
            errors = {}
            for n in (256, 512):
                grid = build_grid(
                    (-eps, -eps, eps, eps), (n, n),
                    inside_predicate=lambda X, Y, r=eps:
                        X ** 2 + Y ** 2 <= r ** 2)
                sites = (Site(0, (0.0, 0.0)),)
                tess = assign_labels(grid, sites, EUCLID, [0.0])
                amen = amenity_from_function(grid,
                                             lambda x, y: np.ones_like(x))
                agg = aggregate_amenities(
                    tess, amen,
                    KernelSpec(beta_eff=beta, distance_coeff=delta))
                value = math.exp(float(agg.log_raw[0]))
                errors[n] = abs(value - exact) / exact
            assert errors[512] < 0.005
            assert 1.5 * errors[512] <= errors[256]


# ---------------------------------------------------------------------------
# 3. fixed-point residual via an independent evaluation path

def _independent_residual(solution, geography, params):
    """Max log-residual of the original weight system, all inputs rebuilt
    from scratch: loop-sum amenity aggregates, population-constraint
    welfare, and plain-float arithmetic."""
    p = params
    st = (p.sigma - 1.0) / (2.0 * p.sigma - 1.0)
    g1 = 1.0 - (p.sigma - 1.0) * p.alpha - p.sigma * p.beta
    g2 = 1.0 + p.sigma * p.alpha + (p.sigma - 1.0) * p.beta
    phi1 = (1.0 - (p.sigma - 1.0) * p.alpha) / p.beta
    phi2 = -(1.0 + p.sigma * p.alpha) / p.beta
    s = -(p.delta / p.beta) * st

    lam = solution.weights
    n = len(lam)
    B = np.array([
        loop_amenity_integral(geography.grid, solution.tessellation.labels,
                              i, site, EUCLID, geography.amenity.values,
                              p.beta, p.delta) ** (-p.beta)
        for i, site in enumerate(geography.sites)])
    assert np.allclose(B, solution.B, rtol=1e-9)

    S = sum(B[i] ** (-1.0 / p.beta) * math.exp(-p.delta * lam[i] / p.beta)
            for i in range(n))
    V = S ** (-p.beta) * p.total_labor ** p.beta
    assert V == pytest.approx(solution.welfare, rel=1e-9)
    L = np.array([V ** (1.0 / p.beta) * B[i] ** (-1.0 / p.beta)
                  * math.exp(-p.delta * lam[i] / p.beta) for i in range(n)])
    assert np.allclose(L, solution.labor, rtol=1e-9)
    assert L.sum() == pytest.approx(p.total_labor, rel=1e-12)

    worst = 0.0
    for i in range(n):
        total = 0.0
        for j in range(n):
            total += (geography.trade.values[i, j] ** (1.0 - p.sigma)
                      * geography.productivities[i] ** (st * (p.sigma - 1.0))
                      * geography.productivities[j] ** (st * p.sigma)
                      * B[i] ** (st * phi1) * B[j] ** (st * phi2)
                      * math.exp(s * g2 * lam[j]))
        rhs = ((p.sigma - 1.0) * p.alpha / p.beta) * math.log(V) \
            + math.log(total)
        worst = max(worst, abs(s * g1 * lam[i] - rhs))
    return worst


def test_criterion_03_solves_satisfy_the_log_system():
    with criterion(3, "converged solves satisfy the log weight system to "
                      "1e-8 under independent recomputation; symmetric "
                      "pair splits labor exactly"):
        params = ModelParams(sigma=9.0, alpha=0.2, beta=-0.3, delta=2.0)
        for positions, productivities in (
                (((0.3, 0.5), (0.7, 0.5)), [1.0, 1.1]),
                (((0.2, 0.3), (0.8, 0.4), (0.5, 0.8)), [1.0, 1.15, 0.9])):
            geography = make_geography(positions,
                                       productivities=productivities)
            solution = fixed_point_solve(geography, params)
            assert solution.converged
            assert _independent_residual(solution, geography, params) < 1e-8

        symmetric = make_geography(((0.3, 0.5), (0.7, 0.5)))
        labor = fixed_point_solve(symmetric, params).labor
        assert abs(labor[0] - 0.5) / 0.5 < 1e-8
        assert abs(labor[1] - 0.5) / 0.5 < 1e-8


# ---------------------------------------------------------------------------
# 4. real-wage / weight identity across the market block

def test_criterion_04_real_wage_weight_identity():
    with criterion(4, "(1/delta) log(w/P) - weight is constant across "
                      "active sites (spread < 1e-6)"):
        params = ModelParams(sigma=9.0, alpha=0.2, beta=-0.3, delta=2.0)
        geography = make_geography(((0.2, 0.3), (0.8, 0.4), (0.5, 0.8)),
                                   productivities=[1.0, 1.15, 0.9])
        solution = fixed_point_solve(geography, params)
        assert solution.converged
        market = market_equilibrium_solve(solution.labor,
                                          geography.productivities,
                                          geography.trade, params)
        identity = np.log(market.wages / market.prices) / params.delta \
            - solution.weights
        assert identity.max() - identity.min() < 1e-6


# ---------------------------------------------------------------------------
# 5. shape derivative vs central differences

def _log_B_at(grid, sites, amenity, kernel, weights, i):
    tess = assign_labels(grid, sites, EUCLID, weights)
    return float(aggregate_amenities(tess, amenity, kernel).log_B[i])


def test_criterion_05_boundary_integral_matches_finite_differences():
    with criterion(5, "semielasticity matches central differences within "
                      "5% at 256^2; non-adjacent pairs are exactly 0; the "
                      "bound falls when commuting decay doubles"):
        grid = build_grid((0.0, 0.0, 1.0, 1.0), (256, 256))
        amenity = amenity_from_function(grid,
                                        lambda x, y: 1.0 + 0.3 * x + 0.1 * y)
        kernel = KernelSpec(beta_eff=-0.4, distance_coeff=1.3)
        configs = (
            ((Site(0, (0.12, 0.2)), Site(1, (0.93, 0.7))), (0.0, 0.0)),
            ((Site(0, (0.12, 0.2)), Site(1, (0.93, 0.7))), (0.1, -0.05)),
            ((Site(0, (0.25, 0.5)), Site(1, (0.75, 0.5))), (0.0, 0.05)),
        )
        for sites, weights in configs:
            weights = np.asarray(weights, dtype=float)
            tess = assign_labels(grid, sites, EUCLID, weights)
            eta = semielasticity_matrix(tess, amenity, kernel)[0][0, 1]
            h = 5.0 * grid.dx
            plus, minus = weights.copy(), weights.copy()
            plus[1] += h
            minus[1] -= h
            fd = (_log_B_at(grid, sites, amenity, kernel, plus, 0)
                  - _log_B_at(grid, sites, amenity, kernel, minus, 0)) \
                / (2.0 * h)
            assert fd < 0
            assert abs(eta - abs(fd)) / eta < 0.05

        collinear = (Site(0, (0.1, 0.5)), Site(1, (0.5, 0.5)),
                     Site(2, (0.9, 0.5)))
        tess = assign_labels(grid, collinear, EUCLID, [0.0, 0.0, 0.0])
        assert semielasticity_matrix(tess, amenity, kernel)[0][0, 2] == 0.0

        geography = make_geography(((0.3, 0.5), (0.7, 0.5)), n=96)
        slow = semielasticity_sup(
            geography, KernelSpec(beta_eff=-0.4, distance_coeff=1.3),
            n_samples=4).value
        fast = semielasticity_sup(
            geography, KernelSpec(beta_eff=-0.4, distance_coeff=2.6),
            n_samples=4).value
        assert fast < slow


# ---------------------------------------------------------------------------
# 6. regime classification and sweep boundary

def test_criterion_06_regime_point_and_exact_sweep_boundary():
    with criterion(6, "reference parameter point classifies as multiple/"
                      "reconciliation; sweep boundary is exact"):
        report = classify_point(0.2, -0.3, 9.0)
        assert report.alpha_cutoff == 0.125
        assert report.alpha > report.alpha_cutoff
        assert report.location_multiplicity == "multiple"
        assert report.gamma_ratio == pytest.approx(0.4 / 2.1, rel=1e-12)
        assert abs(report.gamma_ratio) < 1.0
        assert report.labor_uniqueness is True
        assert report.reconciliation is True

        sweep = parameter_sweep("alpha_sigma",
                                alphas=np.linspace(0.0, 0.6, 13),
                                sigmas=np.linspace(2.0, 12.0, 11),
                                beta=-0.3)
        for alpha, sigma in sweep.boundary:
            assert alpha == 1.0 / (sigma - 1.0)   # zero tolerance
        for iy, sigma in enumerate(sweep.y_values):
            for ix, alpha in enumerate(sweep.x_values):
                cutoff = 1.0 / (sigma - 1.0)
                expected = ("knife_edge"
                            if abs(alpha - cutoff) <= KNIFE_EDGE_TOL
                            else "multiple" if alpha > cutoff else "spread")
                got = sweep.reports[iy * len(sweep.x_values) + ix]
                assert got.location_multiplicity == expected
        knife_cells = [r for r in sweep.reports
                       if r.location_multiplicity == "knife_edge"]
        assert knife_cells, "grid should hit the boundary at least once"


# ---------------------------------------------------------------------------
# 7. sustainability trichotomy and the vacant-clone identity

def test_criterion_07_sustainability_trichotomy_and_clone():
    with criterion(7, "vacant sites lock in above the cutoff, break the "
                      "system below it, and a knife-edge clone reproduces "
                      "its host's weight to 1e-8"):
        geography = geo_with_sites((((0.15, 0.5), 1.0), ((0.85, 0.5), 1.0),
                                    ((0.5, 0.85), 1.0)))
        above = ModelParams(sigma=5.0, alpha=0.3, beta=-0.5, delta=2.0)
        below = ModelParams(sigma=5.0, alpha=0.1, beta=-0.5, delta=2.0)
        sol = fixed_point_solve(geography, above, y_star=[0, 1])
        assert sustainability_check(sol, geography, above).verdict \
            == "sustainable"
        sol = fixed_point_solve(geography, below, y_star=[0, 1])
        assert sustainability_check(sol, geography, below).verdict \
            == "unsustainable"

        knife = ModelParams(sigma=5.0, alpha=0.25, beta=-0.5, delta=2.0)
        clone = geo_with_sites((((0.3, 0.5), 1.0), ((0.7, 0.5), 1.1),
                                ((0.3, 0.5), 1.0)))
        sol = fixed_point_solve(clone, knife, y_star=[0, 1])
        offered = potential_weight(sol, clone, knife, 2)
        assert offered.value == pytest.approx(sol.weights[0], abs=1e-8)


# ---------------------------------------------------------------------------
# 8. multiplicity exhibit

def test_criterion_08_enumeration_finds_multiple_equilibria():
    with criterion(8, "4 symmetric candidates above the cutoff yield >= 2 "
                      "distinct sustainable 2-site systems at 128^2 in "
                      "under 60 s"):
        t0 = time.perf_counter()
        geography = geo_with_sites(square_candidates(), tau=0.3, n=128)
        params = ModelParams(sigma=5.0, alpha=0.3, beta=-0.5, delta=4.0)
        margins = existence_margins(subset_geography(geography, (0, 1)),
                                    params)
        assert margins.passes and margins.min_margin > 0
        catalog = enumerate_urban_systems(geography, params, sizes=(2,),
                                          seed=0)
        sustainable = {frozenset(e.active_ids) for e in catalog.entries
                       if e.verdict == "sustainable"}
        assert len(sustainable) >= 2
        assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 9. uniqueness probe

def test_criterion_09_multistart_collapse_under_uniqueness_condition():
    with criterion(9, "when the uniqueness condition holds with measured "
                      "eta, 16 multistarts land in one cluster"):
        positions = ((0.15, 0.3), (0.85, 0.3), (0.5, 0.85))
        geography = make_geography(positions,
                                   productivities=[1.0, 1.1, 0.95])
        params = None
        for delta in (10.0, 12.0, 16.0, 20.0):
            candidate = ModelParams(sigma=9.0, alpha=0.2, beta=-0.3,
                                    delta=delta)
            comp = composite_params(candidate, geography.productivities,
                                    geography.trade)
            assert abs(comp.gamma_ratio) < 1.0
            eta = semielasticity_sup(
                geography, variant_transform(candidate).kernel,
                n_samples=8).value
            if uniqueness_condition(comp, 3, eta).holds:
                params = candidate
                break
        assert params is not None, "no tested delta satisfied the condition"
        probe = multistart_probe(geography, params, n_starts=16, seed=3)
        assert probe.n_converged == 16
        assert probe.unique_up_to_normalization
        assert len(probe.clusters) == 1
        assert probe.clusters[0].count == 16


# ---------------------------------------------------------------------------
# 10. variant collapse

def test_criterion_10_variant_collapse_and_two_sector_composites():
    with criterion(10, "home-consumption at zero shipping cost reproduces "
                       "the baseline bit for bit; two-sector composites "
                       "match hand arithmetic on 5 tuples"):
        geography = make_geography(((0.3, 0.5), (0.7, 0.5)),
                                   productivities=[1.0, 1.08])
        base = fixed_point_solve(
            geography, ModelParams(sigma=9.0, alpha=0.2, beta=-0.3,
                                   delta=2.0))
        home = fixed_point_solve(
            geography, ModelParams(sigma=9.0, alpha=0.2, beta=-0.3,
                                   delta=2.0, tau=0.0,
                                   variant=HomeConsumption()))
        assert np.array_equal(base.weights - base.weights[0],
                              home.weights - home.weights[0])
        assert np.array_equal(base.labor, home.labor)

        cases = [
            (5.0, 0.1, 0.5, -0.2, 1.0, 1.6, 0.7),
            (9.0, 0.2, 0.5, -0.3, 2.0, 1.0 - 1.6 + 2.7, 1.0 + 1.8 - 2.4),
            (5.0, 0.25, 0.8, -0.4, 1.0, 1.0 - 1.0 + 0.5, 1.0 + 1.25 - 0.4),
            (3.0, 0.0, 0.25, -0.1, 1.5, 1.0 + 0.9, 1.0 - 0.6),
            (7.0, 0.15, 0.6, -0.5, 0.7, 1.0 - 0.9 + 7.0 / 3.0,
             1.0 + 1.05 - 2.0),
        ]
        for sigma, alpha, mu, beta_sector, delta, g1, g2 in cases:
            params = ModelParams(sigma=sigma, alpha=alpha, beta=-0.3,
                                 delta=delta,
                                 variant=TwoSector(mu=mu, beta=beta_sector))
            comp = composite_params(params, geography.productivities,
                                    geography.trade)
            assert comp.gamma1 == pytest.approx(g1, rel=1e-12)
            assert comp.gamma2 == pytest.approx(g2, rel=1e-12)
            assert comp.weight_scale == pytest.approx(
                -(delta * mu / beta_sector) * (sigma - 1.0)
                / (2.0 * sigma - 1.0), rel=1e-13)


# ---------------------------------------------------------------------------
# 11. scale law

def test_criterion_11_welfare_scale_law():
    with criterion(11, "doubling total labor scales welfare by 2^beta at "
                       "alpha = 0 and leaves labels and shares unchanged"):
        beta = -0.3
        geography = make_geography(((0.3, 0.5), (0.7, 0.5)),
                                   productivities=[1.0, 1.1])
        small = fixed_point_solve(
            geography, ModelParams(sigma=9.0, alpha=0.0, beta=beta,
                                   delta=2.0, total_labor=1.0))
        large = fixed_point_solve(
            geography, ModelParams(sigma=9.0, alpha=0.0, beta=beta,
                                   delta=2.0, total_labor=2.0))
        ratio = large.welfare / small.welfare
        assert abs(ratio - 2.0 ** beta) / 2.0 ** beta < 1e-8
        assert np.array_equal(small.tessellation.labels,
                              large.tessellation.labels)
        assert np.allclose(small.labor / 1.0, large.labor / 2.0,
                           rtol=1e-10, atol=0)
