import math
import multiprocessing

import numpy as np
import pytest
from helpers import (
    bracket_threshold,
    loop_deviation_inequality_margins,
    loop_deviation_margins,
    loop_potential_weight,
)

from hinterland import equilibrium, fields, sustainability
from hinterland.analysis import (
    existence_margins,
    multistart_probe,
    parameter_sweep,
    regime_classify,
)
from hinterland.config import parse_config
from hinterland.equilibrium import (
    HomeConsumption,
    ModelParams,
    SolverOptions,
    TwoSector,
    fixed_point_solve,
    solve_knife_edge_system,
    solve_weight_system,
    subset_geography,
)
from hinterland.errors import (
    HinterlandError,
    InvalidInput,
    InvalidVariantParams,
    NotConverged,
    SiteNotVacant,
    SiteOutsideDomain,
)
from hinterland.fields import Geography, amenity_from_function, trade_costs_from_metric
from hinterland.geometry import DistanceSystem, Site, build_grid, sample_feasible_weights
from hinterland.io_formats import write_matrix_csv
from hinterland.sustainability import (
    BOUNDARY_TOL,
    KNIFE_EDGE,
    STRONG_SPILLOVER,
    WEAK_SPILLOVER,
    _potential_weights,
    enumerate_urban_systems,
    potential_weight,
    site_swap_experiment,
    sustainability_check,
)

EUCLID = DistanceSystem()

KNIFE = ModelParams(sigma=5.0, alpha=0.25, beta=-0.5, delta=2.0)
STRONG = ModelParams(sigma=5.0, alpha=0.3, beta=-0.5, delta=2.0)
WEAK = ModelParams(sigma=5.0, alpha=0.1, beta=-0.5, delta=2.0)


def geo_with_sites(site_specs, tau=0.5, n=64):
    grid = build_grid((0.0, 0.0, 1.0, 1.0), (n, n))
    sites = tuple(Site(i, pos, prod) for i, (pos, prod) in enumerate(site_specs))
    amen = amenity_from_function(grid, lambda x, y: np.ones_like(x))
    trade = trade_costs_from_metric(sites, EUCLID, tau=tau)
    return Geography(grid=grid, sites=sites, system=EUCLID, amenity=amen,
                     trade=trade)


THREE = (((0.15, 0.5), 1.0), ((0.85, 0.5), 1.0), ((0.5, 0.85), 1.0))


# ---------------------------------------------------------------------------
# site ids

def test_positions_of_follows_the_order_of_the_ids():
    geo = geo_with_sites(THREE, n=16)
    assert geo.positions_of([2, 0]) == [2, 0]
    assert geo.positions_of((0, 1, 2)) == [0, 1, 2]
    sub = subset_geography(geo, [2, 0])
    assert [s.id for s in sub.sites] == [2, 0]
    assert sub.positions_of([0, 2]) == [1, 0]
    assert subset_geography(geo) is geo
    assert subset_geography(geo, [0, 1, 2]) is geo


@pytest.mark.parametrize("ids, message", [
    ([0, 7], "unknown site id 7"),
    ([0, 0], r"duplicate site ids in \[0, 0\]"),
    ([], "no site ids given"),
])
def test_bad_site_ids_raise_value_error_at_every_entry(ids, message):
    geo = geo_with_sites(THREE, n=32)
    for call in (lambda: geo.positions_of(ids),
                 lambda: subset_geography(geo, ids),
                 lambda: fixed_point_solve(geo, STRONG, y_star=ids),
                 lambda: multistart_probe(geo, STRONG, y_star=ids,
                                          n_starts=2)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("y_star, y_c, y_p, message", [
    ([0, 1], 1, 7, "unknown site id 7"),
    ([0, 0], 0, 2, r"duplicate site ids in \[0, 0\]"),
    ([], 0, 2, r"0 is not in the active set \(\)"),
])
def test_swap_rejects_bad_site_ids(y_star, y_c, y_p, message):
    geo = geo_with_sites(THREE, n=32)
    with pytest.raises(ValueError, match=message):
        site_swap_experiment(geo, STRONG, y_star, y_c=y_c, y_p=y_p)


def test_unknown_ids_for_potential_weight_and_anchor():
    geo = geo_with_sites(THREE, n=32)
    sol = fixed_point_solve(geo, KNIFE, y_star=[0, 1])
    with pytest.raises(ValueError, match="unknown site id 7"):
        potential_weight(sol, geo, KNIFE, 7)


# ---------------------------------------------------------------------------
# potential weights

def test_potential_weight_sentinels_by_regime():
    geo = geo_with_sites(THREE)
    sol = fixed_point_solve(geo, STRONG, y_star=[0, 1])
    pw = potential_weight(sol, geo, STRONG, 2)
    assert pw.value == -math.inf
    assert pw.regime == STRONG_SPILLOVER
    assert not pw.is_finite

    sol = fixed_point_solve(geo, WEAK, y_star=[0, 1])
    pw = potential_weight(sol, geo, WEAK, 2)
    assert pw.value == math.inf
    assert pw.regime == WEAK_SPILLOVER


def test_potential_weight_rejects_active_site():
    geo = geo_with_sites(THREE)
    sol = fixed_point_solve(geo, KNIFE, y_star=[0, 1])
    with pytest.raises(SiteNotVacant):
        potential_weight(sol, geo, KNIFE, 0)
    with pytest.raises(ValueError):
        potential_weight(sol, geo, KNIFE, 99)


def test_potential_weight_regime_matches_classifier():
    geo = geo_with_sites(THREE)
    for params in (STRONG, WEAK, KNIFE):
        sol = fixed_point_solve(geo, params, y_star=[0, 1])
        pw = potential_weight(sol, geo, params, 2)
        regime = regime_classify(params).location_multiplicity
        expected = {"multiple": STRONG_SPILLOVER, "spread": WEAK_SPILLOVER,
                    "knife_edge": KNIFE_EDGE}[regime]
        assert pw.regime == expected
        assert pw.is_finite == (regime == "knife_edge")


def test_knife_edge_clone_reproduces_host_weight():
    # a vacant clone at an active site's exact position with equal
    # fundamentals must be offered exactly the host's equilibrium weight
    specs = (((0.3, 0.5), 1.0), ((0.7, 0.5), 1.1), ((0.3, 0.5), 1.0))
    geo = geo_with_sites(specs)
    sol = fixed_point_solve(geo, KNIFE, y_star=[0, 1])
    pw = potential_weight(sol, geo, KNIFE, 2)
    assert pw.regime == KNIFE_EDGE
    assert pw.value == pytest.approx(sol.weights[0], abs=1e-8)


def test_knife_edge_potential_weight_solves_global_system_row():
    # appending the vacant site's potential weight satisfies that site's
    # equation of the all-sites system evaluated at the restricted solution
    geo = geo_with_sites(THREE)
    sol = fixed_point_solve(geo, KNIFE, y_star=[0, 1])
    pw = potential_weight(sol, geo, KNIFE, 2)
    p = KNIFE
    st = (p.sigma - 1.0) / (2.0 * p.sigma - 1.0)
    g2 = 1.0 + p.sigma * p.alpha + (p.sigma - 1.0) * p.beta
    s = -(p.delta / p.beta) * st
    abar = geo.productivities
    total = 0.0
    for j in range(2):
        total += (geo.trade.values[2, j] ** (1.0 - p.sigma)
                  * abar[j] ** (st * p.sigma)
                  * sol.B[j] ** (-1.0 / p.beta)
                  * math.exp(s * g2 * sol.weights[j]))
    lhs = p.delta * st * p.sigma * pw.value
    rhs = (math.log(sol.welfare) / p.beta
           + st * (p.sigma - 1.0) * math.log(abar[2]) + math.log(total))
    assert abs(lhs - rhs) < 1e-6


# ---------------------------------------------------------------------------
# sustainability check

def test_strong_spillovers_lock_in_any_active_set():
    geo = geo_with_sites(THREE)
    sol = fixed_point_solve(geo, STRONG, y_star=[0, 1])
    report = sustainability_check(sol, geo, STRONG)
    assert report.verdict == "sustainable"
    assert report.vacant_ids == (2,)
    assert report.margins[2] == math.inf


def test_weak_spillovers_require_full_occupation():
    geo = geo_with_sites(THREE)
    sol = fixed_point_solve(geo, WEAK, y_star=[0, 1])
    assert sustainability_check(sol, geo, WEAK).verdict == "unsustainable"
    full = fixed_point_solve(geo, WEAK)
    report = sustainability_check(full, geo, WEAK)
    assert report.verdict == "sustainable"
    assert report.vacant_ids == ()


@pytest.mark.parametrize("params", [STRONG, WEAK, KNIFE])
def test_no_vacant_site_is_sustainable_in_every_regime(params):
    geo = geo_with_sites(THREE, n=32)
    report = sustainability_check(fixed_point_solve(geo, params), geo, params)
    assert report.verdict == "sustainable"
    assert report.margins == {} and report.host_ids == {}
    assert report.vacant_ids == ()


def test_vacant_site_on_an_outside_cell_has_no_host():
    # site 2 sits in a corner outside the disk; its label there is -1,
    # which once picked the last active site as its host
    grid = build_grid((0.0, 0.0, 1.0, 1.0), (48, 48),
                      lambda X, Y: (X - 0.5) ** 2 + (Y - 0.5) ** 2 <= 0.45 ** 2)
    sites = (Site(0, (0.3, 0.5), 1.0), Site(1, (0.7, 0.5), 1.0),
             Site(2, (0.04, 0.04), 1.0))
    geo = Geography(grid=grid, sites=sites, system=EUCLID,
                    amenity=amenity_from_function(grid, lambda x, y: np.ones_like(x)),
                    trade=trade_costs_from_metric(sites, EUCLID, tau=0.5))
    sol = fixed_point_solve(geo, KNIFE, y_star=[0, 1])
    with pytest.raises(SiteOutsideDomain, match="vacant site 2 "):
        sustainability_check(sol, geo, KNIFE)
    catalog = enumerate_urban_systems(geo, KNIFE, sizes=(2,))
    failures = dict(catalog.failures)
    assert failures[(0, 1)].startswith("SiteOutsideDomain: vacant site 2 ")
    assert (0, 1) not in dict(catalog.rejected)


def test_knife_edge_weak_vacant_site_is_dominated():
    # low-productivity vacant site close to a host: the host's commuting
    # reach is strong nearby, so the deviation loses
    specs = (((0.3, 0.5), 1.0), ((0.7, 0.5), 1.0), ((0.35, 0.5), 0.5))
    geo = geo_with_sites(specs)
    sol = fixed_point_solve(geo, KNIFE, y_star=[0, 1])
    report = sustainability_check(sol, geo, KNIFE)
    assert report.verdict == "sustainable"
    assert report.regime == KNIFE_EDGE
    assert report.margins[2] > 0
    assert report.host_ids[2] in (0, 1)


def test_knife_edge_strong_vacant_site_attracts():
    # very productive vacant site adjacent to a host: deviation wins
    specs = (((0.3, 0.5), 1.0), ((0.7, 0.5), 1.0), ((0.45, 0.5), 3.0))
    geo = geo_with_sites(specs)
    sol = fixed_point_solve(geo, KNIFE, y_star=[0, 1])
    report = sustainability_check(sol, geo, KNIFE)
    assert report.verdict == "unsustainable"
    assert report.margins[2] < 0


def test_knife_edge_margin_equals_weight_gap():
    # the deviation margin is the potential-weight shortfall against the
    # host net of commuting distance, scaled by a fixed positive constant
    specs = (((0.3, 0.5), 1.0), ((0.7, 0.5), 1.0), ((0.5, 0.2), 0.8))
    geo = geo_with_sites(specs)
    sol = fixed_point_solve(geo, KNIFE, y_star=[0, 1])
    report = sustainability_check(sol, geo, KNIFE)
    pw = potential_weight(sol, geo, KNIFE, 2)
    host = report.host_ids[2]
    host_pos = list(sol.site_ids).index(host)
    d = math.hypot(0.5 - geo.sites[host].position[0],
                   0.2 - geo.sites[host].position[1])
    p = KNIFE
    st = (p.sigma - 1.0) / (2.0 * p.sigma - 1.0)
    scale = p.delta * st * p.sigma
    expected = -scale * (pw.value - sol.weights[host_pos] + d)
    assert report.margins[2] == pytest.approx(expected, rel=1e-10)


def test_knife_edge_flip_point_bisection():
    # productivity of the vacant site where the deviation margin crosses
    # zero, bracketed by bisection, agrees with direct margin evaluation;
    # the restricted solve ignores the vacant site's fundamentals, so one
    # solution serves every probe
    base = geo_with_sites(
        (((0.3, 0.5), 1.0), ((0.7, 0.5), 1.0), ((0.45, 0.5), 1.0)), n=48)
    sol = fixed_point_solve(base, KNIFE, y_star=[0, 1])

    def margin(prod):
        specs = (((0.3, 0.5), 1.0), ((0.7, 0.5), 1.0), ((0.45, 0.5), prod))
        geo = geo_with_sites(specs, n=48)
        return sustainability_check(sol, geo, KNIFE).margins[2]

    assert margin(0.2) > 0 > margin(1.0)
    flip = bracket_threshold(margin, 0.2, 1.0, tol=1e-4)
    assert abs(margin(flip)) < 1e-3
    assert margin(flip - 0.05) > 0 > margin(flip + 0.05)


def test_clone_margin_sits_on_boundary():
    specs = (((0.3, 0.5), 1.0), ((0.7, 0.5), 1.1), ((0.3, 0.5), 1.0))
    geo = geo_with_sites(specs)
    sol = fixed_point_solve(geo, KNIFE, y_star=[0, 1])
    report = sustainability_check(sol, geo, KNIFE)
    assert abs(report.margins[2]) < 1e-10
    assert report.verdict == "boundary"


def _knife_edge_batch(tmp_path):
    """Seeded (geography, restricted solution) pairs at the knife edge, 48².

    3–6 sites with uniform or one-bump amenities and a random proper active
    set; one scaled-metric geography whose trade costs come from an explicit
    file; and a vacant clone of an active site. Failed solves are dropped.
    """
    rng = np.random.default_rng(20261018)
    cases = []
    while len(cases) < 34:
        n = int(rng.integers(3, 7))
        positions = []
        while len(positions) < n:
            p = tuple(float(v) for v in rng.uniform(0.1, 0.9, size=2))
            if all(math.dist(p, q) >= 0.2 for q in positions):
                positions.append(p)
        size = int(rng.integers(1, n))
        active = sorted(int(i) for i in rng.choice(n, size=size, replace=False))
        # vacant sites range down to weak ones, so some active sets survive
        specs = [(p, float(rng.uniform(0.9, 1.1) if i in active
                           else rng.uniform(0.2, 1.1)))
                 for i, p in enumerate(positions)]
        geo = geo_with_sites(specs, tau=float(rng.uniform(0.2, 0.8)), n=48)
        if rng.random() < 0.5:
            cx, cy, w = (float(v) for v in rng.uniform([0.2, 0.2, 0.1],
                                                       [0.8, 0.8, 0.3]))
            geo = Geography(
                grid=geo.grid, sites=geo.sites, system=geo.system, trade=geo.trade,
                amenity=amenity_from_function(geo.grid, lambda x, y: 1.0 + np.exp(
                    -((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * w * w))))
        cases.append((geo, active))

    values = np.array([[1.0, 1.4, 1.7, 1.2], [1.4, 1.0, 1.3, 1.6],
                       [1.7, 1.3, 1.0, 1.5], [1.2, 1.6, 1.5, 1.0]])
    write_matrix_csv(tmp_path / "trade.csv", values)
    scaled = parse_config("""\
geography:
  resolution: [48, 48]
  metric: scaled_euclidean
  scales: [1.0, 1.3, 0.8, 1.1]
  sites:
    - {position: [0.2, 0.25], productivity: 1.0}
    - {position: [0.75, 0.3], productivity: 1.2}
    - {position: [0.5, 0.8], productivity: 0.9}
    - {position: [0.3, 0.6], productivity: 1.05}
  trade: {kind: explicit, file: trade.csv}
""", base_dir=tmp_path).geography
    cases.append((scaled, [0, 1, 2]))
    cases.append((scaled, [1, 3]))
    clone = (((0.3, 0.5), 1.0), ((0.7, 0.5), 1.1), ((0.3, 0.5), 1.0))
    cases.append((geo_with_sites(clone, n=48), [0, 1]))

    solved = []
    for geo, active in cases:
        try:
            solved.append((geo, fixed_point_solve(geo, KNIFE, y_star=active)))
        except HinterlandError:
            continue
    return solved


def test_deviation_sums_match_the_per_site_loop_exactly(tmp_path):
    # one potential-weight vector per solution gives the margins, verdicts,
    # hosts and potential weights of the per-site loop, bit for bit
    solved = _knife_edge_batch(tmp_path)
    assert len(solved) >= 30
    clone_margin = None
    for geo, sol in solved:
        report = sustainability_check(sol, geo, KNIFE)
        margins, hosts = loop_deviation_margins(sol, geo, KNIFE)
        assert report.margins == margins
        assert report.host_ids == hosts
        worst = min(margins.values())
        expected = ("unsustainable" if worst <= -BOUNDARY_TOL else
                    "boundary" if worst < BOUNDARY_TOL else "sustainable")
        assert report.verdict == expected
        for v in report.vacant_ids:
            assert (potential_weight(sol, geo, KNIFE, v).value
                    == loop_potential_weight(sol, geo, KNIFE, v))
        if geo.sites[-1].position == geo.sites[0].position:
            clone_margin = report.margins[2]
    assert clone_margin is not None and abs(clone_margin) < 1e-10


def test_margins_are_the_deviation_inequality_and_lambda_star_the_weights(
        tmp_path):
    # a margin, the entrant's cost gap at its own site, is the deviation
    # inequality (trade-access sums, productivity ratio, host distance) to
    # rounding; at an active site the potential weight is the solved weight
    solved = _knife_edge_batch(tmp_path)
    assert len(solved) >= 30
    for geo, sol in solved:
        margins = sustainability_check(sol, geo, KNIFE).margins
        inequality = loop_deviation_inequality_margins(sol, geo, KNIFE)
        assert inequality.keys() == margins.keys()
        assert all(abs(margins[v] - inequality[v]) <= 1e-12 for v in margins)
        lam_star, _ = _potential_weights(sol, geo, KNIFE)
        active = list(sol.tessellation.active_set)
        geo_of = geo.positions_of(sol.site_ids)
        np.testing.assert_allclose(lam_star[[geo_of[i] for i in active]],
                                   sol.weights[active], rtol=0, atol=1e-10)


# home consumption at the knife edge, whose weight system's factor is
# (δ + τ)σ̃σ = 5.111, not δσ̃σ = 4.444: scaled by δσ̃σ, λ* missed the solved
# weights by 0.0139 and subset 0;1;2 read sustainable at +0.0304
HOME_KNIFE = ModelParams(sigma=5.0, alpha=0.25, beta=-0.5, delta=2.0, tau=0.3,
                         variant=HomeConsumption())
HOME_SITES = (((0.2, 0.3), 1.0), ((0.8, 0.3), 1.05), ((0.5, 0.8), 0.95),
              ((0.5, 0.4), 0.5))


def test_home_consumption_margins_read_the_weight_systems_factor():
    geo = geo_with_sites(HOME_SITES)
    sol = fixed_point_solve(geo, HOME_KNIFE, y_star=(0, 1, 2))
    lam_star, factor = _potential_weights(sol, geo, HOME_KNIFE)
    assert factor == pytest.approx((2.0 + 0.3) * 5.0 * 4.0 / 9.0, rel=1e-14)
    np.testing.assert_allclose(lam_star[:3], sol.weights, rtol=0, atol=1e-10)
    report = sustainability_check(sol, geo, HOME_KNIFE)
    assert report.verdict == "unsustainable"
    assert report.margins[3] == pytest.approx(-0.1804409950665, rel=0, abs=1e-9)


TWO_SECTOR_KNIFE = ModelParams(sigma=5.0, alpha=0.25, beta=-0.5, delta=2.0,
                               variant=TwoSector(mu=0.6, beta=-0.4))


def test_two_sector_knife_edge_checks_raise_invalid_variant_params():
    # the two-sector recovery does not solve the weight system's row, so
    # knife-edge potential weights are not defined for it
    geo = geo_with_sites(THREE)
    sol = fixed_point_solve(geo, TWO_SECTOR_KNIFE, y_star=(0, 1))
    with pytest.raises(InvalidVariantParams, match="two_sector"):
        sustainability_check(sol, geo, TWO_SECTOR_KNIFE)
    with pytest.raises(InvalidVariantParams, match="two_sector"):
        potential_weight(sol, geo, TWO_SECTOR_KNIFE, 2)
    catalog = enumerate_urban_systems(geo, TWO_SECTOR_KNIFE, sizes=(2,))
    assert catalog.entries == () and catalog.rejected == ()
    assert [subset for subset, _ in catalog.failures] == [(0, 1), (0, 2), (1, 2)]
    assert all(error.startswith("InvalidVariantParams: ")
               for _, error in catalog.failures)


@pytest.fixture
def stack_builds(monkeypatch):
    """A list that counts each ``distance_stack`` build behind Geography.distances."""
    calls = []
    build = fields.distance_stack

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(fields, "distance_stack", counting)
    return calls


def test_probe_of_a_proper_subset_builds_one_distance_stack(stack_builds):
    geo = geo_with_sites(THREE, n=48)
    report = multistart_probe(geo, STRONG, y_star=[0, 2], n_starts=16, seed=3)
    assert report.n_converged == 16
    assert len(stack_builds) == 1


def test_swap_builds_one_distance_stack_per_active_set(stack_builds):
    specs = (((0.2, 0.5), 1.0), ((0.8, 0.5), 1.0), ((0.81, 0.5), 1.0))
    geo = geo_with_sites(specs, tau=0.2, n=48)
    p = ModelParams(sigma=5.0, alpha=0.3, beta=-0.5, delta=6.0)
    report = site_swap_experiment(geo, p, [0, 1], y_c=1, y_p=2)
    assert report.base_converged and report.swapped_converged
    assert len(stack_builds) == 2


def test_probe_swap_and_enumerate_never_solve_a_market(monkeypatch):
    geo = geo_with_sites(THREE, n=48)
    sub = subset_geography(geo, [0, 2])
    starts = sample_feasible_weights(sub.sites, sub.system, 0.5, 16, 3)
    solved = [fixed_point_solve(sub, STRONG, options=SolverOptions(weights_init=w))
              for w in starts]
    square = geo_with_sites(square_candidates(), tau=0.3, n=32)
    square_p = ModelParams(sigma=5.0, alpha=0.3, beta=-0.5, delta=4.0)
    catalog = enumerate_urban_systems(square, square_p, sizes=(1, 2), seed=1)
    assert catalog.entries

    def no_market(*args, **kwargs):
        raise NotConverged("market", 1, 1.0)

    monkeypatch.setattr(equilibrium, "market_equilibrium_solve", no_market)
    report = multistart_probe(geo, STRONG, y_star=[0, 2], n_starts=16, seed=3)
    assert report.n_converged == 16 and report.failures == ()
    diffs = [(s.weights - s.weights[0]).tobytes() for s in solved]
    for c in report.clusters:
        start = diffs.index(c.representative.tobytes())   # the cluster's first
        assert c.welfare == solved[start].welfare
    assert report.clusters[0].representative.tobytes() == diffs[0]

    specs = (((0.2, 0.5), 1.0), ((0.8, 0.5), 1.0), ((0.81, 0.5), 1.0))
    p = ModelParams(sigma=5.0, alpha=0.3, beta=-0.5, delta=6.0)
    swap = site_swap_experiment(geo_with_sites(specs, tau=0.2, n=48), p, [0, 1],
                                y_c=1, y_p=2)
    assert swap.base_converged and swap.swapped_converged

    patched = enumerate_urban_systems(square, square_p, sizes=(1, 2), seed=1)
    assert patched.failures == ()
    assert _catalog_facts(patched) == _catalog_facts(catalog)


# ---------------------------------------------------------------------------
# enumeration

def square_candidates(prod=1.0):
    return (((0.25, 0.25), prod), ((0.75, 0.25), prod),
            ((0.25, 0.75), prod), ((0.75, 0.75), prod))


def test_enumerate_pairs_exhibits_multiplicity():
    geo = geo_with_sites(square_candidates(), tau=0.3)
    p = ModelParams(sigma=5.0, alpha=0.3, beta=-0.5, delta=4.0)
    catalog = enumerate_urban_systems(geo, p, sizes=(2,), seed=1)
    assert catalog.strategy == "exhaustive"
    assert len(catalog.entries) >= 2
    active_sets = {frozenset(e.active_ids) for e in catalog.entries}
    assert len(active_sets) >= 2
    for e in catalog.entries:
        assert e.verdict == "sustainable"
        assert e.residuals["weights"] < 1e-8


def test_enumerate_weak_spillovers_keeps_only_full_set():
    geo = geo_with_sites(THREE)
    catalog = enumerate_urban_systems(geo, WEAK, sizes=(2, 3), seed=0)
    assert all(len(e.active_ids) == 3 for e in catalog.entries)
    assert len(catalog.entries) == 1
    assert all(verdict == "unsustainable" for _, verdict in catalog.rejected)


def test_enumerate_singletons_under_strong_spillovers():
    geo = geo_with_sites(square_candidates(), tau=0.3)
    p = ModelParams(sigma=5.0, alpha=0.3, beta=-0.5, delta=4.0)
    catalog = enumerate_urban_systems(geo, p, sizes=(1,), seed=0)
    assert len(catalog.entries) == 4
    for e in catalog.entries:
        assert len(e.active_ids) == 1
        assert e.labor.sum() == pytest.approx(1.0, rel=1e-10)


def test_catalog_entries_keep_the_facts_of_their_solve():
    geo = geo_with_sites(square_candidates(), tau=0.3, n=32)
    p = ModelParams(sigma=5.0, alpha=0.3, beta=-0.5, delta=4.0)
    catalog = enumerate_urban_systems(geo, p, sizes=(1, 2), seed=1)
    assert catalog.entries
    for e in catalog.entries:
        sol = solve_weight_system(geo, p, y_star=e.subset)
        # distinct by construction: a restricted solve keeps its whole subset
        assert e.active_ids == e.subset == sol.active_ids
        assert np.array_equal(e.weights, sol.weights)
        assert np.array_equal(e.labor, sol.labor)
        assert e.welfare == sol.welfare and e.residuals == sol.residuals
        assert not hasattr(e, "solution")


def test_enumerate_sampling_and_determinism():
    geo = geo_with_sites(square_candidates(), tau=0.3)
    p = ModelParams(sigma=5.0, alpha=0.3, beta=-0.5, delta=4.0)
    a = enumerate_urban_systems(geo, p, sizes=(1, 2), max_subsets=5, seed=42)
    b = enumerate_urban_systems(geo, p, sizes=(1, 2), max_subsets=5, seed=42)
    assert a.strategy == "sampled"
    assert [e.subset for e in a.entries] == [e.subset for e in b.entries]
    assert len(a.entries) <= 5


def test_enumerate_dedupes_identical_active_sets():
    # symmetric square at the knife edge: all-four solve from every size-4
    # subset is unique, so duplicates collapse
    geo = geo_with_sites(square_candidates(), tau=0.3)
    p = ModelParams(sigma=5.0, alpha=0.3, beta=-0.5, delta=4.0)
    catalog = enumerate_urban_systems(geo, p, sizes=(4, 4), seed=0)
    assert len(catalog.entries) == 1


# ---------------------------------------------------------------------------
# enumeration in worker processes

# sizes 1-3 of THREE: (0,) (1,) (2,) (0, 1) (0, 2) (1, 2) (0, 1, 2); with two
# processes the parent solves the even positions and a worker the odd ones
ALL_SIZES = (1, 2, 3)
WORKER_SUBSET = (1, 2)    # position 5
PARENT_SUBSET = (0, 2)    # position 4


def _catalog_facts(catalog):
    entries = [(e.subset, e.active_ids, e.weights.tobytes(), e.welfare,
                e.labor.tobytes(), e.residuals, e.verdict, e.min_margin)
               for e in catalog.entries]
    return entries, catalog.rejected, catalog.failures


def _solver_raising_for(monkeypatch, subset, error):
    """Make the solve of ``subset`` raise; forked workers inherit the patch."""
    real = sustainability.solve_weight_system

    def solve(geography, params, y_star=None, **kwargs):
        if tuple(y_star) == subset:
            raise error
        return real(geography, params, y_star=y_star, **kwargs)

    monkeypatch.setattr(sustainability, "solve_weight_system", solve)


def test_worker_processes_give_the_serial_catalog(monkeypatch):
    # weak spillovers reject every proper subset; one worker solve fails
    geo = geo_with_sites(THREE, n=32)
    _solver_raising_for(monkeypatch, WORKER_SUBSET,
                        NotConverged("patched solve", 7, 1e-3))
    serial = enumerate_urban_systems(geo, WEAK, sizes=ALL_SIZES)
    assert len(serial.entries) == 1 and len(serial.rejected) == 5
    assert serial.failures == ((WORKER_SUBSET, "NotConverged: patched solve "
                                "did not converge in 7 iterations "
                                "(last step 1.000e-03)"),)
    for threads in (2, 3, 8):   # 8 is more than the 7 subsets
        catalog = enumerate_urban_systems(geo, WEAK, sizes=ALL_SIZES,
                                          threads=threads)
        assert _catalog_facts(catalog) == _catalog_facts(serial)
        assert multiprocessing.active_children() == []


def test_a_worker_error_reaches_the_parent(monkeypatch):
    geo = geo_with_sites(THREE, n=32)
    _solver_raising_for(monkeypatch, WORKER_SUBSET, KeyError("patched"))
    with pytest.raises(RuntimeError, match="an enumerate worker died before "
                                           "sending its outcomes"):
        enumerate_urban_systems(geo, WEAK, sizes=ALL_SIZES, threads=2)
    assert multiprocessing.active_children() == []


def test_an_error_in_the_parent_share_stops_the_workers(monkeypatch):
    geo = geo_with_sites(THREE, n=32)
    _solver_raising_for(monkeypatch, PARENT_SUBSET, KeyError("patched"))
    with pytest.raises(KeyError, match="patched"):
        enumerate_urban_systems(geo, WEAK, sizes=ALL_SIZES, threads=2)
    assert multiprocessing.active_children() == []


def test_without_fork_the_parent_solves_every_subset(monkeypatch):
    # a worker's subset raises in this process: no worker was started
    geo = geo_with_sites(THREE, n=32)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    _solver_raising_for(monkeypatch, WORKER_SUBSET, KeyError("patched"))
    with pytest.raises(KeyError, match="patched"):
        enumerate_urban_systems(geo, WEAK, sizes=ALL_SIZES, threads=2)
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# swap experiment

def test_identity_swap_is_noop():
    geo = geo_with_sites(THREE)
    report = site_swap_experiment(geo, STRONG, [0, 1], y_c=1, y_p=1)
    assert report.y_double_star == (0, 1)
    assert report.swap_distance == 0.0
    assert report.base_min_margin == report.swapped_min_margin


def test_small_offset_swap_keeps_margins_close():
    specs = (((0.2, 0.5), 1.0), ((0.8, 0.5), 1.0), ((0.81, 0.5), 1.0))
    geo = geo_with_sites(specs, tau=0.2)
    p = ModelParams(sigma=5.0, alpha=0.3, beta=-0.5, delta=6.0)
    report = site_swap_experiment(geo, p, [0, 1], y_c=1, y_p=2)
    assert report.base_converged and report.swapped_converged
    assert report.swap_distance == pytest.approx(0.01)
    assert report.productivity_ratio == pytest.approx(1.0)
    assert report.swapped_min_margin == pytest.approx(report.base_min_margin,
                                                      abs=0.25)


def test_swap_to_weak_far_site_fails_margins():
    specs = (((0.2, 0.5), 1.0), ((0.8, 0.5), 1.0), ((0.25, 0.55), 0.05))
    geo = geo_with_sites(specs, tau=0.2)
    p = ModelParams(sigma=5.0, alpha=0.3, beta=-0.5, delta=6.0)
    report = site_swap_experiment(geo, p, [0, 1], y_c=1, y_p=2)
    assert report.swapped_min_margin < 0
    assert report.swapped_min_margin < report.base_min_margin


def test_swap_margins_use_the_solver_shrunk_set():
    specs = (((0.2, 0.5), 1.0), ((0.8, 0.5), 1.0), ((0.81, 0.5), 1.0))
    geo = geo_with_sites(specs, tau=0.2, n=48)
    p = ModelParams(sigma=5.0, alpha=0.3, beta=-0.5, delta=6.0)
    report = site_swap_experiment(geo, p, [0, 1], y_c=1, y_p=2,
                                  options=SolverOptions(k_shrink=0.3))
    for subset, margin in (((0, 1), report.base_min_margin),
                           ((0, 2), report.swapped_min_margin)):
        sub = subset_geography(geo, subset)
        assert margin == existence_margins(sub, p, k_shrink=0.3).min_margin


def test_moving_a_lone_city_swaps_one_site():
    # one active site: no pairs, so both margins are inf, and both solves
    # converge wherever the city stands
    geo = geo_with_sites(THREE)
    report = site_swap_experiment(geo, STRONG, [0], y_c=0, y_p=1)
    assert report.y_double_star == (1,)
    assert report.swap_distance == pytest.approx(0.7)
    assert report.base_min_margin == report.swapped_min_margin == math.inf
    assert report.base_converged and report.swapped_converged
    assert report.base_error == report.swapped_error == ""


def test_swap_validates_membership():
    geo = geo_with_sites(THREE)
    with pytest.raises(ValueError):
        site_swap_experiment(geo, STRONG, [0, 1], y_c=2, y_p=1)
    with pytest.raises(ValueError):
        site_swap_experiment(geo, STRONG, [0, 1], y_c=0, y_p=1)


@pytest.mark.parametrize("call, message", [
    (lambda: SolverOptions(tol=-1.0), "tol must be > 0, got -1.0"),
    (lambda: SolverOptions(tol=0.0), "tol must be > 0, got 0.0"),
    (lambda: SolverOptions(tol=math.nan), "tol must be > 0, got nan"),
    (lambda: SolverOptions(max_iter=0), "max_iter must be >= 1, got 0"),
    (lambda: parameter_sweep(sigma=1.0), "sigma must be > 1, got 1.0"),
    (lambda: parameter_sweep(sigma=0.5), "sigma must be > 1, got 0.5"),
    (lambda: parameter_sweep("alpha_sigma", sigmas=[1.0, 2.0, 3.0]),
     "sigma must be > 1, got 1.0"),
    (lambda: enumerate_urban_systems(geo_with_sites(THREE, n=32), STRONG,
                                     max_subsets=0),
     "max_subsets must be >= 1, got 0"),
    (lambda: enumerate_urban_systems(geo_with_sites(THREE, n=32), STRONG,
                                     max_subsets=-1),
     "max_subsets must be >= 1, got -1"),
    (lambda: enumerate_urban_systems(geo_with_sites(THREE, n=32), STRONG,
                                     seed=-1), "seed must be >= 0, got -1"),
    (lambda: enumerate_urban_systems(geo_with_sites(THREE, n=32), STRONG,
                                     sizes=(0,)),
     r"subset sizes must be >= 1, got \[0\]"),
], ids=["tol-1", "tol0", "tol-nan", "max_iter0", "sigma1", "sigma0.5",
        "sigmas-1", "max_subsets0", "max_subsets-1", "seed-1", "sizes0"])
def test_every_value_rule_is_an_invalid_input_of_its_library_owner(call,
                                                                    message):
    # not ZeroDivisionError, NumPy's bare ValueError, a RuntimeWarning (an
    # error under the test settings) or a silent result
    with pytest.raises(InvalidInput, match=message):
        call()
