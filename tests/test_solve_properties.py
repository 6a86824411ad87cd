"""Properties of a whole solve over drawn geographies.

Each draw is a 48² unit square with 2–4 sites at least 0.2 apart,
productivities in [0.9, 1.1] and a uniform or one-bump amenity, solved at
σ = 9, β = −0.3, δ = 2 under the baseline variant or home consumption with
τ ∈ [0.1, 1.0], and solved through ``solve_equilibrium``, as ``hinterland
solve`` is: the all-sites knife-edge system for the baseline at
α = 1/(σ − 1) = 1/8, the restricted solve otherwise. A draw whose solve fails must raise one of the solver's
failure classes, and is then skipped (a pair of solves is skipped when
either fails); no draw is filtered by its geography. Every draw that
converges gives labor summing to ``total_labor``, the same arrays bit for
bit on a second solve and, at the knife edge, a potential weight equal to
the solved weight at every site. Reordering the sites, which moves the
pinned first site, permutes the solution per site id, and at α = 0 scaling
total labor by k scales welfare by k^β and leaves labels and labor shares
alone. On one fixed geography, shifting the start by a constant leaves the
weights as they were. On draws of 2–3 sites where ``uniqueness_condition``
holds, at δ ∈ [6, 16], seeded starts in Λ^k all reach the same weight
differences, within one cell width.

On a raster the weight system can have two fixed points whose cells differ
at an interface: a reordered solve may settle on the other one. Where the
two rasters give a cell to different site ids, the weight differences agree
only within one cell width, the tolerance of a solve from another start.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from hinterland.analysis import uniqueness_condition
from hinterland.equilibrium import (
    HomeConsumption,
    ModelParams,
    SolverOptions,
    composite_params,
    is_knife_edge,
    solve_equilibrium,
    solve_weight_system,
    variant_transform,
)
from hinterland.errors import LeftFeasibleSet, NotConverged
from hinterland.fields import Geography, amenity_from_function, trade_costs_from_metric
from hinterland.geometry import DistanceSystem, Site, build_grid, sample_feasible_weights
from hinterland.integrals import semielasticity_sup
from hinterland.sustainability import _potential_weights

EUCLID = DistanceSystem()
GRID = build_grid((0.0, 0.0, 1.0, 1.0), (48, 48))
CELL_WIDTH = 1.0 / 48
KNIFE_ALPHA = 0.125   # 1/(σ − 1) at σ = 9
ALPHAS = st.sampled_from([0.05, KNIFE_ALPHA, 0.2])

# the outcome classes a drawn solve may end in instead of converging: the
# iteration budget runs out, or the weights leave the feasible set twice
SOLVE_FAILURES = (NotConverged, LeftFeasibleSet)


def _geography(sites, amenity):
    return Geography(grid=GRID, sites=tuple(sites), system=EUCLID, amenity=amenity,
                     trade=trade_costs_from_metric(sites, EUCLID, tau=0.5))


@st.composite
def geographies(draw, n_sites=st.integers(2, 4)):
    """Sites on distinct cells of a 4×4 lattice of pitch 0.25, each moved by
    at most 0.025 per axis, so any two lie at least 0.2 apart."""
    cells = draw(st.permutations(range(16)))[:draw(n_sites)]
    jitter = st.floats(-0.025, 0.025)
    sites = tuple(
        Site(i, (0.125 + 0.25 * (c % 4) + draw(jitter),
                 0.125 + 0.25 * (c // 4) + draw(jitter)),
             productivity=draw(st.floats(0.9, 1.1)))
        for i, c in enumerate(cells))
    if draw(st.booleans()):
        amenity = amenity_from_function(GRID, lambda x, y: np.ones_like(x))
    else:
        cx, cy = draw(st.floats(0.2, 0.8)), draw(st.floats(0.2, 0.8))
        height, width = draw(st.floats(0.5, 2.0)), draw(st.floats(0.1, 0.3))
        amenity = amenity_from_function(GRID, lambda x, y: 1.0 + height * np.exp(
            -((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * width * width)))
    return _geography(sites, amenity)


@st.composite
def model_params(draw, alpha=ALPHAS):
    """σ = 9, β = −0.3, δ = 2, baseline or home consumption with drawn τ."""
    tau = draw(st.one_of(st.none(), st.floats(0.1, 1.0)))
    variant = {} if tau is None else {"tau": tau, "variant": HomeConsumption()}
    return ModelParams(sigma=9.0, alpha=draw(alpha), beta=-0.3, delta=2.0, **variant)


def _solves(geography, *runs):
    """One solve per (params, options) pair, or None when one of them fails."""
    try:
        return [solve_equilibrium(geography, *run) for run in runs]
    except SOLVE_FAILURES as e:
        event(f"skipped: {type(e).__name__}")
        return None


@settings(max_examples=150, deadline=None)
@given(geography=geographies(), params=model_params())
def test_a_converged_solve_conserves_labor_repeats_and_meets_its_potential_weights(
        geography, params):
    solved = _solves(geography, (params,))
    if solved is None:
        return
    [sol] = solved
    event(f"converged, {params.variant.kind}, alpha={params.alpha}")
    total = params.total_labor
    assert abs(float(sol.labor.sum()) - total) <= 1e-10 * total

    again = solve_equilibrium(geography, params)
    for name in ("weights", "labor", "wages", "prices"):
        assert getattr(again, name).tobytes() == getattr(sol, name).tobytes(), name
    assert again.welfare == sol.welfare

    if is_knife_edge(params.alpha, params.sigma):
        lam_star, _ = _potential_weights(sol, geography, params)
        np.testing.assert_allclose(lam_star, sol.weights, rtol=0, atol=1e-10)


def _by_id(sol, values):
    return dict(zip(sol.site_ids, values))


def _id_raster(sol):
    """The site id of every cell (the unit square has no outside cell)."""
    return np.asarray(sol.site_ids)[sol.tessellation.labels]


@settings(max_examples=60, deadline=None)
@given(geography=geographies(), params=model_params(), data=st.data())
def test_reordering_the_sites_permutes_the_solution_per_site_id(
        geography, params, data):
    order = data.draw(st.permutations(range(geography.n_sites)))
    if order[0] == 0:   # rotate, so the pinned first site always moves
        order = order[1:] + order[:1]
    moved = _geography([geography.sites[p] for p in order], geography.amenity)
    solved = _solves(geography, (params,))
    if solved is None:
        return
    solved_moved = _solves(moved, (params,))
    if solved_moved is None:
        return
    [sol], [other] = solved, solved_moved
    moved_cells = int((_id_raster(other) != _id_raster(sol)).sum())
    event(f"converged, {params.variant.kind}, alpha={params.alpha}, "
          f"{'same cells' if moved_cells == 0 else 'cells moved'}")
    lam, other_lam = _by_id(sol, sol.weights), _by_id(other, other.weights)
    tol = 1e-8 if moved_cells == 0 else CELL_WIDTH
    for i in sol.site_ids:
        assert abs((other_lam[i] - other_lam[0]) - (lam[i] - lam[0])) <= tol, i
    if moved_cells == 0:
        assert abs(other.welfare - sol.welfare) <= 1e-8 * sol.welfare
        labor, other_labor = _by_id(sol, sol.labor), _by_id(other, other.labor)
        for i in sol.site_ids:
            assert abs(other_labor[i] - labor[i]) <= 1e-8, i


# The anchored start subtracts its first entry, so a common shift of
# ``weights_init`` cancels before the first iteration: one fixed geography
# checks that only rounding is left, with no drawn pair of solves.
SHIFT_SITES = (Site(0, (0.3, 0.3), productivity=1.0),
               Site(1, (0.7, 0.35), productivity=1.05),
               Site(2, (0.45, 0.75), productivity=0.95))
SHIFT_START = np.array([0.01, -0.015, 0.005])


@pytest.mark.parametrize("params", [
    ModelParams(sigma=9.0, alpha=KNIFE_ALPHA, beta=-0.3, delta=2.0),
    ModelParams(sigma=9.0, alpha=0.05, beta=-0.3, delta=2.0, tau=0.4,
                variant=HomeConsumption()),
], ids=["baseline-knife-edge", "home-consumption"])
def test_a_common_shift_of_the_start_leaves_the_weights(params):
    geography = _geography(SHIFT_SITES, amenity_from_function(
        GRID, lambda x, y: np.ones_like(x)))
    sol = solve_equilibrium(geography, params,
                            SolverOptions(weights_init=SHIFT_START))
    for shift in (-0.05, 0.0173, 0.05):
        shifted = solve_equilibrium(geography, params,
                                    SolverOptions(weights_init=SHIFT_START + shift))
        np.testing.assert_allclose(shifted.weights, sol.weights, rtol=0, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(geography=geographies(),
       params=model_params(alpha=st.just(0.0)), scale=st.floats(0.5, 4.0))
def test_at_alpha_zero_total_labor_scales_welfare_by_its_power_beta(
        geography, params, scale):
    solved = _solves(geography, (params,), (replace(params, total_labor=scale),))
    if solved is None:
        return
    sol, big = solved
    event(f"converged, {params.variant.kind}")
    law = scale ** params.beta
    assert abs(big.welfare / sol.welfare - law) <= 1e-8 * law
    assert np.array_equal(big.tessellation.labels, sol.tessellation.labels)
    np.testing.assert_allclose(big.labor / scale, sol.labor, rtol=1e-10, atol=0)


@settings(max_examples=100, deadline=None)
@given(geography=geographies(n_sites=st.integers(2, 3)), alpha=ALPHAS,
       delta=st.floats(6.0, 16.0), seed=st.integers(0, 2**32 - 1))
def test_where_the_uniqueness_condition_holds_every_start_reaches_one_fixed_point(
        geography, alpha, delta, seed):
    params = ModelParams(sigma=9.0, alpha=alpha, beta=-0.3, delta=delta)
    comp = composite_params(params, geography.productivities, geography.trade)
    eta = semielasticity_sup(geography, variant_transform(params).kernel).value
    if not uniqueness_condition(comp, geography.n_sites, eta).holds:
        event("uniqueness condition fails")
        return
    differences = []
    for start in sample_feasible_weights(geography.sites, geography.system,
                                         0.5, 4, seed):
        try:
            sol = solve_weight_system(geography, params,
                                      options=SolverOptions(weights_init=start))
        except SOLVE_FAILURES as e:
            event(f"start skipped: {type(e).__name__}")
            continue
        differences.append(sol.weights - sol.weights[0])
    event(f"uniqueness condition holds, {len(differences)} of 4 starts converged")
    for other in differences[1:]:
        assert np.abs(other - differences[0]).max() <= CELL_WIDTH
