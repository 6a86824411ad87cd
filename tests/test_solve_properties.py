"""Properties of a whole solve over drawn geographies.

Each draw is a 48² unit square with 2–4 sites at least 0.2 apart,
productivities in [0.9, 1.1] and a uniform or one-bump amenity, solved at
σ = 9, β = −0.3, δ = 2 and α ∈ {0.05, 1/8, 0.2}, routed as ``hinterland
solve`` routes it: the all-sites knife-edge system at α = 1/(σ − 1) = 1/8,
the restricted solve otherwise. A draw whose solve fails must raise one of
the solver's failure classes, and is then skipped; no draw is filtered by its
geography. Every draw that converges gives labor summing to ``total_labor``,
the same arrays bit for bit on a second solve and, at the knife edge, a
potential weight equal to the solved weight at every site.
"""

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from hinterland.equilibrium import (
    ModelParams,
    fixed_point_solve,
    is_knife_edge,
    solve_knife_edge_system,
)
from hinterland.errors import LeftFeasibleSet, NotConverged
from hinterland.fields import Geography, amenity_from_function, trade_costs_from_metric
from hinterland.geometry import DistanceSystem, Site, build_grid
from hinterland.sustainability import _potential_weights

EUCLID = DistanceSystem()
GRID = build_grid((0.0, 0.0, 1.0, 1.0), (48, 48))
KNIFE_ALPHA = 0.125   # 1/(σ − 1) at σ = 9

# the outcome classes a drawn solve may end in instead of converging: the
# iteration budget runs out, or the weights leave the feasible set twice
SOLVE_FAILURES = (NotConverged, LeftFeasibleSet)


@st.composite
def geographies(draw):
    """Sites on distinct cells of a 4×4 lattice of pitch 0.25, each moved by
    at most 0.025 per axis, so any two lie at least 0.2 apart."""
    cells = draw(st.permutations(range(16)))[:draw(st.integers(2, 4))]
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
    return Geography(grid=GRID, sites=sites, system=EUCLID, amenity=amenity,
                     trade=trade_costs_from_metric(sites, EUCLID, tau=0.5))


def _solve(geography, params):
    knife = is_knife_edge(params.alpha, params.sigma)
    return (solve_knife_edge_system if knife else fixed_point_solve)(
        geography, params)


@settings(max_examples=150, deadline=None)
@given(geography=geographies(), alpha=st.sampled_from([0.05, KNIFE_ALPHA, 0.2]))
def test_a_converged_solve_conserves_labor_repeats_and_meets_its_potential_weights(
        geography, alpha):
    params = ModelParams(sigma=9.0, alpha=alpha, beta=-0.3, delta=2.0)
    try:
        sol = _solve(geography, params)
    except SOLVE_FAILURES as e:
        event(f"skipped: {type(e).__name__}")
        return
    event(f"converged, alpha={alpha}")
    total = params.total_labor
    assert abs(float(sol.labor.sum()) - total) <= 1e-10 * total

    again = _solve(geography, params)
    for name in ("weights", "labor", "wages", "prices"):
        assert getattr(again, name).tobytes() == getattr(sol, name).tobytes(), name
    assert again.welfare == sol.welfare

    if is_knife_edge(alpha, params.sigma):
        lam_star, _ = _potential_weights(sol, geography, params)
        np.testing.assert_allclose(lam_star, sol.weights, rtol=0, atol=1e-10)
