import math

import numpy as np
import pytest

from hinterland.errors import AsymmetricMetric, InvalidInput, NonPositiveAmenity
from hinterland.fields import (
    Geography,
    GeographyReport,
    amenity_from_function,
    explicit_trade_costs,
    trade_costs_from_metric,
    validate_geography,
)
from hinterland.geometry import DistanceSystem, Site, assign_labels, build_grid
from hinterland.integrals import KernelSpec, aggregate_amenities, resident_density

from helpers import loop_triangle_check

EUCLID = DistanceSystem()


def unit_square(n=64):
    return build_grid((0, 0, 1, 1), (n, n))


def test_constant_amenity_bounds():
    field = amenity_from_function(unit_square(), lambda X, Y: np.ones_like(X))
    assert field.b_min == field.b_max == 1.0


def test_amenity_function_may_return_a_scalar():
    field = amenity_from_function(unit_square(8), lambda X, Y: 2.5)
    assert field.values.shape == (8, 8) and field.b_min == field.b_max == 2.5
    assert field.values.flags.writeable is False


def test_linear_amenity_bounds_at_cell_centers():
    g = unit_square(64)
    field = amenity_from_function(g, lambda X, Y: 1.0 + X)
    # extremes sit at the first/last column of cell centers, half a cell in
    assert field.b_min == pytest.approx(1.0 + 0.5 / 64)
    assert field.b_max == pytest.approx(2.0 - 0.5 / 64)


def test_amenity_raster_input_and_shape_check():
    g = unit_square(8)
    field = amenity_from_function(g, np.full((8, 8), 2.5))
    assert field.b_min == 2.5
    with pytest.raises(ValueError):
        amenity_from_function(g, np.ones((4, 8)))


def test_zero_amenity_rejected_with_cell_index():
    g = unit_square(8)
    values = np.ones((8, 8))
    values[3, 5] = 0.0
    with pytest.raises(NonPositiveAmenity) as exc:
        amenity_from_function(g, values)
    assert exc.value.cell_index == (3, 5)


def test_negative_amenity_outside_domain_is_ignored():
    g = build_grid((-1, -1, 1, 1), (16, 16), lambda X, Y: X * X + Y * Y <= 1)
    values = np.where(g.inside, 1.0, -7.0)
    field = amenity_from_function(g, values)
    assert field.b_min == 1.0


def test_trade_costs_scalar_example():
    sites = (Site(0, (0.0, 0.0)), Site(1, (1.0, 0.0)))
    T = trade_costs_from_metric(sites, EUCLID, 0.1)
    assert T.values[0, 1] == pytest.approx(math.exp(0.1))
    assert T.values[1, 0] == T.values[0, 1]
    assert T.values[0, 0] == 1.0 and T.values[1, 1] == 1.0
    assert T.origin == "from_metric" and T.tau == 0.1


def test_trade_costs_small_tau_limit():
    sites = (Site(0, (0.0, 0.0)), Site(1, (0.3, 0.4)))
    T = trade_costs_from_metric(sites, EUCLID, 1e-12)
    assert np.allclose(T.values, 1.0, atol=1e-9)


def test_trade_costs_reject_asymmetric_metric():
    sites = (Site(0, (0.0, 0.0)), Site(1, (1.0, 0.0)))
    scaled = DistanceSystem("scaled_euclidean", scales=(1.0, 2.0))
    with pytest.raises(AsymmetricMetric):
        trade_costs_from_metric(sites, scaled, 0.1)


@pytest.mark.parametrize("entry", [0.0, -1.5, float("nan"), float("inf")])
def test_explicit_trade_costs_reject_entries_not_finite_and_positive(entry):
    with pytest.raises(ValueError, match="finite and > 0"):
        explicit_trade_costs([[1.0, entry], [1.2, 1.0]])


def make_geography(system=EUCLID, trade=None, sites=None, n=32):
    g = build_grid((0, 0, 1, 1), (n, n))
    sites = sites or (Site(0, (0.25, 0.5)), Site(1, (0.75, 0.5)))
    amenity = amenity_from_function(g, lambda X, Y: np.ones_like(X))
    if trade is None:
        trade = trade_costs_from_metric(sites, EUCLID, 0.1)
    return Geography(grid=g, sites=sites, system=system, amenity=amenity, trade=trade)


def test_geographies_compare_by_identity():
    # records that hold arrays compare by identity: an equal copy is
    # unequal, without NumPy's ambiguous-truth error
    geo = make_geography()
    assert geo == geo
    assert (geo == make_geography()) is False
    assert len({geo, geo, make_geography()}) == 2


def test_validate_clean_geography_passes():
    report = validate_geography(make_geography())
    assert report.passed
    names = {c.name for c in report.checks}
    assert "metric_triangle_inequality" in names
    assert "trade_triangle_bound" in names


def test_validate_flags_asymmetric_trade():
    bad = explicit_trade_costs([[1.0, 2.0], [3.0, 1.0]])
    report = validate_geography(make_geography(trade=bad))
    assert not report.passed
    check = report["trade_symmetric"]
    assert not check.passed and "T[0,1]" in check.witness


def test_validate_flags_subunit_trade_and_bad_diagonal():
    bad = explicit_trade_costs([[1.0, 0.5], [0.5, 2.0]])
    report = validate_geography(make_geography(trade=bad))
    assert not report["trade_bounded_below_by_one"].passed
    assert not report["trade_unit_diagonal"].passed


def test_validate_flags_triangle_violation_in_explicit_trade():
    sites = (Site(0, (0.2, 0.5)), Site(1, (0.5, 0.5)), Site(2, (0.8, 0.5)))
    values = np.ones((3, 3)) + 0.01
    np.fill_diagonal(values, 1.0)
    values[1, 2] = values[2, 1] = 5.0  # direct route far costlier than any detour
    report = validate_geography(make_geography(trade=explicit_trade_costs(values),
                                               sites=sites))
    check = report["trade_triangle_bound"]
    assert not check.passed and ">" in check.witness


def test_validate_flags_cross_site_triangle_failure_for_wild_scales():
    sites = (Site(0, (0.25, 0.5)), Site(1, (0.75, 0.5)))
    wild = DistanceSystem("scaled_euclidean", scales=(10.0, 0.05))
    trade = explicit_trade_costs(np.ones((2, 2)))
    report = validate_geography(make_geography(system=wild, trade=trade), seed=3)
    check = report["metric_triangle_inequality"]
    assert not check.passed
    assert "d_0" in check.witness


def test_validate_flags_site_outside_domain():
    g = build_grid((-1, -1, 1, 1), (32, 32), lambda X, Y: X * X + Y * Y <= 1)
    sites = (Site(0, (0.0, 0.0)), Site(1, (0.95, 0.95)))
    amenity = amenity_from_function(g, lambda X, Y: np.ones_like(X))
    trade = trade_costs_from_metric(sites, EUCLID, 0.1)
    geo = Geography(grid=g, sites=sites, system=EUCLID, amenity=amenity, trade=trade)
    check = validate_geography(geo)["sites_inside_domain"]
    assert not check.passed and "1" in check.witness


def test_geography_shape_mismatch_rejected():
    g = unit_square(16)
    sites = (Site(0, (0.25, 0.5)), Site(1, (0.75, 0.5)))
    amenity = amenity_from_function(g, lambda X, Y: np.ones_like(X))
    with pytest.raises(ValueError):
        Geography(grid=g, sites=sites, system=EUCLID, amenity=amenity,
                  trade=explicit_trade_costs(np.ones((3, 3))))


def test_equal_grids_built_apart_make_a_geography_and_its_aggregates():
    grid, twin = unit_square(8), unit_square(8)
    assert grid == twin and grid is not twin
    sites = (Site(0, (0.25, 0.5)), Site(1, (0.75, 0.5)))
    kernel = KernelSpec(beta_eff=-0.3, distance_coeff=2.0)
    results = []
    for amenity_grid in (grid, twin):
        amenity = amenity_from_function(amenity_grid, lambda X, Y: 1.0 + X)
        geo = Geography(grid=grid, sites=sites, system=EUCLID, amenity=amenity,
                        trade=trade_costs_from_metric(sites, EUCLID, tau=0.5))
        tess = assign_labels(geo.grid, sites, EUCLID, np.zeros(2))
        agg = aggregate_amenities(tess, amenity, kernel)
        density = resident_density(tess, agg, amenity, kernel, [0.4, 0.6])
        results.append((agg.log_B.tobytes(), density.tobytes()))
    assert results[0] == results[1]


@pytest.mark.parametrize("scales", [(1.0, 2.0, 3.0), (1.0,)])
def test_geography_rejects_a_scale_count_other_than_its_site_count(scales):
    # a third scale would be ignored, and one scale would fail at site 1
    g = unit_square(32)
    sites = (Site(0, (0.25, 0.5)), Site(1, (0.75, 0.5)))
    amenity = amenity_from_function(g, lambda X, Y: np.ones_like(X))
    with pytest.raises(InvalidInput,
                       match=f"2 sites but {len(scales)} metric scales"):
        Geography(grid=g, sites=sites,
                  system=DistanceSystem("scaled_euclidean", scales=scales),
                  amenity=amenity,
                  trade=explicit_trade_costs([[1.0, 1.5], [1.5, 1.0]]))


@pytest.mark.parametrize("scales", [(1.0, 2.0, 3.0), (1.0,)])
def test_metric_trade_costs_reject_a_scale_count_other_than_its_site_count(scales):
    # three scales would fail to broadcast, and one would serve both sites
    sites = (Site(0, (0.25, 0.5)), Site(1, (0.75, 0.5)))
    with pytest.raises(InvalidInput,
                       match=f"^2 sites but {len(scales)} metric scales$"):
        trade_costs_from_metric(
            sites, DistanceSystem("scaled_euclidean", scales=scales), tau=0.5)


def test_geography_rejects_repeated_site_ids():
    # positions_of would resolve a repeated id to the last of its sites
    sites = (Site(0, (0.3, 0.5)), Site(0, (0.7, 0.5)), Site(2, (0.5, 0.8)),
             Site(2, (0.5, 0.2)))
    with pytest.raises(ValueError, match=r"repeated site ids \[0, 2\]"):
        make_geography(sites=sites)


def test_from_metric_triangle_bound_holds_for_random_layouts():
    rng = np.random.default_rng(11)
    for _ in range(10):
        pts = rng.uniform(0.05, 0.95, size=(5, 2))
        sites = tuple(Site(i, tuple(p)) for i, p in enumerate(pts))
        T = trade_costs_from_metric(sites, EUCLID, rng.uniform(0.05, 2.0)).values
        lhs = T[None, :, :]
        rhs = T[:, :, None] * T[:, None, :]
        assert np.all(lhs <= rhs * (1 + 1e-12))


def test_triangle_check_matches_the_per_pair_loop():
    """Whole reports equal the one whose triangle check is the pair loop's,
    over seeded 2-8-site geographies: Euclidean and scaled metrics, square
    and disk domains, with failures and their witnesses among them."""
    rng = np.random.default_rng(5)
    failed = 0
    for case in range(60):
        n = 2 + case % 7
        disk = case % 3 == 0
        grid = build_grid((0, 0, 1, 1), (24, 20), (lambda X, Y: (X - 0.5) ** 2
                          + (Y - 0.5) ** 2 <= 0.2) if disk else None)
        centers = np.column_stack([a[grid.inside] for a in grid.cell_centers()])
        picks = rng.choice(len(centers), size=n, replace=False)
        sites = tuple(Site(i, tuple(centers[p] + rng.uniform(-0.01, 0.01, 2)))
                      for i, p in enumerate(picks))
        system = (DistanceSystem("scaled_euclidean",
                                 scales=tuple(np.exp(rng.uniform(-1.5, 1.5, n))))
                  if case % 2 else EUCLID)
        geo = Geography(grid=grid, sites=sites, system=system,
                        amenity=amenity_from_function(grid, np.ones((20, 24))),
                        trade=explicit_trade_costs(np.ones((n, n))))
        report = validate_geography(geo, seed=case)
        expected = GeographyReport(tuple(
            loop_triangle_check(geo, seed=case)
            if c.name == "metric_triangle_inequality" else c
            for c in report.checks))
        assert report == expected
        failed += not report["metric_triangle_inequality"].passed
    assert 10 <= failed <= 50
