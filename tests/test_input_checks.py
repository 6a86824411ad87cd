"""Each library input check raises its own InvalidInput subclass and message."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from hinterland.analysis import multistart_probe, uniqueness_condition
from hinterland.equilibrium import (
    ModelParams,
    SolverOptions,
    TwoSector,
    composite_params,
    market_equilibrium_solve,
    variant_transform,
)
from hinterland.errors import InvalidInput, InvalidVariantParams, NonFiniteWeight
from hinterland.fields import (
    Geography,
    TradeCostMatrix,
    amenity_from_function,
    explicit_trade_costs,
    trade_costs_from_metric,
    validate_geography,
)
from hinterland.geometry import (
    DistanceSystem,
    Site,
    assign_labels,
    build_grid,
    lambda_feasibility,
    sample_feasible_weights,
)
from hinterland.integrals import (
    KernelSpec,
    aggregate_amenities,
    resident_density,
    semielasticity_sup,
)
from hinterland.io_formats import (
    read_field_raster,
    read_label_raster,
    write_field_raster,
    write_label_raster,
)
from hinterland.sustainability import enumerate_urban_systems

BBOX = (0.0, 0.0, 1.0, 1.0)
PARAMS = ModelParams(sigma=9.0, alpha=0.2, beta=-0.3, delta=2.0)
KERNEL = KernelSpec(beta_eff=-0.3, distance_coeff=2.0)
SITES = (Site(0, (0.3, 0.5)), Site(1, (0.7, 0.5)))
SYSTEM = DistanceSystem()


def _uniform(grid):
    return amenity_from_function(grid, lambda X, Y: np.ones_like(X))


def _geography():
    grid = build_grid(BBOX, (16, 16))
    return Geography(grid=grid, sites=SITES, system=SYSTEM,
                     amenity=_uniform(grid),
                     trade=trade_costs_from_metric(SITES, SYSTEM, 0.5))


def _composite():
    geography = _geography()
    return composite_params(PARAMS, geography.productivities, geography.trade)


def _tessellation():
    return assign_labels(build_grid(BBOX, (16, 16)), SITES, SYSTEM,
                         np.zeros(2))


def _other_grid_geography(amenity_grid):
    grid = build_grid(BBOX, (16, 16))
    return Geography(grid=grid, sites=SITES, system=SYSTEM,
                     amenity=_uniform(amenity_grid),
                     trade=trade_costs_from_metric(SITES, SYSTEM, 0.5))


def _other_mask_grid():
    """A 16×16 grid of BBOX, like ``_geography``'s, without its right column."""
    return build_grid(BBOX, (16, 16), lambda X, Y: X < 0.95)


def _market(labor=(0.4, 0.6), tol=1e-12):
    market_equilibrium_solve(labor, [1.0, 1.0], _geography().trade, PARAMS,
                             tol=tol)


def _resident_density_with_three_masses():
    tess = _tessellation()
    amenity = _uniform(tess.grid)
    aggregates = aggregate_amenities(tess, amenity, KERNEL)
    resident_density(tess, aggregates, amenity, KERNEL, [0.3, 0.3, 0.4])


def _read_label_raster_with_maxval(tmp_path, maxval):
    path = tmp_path / "labels.pgm"
    path.write_bytes(b"P5\n# bbox 0 0 1 1\n2 2\n%d\n" % maxval + bytes(4))
    read_label_raster(path)


def _read_short_field_raster(tmp_path):
    path = tmp_path / "field.fld"
    write_field_raster(path, np.ones((2, 2)), BBOX)
    path.write_bytes(path.read_bytes()[:-8])
    read_field_raster(path)


CHECKS = {
    "analysis.uniqueness_condition.n_star": (
        lambda tmp: uniqueness_condition(_composite(), 0, 0.1),
        InvalidInput, r"n_star must be >= 1, got 0"),
    "analysis.uniqueness_condition.eta_hat": (
        lambda tmp: uniqueness_condition(_composite(), 2, -0.1),
        InvalidInput, r"eta_hat must be >= 0, got -0.1"),
    "analysis.multistart_probe.n_starts": (
        lambda tmp: multistart_probe(_geography(), PARAMS, n_starts=0),
        InvalidInput, r"n_starts must be >= 1"),
    "analysis.multistart_probe.n_starts_integer": (
        lambda tmp: multistart_probe(_geography(), PARAMS, n_starts=2.5),
        InvalidInput, r"^n_starts must be an integer, got 2\.5$"),
    "analysis.multistart_probe.seed": (
        lambda tmp: multistart_probe(_geography(), PARAMS, seed=-1),
        InvalidInput, r"^seed must be >= 0, got -1$"),
    "analysis.multistart_probe.seed_integer": (
        lambda tmp: multistart_probe(_geography(), PARAMS, seed=1.5),
        InvalidInput, r"^seed must be an integer, got 1\.5$"),
    "equilibrium.ModelParams.alpha": (
        lambda tmp: ModelParams(sigma=9.0, alpha=-1.0, beta=-0.3, delta=2.0),
        InvalidInput, r"alpha must be > -1, got -1.0"),
    "equilibrium.ModelParams.tau": (
        lambda tmp: ModelParams(sigma=9.0, alpha=0.2, beta=-0.3, delta=2.0,
                                tau=-0.5),
        InvalidInput, r"tau must be >= 0, got -0.5"),
    "equilibrium.ModelParams.total_labor": (
        lambda tmp: ModelParams(sigma=9.0, alpha=0.2, beta=-0.3, delta=2.0,
                                total_labor=0.0),
        InvalidInput, r"total_labor must be > 0, got 0.0"),
    "equilibrium.ModelParams.finite": (
        lambda tmp: ModelParams(sigma=9.0, alpha=0.2, beta=-0.3, delta=2.0,
                                total_labor=math.inf),
        InvalidInput, r"total_labor must be finite, got inf"),
    "equilibrium.ModelParams.agricultural_beta": (
        lambda tmp: ModelParams(sigma=9.0, alpha=0.2, beta=-0.3, delta=2.0,
                                variant=TwoSector(mu=0.5, beta=-math.inf)),
        InvalidVariantParams, r"agricultural beta must be finite and < 0, got -inf"),
    "equilibrium.SolverOptions.tol_finite": (
        lambda tmp: SolverOptions(tol=math.inf),
        InvalidInput, r"tol must be finite, got inf"),
    "equilibrium.SolverOptions.max_iter_integer": (
        lambda tmp: SolverOptions(max_iter=2.5),
        InvalidInput, r"^max_iter must be an integer, got 2\.5$"),
    "equilibrium.SolverOptions.max_iter_finite": (
        lambda tmp: SolverOptions(max_iter=math.inf),
        InvalidInput, r"^max_iter must be an integer, got inf$"),
    "equilibrium.market_equilibrium_solve.tol_zero": (
        lambda tmp: _market(tol=0.0),
        InvalidInput, r"^tol must be > 0, got 0\.0$"),
    "equilibrium.market_equilibrium_solve.tol_nan": (
        lambda tmp: _market(tol=math.nan),
        InvalidInput, r"^tol must be > 0, got nan$"),
    "equilibrium.market_equilibrium_solve.labor_nan": (
        lambda tmp: _market(labor=(0.4, math.nan)),
        InvalidInput, r"^labor masses must be finite, got \[0\.4 +nan\]$"),
    "equilibrium.market_equilibrium_solve.labor_inf": (
        lambda tmp: _market(labor=(math.inf, 0.6)),
        InvalidInput, r"^labor masses must be finite, got \[inf +0\.6\]$"),
    "equilibrium.variant_transform.kind": (
        lambda tmp: variant_transform(ModelParams(
            sigma=9.0, alpha=0.2, beta=-0.3, delta=2.0,
            variant=SimpleNamespace(kind="three_sector"))),
        InvalidVariantParams,
        r"unknown variant namespace\(kind='three_sector'\)"),
    "fields.amenity_from_function.shape": (
        lambda tmp: amenity_from_function(build_grid(BBOX, (8, 8)),
                                          lambda X, Y: np.ones(3)),
        InvalidInput,
        r"^amenity function returned shape \(3,\), expected a scalar or \(8, 8\)$"),
    "fields.explicit_trade_costs.numbers": (
        lambda tmp: explicit_trade_costs([["a"]]),
        InvalidInput, r"^trade matrix entries must be numbers: "
                      r"could not convert string to float: 'a'$"),
    "fields.TradeCostMatrix.square": (
        lambda tmp: TradeCostMatrix(values=np.ones((2, 3)), origin="explicit"),
        InvalidInput, r"trade cost matrix must be square, got \(2, 3\)"),
    "fields.TradeCostMatrix.origin": (
        lambda tmp: TradeCostMatrix(values=np.ones((2, 2)), origin="guess"),
        InvalidInput, r"unknown trade cost origin 'guess'"),
    "fields.Geography.amenity_grid": (
        lambda tmp: _other_grid_geography(build_grid(BBOX, (8, 8))),
        InvalidInput, r"amenity field was sampled on a different grid"),
    "fields.Geography.amenity_mask": (
        lambda tmp: _other_grid_geography(_other_mask_grid()),
        InvalidInput, r"amenity field was sampled on a different grid"),
    "fields.trade_costs_from_metric.tau_finite": (
        lambda tmp: trade_costs_from_metric(SITES, SYSTEM, math.inf),
        InvalidInput, r"^tau must be finite, got inf$"),
    "fields.validate_geography.seed": (
        lambda tmp: validate_geography(_geography(), seed=-1),
        InvalidInput, r"^seed must be >= 0, got -1$"),
    "geometry.build_grid.predicate_shape": (
        lambda tmp: build_grid(BBOX, (8, 8), lambda X, Y: np.ones(3)),
        InvalidInput,
        r"inside predicate returned shape \(3,\), expected \(8, 8\)"),
    "geometry.build_grid.resolution_fraction": (
        lambda tmp: build_grid(BBOX, (8.5, 8)),
        InvalidInput, r"^resolution must be two integers \(nx, ny\), got \(8\.5, 8\)$"),
    "geometry.build_grid.resolution_string": (
        lambda tmp: build_grid(BBOX, ("8", 8)),
        InvalidInput, r"^resolution must be two integers \(nx, ny\), got \('8', 8\)$"),
    "geometry.build_grid.resolution_length": (
        lambda tmp: build_grid(BBOX, (8, 8, 8)),
        InvalidInput, r"^resolution must be two integers \(nx, ny\), got \(8, 8, 8\)$"),
    "geometry.Site.position_length": (
        lambda tmp: Site(0, (0.1, 0.2, 0.3)),
        InvalidInput,
        r"^site 0: position must be two numbers, got \(0\.1, 0\.2, 0\.3\)$"),
    "geometry.Site.position_string": (
        lambda tmp: Site(0, "ab"),
        InvalidInput, r"^site 0: position must be two numbers, got 'ab'$"),
    "geometry.DistanceSystem.kind": (
        lambda tmp: DistanceSystem("manhattan"),
        InvalidInput, r"unknown distance system kind 'manhattan'"),
    "geometry.DistanceSystem.scales": (
        lambda tmp: DistanceSystem("scaled_euclidean", (1.0, math.inf)),
        InvalidInput, r"scaled_euclidean needs positive per-site scales, each "
                      r"finite, got \(1\.0, inf\)"),
    "geometry.sample_feasible_weights.seed": (
        lambda tmp: sample_feasible_weights(SITES, SYSTEM, 0.5, 2, -1),
        InvalidInput, r"^seed must be >= 0, got -1$"),
    "geometry.sample_feasible_weights.count_fraction": (
        lambda tmp: sample_feasible_weights(SITES, SYSTEM, 0.5, 2.5, 0),
        InvalidInput, r"^count must be an integer, got 2\.5$"),
    "geometry.sample_feasible_weights.count_negative": (
        lambda tmp: sample_feasible_weights(SITES, SYSTEM, 0.5, -1, 0),
        InvalidInput, r"^count must be >= 0, got -1$"),
    "geometry.sample_feasible_weights.count_bool": (
        lambda tmp: sample_feasible_weights(SITES, SYSTEM, 0.5, True, 0),
        InvalidInput, r"^count must be an integer, got True$"),
    "geometry.lambda_feasibility.weights_shape": (
        lambda tmp: lambda_feasibility(SITES, SYSTEM, [0.0, 0.0, 0.0], 0.5),
        InvalidInput, r"^expected 2 weights, got shape \(3,\)$"),
    "geometry.lambda_feasibility.weights_nan": (
        lambda tmp: lambda_feasibility(SITES, SYSTEM, [0.0, math.nan], 0.5),
        NonFiniteWeight, r"^weights contain non-finite entries: \[ *0\. +nan\]$"),
    "geometry.assign_labels.no_sites": (
        lambda tmp: assign_labels(build_grid(BBOX, (8, 8)), (), SYSTEM, []),
        InvalidInput, r"assign_labels needs at least one site"),
    "geometry.assign_labels.weights_shape": (
        lambda tmp: assign_labels(build_grid(BBOX, (8, 8)), SITES, SYSTEM,
                                  [0.0]),
        InvalidInput, r"expected 2 weights, got shape \(1,\)"),
    "integrals.KernelSpec.beta_eff": (
        lambda tmp: KernelSpec(beta_eff=0.3, distance_coeff=2.0),
        InvalidInput, r"beta_eff must be < 0, got 0.3"),
    "integrals.KernelSpec.distance_coeff": (
        lambda tmp: KernelSpec(beta_eff=-0.3, distance_coeff=0.0),
        InvalidInput, r"distance_coeff must be > 0, got 0.0"),
    "integrals.aggregate_amenities.grid": (
        lambda tmp: aggregate_amenities(
            _tessellation(), _uniform(build_grid(BBOX, (8, 8))), KERNEL),
        InvalidInput, r"tessellation and amenity live on different grids"),
    "integrals.aggregate_amenities.mask": (
        lambda tmp: aggregate_amenities(
            _tessellation(), _uniform(_other_mask_grid()), KERNEL),
        InvalidInput, r"tessellation and amenity live on different grids"),
    "integrals.resident_density.labor_shape": (
        lambda tmp: _resident_density_with_three_masses(),
        InvalidInput, r"expected 2 labor masses, got \(3,\)"),
    "integrals.semielasticity_sup.n_samples": (
        lambda tmp: semielasticity_sup(_geography(), KERNEL, n_samples=0),
        InvalidInput, r"n_samples must be >= 1"),
    "io_formats.write_label_raster.ndim": (
        lambda tmp: write_label_raster(tmp / "labels.pgm",
                                       np.zeros(4, dtype=np.int32), BBOX),
        InvalidInput, r"labels must be 2-D, got shape \(4,\)"),
    "io_formats.read_label_raster.maxval": (
        lambda tmp: _read_label_raster_with_maxval(tmp, 254),
        InvalidInput, r"labels.pgm: expected maxval 255, got 254"),
    "io_formats.write_field_raster.ndim": (
        lambda tmp: write_field_raster(tmp / "field.fld", np.zeros(4), BBOX),
        InvalidInput, r"field must be 2-D, got shape \(4,\)"),
    "io_formats.read_field_raster.size": (
        lambda tmp: _read_short_field_raster(tmp),
        InvalidInput, r"field.fld: expected 4 values, got 3"),
    "sustainability.enumerate_urban_systems.sizes_fraction": (
        lambda tmp: enumerate_urban_systems(_geography(), PARAMS, sizes=(1.5,)),
        InvalidInput, r"^subset sizes must be integers, got 1\.5$"),
    "sustainability.enumerate_urban_systems.sizes_float": (
        lambda tmp: enumerate_urban_systems(_geography(), PARAMS, sizes=(2.0,)),
        InvalidInput, r"^subset sizes must be integers, got 2\.0$"),
    "sustainability.enumerate_urban_systems.sizes_string": (
        lambda tmp: enumerate_urban_systems(_geography(), PARAMS, sizes=("2",)),
        InvalidInput, r"^subset sizes must be integers, got '2'$"),
    "sustainability.enumerate_urban_systems.sizes_bool": (
        lambda tmp: enumerate_urban_systems(_geography(), PARAMS,
                                            sizes=(True,)),
        InvalidInput, r"^subset sizes must be integers, got True$"),
}


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_input_check_raises_its_error(tmp_path, check):
    call, error, message = CHECKS[check]
    with pytest.raises(error, match=message) as exc:
        call(tmp_path)
    assert type(exc.value) is error
