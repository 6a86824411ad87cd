"""Exogenous geography: amenity fields, trade costs, and their validation."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import AsymmetricMetric, InvalidInput, NonPositiveAmenity
from .geometry import (
    DistanceSystem,
    DomainGrid,
    Site,
    check_count,
    check_positive,
    cross_distances,
    distance_stack,
    site_productivities,
)


@dataclass(frozen=True, eq=False)
class AmenityField:
    """Residential-amenity samples at cell centers with recorded bounds."""

    grid: DomainGrid
    values: np.ndarray  # (ny, nx); only inside cells are meaningful
    b_min: float
    b_max: float

    @cached_property
    def log_inside(self) -> np.ndarray:
        """log of the inside samples, in raster order (read-only)."""
        log_values = np.log(self.values[self.grid.inside])
        log_values.setflags(write=False)
        return log_values


def amenity_from_function(grid: DomainGrid, source) -> AmenityField:
    """Sample an amenity field at cell centers.

    ``source`` is either a vectorized closure ``f(X, Y)`` returning a scalar
    or an (ny, nx) array, or a ready-made raster of shape (ny, nx). Every
    inside sample must be finite and strictly positive.
    """
    if callable(source):
        X, Y = grid.cell_centers()
        values = np.asarray(source(X, Y), dtype=float)
        if values.ndim and values.shape != (grid.ny, grid.nx):
            raise InvalidInput(f"amenity function returned shape {values.shape}, "
                               f"expected a scalar or {(grid.ny, grid.nx)}")
        values = np.broadcast_to(values, (grid.ny, grid.nx)).copy()
    else:
        values = np.array(source, dtype=float)
        if values.shape != (grid.ny, grid.nx):
            raise InvalidInput(
                f"amenity raster shape {values.shape} does not match grid {(grid.ny, grid.nx)}")
    inside_vals = values[grid.inside]
    bad = ~(np.isfinite(inside_vals) & (inside_vals > 0))
    if bad.any():
        iy, ix = np.argwhere(grid.inside)[np.argmax(bad)]
        raise NonPositiveAmenity(cell_index=(int(iy), int(ix)),
                                 value=float(values[iy, ix]))
    values.setflags(write=False)
    return AmenityField(grid=grid, values=values,
                        b_min=float(inside_vals.min()),
                        b_max=float(inside_vals.max()))


@dataclass(frozen=True, eq=False)
class TradeCostMatrix:
    """Iceberg trade costs between district pairs.

    ``origin`` records whether the matrix came from an exponential-of-distance
    rule (with its decay ``tau``) or was supplied explicitly; some analytical
    bounds are only available in the former case.
    """

    values: np.ndarray  # (n, n)
    origin: str         # "from_metric" | "explicit"
    tau: float | None = None

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InvalidInput(f"trade cost matrix must be square, got {v.shape}")
        if self.origin not in ("from_metric", "explicit"):
            raise InvalidInput(f"unknown trade cost origin {self.origin!r}")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def trade_costs_from_metric(sites, system: DistanceSystem, tau: float) -> TradeCostMatrix:
    """Exponential-of-distance trade costs T_ij = exp(tau * d_j(y_i)).

    The shipped metrics give d_i(y_j) = d_j(y_i) unless per-site scales
    differ, in which case the matrix would be asymmetric and is rejected.
    """
    check_positive("tau", tau)
    sites = tuple(sites)
    system.check_site_count(len(sites))
    d = cross_distances(sites, system)
    if d.size and np.abs(d - d.T).max() > 1e-12 * max(d.max(), 1.0):
        i, j = np.unravel_index(np.abs(d - d.T).argmax(), d.shape)
        raise AsymmetricMetric(
            f"d_{i}(y_{j})={d[i, j]:.6g} != d_{j}(y_{i})={d[j, i]:.6g}; "
            "exponential trade costs need a symmetric metric")
    values = np.exp(tau * d.T)  # entry (i, j) uses d_j(y_i)
    values.setflags(write=False)
    return TradeCostMatrix(values=values, origin="from_metric", tau=float(tau))


def explicit_trade_costs(values) -> TradeCostMatrix:
    """Wrap a user-supplied trade cost matrix; every entry must be finite and > 0.

    Raises ``InvalidInput`` otherwise. The model's other assumptions
    (symmetry, unit diagonal, triangle bound) are only diagnosed when
    ``validate_geography`` is called.
    """
    try:
        values = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"trade matrix entries must be numbers: {exc}") from None
    if not ((values > 0) & (values < np.inf)).all():
        raise InvalidInput("trade matrix entries must be finite and > 0")
    values.setflags(write=False)
    return TradeCostMatrix(values=values, origin="explicit")


@dataclass(frozen=True, eq=False)
class Geography:
    """Everything exogenous: domain, districts, metric, amenities, trade costs."""

    grid: DomainGrid
    sites: tuple[Site, ...]
    system: DistanceSystem
    amenity: AmenityField
    trade: TradeCostMatrix

    def __post_init__(self):
        if len(self.sites) != self.trade.n:
            raise InvalidInput(
                f"{len(self.sites)} sites but {self.trade.n}x{self.trade.n} trade matrix")
        self.system.check_site_count(len(self.sites))
        if self.amenity.grid != self.grid:
            raise InvalidInput("amenity field was sampled on a different grid")
        ids = [s.id for s in self.sites]
        if repeated := sorted({i for i in ids if ids.count(i) > 1}):
            raise InvalidInput(f"repeated site ids {repeated}")

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def productivities(self) -> np.ndarray:
        return site_productivities(self.sites)

    @cached_property
    def distances(self) -> np.ndarray:
        """The weight-independent ``distance_stack``, built on first use."""
        return distance_stack(self.grid, self.sites, self.system)

    def positions_of(self, ids) -> list[int]:
        """Positions in ``sites`` of ``ids``; InvalidInput if empty, unknown or repeated."""
        ids = list(ids)
        if not ids:
            raise InvalidInput("no site ids given")
        position = {s.id: p for p, s in enumerate(self.sites)}
        for i in ids:
            if i not in position:
                raise InvalidInput(f"unknown site id {i}")
        if len(set(ids)) != len(ids):
            raise InvalidInput(f"duplicate site ids in {ids}")
        return [position[i] for i in ids]


def subset_geography(geography: Geography, site_ids=None) -> Geography:
    """Restrict a geography to the given site ids (order preserved); None,
    or all ids in order, returns it. Ids are checked by ``positions_of``."""
    if site_ids is None:
        return geography
    idx = geography.positions_of(site_ids)
    if idx == list(range(geography.n_sites)):
        return geography
    sites = tuple(geography.sites[p] for p in idx)
    take = np.ix_(idx, idx)
    trade = TradeCostMatrix(values=geography.trade.values[take],
                            origin=geography.trade.origin, tau=geography.trade.tau)
    system = geography.system
    if system.kind == "scaled_euclidean":
        system = replace(system, scales=tuple(system.scales[p] for p in idx))
    return Geography(grid=geography.grid, sites=sites, system=system,
                     amenity=geography.amenity, trade=trade)


@dataclass(frozen=True)
class GeographyCheck:
    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class GeographyReport:
    checks: tuple[GeographyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> GeographyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def validate_geography(geography: Geography, seed: int = 0) -> GeographyReport:
    """Diagnose the boundedness and metric assumptions behind the model.

    Runs every check and reports pass/fail with a witness rather than
    raising; the cross-site triangle inequality is checked at 4096 inside
    cells drawn by a generator seeded by ``seed``. It reads
    ``geography.distances``, so coincident sites raise ``CoincidentSites``.
    """
    check_count("seed", seed, 0)
    checks = []
    g = geography

    # distinct sites placed on inside cells
    bad_sites = [s.id for s in g.sites if not g.grid.inside[g.grid.cell_of(s.position)]]
    checks.append(GeographyCheck(
        "sites_inside_domain", not bad_sites,
        f"sites on outside cells: {bad_sites}" if bad_sites else ""))

    # amenity and productivity bounds (positivity is enforced at construction)
    checks.append(GeographyCheck(
        "amenity_bounded", 0 < g.amenity.b_min <= g.amenity.b_max,
        f"b_min={g.amenity.b_min:.6g}, b_max={g.amenity.b_max:.6g}"))
    prod = g.productivities
    checks.append(GeographyCheck(
        "productivity_bounded", bool(np.all(prod > 0) and np.all(np.isfinite(prod))),
        f"range [{prod.min():.6g}, {prod.max():.6g}]"))

    # trade-cost matrix shape assumptions
    T = g.trade.values
    sym_err = float(np.abs(T - T.T).max()) if T.size else 0.0
    if sym_err > 1e-12 * max(T.max(initial=1.0), 1.0):
        i, j = np.unravel_index(np.abs(T - T.T).argmax(), T.shape)
        checks.append(GeographyCheck(
            "trade_symmetric", False,
            f"T[{i},{j}]={T[i, j]:.6g} != T[{j},{i}]={T[j, i]:.6g}"))
    else:
        checks.append(GeographyCheck("trade_symmetric", True))
    diag_ok = bool(np.allclose(np.diag(T), 1.0, rtol=0, atol=1e-12))
    checks.append(GeographyCheck(
        "trade_unit_diagonal", diag_ok,
        "" if diag_ok else f"diag={np.diag(T)}"))
    ge1_ok = bool(np.all(T >= 1.0 - 1e-12) and np.all(np.isfinite(T)))
    checks.append(GeographyCheck(
        "trade_bounded_below_by_one", ge1_ok,
        "" if ge1_ok else f"min entry {T.min():.6g}"))

    # multiplicative triangle bound T_jk <= T_ij * T_ik, exhaustive (n^3 is small)
    n = g.n_sites
    if n >= 3:
        lhs = T[None, :, :]
        rhs = T[:, :, None] * T[:, None, :]
        viol = lhs > rhs * (1 + 1e-12)
        if viol.any():
            i, j, k = np.argwhere(viol)[0]
            witness = (f"T[{j},{k}]={T[j, k]:.6g} > "
                       f"T[{i},{j}]*T[{i},{k}]={T[i, j] * T[i, k]:.6g}")
            checks.append(GeographyCheck("trade_triangle_bound", False, witness))
        else:
            checks.append(GeographyCheck("trade_triangle_bound", True))
    else:
        checks.append(GeographyCheck("trade_triangle_bound", True, "fewer than 3 sites"))

    # cross-site triangle inequality d_i(x) <= d_i(y_j) + d_j(x) on sampled
    # cells; slack[i, j] holds d_i - (d_i(y_j) + d_j), exactly 0 when i == j
    rng = np.random.default_rng(seed)
    X, Y = g.grid.cell_centers()
    xs, ys = X[g.grid.inside], Y[g.grid.inside]
    take = rng.integers(0, xs.size, size=min(4096, xs.size))
    d = g.distances[:, g.grid.inside][:, take]
    d_cross = cross_distances(g.sites, g.system)
    slack = d[:, None, :] - (d_cross[:, :, None] + d[None, :, :])
    failing = np.argwhere(slack.max(axis=2) > 1e-12)
    tri_witness = ""
    if failing.size:
        i, j = failing[0]       # the first pair in (i, j) loop order
        k = int(np.argmax(slack[i, j]))
        tri_witness = (f"d_{i}(x) > d_{i}(y_{j}) + d_{j}(x) at "
                       f"x=({xs[take[k]]:.4g},{ys[take[k]]:.4g}): "
                       f"{d[i, k]:.6g} > {d_cross[i, j] + d[j, k]:.6g}")
    checks.append(GeographyCheck("metric_triangle_inequality", not failing.size,
                                 tri_witness))

    c, C = g.system.lipschitz_constants()
    checks.append(GeographyCheck(
        "metric_euclidean_comparable", 0 < c <= C,
        f"c={c:.6g}, C={C:.6g}"))

    return GeographyReport(checks=tuple(checks))
