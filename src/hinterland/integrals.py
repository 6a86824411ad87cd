"""Cell functionals: amenity aggregates, resident densities, and boundary
sensitivities of the aggregates to the tessellation weights; the narrow band
that relabels and re-sums only the cells near the interfaces.

All kernel sums run in log space (max-shifted sums per cell aggregate) because
exp(distance_coeff * d / |beta|) overflows float64 quickly for strong decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InactiveSiteWithMass, InvalidInput
from .fields import AmenityField, Geography
from .geometry import (
    Tessellation,
    _first_min_labels,
    assign_labels,
    raster_interfaces,
    sample_feasible_weights,
    site_positions,
)

#: Gradients of two distance functions closer than this are treated as
#: parallel: the interface edge is skipped and counted in diagnostics.
DEGENERATE_NORMAL_CUTOFF = 1e-8


def _logsumexp(a, axis=None):
    """Max-shifted log(sum(exp(a))) along ``axis``; an all -inf slice gives -inf."""
    a = np.asarray(a, dtype=float)
    peak = a.max(axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        total = np.log(np.exp(a - peak).sum(axis=axis, keepdims=True))
    return np.squeeze(total + peak, axis=axis)[()]


@dataclass(frozen=True)
class KernelSpec:
    """Commuting-cost kernel (amenity / exp(distance_coeff * d))^(-1/beta_eff).

    ``beta_eff`` is the (negative) congestion exponent; ``distance_coeff`` is
    the total per-unit-distance decay inside the base, so the kernel falls
    off like exp(distance_coeff * d / beta_eff).
    """

    beta_eff: float
    distance_coeff: float

    def __post_init__(self):
        if not self.beta_eff < 0:
            raise InvalidInput(f"beta_eff must be < 0, got {self.beta_eff}")
        if not self.distance_coeff > 0:
            raise InvalidInput(f"distance_coeff must be > 0, got {self.distance_coeff}")

    def log_values(self, log_amenity, distances):
        """log kernel at given log-amenity samples and distances (vectorized)."""
        b = self.beta_eff
        return (-1.0 / b) * log_amenity + (self.distance_coeff / b) * distances


@dataclass(frozen=True)
class CellAggregates:
    """Per-site amenity aggregates B_i over the current tessellation.

    Inactive sites (empty cells) are flagged rather than zero-filled: their
    B entries are NaN and ``active`` is False.
    """

    log_raw: np.ndarray   # log I_i; -inf when inactive
    B: np.ndarray         # I_i ** (-beta_eff); NaN when inactive
    log_B: np.ndarray
    active: np.ndarray    # bool

    @property
    def raw_integrals(self) -> np.ndarray:
        return np.exp(self.log_raw)

    @classmethod
    def from_log_raw(cls, log_raw, kernel: KernelSpec) -> CellAggregates:
        """Flag the -inf entries inactive and raise the rest to B = I^(-beta_eff)."""
        active = np.isfinite(log_raw)
        log_B = np.where(active, -kernel.beta_eff * log_raw, np.nan)
        B = np.exp(log_B)
        for a in (log_raw, log_B, B, active):
            a.setflags(write=False)
        return cls(log_raw=log_raw, B=B, log_B=log_B, active=active)


def _group_log_sum(labels, log_f, n: int) -> np.ndarray:
    """Per label in range(n), log sum(exp(log_f)) shifted by the group's own
    maximum; -inf for a label with no entries."""
    peak = np.full(n, -np.inf)
    np.maximum.at(peak, labels, log_f)
    total = np.bincount(labels, weights=np.exp(log_f - peak[labels]), minlength=n)
    with np.errstate(divide="ignore"):
        return peak + np.log(total)


def _inside_log_kernel(tess: Tessellation, amenity: AmenityField,
                       kernel: KernelSpec):
    """Labels and log kernel values of the inside cells, in raster order."""
    grid = tess.grid
    if amenity.grid is not grid and amenity.grid != grid:
        raise InvalidInput("tessellation and amenity live on different grids")
    return (tess.labels[grid.inside],
            kernel.log_values(amenity.log_inside, tess.own_distance))


def aggregate_amenities(tess: Tessellation, amenity: AmenityField,
                        kernel: KernelSpec) -> CellAggregates:
    """Integrate the commuting kernel over every site's cell.

    I_i sums kernel values over the cells labeled i (midpoint rule);
    B_i = I_i^(-beta_eff). Empty cells yield flagged entries.
    """
    labels, log_f = _inside_log_kernel(tess, amenity, kernel)
    log_raw = _group_log_sum(labels, log_f, tess.n_sites) + math.log(tess.grid.cell_area)
    return CellAggregates.from_log_raw(log_raw, kernel)


#: Band half-width, in cells along the steepest slope of a cost difference.
BAND_CELLS = 4
#: Cells per block of rows when a band is built.
BLOCK_CELLS = 8192


class NarrowBand:
    """Per-solve state that relabels and re-sums only the cells near interfaces.

    A full pass (``assign_labels`` + ``aggregate_amenities``) sets the
    reference weights w_ref. The band holds every inside cell where another
    site's cost d_i − w_ref_i is within T = BAND_CELLS·max(dx, dy)·(largest
    metric scale) of the cell's best. While w stays near w_ref, with
    max(w − w_ref) − min(w − w_ref) + slack < T (the slack bounds the cost
    rounding), no cell outside the band can change label, so only the band is
    relabelled: labels and cell measures equal a full pass bit for bit, log
    integrals to rounding. Otherwise a full pass becomes the new reference.
    Band evaluations update the reference rasters in place: only the latest
    evaluation's tessellation is valid.
    """

    def __init__(self, geography: Geography, kernel: KernelSpec):
        self.geography, self.kernel = geography, kernel
        grid = geography.grid
        self.width = (BAND_CELLS * max(grid.dx, grid.dy)
                      * geography.system.lipschitz_constants()[1])
        self.d_max = float(geography.distances.max())
        self.ref = None    # (w_ref, tessellation) of the last full pass
        self.cells = None  # the band, built at the first evaluation near w_ref

    def tessellate(self, weights) -> tuple[Tessellation, CellAggregates]:
        """Labels and aggregates at ``weights``: the band near the reference,
        else a full pass that becomes the new reference."""
        if self.ref is not None:
            shift = weights - self.ref[0]
            slack = 16 * np.finfo(float).eps * (
                self.d_max + np.abs(weights).max() + np.abs(self.ref[0]).max())
            if shift.max() - shift.min() + slack < self.width:  # False on NaN
                if self.cells is None:
                    self.cells = self._build()
                return self._relabel(weights)
        self.ref = self.cells = None  # free the old rasters before the pass
        geo = self.geography
        tess = assign_labels(geo.grid, geo.sites, geo.system, weights, geo.distances)
        agg = aggregate_amenities(tess, geo.amenity, self.kernel)
        self.ref = weights, tess
        return tess, agg

    def _build(self):
        """Band cells, their distance columns and the fixed sums outside them.

        Works through blocks of about BLOCK_CELLS cells, whole rows each, so
        its temporaries stay a small fraction of a labeling pass's.
        """
        w_ref, tess = self.ref
        geo, grid, n = self.geography, self.geography.grid, self.geography.n_sites
        d, inside, log_amenity = geo.distances, grid.inside, geo.amenity.log_inside
        band = np.zeros(inside.shape, dtype=bool)
        counts, log_rest = np.zeros(n, dtype=np.int64), np.full(n, -np.inf)
        first = np.concatenate([[0], np.cumsum(inside.sum(axis=1))])  # per row
        step = max(1, BLOCK_CELLS // grid.nx)
        for r in range(0, grid.ny, step):
            rows = slice(r, r + step)
            best = d[0, rows] - w_ref[0]
            second, cost = np.full_like(best, np.inf), np.empty_like(best)
            for i in range(1, n):  # running first and second minimum
                np.subtract(d[i, rows], w_ref[i], out=cost)
                np.minimum(second, cost, out=second)
                np.maximum(second, best, out=second)
                np.minimum(best, cost, out=best)
            second -= best
            block = band[rows]
            np.logical_and(second <= self.width, inside[rows], out=block)
            labels = tess.labels[rows][inside[rows] & ~block]
            rest = ~block[inside[rows]]
            cells = slice(first[r], first[min(r + step, grid.ny)])
            log_f = self.kernel.log_values(log_amenity[cells][rest],
                                           tess.own_distance[cells][rest])
            counts += np.bincount(labels, minlength=n)
            log_rest = np.logaddexp(log_rest, _group_log_sum(labels, log_f, n))
        flat, pos = np.flatnonzero(band), np.flatnonzero(band[inside])
        sites = np.flatnonzero(np.isfinite(log_rest))
        return (flat, pos, d.reshape(n, -1)[:, flat], log_amenity[pos], counts,
                sites, log_rest[sites])

    def _relabel(self, weights):
        """Relabel the band cells in the reference rasters; re-sum the band."""
        flat, pos, d, log_amenity, counts, sites, log_rest = self.cells
        ref = self.ref[1]
        labels = _first_min_labels(d, weights)
        own = d[labels, np.arange(len(flat))]
        for raster, where, values in ((ref.labels, flat, labels),
                                      (ref.own_distance, pos, own)):
            raster.setflags(write=True)
            np.put(raster, where, values)
            raster.setflags(write=False)
        grid, n = ref.grid, len(d)
        tess = Tessellation(
            grid=grid, sites=ref.sites, system=ref.system, labels=ref.labels,
            own_distance=ref.own_distance,
            cell_measure=(counts + np.bincount(labels, minlength=n)) * grid.cell_area)
        log_raw = _group_log_sum(
            np.concatenate([sites, labels]),
            np.concatenate([log_rest, self.kernel.log_values(log_amenity, own)]),
            n) + math.log(grid.cell_area)
        return tess, CellAggregates.from_log_raw(log_raw, self.kernel)


def resident_density(tess: Tessellation, aggregates: CellAggregates,
                     amenity: AmenityField, kernel: KernelSpec, labor) -> np.ndarray:
    """Per-cell resident density: cell kernel share times the site's labor mass.

    Integrating the returned raster over any site's cell recovers that
    site's labor mass up to float rounding. Cells outside the domain get 0.
    """
    labor = np.asarray(labor, dtype=float)
    if labor.shape != (tess.n_sites,):
        raise InvalidInput(f"expected {tess.n_sites} labor masses, got {labor.shape}")
    for i in range(tess.n_sites):
        if labor[i] > 0 and not aggregates.active[i]:
            raise InactiveSiteWithMass(
                f"site {i} has labor {labor[i]:.6g} but an empty cell")

    labels, log_f = _inside_log_kernel(tess, amenity, kernel)
    log_f -= aggregates.log_raw[labels]
    grid = tess.grid
    density = np.zeros((grid.ny, grid.nx))
    density[grid.inside] = labor[labels] * np.exp(log_f, out=log_f)
    return density


def semielasticity_matrix(tess: Tessellation, amenity: AmenityField,
                          kernel: KernelSpec):
    """Semielasticities of every B_i in every weight: ``(eta, skipped)``.

    ``eta[i, k]``, i != k, sums over the raster edges between the cells of i
    and k the kernel at the edge midpoint (with the i-side cell's amenity)
    over I_i, times the edge length projected on the interface normal, over
    the speed |grad d_i - grad d_k|, times |beta_eff|; ``eta[i, i]`` is row
    i's sum. ``skipped`` counts the edges with speed under
    DEGENERATE_NORMAL_CUTOFF.
    """
    log_raw = aggregate_amenities(tess, amenity, kernel).log_raw
    grid, n = tess.grid, tess.n_sites
    spacing = np.array([[grid.dx], [grid.dy]])
    pos = site_positions(tess.sites).T - np.reshape(grid.bbox[:2], (2, 1))
    scales = np.array([tess.system.scale_of(s) for s in range(n)])
    eta, skipped = np.zeros(n * n), np.zeros(n * n, dtype=np.int64)
    for axis, low, high, iy, ix in raster_interfaces(tess.labels):
        # row 0 sees each edge from its low/left cell, row 1 from the other
        sides = np.stack([low, high])
        cells = iy * grid.nx + ix + [[0], [(1, grid.nx)[axis]]]
        mid = np.stack([ix, iy]) + 0.5
        mid[axis] += 0.5
        g = (mid * spacing)[:, None] - pos[:, sides]
        r = np.hypot(*g)
        g *= scales[sides] / np.where(r > 0, r, np.inf)  # 0 at the site itself
        u = g[:, 0] - g[:, 1]
        speed = np.hypot(*u)
        skip = speed < DEGENERATE_NORMAL_CUTOFF
        speed[skip] = np.inf   # a skipped edge adds exactly 0
        # projected: raw edge lengths would measure the staircase, not the curve
        reach = (grid.dy, grid.dx)[axis] * (np.abs(u[axis]) / speed) / speed
        log_f = kernel.log_values(np.log(amenity.values.flat[cells]), r * scales[sides])
        pair = sides * n + sides[::-1]
        eta += np.bincount(pair.ravel(), (np.exp(log_f - log_raw[sides])
                                          * reach).ravel(), n * n)
        skipped += np.bincount(pair[:, skip].ravel(), minlength=n * n)
    eta = abs(kernel.beta_eff) * eta.reshape(n, n)
    eta[np.diag_indices(n)] = eta.sum(axis=1)
    return eta, skipped.reshape(n, n)


@dataclass(frozen=True)
class SemielasticityBound:
    """Sampled estimate of the tessellation semielasticity bound.

    Not a certified supremum: the maximum runs over finitely many sampled
    weight vectors inside the shrunk feasible set.
    """

    value: float
    n_weight_vectors: int
    skipped_edges: int


def semielasticity_sup(geography: Geography, kernel: KernelSpec,
                       k_shrink: float = 0.5, n_samples: int = 16,
                       seed: int = 0) -> SemielasticityBound:
    """Estimate the supremum of the cross-weight semielasticity over Λ^k.

    The largest off-diagonal ``semielasticity_matrix`` entry over the
    unweighted tessellation and ``n_samples - 1`` seeded weight vectors in
    the shrunk feasible set; an edge skips twice, once per ordered pair.
    Single-site geographies give 0 once the sampler has checked ``k_shrink``.
    """
    if n_samples < 1:
        raise InvalidInput("n_samples must be >= 1")
    n = geography.n_sites
    weight_vectors = [np.zeros(n)] + sample_feasible_weights(
        geography.sites, geography.system, k_shrink, n_samples - 1, seed)
    if n < 2:
        return SemielasticityBound(0.0, 1, 0)

    best, skipped = 0.0, 0
    for w in weight_vectors:
        tess = assign_labels(geography.grid, geography.sites, geography.system, w,
                             geography.distances)
        eta, skip = semielasticity_matrix(tess, geography.amenity, kernel)
        np.fill_diagonal(eta, 0.0)
        best = max(best, float(eta.max()))
        skipped += int(skip.sum())
    return SemielasticityBound(value=best, n_weight_vectors=len(weight_vectors),
                               skipped_edges=skipped)
