"""Cell functionals: amenity aggregates, resident densities, and boundary
sensitivities of the aggregates to the tessellation weights; the narrow band
that re-sums only the cells near the interfaces.

All kernel sums run in log space (max-shifted sums per cell aggregate) because
exp(distance_coeff * d / |beta|) overflows float64 quickly for strong decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InactiveSiteWithMass, InvalidInput
from .fields import AmenityField, Geography
from .geometry import (
    OUTSIDE,
    Tessellation,
    _checked_weights,
    _first_min_labels,
    _own_distance,
    assign_labels,
    check_count,
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


@dataclass(frozen=True, eq=False)
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
    total = np.bincount(labels, weights=np.exp(log_f - peak.take(labels)), minlength=n)
    with np.errstate(divide="ignore"):
        return peak + np.log(total)


def _inside_log_kernel(tess: Tessellation, amenity: AmenityField,
                       kernel: KernelSpec):
    """Labels and log kernel values of the inside cells, in raster order."""
    grid = tess.grid
    if amenity.grid != grid:
        raise InvalidInput("tessellation and amenity live on different grids")
    return (tess.labels[grid.inside],
            kernel.log_values(amenity.log_inside, tess.own_distance))


def _aggregate(labels, log_f, n: int, grid, kernel: KernelSpec) -> CellAggregates:
    """Aggregates of the cells with site ``labels`` and log kernel values
    ``log_f``."""
    log_raw = _group_log_sum(labels, log_f, n) + math.log(grid.cell_area)
    return CellAggregates.from_log_raw(log_raw, kernel)


def aggregate_amenities(tess: Tessellation, amenity: AmenityField,
                        kernel: KernelSpec) -> CellAggregates:
    """Integrate the commuting kernel over every site's cell.

    I_i sums kernel values over the cells labeled i (midpoint rule);
    B_i = I_i^(-beta_eff). Empty cells yield flagged entries.
    """
    return _aggregate(*_inside_log_kernel(tess, amenity, kernel), tess.n_sites,
                      tess.grid, kernel)


#: Band half-width, in cells along the steepest slope of a cost difference.
BAND_CELLS = 4


class NarrowBand:
    """Per-solve state that re-sums only the cells near interfaces.

    A full pass at weights w_ref, the reference, labels every cell in one
    running-minimum scan over the sites, which also gives each cell's cost
    gap to its runner-up, and sums the aggregates as ``aggregate_amenities``
    does. It keeps the labels read-only, the band mask (every inside cell
    whose gap is at most T = BAND_CELLS·max(dx, dy)·(largest metric scale)),
    the inside labels and the log kernel values. The first evaluation that
    reads the band builds it from them: the band's distance columns and each
    site's sum over its cells outside the band. While w stays near w_ref,
    with max(w − w_ref) − min(w − w_ref) + slack < T (the slack bounds the
    cost rounding), no cell outside the band can change label, so only the
    band is relabelled and re-summed: the log integrals equal a full pass's
    to rounding. Otherwise a full pass becomes the new reference.
    ``last_labels`` gives the labels at the last evaluated weights.
    """

    def __init__(self, geography: Geography, kernel: KernelSpec):
        self.geography, self.kernel = geography, kernel
        grid = geography.grid
        self.width = (BAND_CELLS * max(grid.dx, grid.dy)
                      * geography.system.lipschitz_constants()[1])
        self.d_max = float(geography.distances.max())
        self.w_ref = None       # weights of the last full pass
        self.labels = None      # its label raster, read-only
        self.scan = None        # its band mask, inside labels and log kernel
        self.where = None       # its band's cells, flat raster indices, once built
        self.cells = None       # their distance columns and the fixed sums
        self.relabelled = None  # the band's labels, when a band evaluation came last

    def aggregates(self, weights) -> CellAggregates:
        """Aggregates at ``weights``: the band re-summed near the reference,
        else a full pass that becomes the new reference."""
        weights = _checked_weights(weights, self.geography.n_sites)
        if self.w_ref is not None:
            shift = weights - self.w_ref
            slack = 16 * np.finfo(float).eps * (
                self.d_max + np.abs(weights).max() + np.abs(self.w_ref).max())
            if shift.max() - shift.min() + slack < self.width:
                if self.cells is None:
                    self._build_band()
                return self._resum(weights)
        return self._full_pass(weights)

    def _full_pass(self, weights) -> CellAggregates:
        """Label every cell and sum the aggregates at the new reference
        ``weights``; keep what the band is built from."""
        # free the old rasters before the pass
        self.w_ref = self.labels = self.scan = self.where = self.cells = self.relabelled = None
        geo, grid = self.geography, self.geography.grid
        labels, gap = _first_min_labels(geo.distances, weights, gap=True)
        labels[~grid.inside] = OUTSIDE
        band = gap <= self.width
        band &= grid.inside
        del gap
        inside_labels = labels[grid.inside]
        log_f = self.kernel.log_values(
            geo.amenity.log_inside, _own_distance(inside_labels, grid, geo.distances))
        labels.setflags(write=False)
        self.w_ref, self.labels, self.scan = weights, labels, (band, inside_labels, log_f)
        return _aggregate(inside_labels, log_f, geo.n_sites, grid, self.kernel)

    def _build_band(self):
        """Build the band of the last full pass: its cells, their distance
        columns and each site's sum over its cells outside the band."""
        band, inside_labels, log_f = self.scan
        self.scan = None
        geo, grid, n = self.geography, self.geography.grid, self.geography.n_sites
        in_band = band[grid.inside]
        split = in_band * np.int32(n)
        split += inside_labels   # site i's band cells form group n + i
        log_rest = _group_log_sum(split, log_f, 2 * n)[:n]
        del split
        sites = np.flatnonzero(np.isfinite(log_rest))
        self.where = np.flatnonzero(band)
        self.cells = (geo.distances.reshape(n, -1).take(self.where, axis=1),
                      geo.amenity.log_inside[in_band], sites, log_rest[sites])

    def _resum(self, weights) -> CellAggregates:
        """Relabel the band cells and add their kernel to the fixed sums."""
        d, log_amenity, sites, log_rest = self.cells
        self.relabelled = labels = _first_min_labels(d, weights)
        own = d[labels, np.arange(d.shape[1])]
        return _aggregate(np.concatenate([sites, labels]),
                          np.concatenate([log_rest, self.kernel.log_values(log_amenity, own)]),
                          len(d), self.geography.grid, self.kernel)

    def last_labels(self) -> np.ndarray:
        """The label raster at the last evaluated weights, read-only: the
        last full pass's labels, copied with the band cells relabelled when
        a band evaluation came after it. ``Tessellation.from_labels`` of it
        is ``assign_labels`` at those weights, bit for bit."""
        labels = self.labels
        if self.relabelled is not None:
            labels = labels.copy()
            labels.flat[self.where] = self.relabelled
            labels.setflags(write=False)
        return labels


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
                          kernel: KernelSpec, aggregates=None):
    """Semielasticities of every B_i in every weight: ``(eta, skipped)``.

    ``eta[i, k]``, i != k, sums over the raster edges between the cells of i
    and k the kernel at the edge midpoint (with the i-side cell's amenity)
    over I_i, times the edge length projected on the interface normal, over
    the speed |grad d_i - grad d_k|, times |beta_eff|; ``eta[i, i]`` is row
    i's sum. ``skipped`` counts the edges with speed under
    DEGENERATE_NORMAL_CUTOFF. ``aggregates`` are ``tess``'s
    ``aggregate_amenities``, summed here when not given.
    """
    if aggregates is None:
        aggregates = aggregate_amenities(tess, amenity, kernel)
    log_raw = aggregates.log_raw
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
                       seed: int = 0, unweighted=None) -> SemielasticityBound:
    """Estimate the supremum of the cross-weight semielasticity over Λ^k.

    The largest off-diagonal ``semielasticity_matrix`` entry over the
    unweighted tessellation and ``n_samples - 1`` seeded weight vectors in
    the shrunk feasible set; an edge skips twice, once per ordered pair.
    Single-site geographies give 0 once the sampler has checked ``k_shrink``.
    ``unweighted`` is the zero-weight ``(tessellation, aggregates)`` pair of
    a caller that already holds it; otherwise it is computed here.
    """
    check_count("n_samples", n_samples, 1)
    n = geography.n_sites
    draws = sample_feasible_weights(geography.sites, geography.system,
                                    k_shrink, n_samples - 1, seed)
    if n < 2:
        return SemielasticityBound(0.0, 1, 0)

    def label(w):
        return assign_labels(geography.grid, geography.sites, geography.system,
                             w, geography.distances)

    best, skipped = 0.0, 0
    first = unweighted or (label(np.zeros(n)), None)
    for tess, aggregates in chain([first], ((label(w), None) for w in draws)):
        eta, skip = semielasticity_matrix(tess, geography.amenity, kernel,
                                          aggregates)
        np.fill_diagonal(eta, 0.0)
        best = max(best, float(eta.max()))
        skipped += int(skip.sum())
    return SemielasticityBound(value=best, n_weight_vectors=1 + len(draws),
                               skipped_edges=skipped)
