"""Cell functionals: amenity aggregates, resident densities, and boundary
sensitivities of the aggregates to the tessellation weights.

All kernel sums run in log space (max-shifted sums per cell aggregate) because
exp(distance_coeff * d / |beta|) overflows float64 quickly for strong decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InactiveSiteWithMass
from .fields import AmenityField, Geography
from .geometry import Tessellation, assign_labels, sample_feasible_weights

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
            raise ValueError(f"beta_eff must be < 0, got {self.beta_eff}")
        if not self.distance_coeff > 0:
            raise ValueError(f"distance_coeff must be > 0, got {self.distance_coeff}")

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


def _inside_log_kernel(tess: Tessellation, amenity: AmenityField,
                       kernel: KernelSpec):
    """Labels and log kernel values of the inside cells, in raster order."""
    grid = tess.grid
    if amenity.grid is not grid and amenity.grid != grid:
        raise ValueError("tessellation and amenity live on different grids")
    return (tess.labels[grid.inside],
            kernel.log_values(amenity.log_inside, tess.own_distance))


def aggregate_amenities(tess: Tessellation, amenity: AmenityField,
                        kernel: KernelSpec) -> CellAggregates:
    """Integrate the commuting kernel over every site's cell.

    I_i sums kernel values over the cells labeled i (midpoint rule);
    B_i = I_i^(-beta_eff). Empty cells yield flagged entries.
    """
    labels, log_f = _inside_log_kernel(tess, amenity, kernel)
    # one grouped sum, shifted by each site's own maximum
    peak = np.full(tess.n_sites, -np.inf)
    np.maximum.at(peak, labels, log_f)
    total = np.bincount(labels, weights=np.exp(log_f - peak[labels]),
                        minlength=tess.n_sites)
    with np.errstate(divide="ignore"):
        log_raw = peak + np.log(total) + math.log(tess.grid.cell_area)

    active = np.isfinite(log_raw)
    log_B = np.where(active, -kernel.beta_eff * log_raw, np.nan)
    B = np.exp(log_B)
    for a in (log_raw, log_B, B, active):
        a.setflags(write=False)
    return CellAggregates(log_raw=log_raw, B=B, log_B=log_B, active=active)


def disk_kernel_integral(eps: float, delta: float, beta: float) -> float:
    """Exact integral of exp(delta*r/beta) over a disk of radius eps.

    Polar coordinates give 2*pi*[(1 - e^{delta*eps/beta})*beta^2/delta^2
    + eps*e^{delta*eps/beta}*beta/delta]; used as the closed-form oracle for
    the raster quadrature and for cell lower bounds.
    """
    if not (eps > 0 and delta > 0 and beta < 0):
        raise ValueError(f"need eps > 0, delta > 0, beta < 0; got {(eps, delta, beta)}")
    edge = math.exp(delta * eps / beta)
    return 2.0 * math.pi * ((1.0 - edge) * beta ** 2 / delta ** 2
                            + eps * edge * beta / delta)


def inscribed_radius(d_min: float, k_shrink: float, upper_constant: float = 1.0) -> float:
    """Radius of a Euclidean ball certain to stay inside a site's cell.

    Valid for any weight vector in the k-shrunk feasible set; derived from
    the band bounds and the metric's upper comparability constant.
    """
    return (1.0 - k_shrink) * d_min / (2.0 * upper_constant)


def resident_density(tess: Tessellation, aggregates: CellAggregates,
                     amenity: AmenityField, kernel: KernelSpec, labor) -> np.ndarray:
    """Per-cell resident density: cell kernel share times the site's labor mass.

    Integrating the returned raster over any site's cell recovers that
    site's labor mass up to float rounding. Cells outside the domain get 0.
    """
    labor = np.asarray(labor, dtype=float)
    if labor.shape != (tess.n_sites,):
        raise ValueError(f"expected {tess.n_sites} labor masses, got {labor.shape}")
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


def amenity_semielasticity(tess: Tessellation, amenity: AmenityField,
                           kernel: KernelSpec, i: int, k: int,
                           aggregates: CellAggregates | None = None,
                           diagnostics: dict | None = None) -> float:
    """Semielasticity of B_i with respect to the weight of site k.

    Assembles the moving-boundary term of the shape derivative as a sum over
    raster interface edges: kernel value on the i side, times the inverse
    speed 1/||grad d_i - grad d_k||, times the edge length, normalized by
    I_i. Non-adjacent pairs return exactly 0. With i == k, returns the
    own-weight magnitude, the sum over all of i's interfaces.

    Edges where the two gradients are nearly parallel are skipped and
    counted in ``diagnostics['skipped_edges']`` when a dict is supplied.
    """
    if aggregates is None:
        aggregates = aggregate_amenities(tess, amenity, kernel)
    if diagnostics is not None:
        diagnostics.setdefault("skipped_edges", 0)
    if i == k:
        return sum(amenity_semielasticity(tess, amenity, kernel, i, kk,
                                          aggregates=aggregates, diagnostics=diagnostics)
                   for kk in sorted(tess.neighbors[i]))
    edges = tess.interface_edges(i, k)
    if edges.shape[0] == 0:
        return 0.0

    grid = tess.grid
    site_i, site_k = tess.sites[i], tess.sites[k]
    log_I = aggregates.log_raw[i]
    total = 0.0
    skipped = 0
    for x, y, length, axis in edges:
        gi = tess.system.gradient(site_i, i, x, y)
        gk = tess.system.gradient(site_k, k, x, y)
        du = (gi[0] - gk[0], gi[1] - gk[1])
        speed_norm = math.hypot(du[0], du[1])
        if speed_norm < DEGENERATE_NORMAL_CUTOFF:
            skipped += 1
            continue
        # project the interface normal onto this raster edge's normal axis;
        # unprojected sums would measure the staircase length instead
        projection = abs(du[int(axis)]) / speed_norm
        # amenity is cell-sampled: take the i-side cell's value
        iy, ix = grid.cell_of((x, y))
        if tess.labels[iy, ix] != i:
            # edge midpoint landed in the k-side cell; step to the i side
            for niy, nix in ((iy, ix - 1), (iy, ix + 1), (iy - 1, ix), (iy + 1, ix)):
                if 0 <= niy < grid.ny and 0 <= nix < grid.nx \
                        and tess.labels[niy, nix] == i:
                    iy, ix = niy, nix
                    break
        d = tess.system.distance(site_i, i, np.array(x), np.array(y))
        log_f = kernel.log_values(np.log(amenity.values[iy, ix]), d)
        total += math.exp(float(log_f) - log_I) * length * projection / speed_norm
    if diagnostics is not None:
        diagnostics["skipped_edges"] += skipped
    return abs(kernel.beta_eff) * total


@dataclass(frozen=True)
class SemielasticityBound:
    """Sampled estimate of the tessellation semielasticity bound.

    Not a certified supremum: the maximum runs over finitely many sampled
    weight vectors inside the shrunk feasible set.
    """

    value: float
    certified: bool
    n_weight_vectors: int
    skipped_edges: int


def semielasticity_sup(geography: Geography, kernel: KernelSpec,
                       k_shrink: float = 0.5, n_samples: int = 16,
                       seed: int = 0) -> SemielasticityBound:
    """Estimate the supremum of the cross-weight semielasticity over Λ^k.

    Evaluates every adjacent pair at the unweighted tessellation plus
    ``n_samples - 1`` seeded random weight vectors kept inside the shrunk
    feasible set; returns the max. Single-site geographies give 0.
    """
    if not (0 < k_shrink < 1):
        raise ValueError(f"k_shrink must be in (0, 1), got {k_shrink}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n = geography.n_sites
    if n < 2:
        return SemielasticityBound(0.0, False, 1, 0)

    weight_vectors = [np.zeros(n)] + sample_feasible_weights(
        geography.sites, geography.system, k_shrink, n_samples - 1, seed)

    best = 0.0
    diag = {"skipped_edges": 0}
    for w in weight_vectors:
        tess = assign_labels(geography.grid, geography.sites, geography.system, w,
                             geography.distances)
        agg = aggregate_amenities(tess, geography.amenity, kernel)
        for i in range(n):
            for k in tess.neighbors[i]:
                eta = amenity_semielasticity(tess, geography.amenity, kernel, i, k,
                                             aggregates=agg, diagnostics=diag)
                if eta > best:
                    best = eta
    return SemielasticityBound(value=best, certified=False,
                               n_weight_vectors=len(weight_vectors),
                               skipped_edges=diag["skipped_edges"])
