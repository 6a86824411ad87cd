"""Raster domains, distance systems, and additively weighted Voronoi tessellations.

The planar domain is discretized into a rectangular grid of cells; everything
downstream (cell measures, amenity integrals, boundary sums) is evaluated at
cell centers, which keeps measure errors O(h) and places no restriction on
domain shape or amenity fields.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CoincidentSites,
    DisconnectedDomain,
    EmptyDomain,
    InvalidInput,
    NonFiniteWeight,
)

#: Label used for raster cells outside the domain.
OUTSIDE = -1


@dataclass(frozen=True, eq=False)
class DomainGrid:
    """A bounded planar domain sampled on a regular cell grid.

    ``inside`` marks the cells (by center) that belong to the domain; the
    inside region must be non-empty and 4-connected. Two grids are equal
    when their bbox, shape and inside mask are.
    """

    bbox: tuple[float, float, float, float]
    nx: int
    ny: int
    inside: np.ndarray  # bool, shape (ny, nx)

    def __eq__(self, other):
        if not isinstance(other, DomainGrid):
            return NotImplemented
        return self is other or (
            (self.bbox, self.nx, self.ny) == (other.bbox, other.nx, other.ny)
            and np.array_equal(self.inside, other.inside))

    @property
    def dx(self) -> float:
        return (self.bbox[2] - self.bbox[0]) / self.nx

    @property
    def dy(self) -> float:
        return (self.bbox[3] - self.bbox[1]) / self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def n_inside(self) -> int:
        return int(self.inside.sum())

    @property
    def area(self) -> float:
        """Measure of the discrete domain (inside cell count times cell area)."""
        return self.n_inside * self.cell_area

    def cell_center_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the cell-center coordinates along x, shape (nx,), and y, (ny,)."""
        xmin, ymin, _, _ = self.bbox
        return (xmin + (np.arange(self.nx) + 0.5) * self.dx,
                ymin + (np.arange(self.ny) + 0.5) * self.dy)

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (X, Y) arrays of cell-center coordinates, shape (ny, nx)."""
        return np.meshgrid(*self.cell_center_axes())

    def cell_of(self, point) -> tuple[int, int]:
        """Return the (iy, ix) cell containing ``point`` (clipped to the grid)."""
        x, y = float(point[0]), float(point[1])
        ix = min(max(int((x - self.bbox[0]) / self.dx), 0), self.nx - 1)
        iy = min(max(int((y - self.bbox[1]) / self.dy), 0), self.ny - 1)
        return iy, ix


def build_grid(bbox, resolution, inside_predicate=None) -> DomainGrid:
    """Discretize a bounding box into a grid and evaluate the domain mask.

    Parameters
    ----------
    bbox : (xmin, ymin, xmax, ymax)
        Bounding box in abstract length units.
    resolution : (nx, ny)
        Cells per axis; at least 2 per axis.
    inside_predicate : callable or None
        Vectorized predicate ``f(X, Y) -> bool array`` evaluated at cell
        centers. ``None`` marks every cell inside: one component, unchecked.

    Raises
    ------
    EmptyDomain
        If no cell center satisfies the predicate.
    DisconnectedDomain
        If the inside cells split into more than one 4-connected component.

    A predicate's mask is checked by ``count_components``: the row runs of
    inside cells are merged, with union-find, wherever two runs in adjacent
    rows share a column, so diagonal contact does not join components.
    """
    check_resolution(resolution)
    check_bbox(bbox)
    xmin, ymin, xmax, ymax = (float(v) for v in bbox)
    nx, ny = int(resolution[0]), int(resolution[1])
    grid = DomainGrid(bbox=(xmin, ymin, xmax, ymax), nx=nx, ny=ny,
                      inside=np.ones((ny, nx), dtype=bool))
    if inside_predicate is not None:
        X, Y = grid.cell_centers()
        mask = np.asarray(inside_predicate(X, Y), dtype=bool)
        if mask.shape != (ny, nx):
            raise InvalidInput(f"inside predicate returned shape {mask.shape}, expected {(ny, nx)}")
        grid = DomainGrid(bbox=grid.bbox, nx=nx, ny=ny, inside=mask)
        if grid.n_inside == 0:
            raise EmptyDomain("inside predicate marked no cell")
        n_components = count_components(mask)
        if n_components > 1:
            raise DisconnectedDomain(f"inside mask has {n_components} 4-connected components")
    grid.inside.setflags(write=False)
    return grid


def check_resolution(resolution) -> None:
    """Raise InvalidInput unless ``(nx, ny)`` are two integers, each at least 2."""
    if not (np.shape(resolution) == (2,) and all(map(is_integer, resolution))):
        raise InvalidInput(f"resolution must be two integers (nx, ny), got {resolution!r}")
    nx, ny = resolution
    if nx < 2 or ny < 2:
        raise InvalidInput(f"resolution must be at least 2 per axis, got {nx}x{ny}")


def check_bbox(bbox) -> None:
    """Raise InvalidInput unless ``(x0, y0, x1, y1)`` is finite and spans some area."""
    x0, y0, x1, y1 = bbox = tuple(float(v) for v in bbox)
    if not (x0 < x1 and y0 < y1 and all(map(math.isfinite, bbox))):
        raise InvalidInput(f"degenerate bbox {bbox}: must be finite with x0 < x1 "
                           "and y0 < y1")


def count_components(mask) -> int:
    """Number of 4-connected components of the True cells of a 2-D mask.

    Each row's maximal runs of True cells are nodes; two runs in adjacent
    rows are joined when they share a column (cells touching only at a
    corner are not). The count is the number of union-find roots.
    """
    mask = np.asarray(mask, dtype=bool)
    left = np.zeros_like(mask)
    left[:, 1:] = mask[:, :-1]
    starts = mask & ~left
    # run index of every True cell, numbered in raster order
    run = np.cumsum(starts, axis=None).reshape(mask.shape) - 1
    n_runs = int(np.count_nonzero(starts))
    below = mask[:-1] & mask[1:]
    upper, lower = run[:-1][below], run[1:][below]
    # the columns two runs share are adjacent in raster order: keep one link
    new_link = np.ones(upper.shape, dtype=bool)
    new_link[1:] = (upper[1:] != upper[:-1]) | (lower[1:] != lower[:-1])

    parent = list(range(n_runs))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]   # path halving
            i = parent[i]
        return i

    count = n_runs
    for a, b in zip(upper[new_link].tolist(), lower[new_link].tolist()):
        a, b = root(a), root(b)
        if a != b:
            parent[b] = a
            count -= 1
    return count


@dataclass(frozen=True)
class Site:
    """A business district: an indexed point with labor productivity."""

    id: int
    position: tuple[float, float]
    productivity: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.productivity) and self.productivity > 0):
            raise InvalidInput(f"site {self.id}: productivity must be finite and > 0, got {self.productivity}")
        position = tuple(self.position) if np.iterable(self.position) else ()
        if not (len(position) == 2 and all(isinstance(c, numbers.Real) for c in position)):
            raise InvalidInput(f"site {self.id}: position must be two numbers, got {self.position!r}")
        if not all(math.isfinite(c) for c in position):
            raise InvalidInput(f"site {self.id}: non-finite position {self.position}")


def site_positions(sites) -> np.ndarray:
    """Stack site positions into an (n, 2) array."""
    return np.array([s.position for s in sites], dtype=float)


def site_productivities(sites) -> np.ndarray:
    return np.array([s.productivity for s in sites], dtype=float)


@dataclass(frozen=True)
class DistanceSystem:
    """Family of per-site distance functions d_i(x).

    ``euclidean`` uses the plain Euclidean distance for every site;
    ``scaled_euclidean`` multiplies it by a per-site factor s_i > 0 (so the
    family is generally asymmetric: d_i(y_j) != d_j(y_i) when scales differ).
    """

    kind: str = "euclidean"
    scales: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("euclidean", "scaled_euclidean"):
            raise InvalidInput(f"unknown distance system kind {self.kind!r}")
        if self.kind == "scaled_euclidean":
            if self.scales is None or not all(0 < s < math.inf for s in self.scales):
                raise InvalidInput("scaled_euclidean needs positive per-site "
                                   f"scales, each finite, got {self.scales}")
        elif self.scales is not None:
            raise InvalidInput("scales apply only to the scaled_euclidean metric")

    def check_site_count(self, n: int) -> None:
        """Raise InvalidInput unless a scaled metric has one scale per site."""
        if self.scales is not None and len(self.scales) != n:
            raise InvalidInput(f"{n} sites but {len(self.scales)} metric scales")

    def scale_of(self, i: int) -> float:
        if self.kind == "euclidean":
            return 1.0
        return float(self.scales[i])

    def lipschitz_constants(self) -> tuple[float, float]:
        """Lower/upper constants (c, C) bounding d_i against Euclidean distance."""
        if self.kind == "euclidean":
            return 1.0, 1.0
        return float(min(self.scales)), float(max(self.scales))

    def distance(self, site: Site, i: int, X, Y):
        """Evaluate d_i at points (vectorized over X, Y arrays)."""
        sx, sy = site.position
        dxv = X - sx
        dyv = Y - sy
        d = np.sqrt(dxv * dxv + dyv * dyv)
        s = self.scale_of(i)
        if s != 1.0:
            d = d * s
        return d


def cross_distances(sites, system: DistanceSystem) -> np.ndarray:
    """Matrix d[i, j] = d_i(y_j), distance from district i's metric to district j."""
    pos = site_positions(sites)
    diff = pos[:, None, :] - pos[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    if system.kind == "scaled_euclidean":
        d = d * np.asarray(system.scales, dtype=float)[:, None]
    return d


@dataclass(frozen=True, eq=False)
class Tessellation:
    """Additively weighted Voronoi tessellation on a raster grid.

    Each inside cell carries the index of the site minimizing d_i(x) - w_i at
    the cell center (ties to the lowest index); outside cells carry OUTSIDE.
    ``own_distance`` holds d_label(x) at the inside cells, in raster order.
    """

    grid: DomainGrid
    sites: tuple[Site, ...]
    system: DistanceSystem
    labels: np.ndarray           # int32 (ny, nx), OUTSIDE for cells not in the domain
    cell_measure: np.ndarray     # (n,)
    own_distance: np.ndarray = field(repr=False)  # (n_inside,)

    @classmethod
    def from_labels(cls, grid: DomainGrid, sites, system: DistanceSystem,
                    labels, distances) -> Tessellation:
        """The tessellation whose cells carry ``labels`` (OUTSIDE off the
        domain), with own distances read from the ``distance_stack``
        ``distances``; ``labels`` is made read-only."""
        inside_labels = labels[grid.inside]
        cell_measure = np.bincount(inside_labels, minlength=len(sites)) * grid.cell_area
        own_distance = _own_distance(inside_labels, grid, distances)
        labels.setflags(write=False)
        own_distance.setflags(write=False)
        return cls(grid=grid, sites=tuple(sites), system=system, labels=labels,
                   cell_measure=cell_measure, own_distance=own_distance)

    @property
    def active_set(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.cell_measure > 0))

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @cached_property
    def neighbors(self) -> tuple[frozenset, ...]:
        """Per site, the sites whose cells share a raster edge with its cell."""
        adjacent = np.zeros((self.n_sites, self.n_sites), dtype=bool)
        for _, low, high, _, _ in raster_interfaces(self.labels):
            adjacent[low, high] = adjacent[high, low] = True
        return tuple(frozenset(np.flatnonzero(row).tolist()) for row in adjacent)


def raster_interfaces(labels):
    """Every raster edge between two inside cells with different labels.

    Yields ``(axis, low, high, iy, ix)`` once per axis: ``axis`` 0 for the
    vertical edges between horizontal neighbours (edge normal along x), then
    1 for the horizontal edges between vertical neighbours (normal along y);
    the labels of the left/low and right/high cell; and the (iy, ix) of the
    left/low cell, all in raster order.
    """
    for axis, low, high in ((0, labels[:, :-1], labels[:, 1:]),
                            (1, labels[:-1, :], labels[1:, :])):
        edge = (low != high) & (low != OUTSIDE) & (high != OUTSIDE)
        iy, ix = np.nonzero(edge)
        yield axis, low[edge], high[edge], iy, ix


def _check_distinct_positions(sites):
    seen = {}
    for s in sites:
        key = (float(s.position[0]), float(s.position[1]))
        if key in seen:
            raise CoincidentSites(
                f"sites {seen[key]} and {s.id} share position {key}")
        seen[key] = s.id


def distance_stack(grid: DomainGrid, sites, system: DistanceSystem) -> np.ndarray:
    """Read-only (n, ny, nx) stack of d_i at the cell centers; rejects coincident sites."""
    sites = tuple(sites)
    _check_distinct_positions(sites)
    xs, ys = grid.cell_center_axes()
    stack = np.empty((len(sites), grid.ny, grid.nx))
    for i, (plane, s) in enumerate(zip(stack, sites)):
        dxv, dyv = xs - s.position[0], ys - s.position[1]   # as in DistanceSystem.distance
        np.sqrt(np.add((dyv * dyv)[:, None], dxv * dxv, out=plane), out=plane)
        if system.scale_of(i) != 1.0:
            plane *= system.scale_of(i)
    stack.setflags(write=False)
    return stack


def _own_distance(inside_labels, grid: DomainGrid, distances) -> np.ndarray:
    """d_label of each inside cell, in raster order, from the
    ``distance_stack`` ``distances`` and the inside cells' labels."""
    return np.take(distances, inside_labels.astype(np.intp) * grid.inside.size
                   + np.flatnonzero(grid.inside))


def _checked_weights(weights, n: int) -> np.ndarray:
    """``weights`` as floats: InvalidInput unless one per site,
    NonFiniteWeight unless all finite."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise InvalidInput(f"expected {n} weights, got shape {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise NonFiniteWeight(f"weights contain non-finite entries: {weights}")
    return weights


def _first_min_labels(distances, weights, gap=False):
    """Per column of ``distances[i]``, the first i minimizing d_i - w_i
    (int32); with ``gap``, also the column's cost gap from that minimum to
    the runner-up (inf for one site).

    A running minimum whose strict < keeps ties with the lowest index,
    exactly as argmin over the stacked costs would; the runner-up is the
    running second minimum of the same costs.
    """
    labels = np.zeros(distances.shape[1:], dtype=np.int32)
    best = distances[0] - weights[0]
    cost = np.empty_like(best)
    second = np.full_like(best, np.inf) if gap else None
    for i in range(1, len(distances)):
        np.subtract(distances[i], weights[i], out=cost)
        np.copyto(labels, i, where=cost < best)
        if gap:
            np.minimum(second, cost, out=second)
            np.maximum(second, best, out=second)
        np.minimum(best, cost, out=best)
    if not gap:
        return labels
    second -= best
    return labels, second


def assign_labels(grid: DomainGrid, sites, system: DistanceSystem, weights,
                  distances=None) -> Tessellation:
    """Label every inside cell with the site minimizing d_i(x) - w_i.

    Ties are broken toward the lowest site index; adding a common constant to
    all weights leaves the labeling unchanged. ``distances`` is the sites'
    ``distance_stack``, built here when not given.
    """
    sites = tuple(sites)
    if not sites:
        raise InvalidInput("assign_labels needs at least one site")
    if distances is None:
        distances = distance_stack(grid, sites, system)
    weights = _checked_weights(weights, len(sites))
    labels = _first_min_labels(distances, weights)
    labels[~grid.inside] = OUTSIDE
    return Tessellation.from_labels(grid, sites, system, labels, distances)


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-ordered-pair classification of a weight vector.

    A pair (i, j) is ``interior`` when w_i - w_j stays within the k-shrunk
    band (-k d_j(y_i), k d_i(y_j)), ``boundary`` when inside the full open
    band but outside the shrunk one, and ``infeasible`` otherwise (site j's
    cell is empty or about to be).
    """

    pairs: dict
    verdict: str

    _STATUSES = ("interior", "boundary", "infeasible")   # best to worst


def is_integer(value) -> bool:
    """Whether ``value`` is an integer and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(name: str, value, least: int) -> None:
    """Raise InvalidInput unless ``value`` is an integer >= ``least``: the
    rule for seeds (``least`` 0) and counts (sites, starts, samples, steps)."""
    if not is_integer(value):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if not value >= least:
        raise InvalidInput(f"{name} must be >= {least}, got {value}")


def check_positive(name: str, value: float) -> None:
    """Raise InvalidInput unless ``value`` is finite and > 0."""
    if not value > 0:
        raise InvalidInput(f"{name} must be > 0, got {value}")
    if math.isinf(value):
        raise InvalidInput(f"{name} must be finite, got {value}")


def check_k_shrink(k: float) -> None:
    """Raise InvalidInput unless k is in (0, 1), as the shrunk set Λ^k needs."""
    if not 0 < k < 1:
        raise InvalidInput(f"k_shrink must be in (0, 1), got {k}")


def _band_status(d, weights, k: float) -> np.ndarray:
    """Status of w_i - w_j for every ordered pair: 0 interior, 1 boundary,
    2 infeasible (0 on the diagonal). ``weights`` may hold one vector per row."""
    diff = weights[..., :, None] - weights[..., None, :]
    # feasible band for w_i - w_j is (-d_j(y_i), d_i(y_j))
    lo, hi = -d.T, d
    status = np.where((lo < diff) & (diff < hi),
                      np.where((k * lo < diff) & (diff < k * hi), 0, 1), 2)
    status[..., np.eye(len(d), dtype=bool)] = 0
    return status


def lambda_feasibility(sites, system: DistanceSystem, weights, k: float) -> FeasibilityReport:
    """Classify weight differences against the active-cell feasibility bands;
    ``weights`` are checked as ``assign_labels`` checks them."""
    check_k_shrink(k)
    sites = tuple(sites)
    status = _band_status(cross_distances(sites, system),
                          _checked_weights(weights, len(sites)), k)
    names = FeasibilityReport._STATUSES
    pairs = {(i, j): names[code] for i, row in enumerate(status.tolist())
             for j, code in enumerate(row) if i != j}
    return FeasibilityReport(pairs=pairs, verdict=names[int(status.max(initial=0))])


def sample_feasible_weights(sites, system: DistanceSystem, k_shrink: float,
                            count: int, seed) -> list[np.ndarray]:
    """``count`` seeded weight vectors that ``lambda_feasibility`` marks interior.

    Draws uniformly from the box |w_i| < k_shrink * d_min / 2, d_min the
    smallest off-diagonal ``cross_distances`` entry or 0 with no pair (one
    site draws [0.0]), and rejects vectors that are not interior; the draws
    and their order depend only on ``seed``. A ``k_shrink`` outside (0, 1)
    raises InvalidInput before any draw, as does a ``count`` or ``seed``
    that ``check_count`` rejects; coincident sites, which no draw could
    separate, raise CoincidentSites.
    """
    check_k_shrink(k_shrink)
    check_count("count", count, 0)
    check_count("seed", seed, 0)
    sites = tuple(sites)
    _check_distinct_positions(sites)
    d = cross_distances(sites, system)
    off = d[~np.eye(len(sites), dtype=bool)]
    rng = np.random.default_rng(seed)
    half_box = 0.5 * k_shrink * (float(off.min()) if off.size else 0.0)
    samples = []
    while len(samples) < count:
        # the rows continue the stream exactly as one draw at a time would
        draws = rng.uniform(-half_box, half_box,
                            size=(count - len(samples), len(sites)))
        interior = _band_status(d, draws, k_shrink).max(axis=(1, 2)) == 0
        samples.extend(draws[interior])
    return samples
