"""Sufficient-condition checks, regime classification, and sweep maps.

Everything here reports *margins* of the sufficient conditions rather than
certified thresholds: the underlying constants have no closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .equilibrium import (
    CompositeParams,
    ModelParams,
    SolverOptions,
    _gammas,
    alpha_cutoff,
    check_sigma,
    composite_params,
    solve_weight_system,
    spillover_regime,
    variant_transform,
)
from .errors import HinterlandError, InvalidInput
from .fields import Geography, subset_geography
from .geometry import (
    assign_labels,
    check_count,
    cross_distances,
    sample_feasible_weights,
)
from .integrals import aggregate_amenities, semielasticity_sup


# ---------------------------------------------------------------------------
# regime classification

@dataclass(frozen=True)
class RegimeReport:
    """Where a parameter point sits in the location/labor regime diagram."""

    alpha: float
    beta: float
    sigma: float
    alpha_cutoff: float
    location_multiplicity: str   # "multiple" | "spread" | "knife_edge"
    gamma_ratio: float           # |gamma2 / gamma1|
    labor_uniqueness: bool
    reconciliation: bool


def classify_point(alpha: float, beta: float, sigma: float) -> RegimeReport:
    """Regime trichotomy from raw exponents (no parameter validation).

    ``beta`` is the congestion weight entering the composite constants; for
    the two-sector variant pass the variant-resolved value.
    """
    multiplicity = spillover_regime(alpha, sigma)
    gamma1, gamma2 = _gammas(alpha, beta, sigma)
    ratio = abs(gamma2 / gamma1) if gamma1 != 0.0 else math.inf
    unique = ratio < 1.0
    return RegimeReport(
        alpha=alpha, beta=beta, sigma=sigma, alpha_cutoff=alpha_cutoff(sigma),
        location_multiplicity=multiplicity, gamma_ratio=ratio,
        labor_uniqueness=unique,
        reconciliation=(multiplicity == "multiple") and unique)


def regime_classify(params: ModelParams) -> RegimeReport:
    """Classify a validated parameter point (variant-aware)."""
    eff = variant_transform(params)
    return classify_point(params.alpha, eff.congestion_weight, params.sigma)


# ---------------------------------------------------------------------------
# uniqueness condition

@dataclass(frozen=True)
class UniquenessCondition:
    lhs: float
    holds: bool
    eta_hat: float
    n_star: int


def uniqueness_condition(comp: CompositeParams, n_star: int,
                         eta_hat: float) -> UniquenessCondition:
    """Contraction bound for the weight map on an n_star-site active set.

    lhs combines the pure exponent ratio with the tessellation's sampled
    amenity semielasticity; lhs < 1 certifies (up to the sampling of
    eta_hat) a unique labor distribution on the active set.
    """
    check_count("n_star", n_star, 1)
    if eta_hat < 0:
        raise InvalidInput(f"eta_hat must be >= 0, got {eta_hat}")
    lhs = abs(comp.gamma_ratio) + comp.sigma_tilde * (
        2.0 * (n_star - 1) * abs(comp.phi1)
        + (2.0 * n_star - 1) * abs(comp.phi2)) * eta_hat
    return UniquenessCondition(lhs=lhs, holds=lhs < 1.0,
                               eta_hat=eta_hat, n_star=n_star)


# ---------------------------------------------------------------------------
# existence margins

@dataclass(frozen=True, eq=False)
class ExistenceReport:
    """Per-pair margins of the feasible-set self-mapping condition.

    margin[i, j] = rhs_ij - lhs_ij; the condition passes when all ordered
    pairs have nonnegative margins. ``precondition_holds`` is the necessary
    weight-decay vs trade-creep inequality: when it fails, margins cannot
    pass at any distance.
    """

    margins: np.ndarray
    min_margin: float
    passes: bool
    precondition_value: float
    precondition_holds: bool
    eta_hat: float
    interaction_radius: float
    trade_decay_rate: float


def _environment_trade_decay(geography: Geography) -> float:
    """Per-distance log trade-cost rate; exact for metric costs.

    For explicit matrices it is the max of log T_ij / d_i(y_j) — a
    conservative stand-in for the metric's tau (it bounds trade-access
    differences the same way the metric rate would).
    """
    trade = geography.trade
    if trade.origin == "from_metric":
        return trade.tau
    d = cross_distances(geography.sites, geography.system)
    off = ~np.eye(len(d), dtype=bool)
    return float((np.log(trade.values[off]) / d[off]).max(initial=0.0))


def existence_margins(geography: Geography, params: ModelParams,
                      k_shrink: float = 0.5,
                      eta_hat: float | None = None) -> ExistenceReport:
    """Margins of the condition keeping the weight map inside the band.

    lhs stacks the fundamental asymmetries (productivity and unweighted
    amenity-aggregate log ratios) plus the semielasticity spillover term;
    rhs is the net per-distance decay times the pair distance.
    """
    comp = composite_params(params, geography.productivities, geography.trade)
    eff = comp.effective
    # the distance stack rejects coincident sites before d divides anything
    tess0 = assign_labels(geography.grid, geography.sites, geography.system,
                          np.zeros(geography.n_sites), geography.distances)
    aggregates0 = aggregate_amenities(tess0, geography.amenity, eff.kernel)
    tau_rate = _environment_trade_decay(geography)

    if eta_hat is None:
        eta_hat = semielasticity_sup(geography, eff.kernel, k_shrink=k_shrink,
                                     unweighted=(tess0, aggregates0)).value
    log_B0 = aggregates0.log_B
    d = cross_distances(geography.sites, geography.system)
    radius = float(d.max(axis=1).min())
    log_abar = np.log(geography.productivities)

    st = comp.sigma_tilde
    sigma = params.sigma
    decay = abs(comp.weight_factor)
    creep = tau_rate * (sigma - 1.0)

    lhs = (st * (sigma - 1.0) * np.abs(log_abar[:, None] - log_abar[None, :])
           + st * abs(comp.phi1) * np.abs(log_B0[:, None] - log_B0[None, :])
           - 2.0 * eff.beta_eff * eta_hat * radius)
    margins = (decay - creep) * d - lhs
    np.fill_diagonal(margins, np.nan)
    finite = margins[~np.isnan(margins)]   # empty for one site: no pairs
    return ExistenceReport(
        margins=margins, min_margin=float(finite.min(initial=math.inf)),
        passes=bool((finite >= 0).all()),
        precondition_value=decay - creep, precondition_holds=decay > creep,
        eta_hat=eta_hat, interaction_radius=radius, trade_decay_rate=tau_rate)


# ---------------------------------------------------------------------------
# parameter sweeps

SWEEP_CATEGORIES = (
    "spread+unique", "spread+nonunique",
    "knife_edge+unique", "knife_edge+nonunique",
    "multiple+unique", "multiple+nonunique",
)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Regime categories over a rectangular parameter grid.

    ``kind`` is "alpha_beta" (y axis = beta, fixed sigma) or "alpha_sigma"
    (y axis = sigma, fixed beta). ``category[iy, ix]`` indexes into
    SWEEP_CATEGORIES; ``reports`` holds the full per-cell classification
    row-major. For alpha_sigma sweeps, ``boundary`` lists the exact
    (alpha, sigma) vertices of the knife-edge curve alpha = 1/(sigma-1).
    """

    kind: str
    x_values: np.ndarray         # alpha axis
    y_values: np.ndarray         # beta or sigma axis
    fixed: dict
    category: np.ndarray         # (ny, nx) int
    reports: tuple
    boundary: tuple


def _category_index(report: RegimeReport) -> int:
    base = {"spread": 0, "knife_edge": 2, "multiple": 4}[report.location_multiplicity]
    return base + (0 if report.labor_uniqueness else 1)


def check_axis_size(name: str, size: int) -> None:
    """Raise InvalidInput unless a sweep axis has at least 2 values."""
    if size < 2:
        raise InvalidInput(f"sweep {name} axis needs at least 2 strictly increasing values")


def sweep_axis(name: str, values) -> np.ndarray:
    """``values`` as a float array, once they make a sweep axis: at least 2,
    strictly increasing and, on the sigma axis, every value > 1."""
    axis = np.asarray(values, dtype=float)
    # an axis out of order counts as one with no increasing values
    check_axis_size(name, axis.size if (np.diff(axis) > 0).all() else 0)
    if name == "sigma":
        check_sigma(axis[0])   # the least value of an increasing axis
    return axis


def parameter_sweep(kind: str = "alpha_beta",
                    alphas=None, betas=None, sigmas=None,
                    sigma: float = 9.0, beta: float = -0.3) -> SweepResult:
    """Classify every cell of a 2-parameter grid.

    Defaults follow the desk-scale ranges documented in the README:
    alpha in [0, 0.6], beta in [-0.6, 0], sigma in [2, 12]. Each axis passes
    ``sweep_axis``, and the fixed ``sigma`` of an alpha_beta sweep must be > 1.
    """
    alphas = sweep_axis("alpha", alphas if alphas is not None
                        else np.linspace(0.0, 0.6, 61))
    if kind == "alpha_beta":
        check_sigma(sigma)
        ys = sweep_axis("beta", betas if betas is not None
                        else np.linspace(-0.6, 0.0, 61))
        fixed = {"sigma": float(sigma)}
        points = [(a, b, sigma) for b in ys for a in alphas]
    elif kind == "alpha_sigma":
        ys = sweep_axis("sigma", sigmas if sigmas is not None
                        else np.linspace(2.0, 12.0, 51))
        fixed = {"beta": float(beta)}
        points = [(a, beta, s) for s in ys for a in alphas]
    else:
        raise InvalidInput(f"unknown sweep kind {kind!r}")

    reports = tuple(classify_point(a, b, s) for (a, b, s) in points)
    category = np.array([_category_index(r) for r in reports],
                        dtype=np.int8).reshape(ys.size, alphas.size)
    if kind == "alpha_sigma":
        boundary = tuple((alpha_cutoff(s), float(s)) for s in ys)
    else:
        boundary = ((alpha_cutoff(sigma), float(sigma)),)
    return SweepResult(kind=kind, x_values=alphas, y_values=ys, fixed=fixed,
                       category=category, reports=reports, boundary=boundary)


def sweep_rows(result: SweepResult):
    """Flatten a sweep into CSV-ready dict rows (row-major over the grid)."""
    rows = []
    for r in result.reports:
        rows.append({
            "alpha": r.alpha, "beta": r.beta, "sigma": r.sigma,
            "multiplicity": r.location_multiplicity,
            "labor_unique": r.labor_uniqueness,
            "reconciliation": r.reconciliation,
            "gamma_ratio": r.gamma_ratio,
        })
    return rows


# ---------------------------------------------------------------------------
# multistart probe

@dataclass(frozen=True, eq=False)
class SolutionCluster:
    representative: np.ndarray   # weight differences vs the first site
    count: int
    residual: float
    welfare: float


@dataclass(frozen=True, eq=False)
class ProbeReport:
    clusters: tuple[SolutionCluster, ...]
    n_starts: int
    n_converged: int
    failures: tuple[tuple[int, str], ...]
    seed: int

    @property
    def unique_up_to_normalization(self) -> bool:
        return len(self.clusters) == 1 and self.n_converged > 0


CLUSTER_TOL = 1e-6   # sup-norm distance below which two fixed points are one


def multistart_probe(geography: Geography, params: ModelParams, y_star=None,
                     n_starts: int = 16, seed: int = 0,
                     options: SolverOptions = SolverOptions()) -> ProbeReport:
    """Solve from seeded random feasible starts and cluster the fixed points.

    The starts are drawn from the same shrunk set Λ^k as the solver's
    reprojection, ``options.k_shrink``; one site starts every solve at [0.0].
    Each start stops at the weight fixed point (``solve_weight_system``), so
    a converged start is one whose weight system converged; no market is
    solved, and a market that cannot converge fails no start.

    Clustering compares anchored weight differences in sup norm at
    CLUSTER_TOL; a single cluster is evidence (not proof) of uniqueness.
    """
    check_count("n_starts", n_starts, 1)
    sub = subset_geography(geography, y_star)
    starts = sample_feasible_weights(sub.sites, sub.system,
                                     options.k_shrink, n_starts, seed)

    clusters: list[SolutionCluster] = []
    failures = []
    for idx, w0 in enumerate(starts):
        try:
            sol = solve_weight_system(sub, params,
                                      options=replace(options, weights_init=w0))
        except HinterlandError as e:
            failures.append((idx, f"{type(e).__name__}: {e}"))
            continue
        diff = sol.weights - sol.weights[0]
        for k, c in enumerate(clusters):
            if np.abs(c.representative - diff).max() < CLUSTER_TOL:
                clusters[k] = replace(c, count=c.count + 1)
                break
        else:
            clusters.append(SolutionCluster(representative=diff, count=1,
                                            residual=sol.residuals["weights"],
                                            welfare=sol.welfare))
    return ProbeReport(clusters=tuple(clusters), n_starts=n_starts,
                       n_converged=n_starts - len(failures),
                       failures=tuple(failures), seed=seed)
