"""Equilibrium solvers for districts on weighted-Voronoi commuting areas.

The weight system is solved in transformed coordinates where the welfare
scalar drops out, anchored at the first site by one solve for a given
active set and at the knife edge alike; welfare, labor masses, wages, and
prices are then recovered in original variables from the population
constraint and the gravity trade block. Both fixed points (anchored
weights, log wages) run through one driver, ``_iterate``: Newton steps
with each map's exact Jacobian, the weights' with the labels held,
safeguarded by the damped step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateConstantRecovery,
    DegenerateGamma1,
    EmptyCellInSum,
    InvalidInput,
    InvalidVariantParams,
    LeftFeasibleSet,
    NotConverged,
    ZeroLabor,
)
from .fields import Geography, TradeCostMatrix, subset_geography
from .geometry import (
    Tessellation,
    assign_labels,
    check_count,
    check_k_shrink,
    check_positive,
    cross_distances,
)
from .integrals import (
    CellAggregates,
    KernelSpec,
    NarrowBand,
    _logsumexp,
    aggregate_amenities,
)


# ---------------------------------------------------------------------------
# parameters and variants

@dataclass(frozen=True)
class Baseline:
    kind: str = field(default="baseline", init=False)


@dataclass(frozen=True)
class HomeConsumption:
    """Goods are shipped to and consumed at the residence.

    Commuting and trade frictions then compound: the effective distance
    decay on residential choices is delta + tau.
    """

    kind: str = field(default="home_consumption", init=False)


@dataclass(frozen=True)
class TwoSector:
    """Manufacturing districts fed by an agricultural hinterland.

    ``mu`` is the manufacturing expenditure share; ``beta`` the (negative)
    returns-to-labor exponent in agriculture.
    """

    mu: float
    beta: float
    kind: str = field(default="two_sector", init=False)


def check_sigma(sigma: float) -> None:
    """Raise InvalidInput unless sigma > 1, where the cutoff 1/(sigma-1) is > 0."""
    if not sigma > 1:
        raise InvalidInput(f"sigma must be > 1, got {sigma}")


def alpha_cutoff(sigma: float) -> float:
    """The knife-edge spillover level 1/(sigma-1)."""
    return 1.0 / (sigma - 1.0)


@dataclass(frozen=True)
class ModelParams:
    """Structural parameters shared by all solvers."""

    sigma: float
    alpha: float
    beta: float
    delta: float
    tau: float = 0.0
    total_labor: float = 1.0
    variant: Baseline | HomeConsumption | TwoSector = Baseline()

    def __post_init__(self):
        for name in ("sigma", "alpha", "beta", "delta", "tau", "total_labor"):
            if math.isinf(value := getattr(self, name)):
                raise InvalidInput(f"{name} must be finite, got {value}")
        check_sigma(self.sigma)
        if not self.alpha > -1:
            raise InvalidInput(f"alpha must be > -1, got {self.alpha}")
        if not self.delta > 0:
            raise InvalidInput(f"delta must be > 0, got {self.delta}")
        if not self.tau >= 0:
            raise InvalidInput(f"tau must be >= 0, got {self.tau}")
        kind = self.variant.kind
        if self.tau != 0 and kind != "home_consumption":
            raise InvalidInput(f"tau applies only to the home_consumption "
                               f"variant, got {self.tau} under {kind}")
        if not self.total_labor > 0:
            raise InvalidInput(f"total_labor must be > 0, got {self.total_labor}")
        if kind in ("baseline", "home_consumption") and not self.beta < 0:
            raise InvalidInput(f"beta must be < 0, got {self.beta}")
        if kind == "two_sector":
            if not 0 < self.variant.mu < 1:
                raise InvalidVariantParams(f"mu must be in (0, 1), got {self.variant.mu}")
            if not -math.inf < self.variant.beta < 0:
                raise InvalidVariantParams(
                    f"agricultural beta must be finite and < 0, got {self.variant.beta}")


#: Distance from the cutoff 1/(sigma-1) within which alpha is the knife edge.
KNIFE_EDGE_TOL = 1e-12


def spillover_regime(alpha: float, sigma: float) -> str:
    """Regime of alpha against the cutoff 1/(sigma-1): "knife_edge" within
    KNIFE_EDGE_TOL, else "multiple" above or "spread" below."""
    cutoff = alpha_cutoff(sigma)
    if abs(alpha - cutoff) <= KNIFE_EDGE_TOL:
        return "knife_edge"
    return "multiple" if alpha > cutoff else "spread"


def is_knife_edge(alpha: float, sigma: float) -> bool:
    """Whether alpha sits at the knife-edge spillover level 1/(sigma-1)."""
    return spillover_regime(alpha, sigma) == "knife_edge"


@dataclass(frozen=True)
class EffectiveSystem:
    """Variant-resolved constants the solver consumes; ``variant_transform``
    is their one owner.

    ``weight_decay`` multiplies the weight inside labor-supply exponents.
    The lift gives district i the population share of its term
    t_i = −(log B_i + weight_decay·ν_i)/β_eff, so labor is L·exp(t_i − log S)
    with log S the log-sum-exp of the terms; with x = log L − log S it sets
    λ = ν + level_shift·x and log V = welfare_slope·x + welfare_offset.
    ``welfare_weights`` weigh log B_i, log(w_i/p_i) and log L_i in district
    i's log V, up to a constant.
    """

    kernel: KernelSpec
    beta_eff: float
    weight_decay: float
    congestion_weight: float      # the slot the composite formulas use for β
    level_shift: float
    welfare_slope: float
    welfare_offset: float
    welfare_weights: tuple[float, float, float]
    original_rows: bool           # recovered λ solves the untransformed weight rows


def variant_transform(params: ModelParams) -> EffectiveSystem:
    """Resolve the model variant into effective kernel and recovery constants."""
    v = params.variant
    if v.kind in ("baseline", "home_consumption"):
        decay = params.delta + params.tau   # tau is 0 unless home_consumption
        return EffectiveSystem(
            kernel=KernelSpec(beta_eff=params.beta, distance_coeff=decay),
            beta_eff=params.beta, weight_decay=decay,
            congestion_weight=params.beta, level_shift=params.alpha / decay,
            welfare_slope=params.alpha + params.beta, welfare_offset=0.0,
            welfare_weights=(1.0, 1.0, params.beta), original_rows=True)
    if v.kind == "two_sector":
        mu, beta_t = v.mu, v.beta
        return EffectiveSystem(
            kernel=KernelSpec(beta_eff=beta_t,
                              distance_coeff=params.delta * (mu - beta_t * (1 - mu))),
            beta_eff=beta_t, weight_decay=params.delta * mu,
            congestion_weight=(1 - mu) / mu * beta_t, level_shift=0.0,
            welfare_slope=-beta_t, welfare_offset=beta_t * math.log(mu / (1 - mu)),
            welfare_weights=(1 - mu, mu, beta_t * (1 - mu)), original_rows=False)
    raise InvalidVariantParams(f"unknown variant {v!r}")


@dataclass(frozen=True, eq=False)
class CompositeParams:
    """Derived constants of the weight system for one active-site set."""

    sigma_tilde: float
    gamma1: float
    gamma2: float
    phi1: float
    phi2: float
    weight_scale: float   # multiplies λ inside the system's exponents
    weight_factor: float  # weight_scale·γ1, the factor λ̃ = weight_factor·λ
    log_K: np.ndarray     # (n, n) log of the trade-productivity kernel
    effective: EffectiveSystem
    sigma: float
    alpha: float

    @property
    def gamma_ratio(self) -> float:
        return self.gamma2 / self.gamma1


def _gammas(alpha: float, b: float, sigma: float) -> tuple[float, float]:
    """(gamma1, gamma2) of the weight system at congestion weight ``b``."""
    return (1.0 - (sigma - 1.0) * alpha - sigma * b,
            1.0 + sigma * alpha + (sigma - 1.0) * b)


def composite_params(params: ModelParams, productivities,
                     trade: TradeCostMatrix) -> CompositeParams:
    """Assemble the composite constants and the pairwise kernel matrix."""
    eff = variant_transform(params)
    sigma, alpha = params.sigma, params.alpha
    b = eff.congestion_weight
    sigma_tilde = (sigma - 1.0) / (2.0 * sigma - 1.0)
    gamma1, gamma2 = _gammas(alpha, b, sigma)
    phi1 = (1.0 - (sigma - 1.0) * alpha) / eff.beta_eff
    phi2 = -(1.0 + sigma * alpha) / eff.beta_eff
    if abs(gamma1) < 1e-12:
        raise DegenerateGamma1(
            f"gamma1 = {gamma1:.3g} at sigma={sigma}, alpha={alpha}, "
            f"congestion={b}; the weight system degenerates")
    weight_scale = -(eff.weight_decay / eff.beta_eff) * sigma_tilde

    log_abar = np.log(np.asarray(productivities, dtype=float))
    log_K = ((1.0 - sigma) * np.log(trade.values)
             + sigma_tilde * (sigma - 1.0) * log_abar[:, None]
             + sigma_tilde * sigma * log_abar[None, :])
    log_K.setflags(write=False)
    return CompositeParams(sigma_tilde=sigma_tilde, gamma1=gamma1, gamma2=gamma2,
                           phi1=phi1, phi2=phi2, weight_scale=weight_scale,
                           weight_factor=weight_scale * gamma1, log_K=log_K,
                           effective=eff, sigma=sigma, alpha=alpha)


# ---------------------------------------------------------------------------
# transformed weight map

def _tessellate(lam_t, comp: CompositeParams, geography: Geography) -> Tessellation:
    """Labels at the original-variable weights λ̃ / weight_factor."""
    return assign_labels(geography.grid, geography.sites, geography.system,
                         lam_t / comp.weight_factor,
                         geography.distances)


def _lse_softmax(t):
    """Row log-sum-exps of ``t`` and their derivative, the row softmax."""
    lse = _logsumexp(t, axis=1)
    return lse, np.exp(t - lse[:, None])


def _weight_terms(lam_t, comp: CompositeParams, agg: CellAggregates):
    """The log-sum-exp terms of g at λ̃ over the active columns of ``agg``."""
    active = agg.active
    return (comp.log_K[:, active]
            + comp.sigma_tilde * comp.phi2 * agg.log_B[None, active]
            + comp.gamma_ratio * lam_t[None, active])


def transformed_weight_map(lam_t, comp: CompositeParams, geography: Geography,
                           active_only: bool = False, band: NarrowBand | None = None):
    """One evaluation of the transformed weight map g at λ̃.

    Returns (g, aggregates, S): the sums over ``_tessellate(lam_t, ...)``,
    and S the row softmax of g's log-sum-exp terms (``_weight_terms``) on
    the active columns and zero on the others, for ``_weight_jacobian``.
    With ``active_only`` the sums skip terms of empty cells (the all-sites
    system); otherwise an empty cell raises EmptyCellInSum. Without a
    ``band`` (a NarrowBand of this geography and kernel), a full pass.
    """
    lam_t = np.asarray(lam_t, dtype=float)
    if band is None:
        agg = aggregate_amenities(_tessellate(lam_t, comp, geography),
                                  geography.amenity, comp.effective.kernel)
    else:
        agg = band.aggregates(lam_t / comp.weight_factor)
    active = agg.active
    if not active_only and not active.all():
        raise EmptyCellInSum(
            f"sites {np.flatnonzero(~active).tolist()} have empty cells at "
            "the current weights")
    own = np.zeros(len(lam_t))
    own[active] = comp.sigma_tilde * comp.phi1 * agg.log_B[active]
    S = np.zeros((len(lam_t), len(lam_t)))
    lse, S[:, active] = _lse_softmax(_weight_terms(lam_t, comp, agg))
    return own + lse, agg, S


def _weight_jacobian(S, comp: CompositeParams):
    """∂G of the anchored map G = g − g_0 at λ̃ with the labels held, where
    the map is smooth: (γ2/γ1)·(S − 1·S_0ᵀ), with S the map's row softmax."""
    return comp.gamma_ratio * (S - S[0])


# ---------------------------------------------------------------------------
# iteration driver

DAMPING = 0.5         # weight β of the damped step, in every fixed point
PIVOT_DROP = 1e-12    # relative pivot below which an elimination gives up


def _solve_linear(A, b):
    """x with A·x = b by Gaussian elimination with partial pivoting, in sums
    of products (a first BLAS or LAPACK call alone raises peak RSS); None at
    a pivot below PIVOT_DROP times the largest |A_ij|."""
    rows = np.column_stack([A, b]).tolist()
    n = len(rows)
    floor = PIVOT_DROP * float(np.abs(A).max())
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))   # the first largest
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        if not abs(pivot[k]) > floor:
            return None
        for row in rows[k + 1:]:
            c = row[k] / pivot[k]
            for j in range(k, n + 1):
                row[j] -= c * pivot[j]
    x = [0.0] * n
    for k in reversed(range(n)):  # back substitution
        row, total = rows[k], rows[k][n]
        for j in range(k + 1, n):
            total -= row[j] * x[j]
        x[k] = total / row[k]
    return np.array(x)


def _iterate(evaluate, x, tol, max_iter, what, *, jacobian, project=lambda x: x,
             leave=None):
    """Fixed point of G by Newton steps, safeguarded by the damped step.

    ``evaluate(x)`` returns ``(G(x), ...)`` and ``jacobian(out)`` gives ∂G at
    x from ``out = evaluate(x)``. Each step solves (∂G − I)·dx = −f, with
    f = G(x) − x, then applies ``project``. The damped step x + DAMPING·f
    from the same point replaces it on a near-zero pivot or a non-finite dx,
    and when the Newton iterate's evaluation raises EmptyCellInSum or its
    max|f| is not below the current one. A damped step that empties a cell
    is an exit: the first moves to ``leave(x)``, a second raises
    LeftFeasibleSet. Stops at max|f| < tol; returns
    ``(x, evaluate(x), next step, evaluations, exits)``.
    """
    fallback, exits, step = None, 0, math.inf
    for iteration in range(1, max_iter + 1):
        try:
            out = evaluate(x)
        except EmptyCellInSum:
            if fallback is not None:  # a rejected Newton iterate
                x, fallback = project(fallback), None
                continue
            exits += 1
            if exits > 1:
                raise LeftFeasibleSet(
                    f"weights left the feasible set twice (iteration {iteration})")
            x = leave(x)
            continue
        f = out[0] - x
        new_step = float(np.abs(f).max())
        if fallback is not None and not new_step < step:
            x, fallback = project(fallback), None  # a rejected Newton iterate
            continue
        step = new_step
        nxt, fallback = x + DAMPING * f, None
        dx = _solve_linear(jacobian(out) - np.eye(len(x)), -f)
        if dx is not None and np.isfinite(dx).all():
            nxt, fallback = x + dx, nxt
        if step < tol:
            return x, out, project(nxt), iteration, exits
        x = project(nxt)
    raise NotConverged(what, max_iter, step)


# ---------------------------------------------------------------------------
# solutions

@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-12
    max_iter: int = 2000
    k_shrink: float = 0.5
    weights_init: np.ndarray | None = None   # original-variable differences

    def __post_init__(self):
        check_positive("tol", self.tol)
        check_count("max_iter", self.max_iter, 1)
        check_k_shrink(self.k_shrink)


@dataclass(frozen=True, eq=False)
class WeightSolution:
    """A converged weight system lifted to original variables, no market.
    Arrays align with ``site_ids``; inactive districts of an all-site solve
    carry zero labor; ``active_ids`` lists those with positive cells."""

    site_ids: tuple[int, ...]
    weights: np.ndarray
    welfare: float
    labor: np.ndarray
    B: np.ndarray
    residuals: dict      # "weights", "weights_transformed"
    iterations: int
    exited_feasible: bool
    variant_kind: str
    tessellation: Tessellation
    aggregates: CellAggregates
    converged: bool

    @property
    def active_ids(self) -> tuple[int, ...]:
        return tuple(self.site_ids[i] for i in self.tessellation.active_set)


@dataclass(frozen=True, eq=False)
class EquilibriumSolution(WeightSolution):
    """A weight solution with the market block's wages and prices (NaN at
    inactive districts); ``residuals`` adds "market", "population" and
    "welfare_spread", the relative spread of per-district welfare."""

    wages: np.ndarray
    prices: np.ndarray
    market_iterations: int

    @property
    def real_wages(self) -> np.ndarray:
        return self.wages / self.prices


def _lift_weights(lam_t, comp: CompositeParams, geography: Geography,
                  params: ModelParams, tess: Tessellation, agg: CellAggregates,
                  *, iterations, exited_feasible,
                  transformed_residual: float) -> WeightSolution:
    """Lift a fixed point of the anchored map back to original variables:
    labor is each active district's share of the population constraint."""
    eff = comp.effective
    active = agg.active
    nu = lam_t / comp.weight_factor

    log_terms = np.full(len(nu), -np.inf)
    log_terms[active] = -(agg.log_B[active] + eff.weight_decay * nu[active]) / eff.beta_eff
    log_S = float(_logsumexp(log_terms))
    x = math.log(params.total_labor) - log_S
    lam = nu + eff.level_shift * x
    log_V = eff.welfare_slope * x + eff.welfare_offset
    residuals = {"weights": transformed_residual,
                 "weights_transformed": transformed_residual}
    if eff.original_rows:
        residuals["weights"] = _original_system_residual(lam, log_V, comp, agg)
    return WeightSolution(
        site_ids=tuple(s.id for s in geography.sites), weights=lam,
        welfare=math.exp(log_V), labor=params.total_labor * np.exp(log_terms - log_S),
        B=agg.B, residuals=residuals, iterations=iterations,
        exited_feasible=exited_feasible, variant_kind=params.variant.kind,
        tessellation=tess, aggregates=agg, converged=True)


def _solve_market(sol: WeightSolution, geography: Geography,
                  params: ModelParams, tol: float) -> EquilibriumSolution:
    """``sol`` with the market block solved to ``tol`` on its active sites,
    which ``subset_geography`` picks from ``geography`` by id."""
    active = sol.aggregates.active
    labor, L_total = sol.labor[active], params.total_labor
    market_geo = subset_geography(
        geography, [i for i, on in zip(sol.site_ids, active.tolist()) if on])
    m = market_equilibrium_solve(labor, market_geo.productivities,
                                 market_geo.trade, params, tol=tol)
    wages, prices = np.full((2, len(sol.labor)), np.nan)
    wages[active], prices[active] = m.wages, m.prices
    w_B, w_real, w_L = variant_transform(params).welfare_weights
    log_Vi = (w_B * np.log(sol.B[active]) + w_real * np.log(m.wages / m.prices)
              + w_L * np.log(labor))
    residuals = {**sol.residuals, "market": m.residual,
                 "population": abs(float(labor.sum()) - L_total) / L_total,
                 "welfare_spread": float(log_Vi.max() - log_Vi.min())}
    return EquilibriumSolution(**{**vars(sol), "residuals": residuals},
                               wages=wages, prices=prices,
                               market_iterations=m.iterations)


def _original_system_residual(lam, log_V, comp: CompositeParams,
                              agg: CellAggregates) -> float:
    """Sup-norm log residual of the untransformed weight system's active
    rows, whose terms are the map's at λ̃ = weight_factor·λ."""
    active = agg.active
    lam_t = comp.weight_factor * lam
    rhs = ((comp.sigma - 1.0) * comp.alpha / comp.effective.beta_eff * log_V
           + comp.sigma_tilde * comp.phi1 * agg.log_B[active]
           + _logsumexp(_weight_terms(lam_t, comp, agg)[active], axis=1))
    return float(np.abs(lam_t[active] - rhs).max())


def _reproject(lam_t, comp: CompositeParams, geography: Geography,
               k_shrink: float) -> np.ndarray:
    """Scale weight differences back inside the k-shrunk feasible set."""
    lam = lam_t / comp.weight_factor
    bound = k_shrink * cross_distances(geography.sites, geography.system)
    diff = lam[:, None] - lam[None, :]
    over = (diff > 0) & (diff > bound)   # never on the diagonal, where diff = 0
    return lam_t * min(1.0, (bound[over] / diff[over]).min(initial=1.0))


def _anchored_solve(sub: Geography, params: ModelParams, options: SolverOptions,
                    active_only: bool) -> WeightSolution:
    """The weight stage on ``sub``, anchored at its first site.

    ``_iterate`` runs the anchored map G(λ̃) = g(λ̃) − g_0(λ̃), whose G_0 = 0
    keeps the anchor at 0, with ``_weight_jacobian``. When |γ2/γ1| > 1 the
    elimination of a Newton step may pivot away from the anchor's row and
    leave a rounding error there, which the projection removes. An exit
    reprojects onto the shrunk feasible set. With ``active_only`` empty
    cells drop out of the sums, so no exit happens. The band gives the last
    evaluation's cells; then the normalization constant, welfare and labor
    masses are recovered (``_lift_weights``), but no market.
    """
    comp = composite_params(params, sub.productivities, sub.trade)
    w0 = np.asarray(options.weights_init if options.weights_init is not None
                    else np.zeros(sub.n_sites), dtype=float)
    denom = 1.0 - comp.gamma_ratio
    if abs(denom) < 1e-10:
        raise DegenerateConstantRecovery(
            f"gamma2/gamma1 = {comp.gamma_ratio:.12g}; the normalization "
            "constant is not recoverable")
    band = NarrowBand(sub, comp.effective.kernel)

    def evaluate(x):
        g, agg, S = transformed_weight_map(x, comp, sub, active_only=active_only,
                                           band=band)
        return g - g[0], g, agg, S

    lam_t, (_, g, agg, _), _, iterations, exits = _iterate(
        evaluate, (w0 - w0[0]) * comp.weight_factor,
        options.tol, options.max_iter,
        "knife-edge weights" if active_only else "weights",
        jacobian=lambda out: _weight_jacobian(out[3], comp),
        project=lambda x: x - x[0],
        leave=lambda x: _reproject(x, comp, sub, options.k_shrink))
    labels = band.last_labels()   # at lam_t, the last evaluation
    del band   # its columns and reference labels go before the own distances
    tess = Tessellation.from_labels(sub.grid, sub.sites, sub.system, labels,
                                    sub.distances)
    c = g[0] / denom
    lam_t_abs = lam_t + c
    residual = float(np.abs(lam_t_abs - (g + comp.gamma_ratio * c)).max())
    return _lift_weights(
        lam_t_abs, comp, sub, params, tess, agg,
        iterations=iterations, exited_feasible=exits > 0,
        transformed_residual=residual)


def solve_weight_system(geography: Geography, params: ModelParams,
                        y_star=None, options: SolverOptions = SolverOptions()
                        ) -> WeightSolution:
    """The lifted weight system on the active set ``y_star`` (all sites when
    None), anchored at its first site; an empty cell is an exit. No market."""
    return _anchored_solve(subset_geography(geography, y_star), params, options,
                           active_only=False)


def fixed_point_solve(geography: Geography, params: ModelParams,
                      y_star=None, options: SolverOptions = SolverOptions()
                      ) -> EquilibriumSolution:
    """``solve_weight_system``'s solution with its market solved."""
    return _solve_market(solve_weight_system(geography, params, y_star, options),
                         geography, params, options.tol)


def _solves_all_sites(params: ModelParams) -> bool:
    """The baseline at the knife edge, where the urban system is an outcome."""
    return params.variant.kind == "baseline" and is_knife_edge(params.alpha, params.sigma)


def solve_knife_edge_system(geography: Geography, params: ModelParams,
                            options: SolverOptions = SolverOptions()
                            ) -> EquilibriumSolution:
    """Solve the all-sites weight system at the knife-edge spillover level.

    Requires the baseline variant with ``is_knife_edge(alpha, sigma)``; alpha
    is snapped to the cutoff. Districts whose cells empty simply drop out of
    the sums, so the active set is an outcome, not an input; the first site
    stays the anchor."""
    cutoff = alpha_cutoff(params.sigma)
    if not _solves_all_sites(params):
        raise InvalidVariantParams(
            f"the all-sites solver needs the baseline at alpha = 1/(sigma-1) = "
            f"{cutoff!r}, got {params.variant.kind} at alpha = {params.alpha!r}")
    params = replace(params, alpha=cutoff)
    sol = _anchored_solve(geography, params, options, active_only=True)
    return _solve_market(sol, geography, params, options.tol)


def solve_equilibrium(geography: Geography, params: ModelParams,
                      options: SolverOptions = SolverOptions()
                      ) -> EquilibriumSolution:
    """The equilibrium ``params`` ask for on all of ``geography``'s sites: the
    all-sites system (``solve_knife_edge_system``) for the baseline at the
    knife edge, else city sizes on the given sites (``fixed_point_solve``)."""
    solve = solve_knife_edge_system if _solves_all_sites(params) else fixed_point_solve
    return solve(geography, params, options=options)


# ---------------------------------------------------------------------------
# market block

@dataclass(frozen=True, eq=False)
class MarketEquilibrium:
    wages: np.ndarray
    prices: np.ndarray
    iterations: int
    residual: float


MARKET_MAX_ITER = 100000   # log-wage map evaluations before NotConverged


def _market_jacobian(S, R, q, sigma):
    """∂G of the log-wage map: ∂u = (R + (σ−1)·R S)/σ of the wage update,
    with S and R the row softmaxes of its price and wage terms, projected
    by the numeraire's I − 1 qᵀ, with q the wage-bill shares."""
    du = (R + (sigma - 1.0) * (R[:, :, None] * S[None, :, :]).sum(axis=1)) / sigma
    return du - (q[:, None] * du).sum(axis=0)[None, :]


def market_equilibrium_solve(labor, productivities, trade: TradeCostMatrix,
                             params: ModelParams, tol: float = 1e-12
                             ) -> MarketEquilibrium:
    """Solve the wage/price-index gravity system for given labor masses.

    ``_iterate`` takes Newton steps on the log-wage map with its exact
    Jacobian, prices following wages, until max|G(log_w) − log_w| < tol;
    the numeraire sum(w_i L_i) = 1 pins the scale after each step.
    Productivities enter through the spillover A_i = productivities_i * L_i^alpha.
    """
    check_positive("tol", tol)
    labor = np.asarray(labor, dtype=float)
    if not np.isfinite(labor).all():
        raise InvalidInput(f"labor masses must be finite, got {labor}")
    if np.any(labor <= 0):
        raise ZeroLabor(f"labor masses must be positive, got {labor}")
    sigma = params.sigma
    log_L = np.log(labor)
    log_A = np.log(np.asarray(productivities, dtype=float)) + params.alpha * log_L
    M = (1.0 - sigma) * np.log(trade.values)

    def log_prices(log_w):
        # P_i^(1-sigma) = sum_j T_ji^(1-sigma) A_j^(sigma-1) w_j^(1-sigma)
        t = M.T + (sigma - 1.0) * log_A[None, :] + (1.0 - sigma) * log_w[None, :]
        lse, S = _lse_softmax(t)
        return lse / (1.0 - sigma), S

    def log_wage_update(log_w, log_P):
        # w_i^sigma L_i = A_i^(sigma-1) sum_j T_ij^(1-sigma) P_j^(sigma-1) w_j L_j
        t = M + (sigma - 1.0) * log_P[None, :] + (log_w + log_L)[None, :]
        lse, R = _lse_softmax(t)
        return ((sigma - 1.0) * log_A + lse - log_L) / sigma, R

    def numeraire(log_w):
        return log_w - _logsumexp(log_w + log_L)

    def evaluate(log_w):
        log_P, S = log_prices(log_w)
        u, R = log_wage_update(log_w, log_P)
        return numeraire(u), S, R

    _, _, log_w, iterations, _ = _iterate(
        evaluate, numeraire(np.zeros(len(labor))),  # start at equal wages
        tol, MARKET_MAX_ITER, "market", project=numeraire,
        jacobian=lambda out: _market_jacobian(out[1], out[2],
                                              np.exp(out[0] + log_L), sigma))
    log_P = log_prices(log_w)[0]
    return MarketEquilibrium(
        wages=np.exp(log_w), prices=np.exp(log_P), iterations=iterations,
        residual=float(np.abs(log_wage_update(log_w, log_P)[0] - log_w).max()))
