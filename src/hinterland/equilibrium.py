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
from .fields import Geography, TradeCostMatrix
from .geometry import Tessellation, assign_labels, check_k_shrink, cross_distances
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
            if not self.variant.beta < 0:
                raise InvalidVariantParams(
                    f"agricultural beta must be < 0, got {self.variant.beta}")


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
    """Variant-resolved constants the solver consumes.

    ``weight_decay`` multiplies the weight inside labor-supply exponents;
    ``welfare_exponent`` and ``log_labor_prefactor`` define the labor rule
    log L_i = log_pref + welfare_exponent*log V - (log B_i + decay*λ_i)/β_eff.
    """

    kernel: KernelSpec
    beta_eff: float
    weight_decay: float
    congestion_weight: float      # the slot the composite formulas use for β
    welfare_exponent: float
    log_labor_prefactor: float
    variant_kind: str


def variant_transform(params: ModelParams) -> EffectiveSystem:
    """Resolve the model variant into effective kernel and recovery constants."""
    v = params.variant
    if v.kind in ("baseline", "home_consumption"):
        decay = params.delta + params.tau   # tau is 0 unless home_consumption
        return EffectiveSystem(
            kernel=KernelSpec(beta_eff=params.beta, distance_coeff=decay),
            beta_eff=params.beta, weight_decay=decay,
            congestion_weight=params.beta,
            welfare_exponent=1.0 / params.beta, log_labor_prefactor=0.0,
            variant_kind=v.kind)
    if v.kind == "two_sector":
        mu, beta_t = v.mu, v.beta
        return EffectiveSystem(
            kernel=KernelSpec(beta_eff=beta_t,
                              distance_coeff=params.delta * (mu - beta_t * (1 - mu))),
            beta_eff=beta_t, weight_decay=params.delta * mu,
            congestion_weight=(1 - mu) / mu * beta_t,
            welfare_exponent=-1.0 / beta_t,
            log_labor_prefactor=math.log(mu / (1 - mu)),
            variant_kind=v.kind)
    raise InvalidVariantParams(f"unknown variant {v!r}")


@dataclass(frozen=True)
class CompositeParams:
    """Derived constants of the weight system for one active-site set."""

    sigma_tilde: float
    gamma1: float
    gamma2: float
    phi1: float
    phi2: float
    weight_scale: float   # multiplies λ inside the system's exponents
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
                           log_K=log_K, effective=eff, sigma=sigma, alpha=alpha)


# ---------------------------------------------------------------------------
# transformed weight map

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


def _tessellate(lam_t, comp: CompositeParams, geography: Geography) -> Tessellation:
    """Labels at the original-variable weights λ̃ / (weight_scale·γ1)."""
    return assign_labels(geography.grid, geography.sites, geography.system,
                         lam_t / (comp.weight_scale * comp.gamma1),
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

    Returns (g, aggregates), the sums over ``_tessellate(lam_t, ...)``. With
    ``active_only`` the sums skip terms of empty cells (the all-sites
    system); otherwise an empty cell raises EmptyCellInSum. Without a
    ``band`` (a NarrowBand of this geography and kernel), a full pass.
    """
    lam_t = np.asarray(lam_t, dtype=float)
    if band is None:
        agg = aggregate_amenities(_tessellate(lam_t, comp, geography),
                                  geography.amenity, comp.effective.kernel)
    else:
        agg = band.aggregates(lam_t / (comp.weight_scale * comp.gamma1))
    active = agg.active
    if not active_only and not active.all():
        raise EmptyCellInSum(
            f"sites {np.flatnonzero(~active).tolist()} have empty cells at "
            "the current weights")
    own = np.zeros(len(lam_t))
    own[active] = comp.sigma_tilde * comp.phi1 * agg.log_B[active]
    g = own + _logsumexp(_weight_terms(lam_t, comp, agg), axis=1)
    return g, agg


def _weight_jacobian(lam_t, comp: CompositeParams, agg: CellAggregates):
    """∂G of the anchored map G = g − g_0 at λ̃ with the labels held, where
    the map is smooth: (γ2/γ1)·(S − 1·S_0ᵀ), with S the row softmax of
    ``_weight_terms`` on the active columns and zero on the others."""
    S = np.zeros((len(lam_t), len(lam_t)))
    S[:, agg.active] = _lse_softmax(_weight_terms(lam_t, comp, agg))[1]
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
        p = k
        for i in range(k + 1, n):
            if abs(rows[i][k]) > abs(rows[p][k]):
                p = i
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
        if not self.tol > 0:
            raise InvalidInput(f"tol must be > 0, got {self.tol}")
        if not self.max_iter >= 1:
            raise InvalidInput(f"max_iter must be >= 1, got {self.max_iter}")
        check_k_shrink(self.k_shrink)


@dataclass(frozen=True)
class EquilibriumSolution:
    """A converged weight system with all recovered equilibrium objects.

    Arrays are aligned with ``site_ids``. For all-site solves, inactive
    districts carry zero labor and NaN wages/prices; ``active_ids`` lists
    the districts with positive commuting areas.
    """

    site_ids: tuple[int, ...]
    weights: np.ndarray
    welfare: float
    labor: np.ndarray
    wages: np.ndarray
    prices: np.ndarray
    B: np.ndarray
    residuals: dict
    iterations: int
    market_iterations: int
    converged: bool
    exited_feasible: bool
    variant_kind: str
    tessellation: Tessellation
    aggregates: CellAggregates

    @property
    def active_ids(self) -> tuple[int, ...]:
        return tuple(self.site_ids[i] for i in self.tessellation.active_set)

    @property
    def real_wages(self) -> np.ndarray:
        return self.wages / self.prices


def _recover_solution(lam_t, comp: CompositeParams, geography: Geography,
                      params: ModelParams, tess: Tessellation,
                      agg: CellAggregates, *, iterations, exited_feasible,
                      transformed_residual: float) -> EquilibriumSolution:
    """Lift a fixed point of the anchored map back to original variables."""
    eff = comp.effective
    active = agg.active
    nu = lam_t / (comp.weight_scale * comp.gamma1)
    L_total = params.total_labor

    # population-constraint sums run over active districts only
    log_terms = -(agg.log_B[active] + eff.weight_decay * nu[active]) / eff.beta_eff
    log_S = float(_logsumexp(log_terms))
    if eff.variant_kind == "two_sector":
        shift = 0.0
    else:
        shift = (params.alpha / eff.weight_decay) * (math.log(L_total) - log_S)
    lam = nu + shift
    log_S_final = log_S - (eff.weight_decay / eff.beta_eff) * shift
    log_V = (math.log(L_total) - eff.log_labor_prefactor - log_S_final) \
        / eff.welfare_exponent

    log_L = np.full(len(lam), -np.inf)
    log_L[active] = (eff.log_labor_prefactor + eff.welfare_exponent * log_V
                     - (agg.log_B[active] + eff.weight_decay * lam[active])
                     / eff.beta_eff)
    labor = np.exp(log_L)

    wages, prices = np.full((2, len(lam)), np.nan)
    act_idx = np.flatnonzero(active)
    sub_trade = TradeCostMatrix(values=geography.trade.values[np.ix_(act_idx, act_idx)],
                                origin=geography.trade.origin, tau=geography.trade.tau)
    market = market_equilibrium_solve(
        labor[active], geography.productivities[active], sub_trade, params)
    wages[active], prices[active] = market.wages, market.prices

    residuals = {
        "weights": transformed_residual,
        "weights_transformed": transformed_residual,
        "market": market.residual,
        "population": abs(float(labor[active].sum()) - L_total) / L_total,
        "welfare_spread": _welfare_spread(eff, params, agg.B[active],
                                          market.wages, market.prices,
                                          labor[active]),
    }
    if eff.variant_kind != "two_sector":
        residuals["weights"] = _original_system_residual(
            lam, log_V, comp, agg, active)

    return EquilibriumSolution(
        site_ids=tuple(s.id for s in geography.sites),
        weights=lam, welfare=math.exp(log_V), labor=labor,
        wages=wages, prices=prices, B=agg.B,
        residuals=residuals, iterations=iterations,
        market_iterations=market.iterations, converged=True,
        exited_feasible=exited_feasible,
        variant_kind=eff.variant_kind, tessellation=tess, aggregates=agg)


def _original_system_residual(lam, log_V, comp: CompositeParams,
                              agg: CellAggregates, active) -> float:
    """Sup-norm log residual of the untransformed weight system."""
    eff = comp.effective
    st = comp.sigma_tilde
    s = comp.weight_scale
    lhs = s * comp.gamma1 * lam[active]
    v_power = (comp.sigma - 1.0) * comp.alpha / eff.beta_eff
    sub = np.ix_(active, active)
    terms = (comp.log_K[sub] + st * comp.phi2 * agg.log_B[None, active]
             + s * comp.gamma2 * lam[None, active])
    rhs = (v_power * log_V + st * comp.phi1 * agg.log_B[active]
           + _logsumexp(terms, axis=1))
    return float(np.abs(lhs - rhs).max())


def _welfare_spread(eff: EffectiveSystem, params: ModelParams, B, wages,
                    prices, labor) -> float:
    """Relative spread of per-district welfare implied by the market block."""
    if eff.variant_kind == "two_sector":
        mu, beta_t = params.variant.mu, params.variant.beta
        ratio = (1 - mu) / mu
        log_Vi = (ratio * beta_t * math.log(ratio) + (1 - mu) * np.log(B)
                  + mu * np.log(wages / prices) + beta_t * (1 - mu) * np.log(labor))
    else:
        log_Vi = np.log(B) + np.log(wages / prices) + eff.beta_eff * np.log(labor)
    return float(log_Vi.max() - log_Vi.min())


def _reproject(lam_t, comp: CompositeParams, geography: Geography,
               k_shrink: float) -> np.ndarray:
    """Scale weight differences back inside the k-shrunk feasible set."""
    lam = lam_t / (comp.weight_scale * comp.gamma1)
    bound = k_shrink * cross_distances(geography.sites, geography.system)
    diff = lam[:, None] - lam[None, :]
    over = (diff > 0) & (diff > bound)   # never on the diagonal, where diff = 0
    return lam_t * min(1.0, (bound[over] / diff[over]).min(initial=1.0))


def _anchored_solve(sub: Geography, params: ModelParams, options: SolverOptions,
                    active_only: bool, what: str) -> EquilibriumSolution:
    """The weight solve on ``sub``, anchored at its first site.

    ``_iterate`` runs the anchored map G(λ̃) = g(λ̃) − g_0(λ̃), whose G_0 = 0
    keeps the anchor at 0, with ``_weight_jacobian``. When |γ2/γ1| > 1 the
    elimination of a Newton step may pivot away from the anchor's row and
    leave a rounding error there, which the projection removes. An exit
    reprojects onto the shrunk feasible set. With ``active_only`` empty
    cells drop out of the sums, so no exit happens. The last evaluation's
    cells are labelled once; then the normalization constant, welfare,
    labor masses and market are recovered.
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
        g, agg = transformed_weight_map(x, comp, sub, active_only=active_only,
                                        band=band)
        return g - g[0], g, agg, x

    lam_t, (_, g, agg, _), _, iterations, exits = _iterate(
        evaluate, (w0 - w0[0]) * (comp.weight_scale * comp.gamma1),
        options.tol, options.max_iter, what,
        jacobian=lambda out: _weight_jacobian(out[3], comp, out[2]),
        project=lambda x: x - x[0],
        leave=lambda x: _reproject(x, comp, sub, options.k_shrink))
    del band  # its columns go before the labelling pass
    c = g[0] / denom
    lam_t_abs = lam_t + c
    residual = float(np.abs(lam_t_abs - (g + comp.gamma_ratio * c)).max())
    return _recover_solution(
        lam_t_abs, comp, sub, params, _tessellate(lam_t, comp, sub), agg,
        iterations=iterations, exited_feasible=exits > 0,
        transformed_residual=residual)


def fixed_point_solve(geography: Geography, params: ModelParams,
                      y_star=None, options: SolverOptions = SolverOptions()
                      ) -> EquilibriumSolution:
    """Solve the weight system restricted to the active set ``y_star`` (all
    sites when None), anchored at its first site; an empty cell is an exit."""
    return _anchored_solve(subset_geography(geography, y_star), params, options,
                           active_only=False, what="weights")


def solve_knife_edge_system(geography: Geography, params: ModelParams,
                            options: SolverOptions = SolverOptions()
                            ) -> EquilibriumSolution:
    """Solve the all-sites weight system at the knife-edge spillover level.

    Requires ``is_knife_edge(alpha, sigma)``; alpha is snapped to the cutoff.
    Districts whose cells empty simply drop out of the sums, so the active
    set is an outcome, not an input; the first site stays the anchor."""
    if params.variant.kind != "baseline":
        raise InvalidVariantParams("the all-sites solver supports the baseline variant")
    cutoff = alpha_cutoff(params.sigma)
    if not is_knife_edge(params.alpha, params.sigma):
        raise InvalidVariantParams(
            f"alpha must equal 1/(sigma-1) = {cutoff!r}, got {params.alpha!r}")
    return _anchored_solve(geography, replace(params, alpha=cutoff), options,
                           active_only=True, what="knife-edge weights")


# ---------------------------------------------------------------------------
# market block

@dataclass(frozen=True)
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
    labor = np.asarray(labor, dtype=float)
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
