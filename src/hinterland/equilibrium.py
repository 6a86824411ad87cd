"""Equilibrium solvers for districts on weighted-Voronoi commuting areas.

The weight system is solved in transformed coordinates where the welfare
scalar drops out, with one coordinate anchored at zero; welfare, labor
masses, wages, and prices are then recovered in original variables from
the population constraint and the gravity trade block. All three fixed
points (anchored weights, knife-edge weights, log wages) run through one
driver, ``_iterate``: Anderson mixing safeguarded by the damped step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateConstantRecovery,
    DegenerateGamma1,
    EmptyCellInSum,
    InvalidVariantParams,
    LeftFeasibleSet,
    NotConverged,
    ZeroLabor,
)
from .fields import Geography, TradeCostMatrix
from .geometry import Tessellation, assign_labels, cross_distances
from .integrals import CellAggregates, KernelSpec, _logsumexp, aggregate_amenities


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
        if not self.sigma > 1:
            raise ValueError(f"sigma must be > 1, got {self.sigma}")
        if not self.alpha > -1:
            raise ValueError(f"alpha must be > -1, got {self.alpha}")
        if not self.delta > 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if not self.tau >= 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if not self.total_labor > 0:
            raise ValueError(f"total_labor must be > 0, got {self.total_labor}")
        kind = self.variant.kind
        if kind in ("baseline", "home_consumption") and not self.beta < 0:
            raise ValueError(f"beta must be < 0, got {self.beta}")
        if kind == "two_sector":
            if not 0 < self.variant.mu < 1:
                raise InvalidVariantParams(f"mu must be in (0, 1), got {self.variant.mu}")
            if not self.variant.beta < 0:
                raise InvalidVariantParams(
                    f"agricultural beta must be < 0, got {self.variant.beta}")

    @property
    def alpha_cutoff(self) -> float:
        return 1.0 / (self.sigma - 1.0)


#: Distance from the cutoff 1/(sigma-1) within which alpha is the knife edge.
KNIFE_EDGE_TOL = 1e-12


def is_knife_edge(alpha: float, sigma: float) -> bool:
    """Whether alpha sits at the knife-edge spillover level 1/(sigma-1)."""
    return abs(alpha - 1.0 / (sigma - 1.0)) <= KNIFE_EDGE_TOL


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
    if v.kind == "baseline":
        return EffectiveSystem(
            kernel=KernelSpec(beta_eff=params.beta, distance_coeff=params.delta),
            beta_eff=params.beta, weight_decay=params.delta,
            congestion_weight=params.beta,
            welfare_exponent=1.0 / params.beta, log_labor_prefactor=0.0,
            variant_kind=v.kind)
    if v.kind == "home_consumption":
        decay = params.delta + params.tau
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


def composite_params(params: ModelParams, productivities,
                     trade: TradeCostMatrix) -> CompositeParams:
    """Assemble the composite constants and the pairwise kernel matrix."""
    eff = variant_transform(params)
    sigma, alpha = params.sigma, params.alpha
    b = eff.congestion_weight
    sigma_tilde = (sigma - 1.0) / (2.0 * sigma - 1.0)
    gamma1 = 1.0 - (sigma - 1.0) * alpha - sigma * b
    gamma2 = 1.0 + sigma * alpha + (sigma - 1.0) * b
    phi1 = (1.0 - (sigma - 1.0) * alpha) / eff.beta_eff
    phi2 = -(1.0 + sigma * alpha) / eff.beta_eff
    if abs(gamma1) < 1e-12:
        raise DegenerateGamma1(
            f"gamma1 = {gamma1:.3g} at sigma={sigma}, alpha={alpha}, "
            "congestion={b}; the weight system degenerates")
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

def subset_geography(geography: Geography, site_ids) -> Geography:
    """Restrict a geography to the given site ids (order preserved); all, in order, return it."""
    id_to_pos = {s.id: p for p, s in enumerate(geography.sites)}
    try:
        idx = [id_to_pos[i] for i in site_ids]
    except KeyError as e:
        raise ValueError(f"unknown site id {e.args[0]}") from None
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate site ids in {list(site_ids)}")
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


def transformed_weight_map(lam_t, comp: CompositeParams, geography: Geography,
                           active_only: bool = False):
    """One evaluation of the transformed weight map g at λ̃.

    Returns (g, tessellation, aggregates). The tessellation is induced by
    the original-variable weight differences λ̃ / (weight_scale·γ1). With
    ``active_only`` the sums skip terms of empty cells (the all-sites
    system); otherwise an empty cell raises EmptyCellInSum.
    """
    lam_t = np.asarray(lam_t, dtype=float)
    lam = lam_t / (comp.weight_scale * comp.gamma1)
    tess = assign_labels(geography.grid, geography.sites, geography.system, lam,
                         geography.distances)
    agg = aggregate_amenities(tess, geography.amenity, comp.effective.kernel)
    active = agg.active
    if not active_only and not active.all():
        raise EmptyCellInSum(
            f"sites {np.flatnonzero(~active).tolist()} have empty cells at "
            "the current weights")
    st = comp.sigma_tilde
    terms = (comp.log_K[:, active]
             + st * comp.phi2 * agg.log_B[None, active]
             + comp.gamma_ratio * lam_t[None, active])
    own = np.zeros(len(lam_t))
    own[active] = st * comp.phi1 * agg.log_B[active]
    g = own + _logsumexp(terms, axis=1)
    return g, tess, agg


# ---------------------------------------------------------------------------
# iteration driver

ANDERSON_MEMORY = 3   # ΔF columns kept by the Anderson mixing
ANDERSON_DROP = 1e-8  # relative Gram–Schmidt remainder below which a column is dropped


def _anderson_gamma(dF, f):
    """Least-squares γ minimising |f − Σ_j γ_j dF[j]| by modified Gram–Schmidt
    in sums of products (a first BLAS or LAPACK call alone raises peak RSS);
    a column nearly dependent on the newer ones before it gets γ_j = 0."""
    qs, kept, b, rest = [], [], [], f.copy()
    R = np.zeros((len(dF), len(dF)))
    for j, col in enumerate(dF):
        v, m = col.copy(), len(qs)
        for k, q in enumerate(qs):
            R[k, m] = (q * v).sum()
            v -= R[k, m] * q
        norm = math.sqrt((v * v).sum())
        if norm > ANDERSON_DROP * math.sqrt((col * col).sum()):
            R[m, m] = norm
            qs.append(v / norm)
            kept.append(j)
            b.append((qs[-1] * rest).sum())
            rest -= b[-1] * qs[-1]
    gamma = np.zeros(len(dF))
    for k in reversed(range(len(qs))):  # back substitution on R γ = Qᵀf
        gamma[kept[k]] = (b[k] - (R[k, k + 1:len(qs)] * gamma[kept[k + 1:]]).sum()) \
            / R[k, k]
    return gamma


def _iterate(evaluate, x, beta, tol, max_iter, what, project=lambda x: x, leave=None):
    """Fixed point of G by Anderson mixing, safeguarded by the damped step.

    ``evaluate(x)`` returns ``(G(x), ...)``. Each step mixes the last
    ANDERSON_MEMORY + 1 residuals f = G(x) − x with weight ``beta``, then
    applies ``project``. A mixed iterate that is non-finite or whose
    evaluation raises EmptyCellInSum gives way to the damped step x + beta·f
    from the same point, and mixing stops for good. After ANDERSON_MEMORY + 1
    evaluations without a new best max|f|, the history is dropped and damped
    steps run until one. A damped step that empties a cell is an exit: the
    first moves to ``leave(x)``, a second raises LeftFeasibleSet. Stops at
    max|f| < tol; returns ``(x, evaluate(x), next step, evaluations, exits)``.
    """
    xs, fs = [], []  # the last ANDERSON_MEMORY + 1 iterates and residuals, newest first
    accelerate, fallback, exits, step, best, stalled = True, None, 0, math.inf, math.inf, 0
    for iteration in range(1, max_iter + 1):
        try:
            out = evaluate(x)
        except EmptyCellInSum:
            if fallback is not None:  # a rejected mixed iterate
                x, fallback, accelerate = project(fallback), None, False
                continue
            exits += 1
            if exits > 1:
                raise LeftFeasibleSet(
                    f"weights left the feasible set twice (iteration {iteration})")
            x = leave(x)
            continue
        f = out[0] - x
        step = float(np.abs(f).max())
        best, stalled = (step, 0) if step < best else (best, stalled + 1)
        nxt, fallback = x + beta * f, None
        if stalled > ANDERSON_MEMORY:  # damped steps until max|f| sets a new best
            xs, fs = [], []
        elif accelerate:
            xs, fs = [x] + xs[:ANDERSON_MEMORY], [f] + fs[:ANDERSON_MEMORY]
            dX = [a - b for a, b in zip(xs, xs[1:])]
            dF = [a - b for a, b in zip(fs, fs[1:])]
            gamma = _anderson_gamma(dF, f)
            mixed = nxt - sum(c * (dx + beta * df) for c, dx, df in zip(gamma, dX, dF))
            if not np.isfinite(mixed).all():
                accelerate = False
            elif gamma.any():  # a mix off the damped step
                nxt, fallback = mixed, nxt
        if step < tol:
            return x, out, project(nxt), iteration, exits
        x, out = project(nxt), None  # drop its rasters before the next evaluation
    raise NotConverged(what, max_iter, step)


# ---------------------------------------------------------------------------
# solutions

@dataclass(frozen=True)
class SolverOptions:
    damping: float = 0.5
    tol: float = 1e-12
    max_iter: int = 2000
    k_shrink: float = 0.5
    weights_init: np.ndarray | None = None   # original-variable differences
    anchor: int | None = None                # site id; default: first of Y*
    market_tol: float = 1e-12
    market_max_iter: int = 100000
    market_damping: float = 0.5


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
    anchor_id: int
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
                      options: SolverOptions, anchor_pos: int,
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
        labor[active], geography.productivities[active], sub_trade, params,
        tol=options.market_tol, max_iter=options.market_max_iter,
        damping=options.market_damping)
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
        anchor_id=geography.sites[anchor_pos].id,
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


def fixed_point_solve(geography: Geography, params: ModelParams,
                      y_star=None, options: SolverOptions = SolverOptions()
                      ) -> EquilibriumSolution:
    """Solve the weight system restricted to the active set ``y_star``.

    ``_iterate`` mixes the anchored map G(λ̃) = g(λ̃) − g_anchor(λ̃) with
    weight ``options.damping`` until max|G(λ̃) − λ̃| < tol; then the
    normalization constant, welfare, labor masses, and the market block are
    recovered. A damped step that empties a cell triggers one reprojection
    onto the shrunk feasible set; a second exit aborts.
    """
    ids = tuple(y_star) if y_star is not None else tuple(s.id for s in geography.sites)
    sub = subset_geography(geography, ids)
    comp = composite_params(params, sub.productivities, sub.trade)

    anchor_id = options.anchor if options.anchor is not None else ids[0]
    if anchor_id not in ids:
        raise ValueError(f"anchor {anchor_id} not in active set {ids}")
    i0 = ids.index(anchor_id)

    w0 = np.asarray(options.weights_init if options.weights_init is not None
                    else np.zeros(len(ids)), dtype=float)

    def evaluate(x):
        g, tess, agg = transformed_weight_map(x, comp, sub)
        return g - g[i0], g, tess, agg

    lam_t, (_, g, tess, agg), _, iterations, exits = _iterate(
        evaluate, (w0 - w0[i0]) * (comp.weight_scale * comp.gamma1),
        options.damping, options.tol, options.max_iter, "weights",
        project=lambda x: np.where(np.arange(len(x)) == i0, 0.0, x),  # zero the anchor
        leave=lambda x: _reproject(x, comp, sub, options.k_shrink))
    denom = 1.0 - comp.gamma_ratio
    if abs(denom) < 1e-10:
        raise DegenerateConstantRecovery(
            f"gamma2/gamma1 = {comp.gamma_ratio:.12g}; the normalization "
            "constant is not recoverable")
    c = g[i0] / denom
    lam_t_abs = lam_t + c
    residual = float(np.abs(lam_t_abs - (g + comp.gamma_ratio * c)).max())

    return _recover_solution(
        lam_t_abs, comp, sub, params, tess, agg,
        iterations=iterations, exited_feasible=exits > 0, options=options,
        anchor_pos=i0, transformed_residual=residual)


def solve_knife_edge_system(geography: Geography, params: ModelParams,
                            options: SolverOptions = SolverOptions()
                            ) -> EquilibriumSolution:
    """Solve the all-sites weight system at the knife-edge spillover level.

    Requires ``is_knife_edge(alpha, sigma)``; alpha is snapped to the cutoff.
    Districts whose cells empty simply drop out of the sums, so the active
    set is an outcome, not an input. ``_iterate`` mixes the map with weight
    ``options.damping`` until max|g(λ̃) − λ̃| < tol.
    """
    if params.variant.kind != "baseline":
        raise InvalidVariantParams("the all-sites solver supports the baseline variant")
    cutoff = params.alpha_cutoff
    if not is_knife_edge(params.alpha, params.sigma):
        raise InvalidVariantParams(
            f"alpha must equal 1/(sigma-1) = {cutoff!r}, got {params.alpha!r}")
    params = replace(params, alpha=cutoff)
    comp = composite_params(params, geography.productivities, geography.trade)

    w0 = np.asarray(options.weights_init if options.weights_init is not None
                    else np.zeros(geography.n_sites), dtype=float)
    lam_t, (g, tess, agg), _, iterations, _ = _iterate(
        lambda x: transformed_weight_map(x, comp, geography, active_only=True),
        w0 * (comp.weight_scale * comp.gamma1), options.damping, options.tol,
        options.max_iter, "knife-edge weights")
    residual = float(np.abs(lam_t - g).max())
    return _recover_solution(
        lam_t, comp, geography, params, tess, agg,
        iterations=iterations, exited_feasible=False, options=options,
        anchor_pos=0, transformed_residual=residual)


# ---------------------------------------------------------------------------
# market block

@dataclass(frozen=True)
class MarketEquilibrium:
    wages: np.ndarray
    prices: np.ndarray
    iterations: int
    residual: float


def market_equilibrium_solve(labor, productivities, trade: TradeCostMatrix,
                             params: ModelParams, tol: float = 1e-12,
                             max_iter: int = 100000, damping: float = 0.5
                             ) -> MarketEquilibrium:
    """Solve the wage/price-index gravity system for given labor masses.

    ``_iterate`` mixes the log-wage map with weight ``damping``, prices
    following wages, until max|G(log_w) − log_w| < tol; the numeraire
    sum(w_i L_i) = 1 pins the scale after each mix. Productivities enter
    through the spillover A_i = productivities_i * L_i^alpha.
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
        return _logsumexp(t, axis=1) / (1.0 - sigma)

    def log_wage_update(log_w, log_P):
        # w_i^sigma L_i = A_i^(sigma-1) sum_j T_ij^(1-sigma) P_j^(sigma-1) w_j L_j
        t = M + (sigma - 1.0) * log_P[None, :] + (log_w + log_L)[None, :]
        return ((sigma - 1.0) * log_A + _logsumexp(t, axis=1) - log_L) / sigma

    def numeraire(log_w):
        return log_w - _logsumexp(log_w + log_L)

    _, _, log_w, iterations, _ = _iterate(
        lambda log_w: (numeraire(log_wage_update(log_w, log_prices(log_w))),),
        numeraire(np.zeros(len(labor))),  # start at equal wages
        damping, tol, max_iter, "market", project=numeraire)
    log_P = log_prices(log_w)
    return MarketEquilibrium(
        wages=np.exp(log_w), prices=np.exp(log_P), iterations=iterations,
        residual=float(np.abs(log_wage_update(log_w, log_P) - log_w).max()))
