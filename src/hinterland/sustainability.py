"""Deviations toward vacant sites: potential weights and robustness checks.

A restricted-active-set equilibrium survives as a full spatial equilibrium
when no commuter group gains by defecting to a vacant site. Away from the
knife-edge spillover level the answer is parameter-determined. At the knife
edge one vector of potential weights λ* decides it: a vacant site y_p's
margin is weight_factor·(λ*_host − λ*_p − d_host(y_p)), the weight system's
own factor times how far the entrant's own cost at y_p, −λ*_p, exceeds its
host's there, d_host(y_p) − λ*_host; two_sector raises InvalidVariantParams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations

import numpy as np

from .analysis import existence_margins
from .equilibrium import (
    ModelParams,
    SolverOptions,
    WeightSolution,
    composite_params,
    solve_weight_system,
    spillover_regime,
)
from .errors import (
    HinterlandError,
    InvalidInput,
    InvalidVariantParams,
    SiteNotVacant,
    SiteOutsideDomain,
)
from .fields import Geography, subset_geography
from .geometry import check_count, cross_distances, is_integer
from .integrals import _logsumexp

STRONG_SPILLOVER = "strong_spillover"   # alpha above cutoff: deviations never pay
WEAK_SPILLOVER = "weak_spillover"       # alpha below cutoff: deviations always pay
KNIFE_EDGE = "knife_edge"

BOUNDARY_TOL = 1e-10


@dataclass(frozen=True)
class PotentialWeight:
    """Weight a vacant site would offer an infinitesimal deviating group.

    Finite only at the knife edge; otherwise an infinite sentinel whose sign
    encodes the regime (``-inf`` when spillovers are strong enough that a
    deviation can never match incumbent real wages, ``+inf`` when any vacant
    site attracts).
    """

    value: float
    regime: str

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)


_REGIMES = {"multiple": STRONG_SPILLOVER, "spread": WEAK_SPILLOVER,
            "knife_edge": KNIFE_EDGE}
_DEVIATION_MARGIN = {STRONG_SPILLOVER: math.inf, WEAK_SPILLOVER: -math.inf}


def _spillover_regime(params: ModelParams) -> str:
    return _REGIMES[spillover_regime(params.alpha, params.sigma)]


def _potential_weights(solution: WeightSolution, geography: Geography,
                       params: ModelParams) -> tuple[np.ndarray, float]:
    """Every geography site's knife-edge potential weight λ*, and s·γ1.

    weight_factor·λ*_q = log V/β + log Σ_j K_qj B_j^(−1/β) e^(s·γ2·λ_j) over
    the solution's active sites j: the weight system's row q, so at an active
    site λ* is its solved weight. two_sector: InvalidVariantParams.
    """
    comp = composite_params(params, geography.productivities, geography.trade)
    if not comp.effective.original_rows:
        raise InvalidVariantParams(f"{params.variant.kind} has no knife-edge potential weights")
    sol_idx = list(solution.tessellation.active_set)
    geo_idx = geography.positions_of(solution.active_ids)
    beta = comp.effective.beta_eff
    terms = (comp.log_K[:, geo_idx]
             + (-1.0 / beta) * np.log(solution.B[sol_idx])
             + comp.weight_scale * comp.gamma2 * solution.weights[sol_idx])
    return (math.log(solution.welfare) / beta
            + _logsumexp(terms, axis=1)) / comp.weight_factor, comp.weight_factor


def potential_weight(solution: WeightSolution, geography: Geography,
                     params: ModelParams, y_p: int) -> PotentialWeight:
    """Limit weight the vacant site ``y_p`` can sustain for a deviation."""
    if y_p in solution.active_ids:
        raise SiteNotVacant(f"site {y_p} is active in the solution")
    [p_geo] = geography.positions_of([y_p])
    regime = _spillover_regime(params)
    if regime != KNIFE_EDGE:
        return PotentialWeight(value=-_DEVIATION_MARGIN[regime], regime=regime)
    lam_star, _ = _potential_weights(solution, geography, params)
    return PotentialWeight(value=float(lam_star[p_geo]), regime=KNIFE_EDGE)


@dataclass(frozen=True)
class SustainabilityReport:
    """Three-valued robustness verdict with per-vacant-site margins.

    ``margins[site_id]`` is the gap by which the deviation inequality holds
    (positive = deviation unattractive); the verdict is "boundary" when some
    margin sits within BOUNDARY_TOL of zero and none is clearly violated.
    """

    verdict: str                 # "sustainable" | "unsustainable" | "boundary"
    regime: str
    margins: dict
    vacant_ids: tuple[int, ...]
    host_ids: dict


def sustainability_check(solution: WeightSolution, geography: Geography,
                         params: ModelParams) -> SustainabilityReport:
    """Decide whether the restricted equilibrium survives vacant-site entry.

    Away from the knife edge every margin is +inf (strong spillovers) or
    -inf (weak); at it, each vacant site is weighed against its host.
    """
    regime = _spillover_regime(params)
    active = set(solution.active_ids)
    vacant = {p: s.id for p, s in enumerate(geography.sites)
              if s.id not in active}
    hosts = {}
    if regime != KNIFE_EDGE:
        margins = dict.fromkeys(vacant.values(), _DEVIATION_MARGIN[regime])
    else:
        lam_star, scale = _potential_weights(solution, geography, params)
        d = cross_distances(geography.sites, geography.system)
        geo_of = geography.positions_of(solution.site_ids)
        margins = {}
        for p_geo, v in vacant.items():
            label = solution.tessellation.labels[
                geography.grid.cell_of(geography.sites[p_geo].position)]
            if label < 0:
                raise SiteOutsideDomain(
                    f"vacant site {v} lies on a cell outside the domain; "
                    "no active site hosts it")
            hosts[v] = solution.site_ids[label]
            host_geo = geo_of[label]
            margins[v] = float(scale * (lam_star[host_geo] - lam_star[p_geo]
                                        - d[host_geo, p_geo]))

    worst = min(margins.values(), default=math.inf)
    if worst <= -BOUNDARY_TOL:
        verdict = "unsustainable"
    elif worst < BOUNDARY_TOL:
        verdict = "boundary"
    else:
        verdict = "sustainable"
    return SustainabilityReport(verdict=verdict, regime=regime,
                                margins=margins,
                                vacant_ids=tuple(vacant.values()),
                                host_ids=hosts)


# ---------------------------------------------------------------------------
# enumeration

@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """What the catalog keeps of one sustainable weight solve (not its
    rasters); ``residuals`` are the weight system's, as no market is solved."""

    subset: tuple[int, ...]
    active_ids: tuple[int, ...]
    weights: np.ndarray
    welfare: float
    labor: np.ndarray
    residuals: dict
    verdict: str
    min_margin: float


@dataclass(frozen=True, eq=False)
class EquilibriumCatalog:
    """Sustainable equilibria found by subset enumeration, one per subset."""

    entries: tuple[CatalogEntry, ...]
    rejected: tuple[tuple[tuple[int, ...], str], ...]   # (subset, verdict)
    failures: tuple[tuple[tuple[int, ...], str], ...]   # (subset, error)
    strategy: str
    seed: int
    sizes: tuple[int, ...]
    max_subsets: int


def check_subset_request(*, sizes=(1,), max_subsets=1, seed=0) -> None:
    """Raise InvalidInput unless every subset size is an integer >= 1,
    ``max_subsets`` an integer >= 1 and ``seed`` an integer >= 0
    (``check_count``). Each argument left out takes its least valid value,
    so one can be checked alone; a size above the site count is
    ``_candidate_subsets``' to reject, since only the geography knows it.
    """
    for size in sizes:
        if not is_integer(size):
            raise InvalidInput(f"subset sizes must be integers, got {size!r}")
    if not all(size >= 1 for size in sizes):
        raise InvalidInput(f"subset sizes must be >= 1, got {list(sizes)}")
    check_count("max_subsets", max_subsets, 1)
    check_count("seed", seed, 0)


def _candidate_subsets(ids, sizes, max_subsets, seed):
    all_subsets = []
    for size in sorted(set(sizes)):
        if size > len(ids):
            raise InvalidInput(f"subset size {size} out of range 1..{len(ids)}")
        all_subsets.extend(combinations(ids, size))
    if len(all_subsets) <= max_subsets:
        return all_subsets, "exhaustive"
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(all_subsets), size=max_subsets, replace=False)
    return [all_subsets[i] for i in sorted(pick)], "sampled"


def _subset_outcome(geography, params, options, subset):
    """Solve one candidate active set: ("entries", CatalogEntry),
    ("rejected", (subset, verdict)) or ("failures", (subset, error))."""
    try:
        sol = solve_weight_system(geography, params, y_star=subset,
                                  options=options)
        report = sustainability_check(sol, geography, params)
    except HinterlandError as e:
        return "failures", (subset, f"{type(e).__name__}: {e}")
    if report.verdict != "sustainable":
        return "rejected", (subset, report.verdict)
    finite = [m for m in report.margins.values() if math.isfinite(m)]
    return "entries", CatalogEntry(
        subset=subset, active_ids=sol.active_ids, weights=sol.weights,
        welfare=sol.welfare, labor=sol.labor, residuals=sol.residuals,
        verdict=report.verdict, min_margin=min(finite, default=math.inf))


def _send_outcomes(writer, solve, share):
    writer.send([solve(subset) for subset in share])


def _map_subsets(solve, subsets, threads: int) -> list:
    """``[solve(s) for s in subsets]``, shared among ``threads`` processes.

    Forked workers r = 1..k−1, k = min(threads, len(subsets)), send the
    outcomes of ``subsets[r::k]`` through one-way pipes while this process
    solves share 0. Every worker is killed and reaped before this returns or
    raises; one that dies before sending makes it raise. Fork, not spawn: a
    spawned worker imports NumPy and the package again, which takes longer
    than a whole 64² enumeration. The CLI runs no Python threads and the
    package makes no BLAS call, so a forked child never touches OpenBLAS's
    idle threads. Where the platform cannot fork, this process solves all.
    """
    k = min(threads, len(subsets))
    if k > 1:
        import multiprocessing   # only here: solve and multistart never load it
        if "fork" not in multiprocessing.get_all_start_methods():
            k = 1
    if k <= 1:
        return [solve(subset) for subset in subsets]
    context = multiprocessing.get_context("fork")
    workers = []
    try:
        for r in range(1, k):
            reader, writer = context.Pipe(duplex=False)
            worker = context.Process(target=_send_outcomes, daemon=True,
                                     args=(writer, solve, subsets[r::k]))
            worker.start()
            writer.close()
            workers.append((reader, worker))
        shares = [[solve(subset) for subset in subsets[::k]]]
        for reader, _ in workers:
            try:
                shares.append(reader.recv())
            except EOFError:
                raise RuntimeError("an enumerate worker died before sending "
                                   "its outcomes") from None
    finally:
        for reader, worker in workers:
            reader.close()
            worker.kill()   # it has sent its outcomes, or they are not needed
            worker.join(timeout=10.0)
    return [shares[i % k][i // k] for i in range(len(subsets))]


def enumerate_urban_systems(geography: Geography, params: ModelParams,
                            sizes=(2,), max_subsets: int = 256, seed: int = 0,
                            options: SolverOptions = SolverOptions(),
                            threads: int = 1) -> EquilibriumCatalog:
    """Solve candidate active sets and keep the sustainable equilibria.

    Each subset solves its weight system (``solve_weight_system``), which
    alone decides its verdict; no market is solved. Exhausts all subsets of
    the requested sizes up to ``max_subsets``, then falls back to seeded
    sampling. Entries are distinct by construction: the subsets are, and a
    restricted solve returns only with all its sites active. Solver and
    sustainability errors are recorded per subset, never fatal; a two_sector
    knife edge solves every subset, then fails it. The catalog does not
    depend on ``threads``, the processes sharing subsets.
    """
    check_subset_request(sizes=sizes, max_subsets=max_subsets, seed=seed)
    ids = tuple(s.id for s in geography.sites)
    subsets, strategy = _candidate_subsets(ids, sizes, max_subsets, seed)
    solve = partial(_subset_outcome, geography, params, options)
    found = {"entries": [], "rejected": [], "failures": []}
    for kind, item in _map_subsets(solve, subsets, threads):
        found[kind].append(item)
    return EquilibriumCatalog(**{k: tuple(v) for k, v in found.items()},
                              strategy=strategy, seed=seed,
                              sizes=tuple(sorted(set(sizes))),
                              max_subsets=max_subsets)


# ---------------------------------------------------------------------------
# swap experiment

@dataclass(frozen=True)
class SwapReport:
    """Effect of replacing one active site with a nearby vacant one."""

    y_star: tuple[int, ...]
    y_double_star: tuple[int, ...]
    swap_distance: float
    productivity_ratio: float
    base_min_margin: float
    swapped_min_margin: float
    base_converged: bool
    swapped_converged: bool
    base_error: str
    swapped_error: str


def site_swap_experiment(geography: Geography, params: ModelParams, y_star,
                         y_c: int, y_p: int,
                         options: SolverOptions = SolverOptions()) -> SwapReport:
    """Rerun existence margins and the solver after swapping y_c for y_p.

    The margins take the solver's shrunk set Λ^k, ``options.k_shrink``. A
    side is converged when its weight system converges
    (``solve_weight_system``); no market is solved.
    """
    y_star = tuple(y_star)
    if y_c not in y_star:
        raise InvalidInput(f"{y_c} is not in the active set {y_star}")
    if y_p != y_c and y_p in y_star:
        raise InvalidInput(f"{y_p} is already in the active set {y_star}")
    swapped = tuple(y_p if sid == y_c else sid for sid in y_star)

    [c_geo] = geography.positions_of([y_c])
    [p_geo] = geography.positions_of([y_p])
    d = cross_distances(geography.sites, geography.system)
    swap_distance = float(d[c_geo, p_geo])
    ratio = float(geography.productivities[c_geo] / geography.productivities[p_geo])

    @cache
    def run(subset):
        sub = subset_geography(geography, subset)
        margin = existence_margins(sub, params,
                                   k_shrink=options.k_shrink).min_margin
        try:
            solve_weight_system(sub, params, options=options)
            return margin, True, ""
        except HinterlandError as e:
            return margin, False, f"{type(e).__name__}: {e}"

    base_margin, base_ok, base_err = run(y_star)
    swap_margin, swap_ok, swap_err = run(swapped)   # the identity swap reuses it
    return SwapReport(
        y_star=y_star, y_double_star=swapped, swap_distance=swap_distance,
        productivity_ratio=ratio, base_min_margin=base_margin,
        swapped_min_margin=swap_margin, base_converged=base_ok,
        swapped_converged=swap_ok, base_error=base_err, swapped_error=swap_err)
