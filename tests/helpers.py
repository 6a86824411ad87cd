"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written as plain loops over cells with
scalar math so that it shares no code path with the vectorized package
internals, except where bit-identical agreement is the point of the test
(the labeling oracle mirrors the package's float expression structure
exactly: dx*dx + dy*dy, sqrt, scale multiply, weight subtract, first-min).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.special import logsumexp

from hinterland import equilibrium
from hinterland.equilibrium import (
    SolverOptions,
    _lift_weights,
    _reproject,
    _solve_market,
    _tessellate,
    alpha_cutoff,
    composite_params,
    subset_geography,
)
from hinterland.errors import EmptyCellInSum, LeftFeasibleSet, NotConverged
from hinterland.fields import GeographyCheck
from hinterland.geometry import OUTSIDE, assign_labels, cross_distances
from hinterland.integrals import _logsumexp, aggregate_amenities
from hinterland.io_formats import _num


def brute_labels(grid, sites, system, weights):
    """Per-cell exhaustive argmin labeling, pure Python."""
    xmin, ymin, _, _ = grid.bbox
    dx, dy = grid.dx, grid.dy
    labels = np.full((grid.ny, grid.nx), OUTSIDE, dtype=np.int32)
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            if not grid.inside[iy, ix]:
                continue
            x = xmin + (ix + 0.5) * dx
            y = ymin + (iy + 0.5) * dy
            best = math.inf
            best_i = -1
            for i, s in enumerate(sites):
                ddx = x - s.position[0]
                ddy = y - s.position[1]
                d = math.sqrt(ddx * ddx + ddy * ddy)
                sc = system.scale_of(i)
                if sc != 1.0:
                    d = d * sc
                cost = d - weights[i]
                if cost < best:  # strict: ties stay with the lowest index
                    best = cost
                    best_i = i
            labels[iy, ix] = best_i
    return labels


def loop_cell_integral(grid, labels, site_index, values):
    """Sum values over the cells labeled ``site_index`` times cell area."""
    total = 0.0
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            if labels[iy, ix] == site_index:
                total += float(values[iy, ix])
    return total * grid.cell_area


def loop_amenity_integral(grid, labels, site_index, site, system, amenity_values,
                          beta_eff, distance_coeff):
    """Direct evaluation of the commuting-weighted amenity integral.

    Integrates (amenity / exp(distance_coeff * d))**(-1/beta_eff) over the
    cell of ``site_index`` by plain cell sums; no log-space tricks.
    """
    xmin, ymin, _, _ = grid.bbox
    total = 0.0
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            if labels[iy, ix] != site_index:
                continue
            x = xmin + (ix + 0.5) * grid.dx
            y = ymin + (iy + 0.5) * grid.dy
            ddx = x - site.position[0]
            ddy = y - site.position[1]
            d = math.sqrt(ddx * ddx + ddy * ddy) * system.scale_of(site_index)
            f = (amenity_values[iy, ix] * math.exp(-distance_coeff * d)) ** (-1.0 / beta_eff)
            total += f
    return total * grid.cell_area


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


def disk_quadrature(fn, radius, n=512):
    """Midpoint quadrature of fn(r_distance) over a disk of given radius.

    Independent of the package's grid machinery: builds its own mask on a
    fresh n x n lattice over the disk's bounding square.
    """
    h = 2.0 * radius / n
    total = 0.0
    for iy in range(n):
        y = -radius + (iy + 0.5) * h
        for ix in range(n):
            x = -radius + (ix + 0.5) * h
            r = math.sqrt(x * x + y * y)
            if r <= radius:
                total += fn(r)
    return total * h * h


def loop_neighbors(labels, n_sites):
    """Adjacency sets from a Python loop over every edge-sharing cell pair."""
    sets = [set() for _ in range(n_sites)]
    for a, b in ((labels[:, :-1], labels[:, 1:]), (labels[:-1, :], labels[1:, :])):
        both_inside = (a != OUTSIDE) & (b != OUTSIDE) & (a != b)
        for u, v in zip(a[both_inside].ravel(), b[both_inside].ravel()):
            sets[u].add(int(v))
            sets[v].add(int(u))
    return tuple(frozenset(s) for s in sets)


def loop_interface_edges(labels):
    """Every raster edge between two inside cells with different labels, as
    ((iy, ix), (jy, jx)) pairs of its cells, from a loop over each cell's
    right and upper neighbour."""
    ny, nx = labels.shape
    edges = []
    for iy in range(ny):
        for ix in range(nx):
            for jy, jx in ((iy, ix + 1), (iy + 1, ix)):
                if jy < ny and jx < nx:
                    a, b = labels[iy, ix], labels[jy, jx]
                    if a != b and a != OUTSIDE and b != OUTSIDE:
                        edges.append(((iy, ix), (jy, jx)))
    return edges


def loop_semielasticity(tess, amenity, kernel, aggregates, cutoff):
    """Semielasticity matrix and per-pair skipped-edge counts from a loop
    over interface edges, each seen once from either cell.

    An edge adds, to (i, k) for its i-side cell, the kernel at the edge
    midpoint (with that cell's amenity) over I_i, times the edge length
    times |u_a| / |u|^2, u = grad d_i - grad d_k and a the edge normal's
    axis; edges with |u| < cutoff are counted instead. The diagonal is the
    row sum; every entry is scaled by |beta_eff|.
    """
    grid, n = tess.grid, tess.n_sites
    xmin, ymin, _, _ = grid.bbox
    eta = np.zeros((n, n))
    skipped = np.zeros((n, n), dtype=np.int64)

    def grad(i, x, y):
        sx, sy = tess.sites[i].position
        r = math.sqrt((x - sx) ** 2 + (y - sy) ** 2)
        s = tess.system.scale_of(i)
        return (0.0, 0.0, 0.0) if r == 0.0 else (s * (x - sx) / r, s * (y - sy) / r, s * r)

    for cells in loop_interface_edges(tess.labels):
        (iy, ix), (jy, jx) = cells
        axis = 0 if jy == iy else 1  # normal along x for a vertical edge
        x = xmin + (0.5 * (ix + jx) + 0.5) * grid.dx
        y = ymin + (0.5 * (iy + jy) + 0.5) * grid.dy
        length = grid.dy if axis == 0 else grid.dx
        for (cy, cx), (oy, ox) in (cells, cells[::-1]):
            i, k = int(tess.labels[cy, cx]), int(tess.labels[oy, ox])
            gi, gk = grad(i, x, y), grad(k, x, y)
            u = (gi[0] - gk[0], gi[1] - gk[1])
            speed = math.hypot(u[0], u[1])
            if speed < cutoff:
                skipped[i, k] += 1
                continue
            log_f = (-math.log(amenity.values[cy, cx])
                     + kernel.distance_coeff * gi[2]) / kernel.beta_eff
            eta[i, k] += (math.exp(log_f - aggregates.log_raw[i])
                          * length * abs(u[axis]) / speed / speed)
    for i in range(n):
        eta[i, i] = sum(eta[i, k] for k in range(n) if k != i)
    return abs(kernel.beta_eff) * eta, skipped


# The two SVG oracles below are per-cell and per-edge loops. They format
# numbers with the package's own ``_num`` because the SVG text must stay
# byte-identical, which is what the tests compare.

def loop_run_length_rects(values, x_edges, y_edges, tf, color_of):
    """One rect per run of equal values along each row (skips None colors)."""
    parts = []
    ny, nx = values.shape
    for iy in range(ny):
        row = values[iy]
        ix = 0
        while ix < nx:
            value = row[ix]
            end = ix
            while end < nx and row[end] == value:
                end += 1
            color = color_of(value)
            if color is not None:
                x = tf.x(x_edges[ix])
                y = tf.y(y_edges[iy + 1])
                w = tf.x(x_edges[end]) - x
                h = tf.y(y_edges[iy]) - y
                parts.append(f'<rect x="{_num(x)}" y="{_num(y)}" '
                             f'width="{_num(w)}" height="{_num(h)}" '
                             f'fill="{color}"/>')
            ix = end
    return parts


def loop_boundary_path(labels, x_edges, y_edges, tf):
    """A single path outlining every interface between distinct labels."""
    segs = []
    diff_v = (labels[:, :-1] != labels[:, 1:]) & (labels[:, :-1] != OUTSIDE) \
        & (labels[:, 1:] != OUTSIDE)
    for iy, ix in zip(*np.nonzero(diff_v)):
        x = x_edges[ix + 1]
        segs.append((x, y_edges[iy], x, y_edges[iy + 1]))
    diff_h = (labels[:-1, :] != labels[1:, :]) & (labels[:-1, :] != OUTSIDE) \
        & (labels[1:, :] != OUTSIDE)
    for iy, ix in zip(*np.nonzero(diff_h)):
        y = y_edges[iy + 1]
        segs.append((x_edges[ix], y, x_edges[ix + 1], y))
    if not segs:
        return ""
    d = " ".join(f"M {_num(tf.x(a))} {_num(tf.y(b))} "
                 f"L {_num(tf.x(c))} {_num(tf.y(e))}" for a, b, c, e in segs)
    return f'<path d="{d}" stroke="#000000" stroke-width="1" fill="none"/>'


def log_wage_map(labor, productivities, trade, params):
    """The market block's log-wage map G, with the numeraire sum(w_i L_i) = 1
    applied: returns ``(G, numeraire, log_prices)``."""
    sigma = params.sigma
    log_L = np.log(np.asarray(labor, dtype=float))
    log_A = np.log(np.asarray(productivities, dtype=float)) + params.alpha * log_L
    M = (1.0 - sigma) * np.log(trade.values)

    def log_prices(log_w):
        t = M.T + (sigma - 1.0) * log_A[None, :] + (1.0 - sigma) * log_w[None, :]
        return logsumexp(t, axis=1) / (1.0 - sigma)

    def numeraire(log_w):
        return log_w - logsumexp(log_w + log_L)

    def G(log_w):
        t = M + (sigma - 1.0) * log_prices(log_w)[None, :] + (log_w + log_L)[None, :]
        return numeraire(((sigma - 1.0) * log_A + logsumexp(t, axis=1) - log_L) / sigma)

    return G, numeraire, log_prices


def damped_market_solve(labor, productivities, trade, params, tol=1e-12,
                        max_iter=100000):
    """The plain damped log-wage loop, the market block without its Newton
    steps: returns (log wages, log prices, iterations); raises
    RuntimeError after ``max_iter`` iterations."""
    G, numeraire, log_prices = log_wage_map(labor, productivities, trade, params)
    log_w = numeraire(np.zeros(len(labor)))
    theta = equilibrium.DAMPING
    for iteration in range(1, max_iter + 1):
        log_w_new = G(log_w)
        step = float(np.abs(log_w_new - log_w).max())
        log_w = numeraire((1.0 - theta) * log_w + theta * log_w_new)
        if step < tol:
            return log_w, log_prices(log_w), iteration
    raise RuntimeError(f"damped market loop: {max_iter} iterations, step {step:.3e}")


# The two weight oracles below are the plain damped loops of the weight
# solvers, without their Newton steps, with their stop rule (the damped step
# below tol) and their final evaluation at the fixed point. They call
# ``equilibrium.transformed_weight_map`` through the module, so a test can
# count their map evaluations, label the fixed point with the map's own
# ``_tessellate`` and lift the result and solve its market as the solvers do
# (``_lift_weights``, then ``_solve_market``).

def damped_fixed_point_solve(geography, params, y_star=None,
                             options=SolverOptions()):
    """The damped weight loop, anchored at the first site of ``y_star``:
    an ``EquilibriumSolution``."""
    ids = tuple(y_star) if y_star is not None else tuple(s.id for s in geography.sites)
    sub = subset_geography(geography, ids)
    comp = composite_params(params, sub.productivities, sub.trade)
    scale = comp.weight_scale * comp.gamma1
    if options.weights_init is not None:
        w0 = np.asarray(options.weights_init, dtype=float)
        lam_t = (w0 - w0[0]) * scale
    else:
        lam_t = np.zeros(len(ids))
    exits = 0
    theta = equilibrium.DAMPING
    for iteration in range(1, options.max_iter + 1):
        try:
            g, _, _ = equilibrium.transformed_weight_map(lam_t, comp, sub)
        except EmptyCellInSum:
            exits += 1
            if exits > 1:
                raise LeftFeasibleSet(
                    f"weights left the feasible set twice (iteration {iteration})")
            lam_t = _reproject(lam_t, comp, sub, options.k_shrink)
            continue
        g_hat = g - g[0]
        new = (1.0 - theta) * lam_t + theta * g_hat
        new[0] = 0.0
        step = float(np.abs(new - lam_t).max())
        lam_t = new
        if step < options.tol:
            break
    else:
        raise NotConverged("weights", options.max_iter, step)
    g, agg, _ = equilibrium.transformed_weight_map(lam_t, comp, sub)
    c = g[0] / (1.0 - comp.gamma_ratio)
    lam_t_abs = lam_t + c
    residual = float(np.abs(lam_t_abs - (g + comp.gamma_ratio * c)).max())
    return _solve_market(_lift_weights(
        lam_t_abs, comp, sub, params, _tessellate(lam_t, comp, sub), agg,
        iterations=iteration, exited_feasible=exits > 0,
        transformed_residual=residual), sub, params, options.tol)


def damped_knife_edge_solve(geography, params, options=SolverOptions()):
    """The damped all-sites loop at alpha = 1/(sigma-1): an ``EquilibriumSolution``."""
    params = replace(params, alpha=alpha_cutoff(params.sigma))
    comp = composite_params(params, geography.productivities, geography.trade)
    scale = comp.weight_scale * comp.gamma1
    if options.weights_init is not None:
        lam_t = np.asarray(options.weights_init, dtype=float) * scale
    else:
        lam_t = np.zeros(geography.n_sites)
    theta = equilibrium.DAMPING
    for iteration in range(1, options.max_iter + 1):
        g, _, _ = equilibrium.transformed_weight_map(lam_t, comp, geography,
                                                     active_only=True)
        new = (1.0 - theta) * lam_t + theta * g
        step = float(np.abs(new - lam_t).max())
        lam_t = new
        if step < options.tol:
            break
    else:
        raise NotConverged("knife-edge weights", options.max_iter, step)
    g, agg, _ = equilibrium.transformed_weight_map(lam_t, comp, geography,
                                                   active_only=True)
    residual = float(np.abs(lam_t - g).max())
    return _solve_market(_lift_weights(
        lam_t, comp, geography, params, _tessellate(lam_t, comp, geography),
        agg, iterations=iteration, exited_feasible=False,
        transformed_residual=residual), geography, params, options.tol)


def loop_reproject_scale(lam, geography, k_shrink):
    """Scale factor of the feasible-set reprojection, as a loop over pairs."""
    d = cross_distances(geography.sites, geography.system)
    t = 1.0
    for i in range(len(lam)):
        for j in range(len(lam)):
            if i == j:
                continue
            diff = lam[i] - lam[j]
            if diff > 0 and diff > k_shrink * d[i, j]:
                t = min(t, k_shrink * d[i, j] / diff)
    return t


def loop_environment_trade_decay(geography):
    """Max over ordered pairs of log T_ij / d_i(y_j) (at least 0), as a pair
    loop; each entry takes the log the package takes (np.log, whose last
    bit can differ from math.log's)."""
    d = cross_distances(geography.sites, geography.system)
    n = len(geography.sites)
    best = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                best = max(best, float(np.log(geography.trade.values[i, j])) / d[i, j])
    return best


def loop_existence_margins(geography, params, eta_hat, tau_rate):
    """Per-pair existence margins as a loop over ordered pairs (NaN diagonal)."""
    comp = composite_params(params, geography.productivities, geography.trade)
    eff = comp.effective
    d = cross_distances(geography.sites, geography.system)
    n = geography.n_sites
    # smallest eccentricity: min over i of max over j of d_i(y_j)
    radius = min(max(d[i, j] for j in range(n)) for i in range(n))
    tess = assign_labels(geography.grid, geography.sites, geography.system,
                         np.zeros(geography.n_sites))
    log_B0 = aggregate_amenities(tess, geography.amenity, eff.kernel).log_B
    log_abar = np.log(geography.productivities)
    st = comp.sigma_tilde
    sigma = params.sigma
    decay = comp.weight_scale * abs(comp.gamma1)
    creep = tau_rate * (sigma - 1.0)
    margins = np.full((n, n), np.nan)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lhs = (st * (sigma - 1.0) * abs(log_abar[i] - log_abar[j])
                   + st * abs(comp.phi1) * abs(log_B0[i] - log_B0[j])
                   - 2.0 * eff.beta_eff * eta_hat * radius)
            rhs = (decay - creep) * d[i, j]
            margins[i, j] = rhs - lhs
    return margins


def bracket_threshold(fn, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Bisect a sign change of a scalar margin function on [lo, hi]."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f={flo:.3g},{fhi:.3g}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0 or (hi - lo) < tol:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def loop_lambda_feasibility(sites, system, weights, k):
    """Per-pair feasibility statuses and verdict, as a loop over ordered pairs."""
    order = {"interior": 0, "boundary": 1, "infeasible": 2}
    weights = np.asarray(weights, dtype=float)
    d = cross_distances(sites, system)
    pairs = {}
    worst = "interior"
    for i in range(len(sites)):
        for j in range(len(sites)):
            if i == j:
                continue
            diff = weights[i] - weights[j]
            # feasible band for w_i - w_j is (-d_j(y_i), d_i(y_j))
            lo, hi = -d[j, i], d[i, j]
            if lo < diff < hi:
                status = "interior" if (k * lo < diff < k * hi) else "boundary"
            else:
                status = "infeasible"
            pairs[(i, j)] = status
            if order[status] > order[worst]:
                worst = status
    return pairs, worst


def loop_feasible_starts(sites, system, k_shrink, count, seed):
    """Seeded rejection sampling of interior weight vectors, one draw at a time."""
    d = cross_distances(sites, system)
    n = len(sites)
    # smallest separation over ordered pairs i != j, 0.0 with no pair
    d_min = min((d[i, j] for i in range(n) for j in range(n) if i != j),
                default=0.0)
    rng = np.random.default_rng(seed)
    starts = []
    while len(starts) < count:
        w = rng.uniform(-0.5 * k_shrink * d_min, 0.5 * k_shrink * d_min,
                        size=len(sites))
        if loop_lambda_feasibility(sites, system, w, k_shrink)[1] == "interior":
            starts.append(w)
    return starts


def loop_triangle_check(geography, seed=0, n_samples=4096):
    """``validate_geography``'s cross-site triangle check as a loop over pairs.

    Draws the same seeded inside cells and evaluates each d_i there with
    ``DistanceSystem.distance``; stops at the first failing (i, j) and
    reports its worst sample.
    """
    g = geography
    rng = np.random.default_rng(seed)
    X, Y = g.grid.cell_centers()
    xs, ys = X[g.grid.inside], Y[g.grid.inside]
    take = rng.integers(0, xs.size, size=min(n_samples, xs.size))
    px, py = xs[take], ys[take]
    d_cross = cross_distances(g.sites, g.system)
    for i, si in enumerate(g.sites):
        d_i = g.system.distance(si, i, px, py)
        for j, sj in enumerate(g.sites):
            if i == j:
                continue
            d_j = g.system.distance(sj, j, px, py)
            slack = d_i - (d_cross[i, j] + d_j)
            worst = int(np.argmax(slack))
            if slack[worst] > 1e-12:
                return GeographyCheck(
                    "metric_triangle_inequality", False,
                    f"d_{i}(x) > d_{i}(y_{j}) + d_{j}(x) at "
                    f"x=({px[worst]:.4g},{py[worst]:.4g}): "
                    f"{d_i[worst]:.6g} > {d_cross[i, j] + d_j[worst]:.6g}")
    return GeographyCheck("metric_triangle_inequality", True, "")


# The deviation oracles below are per-vacant-site loops, and the host
# distance is a one-point ``DistanceSystem.distance`` call. The potential
# weight loop sums one site's row of the weight system at a time and writes
# each ``log_K`` entry out in the package's order, so the tests compare it
# and the margins built from it with ==. The deviation inequality loop is the
# check's first form: each vacant site and its host rebuild their own
# trade-access sum, plus the productivity ratio and the host distance; it
# agrees with the margins to rounding.

def _active_positions(solution, geography):
    pos = {s.id: p for p, s in enumerate(geography.sites)}
    geo_idx, sol_idx = [], []
    for si, sid in enumerate(solution.site_ids):
        if sid in solution.active_ids:
            geo_idx.append(pos[sid])
            sol_idx.append(si)
    return np.array(geo_idx), np.array(sol_idx)


def loop_log_deviation_sum(solution, geography, comp, q_geo_index):
    """log sum over active j of T_qj^(1-sigma) Abar_j^(st*sigma)
    B_j^(-1/beta) e^(s*g2*lam_j), for the geography site at ``q_geo_index``."""
    geo_idx, sol_idx = _active_positions(solution, geography)
    sigma = comp.sigma
    st = comp.sigma_tilde
    beta = comp.effective.beta_eff
    s = comp.weight_scale
    T_row = geography.trade.values[q_geo_index, geo_idx]
    log_abar = np.log(geography.productivities[geo_idx])
    terms = ((1.0 - sigma) * np.log(T_row)
             + st * sigma * log_abar
             + (-1.0 / beta) * np.log(solution.B[sol_idx])
             + s * comp.gamma2 * solution.weights[sol_idx])
    return float(_logsumexp(terms))


def loop_potential_weight(solution, geography, params, y_p):
    """Knife-edge potential weight of the site ``y_p``: its row of the weight
    system over the active sites, one term at a time."""
    comp = composite_params(params, geography.productivities, geography.trade)
    st, sigma = comp.sigma_tilde, comp.sigma
    beta = comp.effective.beta_eff
    q = [s.id for s in geography.sites].index(y_p)
    geo_idx, sol_idx = _active_positions(solution, geography)
    log_T = np.log(geography.trade.values)
    log_abar = np.log(geography.productivities)
    log_B = np.log(solution.B)
    terms = [(1.0 - sigma) * log_T[q, j] + st * (sigma - 1.0) * log_abar[q]
             + st * sigma * log_abar[j]
             + (-1.0 / beta) * log_B[i]
             + comp.weight_scale * comp.gamma2 * solution.weights[i]
             for j, i in zip(geo_idx, sol_idx)]
    return ((math.log(solution.welfare) / beta + _logsumexp(np.array(terms)))
            / (params.delta * st * sigma))


def _loop_hosts(solution, geography):
    """(vacant id, host id, host distance at the vacant site) per vacant site."""
    pos = {s.id: p for p, s in enumerate(geography.sites)}
    id_of_label = dict(enumerate(solution.site_ids))
    for site in geography.sites:
        if site.id in solution.active_ids:
            continue
        iy, ix = geography.grid.cell_of(site.position)
        host_id = id_of_label[int(solution.tessellation.labels[iy, ix])]
        host_geo = pos[host_id]
        d_host = float(geography.system.distance(
            geography.sites[host_geo], host_geo,
            np.array(site.position[0]), np.array(site.position[1])))
        yield site.id, host_id, d_host


def loop_deviation_margins(solution, geography, params):
    """Knife-edge deviation margins δσ̃σ·(λ*_host − λ*_p − d_host(y_p)) and
    host ids, keyed by vacant site id."""
    comp = composite_params(params, geography.productivities, geography.trade)
    scale = params.delta * comp.sigma_tilde * comp.sigma
    margins, hosts = {}, {}
    for v, host_id, d_host in _loop_hosts(solution, geography):
        hosts[v] = host_id
        margins[v] = scale * (
            loop_potential_weight(solution, geography, params, host_id)
            - loop_potential_weight(solution, geography, params, v) - d_host)
    return margins, hosts


def loop_deviation_inequality_margins(solution, geography, params):
    """Knife-edge deviation margins from the deviation inequality: trade
    access sums, productivity ratio and host distance, by vacant site id."""
    pos = {s.id: p for p, s in enumerate(geography.sites)}
    comp = composite_params(params, geography.productivities, geography.trade)
    st, sigma = comp.sigma_tilde, comp.sigma
    margins = {}
    for v, host_id, d_host in _loop_hosts(solution, geography):
        p_geo, host_geo = pos[v], pos[host_id]
        log_S_p = loop_log_deviation_sum(solution, geography, comp, p_geo)
        log_S_i = loop_log_deviation_sum(solution, geography, comp, host_geo)
        lhs = (st * (sigma - 1.0)
               * math.log(geography.productivities[p_geo]
                          / geography.productivities[host_geo])
               + (log_S_p - log_S_i)
               + st * sigma * params.delta * d_host)
        margins[v] = -lhs
    return margins
