import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from helpers import (
    brute_labels,
    disk_quadrature,
    disk_kernel_integral,
    inscribed_radius,
    loop_amenity_integral,
    loop_cell_integral,
    loop_interface_edges,
    loop_neighbors,
    loop_semielasticity,
)
from hinterland import integrals
from hinterland.errors import InactiveSiteWithMass
from hinterland.fields import (
    Geography,
    amenity_from_function,
    trade_costs_from_metric,
)
from hinterland.geometry import (
    DistanceSystem,
    Site,
    assign_labels,
    build_grid,
    pairwise_metrics,
)
from hinterland.integrals import (
    KernelSpec,
    SemielasticityBound,
    _logsumexp,
    aggregate_amenities,
    resident_density,
    semielasticity_matrix,
    semielasticity_sup,
)

EUCLID = DistanceSystem()


def unit_square(n=64):
    return build_grid((0.0, 0.0, 1.0, 1.0), (n, n))


def two_site_setup(n=128, beta=-0.4, delta=1.3, amenity_fn=None):
    grid = unit_square(n)
    sites = (Site(0, (0.12, 0.2)), Site(1, (0.93, 0.7)))
    fn = amenity_fn or (lambda x, y: 1.0 + 0.3 * x + 0.1 * y)
    amen = amenity_from_function(grid, fn)
    kern = KernelSpec(beta_eff=beta, distance_coeff=delta)
    return grid, sites, amen, kern


# ---------------------------------------------------------------------------
# closed-form disk integral

def test_disk_kernel_integral_frozen_value():
    # polar-coordinate closed form at (1, 1, -1): 2*pi*(1 - 2/e)
    assert disk_kernel_integral(1.0, 1.0, -1.0) == pytest.approx(
        2.0 * math.pi * (1.0 - 2.0 * math.exp(-1.0)), abs=0, rel=1e-15)
    assert disk_kernel_integral(1.0, 1.0, -1.0) == pytest.approx(
        1.6602759080158993, abs=0, rel=1e-15)


def test_disk_kernel_integral_strong_decay_limit():
    # when decay is steep the boundary terms vanish: integral -> 2*pi*beta^2/delta^2
    val = disk_kernel_integral(50.0, 6.0, -0.25)
    assert val == pytest.approx(2.0 * math.pi * 0.25 ** 2 / 6.0 ** 2, rel=1e-12)


def test_disk_kernel_integral_validates_signs():
    with pytest.raises(ValueError):
        disk_kernel_integral(-1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        disk_kernel_integral(1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        disk_kernel_integral(1.0, 1.0, 0.5)


@pytest.mark.parametrize("eps,delta,beta", [
    (1.0, 1.0, -1.0),
    (0.8, 4.0, -0.5),
    (0.5, 8.0, -0.3),
])
def test_disk_quadrature_matches_closed_form(eps, delta, beta):
    exact = disk_kernel_integral(eps, delta, beta)
    approx = disk_quadrature(lambda r: math.exp(delta * r / beta), eps, n=512)
    assert abs(approx - exact) / exact < 0.005
    # halving the mesh width cuts the error by a clear factor
    coarse = disk_quadrature(lambda r: math.exp(delta * r / beta), eps, n=256)
    assert abs(coarse - exact) / abs(approx - exact) >= 1.5


# ---------------------------------------------------------------------------
# NumPy logsumexp against scipy's

def test_logsumexp_matches_scipy():
    rng = np.random.default_rng(3)
    a = rng.normal(0.0, 4.0, size=(5, 7)) + 10.0
    a[1, [0, 4]] = -np.inf
    big = a * 1e3
    for x in (a, big, -big):
        assert _logsumexp(x) == pytest.approx(scipy.special.logsumexp(x),
                                              rel=1e-14, abs=0)
        np.testing.assert_allclose(_logsumexp(x, axis=1),
                                   scipy.special.logsumexp(x, axis=1),
                                   rtol=1e-14, atol=0)
    assert np.shape(_logsumexp(a)) == ()
    assert _logsumexp(a, axis=1).shape == (5,)


def test_logsumexp_all_neg_inf_row_is_quiet():
    a = np.array([[0.5, -1.0, 2.0], [-np.inf, -np.inf, -np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _logsumexp(a, axis=1)
        whole = _logsumexp(a[1])
    assert rows[1] == -np.inf and whole == -np.inf
    assert rows[0] == pytest.approx(scipy.special.logsumexp(a[0]), rel=1e-14)


# ---------------------------------------------------------------------------
# cell aggregates

@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_stack_path_matches_loop_oracles(n, seed):
    rng = np.random.default_rng(seed)
    grid = build_grid((0.0, 0.0, 1.0, 0.75), (23, 17),
                      lambda X, Y: (X - 0.5) ** 2 + (Y - 0.4) ** 2 < 0.3)
    sites = tuple(Site(i, tuple(rng.uniform(0.05, 0.95, 2))) for i in range(n))
    system = DistanceSystem("scaled_euclidean",
                            scales=tuple(rng.uniform(0.5, 2.0, n)))
    weights = rng.uniform(-0.15, 0.15, n)
    amen = amenity_from_function(grid, lambda x, y: 1.0 + 0.5 * x * y)
    kern = KernelSpec(beta_eff=-0.4, distance_coeff=3.0)

    tess = assign_labels(grid, sites, system, weights)
    agg = aggregate_amenities(tess, amen, kern)
    assert np.array_equal(tess.labels, brute_labels(grid, sites, system, weights))
    assert tess.neighbors == loop_neighbors(tess.labels, n)
    ones = np.ones((grid.ny, grid.nx))
    for i, site in enumerate(sites):
        assert tess.cell_measure[i] == loop_cell_integral(grid, tess.labels, i, ones)
        ref = loop_amenity_integral(grid, tess.labels, i, site, system,
                                    amen.values, kern.beta_eff, kern.distance_coeff)
        if ref == 0.0:
            assert agg.log_raw[i] == -np.inf
        else:
            assert agg.log_raw[i] == pytest.approx(math.log(ref), rel=1e-12)


def test_aggregate_matches_loop_oracle():
    grid, sites, amen, kern = two_site_setup(n=64)
    tess = assign_labels(grid, sites, EUCLID, [0.05, -0.02])
    agg = aggregate_amenities(tess, amen, kern)
    for i, site in enumerate(sites):
        ref = loop_amenity_integral(grid, tess.labels, i, site, EUCLID,
                                    amen.values, kern.beta_eff, kern.distance_coeff)
        assert agg.raw_integrals[i] == pytest.approx(ref, rel=1e-12)
        assert agg.B[i] == pytest.approx(ref ** (-kern.beta_eff), rel=1e-12)
    assert agg.active.all()


def test_aggregate_zero_decay_limit_gives_cell_measure_power():
    # with unit amenity and vanishing decay, I_i -> |cell| so B_i -> |cell|^(-beta)
    grid, sites, _, _ = two_site_setup(n=64)
    amen = amenity_from_function(grid, lambda x, y: np.ones_like(x))
    kern = KernelSpec(beta_eff=-0.5, distance_coeff=1e-12)
    tess = assign_labels(grid, sites, EUCLID, [0.0, 0.0])
    agg = aggregate_amenities(tess, amen, kern)
    for i in range(tess.n_sites):
        assert agg.B[i] == pytest.approx(tess.cell_measure[i] ** 0.5, rel=1e-9)


def test_aggregate_symmetric_sites_equal():
    grid = unit_square(128)
    sites = (Site(0, (0.25, 0.5)), Site(1, (0.75, 0.5)))
    amen = amenity_from_function(grid, lambda x, y: 1.0 + 0.2 * y)  # mirror-even
    kern = KernelSpec(beta_eff=-0.3, distance_coeff=2.0)
    tess = assign_labels(grid, sites, EUCLID, [0.0, 0.0])
    agg = aggregate_amenities(tess, amen, kern)
    assert abs(agg.log_B[0] - agg.log_B[1]) < 1e-10


def test_aggregate_survives_extreme_decay():
    # log-space accumulation keeps steep kernels finite
    grid, sites, amen, _ = two_site_setup(n=64)
    kern = KernelSpec(beta_eff=-0.05, distance_coeff=400.0)
    tess = assign_labels(grid, sites, EUCLID, [0.0, 0.0])
    agg = aggregate_amenities(tess, amen, kern)
    assert np.isfinite(agg.log_raw).all()
    assert np.isfinite(agg.log_B).all()


def test_aggregate_flags_inactive_site():
    grid, sites, amen, kern = two_site_setup(n=32)
    # site 1 swallowed entirely
    tess = assign_labels(grid, sites, EUCLID, [5.0, 0.0])
    assert tess.active_set == (0,)
    agg = aggregate_amenities(tess, amen, kern)
    assert not agg.active[1]
    assert np.isnan(agg.B[1])
    assert agg.log_raw[1] == -np.inf


def test_inscribed_radius_ball_stays_in_cell():
    grid, sites, amen, kern = two_site_setup(n=128)
    _, d_min, _ = pairwise_metrics(sites, EUCLID)
    k = 0.5
    eps = inscribed_radius(d_min, k)
    # at any feasible weight vector in the k-shrunk band, the ball around a
    # site stays in its own cell: check at an extreme of the band
    w = np.array([k * d_min / 2.0, -k * d_min / 2.0])
    tess = assign_labels(grid, sites, EUCLID, w)
    X, Y = grid.cell_centers()
    for i, s in enumerate(sites):
        ball = (X - s.position[0]) ** 2 + (Y - s.position[1]) ** 2 <= (eps - grid.dx) ** 2
        assert np.all(tess.labels[ball] == i)
    # and the closed-form lower bound it induces is below the true aggregate
    agg = aggregate_amenities(tess, amen, kern)
    b_lo = float(amen.values.min())
    lower = (b_lo ** (-1.0 / kern.beta_eff)
             * disk_kernel_integral(eps, kern.distance_coeff, kern.beta_eff)) \
        ** (-kern.beta_eff)
    assert np.all(lower <= agg.B)


# ---------------------------------------------------------------------------
# resident density

def test_resident_density_integrates_to_labor():
    grid, sites, amen, kern = two_site_setup(n=64)
    tess = assign_labels(grid, sites, EUCLID, [0.03, 0.0])
    agg = aggregate_amenities(tess, amen, kern)
    labor = np.array([0.7, 0.3])
    dens = resident_density(tess, agg, amen, kern, labor)
    for i in range(2):
        mass = loop_cell_integral(grid, tess.labels, i, dens)
        assert mass == pytest.approx(labor[i], rel=1e-12)
    assert dens.sum() * grid.cell_area == pytest.approx(1.0, rel=1e-12)


def test_resident_density_peaks_at_the_site():
    grid, sites, _, _ = two_site_setup(n=128)
    amen = amenity_from_function(grid, lambda x, y: np.ones_like(x))
    kern = KernelSpec(beta_eff=-0.4, distance_coeff=3.0)
    tess = assign_labels(grid, sites, EUCLID, [0.0, 0.0])
    agg = aggregate_amenities(tess, amen, kern)
    dens = resident_density(tess, agg, amen, kern, [0.5, 0.5])
    iy, ix = np.unravel_index(np.argmax(dens), dens.shape)
    # the maximizing cell is one of the two site cells
    site_cells = {grid.cell_of(s.position) for s in sites}
    assert (iy, ix) in site_cells


def test_resident_density_mirror_symmetry():
    grid = unit_square(64)
    sites = (Site(0, (0.25, 0.5)), Site(1, (0.75, 0.5)))
    amen = amenity_from_function(grid, lambda x, y: np.ones_like(x))
    kern = KernelSpec(beta_eff=-0.5, distance_coeff=2.0)
    tess = assign_labels(grid, sites, EUCLID, [0.0, 0.0])
    agg = aggregate_amenities(tess, amen, kern)
    dens = resident_density(tess, agg, amen, kern, [0.5, 0.5])
    assert np.allclose(dens, dens[:, ::-1], rtol=1e-10, atol=1e-12)


def test_resident_density_rejects_mass_on_empty_cell():
    grid, sites, amen, kern = two_site_setup(n=32)
    tess = assign_labels(grid, sites, EUCLID, [5.0, 0.0])
    agg = aggregate_amenities(tess, amen, kern)
    with pytest.raises(InactiveSiteWithMass):
        resident_density(tess, agg, amen, kern, [0.5, 0.5])
    # zero mass on the empty cell is fine
    dens = resident_density(tess, agg, amen, kern, [1.0, 0.0])
    assert dens.sum() * grid.cell_area == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# shape-derivative boundary integral

def _log_B(grid, sites, amen, kern, weights, i):
    tess = assign_labels(grid, sites, EUCLID, weights)
    agg = aggregate_amenities(tess, amen, kern)
    return float(agg.log_B[i])


@pytest.mark.parametrize("w", [(0.0, 0.0), (0.1, -0.05)])
def test_semielasticity_matches_central_differences(w):
    grid, sites, amen, kern = two_site_setup(n=256)
    w = np.asarray(w)
    tess = assign_labels(grid, sites, EUCLID, w)
    eta = semielasticity_matrix(tess, amen, kern)[0][0, 1]
    h = 5.0 * grid.dx  # sweep a band ~10 cells wide so flip noise averages out
    wp, wm = w.copy(), w.copy()
    wp[1] += h
    wm[1] -= h
    fd = (_log_B(grid, sites, amen, kern, wp, 0)
          - _log_B(grid, sites, amen, kern, wm, 0)) / (2.0 * h)
    # raising a rival's weight shrinks the cell: log B falls
    assert fd < 0
    assert abs(eta - abs(fd)) / eta < 0.02


def test_semielasticity_own_weight_is_neighbor_sum():
    grid, sites, amen, kern = two_site_setup(n=128)
    tess = assign_labels(grid, sites, EUCLID, [0.0, 0.0])
    eta, _ = semielasticity_matrix(tess, amen, kern)
    own, cross = eta[0, 0], eta[0, 1]
    assert own == pytest.approx(cross, rel=1e-12)  # single neighbor
    # and it tracks the own-weight derivative (cell grows: log B rises)
    h = 5.0 * grid.dx
    fd = (_log_B(grid, sites, amen, kern, [h, 0.0], 0)
          - _log_B(grid, sites, amen, kern, [-h, 0.0], 0)) / (2.0 * h)
    assert fd > 0
    assert abs(own - fd) / own < 0.03


def test_semielasticity_nonadjacent_pair_is_exact_zero():
    grid = unit_square(96)
    sites = (Site(0, (0.1, 0.5)), Site(1, (0.5, 0.5)), Site(2, (0.9, 0.5)))
    amen = amenity_from_function(grid, lambda x, y: np.ones_like(x))
    kern = KernelSpec(beta_eff=-0.4, distance_coeff=1.0)
    tess = assign_labels(grid, sites, EUCLID, [0.0, 0.0, 0.0])
    assert 2 not in tess.neighbors[0]
    assert semielasticity_matrix(tess, amen, kern)[0][0, 2] == 0.0


def test_semielasticity_symmetric_pair_agrees():
    grid = unit_square(128)
    sites = (Site(0, (0.3, 0.5)), Site(1, (0.7, 0.5)))
    amen = amenity_from_function(grid, lambda x, y: np.ones_like(x))
    kern = KernelSpec(beta_eff=-0.5, distance_coeff=2.0)
    tess = assign_labels(grid, sites, EUCLID, [0.0, 0.0])
    eta, _ = semielasticity_matrix(tess, amen, kern)
    assert eta[0, 1] == pytest.approx(eta[1, 0], rel=1e-10)


def test_semielasticity_counts_degenerate_edges():
    grid, sites, amen, kern = two_site_setup(n=64)
    tess = assign_labels(grid, sites, EUCLID, [0.0, 0.0])
    _, skipped = semielasticity_matrix(tess, amen, kern)
    # Euclidean gradients of distinct sites never align on their bisector
    assert skipped[0, 1] == 0


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 8), scaled=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_semielasticity_matrix_matches_edge_loop(n, scaled, seed):
    rng = np.random.default_rng(seed)
    # a disk on a grid with dx != dy
    grid = build_grid((0.0, 0.0, 1.0, 0.8), (36, 26),
                      lambda X, Y: (X - 0.5) ** 2 + (Y - 0.4) ** 2 < 0.16)
    sites = tuple(Site(i, tuple(rng.uniform(0.15, 0.85, 2) * (1.0, 0.8)))
                  for i in range(n))
    system = (DistanceSystem("scaled_euclidean", scales=tuple(rng.uniform(0.5, 2.0, n)))
              if scaled else EUCLID)
    amen = amenity_from_function(grid, lambda x, y: 1.0 + 0.5 * x * y + 0.3 * np.sin(7 * x))
    kern = KernelSpec(beta_eff=-0.4, distance_coeff=1.3)
    tess = assign_labels(grid, sites, system, rng.uniform(-0.05, 0.05, n))
    agg = aggregate_amenities(tess, amen, kern)

    eta, skipped = semielasticity_matrix(tess, amen, kern)
    ref, ref_skipped = loop_semielasticity(tess, amen, kern, agg,
                                           integrals.DEGENERATE_NORMAL_CUTOFF)
    np.testing.assert_allclose(eta, ref, rtol=1e-12, atol=0)
    assert np.array_equal(skipped, ref_skipped)
    neighbors = loop_neighbors(tess.labels, n)
    for i in range(n):
        for k in range(n):
            if k != i and k not in neighbors[i]:
                assert eta[i, k] == 0.0


# ---------------------------------------------------------------------------
# sampled supremum

def _simple_geography(n=64, delta_positions=((0.2, 0.3), (0.8, 0.6))):
    grid = unit_square(n)
    sites = tuple(Site(i, p) for i, p in enumerate(delta_positions))
    amen = amenity_from_function(grid, lambda x, y: np.ones_like(x))
    trade = trade_costs_from_metric(sites, EUCLID, tau=0.1)
    return Geography(grid=grid, sites=sites, system=EUCLID, amenity=amen,
                     trade=trade)


def test_semielasticity_sup_single_site_is_zero():
    geo = _simple_geography(delta_positions=((0.5, 0.5),))
    bound = semielasticity_sup(geo, KernelSpec(-0.4, 1.0))
    assert bound.value == 0.0


def test_semielasticity_sup_one_sample_is_unweighted_max():
    geo = _simple_geography()
    kern = KernelSpec(-0.4, 1.0)
    bound = semielasticity_sup(geo, kern, n_samples=1, seed=7)
    tess = assign_labels(geo.grid, geo.sites, EUCLID, np.zeros(2))
    eta, _ = semielasticity_matrix(tess, geo.amenity, kern)
    expected = max(float(eta[i, k]) for i in range(2) for k in tess.neighbors[i])
    assert bound.value == expected
    assert bound.n_weight_vectors == 1


def test_semielasticity_sup_decreases_when_decay_doubles():
    geo = _simple_geography()
    lo = semielasticity_sup(geo, KernelSpec(-0.4, 1.0), n_samples=4, seed=3)
    hi = semielasticity_sup(geo, KernelSpec(-0.4, 2.0), n_samples=4, seed=3)
    assert hi.value < lo.value


def test_semielasticity_sup_deterministic_and_dominates_samples():
    geo = _simple_geography()
    kern = KernelSpec(-0.5, 1.5)
    a = semielasticity_sup(geo, kern, n_samples=8, seed=11)
    b = semielasticity_sup(geo, kern, n_samples=8, seed=11)
    assert a == b
    one = semielasticity_sup(geo, kern, n_samples=1, seed=11)
    assert a.value >= one.value
    assert isinstance(a, SemielasticityBound)


def test_semielasticity_skips_every_edge_under_an_infinite_cutoff(monkeypatch):
    monkeypatch.setattr(integrals, "DEGENERATE_NORMAL_CUTOFF", math.inf)
    geo = _simple_geography(delta_positions=((0.2, 0.3), (0.8, 0.6), (0.4, 0.9)))
    kern = KernelSpec(-0.4, 1.0)
    tess = assign_labels(geo.grid, geo.sites, EUCLID, np.zeros(3))
    edges = np.zeros((3, 3), dtype=int)
    for (iy, ix), (jy, jx) in loop_interface_edges(tess.labels):
        i, k = tess.labels[iy, ix], tess.labels[jy, jx]
        edges[i, k] += 1
        edges[k, i] += 1
    assert (edges[~np.eye(3, dtype=bool)] > 0).all()
    eta, skipped = semielasticity_matrix(tess, geo.amenity, kern)
    for i in range(3):
        for k in range(3):
            assert eta[i, k] == 0.0
            if i == k:   # the own weight moves every edge of i's cell
                assert skipped[i].sum() == edges[i].sum()
            else:
                assert skipped[i, k] == edges[i, k]
    bound = semielasticity_sup(geo, kern, n_samples=1)
    assert bound.value == 0.0
    assert bound.skipped_edges == edges.sum()  # every edge once per ordered pair
