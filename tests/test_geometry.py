import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from hinterland.errors import (
    CoincidentSites,
    DisconnectedDomain,
    EmptyDomain,
    InvalidInput,
    NonFiniteWeight,
)
from hinterland.geometry import (
    OUTSIDE,
    DistanceSystem,
    Site,
    assign_labels,
    build_grid,
    count_components,
    cross_distances,
    distance_stack,
    lambda_feasibility,
    sample_feasible_weights,
)

from helpers import brute_labels, loop_feasible_starts, loop_lambda_feasibility

EUCLID = DistanceSystem()


def disk_grid(n=128, radius=1.0):
    return build_grid((-1, -1, 1, 1), (n, n),
                      lambda X, Y: X * X + Y * Y <= radius * radius)


def test_unit_square_grid_geometry():
    g = build_grid((0, 0, 1, 1), (8, 4))
    assert g.dx == pytest.approx(0.125)
    assert g.dy == pytest.approx(0.25)
    assert g.cell_area == pytest.approx(0.03125)
    assert g.n_inside == 32
    X, Y = g.cell_centers()
    assert X[0, 0] == pytest.approx(0.0625)
    assert Y[0, 0] == pytest.approx(0.125)
    assert X.shape == (4, 8)


@pytest.mark.parametrize("grid", [
    build_grid((-0.4, 1.5, 2.3, 2.75), (37, 23)),
    build_grid((-1, -1, 1, 1), (40, 40), lambda X, Y: X * X + Y * Y <= 0.8),
], ids=["37x23", "disk"])
@pytest.mark.parametrize("system", [
    DistanceSystem(),
    DistanceSystem("scaled_euclidean", (1.0, 0.7, 2.3)),
], ids=["euclidean", "scaled"])
def test_distance_stack_is_the_pointwise_distance_bit_for_bit(grid, system):
    # the stack is built from the two center axes, the reference from the
    # full center rasters: every plane must agree to the last bit
    X, Y = grid.cell_centers()
    xs, ys = grid.cell_center_axes()
    assert xs.shape == (grid.nx,) and ys.shape == (grid.ny,)
    assert all(np.array_equal(a, b)
               for a, b in zip((X, Y), np.meshgrid(xs, ys)))
    x0, y0, x1, y1 = grid.bbox
    sites = tuple(Site(i, (x0 + f * (x1 - x0), y0 + g * (y1 - y0)))
                  for i, (f, g) in enumerate([(0.21, 0.33), (0.77, 0.5),
                                              (0.4, 0.91)]))
    stack = distance_stack(grid, sites, system)
    assert stack.shape == (3, grid.ny, grid.nx) and not stack.flags.writeable
    for i, s in enumerate(sites):
        assert np.array_equal(stack[i], system.distance(s, i, X, Y))


def test_disk_area_close_to_pi():
    g = disk_grid(128)
    assert abs(g.area - math.pi) / math.pi < 0.02


def test_empty_domain_raises():
    with pytest.raises(EmptyDomain):
        build_grid((0, 0, 1, 1), (16, 16), lambda X, Y: X > 2)


def test_disconnected_domain_raises():
    # two blobs joined only diagonally do not count as connected
    with pytest.raises(DisconnectedDomain):
        build_grid((0, 0, 1, 1), (16, 16),
                   lambda X, Y: (X < 0.4) | (X > 0.6))


def test_disconnected_domain_message_counts_components():
    # three vertical bands; the empty check still comes first
    with pytest.raises(DisconnectedDomain,
                       match="inside mask has 3 4-connected components"):
        build_grid((0, 0, 1, 1), (16, 16),
                   lambda X, Y: (X < 0.2) | ((X > 0.4) & (X < 0.6)) | (X > 0.8))
    with pytest.raises(EmptyDomain):
        build_grid((0, 0, 1, 1), (16, 16), lambda X, Y: np.zeros_like(X, dtype=bool))


# ---------------------------------------------------------------------------
# 4-connected component count against scipy.ndimage.label

CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


def ndimage_count(mask):
    return ndimage.label(mask, structure=CROSS)[1]


@settings(max_examples=300, deadline=None)
@given(mask=arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 12))))
def test_component_count_matches_ndimage_label(mask):
    assert count_components(mask) == ndimage_count(mask)


def _mask(rows):
    return np.array([[c == "#" for c in row] for row in rows])


HARD_SHAPES = {
    "row": (_mask(["##.#..##"]), 3),
    "column": (_mask(["##.#..##"]).T, 3),
    "full_row": (np.ones((1, 9), dtype=bool), 1),
    "full_column": (np.ones((9, 1), dtype=bool), 1),
    "diagonal_blobs": (_mask(["##..",
                              "##..",
                              "..##",
                              "..##"]), 2),
    "anti_diagonal_blobs": (_mask(["..##",
                                   "..##",
                                   "##..",
                                   "##.."]), 2),
    # the arms are separate runs in every row until the last one joins them
    "u_joined_in_last_row": (_mask(["#..#..#",
                                    "#..#..#",
                                    "#..#..#",
                                    "#######"]), 1),
    "u_without_last_row": (_mask(["#..#..#",
                                  "#..#..#",
                                  "#..#..#"]), 3),
    "ring_with_hole": (_mask(["#####",
                              "#...#",
                              "#...#",
                              "#####"]), 1),
    "ring_with_island": (_mask(["#######",
                                "#.....#",
                                "#..#..#",
                                "#.....#",
                                "#######"]), 2),
    "checkerboard": ((np.indices((7, 6)).sum(axis=0) % 2 == 0), 21),
    "spiral": (_mask(["#######",
                      "......#",
                      "#####.#",
                      "#...#.#",
                      "#.###.#",
                      "#.....#",
                      "#######"]), 1),
}


@pytest.mark.parametrize("name", sorted(HARD_SHAPES))
def test_component_count_of_hard_shapes(name):
    mask, expected = HARD_SHAPES[name]
    assert count_components(mask) == expected
    assert ndimage_count(mask) == expected


def test_component_check_on_full_256_grid_is_fast():
    grid = build_grid((0, 0, 1, 1), (256, 256))
    times = []
    for _ in range(20):
        start = time.perf_counter()
        assert count_components(grid.inside) == 1
        times.append(time.perf_counter() - start)
    best = min(times)
    print(f"count_components, full 256x256 mask: {best * 1e3:.3f} ms (best of 20)")
    assert best < 2e-3


def test_degenerate_resolution_rejected():
    with pytest.raises(ValueError):
        build_grid((0, 0, 1, 1), (1, 16))


@pytest.mark.parametrize("bbox", [(0, 0, math.inf, 1), (-math.inf, 0, 1, 1),
                                  (0, 0, 1, math.nan)])
def test_non_finite_bbox_rejected(bbox):
    # an infinite bound would give cells of infinite width
    with pytest.raises(InvalidInput, match=r"^degenerate bbox \(.*\): must be "
                                           "finite with x0 < x1 and y0 < y1$"):
        build_grid(bbox, (4, 4))


def test_site_validation():
    with pytest.raises(ValueError):
        Site(id=0, position=(0, 0), productivity=0.0)
    with pytest.raises(ValueError):
        Site(id=0, position=(math.nan, 0.0))


def two_sites(d=1.0):
    return (Site(0, (0.0, 0.0)), Site(1, (d, 0.0)))


def test_equal_weights_bisect_plane():
    g = build_grid((-1, -1, 2, 1), (96, 64))
    tess = assign_labels(g, two_sites(), EUCLID, [0.0, 0.0])
    X, _ = g.cell_centers()
    assert np.all(tess.labels[X < 0.5] == 0)
    assert np.all(tess.labels[X > 0.5] == 1)
    assert tess.active_set == (0, 1)
    assert tess.neighbors[0] == frozenset({1})


def test_overweighted_site_swallows_neighbor():
    # weight gap 1.2 exceeds the separation 1.0, so the second cell empties
    g = build_grid((-1, -1, 2, 1), (96, 64))
    tess = assign_labels(g, two_sites(), EUCLID, [0.6, -0.6])
    assert tess.active_set == (0,)
    assert tess.cell_measure[1] == 0.0
    assert np.all(tess.labels[g.inside] == 0)


def test_outside_cells_get_sentinel():
    g = disk_grid(32)
    tess = assign_labels(g, two_sites(0.5), EUCLID, [0.0, 0.0])
    assert np.all(tess.labels[~g.inside] == OUTSIDE)
    assert np.all(tess.labels[g.inside] >= 0)


def test_cell_measures_sum_to_domain_area():
    g = disk_grid(64)
    tess = assign_labels(g, two_sites(0.5), EUCLID, [0.1, 0.0])
    assert tess.cell_measure.sum() == pytest.approx(g.area)


def test_tie_breaks_to_lowest_index():
    # both sites exactly 0.125 (binary-exact) from the cell center at x=0.25
    g = build_grid((0, 0, 1, 0.5), (2, 1 + 1))
    a, b = Site(0, (0.125, 0.125)), Site(1, (0.375, 0.125))
    tess = assign_labels(g, (a, b), EUCLID, [0.0, 0.0])
    assert tess.labels[0, 0] == 0
    swapped = assign_labels(g, (Site(0, b.position), Site(1, a.position)),
                            EUCLID, [0.0, 0.0])
    assert swapped.labels[0, 0] == 0  # still the lowest index, now the other point


def test_coincident_sites_rejected():
    g = build_grid((0, 0, 1, 1), (8, 8))
    sites = (Site(0, (0.5, 0.5)), Site(1, (0.5, 0.5)))
    with pytest.raises(CoincidentSites):
        assign_labels(g, sites, EUCLID, [0.0, 0.0])


def test_nonfinite_weights_rejected():
    g = build_grid((0, 0, 1, 1), (8, 8))
    with pytest.raises(NonFiniteWeight):
        assign_labels(g, two_sites(0.5), EUCLID, [0.0, math.inf])


def test_labels_match_bruteforce_oracle():
    rng = np.random.default_rng(42)
    g = disk_grid(48)
    for _ in range(5):
        n = rng.integers(2, 6)
        sites = tuple(Site(i, tuple(rng.uniform(-0.6, 0.6, 2))) for i in range(n))
        weights = rng.uniform(-0.2, 0.2, n)
        tess = assign_labels(g, sites, EUCLID, weights)
        assert np.array_equal(tess.labels, brute_labels(g, sites, EUCLID, weights))


def test_scaled_metric_matches_oracle_and_shrinks_fast_site():
    g = build_grid((-1, -1, 2, 1), (60, 40))
    sites = two_sites()
    slow = DistanceSystem("scaled_euclidean", scales=(1.0, 1.0))
    fast = DistanceSystem("scaled_euclidean", scales=(1.0, 3.0))
    t_slow = assign_labels(g, sites, slow, [0.0, 0.0])
    t_fast = assign_labels(g, sites, fast, [0.0, 0.0])
    assert np.array_equal(t_slow.labels,
                          brute_labels(g, sites, slow, np.zeros(2)))
    assert np.array_equal(t_fast.labels,
                          brute_labels(g, sites, fast, np.zeros(2)))
    # tripling site 1's commuting cost shrinks its cell
    assert t_fast.cell_measure[1] < t_slow.cell_measure[1]


nice_coords = st.floats(-0.75, 0.75).map(lambda v: round(v, 2))
nice_weights = st.floats(-0.3, 0.3).map(lambda v: round(v, 2))


@st.composite
def site_configs(draw, max_sites=4):
    n = draw(st.integers(2, max_sites))
    pts = draw(st.lists(st.tuples(nice_coords, nice_coords),
                        min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(nice_weights, min_size=n, max_size=n))
    return tuple(Site(i, p) for i, p in enumerate(pts)), np.array(weights)


def _assert_shift_only_moves_near_ties(sites, weights, shift):
    """Labels of d_i - (w_i + shift) equal those of d_i - w_i, except at
    cells whose two lowest base costs lie within a few ulps of
    |costs| + |shift|, where the two roundings may order them differently."""
    g = build_grid((-1, -1, 1, 1), (24, 24))
    base = assign_labels(g, sites, EUCLID, weights)
    shifted = assign_labels(g, sites, EUCLID, weights + shift)
    xs, ys = g.cell_centers()
    costs = np.stack([np.sqrt((xs - s.position[0]) ** 2 + (ys - s.position[1]) ** 2)
                      - w for s, w in zip(sites, weights)])
    lowest = np.sort(costs, axis=0)
    near_tie = (lowest[1] - lowest[0]
                <= 8 * np.finfo(float).eps * (np.abs(costs).max(axis=0) + abs(shift)))
    moved = base.labels != shifted.labels
    assert np.all(near_tie[moved])  # so every other cell keeps its label
    return moved


@settings(max_examples=40, deadline=None)
@given(config=site_configs(), shift=st.sampled_from([-2.0, -0.5, 0.25, 1.0, 8.0]))
def test_labels_invariant_under_common_weight_shift(config, shift):
    _assert_shift_only_moves_near_ties(*config, shift)


def test_common_weight_shift_moves_only_near_ties_regression():
    sites = (Site(0, (0.0, 0.0)), Site(1, (0.05, -0.4)))
    moved = _assert_shift_only_moves_near_ties(sites, np.zeros(2), -2.0)
    # the shifted costs round to the other order at exactly these two cells
    assert {tuple(c) for c in np.argwhere(moved).tolist()} == {(8, 3), (9, 11)}


@settings(max_examples=40, deadline=None)
@given(config=site_configs(), bump=st.sampled_from([0.05, 0.25, 1.0]),
       which=st.integers(0, 3))
def test_raising_one_weight_weakly_grows_its_cell(config, bump, which):
    sites, weights = config
    i = which % len(sites)
    g = build_grid((-1, -1, 1, 1), (24, 24))
    before = assign_labels(g, sites, EUCLID, weights).labels == i
    bumped = weights.copy()
    bumped[i] += bump
    after = assign_labels(g, sites, EUCLID, bumped).labels == i
    assert np.all(after[before])  # no cell is lost
    assert np.all(~before[~after])


def test_feasibility_bands():
    sites = two_sites(2.0)
    assert lambda_feasibility(sites, EUCLID, [0.0, 0.0], 0.5).verdict == "interior"
    # difference of 1.0 sits exactly on the half-shrunk band edge
    rep = lambda_feasibility(sites, EUCLID, [1.0, 0.0], 0.5)
    assert rep.verdict == "boundary"
    assert rep.pairs[(0, 1)] == "boundary"
    assert rep.pairs[(1, 0)] == "boundary"
    assert lambda_feasibility(sites, EUCLID, [2.5, 0.0], 0.5).verdict == "infeasible"
    with pytest.raises(ValueError):
        lambda_feasibility(sites, EUCLID, [0.0, 0.0], 1.5)


def test_feasibility_interior_matches_active_tessellation():
    g = build_grid((-1, -1, 2, 1), (96, 64))
    sites = two_sites()
    rep = lambda_feasibility(sites, EUCLID, [0.3, 0.0], 0.5)
    assert rep.verdict == "interior"
    tess = assign_labels(g, sites, EUCLID, [0.3, 0.0])
    assert tess.active_set == (0, 1)


def test_asymmetric_feasibility_under_scaled_metric():
    # site 1 moves at triple cost: the band for w_0 - w_1 is (-3, 1) * d
    sites = two_sites(1.0)
    system = DistanceSystem("scaled_euclidean", scales=(1.0, 3.0))
    assert lambda_feasibility(sites, system, [-2.0, 0.0], 0.5).verdict == "boundary"
    assert lambda_feasibility(sites, system, [-3.5, 0.0], 0.5).verdict == "infeasible"
    assert lambda_feasibility(sites, system, [0.9, 0.0], 0.9).verdict == "boundary"


def _feasibility_cases(scaled):
    """Seeded weight vectors over random sites, including exact band edges."""
    rng = np.random.default_rng(20 + scaled)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        sites = tuple(Site(i, tuple(p)) for i, p in enumerate(rng.uniform(0, 1, (n, 2))))
        system = (DistanceSystem("scaled_euclidean", scales=tuple(rng.uniform(0.3, 3.0, n)))
                  if scaled else EUCLID)
        d = cross_distances(sites, system)
        k = float(rng.choice([0.1, 0.5, 0.9]))
        yield sites, system, rng.uniform(-1.2, 1.2, n) * d.max(), k
        for edge in (d[0, 1], k * d[0, 1], -d[1, 0], -k * d[1, 0]):
            weights = np.zeros(n)
            weights[0] = edge
            yield sites, system, weights, k


@pytest.mark.parametrize("scaled", [False, True])
def test_feasibility_matches_pair_loop(scaled):
    seen = set()
    for sites, system, weights, k in _feasibility_cases(scaled):
        report = lambda_feasibility(sites, system, weights, k)
        pairs, verdict = loop_lambda_feasibility(sites, system, weights, k)
        assert list(report.pairs.items()) == list(pairs.items())
        assert all(type(i) is int and type(j) is int for i, j in report.pairs)
        assert report.verdict == verdict
        seen.update(pairs.values())
    assert seen == {"interior", "boundary", "infeasible"}


def test_feasibility_of_a_single_site_is_interior():
    report = lambda_feasibility((Site(0, (0.0, 0.0)),), EUCLID, [3.0], 0.5)
    assert report.pairs == {} and report.verdict == "interior"
    starts = sample_feasible_weights((Site(0, (0.0, 0.0)),), EUCLID, 0.5, 3, 0)
    assert [w.tolist() for w in starts] == [[0.0]] * 3


@pytest.mark.parametrize("scaled", [False, True])
def test_feasible_weight_sampler_pins_the_seeded_draws(scaled):
    sites = (Site(0, (0.0, 0.0)), Site(1, (1.0, 0.0)), Site(2, (0.3, 0.8)),
             Site(3, (1.2, 1.1)))
    system = (DistanceSystem("scaled_euclidean", scales=(1.0, 2.5, 0.7, 1.3))
              if scaled else EUCLID)
    got = sample_feasible_weights(sites, system, 0.5, 12, seed=7)
    expected = loop_feasible_starts(sites, system, 0.5, 12, 7)
    assert len(got) == 12
    for w, e in zip(got, expected):
        assert np.array_equal(w, e)   # bit for bit, same order
        assert lambda_feasibility(sites, system, w, 0.5).verdict == "interior"
    assert sample_feasible_weights(sites, system, 0.5, 0, seed=7) == []


def test_cross_distances_collinear_example():
    sites = (Site(0, (0.0, 0.0)), Site(1, (1.0, 0.0)), Site(2, (3.0, 0.0)))
    d = cross_distances(sites, EUCLID)
    assert d[0, 2] == 3.0 and d[2, 0] == 3.0


def test_cross_distances_scaled_asymmetry():
    sites = two_sites(1.0)
    system = DistanceSystem("scaled_euclidean", scales=(2.0, 0.5))
    d = cross_distances(sites, system)
    assert d[0, 1] == 2.0 and d[1, 0] == 0.5
