import csv
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import loop_boundary_path, loop_run_length_rects
from hinterland import io_formats
from hinterland.analysis import SWEEP_CATEGORIES, parameter_sweep
from hinterland.geometry import OUTSIDE, DistanceSystem, Site, assign_labels, build_grid
from hinterland.io_formats import (
    CATEGORY_PALETTE,
    canonical_json,
    jsonable,
    read_field_raster,
    read_label_raster,
    read_matrix_csv,
    svg_label_boundaries,
    svg_region_map,
    svg_tessellation,
    write_field_raster,
    write_json,
    write_label_raster,
    write_matrix_csv,
    write_table_csv,
)

BBOX = (0.0, 0.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# label raster

def test_label_raster_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 5, size=(13, 17)).astype(np.int32)
    labels[0, :3] = OUTSIDE
    path = tmp_path / "labels.pgm"
    write_label_raster(path, labels, BBOX)
    back, bbox = read_label_raster(path)
    assert np.array_equal(back, labels)
    assert bbox == BBOX


def test_label_raster_is_top_down(tmp_path):
    labels = np.array([[0, 0], [1, 1]], dtype=np.int32)   # row 0 = bottom
    path = tmp_path / "two.pgm"
    write_label_raster(path, labels, BBOX)
    body = path.read_bytes().split(b"\n255\n", 1)[1]
    assert list(body) == [1, 1, 0, 0]   # top row (y large) first


def test_label_raster_rejects_wide_label_range(tmp_path):
    labels = np.full((4, 4), 255, dtype=np.int32)
    with pytest.raises(ValueError, match="reserved"):
        write_label_raster(tmp_path / "bad.pgm", labels, BBOX)


def test_label_raster_read_validates(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P2\n2 2\n255\n")
    with pytest.raises(ValueError, match="not a binary PGM"):
        read_label_raster(path)
    path.write_bytes(b"P5\n2 2\n255\n\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="bbox"):
        read_label_raster(path)
    path.write_bytes(b"P5\n# bbox 0.0 0.0 1.0 1.0\n2 2\n255\n\x00\x00")
    with pytest.raises(ValueError, match="expected 4 pixels"):
        read_label_raster(path)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2 ** 31 - 1))
def test_label_raster_round_trip_property(tmp_path_factory, ny, nx, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(-1, 254, size=(ny, nx)).astype(np.int32)
    path = tmp_path_factory.mktemp("pgm") / "labels.pgm"
    write_label_raster(path, labels, (-2.0, 0.25, 3.5, 4.75))
    back, bbox = read_label_raster(path)
    assert np.array_equal(back, labels)
    assert bbox == (-2.0, 0.25, 3.5, 4.75)


# ---------------------------------------------------------------------------
# field raster

def test_field_raster_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.normal(size=(9, 7))
    values[0, 0] = np.nan
    path = tmp_path / "field.fld"
    write_field_raster(path, values, BBOX)
    back, bbox = read_field_raster(path)
    assert np.array_equal(np.isnan(back), np.isnan(values))
    assert np.array_equal(back[~np.isnan(back)], values[~np.isnan(values)])
    assert bbox == BBOX


def test_field_raster_rejects_foreign_bytes(tmp_path):
    path = tmp_path / "junk.fld"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="FLD1"):
        read_field_raster(path)


@pytest.mark.parametrize("bbox", [(0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 1.0, math.inf),
                                  (math.nan, 0.0, 1.0, 1.0)],
                         ids=["flat", "inf", "nan"])
def test_field_raster_read_rejects_a_degenerate_bbox(tmp_path, bbox):
    path = tmp_path / "bad.fld"
    write_field_raster(path, np.ones((2, 2)), bbox)
    with pytest.raises(ValueError, match=r"bad\.fld: degenerate bbox .*must be finite"):
        read_field_raster(path)


# ---------------------------------------------------------------------------
# CSV

def test_matrix_csv_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(2)
    values = np.exp(rng.normal(size=(5, 5)) * 10)
    path = tmp_path / "trade.csv"
    write_matrix_csv(path, values)
    assert np.array_equal(read_matrix_csv(path), values)


def test_matrix_csv_requires_square(tmp_path):
    with pytest.raises(ValueError, match="square"):
        write_matrix_csv(tmp_path / "m.csv", np.ones((2, 3)))
    path = tmp_path / "rect.csv"
    path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    with pytest.raises(ValueError, match="square"):
        read_matrix_csv(path)


def test_table_csv_keeps_float_precision_and_plain_reprs(tmp_path):
    path = tmp_path / "t.csv"
    value = 0.1234567890123456789
    write_table_csv(path, ("a", "b", "c"),
                    [{"a": np.float64(value), "b": np.int64(3), "c": True}])
    with open(path, newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    assert float(row["a"]) == value
    assert "np." not in row["a"] and row["b"] == "3"


# ---------------------------------------------------------------------------
# JSON

def test_jsonable_portable_nonfinite_and_numpy():
    doc = jsonable({
        "inf": math.inf, "ninf": -math.inf, "nan": math.nan,
        "arr": np.array([1.5, np.inf]), "i": np.int32(4),
        "flag": np.bool_(True), 3: "int key",
    })
    assert doc["inf"] == "inf" and doc["ninf"] == "-inf"
    assert doc["nan"] == "nan"
    assert doc["arr"] == [1.5, "inf"]
    assert doc["i"] == 4 and doc["flag"] is True
    assert doc["3"] == "int key"
    json.dumps(doc, allow_nan=False)   # nothing non-finite slipped through


def test_canonical_json_is_order_independent_and_stable(tmp_path):
    a = canonical_json({"b": 1, "a": [2.5, {"z": 0, "y": 1}]})
    b = canonical_json({"a": [2.5, {"y": 1, "z": 0}], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
    path = tmp_path / "doc.json"
    write_json(path, {"b": 1, "a": [2.5]})
    write_json(tmp_path / "doc2.json", {"a": [2.5], "b": 1})
    assert path.read_bytes() == (tmp_path / "doc2.json").read_bytes()


# ---------------------------------------------------------------------------
# SVG

def _elements(svg_text):
    root = ET.fromstring(svg_text)
    return [el.tag.rsplit("}", 1)[-1] for el in root.iter()][1:]


def test_svg_tessellation_structure():
    labels = np.array([[0, 0, 1], [0, 1, 1], [OUTSIDE, 1, 1]], dtype=np.int32)
    text = svg_tessellation(labels, (0.0, 0.0, 3.0, 3.0),
                            [(0.5, 0.5), (2.5, 2.5)], labor=[0.25, 0.75])
    tags = _elements(text)
    assert set(tags) <= {"rect", "path"}
    assert tags.count("path") == 1            # one merged boundary path
    assert "external" not in text and "href" not in text
    # the outside cell draws no fill: count one rect per run + 2 markers + bg
    assert tags.count("rect") == 1 + 5 + 2


def test_svg_marker_scales_with_labor_share():
    labels = np.zeros((2, 2), dtype=np.int32)
    small = svg_tessellation(labels, BBOX, [(0.5, 0.25)], labor=[0.0])
    big = svg_tessellation(labels, BBOX, [(0.5, 0.25)], labor=[1.0])

    def marker_width(text):
        rects = [el for el in ET.fromstring(text).iter()
                 if el.tag.endswith("rect") and el.get("fill") == "#000000"]
        return float(rects[-1].get("width"))

    assert marker_width(big) > marker_width(small)


def test_svg_boundaries_only():
    labels = np.array([[0, 1], [0, 1]], dtype=np.int32)
    text = svg_label_boundaries(labels, (0.0, 0.0, 2.0, 2.0))
    tags = _elements(text)
    assert tags.count("path") == 1
    assert tags.count("rect") == 1   # background only
    uniform = svg_label_boundaries(np.zeros((3, 3), np.int32), BBOX)
    assert "path" not in _elements(uniform)


def test_svg_region_map_palette_and_boundary():
    sweep = parameter_sweep("alpha_sigma",
                            alphas=np.linspace(0.0, 0.6, 13),
                            sigmas=np.linspace(2.0, 12.0, 11), beta=-0.3)
    text = svg_region_map(sweep, SWEEP_CATEGORIES)
    root = ET.fromstring(text)
    fills = {el.get("fill") for el in root.iter() if el.tag.endswith("rect")}
    used = {CATEGORY_PALETTE[i] for i in np.unique(sweep.category)}
    assert used <= fills
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert any(p.get("stroke-width") == "2" for p in paths)   # regime boundary
    legend = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert set(legend) == {SWEEP_CATEGORIES[i]
                           for i in np.unique(sweep.category)}


@settings(max_examples=40, deadline=None)
@given(ny=st.integers(2, 12), nx=st.integers(2, 12), n_labels=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_svg_writers_match_loop_oracles(ny, nx, n_labels, seed):
    # piecewise-constant rows with outside cells, on a non-square bbox
    rng = np.random.default_rng(seed)
    labels = np.repeat(rng.integers(OUTSIDE, n_labels, size=(ny, nx // 2 + 1)),
                       2, axis=1)[:, :nx].astype(np.int32)
    bbox = (-0.3, 0.1, 1.7, 0.1 + 2.0 * ny / nx)
    tf = io_formats._WorldToSvg(bbox, 640)
    x_edges = np.linspace(bbox[0], bbox[2], nx + 1)
    y_edges = np.linspace(bbox[1], bbox[3], ny + 1)

    def color_of(label):
        return None if label == OUTSIDE else f"#{int(label):06d}"

    assert io_formats._run_length_rects(labels, x_edges, y_edges, tf, color_of) \
        == loop_run_length_rects(labels, x_edges, y_edges, tf, color_of)
    assert io_formats._boundary_path(labels, x_edges, y_edges, tf) \
        == loop_boundary_path(labels, x_edges, y_edges, tf)


def test_overlay_svg_and_region_map_match_loop_oracles(monkeypatch):
    grid = build_grid((0.0, 0.0, 1.0, 1.0), (96, 80), lambda X, Y: X + Y < 1.6)
    sites = (Site(0, (0.2, 0.3)), Site(1, (0.7, 0.2)), Site(2, (0.4, 0.7)))
    labels = assign_labels(grid, sites, DistanceSystem(), [0.0, 0.05, -0.02]).labels
    sweep = parameter_sweep("alpha_sigma", alphas=np.linspace(0.0, 0.6, 13),
                            sigmas=np.linspace(2.0, 12.0, 11), beta=-0.3)

    def render():
        return (svg_tessellation(labels, grid.bbox, [s.position for s in sites],
                                 labor=[0.2, 0.3, 0.5]),
                svg_region_map(sweep, SWEEP_CATEGORIES))

    fast = render()
    monkeypatch.setattr(io_formats, "_run_length_rects", loop_run_length_rects)
    monkeypatch.setattr(io_formats, "_boundary_path", loop_boundary_path)
    assert fast == render()


def test_svg_region_map_alpha_beta_vertical_boundary():
    sweep = parameter_sweep("alpha_beta",
                            alphas=np.linspace(0.0, 0.6, 13),
                            betas=np.linspace(-0.6, 0.0, 7), sigma=9.0)
    root = ET.fromstring(svg_region_map(sweep, SWEEP_CATEGORIES))
    boundary = [el for el in root.iter()
                if el.tag.endswith("path") and el.get("stroke-width") == "2"]
    assert len(boundary) == 1
    d = boundary[0].get("d").split()
    x_move, x_line = float(d[1]), float(d[4])
    assert x_move == x_line   # vertical line at the knife-edge alpha
