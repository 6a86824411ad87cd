"""File formats for label rasters, field rasters, tables, JSON, and SVG.

Everything here is deterministic: the same data always produces the same
bytes (no timestamps, no environment probes, stable key ordering), so
reruns can be compared with a plain byte diff.

Formats
-------
* Label raster: binary PGM (``P5``), one byte per cell, value = site index,
  255 = outside the domain.  The bounding box rides in a ``# bbox`` comment.
  Rows are written top-down (image convention): file row 0 is the row of
  cells with the largest y.
* Field raster: little-endian binary, magic ``FLD1``, two uint32 (nx, ny),
  four float64 (bbox), then ``ny * nx`` float64 cell values row-major with
  the bottom row (smallest y) first.
* Trade matrix: square, headerless CSV of floats.
* JSON documents: sorted keys, two-space indent, non-finite floats encoded
  as the strings ``"inf"``, ``"-inf"``, ``"nan"``.
* SVG: plain ``path``/``rect``/``text`` elements only, no external assets.
"""

from __future__ import annotations

import csv
import json
import math
import re
import struct
from pathlib import Path

import numpy as np

from .errors import InvalidInput
from .geometry import OUTSIDE, check_bbox, raster_interfaces

OUTSIDE_BYTE = 255

# fill colors cycled over site labels in tessellation renderings
LABEL_PALETTE = (
    "#a6cee3", "#fdbf6f", "#b2df8a", "#cab2d6", "#fb9a99", "#ffff99",
    "#1f78b4", "#ff7f00", "#33a02c", "#6a3d9a", "#e31a1c", "#b15928",
)

# fixed palette for the six sweep categories, in SWEEP_CATEGORIES order
CATEGORY_PALETTE = (
    "#c6dbef", "#4292c6",   # spread: unique / nonunique
    "#c7e9c0", "#41ab5d",   # knife edge: unique / nonunique
    "#fdd0a2", "#f16913",   # multiple: unique / nonunique
)


# ---------------------------------------------------------------------------
# label raster (PGM)

def write_label_raster(path, labels, bbox) -> None:
    """Write an integer label array as a binary PGM with a bbox comment."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise InvalidInput(f"labels must be 2-D, got shape {labels.shape}")
    if labels.max(initial=-1) >= OUTSIDE_BYTE:
        raise InvalidInput(
            f"labels up to {labels.max()} cannot fit one byte per cell "
            f"(value {OUTSIDE_BYTE} is reserved for outside)")
    ny, nx = labels.shape
    body = np.where(labels == OUTSIDE, OUTSIDE_BYTE, labels).astype(np.uint8)
    x0, y0, x1, y1 = (float(v) for v in bbox)
    header = (f"P5\n# bbox {x0!r} {y0!r} {x1!r} {y1!r}\n"
              f"{nx} {ny}\n{OUTSIDE_BYTE}\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(body[::-1].tobytes())   # top row first


# magic, width, height and maxval, each after whitespace or comment lines,
# then the one whitespace byte that ends the header
_PGM_HEADER = re.compile(rb"P5" + 3 * rb"(?:\s|#[^\n]*\n)+([1-9][0-9]*)" + rb"\s")


def read_label_raster(path):
    """Read a PGM label raster back into (labels, bbox).

    Outside bytes (255) come back as the OUTSIDE sentinel (-1).
    """
    raw = Path(path).read_bytes()
    if raw[:2] != b"P5":
        raise InvalidInput(f"{path}: not a binary PGM "
                           f"(magic {raw[:2].decode('ascii', 'replace')!r})")
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise InvalidInput(f"{path}: malformed PGM header")
    nx, ny, maxval = (int(v) for v in header.groups())
    if maxval != OUTSIDE_BYTE:
        raise InvalidInput(f"{path}: expected maxval {OUTSIDE_BYTE}, got {maxval}")
    comments = (c.split() for c in re.findall(rb"#([^\n]*)", header[0]))
    bbox = next((c[1:] for c in comments if c[:1] == [b"bbox"]), None)
    if bbox is None:
        raise InvalidInput(f"{path}: missing '# bbox x0 y0 x1 y1' comment")
    try:
        x0, y0, x1, y1 = bbox = tuple(float(v) for v in bbox)
    except ValueError:
        raise InvalidInput(f"{path}: bbox comment must hold 4 numbers") from None
    try:
        check_bbox(bbox)
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from None
    start = header.end()
    body = np.frombuffer(raw[start:start + nx * ny], dtype=np.uint8)
    if body.size != nx * ny:
        raise InvalidInput(f"{path}: expected {nx * ny} pixels, got {body.size}")
    labels = body.reshape(ny, nx)[::-1].astype(np.int32)
    labels[labels == OUTSIDE_BYTE] = OUTSIDE
    return labels, bbox


# ---------------------------------------------------------------------------
# field raster (FLD1)

_FLD_MAGIC = b"FLD1"
_FLD_HEAD = struct.Struct("<4sII4d")


def write_field_raster(path, values, bbox) -> None:
    """Write a float field sampled on the grid as a small binary raster."""
    values = np.asarray(values, dtype="<f8")
    if values.ndim != 2:
        raise InvalidInput(f"field must be 2-D, got shape {values.shape}")
    ny, nx = values.shape
    head = _FLD_HEAD.pack(_FLD_MAGIC, nx, ny, *(float(v) for v in bbox))
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(np.ascontiguousarray(values).tobytes())


def read_field_raster(path):
    """Read a FLD1 raster back into (values, bbox)."""
    raw = Path(path).read_bytes()
    if len(raw) < _FLD_HEAD.size or raw[:4] != _FLD_MAGIC:
        raise InvalidInput(f"{path}: not a FLD1 field raster")
    magic, nx, ny, x0, y0, x1, y1 = _FLD_HEAD.unpack_from(raw)
    body = np.frombuffer(raw, dtype="<f8", offset=_FLD_HEAD.size)
    if body.size != nx * ny:
        raise InvalidInput(f"{path}: expected {nx * ny} values, got {body.size}")
    return body.reshape(ny, nx).copy(), (x0, y0, x1, y1)


# ---------------------------------------------------------------------------
# CSV tables

def write_matrix_csv(path, values) -> None:
    """Write a square matrix as headerless CSV with full float precision."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {values.shape}")
    with open(path, "w", newline="") as fh:
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_matrix_csv(path):
    """Read a headerless square CSV matrix."""
    values = np.loadtxt(path, delimiter=",", ndmin=2)
    if values.shape[0] != values.shape[1]:
        raise InvalidInput(f"{path}: expected a square matrix, "
                           f"got shape {values.shape}")
    return values


def write_table_csv(path, header, rows) -> None:
    """Write dict rows under a fixed header; floats keep full precision."""
    def cell(value):
        if isinstance(value, bool):
            return value
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        if isinstance(value, np.integer):
            return int(value)
        return value

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell(row[col]) for col in header])


# ---------------------------------------------------------------------------
# JSON documents

def jsonable(obj):
    """Recursively convert to JSON-safe data; non-finite floats to strings."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj) -> str:
    """Serialize deterministically: sorted keys, stable float repr."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj), encoding="ascii")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="ascii"))


# ---------------------------------------------------------------------------
# SVG

def _svg_document(width, height, parts) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        *parts,
        "</svg>",
        "",
    ]
    return "\n".join(lines)


class _WorldToSvg:
    """Affine map from world coordinates to an SVG pixel box (y flipped)."""

    def __init__(self, bbox, width):
        self.x0, self.y0, self.x1, self.y1 = (float(v) for v in bbox)
        self.scale = width / (self.x1 - self.x0)
        self.width = float(width)
        self.height = (self.y1 - self.y0) * self.scale

    def x(self, wx: float) -> float:
        return (wx - self.x0) * self.scale

    def y(self, wy: float) -> float:
        return (self.y1 - wy) * self.scale


def _num(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _run_length_rects(values, x_edges, y_edges, tf, color_of) -> list[str]:
    """One rect per run of equal values along each row (skips None colors)."""
    nx = values.shape[1]
    run_start = np.ones(values.shape, dtype=bool)
    run_start[:, 1:] = values[:, 1:] != values[:, :-1]
    rows, starts = np.nonzero(run_start)
    ends = np.append(starts[1:], nx)
    ends[np.append(rows[1:] != rows[:-1], True)] = nx
    px = tf.x(np.asarray(x_edges))
    px_text = [_num(v) for v in px]
    top = tf.y(np.asarray(y_edges))
    y_text = [_num(v) for v in top[1:]]
    h_text = [_num(v) for v in top[:-1] - top[1:]]
    parts = []
    for row, start, width, value in zip(rows.tolist(), starts.tolist(),
                                        (px[ends] - px[starts]).tolist(),
                                        values[rows, starts].tolist()):
        color = color_of(value)
        if color is not None:
            parts.append(f'<rect x="{px_text[start]}" y="{y_text[row]}" '
                         f'width="{_num(width)}" height="{h_text[row]}" '
                         f'fill="{color}"/>')
    return parts


def _boundary_path(labels, x_edges, y_edges, tf) -> str:
    """A single path outlining every interface between distinct labels."""
    xs = [_num(v) for v in tf.x(np.asarray(x_edges))]
    ys = [_num(v) for v in tf.y(np.asarray(y_edges))]
    # the edge after cell (r, c) along its axis ends at corner (c + 1, r + 1)
    segs = [f"M {xs[c + 1 - axis]} {ys[r + axis]} L {xs[c + 1]} {ys[r + 1]}"
            for axis, _, _, iy, ix in raster_interfaces(labels)
            for r, c in zip(iy.tolist(), ix.tolist())]
    if not segs:
        return ""
    return f'<path d="{" ".join(segs)}" stroke="#000000" stroke-width="1" fill="none"/>'


def svg_tessellation(labels, bbox, site_positions=(), labor=None,
                     width: int = 640) -> str:
    """Render labeled cells, label boundaries, and site markers.

    Site markers are squares; when ``labor`` is given their area scales
    with each site's share of total labor (order matches site_positions).
    """
    labels = np.asarray(labels)
    ny, nx = labels.shape
    tf = _WorldToSvg(bbox, width)
    x_edges = np.linspace(tf.x0, tf.x1, nx + 1)
    y_edges = np.linspace(tf.y0, tf.y1, ny + 1)

    def color_of(label):
        if label == OUTSIDE:
            return None
        return LABEL_PALETTE[int(label) % len(LABEL_PALETTE)]

    parts = [f'<rect x="0" y="0" width="{tf.width:g}" height="{tf.height:g}" '
             'fill="#ffffff"/>']
    parts += _run_length_rects(labels, x_edges, y_edges, tf, color_of)
    boundary = _boundary_path(labels, x_edges, y_edges, tf)
    if boundary:
        parts.append(boundary)

    base = 0.02 * min(tf.width, tf.height)
    if labor is not None:
        labor = np.asarray(labor, dtype=float)
        total = labor.sum()
        shares = labor / total if total > 0 else np.zeros_like(labor)
    for i, (px, py) in enumerate(site_positions):
        if labor is None or not math.isfinite(shares[i]):
            half = 0.5 * base
        else:
            half = 0.5 * base * (1.0 + 3.0 * math.sqrt(max(shares[i], 0.0)))
        cx, cy = tf.x(px), tf.y(py)
        parts.append(f'<rect x="{_num(cx - half)}" y="{_num(cy - half)}" '
                     f'width="{_num(2 * half)}" height="{_num(2 * half)}" '
                     'fill="#000000" stroke="#ffffff" stroke-width="1"/>')
    return _svg_document(tf.width, tf.height, parts)


def svg_label_boundaries(labels, bbox, width: int = 640) -> str:
    """Render only the interfaces between labels (no fills, no markers)."""
    labels = np.asarray(labels)
    ny, nx = labels.shape
    tf = _WorldToSvg(bbox, width)
    x_edges = np.linspace(bbox[0], bbox[2], nx + 1)
    y_edges = np.linspace(bbox[1], bbox[3], ny + 1)
    parts = [f'<rect x="0" y="0" width="{tf.width:g}" height="{tf.height:g}" '
             'fill="#ffffff"/>']
    boundary = _boundary_path(labels, x_edges, y_edges, tf)
    if boundary:
        parts.append(boundary)
    return _svg_document(tf.width, tf.height, parts)


def _axis_edges(values) -> np.ndarray:
    """Cell edges around sample points (midpoints, half-step extensions)."""
    values = np.asarray(values, dtype=float)
    mids = 0.5 * (values[:-1] + values[1:])
    first = values[0] - (mids[0] - values[0])
    last = values[-1] + (values[-1] - mids[-1])
    return np.concatenate([[first], mids, [last]])


def svg_region_map(sweep, categories, width: int = 640) -> str:
    """Render a parameter sweep as colored regions plus the regime boundary.

    ``categories`` supplies the legend names in palette order.
    """
    x_edges = _axis_edges(sweep.x_values)
    y_edges = _axis_edges(sweep.y_values)
    bbox = (x_edges[0], y_edges[0], x_edges[-1], y_edges[-1])
    tf = _WorldToSvg(bbox, width)

    parts = [f'<rect x="0" y="0" width="{tf.width:g}" height="{tf.height:g}" '
             'fill="#ffffff"/>']
    parts += _run_length_rects(sweep.category, x_edges, y_edges, tf,
                               lambda v: CATEGORY_PALETTE[int(v)])

    if sweep.kind == "alpha_sigma":
        vertices = [(a, s) for a, s in sweep.boundary
                    if bbox[0] <= a <= bbox[2]]
        if vertices:
            d = " ".join(("M" if i == 0 else "L")
                         + f" {_num(tf.x(a))} {_num(tf.y(s))}"
                         for i, (a, s) in enumerate(vertices))
            parts.append(f'<path d="{d}" stroke="#000000" stroke-width="2" '
                         'fill="none"/>')
    else:
        (alpha_star, _), = sweep.boundary
        if bbox[0] <= alpha_star <= bbox[2]:
            x = _num(tf.x(alpha_star))
            parts.append(f'<path d="M {x} 0 L {x} {_num(tf.height)}" '
                         'stroke="#000000" stroke-width="2" fill="none"/>')

    present = sorted(set(int(v) for v in sweep.category.ravel()))
    swatch, pad = 14, 4
    ly = tf.height + pad
    for row, idx in enumerate(present):
        y = ly + row * (swatch + pad)
        parts.append(f'<rect x="{pad}" y="{_num(y)}" width="{swatch}" '
                     f'height="{swatch}" fill="{CATEGORY_PALETTE[idx]}" '
                     'stroke="#000000" stroke-width="0.5"/>')
        parts.append(f'<text x="{2 * pad + swatch}" y="{_num(y + swatch - 3)}" '
                     f'font-family="monospace" font-size="{swatch - 2}">'
                     f'{categories[idx]}</text>')
    height = ly + len(present) * (swatch + pad)
    return _svg_document(tf.width, height, parts)


def write_svg(path, text: str) -> None:
    Path(path).write_text(text, encoding="ascii")
