"""Run-configuration loading and schema validation.

A run configuration is one YAML document (nested sections, ``#`` comments
allowed), checked against the schema below before any computation starts;
relative file paths resolve beside it.  Checked here: syntax (types, list
shapes, known keys, the keys each ``kind`` reads) and > 0 for a disk's
``radius`` and a bump's ``width``, which no library call takes.  Every
other value rule has one owner in the library, named after ``->``.  Every
error is reported at its key's line, a block's own at the block's key line.

Schema (defaults in parentheses; [r] = required when the block is present)::

    geography:                  # needed by solve / enumerate / render
      bbox: [x0, y0, x1, y1]    # ([0, 0, 1, 1]) -> check_bbox
      resolution: [nx, ny]      # ([128, 128]) -> check_resolution
      domain:                   # (whole bbox) -> build_grid
        kind: all | disk | mask
        center: [x, y]          # disk (bbox center)
        radius: r               # disk [r]
        file: mask.pgm          # mask [r]; 255 = outside
      amenity:                  # (uniform 1.0) -> amenity_from_function
        kind: uniform | bumps | raster
        value: a                # uniform (1.0)
        base: a                 # bumps (1.0)
        bumps:                  # bumps [r]
          - {center: [x, y], height: h, width: w}
        file: field.fld         # raster [r]
      metric: euclidean | scaled_euclidean   # (euclidean)
      scales: [s_1, ..., s_n]   # scaled_euclidean [r] -> DistanceSystem
      sites:                    # [r]; same position -> _check_distinct_positions
        - {position: [x, y], productivity: a}   # (1.0) -> Site
      trade:                    # [r]
        kind: from_metric | explicit
        tau: t                  # from_metric [r] -> trade_costs_from_metric
        file: trade.csv         # explicit [r] -> explicit_trade_costs, Geography
    params:                     # for solve / classify / enumerate -> ModelParams
      sigma: s                  # [r]
      alpha: a                  # [r]
      beta: b                   # [r]
      delta: d                  # [r]
      tau: t                    # (0.0); non-zero only for home_consumption
      total_labor: L            # (1.0)
      variant:                  # (baseline)
        kind: baseline | home_consumption | two_sector
        mu: m                   # two_sector [r]
        beta_tilde: b           # two_sector [r]
    solver:                     # -> SolverOptions
      tol: v                    # (1e-12)
      max_iter: n               # (2000)
      k_shrink: v               # (0.5)
    solve:
      active_sites: [ids] | null   # (null = all sites) -> Geography.positions_of
    sweep:                      # -> sweep_axis, check_axis_size (parameter_sweep's)
      kind: alpha_beta | alpha_sigma   # (alpha_beta)
      alphas: {start, stop, count} | [values]   # (0..0.6, 61)
      betas:  {start, stop, count} | [values]   # alpha_beta (-0.6..0, 61)
      sigmas: {start, stop, count} | [values]   # alpha_sigma (2..12, 51)
      sigma: s                  # alpha_beta: fixed sigma (9.0) -> check_sigma
      beta: b                   # alpha_sigma: fixed beta (-0.3)
    enumerate:                  # -> check_subset_request (enumerate_urban_systems')
      sizes: [k, ...]           # ([2])
      max_subsets: n            # (256)
      seed: n                   # (0) of the sampling above max_subsets
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml
from yaml.constructor import SafeConstructor

from .analysis import check_axis_size, sweep_axis
from .equilibrium import (
    Baseline,
    HomeConsumption,
    ModelParams,
    SolverOptions,
    TwoSector,
    check_sigma,
)
from .errors import AsymmetricMetric, ConfigError, HinterlandError
from .fields import (
    Geography,
    amenity_from_function,
    explicit_trade_costs,
    trade_costs_from_metric,
)
from .geometry import (
    DistanceSystem,
    Site,
    _check_distinct_positions,
    build_grid,
    check_bbox,
    check_resolution,
    is_integer,
)
from .io_formats import read_field_raster, read_label_raster, read_matrix_csv
from .sustainability import check_subset_request

_MISSING = object()
_EMPTY = yaml.MappingNode("tag:yaml.org,2002:map", [])   # an absent block


# ---------------------------------------------------------------------------
# YAML node tree -> typed values

class _Section:
    """A YAML mapping node under validation: typed take(), then finish()
    rejects leftovers.  Errors sit at a key's line, the node's at ``line``."""

    def __init__(self, node, path, line, source):
        self._path = path
        self._line = line
        self._source = source
        self._constructor = SafeConstructor()
        self._nodes = {}
        self._lines = {}
        if not isinstance(node, yaml.MappingNode):
            self.error(f"'{_name(path)}' must be a mapping")
        for key_node, value_node in node.value:
            line = key_node.start_mark.line + 1
            key = str(self._construct(key_node, line))
            self._lines[key] = line
            if key in self._nodes:
                self.error(f"duplicate key {key!r}", key)
            self._nodes[key] = value_node

    def error(self, message, key=None):
        line = self._lines.get(key, self._line)
        raise ConfigError(f"{self._source}:{line}", message)

    def _construct(self, node, line):
        try:
            return self._constructor.construct_object(node, deep=True)
        except (yaml.YAMLError, ValueError) as exc:   # a tag that cannot build it
            raise ConfigError(f"{self._source}:{line}", "cannot read value: "
                              f"{getattr(exc, 'problem', None) or exc}") from exc

    def _take(self, key, default):
        if key not in self._nodes:
            if default is _MISSING:
                self.error(f"missing required key '{_name(self._path + (key,))}'")
            return default
        return self._construct(self._nodes.pop(key), self._lines[key])

    def has(self, key) -> bool:
        return key in self._nodes

    def has_list(self, key) -> bool:
        return isinstance(self._nodes.get(key), yaml.SequenceNode)

    def take_float(self, key, default=_MISSING, above=None):
        value = self._take(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.error(f"'{key}' must be a number, got {value!r}", key)
        value = float(value)
        if not math.isfinite(value):
            self.error(f"'{key}' must be finite, got {value}", key)
        if above is not None and not value > above:
            self.error(f"'{key}' must be > {above}, got {value}", key)
        return value

    def take_int(self, key, default=_MISSING):
        value = self._take(key, default)
        if not is_integer(value):
            self.error(f"'{key}' must be an integer, got {value!r}", key)
        return value

    def take_str(self, key, default=_MISSING, choices=None):
        value = self._take(key, default)
        if not isinstance(value, str):
            self.error(f"'{key}' must be a string, got {value!r}", key)
        if choices is not None and value not in choices:
            self.error(f"'{key}' must be one of {', '.join(choices)}; "
                       f"got {value!r}", key)
        return value

    def take_floats(self, key, default=_MISSING, length=None):
        value = self._take(key, default)
        if value is None and default is None:
            return None
        if (not isinstance(value, list)
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       or not math.isfinite(v) for v in value)):
            self.error(f"'{key}' must be a list of finite numbers, "
                       f"got {value!r}", key)
        if length is not None and len(value) != length:
            self.error(f"'{key}' must have {length} entries, "
                       f"got {len(value)}", key)
        return tuple(float(v) for v in value)

    take_value = _take

    def take_section(self, key):
        """Pop a sub-mapping; an absent key reads as an empty one."""
        return _Section(self._nodes.pop(key, _EMPTY), self._path + (key,),
                        self._lines.get(key, self._line), self._source)

    def take_sections(self, key):
        """Pop the list of sub-mappings under a required key."""
        if not self.has_list(key):
            value = self._take(key, _MISSING)
            self.error(f"'{key}' must be a non-empty list" if value is None
                       else f"'{key}' must be a list", key)
        return [_Section(item, self._path + (key,), item.start_mark.line + 1,
                         self._source)
                for item in self._nodes.pop(key).value]

    def finish(self):
        for key in self._nodes:
            self.error(f"unknown key '{_name(self._path + (key,))}'", key)


def _name(path) -> str:
    return ".".join(path) or "<root>"


# ---------------------------------------------------------------------------
# config objects

@dataclass(frozen=True)
class SweepConfig:
    kind: str
    alphas: np.ndarray | None
    betas: np.ndarray | None
    sigmas: np.ndarray | None
    sigma: float | None   # alpha_beta only
    beta: float | None    # alpha_sigma only


@dataclass(frozen=True)
class EnumerateConfig:
    sizes: tuple[int, ...]
    max_subsets: int
    seed: int


@dataclass(frozen=True, eq=False)
class RunConfig:
    source: str
    geography: Geography | None
    params: ModelParams | None
    solver: SolverOptions
    active_sites: tuple[int, ...] | None
    sweep: SweepConfig
    enumerate: EnumerateConfig

    def require_geography(self) -> Geography:
        if self.geography is None:
            raise ConfigError(self.source, "a 'geography' block is required "
                              "for this command")
        return self.geography

    def require_params(self) -> ModelParams:
        if self.params is None:
            raise ConfigError(self.source, "a 'params' block is required "
                              "for this command")
        return self.params


# ---------------------------------------------------------------------------
# block builders

def _take_raster(section, read, what, base_dir, resolution, bbox):
    """Read the raster named by ``file``; its shape and bbox must match."""
    name = section.take_str("file")
    try:
        values, file_bbox = read(base_dir / name)
    except (OSError, ValueError) as exc:
        section.error(f"cannot read {what} raster: {exc}", "file")
    if values.shape != (resolution[1], resolution[0]):
        section.error(f"{what} raster is {values.shape[1]}x{values.shape[0]}, "
                      f"resolution says {resolution[0]}x{resolution[1]}",
                      "file")
    if not np.allclose(file_bbox, bbox, rtol=1e-9, atol=1e-12):
        section.error(f"{what} raster bbox {file_bbox} does not match "
                      f"geography bbox {bbox}", "file")
    return values


def _reported_at(section, key, build, *args, **kwargs):
    """``build(...)``, with a library error reported at ``key`` of ``section``."""
    try:
        return build(*args, **kwargs)
    except HinterlandError as exc:
        section.error(str(exc), key)


def _build_grid(section, resolution, base_dir, bbox):
    kind = section.take_str("kind", "all",
                            choices=("all", "disk", "mask"))
    x0, y0, x1, y1 = bbox
    predicate = None
    if kind == "disk":
        center = section.take_floats(
            "center", [0.5 * (x0 + x1), 0.5 * (y0 + y1)], length=2)
        radius = section.take_float("radius", above=0.0)
        predicate = lambda X, Y: (X - center[0]) ** 2 + (Y - center[1]) ** 2 \
            <= radius ** 2
    elif kind == "mask":
        inside = _take_raster(section, read_label_raster, "mask", base_dir,
                              resolution, bbox) >= 0
        predicate = lambda X, Y: inside
    section.finish()
    return _reported_at(section, None, build_grid, bbox, resolution, predicate)


def _build_amenity(section, grid, base_dir):
    kind = section.take_str("kind", "uniform",
                            choices=("uniform", "bumps", "raster"))
    key = None
    if kind == "uniform":
        source = np.full((grid.ny, grid.nx), section.take_float("value", 1.0))
        key = "value"
    elif kind == "bumps":
        base = section.take_float("base", 1.0)
        bumps = []
        for bump in section.take_sections("bumps"):
            center = bump.take_floats("center", length=2)
            height = bump.take_float("height")
            width = bump.take_float("width", above=0.0)
            bumps.append((center, height, width))
            bump.finish()
        xs, ys = grid.cell_center_axes()
        source = np.full((grid.ny, grid.nx), base)
        for (cx, cy), height, width in bumps:
            source += height * np.exp(-((xs - cx) ** 2 + ((ys - cy) ** 2)[:, None])
                                      / (2.0 * width ** 2))
    else:
        source = _take_raster(section, read_field_raster, "amenity", base_dir,
                              (grid.nx, grid.ny), grid.bbox)
        key = "file"
    section.finish()
    return _reported_at(section, key, amenity_from_function, grid, source)


def _build_geography(section, base_dir):
    bbox = section.take_floats("bbox", [0.0, 0.0, 1.0, 1.0], length=4)
    _reported_at(section, "bbox", check_bbox, bbox)
    resolution = section.take_value("resolution", [128, 128])
    if not (isinstance(resolution, list) and len(resolution) == 2
            and all(is_integer(v) for v in resolution)):
        section.error(f"'resolution' must be [nx, ny] with integers, "
                      f"got {resolution!r}", "resolution")
    _reported_at(section, "resolution", check_resolution, resolution)

    site_sections = section.take_sections("sites")
    if not site_sections:
        section.error("'sites' must list at least one site", "sites")
    sites = []
    for i, site_sec in enumerate(site_sections):
        position = site_sec.take_floats("position", length=2)
        if not (bbox[0] <= position[0] <= bbox[2]
                and bbox[1] <= position[1] <= bbox[3]):
            site_sec.error(f"site {i} position {position} lies "
                           f"outside bbox {bbox}", "position")
        productivity = site_sec.take_float("productivity", 1.0)
        site_sec.finish()
        sites.append(_reported_at(site_sec, "productivity", Site, i,
                                  position, productivity))
        _reported_at(site_sec, "position", _check_distinct_positions, sites)
    sites = tuple(sites)

    metric = section.take_str("metric", "euclidean",
                              choices=("euclidean", "scaled_euclidean"))
    scales = section.take_floats("scales", None)
    system = _reported_at(section, "scales", DistanceSystem, metric, scales)
    _reported_at(section, "scales", system.check_site_count, len(sites))

    grid = _build_grid(section.take_section("domain"), resolution, base_dir,
                       bbox)
    amenity = _build_amenity(section.take_section("amenity"), grid, base_dir)

    if not section.has("trade"):
        section.error("a 'trade' block is required (kind: from_metric "
                      "with tau, or kind: explicit with file)")
    trade_sec = section.take_section("trade")
    trade_kind = trade_sec.take_str("kind",
                                    choices=("from_metric", "explicit"))
    if trade_kind == "from_metric":
        tau = trade_sec.take_float("tau")
        trade_sec.finish()
        try:
            trade = trade_costs_from_metric(sites, system, tau)
        except AsymmetricMetric as exc:   # unequal scales, not tau
            section.error(str(exc))
        except HinterlandError as exc:
            trade_sec.error(str(exc), "tau")
    else:
        name = trade_sec.take_str("file")
        try:
            values = read_matrix_csv(base_dir / name)
        except (OSError, ValueError) as exc:
            trade_sec.error(f"cannot read trade matrix: {exc}", "file")
        trade = _reported_at(trade_sec, "file", explicit_trade_costs, values)
        trade_sec.finish()

    section.finish()
    # only an explicit trade file can disagree with the site count
    return _reported_at(trade_sec, "file", Geography, grid=grid, sites=sites,
                        system=system, amenity=amenity, trade=trade)


def _build_params(section):
    sigma = section.take_float("sigma")
    alpha = section.take_float("alpha")
    beta = section.take_float("beta")
    delta = section.take_float("delta")
    tau = section.take_float("tau", ModelParams.tau)
    total_labor = section.take_float("total_labor", ModelParams.total_labor)
    variant_sec = section.take_section("variant")
    kind = variant_sec.take_str(
        "kind", "baseline",
        choices=("baseline", "home_consumption", "two_sector"))
    if kind == "two_sector":
        mu = variant_sec.take_float("mu")
        beta_tilde = variant_sec.take_float("beta_tilde")
        variant = TwoSector(mu=mu, beta=beta_tilde)
    else:
        variant = Baseline() if kind == "baseline" else HomeConsumption()
    variant_sec.finish()
    params = _reported_at(section, None, ModelParams, sigma=sigma, alpha=alpha,
                          beta=beta, delta=delta, tau=tau,
                          total_labor=total_labor, variant=variant)
    section.finish()
    return params


def _build_solver(section):
    # one field at a time, so that SolverOptions' error is reported at its key
    options = SolverOptions()
    for key, take in (("tol", section.take_float),
                      ("max_iter", section.take_int),
                      ("k_shrink", section.take_float)):
        options = _reported_at(section, key, replace, options,
                               **{key: take(key, getattr(options, key))})
    section.finish()
    return options


def _axis(section, key):
    """An axis is either a list of values or a {start, stop, count} range."""
    if not section.has(key):
        return None
    if section.has_list(key):
        values = section.take_floats(key)
    else:
        sub = section.take_section(key)
        start = sub.take_float("start")
        stop = sub.take_float("stop")
        count = sub.take_int("count")
        _reported_at(sub, "count", check_axis_size, key[:-1], count)
        sub.finish()
        values = np.linspace(start, stop, count)
    return _reported_at(section, key, sweep_axis, key[:-1], values)


def _build_sweep(section):
    kind = section.take_str("kind", "alpha_beta",
                            choices=("alpha_beta", "alpha_sigma"))
    # each kind reads its own y axis and fixed scalar, not the other kind's
    other = ("sigmas", "beta") if kind == "alpha_beta" else ("betas", "sigma")
    for key in filter(section.has, other):
        section.error(f"'{key}' does not apply to the {kind} sweep", key)
    alphas = _axis(section, "alphas")
    betas = _axis(section, "betas")
    sigmas = _axis(section, "sigmas")
    if kind == "alpha_beta":
        sigma, beta = section.take_float("sigma", 9.0), None
        _reported_at(section, "sigma", check_sigma, sigma)
    else:
        sigma, beta = None, section.take_float("beta", -0.3)
    section.finish()
    return SweepConfig(kind=kind, alphas=alphas, betas=betas, sigmas=sigmas,
                       sigma=sigma, beta=beta)


def _build_enumerate(section):
    sizes = section.take_value("sizes", [2])
    if not (isinstance(sizes, list) and sizes and all(map(is_integer, sizes))):
        section.error(f"'sizes' must be a non-empty list of integers, "
                      f"got {sizes!r}", "sizes")
    values = {"sizes": tuple(sizes),
              "max_subsets": section.take_int("max_subsets", 256),
              "seed": section.take_int("seed", 0)}
    section.finish()
    for key, value in values.items():
        _reported_at(section, key, check_subset_request, **{key: value})
    return EnumerateConfig(**values)


def _build_active_sites(section, geography):
    ids = section.take_value("active_sites", None)
    section.finish()
    if ids is None:
        return None
    if not isinstance(ids, list) or not all(is_integer(v) for v in ids):
        section.error(f"'active_sites' must be a list of site ids or null, "
                      f"got {ids!r}", "active_sites")
    if geography is not None:
        _reported_at(section, "active_sites", geography.positions_of, ids)
    return tuple(ids)


# ---------------------------------------------------------------------------
# entry points

def parse_config(text: str, source: str = "<config>",
                 base_dir: Path | str = ".") -> RunConfig:
    """Validate a config document against the schema; build the objects."""
    try:
        node = yaml.compose(text, getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{source}:{mark.line + 1}" if mark else source
        raise ConfigError(where, f"invalid YAML: {exc}") from exc
    if node is None:
        raise ConfigError(source, "empty config document")
    root = _Section(node, (), node.start_mark.line + 1, source)
    base_dir = Path(base_dir)

    geography = params = None
    if root.has("geography"):
        geography = _build_geography(root.take_section("geography"), base_dir)
    if root.has("params"):
        params = _build_params(root.take_section("params"))

    solver = _build_solver(root.take_section("solver"))
    active = _build_active_sites(root.take_section("solve"), geography)
    sweep = _build_sweep(root.take_section("sweep"))
    enum_cfg = _build_enumerate(root.take_section("enumerate"))
    root.finish()
    return RunConfig(source=source, geography=geography, params=params,
                     solver=solver, active_sites=active, sweep=sweep,
                     enumerate=enum_cfg)


def load_config(path) -> RunConfig:
    """Read and validate a config file; relative paths resolve beside it."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    return parse_config(text, source=str(path), base_dir=path.parent)
