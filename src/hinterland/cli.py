"""Command-line front end: solve, sweep, classify, enumerate, render.

Exit codes (fixed for scripting; warnings never change them):

* 0 — success
* 1 — configuration or input error (schema violation, bad flag, bad data;
  any ``InvalidInput`` a library check raises)
* 2 — an iterative solver hit its iteration cap (partial diagnostics are
  still written for ``solve``)
* 3 — the weight iterate left the feasible set and could not re-enter

All randomness flows from the config seed; reruns of the same config write
byte-identical JSON artifacts.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import SWEEP_CATEGORIES, parameter_sweep, regime_classify, sweep_rows
from .config import RunConfig, load_config
from .equilibrium import (
    EquilibriumSolution,
    ModelParams,
    solve_equilibrium,
    variant_transform,
)
from .errors import ConfigError, HinterlandError, LeftFeasibleSet, NotConverged
from .fields import Geography, subset_geography
from .integrals import resident_density
from .io_formats import (
    read_label_raster,
    svg_label_boundaries,
    svg_region_map,
    svg_tessellation,
    write_field_raster,
    write_json,
    write_label_raster,
    write_svg,
    write_table_csv,
)
from .sustainability import enumerate_urban_systems

SITE_CSV_HEADER = ("site_id", "x", "y", "productivity", "weight", "labor",
                   "wage", "price", "real_wage", "amenity_weight")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code contract."""

    def error(self, message):
        raise ConfigError(self.prog, message)


def _log(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(args.out, f"cannot create output directory: "
                                    f"{exc.strerror}") from exc
    return out


def _params_echo(params: ModelParams) -> dict:
    variant = {"kind": params.variant.kind}
    if params.variant.kind == "two_sector":
        variant["mu"] = params.variant.mu
        variant["beta_tilde"] = params.variant.beta
    return {"sigma": params.sigma, "alpha": params.alpha, "beta": params.beta,
            "delta": params.delta, "tau": params.tau,
            "total_labor": params.total_labor, "variant": variant}


def _solver_echo(config: RunConfig) -> dict:
    opts = config.solver
    return {"tol": opts.tol, "max_iter": opts.max_iter,
            "k_shrink": opts.k_shrink}


def _solution_document(solution: EquilibriumSolution, config: RunConfig) -> dict:
    return {
        "command": "solve",
        "site_ids": list(solution.site_ids),
        "weights": solution.weights,
        "welfare": solution.welfare,
        "labor": solution.labor,
        "wages": solution.wages,
        "prices": solution.prices,
        "amenity_weights": solution.B,
        "residuals": solution.residuals,
        "iterations": solution.iterations,
        "market_iterations": solution.market_iterations,
        "converged": solution.converged,
        "exited_feasible": solution.exited_feasible,
        "variant": solution.variant_kind,
        "params": _params_echo(config.params),
        "solver": _solver_echo(config),
    }


def _site_rows(solution: EquilibriumSolution, work: Geography):
    rows = []
    for pos, site in enumerate(work.sites):
        wage = float(solution.wages[pos])
        price = float(solution.prices[pos])
        rows.append({
            "site_id": site.id,
            "x": site.position[0], "y": site.position[1],
            "productivity": site.productivity,
            "weight": float(solution.weights[pos]),
            "labor": float(solution.labor[pos]),
            "wage": wage, "price": price,
            "real_wage": wage / price,
            "amenity_weight": float(solution.B[pos]),
        })
    return rows


def cmd_solve(args) -> int:
    config = load_config(args.config)
    out = _out_dir(args)
    geography = config.require_geography()
    params = config.require_params()
    _log(args, f"solving {geography.n_sites}-site geography "
               f"({params.variant.kind})")
    work = subset_geography(geography, config.active_sites)
    try:
        solution = solve_equilibrium(work, params, options=config.solver)
    except (NotConverged, LeftFeasibleSet) as exc:
        diagnostics = {
            "command": "solve",
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "params": _params_echo(params),
            "solver": _solver_echo(config),
        }
        if isinstance(exc, NotConverged):
            diagnostics["error"].update(what=exc.what,
                                        iterations=exc.iterations,
                                        step=exc.step)
        write_json(out / "diagnostics.json", diagnostics)
        _log(args, f"wrote partial diagnostics to {out / 'diagnostics.json'}")
        raise

    write_json(out / "solution.json", _solution_document(solution, config))
    write_table_csv(out / "sites.csv", SITE_CSV_HEADER,
                    _site_rows(solution, work))
    grid = work.grid
    write_label_raster(out / "tessellation.pgm",
                       solution.tessellation.labels, grid.bbox)
    kernel = variant_transform(params).kernel
    density = resident_density(solution.tessellation, solution.aggregates,
                               work.amenity, kernel, solution.labor)
    write_field_raster(out / "density.fld", density, grid.bbox)
    positions = [site.position for site in work.sites]
    write_svg(out / "overlay.svg",
              svg_tessellation(solution.tessellation.labels, grid.bbox,
                               positions, solution.labor))
    _log(args, f"wrote solution artifacts to {out}")
    return 0


def cmd_classify(args) -> int:
    config = load_config(args.config)
    fields = dataclasses.asdict(regime_classify(config.require_params()))
    for key, value in fields.items():
        if isinstance(value, bool):
            value = str(value).lower()
        print(f"{key} = {value}")
    write_json(_out_dir(args) / "classify.json",
               {"command": "classify", **fields})
    return 0


SWEEP_CSV_HEADER = ("alpha", "beta", "sigma", "multiplicity", "labor_unique",
                    "reconciliation", "gamma_ratio")


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    result = parameter_sweep(**vars(config.sweep))
    out = _out_dir(args)
    write_table_csv(out / "sweep.csv", SWEEP_CSV_HEADER, sweep_rows(result))
    write_svg(out / "regions.svg", svg_region_map(result, SWEEP_CATEGORIES))
    write_json(out / "sweep.json", {
        "command": "sweep",
        "kind": result.kind,
        "fixed": result.fixed,
        "x_axis": "alpha",
        "y_axis": "beta" if result.kind == "alpha_beta" else "sigma",
        "x_values": result.x_values,
        "y_values": result.y_values,
        "categories": list(SWEEP_CATEGORIES),
        "category_grid": result.category,
        "boundary": [list(v) for v in result.boundary],
    })
    _log(args, f"classified {result.category.size} parameter points")
    return 0


CATALOG_CSV_HEADER = ("subset", "active_ids", "verdict", "min_margin",
                      "welfare", "labor")


def _id_list(ids) -> str:
    return ";".join(str(i) for i in ids)


def _usable_cpus() -> int:
    """CPUs this process may run on; the CPU count where the platform cannot
    tell (macOS has no ``os.sched_getaffinity``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_enumerate(args) -> int:
    if args.threads < 0:
        raise ConfigError("hinterland enumerate",
                          f"--threads must be >= 0, got {args.threads}")
    config = load_config(args.config)
    geography = config.require_geography()
    params = config.require_params()
    catalog = enumerate_urban_systems(
        geography, params, **vars(config.enumerate), options=config.solver,
        threads=args.threads or _usable_cpus())
    out = _out_dir(args)
    records = [{"subset": list(entry.subset),
                "active_ids": list(entry.active_ids),
                "verdict": entry.verdict,
                "min_margin": entry.min_margin,
                "welfare": entry.welfare,
                "weights": entry.weights,
                "labor": entry.labor} for entry in catalog.entries]
    rows = [{**record, "subset": _id_list(record["subset"]),
             "active_ids": _id_list(record["active_ids"]),
             "labor": ";".join(repr(float(v)) for v in record["labor"])}
            for record in records]
    for subset, verdict in catalog.rejected:
        rows.append({"subset": _id_list(subset), "active_ids": "",
                     "verdict": verdict, "min_margin": "", "welfare": "",
                     "labor": ""})
    write_table_csv(out / "catalog.csv", CATALOG_CSV_HEADER, rows)
    write_json(out / "catalog.json", {
        "command": "enumerate",
        "strategy": catalog.strategy,
        "seed": catalog.seed,
        "sizes": list(catalog.sizes),
        "max_subsets": catalog.max_subsets,
        "entries": records,
        "rejected": [{"subset": list(subset), "verdict": verdict}
                     for subset, verdict in catalog.rejected],
        "failures": [{"subset": list(subset), "error": error}
                     for subset, error in catalog.failures],
        "params": _params_echo(params),
    })
    _log(args, f"catalog: {len(catalog.entries)} sustainable, "
               f"{len(catalog.rejected)} rejected, "
               f"{len(catalog.failures)} failed")
    return 0


def _read_site_rows(path: Path):
    positions, labor = [], []
    with open(path, newline="") as fh:
        try:
            for row in csv.DictReader(fh):
                positions.append((float(row["x"]), float(row["y"])))
                labor.append(float(row["labor"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(str(path), "every row needs numeric x, y and "
                                         "labor columns") from exc
    return positions, np.asarray(labor)


def cmd_render(args) -> int:
    if args.width < 1:
        raise ConfigError("hinterland render",
                          f"--width must be >= 1, got {args.width}")
    source = Path(args.input)
    out = _out_dir(args)
    if source.is_dir():
        raster = source / "tessellation.pgm"
        sites_csv = source / "sites.csv"
    elif source.suffix == ".pgm":
        raster, sites_csv = source, None
    else:
        raise ConfigError(str(source),
                          "render needs a solve output directory or a "
                          ".pgm label raster")
    if not raster.exists():
        raise ConfigError(str(raster), "label raster not found")
    labels, bbox = read_label_raster(raster)
    if args.style == "boundaries":
        text = svg_label_boundaries(labels, bbox, width=args.width)
    else:
        positions, labor = ([], None)
        if sites_csv is not None and sites_csv.exists():
            positions, labor = _read_site_rows(sites_csv)
        text = svg_tessellation(labels, bbox, positions, labor,
                                width=args.width)
    write_svg(out / "render.svg", text)
    _log(args, f"rendered {raster} to {out / 'render.svg'}")
    return 0


COMMANDS = (
    (cmd_solve, "solve the configured active set and write all solution "
                "artifacts"),
    (cmd_classify, "print and save the parameter-regime classification"),
    (cmd_sweep, "classify a parameter grid; write CSV and region-map SVG"),
    (cmd_enumerate, "enumerate sustainable equilibria over active-site "
                    "subsets"),
    (cmd_render, "convert saved artifacts to SVG"),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hinterland",
                     description="Equilibrium urban systems on weighted-"
                                 "Voronoi commuting areas.")
    sub = parser.add_subparsers(dest="command", required=True)
    for func, help_text in COMMANDS:
        p = sub.add_parser(func.__name__.removeprefix("cmd_"), help=help_text)
        p.set_defaults(func=func)
        if func is not cmd_render:
            p.add_argument("--config", required=True,
                           help="path to the YAML run configuration")
        p.add_argument("--out", default=".",
                       help="output directory (created if missing)")
        p.add_argument("--verbose", action="store_true",
                       help="progress messages on stderr")
        if func is cmd_render:
            p.add_argument("--input", required=True,
                           help="solve output directory or .pgm label raster")
            p.add_argument("--style", choices=("overlay", "boundaries"),
                           default="overlay")
            p.add_argument("--width", type=int, default=640)
        elif func is cmd_enumerate:
            p.add_argument("--threads", type=int, default=0,
                           help="worker processes (0 = every CPU this "
                                "process may use); the catalog does not "
                                "depend on it")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except HinterlandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NotConverged):
            return 2
        return 3 if isinstance(exc, LeftFeasibleSet) else 1


if __name__ == "__main__":
    raise SystemExit(main())
