import csv
import dataclasses
import math
import multiprocessing
import os
import textwrap
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import yaml

from hinterland import cli
from hinterland.config import load_config, parse_config
from hinterland.equilibrium import SolverOptions
from hinterland.errors import (
    ConfigError,
    HinterlandError,
    LeftFeasibleSet,
    NotConverged,
    SiteOutsideDomain,
)
from hinterland.io_formats import (
    read_field_raster,
    read_json,
    read_label_raster,
    write_field_raster,
    write_label_raster,
    write_matrix_csv,
)

MINIMAL = """\
geography:
  resolution: [48, 48]
  sites:
    - {position: [0.3, 0.5], productivity: 1.0}
    - {position: [0.7, 0.5], productivity: 1.0}
  trade:
    kind: from_metric
    tau: 0.5
params:
  sigma: 9.0
  alpha: 0.2
  beta: -0.3
  delta: 2.0
"""


def write_config(tmp_path, text=MINIMAL, name="run.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


# ---------------------------------------------------------------------------
# config parsing

def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    geo = cfg.geography
    assert geo.grid.bbox == (0.0, 0.0, 1.0, 1.0)
    assert (geo.grid.nx, geo.grid.ny) == (48, 48)
    assert geo.n_sites == 2
    assert geo.trade.origin == "from_metric" and geo.trade.tau == 0.5
    assert np.allclose(geo.amenity.values, 1.0)
    assert cfg.params.sigma == 9.0 and cfg.params.variant.kind == "baseline"
    assert cfg.solver == SolverOptions()
    assert cfg.active_sites is None
    assert cfg.enumerate.sizes == (2,) and cfg.enumerate.max_subsets == 256
    assert cfg.enumerate.seed == 0


def test_unknown_key_rejected_with_line():
    bad = MINIMAL + "params2: 3\n"
    with pytest.raises(ConfigError, match=r"<config>:14: unknown key 'params2'"):
        parse_config(bad)


def test_nested_unknown_key_line_anchored():
    bad = MINIMAL.replace("  delta: 2.0", "  delta: 2.0\n  deltta: 2.0")
    with pytest.raises(ConfigError, match=r":14: unknown key 'params.deltta'"):
        parse_config(bad)


def test_duplicate_key_rejected():
    bad = MINIMAL + "params:\n  sigma: 5.0\n"
    with pytest.raises(ConfigError, match="duplicate key 'params'"):
        parse_config(bad)


def test_missing_required_key():
    bad = MINIMAL.replace("  sigma: 9.0\n", "")
    with pytest.raises(ConfigError, match="missing required key 'params.sigma'"):
        parse_config(bad)


def test_type_errors_carry_lines():
    bad = MINIMAL.replace("tau: 0.5", "tau: fast")
    with pytest.raises(ConfigError, match=r":8: 'tau' must be a number"):
        parse_config(bad)
    bad = MINIMAL.replace("resolution: [48, 48]", "resolution: [48.5, 48]")
    with pytest.raises(ConfigError, match=r":2: 'resolution'"):
        parse_config(bad)


def test_invalid_yaml_reports_position():
    with pytest.raises(ConfigError, match="invalid YAML"):
        parse_config("params:\n  sigma: [unclosed\n")
    with pytest.raises(ConfigError, match="empty config"):
        parse_config("# nothing here\n")


def test_domain_value_errors_become_config_errors():
    bad = MINIMAL.replace("beta: -0.3", "beta: 0.3")
    with pytest.raises(ConfigError, match="beta"):
        parse_config(bad)
    bad = MINIMAL.replace("bbox", "bbox")  # keep text; now break the bbox
    bad = bad.replace("geography:\n", "geography:\n  bbox: [1, 0, 0, 1]\n")
    with pytest.raises(ConfigError, match="bbox"):
        parse_config(bad)


def test_site_outside_bbox_rejected():
    bad = MINIMAL.replace("[0.7, 0.5]", "[1.7, 0.5]")
    with pytest.raises(ConfigError, match="outside bbox"):
        parse_config(bad)


def test_scaled_metric_requires_scales():
    text = MINIMAL.replace("  trade:", "  metric: scaled_euclidean\n  trade:")
    with pytest.raises(ConfigError, match="scaled_euclidean needs positive "
                                          "per-site scales") as exc:
        parse_config(text)
    assert exc.value.path == "<config>:1"
    good = text.replace("  metric: scaled_euclidean",
                        "  metric: scaled_euclidean\n  scales: [2.0, 2.0]")
    cfg = parse_config(good)
    assert cfg.geography.system.kind == "scaled_euclidean"
    assert cfg.geography.system.scales == (2.0, 2.0)
    stray = MINIMAL.replace("  trade:", "  scales: [1.0, 2.0]\n  trade:")
    with pytest.raises(ConfigError, match="scales apply only to the "
                                          "scaled_euclidean metric") as exc:
        parse_config(stray)
    assert exc.value.path == "<config>:6"
    # unequal scales make metric trade costs asymmetric; surfaced as a
    # config error anchored at the geography block
    unequal = text.replace("  metric: scaled_euclidean",
                           "  metric: scaled_euclidean\n  scales: [1.0, 2.0]")
    with pytest.raises(ConfigError, match="symmetric metric"):
        parse_config(unequal)


def test_two_sector_variant_parsing():
    text = MINIMAL + ("  variant:\n    kind: two_sector\n    mu: 0.6\n"
                      "    beta_tilde: -0.4\n")
    params = parse_config(text).params
    assert params.variant.kind == "two_sector"
    assert params.variant.mu == 0.6 and params.variant.beta == -0.4
    bad = text.replace("mu: 0.6", "mu: 1.6")
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_disk_domain_shrinks_the_grid():
    text = MINIMAL.replace(
        "geography:\n",
        "geography:\n  domain: {kind: disk, radius: 0.5}\n")
    cfg = parse_config(text)
    full = parse_config(MINIMAL)
    assert cfg.geography.grid.n_inside < full.geography.grid.n_inside
    assert cfg.geography.grid.area == pytest.approx(math.pi * 0.25, rel=0.05)


def test_mask_domain_from_pgm(tmp_path):
    labels = np.zeros((48, 48), dtype=np.int32)
    labels[:, 24:] = -1                        # right half outside
    write_label_raster(tmp_path / "mask.pgm", labels, (0.0, 0.0, 1.0, 1.0))
    text = MINIMAL.replace(
        "geography:\n",
        "geography:\n  domain: {kind: mask, file: mask.pgm}\n").replace(
        "[0.7, 0.5]", "[0.4, 0.5]")
    path = write_config(tmp_path, text)
    cfg = load_config(path)
    assert cfg.geography.grid.n_inside == 48 * 24
    wrong = text.replace("resolution: [48, 48]", "resolution: [32, 32]")
    with pytest.raises(ConfigError, match="resolution says"):
        load_config(write_config(tmp_path, wrong, "wrong.yaml"))


def test_amenity_sources(tmp_path):
    bumps = MINIMAL.replace(
        "geography:\n",
        "geography:\n"
        "  amenity:\n"
        "    kind: bumps\n"
        "    bumps:\n"
        "      - {center: [0.3, 0.5], height: 2.0, width: 0.2}\n")
    cfg = parse_config(bumps)
    values = cfg.geography.amenity.values
    assert values.max() > 2.5 and values.min() >= 1.0

    field = 1.0 + np.random.default_rng(0).uniform(0, 1, size=(48, 48))
    write_field_raster(tmp_path / "amen.fld", field, (0.0, 0.0, 1.0, 1.0))
    raster = MINIMAL.replace(
        "geography:\n",
        "geography:\n  amenity: {kind: raster, file: amen.fld}\n")
    cfg = load_config(write_config(tmp_path, raster))
    assert np.allclose(cfg.geography.amenity.values, field)
    missing = raster.replace("amen.fld", "nope.fld")
    with pytest.raises(ConfigError, match="cannot read amenity raster"):
        load_config(write_config(tmp_path, missing, "missing.yaml"))


def test_explicit_trade_matrix(tmp_path):
    matrix = np.array([[1.0, 2.0], [2.5, 1.0]])
    write_matrix_csv(tmp_path / "trade.csv", matrix)
    text = MINIMAL.replace(
        "  trade:\n    kind: from_metric\n    tau: 0.5",
        "  trade:\n    kind: explicit\n    file: trade.csv")
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.geography.trade.origin == "explicit"
    assert np.array_equal(cfg.geography.trade.values, matrix)

    big = np.ones((3, 3))
    write_matrix_csv(tmp_path / "big.csv", big)
    wrong = text.replace("trade.csv", "big.csv")
    with pytest.raises(ConfigError, match="2 sites but 3x3 trade matrix") \
            as exc:
        load_config(write_config(tmp_path, wrong, "wrong.yaml"))
    assert exc.value.path.endswith("wrong.yaml:8")


@pytest.mark.parametrize("entry", [0.0, -1.5, float("nan"), float("inf")])
def test_explicit_trade_entries_must_be_finite_and_positive(tmp_path, entry):
    write_matrix_csv(tmp_path / "trade.csv", [[1.0, entry], [1.2, 1.0]])
    text = MINIMAL.replace(
        "  trade:\n    kind: from_metric\n    tau: 0.5",
        "  trade:\n    kind: explicit\n    file: trade.csv")
    config = write_config(tmp_path, text)
    file_line = text.splitlines().index("    file: trade.csv") + 1
    with pytest.raises(ConfigError, match="finite and > 0") as exc:
        load_config(config)
    assert exc.value.path == f"{config}:{file_line}"
    assert cli.main(["solve", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 1


def test_active_sites_validation():
    good = MINIMAL + "solve:\n  active_sites: [1]\n"
    assert parse_config(good).active_sites == (1,)
    for ids, message in [("[0, 7]", "unknown site id 7"),
                         ("[0, 0]", "duplicate"), ("[]", "no site ids given")]:
        with pytest.raises(ConfigError, match=message) as exc:
            parse_config(MINIMAL + f"solve:\n  active_sites: {ids}\n")
        assert exc.value.path == "<config>:15"


def test_solver_anchor_is_an_unknown_key(tmp_path):
    # the anchored solve pins the first site of its active set, every fixed
    # point damps with equilibrium.DAMPING, the sampling seed is enumerate's
    # and the process count is enumerate's --threads
    for block, line, key in [("solver:\n  anchor: 0\n", 15, "solver.anchor"),
                             ("solver:\n  damping: 0.5\n", 15,
                              "solver.damping"),
                             ("solver:\n  seed: 1\n", 15, "solver.seed"),
                             ("threads: 2\n", 14, "threads")]:
        text = MINIMAL + block
        with pytest.raises(ConfigError, match=f"<config>:{line}: unknown key "
                                              f"'{key}'"):
            parse_config(text)
        assert cli.main(["solve", "--config",
                         str(write_config(tmp_path, text)),
                         "--out", str(tmp_path / "out")]) == 1


def test_tau_outside_home_consumption_is_reported_at_params():
    text = MINIMAL.replace("  delta: 2.0\n", "  delta: 2.0\n  tau: 0.9\n")
    with pytest.raises(ConfigError, match="tau applies only to the "
                                          "home_consumption variant, got 0.9 "
                                          "under baseline") as exc:
        parse_config(text)
    assert exc.value.path == "<config>:9"
    home = parse_config(text + "  variant: {kind: home_consumption}\n")
    assert home.params.tau == 0.9


def test_sweep_axes_accept_lists_and_ranges():
    text = ("sweep:\n  kind: alpha_sigma\n"
            "  alphas: {start: 0.0, stop: 0.5, count: 6}\n"
            "  sigmas: [2.0, 5.0, 9.0]\n  beta: -0.25\n")
    sweep = parse_config(text).sweep
    assert sweep.kind == "alpha_sigma"
    assert np.allclose(sweep.alphas, np.linspace(0.0, 0.5, 6))
    assert np.allclose(sweep.sigmas, [2.0, 5.0, 9.0])
    assert sweep.beta == -0.25
    with pytest.raises(ConfigError, match="at least 2"):
        parse_config("sweep:\n  alphas: [0.1]\n")


@pytest.mark.parametrize("kind, axis", [("alpha_beta", "sigmas"),
                                        ("alpha_sigma", "betas")])
def test_sweep_rejects_the_other_kinds_axis_at_its_line(kind, axis):
    text = f"sweep:\n  kind: {kind}\n  {axis}: [2.0, 3.0]\n"
    with pytest.raises(ConfigError, match=f"'{axis}' does not apply to the "
                                          f"{kind} sweep") as exc:
        parse_config(text)
    assert exc.value.path == "<config>:3"


@pytest.mark.parametrize("kind, scalar", [("alpha_beta", "beta: -0.2"),
                                          ("alpha_sigma", "sigma: 3.0")])
def test_sweep_rejects_the_other_kinds_scalar_at_its_line(kind, scalar):
    key = scalar.split(":")[0]
    with pytest.raises(ConfigError, match=f"'{key}' does not apply to the "
                                          f"{kind} sweep") as exc:
        parse_config(f"sweep:\n  kind: {kind}\n  {scalar}\n")
    assert exc.value.path == "<config>:3"


@pytest.mark.parametrize("axis, low", [("[1.0, 2.0]", "1.0"),
                                       ("{start: 0.5, stop: 3.0, count: 4}",
                                        "0.5")])
def test_sweep_sigmas_must_exceed_one_at_their_line(tmp_path, capsys, axis,
                                                    low):
    text = f"sweep:\n  kind: alpha_sigma\n  sigmas: {axis}\n"
    with pytest.raises(ConfigError, match=f"sigma must be > 1, got {low}") \
            as exc:
        parse_config(text)
    assert exc.value.path == "<config>:3"
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("replace, line, message", [
    (("productivity: 1.0}\n  trade", "productivity: 0.0}\n  trade"), 5,
     r"site 1: productivity must be finite and > 0, got 0.0"),
    (("  trade:", "  metric: scaled_euclidean\n  scales: [1.0, -2.0]\n"
      "  trade:"), 7, "scaled_euclidean needs positive per-site scales"),
    (("  delta: 2.0", "  delta: -2.0"), 9, "delta must be > 0, got -2.0"),
    (("tau: 0.5", "tau: -0.5"), 8, "tau must be > 0, got -0.5"),
    (("[48, 48]", "[48, 1]"), 2, "resolution must be at least 2 per axis, "
                                 "got 48x1"),
    (("geography:\n", "geography:\n  bbox: [0.0, 1.0, 1.0, 0.0]\n"), 2,
     r"degenerate bbox \(0.0, 1.0, 1.0, 0.0\): must be finite with x0 < x1 "
     r"and y0 < y1"),
    (("  trade:", "  amenity:\n    kind: uniform\n    value: 0.0\n  trade:"),
     8, r"amenity sample at cell \(0, 0\) is 0.0"),
    (("  trade:", "  metric: scaled_euclidean\n  scales: [1.0, 1.0, 1.0]\n"
      "  trade:"), 7, "2 sites but 3 metric scales"),
    (("  delta: 2.0\n", "  delta: 2.0\nsolver:\n  max_iter: 9\n  tol: -1.0\n"),
     16, "tol must be > 0, got -1.0"),
    (("  delta: 2.0\n", "  delta: 2.0\nsolver:\n  tol: 1.0e-9\n  max_iter: 0\n"),
     16, "max_iter must be >= 1, got 0"),
    (("  delta: 2.0\n", "  delta: 2.0\nsweep:\n  kind: alpha_beta\n"
      "  sigma: 1.0\n"), 16, "sigma must be > 1, got 1.0"),
    (("  delta: 2.0\n", "  delta: 2.0\nsweep:\n  kind: alpha_sigma\n"
      "  sigmas:\n    start: 0.5\n    stop: 3.0\n    count: 4\n"), 16,
     "sigma must be > 1, got 0.5"),
    (("  delta: 2.0\n", "  delta: 2.0\nsweep:\n  alphas: [0.1]\n"), 15,
     "sweep alpha axis needs at least 2 strictly increasing values"),
    (("  delta: 2.0\n", "  delta: 2.0\nsweep:\n  betas:\n    start: -0.5\n"
      "    stop: -0.1\n    count: 1\n"), 18,
     "sweep beta axis needs at least 2 strictly increasing values"),
    (("  delta: 2.0\n", "  delta: 2.0\nsweep:\n  alphas:\n    start: 0.6\n"
      "    stop: 0.0\n    count: 7\n"), 15,
     "sweep alpha axis needs at least 2 strictly increasing values"),
    (("  delta: 2.0\n", "  delta: 2.0\nenumerate:\n  sizes: [0, 2]\n"), 15,
     r"subset sizes must be >= 1, got \[0, 2\]"),
    (("  delta: 2.0\n", "  delta: 2.0\nenumerate:\n  sizes: [1]\n"
      "  max_subsets: 0\n"), 16, "max_subsets must be >= 1, got 0"),
    (("  delta: 2.0\n", "  delta: 2.0\nenumerate:\n  seed: -1\n"), 15,
     "seed must be >= 0, got -1"),
])
def test_library_rules_are_reported_at_their_key(replace, line, message):
    # one rule per fact: the library's InvalidInput, at the key's line (a
    # block's own rule at the block's key, a range axis's count at its own)
    with pytest.raises(ConfigError, match=message) as exc:
        parse_config(MINIMAL.replace(*replace))
    assert exc.value.path == f"<config>:{line}"


@pytest.mark.parametrize("value", [".inf", "-.inf", ".nan"])
def test_non_finite_numbers_are_rejected_at_their_line(value):
    bad = MINIMAL.replace("{position: [0.3, 0.5], productivity: 1.0}",
                          f"{{position: [0.3, 0.5], productivity: {value}}}")
    with pytest.raises(ConfigError, match="'productivity' must be finite") \
            as exc:
        parse_config(bad)
    assert exc.value.path == "<config>:4"
    bad = MINIMAL.replace("[0.7, 0.5]", f"[0.7, {value}]")
    with pytest.raises(ConfigError, match="'position' must be a list of "
                                          "finite numbers") as exc:
        parse_config(bad)
    assert exc.value.path == "<config>:5"
    with pytest.raises(ConfigError, match="'alpha' must be finite") as exc:
        parse_config(MINIMAL.replace("alpha: 0.2", f"alpha: {value}"))
    assert exc.value.path == "<config>:11"


def test_solver_block_bounds():
    with pytest.raises(ConfigError, match="max_iter"):
        parse_config(MINIMAL + "solver:\n  max_iter: 0\n")
    # the shrunk set Λ^k needs k in (0, 1): SolverOptions' rule, at the key
    with pytest.raises(ConfigError, match=r"k_shrink must be in \(0, 1\), "
                                          r"got 1.0") as exc:
        parse_config(MINIMAL + "solver:\n  k_shrink: 1.0\n")
    assert exc.value.path == "<config>:15"
    cfg = parse_config(MINIMAL + "solver:\n  max_iter: 500\n"
                                 "enumerate:\n  seed: 11\n")
    assert cfg.enumerate.seed == 11 and cfg.solver.max_iter == 500


# each optional block, spelled out with its defaults, and where it goes
DEFAULT_BLOCKS = {
    "domain": ("geography:\n", "{kind: all}"),
    "amenity": ("geography:\n", "{kind: uniform, value: 1.0}"),
    "variant": ("params:\n", "{kind: baseline}"),
    "solver": ("", "{tol: 1.0e-12, max_iter: 2000, k_shrink: 0.5}"),
    "solve": ("", "{active_sites: null}"),
    "sweep": ("", "{kind: alpha_beta, sigma: 9.0}"),
    "enumerate": ("", "{sizes: [2], max_subsets: 256, seed: 0}"),
}


def _config_facts(cfg):
    amenity = cfg.geography.amenity
    return (cfg.params, cfg.solver, cfg.active_sites, cfg.sweep, cfg.enumerate,
            cfg.geography.grid.inside.tobytes(),
            amenity.values.tobytes(), amenity.b_min, amenity.b_max)


@pytest.mark.parametrize("block", sorted(DEFAULT_BLOCKS))
def test_absent_block_equals_empty_and_spelled_out_defaults(block):
    parent, defaults = DEFAULT_BLOCKS[block]

    def with_block(value):
        if not parent:
            return MINIMAL + f"{block}: {value}\n"
        return MINIMAL.replace(parent, f"{parent}  {block}: {value}\n")

    absent = _config_facts(parse_config(MINIMAL))
    assert _config_facts(parse_config(with_block("{}"))) == absent
    assert _config_facts(parse_config(with_block(defaults))) == absent


def _write_bad_raster(tmp_path, what, case):
    write = write_label_raster if what == "mask" else write_field_raster
    values = np.zeros((48, 48), dtype=np.int32) if what == "mask" \
        else np.ones((48, 48))
    name = f"{what}.raster"
    if case == "shape":
        write(tmp_path / name, values[:40], (0.0, 0.0, 1.0, 1.0))
    elif case == "bbox":
        write(tmp_path / name, values, (0.0, 0.0, 1.0, 2.0))
    else:
        (tmp_path / name).write_text("not a raster")
    return name


@pytest.mark.parametrize("case, message", [
    ("shape", "{what} raster is 48x40, resolution says 48x48"),
    ("bbox", r"{what} raster bbox \(0.0, 0.0, 1.0, 2.0\) does not match "
             r"geography bbox \(0.0, 0.0, 1.0, 1.0\)"),
    ("unreadable", "cannot read {what} raster: "),
])
@pytest.mark.parametrize("what", ["mask", "amenity"])
def test_bad_rasters_are_reported_at_the_file_line(tmp_path, what, case,
                                                   message):
    name = _write_bad_raster(tmp_path, what, case)
    block = "domain" if what == "mask" else "amenity"
    kind = "mask" if what == "mask" else "raster"
    text = MINIMAL.replace(
        "geography:\n", f"geography:\n  {block}:\n    kind: {kind}\n"
                        f"    file: {name}\n")
    config = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=": " + message.format(what=what)) as exc:
        load_config(config)
    assert exc.value.path == f"{config}:4"


def _library_error_inputs(tmp_path):
    mask = np.zeros((48, 48), dtype=np.int32)
    mask[:, 24] = -1                      # a wall splits the domain in two
    write_label_raster(tmp_path / "mask.pgm", mask, (0.0, 0.0, 1.0, 1.0))
    field = np.ones((48, 48))
    field[20, 30] = -1.0
    write_field_raster(tmp_path / "field.fld", field, (0.0, 0.0, 1.0, 1.0))


@pytest.mark.parametrize("block, line, message", [
    ("  domain:\n    kind: disk\n    radius: 0.001\n", 3,
     "inside predicate marked no cell"),
    ("  domain:\n    kind: mask\n    file: mask.pgm\n", 3,
     "inside mask has 2 4-connected components"),
    ("  amenity:\n    kind: bumps\n    bumps:\n"
     "      - {center: [0.5, 0.5], height: -5.0, width: 0.1}\n", 3,
     "amenity sample at cell .* must be finite and > 0"),
    ("  amenity:\n    kind: raster\n    file: field.fld\n", 5,
     "amenity sample at cell .* is -1.0"),
])
def test_domain_and_amenity_errors_are_reported_at_their_block(
        tmp_path, block, line, message):
    # the domain or amenity block's key is on line 3, a raster's file on 5
    _library_error_inputs(tmp_path)
    text = MINIMAL.replace("  resolution: [48, 48]\n",
                           "  resolution: [48, 48]\n" + block)
    config = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=message) as exc:
        load_config(config)
    assert exc.value.path == f"{config}:{line}"


def test_cross_block_and_site_errors_keep_their_line():
    # a second site at the first one's position fails at its own line
    same = MINIMAL.replace("[0.7, 0.5]", "[0.3, 0.5]")
    with pytest.raises(ConfigError, match=r"sites 0 and 1 share position "
                                          r"\(0.3, 0.5\)") as exc:
        parse_config(same)
    assert exc.value.path == "<config>:5"
    # metric trade costs need tau > 0; tau 0 once escaped as a ValueError
    with pytest.raises(ConfigError, match="tau must be > 0, got 0.0") as exc:
        parse_config(MINIMAL.replace("tau: 0.5", "tau: 0"))
    assert exc.value.path == "<config>:8"


NO_SITES = ("  sites:\n    - {position: [0.3, 0.5], productivity: 1.0}\n"
            "    - {position: [0.7, 0.5], productivity: 1.0}\n")


@pytest.mark.parametrize("replace, line, message", [
    (("  trade:", "  metric: 5\n  trade:"), 6, "'metric' must be a string"),
    (("  trade:", "  metric: manhattan\n  trade:"), 6,
     "'metric' must be one of euclidean, scaled_euclidean; got 'manhattan'"),
    (("geography:\n", "geography:\n  bbox: [0, 0, 1]\n"), 2,
     "'bbox' must have 4 entries, got 3"),
    (("  delta: 2.0\n", "  delta: 2.0\nsolver:\n  max_iter: 1.5\n"), 15,
     "'max_iter' must be an integer, got 1.5"),
    (("  trade:", "  domain:\n    kind: disk\n    radius: 0.0\n  trade:"), 8,
     "'radius' must be > 0.0, got 0.0"),
    (("  trade:", "  amenity:\n    kind: bumps\n    bumps:\n"
      "      - {center: [0.5, 0.5], height: 1.0, width: 0.0}\n  trade:"), 9,
     "'width' must be > 0.0, got 0.0"),
    ((NO_SITES, "  sites: []\n"), 3, "'sites' must list at least one site"),
    ((NO_SITES, "  sites:\n"), 3, "'sites' must be a non-empty list"),
    ((NO_SITES, "  sites: 5\n"), 3, "'sites' must be a list"),
    (("  delta: 2.0\n", "  delta: 2.0\nenumerate:\n  sizes: [1.5]\n"), 15,
     r"'sizes' must be a non-empty list of integers, got \[1.5\]"),
    (("  delta: 2.0\n", "  delta: 2.0\nsolve:\n  active_sites: 3\n"), 15,
     "'active_sites' must be a list of site ids or null, got 3"),
    (("params:\n  sigma: 9.0\n  alpha: 0.2\n  beta: -0.3\n  delta: 2.0\n",
      "params: 5\n"), 9, "'params' must be a mapping"),
    # a block's own error is at the block's key, and so is an unknown block
    (("  trade:\n    kind: from_metric\n    tau: 0.5\n", ""), 1,
     "a 'trade' block is required"),
    (("  delta: 2.0\n", "  delta: 2.0\nextra:\n  sigma: 9.0\n"), 14,
     "unknown key 'extra'"),
])
def test_config_errors_are_reported_at_their_key(replace, line, message):
    with pytest.raises(ConfigError, match=message) as exc:
        parse_config(MINIMAL.replace(*replace))
    assert exc.value.path == f"<config>:{line}"


@pytest.mark.parametrize("command, text, block", [
    ("solve", "params:" + MINIMAL.split("params:")[1], "geography"),
    ("enumerate", "params:" + MINIMAL.split("params:")[1], "geography"),
    ("solve", MINIMAL.split("params:")[0], "params"),
    ("classify", MINIMAL.split("params:")[0], "params"),
    ("enumerate", MINIMAL.split("params:")[0], "params"),
])
def test_commands_report_a_missing_block(tmp_path, capsys, command, text,
                                         block):
    config = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {config}: a '{block}' block is required for this command\n")


def test_readme_configuration_example_loads():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Configuration\n")[1]
    example = section.split("```yaml\n")[1].split("```")[0]
    cfg = parse_config(example)
    assert cfg.geography.n_sites == 2 and cfg.params.sigma == 9.0
    assert cfg.sweep.kind == "alpha_sigma"


def test_readme_minimal_python_session_solves(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    session = readme.read_text(encoding="utf-8").split("```python\n")[1]
    namespace = {}
    exec(session.split("```")[0], namespace)
    solution = namespace["solution"]
    assert solution.converged and solution.active_ids == (0, 1)
    assert solution.residuals["population"] < 1e-10
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("value", ["!!int 9.5", "!foo 9.5", "!!binary 9.5"])
def test_a_value_its_tag_cannot_build_is_reported_at_its_key(tmp_path, capsys,
                                                             value):
    text = MINIMAL.replace("sigma: 9.0", f"sigma: {value}")
    with pytest.raises(ConfigError, match="cannot read value") as exc:
        parse_config(text)
    assert exc.value.path == "<config>:10"
    with pytest.raises(ConfigError, match="cannot read value") as exc:
        parse_config(MINIMAL.replace("sigma: 9.0", f"{value}: 9.0"))
    assert exc.value.path == "<config>:10"
    config = write_config(tmp_path, text)
    assert cli.main(["classify", "--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {config}:10: cannot read value: ")


AMENITY_GEOGRAPHY = ("geography:\n  resolution: [48, 48]\n",
                     "geography:\n  bbox: [-0.5, 0.25, 1.5, 1.25]\n"
                     "  resolution: [37, 23]\n  amenity: {}\n")


def test_config_amenities_equal_the_closure_formula_bit_for_bit():
    bumps = [((0.3, 0.6), 1.5, 0.2), ((1.1, 0.4), -0.3, 0.35)]
    listed = "".join(f"\n      - {{center: [{cx}, {cy}], height: {h}, "
                     f"width: {w}}}" for (cx, cy), h, w in bumps)
    geography = MINIMAL.replace(*AMENITY_GEOGRAPHY)
    cfg = parse_config(geography.replace(
        "{}", f"\n    kind: bumps\n    base: 0.8\n    bumps:{listed}"))
    X, Y = cfg.geography.grid.cell_centers()
    expected = np.full_like(X, 0.8)
    for (cx, cy), height, width in bumps:
        expected += height * np.exp(
            -((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * width ** 2))
    assert np.array_equal(cfg.geography.amenity.values, expected)
    cfg = parse_config(geography.replace("{}", "{kind: uniform, value: 2.5}"))
    assert np.array_equal(cfg.geography.amenity.values, np.full_like(X, 2.5))


def _loaded_facts(cfg):
    geo = cfg.geography
    sweep = [getattr(cfg.sweep, f.name) for f in dataclasses.fields(cfg.sweep)]
    return (geo.grid.bbox, geo.grid.inside.tobytes(), geo.sites, geo.system,
            geo.amenity.values.tobytes(), geo.trade.values.tobytes(),
            cfg.params, cfg.solver, cfg.active_sites, cfg.enumerate,
            [v.tobytes() if isinstance(v, np.ndarray) else v for v in sweep])


def test_pure_python_loader_gives_the_same_config(monkeypatch):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Configuration\n")[1]
    example = section.split("```yaml\n")[1].split("```")[0]
    bad = [MINIMAL.replace("params:\n  sigma: 9.0\n  alpha: 0.2\n  beta: -0.3"
                           "\n  delta: 2.0\n", "params: 5\n"),
           MINIMAL + "extra:\n  sigma: 9.0\n",
           MINIMAL.replace("  delta: 2.0", "  delta: -2.0"),
           MINIMAL.replace("tau: 0.5", "tau: -0.5"),
           MINIMAL.replace("sigma: 9.0", "sigma: !!int 9.5"),
           MINIMAL.replace("sigma: 9.0", "sigma: [9.0"),
           MINIMAL.replace("sigma: 9.0", "sigma: 9.0: 3")]

    def outcomes():
        paths = []
        for text in bad:
            with pytest.raises(ConfigError) as exc:
                parse_config(text)
            paths.append(exc.value.path)
        return _loaded_facts(parse_config(example)), paths

    with_libyaml = outcomes()   # the pure-Python loader too without libyaml
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert outcomes() == with_libyaml
    assert with_libyaml[1] == ["<config>:9", "<config>:14", "<config>:9",
                               "<config>:8", "<config>:10", "<config>:11",
                               "<config>:10"]


# ---------------------------------------------------------------------------
# CLI commands (in-process main)

class SlowerThanCap(NotConverged):
    pass


class LeftTwice(LeftFeasibleSet):
    pass


@pytest.mark.parametrize("error, code", [
    (NotConverged("weights", 5, 1e-3), 2),
    (SlowerThanCap("weights", 5, 1e-3), 2),
    (LeftFeasibleSet("left"), 3),
    (LeftTwice("left twice"), 3),
    (ConfigError("run.yaml:3", "bad key"), 1),
    (SiteOutsideDomain("vacant site 2 lies outside"), 1),
    (HinterlandError("any other"), 1),
])
def test_exit_code_follows_the_error_class(monkeypatch, capsys, error, code):
    def fail(path):
        raise error

    monkeypatch.setattr(cli, "load_config", fail)
    assert cli.main(["classify", "--config", "run.yaml"]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


def test_parser_lists_the_subcommands_in_order():
    assert "{solve,classify,sweep,enumerate,render}" in \
        cli.build_parser().format_usage()


def test_solve_writes_all_artifacts(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(config),
                     "--out", str(out)]) == 0
    for name in ("solution.json", "sites.csv", "tessellation.pgm",
                 "density.fld", "overlay.svg"):
        assert (out / name).exists(), name

    document = read_json(out / "solution.json")
    assert document["converged"] is True
    assert document["residuals"]["weights"] < 1e-8
    with open(out / "sites.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        assert float(row["labor"]) == pytest.approx(0.5, abs=1e-8)

    labels, bbox = read_label_raster(out / "tessellation.pgm")
    assert labels.shape == (48, 48) and bbox == (0.0, 0.0, 1.0, 1.0)
    density, _ = read_field_raster(out / "density.fld")
    cell_area = (1.0 / 48) ** 2
    assert density.sum() * cell_area == pytest.approx(1.0, rel=1e-8)
    ET.fromstring((out / "overlay.svg").read_text())


def test_solution_json_records_market_iterations(tmp_path):
    text = MINIMAL.replace(
        "  sites:\n",
        "  sites:\n    - {position: [0.5, 0.2], productivity: 1.1}\n")
    config = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(config),
                     "--out", str(out)]) == 0
    count = read_json(out / "solution.json")["market_iterations"]
    assert isinstance(count, int) and count > 1


def test_solve_reruns_are_byte_identical(tmp_path):
    config = write_config(tmp_path)
    assert cli.main(["solve", "--config", str(config),
                     "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["solve", "--config", str(config),
                     "--out", str(tmp_path / "b")]) == 0
    for name in ("solution.json", "sites.csv", "tessellation.pgm",
                 "density.fld", "overlay.svg"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes(), name


def test_solve_respects_active_sites_subset(tmp_path):
    text = MINIMAL.replace(
        "  sites:\n",
        "  sites:\n    - {position: [0.5, 0.2], productivity: 1.0}\n")
    config = write_config(tmp_path, text + "solve:\n  active_sites: [1, 2]\n")
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(config),
                     "--out", str(out)]) == 0
    document = read_json(out / "solution.json")
    assert document["site_ids"] == [1, 2]
    labels, _ = read_label_raster(out / "tessellation.pgm")
    assert set(np.unique(labels)) == {0, 1}   # subset-local labels


def test_config_error_exit_code(tmp_path, capsys):
    config = write_config(tmp_path, MINIMAL + "wat: 1\n")
    assert cli.main(["solve", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "unknown key 'wat'" in err and ":14:" in err


def test_usage_errors_map_to_exit_1(capsys):
    assert cli.main(["solve"]) == 1          # missing --config
    assert cli.main(["solve", "--config", "/nonexistent.yaml"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_not_converged_exit_code_and_diagnostics(tmp_path, capsys):
    text = MINIMAL.replace("productivity: 1.0}\n  trade",
                           "productivity: 1.4}\n  trade")
    config = write_config(tmp_path, text + "solver:\n  max_iter: 2\n")
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(config),
                     "--out", str(out)]) == 2
    diagnostics = read_json(out / "diagnostics.json")
    assert diagnostics["error"]["type"] == "NotConverged"
    assert diagnostics["error"]["iterations"] == 2
    assert not (out / "solution.json").exists()


def test_left_feasible_set_exit_code(tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise LeftFeasibleSet("weights left the feasible set twice")

    monkeypatch.setattr(cli, "solve_equilibrium", explode)
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(config),
                     "--out", str(out)]) == 3
    assert read_json(out / "diagnostics.json")["error"]["type"] \
        == "LeftFeasibleSet"


def test_classify_prints_report(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["classify", "--config", str(config),
                     "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "reconciliation = true" in stdout
    assert "location_multiplicity = multiple" in stdout
    assert "alpha_cutoff = 0.125" in stdout
    document = read_json(out / "classify.json")
    assert document["gamma_ratio"] == pytest.approx(0.4 / 2.1)


def test_classify_stdout_is_pinned(tmp_path, capsys):
    config = write_config(tmp_path)
    assert cli.main(["classify", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == (
        "alpha = 0.2\nbeta = -0.3\nsigma = 9.0\nalpha_cutoff = 0.125\n"
        "location_multiplicity = multiple\ngamma_ratio = 0.19047619047619047\n"
        "labor_uniqueness = true\nreconciliation = true\n")


def test_sweep_outputs(tmp_path):
    config = write_config(tmp_path, """\
sweep:
  kind: alpha_sigma
  alphas: {start: 0.0, stop: 0.6, count: 13}
  sigmas: {start: 2.0, stop: 12.0, count: 11}
  beta: -0.3
""")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(config),
                     "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 13 * 11
    assert {row["multiplicity"] for row in rows} \
        >= {"spread", "multiple", "knife_edge"}
    ET.fromstring((out / "regions.svg").read_text())
    document = read_json(out / "sweep.json")
    assert document["y_axis"] == "sigma"
    assert len(document["boundary"]) == 11


@pytest.mark.parametrize("axis, name", [
    ("alphas: {start: 0.6, stop: 0.0, count: 7}", "alpha"),
    ("betas: [-0.1, -0.5, -0.3]", "beta")])
def test_sweep_axis_out_of_order_is_an_input_error(tmp_path, capsys, axis,
                                                   name):
    # a decreasing axis would write a regions.svg of negative height
    config = write_config(tmp_path, f"sweep:\n  {axis}\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(config),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {config}:2: sweep {name} axis needs at least 2 strictly "
        "increasing values\n")
    assert not out.exists()


ENUMERATE_SQUARE = """\
geography:
  resolution: [48, 48]
  sites:
    - {position: [0.25, 0.25]}
    - {position: [0.75, 0.25]}
    - {position: [0.25, 0.75]}
    - {position: [0.75, 0.75]}
  trade: {kind: from_metric, tau: 0.3}
params: {sigma: 5.0, alpha: 0.3, beta: -0.5, delta: 4.0}
enumerate:
  sizes: [2]
"""


def test_enumerate_outputs(tmp_path):
    config = write_config(tmp_path, ENUMERATE_SQUARE)
    out = tmp_path / "out"
    assert cli.main(["enumerate", "--config", str(config),
                     "--out", str(out)]) == 0
    document = read_json(out / "catalog.json")
    assert len(document["entries"]) >= 2
    assert document["strategy"] == "exhaustive"
    assert all(e["min_margin"] == "inf" for e in document["entries"])
    with open(out / "catalog.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(document["entries"])
    assert rows[0]["labor"].count(";") == 1


def test_enumerate_catalog_does_not_depend_on_threads(tmp_path):
    # 6 subsets; 8 threads start one worker per subset beyond the first
    config = write_config(tmp_path, ENUMERATE_SQUARE)
    outputs = {}
    for threads in ("1", "2", "0", "8"):
        out = tmp_path / f"out-{threads}"
        assert cli.main(["enumerate", "--config", str(config),
                         "--out", str(out), "--threads", threads]) == 0
        outputs[threads] = [(out / name).read_bytes()
                            for name in ("catalog.json", "catalog.csv")]
    assert all(o == outputs["1"] for o in outputs.values())
    assert multiprocessing.active_children() == []


def test_enumerate_resolves_zero_threads_to_the_usable_cpus(tmp_path,
                                                            monkeypatch):
    seen = []
    real = cli.enumerate_urban_systems

    def spy(*args, threads, **kwargs):
        seen.append(threads)
        return real(*args, threads=1, **kwargs)

    monkeypatch.setattr(cli, "enumerate_urban_systems", spy)
    config = write_config(tmp_path, ENUMERATE_SQUARE)
    for threads in ("3", "0"):
        assert cli.main(["enumerate", "--config", str(config), "--out",
                         str(tmp_path / "out"), "--threads", threads]) == 0
    assert seen == [3, len(os.sched_getaffinity(0))]


def test_enumerate_counts_the_cpus_where_affinity_is_unknown(tmp_path,
                                                             monkeypatch):
    # macOS has no os.sched_getaffinity
    seen = []
    real = cli.enumerate_urban_systems

    def spy(*args, threads, **kwargs):
        seen.append(threads)
        return real(*args, threads=1, **kwargs)

    monkeypatch.setattr(cli, "enumerate_urban_systems", spy)
    monkeypatch.delattr(os, "sched_getaffinity")
    config = write_config(tmp_path, ENUMERATE_SQUARE)
    for cpus in (3, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert cli.main(["enumerate", "--config", str(config), "--out",
                         str(tmp_path / "out")]) == 0
    assert seen == [3, 1]


def test_render_round_trips_solve_output(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(config),
                     "--out", str(out)]) == 0
    render = tmp_path / "render"
    assert cli.main(["render", "--input", str(out),
                     "--out", str(render)]) == 0
    root = ET.fromstring((render / "render.svg").read_text())
    tags = [el.tag.rsplit("}", 1)[-1] for el in root.iter()]
    assert tags.count("path") == 1 and tags.count("rect") > 2

    assert cli.main(["render", "--input", str(out / "tessellation.pgm"),
                     "--out", str(render), "--style", "boundaries"]) == 0
    ET.fromstring((render / "render.svg").read_text())

    assert cli.main(["render", "--input", str(tmp_path / "nope"),
                     "--out", str(render)]) == 1


@pytest.mark.parametrize("width", ["0", "-50"])
def test_render_width_below_one_is_a_usage_error(tmp_path, capsys, width):
    write_label_raster(tmp_path / "labels.pgm",
                       np.zeros((4, 4), dtype=np.int32), (0.0, 0.0, 1.0, 1.0))
    render = tmp_path / "render"
    assert cli.main(["render", "--input", str(tmp_path / "labels.pgm"),
                     "--out", str(render), "--width", width]) == 1
    assert f"--width must be >= 1, got {width}" in capsys.readouterr().err
    assert not (render / "render.svg").exists()


def test_enumerate_size_above_the_site_count_is_an_input_error(tmp_path,
                                                              capsys):
    config = write_config(tmp_path, MINIMAL + "enumerate:\n  sizes: [3]\n")
    assert cli.main(["enumerate", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == \
        "error: subset size 3 out of range 1..2\n"


@pytest.mark.parametrize("head, message", [
    (b"P2\n# bbox 0 0 1 1\n2 2\n255\n", "not a binary PGM (magic 'P2')"),
    (b"P5\n# bbox 0 0 1 1\n2x 2\n255\n", "malformed PGM header"),
    (b"P5\n# bbox 0 0 1 1\n2 \xe92\n255\n", "malformed PGM header"),
    (b"P5\n# bbox 0 0 1 1\n-2 -2\n255\n", "malformed PGM header"),
    (b"P5\n# bbox 0.0 zero 1.0 1.0\n2 2\n255\n",
     "bbox comment must hold 4 numbers"),
    (b"P5\n# bbox 0 0 0 1\n2 2\n255\n", "degenerate bbox (0.0, 0.0, 0.0, 1.0): "
                                       "must be finite with x0 < x1 and y0 < y1"),
], ids=["ascii", "size-2x", "non-ascii", "negative-size", "bbox-word",
        "flat-bbox"])
def test_render_of_an_ascii_pgm_is_an_input_error(tmp_path, capsys, head,
                                                  message):
    raster = tmp_path / "labels.pgm"
    raster.write_bytes(head + bytes(4))
    assert cli.main(["render", "--input", str(raster),
                     "--out", str(tmp_path / "render")]) == 1
    assert capsys.readouterr().err == f"error: {raster}: {message}\n"


def test_out_naming_an_existing_file_is_an_input_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["classify", "--config", str(write_config(tmp_path)),
                     "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {taken}: cannot create output directory: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("table", [
    "site_id,x,y\n0,0.5,0.5\n",                # no labor column
    "site_id,x,y,labor\n0,0.5,half,1.0\n",     # a non-number
    "site_id,x,y,labor\n0,0.5\n",              # a short row
])
def test_render_of_a_bad_sites_table_is_an_input_error(tmp_path, capsys,
                                                       table):
    write_label_raster(tmp_path / "tessellation.pgm",
                       np.zeros((4, 4), dtype=np.int32), (0.0, 0.0, 1.0, 1.0))
    (tmp_path / "sites.csv").write_text(table)
    assert cli.main(["render", "--input", str(tmp_path),
                     "--out", str(tmp_path / "render")]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'sites.csv'}: every row needs numeric x, y and "
        f"labor columns\n")


def test_solver_echo_has_the_solver_schema_keys(tmp_path):
    # the echo is exactly what a solve reads
    schema = yaml.safe_load(DEFAULT_BLOCKS["solver"][1])
    fields = {f.name for f in dataclasses.fields(SolverOptions)}
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(write_config(tmp_path)),
                     "--out", str(out)]) == 0
    echo = read_json(out / "solution.json")["solver"]
    assert set(echo) == set(schema) == fields - {"weights_init"}
    assert echo == schema


def test_render_takes_no_threads_flag(tmp_path, capsys):
    # only enumerate starts worker processes
    config = str(write_config(tmp_path))
    for command in ("solve", "classify", "sweep", "render"):
        source = ["--input", str(tmp_path)] if command == "render" \
            else ["--config", config]
        assert cli.main([command, *source, "--out", str(tmp_path / "out"),
                         "--threads", "2"]) == 1
        assert "unrecognized arguments: --threads 2" \
            in capsys.readouterr().err
    args = cli.build_parser().parse_args(
        ["enumerate", "--config", "run.yaml", "--threads", "2"])
    assert args.threads == 2
    args = cli.build_parser().parse_args(
        ["enumerate", "--config", "run.yaml"])
    assert args.threads == 0


def test_threads_flag_validation_and_echo(tmp_path, capsys):
    config = str(write_config(tmp_path))
    out = tmp_path / "out"
    assert cli.main(["enumerate", "--config", config, "--out", str(out),
                     "--threads", "2"]) == 0
    assert cli.main(["enumerate", "--config", config, "--out",
                     str(tmp_path / "bad"), "--threads", "-1"]) == 1
    assert capsys.readouterr().err == \
        "error: hinterland enumerate: --threads must be >= 0, got -1\n"
    # a solve reads no thread count, so its solver echo carries none
    assert cli.main(["solve", "--config", config, "--out", str(out)]) == 0
    assert "threads" not in read_json(out / "solution.json")["solver"]


def test_knife_edge_params_route_to_all_sites_solver(tmp_path):
    text = MINIMAL.replace("sigma: 9.0", "sigma: 5.0") \
                  .replace("alpha: 0.2", "alpha: 0.25") \
                  .replace("beta: -0.3", "beta: -0.5")
    config = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(config),
                     "--out", str(out)]) == 0
    document = read_json(out / "solution.json")
    assert document["site_ids"] == [0, 1]
    assert document["residuals"]["weights"] < 1e-8
    spread = abs(document["weights"][0] - document["weights"][1])
    assert spread < 1e-10   # symmetric pair, level-pinned weights


TWO_SECTOR = MINIMAL + ("  variant: {kind: two_sector, mu: 0.6, "
                        "beta_tilde: -0.4}\n")


@pytest.mark.parametrize("command, document", [("solve", "solution.json"),
                                               ("enumerate", "catalog.json")])
def test_two_sector_params_are_echoed_with_mu_and_beta_tilde(tmp_path, command,
                                                             document):
    out = tmp_path / "out"
    assert cli.main([command, "--config",
                     str(write_config(tmp_path, TWO_SECTOR)),
                     "--out", str(out)]) == 0
    assert read_json(out / document)["params"]["variant"] == {
        "kind": "two_sector", "mu": 0.6, "beta_tilde": -0.4}


def test_catalog_csv_lists_rejected_subsets(tmp_path):
    # at alpha 0.05 each site alone is unsustainable; the pair is sustainable
    text = MINIMAL.replace("alpha: 0.2", "alpha: 0.05") \
        + "enumerate:\n  sizes: [1, 2]\n"
    out = tmp_path / "out"
    config = write_config(tmp_path, text)
    assert cli.main(["enumerate", "--config", str(config), "--out", str(out),
                     "--threads", "1"]) == 0
    with open(out / "catalog.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["subset"], row["active_ids"], row["verdict"])
            for row in rows] == [("0;1", "0;1", "sustainable"),
                                 ("0", "", "unsustainable"),
                                 ("1", "", "unsustainable")]
    assert all(row[key] == "" for row in rows[1:]
               for key in ("min_margin", "welfare", "labor"))
    assert read_json(out / "catalog.json")["rejected"] == [
        {"subset": [0], "verdict": "unsustainable"},
        {"subset": [1], "verdict": "unsustainable"}]


def test_home_consumption_knife_edge_enumerate_rejects_an_invaded_system(
        tmp_path):
    # the vacant fourth site's margin reads the weight system's factor
    # (δ + τ)σ̃σ; read with δσ̃σ, subset 0;1;2 was listed as sustainable
    text = textwrap.dedent("""\
        geography:
          resolution: [64, 64]
          sites:
            - {position: [0.2, 0.3]}
            - {position: [0.8, 0.3], productivity: 1.05}
            - {position: [0.5, 0.8], productivity: 0.95}
            - {position: [0.5, 0.4], productivity: 0.5}
          trade: {kind: from_metric, tau: 0.5}
        params:
          sigma: 5.0
          alpha: 0.25
          beta: -0.5
          delta: 2.0
          tau: 0.3
          variant: {kind: home_consumption}
        enumerate:
          sizes: [3]
        """)
    out = tmp_path / "out"
    assert cli.main(["enumerate", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out), "--threads", "1"]) == 0
    catalog = read_json(out / "catalog.json")
    assert {"subset": [0, 1, 2], "verdict": "unsustainable"} in catalog["rejected"]


def test_render_of_a_directory_without_a_label_raster(tmp_path, capsys):
    render = tmp_path / "render"
    assert cli.main(["render", "--input", str(tmp_path),
                     "--out", str(render)]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'tessellation.pgm'}: label raster not found\n")
    assert not (render / "render.svg").exists()
