"""The package's import path stays free of SciPy (a cold-start cost) and of
multiprocessing (loaded only when enumerate starts workers), its source
makes no BLAS or LAPACK call (a first one raises peak RSS, and a forked
worker must not touch OpenBLAS's threads), raises no bare ValueError (a
deliberate input check raises InvalidInput, which the CLI reports, and every
input-check error derives from it) and makes no read-only array writable, it
forms the weight system's factor s·γ1 only in ``composite_params``, it
carries no public name or import that nothing uses, and a forked enumerate
prints what the parent prints, once."""

import ast
import csv
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

from hinterland import errors

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def test_package_import_loads_no_scipy_module():
    code = ("import hinterland.cli, hinterland.analysis, "
            "hinterland.sustainability, sys; "
            "print('\\n'.join(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'multiprocessing'))))")
    result = subprocess.run([sys.executable, "-c", code], env=ENV,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == []


# np.linalg, np.dot, .dot(, np.inner, tensordot, the @ operator, matmul and
# einsum; a decorator's "@" starts its line, so only an "@" after an operand
# counts
BLAS_CALL = re.compile(
    r"np\.linalg|np\.dot\b|\.dot\(|np\.inner\b|tensordot|matmul|einsum|[\w)\]]\s*@")


def _source_lines_matching(pattern):
    """``file:line: code`` of every package source line whose code (not
    its comment) matches ``pattern``."""
    return [f"{path.name}:{number}: {line.strip()}"
            for path in sorted((SRC / "hinterland").glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line.split("#")[0])]


def test_package_source_makes_no_blas_or_lapack_call():
    assert _source_lines_matching(BLAS_CALL) == []


# a product with γ1, such as weight_scale·γ1 or weight_scale·|γ1|, or of δ
# and σ̃: the factor λ̃ = weight_factor·λ re-derived by hand
WEIGHT_FACTOR = re.compile(
    r"\*\s*(abs\()?(\w+\.)?gamma1\b|\bgamma1\s*\*"
    r"|\bdelta\s*\*\s*(\w+\.)?sigma_tilde\b|\bsigma_tilde\s*\*\s*(\w+\.)?delta\b")


def test_only_composite_params_forms_the_weight_factor():
    # every conversion between λ̃ and λ, and every knife-edge margin, reads
    # CompositeParams.weight_factor; re-deriving it is how a margin once
    # took δσ̃σ, the factor of the baseline variant only
    path = SRC / "hinterland" / "equilibrium.py"
    [owner] = [node for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef)
               and node.name == "composite_params"]
    inside = {f"{path.name}:{number}:" for number in
              range(owner.lineno, owner.end_lineno + 1)}
    assert [line for line in _source_lines_matching(WEIGHT_FACTOR)
            if line.split(" ")[0] not in inside] == []


def test_package_source_raises_no_bare_value_error():
    assert _source_lines_matching(re.compile(r"raise ValueError\b")) == []


def test_package_source_makes_no_array_writable_again():
    # a raster handed out read-only, such as a tessellation's labels, stays
    # as it was built; write is also setflags' first positional argument
    writable = re.compile(r"setflags\(\s*(write\s*=\s*)?True")
    assert _source_lines_matching(writable) == []


def test_every_input_check_error_is_an_invalid_input():
    # only a solver failure, an inactive cell in a kernel sum and a config
    # error are not input checks
    not_input = {"HinterlandError", "InvalidInput", "EmptyCellInSum",
                 "NotConverged", "LeftFeasibleSet", "ConfigError"}
    outside = [name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.HinterlandError)
               and name not in not_input and not issubclass(cls, errors.InvalidInput)]
    assert outside == []


def _names(tree):
    """Names the code reads: Name ids and attribute names, not strings."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_definition_and_import_has_a_use():
    package = {path.name: ast.parse(path.read_text())
               for path in sorted((SRC / "hinterland").glob("*.py"))}
    bench = [ast.parse(path.read_text())
             for path in sorted((SRC.parent / "bench").glob("*.py"))]
    tour = (SRC.parent / "README.md").read_text() \
        .split("## Library tour")[1].split("\n\n")[1]
    used = set().union(*map(_names, [*package.values(), *bench]),
                       re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", tour))))
    unused = [f"{name}: {node.name}" for name, tree in package.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    for name, tree in package.items():
        exported = set().union(*(ast.literal_eval(node.value) for node in tree.body
                                 if isinstance(node, ast.Assign)
                                 and [getattr(t, "id", None) for t in node.targets]
                                 == ["__all__"]))
        unused += [f"{name}: import {alias.asname or alias.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name.split(".")[0])
                   not in _names(tree) | exported]
    assert unused == []


ENUMERATE_CONFIG = """\
geography:
  resolution: [32, 32]
  sites:
    - {position: [0.2, 0.3]}
    - {position: [0.8, 0.3]}
    - {position: [0.5, 0.8]}
  trade: {kind: from_metric, tau: 0.5}
params: {sigma: 5.0, alpha: 0.1, beta: -0.5, delta: 2.0}
enumerate:
  sizes: [1, 2, 3]
"""


# the same sites plus a low-productivity fourth at the knife edge, where the
# enumerate's sustainability check weighs each vacant site against its host:
# subset 0;1;2 is sustainable with a finite margin
KNIFE_EDGE_ENUMERATE_CONFIG = ENUMERATE_CONFIG.replace(
    "    - {position: [0.5, 0.8]}\n",
    "    - {position: [0.5, 0.8]}\n"
    "    - {position: [0.5, 0.4], productivity: 0.3}\n").replace(
    "alpha: 0.1,", "alpha: 0.25,")


def test_forked_enumerate_prints_once_and_writes_the_serial_catalog(
        tmp_path):
    # buffered standard streams, so that a fork could copy unwritten output
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    for name, text in (("weak", ENUMERATE_CONFIG),
                       ("knife_edge", KNIFE_EDGE_ENUMERATE_CONFIG)):
        config = tmp_path / f"{name}.yaml"
        config.write_text(text)
        catalogs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-{threads}"
            result = subprocess.run(
                [sys.executable, "-m", "hinterland.cli", "enumerate", "--config",
                 str(config), "--out", str(out), "--threads", threads,
                 "--verbose"], env=env, capture_output=True, text=True,
                timeout=60)
            assert result.returncode == 0, result.stderr
            assert (result.stdout + result.stderr).count("catalog:") == 1
            catalogs[threads] = [(out / file).read_bytes()
                                 for file in ("catalog.json", "catalog.csv")]
        assert catalogs["2"] == catalogs["1"]
        if name == "knife_edge":
            rows = csv.DictReader(io.StringIO(catalogs["1"][1].decode()))
            [row] = [row for row in rows if row["verdict"] == "sustainable"]
            assert row["subset"] == "0;1;2"
            assert 0 < float(row["min_margin"]) < math.inf
