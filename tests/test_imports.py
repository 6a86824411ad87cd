"""The package's import path stays free of SciPy (a cold-start cost) and of
multiprocessing (loaded only when enumerate starts workers), its source
makes no BLAS or LAPACK call (a first one raises peak RSS, and a forked
worker must not touch OpenBLAS's threads) and raises no bare ValueError (a
deliberate input check raises InvalidInput, which the CLI reports, and every
input-check error derives from it), it
carries no public name or import that nothing uses, and a forked enumerate
prints what the parent prints, once."""

import ast
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


def test_package_source_raises_no_bare_value_error():
    assert _source_lines_matching(re.compile(r"raise ValueError\b")) == []


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


def test_forked_enumerate_prints_once_and_writes_the_serial_catalog(
        tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(ENUMERATE_CONFIG)
    # buffered standard streams, so that a fork could copy unwritten output
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    catalogs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"out-{threads}"
        result = subprocess.run(
            [sys.executable, "-m", "hinterland.cli", "enumerate", "--config",
             str(config), "--out", str(out), "--threads", threads,
             "--verbose"], env=env, capture_output=True, text=True,
            timeout=60)
        assert result.returncode == 0, result.stderr
        assert (result.stdout + result.stderr).count("catalog:") == 1
        catalogs[threads] = [(out / name).read_bytes()
                             for name in ("catalog.json", "catalog.csv")]
    assert catalogs["2"] == catalogs["1"]
