"""The package's import path stays free of SciPy (a cold-start cost), and
its source makes no BLAS or LAPACK call (a first one raises peak RSS)."""

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_import_loads_no_scipy_module():
    code = ("import hinterland.cli, hinterland.analysis, "
            "hinterland.sustainability, sys; "
            "print('\\n'.join(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == []


# np.linalg, np.dot, .dot(, the @ operator, matmul and einsum; a decorator's
# "@" starts its line, so only an "@" after an operand counts
BLAS_CALL = re.compile(r"np\.linalg|np\.dot\b|\.dot\(|matmul|einsum|[\w)\]]\s*@")


def test_package_source_makes_no_blas_or_lapack_call():
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted((SRC / "hinterland").glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if BLAS_CALL.search(line.split("#")[0])]
    assert hits == []
