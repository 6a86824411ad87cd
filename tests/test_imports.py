"""The package's import path stays free of SciPy (a cold-start cost)."""

import os
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
