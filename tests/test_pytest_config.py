"""The suite's own pytest settings: warnings are errors, except the
DeprecationWarning libcst raises on import. Hypothesis imports libcst to
write the patch of a failing example, so that warning would otherwise end
the whole run with INTERNALERROR at the first failing ``@given`` test."""

from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_given_test_leaves_the_run_going(pytester):
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text())
    tests = pytester.mkdir("tests")
    (tests / "test_a.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n")
    (tests / "test_b.py").write_text("def test_runs_after():\n    pass\n")
    result = pytester.runpytest_subprocess()
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == pytest.ExitCode.TESTS_FAILED
