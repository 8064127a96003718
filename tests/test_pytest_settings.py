"""The test settings in pyproject.toml report a failing test as a failure.

Warnings are errors there.  A failing hypothesis test makes hypothesis's
pytest plugin import modules that warn as they load; unless that warning is
ignored, the session ends in an internal error (exit 3) that names no test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers(0, 3))
def test_fails(x):
    assert x < 0
"""


def test_a_failing_hypothesis_test_is_reported_as_failed(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "FAILED test_failing.py::test_fails - assert 0 < 0" in run.stdout
