"""Each demo script runs to completion against the sources under ``src``.

Demos with a file under ``demo_output`` must print exactly that file's bytes.
Demo 05 has none: it prints the path of a fresh temporary directory.  Each
demo runs with ``TMPDIR`` set to the test's own directory, which must be
empty when the demo exits: demo 05 removes its temporary directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "demo_output"
DEMOS = ["01_constraints_and_feasibility.py", "02_star_oracles_and_greedy.py",
         "03_uniform_exact_and_ptas.py", "04_reductions_and_oracle.py",
         "05_bench_workflow.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH="src", TMPDIR=str(tmp_path))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                            env=env, capture_output=True, timeout=300)
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert not any(tmp_path.iterdir())
    golden = GOLDEN / f"{Path(demo).stem}.txt"
    if golden.exists():
        assert result.stdout == golden.read_bytes()
