"""The narrative demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 05_incompatibility.py is left out: it takes about 13 s and writes
# demos/incompatibility_vs_n.csv into the source tree.
DEMOS = ["01_state_spaces.py", "02_symmetry_self_duality.py", "03_ideal_measurements.py",
         "04_uncertainty_measures.py", "06_theorem_checks.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
