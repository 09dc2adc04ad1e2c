"""The narrative demos run to completion."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = ["01_state_spaces.py", "02_symmetry_self_duality.py", "03_ideal_measurements.py",
         "04_uncertainty_measures.py", "05_incompatibility.py", "06_theorem_checks.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    # run a copy, so that files a demo writes next to itself land in tmp_path
    script = shutil.copy(ROOT / "demos" / name, tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
