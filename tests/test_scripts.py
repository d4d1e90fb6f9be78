"""The study scripts run end to end at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpl_heatlab as dh

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,args,ncsv", [
    ("run_classical_study.py", ["--truncations", "6,10"], 4),
    ("run_phase_lag_study.py", ["--modes", "6", "--samples", "24"], 7),
    ("run_velocity_study.py", ["--modes", "6", "--samples", "24"], 6),
])
def test_study_script_runs(tmp_path, script, args, ncsv):
    src = str(Path(dh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(list(out.glob("*.csv"))) == ncsv
