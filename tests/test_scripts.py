"""The README studies run end to end at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpl_heatlab as dh
from dpl_heatlab.analysis import trajectory_profile, write_profile_csv
from dpl_heatlab.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,args,ncsv", [
    ("run_classical_study.py", ["--truncations", "6,10"], 4),
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


# The lag and velocity studies: one sweep flag over a bundled scenario,
# and the bundled scenarios that differ from it in that value alone.
@pytest.mark.parametrize("scenario,t,flag,ladder", [
    ("ct_alpha2_q1_T1", "25", ["--tau-T", "1,2,5,10"],
     ("ct_alpha2_q1_T1", "ct_alpha2_q1_T2", "ct_alpha2_q1_T5",
      "ct_alpha2_q1_T10")),
    ("ct_alpha2_q1_T1", "25", ["--tau-q", "1,2,5,10"],
     ("ct_alpha2_q1_T1", "ct_alpha2_q2_T1", "ct_alpha2_q5_T1",
      "ct_alpha2_q10_T1")),
    ("ct_alpha2_q1_T5", "70", ["--w", "0.1pi,0.2pi,0.4pi"],
     ("ct_alpha2_q1_T5_w01pi", "ct_alpha2_q1_T5", "ct_alpha2_q1_T5_w04pi")),
    ("ct_alpha2_q5_T1", "70", ["--w", "0.1pi,0.2pi,0.4pi"],
     ("ct_alpha2_q5_T1_w01pi", "ct_alpha2_q5_T1", "ct_alpha2_q5_T1_w04pi")),
], ids=["tau-T", "tau-q", "w-q1-T5", "w-q5-T1"])
def test_sweep_profiles_match_the_bundled_ladder(tmp_path, scenario, t, flag,
                                                 ladder):
    # Each profile of the sweep is byte for byte the trajectory profile of
    # the bundled scenario with the same lags and rate.
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", scenario, "--t", t, *flag,
                 "--modes", "8,8", "--samples", "24", "--out", str(out)]) == 0
    assert len(list(out.glob("sweep_*.csv"))) == len(ladder)
    for name in ladder:
        s, _ = dh.load_bundled(name)
        expected = tmp_path / f"{name}.csv"
        write_profile_csv(trajectory_profile(s, float(t), 8, 8, 24), expected)
        swept = (out / f"sweep_q{s.tau_q:g}_T{s.tau_T:g}"
                 f"_w{s.trajectory.w:g}_t{t}.csv")
        assert swept.read_bytes() == expected.read_bytes(), name
