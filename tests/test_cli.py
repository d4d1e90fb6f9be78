import contextlib
import dataclasses
import importlib.metadata
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dpl_heatlab as dh
from dpl_heatlab.cli import main
from helpers import fresh_python, tiny_scenario


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == dh.__version__


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(not _distribution_installed("dpl-heatlab"),
                    reason="the dpl-heatlab distribution is not installed "
                           "(pip install -e .); the console script comes "
                           "with the install")
def test_console_script_is_installed():
    proc = subprocess.run(["dpl-heatlab", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == dh.__version__
    (entry,) = [ep for ep in importlib.metadata.entry_points(
        group="console_scripts") if ep.name == "dpl-heatlab"]
    assert entry.value == "dpl_heatlab.__main__:main"


def test_field_run_writes_csv_plot_and_manifest(tmp_path):
    out = tmp_path / "run"
    rc = main(["field", "--scenario", "ct_alpha2_q1_T1", "--t", "0.0",
               "--modes", "4,4", "--grid", "5,4", "--threads", "3",
               "--out", str(out)])
    assert rc == 0
    header, data = read_csv(out / "field_t0.csv")
    assert header == "x,y,T"
    assert data.shape == (20, 3)
    s, _ = dh.load_bundled("ct_alpha2_q1_T1")
    assert (data[:, 2] == s.T0).all()   # nothing has been deposited yet
    assert (out / "plot_field_t0.py").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    for key in ("scenario", "subcommand", "out_dir", "threads",
                "timestamp", "tool_version", "times", "truncation", "grid"):
        assert key in manifest
    assert manifest["subcommand"] == "field"
    assert manifest["grid"] == [5, 4]
    assert manifest["truncation"] == [4, 4]
    assert manifest["threads"] == 3
    assert manifest["tool_version"] == dh.__version__


# Each subcommand, a small run of it, and whether it takes --t and --modes.
_MANIFEST_RUNS = {
    "field": (["--t", "1", "--t", "2", "--modes", "3,4", "--grid", "5,4"],
              True, True),
    "profile": (["--t", "1", "--modes", "3,4", "--y0", "0.5",
                 "--samples", "5"], True, True),
    "peak-sweep": (["--t", "2.5", "--truncations", "4", "--grid", "21,21"],
                   True, False),
    "oracle": (["--modes", "3,4", "--fdm-hx", "0.1", "--fdm-hy", "0.1",
                "--fdm-dt", "0.1", "--fdm-t-end", "0.5", "--fdm-sigma",
                "0.3"], False, True),
    "sweep": (["--t", "1", "--t", "2", "--modes", "3,4", "--samples", "5"],
              True, True),
}


@pytest.mark.parametrize("command", sorted(_MANIFEST_RUNS))
def test_manifest_records_times_and_truncation_of_their_flags(tmp_path,
                                                              command):
    # times exactly when the command takes --t, truncation exactly when it
    # takes --modes, each as the flags give it.
    argv, takes_t, takes_modes = _MANIFEST_RUNS[command]
    out = tmp_path / "o"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main([command, "--scenario", "ct_alpha2_q1_T1", *argv,
                   "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert ("times" in manifest) == takes_t
    assert ("truncation" in manifest) == takes_modes
    if takes_t:
        assert manifest["times"] == [float(v) for flag, v
                                     in zip(argv, argv[1:]) if flag == "--t"]
    if takes_modes:
        assert manifest["truncation"] == [3, 4]


def test_field_defaults_record_the_scenario_truncation_and_grid(tmp_path):
    out = tmp_path / "o"
    rc = main(["field", "--scenario", "ct_alpha2_q5_T1", "--t", "5",
               "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    s, _ = dh.load_bundled("ct_alpha2_q5_T1")
    assert manifest["truncation"] == list(dh.resolve_truncation(s)) == [40, 40]
    grid = dh.default_peak_grid(s)
    assert manifest["grid"] == [grid.nx, grid.ny] == [201, 201]


def test_field_runs_are_deterministic(tmp_path):
    args = ["field", "--scenario", "ct_alpha2_q1_T1", "--t", "2.5",
            "--modes", "6,6", "--grid", "7,5"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        outs.append((out / "field_t2.5.csv").read_bytes())
    assert outs[0] == outs[1]


def test_field_accepts_scenario_file(tmp_path):
    path = tmp_path / "case.cfg"
    dh.save_scenario(tiny_scenario(), path)
    rc = main(["field", "--scenario", str(path), "--t", "1.0",
               "--modes", "3,3", "--grid", "4,4",
               "--out", str(tmp_path / "o")])
    assert rc == 0


def test_unknown_scenario_exits_2(tmp_path, capsys):
    rc = main(["field", "--scenario", "no_such_case", "--t", "1.0",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_scenario_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    dh.save_scenario(tiny_scenario(), path)
    text = path.read_text().replace("tau_q = 1.0", "tau_q = -1.0")
    path.write_text(text)
    rc = main(["field", "--scenario", str(path), "--t", "1.0",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("traj,fragment", [
    (dh.Trajectory(kind="circle", A=0.25, B=0.25, w=1.0, cx=0.75, cy=0.5),
     "trajectory spans x in [0.5, 1.0], y in [0.25, 0.75]"),
    (dh.Trajectory(kind="spiral", A=0.25, B=0.25, w=1.0),
     "unknown trajectory kind 'spiral'"),
], ids=["touches-wall", "unknown-kind"])
def test_rejected_path_exits_2_before_any_output(tmp_path, capsys, traj,
                                                 fragment):
    path = tmp_path / "case.cfg"
    dh.save_scenario(tiny_scenario(trajectory=traj), path)
    out = tmp_path / "o"
    rc = main(["field", "--scenario", str(path), "--t", "1.0",
               "--out", str(out)])
    assert rc == 2
    assert f"error: {fragment}" in capsys.readouterr().err
    assert not out.exists()


def test_profile_line_requires_y0(tmp_path, capsys):
    rc = main(["profile", "--scenario", "lst_default", "--t", "1.0",
               "--kind", "line-y", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "--y0" in capsys.readouterr().err


def test_trajectory_profile_rejects_open_path(tmp_path, capsys):
    rc = main(["profile", "--scenario", "lst_default", "--t", "1.0",
               "--kind", "trajectory", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "closed" in capsys.readouterr().err


def test_profile_line_outputs(tmp_path):
    out = tmp_path / "o"
    rc = main(["profile", "--scenario", "ct_alpha2_q1_T1", "--t", "2.5",
               "--kind", "line-y", "--y0", "0.2", "--samples", "11",
               "--modes", "5,5", "--out", str(out)])
    assert rc == 0
    header, data = read_csv(out / "profile_line_y0.2_t2.5.csv")
    assert header == "param,value"
    assert data.shape == (11, 2)
    assert data[0, 0] == 0.0
    assert (out / "plot_profiles.py").exists()


def test_peak_sweep_outputs(tmp_path):
    out = tmp_path / "o"
    rc = main(["peak-sweep", "--scenario", "ct_alpha2_q1_T1", "--t", "2.5",
               "--truncations", "4,6x8", "--grid", "41,41",
               "--out", str(out)])
    assert rc == 0
    header, data = read_csv(out / "peak_sweep.csv")
    assert header == "M,N,x_peak,y_peak,T_peak,x_src,y_src,distance"
    assert data.shape == (2, 8)
    assert list(data[:, 0]) == [4.0, 6.0]
    assert list(data[:, 1]) == [4.0, 8.0]
    assert (out / "plot_peak_sweep.py").exists()


def test_empty_truncation_list_exits_2(tmp_path):
    rc = main(["peak-sweep", "--scenario", "ct_alpha2_q1_T1", "--t", "2.5",
               "--truncations", ",,", "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("flag,argv", [
    ("--truncations", ["peak-sweep", "--t", "5", "--truncations="]),
    ("--tau-q", ["sweep", "--t", "5", "--modes", "2,2", "--tau-q="]),
    ("--tau-T", ["sweep", "--t", "5", "--modes", "2,2", "--tau-T", " , "]),
    ("--w", ["sweep", "--t", "5", "--modes", "2,2", "--w=,"]),
], ids=["truncations", "tau-q", "tau-T", "w"])
def test_empty_list_flags_name_the_flag(tmp_path, capsys, flag, argv):
    out = tmp_path / "o"
    rc = main([argv[0], "--scenario", "ct_alpha2_q1_T1", *argv[1:],
               "--out", str(out)])
    assert rc == 2
    assert (f"error: {flag} must list at least one value"
            in capsys.readouterr().err)
    assert not out.exists()


def test_unstable_stepping_exits_3(tmp_path, monkeypatch, capsys):
    import dpl_heatlab.fdm as fdm_mod
    from dpl_heatlab.errors import UnstableConfig

    def explode(*args, **kwargs):
        raise UnstableConfig("synthetic instability")

    monkeypatch.setattr(fdm_mod, "_jury_scan", explode)
    out = tmp_path / "o"
    rc = main(["oracle", "--scenario", "ct_alpha2_q1_T1", "--out", str(out)])
    assert rc == 3
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_memory_exits_3_before_any_output(tmp_path, capsys):
    # t_end / dt steps need a time array of about 178 PiB, more than any
    # address space, so the allocation fails at once and takes no memory.
    out = tmp_path / "X"
    rc = main(["oracle", "--scenario", "ct_alpha2_q5_T1", "--modes", "8,8",
               "--fdm-dt", "1e-15", "--out", str(out)])
    assert rc == 3
    assert "error: out of memory" in capsys.readouterr().err
    assert not out.exists()


def test_peak_on_the_edge_exits_3_before_any_output(tmp_path, capsys):
    # At t = 0 nothing has been deposited, so the peak search fails.
    out = tmp_path / "o"
    rc = main(["peak-sweep", "--scenario", "lst_default", "--t", "0",
               "--truncations", "2", "--grid", "11,11", "--out", str(out)])
    assert rc == 3
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["field", "--t", "inf", "--modes", "2,2", "--grid", "3,3"],
    ["field", "--t", "nan", "--modes", "2,2", "--grid", "3,3"],
    ["oracle", "--fdm-t-end", "inf", "--modes", "2,2"],
    ["oracle", "--fdm-dt", "inf", "--modes", "2,2"],
], ids=["field-t-inf", "field-t-nan", "oracle-t-end-inf", "oracle-dt-inf"])
def test_non_finite_time_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    rc = main([argv[0], "--scenario", "ct_alpha2_q1_T1", *argv[1:],
               "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_time_exits_3(tmp_path, monkeypatch, capsys):
    from dpl_heatlab import series

    # --t 1e300 itself now has an exact answer (the periodic state); an
    # overflow inside the engine must still map to exit 3.
    def overflow(*args, **kwargs):
        raise OverflowError("synthetic overflow")

    monkeypatch.setattr(series, "_harmonic_coefficients", overflow)
    out = tmp_path / "o"
    rc = main(["field", "--scenario", "ct_alpha2_q1_T1", "--t", "1e300",
               "--modes", "3,3", "--grid", "5,5", "--out", str(out)])
    assert rc == 3
    assert "error: numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_mode_table_exits_3_before_any_output(tmp_path, capsys):
    # lst_q1_T1 at alpha = 1e200 used to write NaN at every sample and
    # exit 0; the lagged discriminant overflows, so the run fails instead.
    s, _ = dh.load_bundled("lst_q1_T1")
    path = tmp_path / "case.cfg"
    dh.save_scenario(dataclasses.replace(s, alpha=1e200), path)
    out = tmp_path / "o"
    rc = main(["profile", "--scenario", str(path), "--t", "25",
               "--modes", "6,6", "--kind", "line-y", "--y0", "0.2",
               "--samples", "5", "--out", str(out)])
    assert rc == 3
    assert "error: numerical failure: mode (1, 1)" in capsys.readouterr().err
    assert not out.exists()


def test_rate_without_a_finite_period_exits_2_before_any_output(tmp_path,
                                                                capsys):
    # traj.w = 1e-310 has the period inf: the run wrote NaN at all 25
    # nodes, the plate edges included, and exited 0.
    s, _ = dh.load_bundled("ct_alpha2_q5_T1")
    path = tmp_path / "case.cfg"
    dh.save_scenario(dataclasses.replace(
        s, trajectory=dataclasses.replace(s.trajectory, w=1e-310)), path)
    out = tmp_path / "o"
    rc = main(["field", "--scenario", str(path), "--t", "25",
               "--modes", "4,4", "--grid", "5,5", "--out", str(out)])
    assert rc == 2
    assert ("error: traj.w = 1e-310 has no finite period"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("name,w", [("lst_q1_T1", "1e305"),
                                    ("ct_alpha2_q5_T1", "1e304"),
                                    ("lst_q1_T1", "1e307")])
def test_overflowing_coefficients_exit_3_before_any_output(tmp_path, capsys,
                                                           name, w):
    # Past 1e304 (lst_q1_T1) and 1e303 (ct_alpha2_q5_T1) the harmonic sums
    # overflow and summary.csv would read nan; at 1e307 a bare "cannot
    # convert float infinity to integer" ended the run.
    out = tmp_path / "o"
    rc = main(["sweep", "--scenario", name, "--t", "25", "--modes", "6,6",
               "--samples", "8", "--w", w, "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error: numerical failure: " in err
    assert f"w = {float(w)!r}" in err and "t = 25.0" in err
    assert not out.exists()


def test_overflow_prints_only_the_error_line(tmp_path):
    # numpy's float warnings, each with its source line, came ahead of the
    # error; a fresh interpreter shows what reaches stderr.
    src = str(Path(dh.__file__).resolve().parents[1])
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "dpl_heatlab", "sweep", "--scenario",
         "lst_q1_T1", "--t", "25", "--modes", "6,6", "--samples", "8",
         "--w", "1e305", "--out", str(out)],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 3
    assert proc.stderr == ("error: numerical failure: coefficients at "
                           "w = 1e+305, t = 25.0 are not finite\n")
    assert not out.exists()


@pytest.mark.parametrize("name", ["lst_q1_T1", "ct_alpha2_q5_T1"])
def test_huge_rate_sweep_writes_finite_profiles(tmp_path, name):
    # At w = 1e300 the lagged coefficients are finite; the run used to
    # exit 3 on an overflow of the engine's scaling alone.
    out = tmp_path / "o"
    rc = main(["sweep", "--scenario", name, "--t", "25", "--modes", "6,6",
               "--samples", "8", "--w", "1e300", "--out", str(out)])
    assert rc == 0
    _header, summary = read_csv(out / "summary.csv")
    assert np.isfinite(summary).all()


def test_overflowing_temperatures_exit_3_before_any_output(tmp_path, capsys):
    # k = 1e-308 overflows the prefactor 4 alpha theta / (L H tau_q k):
    # the field was written as nan with exit 0.
    s, _ = dh.load_bundled("ct_alpha2_q5_T1")
    path = tmp_path / "case.cfg"
    dh.save_scenario(dataclasses.replace(s, k=1e-308), path)
    out = tmp_path / "o"
    rc = main(["field", "--scenario", str(path), "--t", "25",
               "--modes", "6,6", "--grid", "5,5", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == ("error: numerical failure: series "
                                       "temperatures are not finite\n")
    assert not out.exists()


def test_overflowing_fdm_scheme_exits_3_and_names_the_coefficient(tmp_path,
                                                                  capsys):
    # alpha = 1e-305 overflows tau_q / (alpha dt^2), which a smaller dt
    # only makes larger; the Jury scan reported a root-condition failure.
    s, block = dh.load_bundled("ct_alpha2_q5_T1")
    path = tmp_path / "case.cfg"
    dh.save_scenario(dataclasses.replace(s, alpha=1e-305), path, fdm=block)
    out = tmp_path / "o"
    rc = main(["oracle", "--scenario", str(path), "--modes", "4,4",
               "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: numerical failure: FDM scheme overflows at alpha=1e-305, "
        "dt=0.0125: tau_q / (alpha dt^2) is not finite\n")
    assert not out.exists()


def test_modes_with_one_item_exits_2_and_shows_the_form(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["field", "--scenario", "ct_alpha2_q1_T1", "--t", "5",
               "--modes", "3", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: --modes expects 'A,B', got '3'\n"
    assert not out.exists()


def test_huge_time_writes_the_periodic_state(tmp_path):
    s, _ = dh.load_bundled("ct_alpha2_q1_T1")
    period = 2.0 * math.pi / abs(s.trajectory.w)
    # 40 periods: the start-up transient has decayed below 1e-17
    times = ["1e20", repr(math.fmod(1e20, period) + 40 * period)]
    fields = []
    for t in times:
        out = tmp_path / t
        rc = main(["field", "--scenario", "ct_alpha2_q1_T1", "--t", t,
                   "--modes", "3,3", "--grid", "5,5", "--out", str(out)])
        assert rc == 0
        fields.append(read_csv(out / f"field_t{float(t):g}.csv")[1][:, 2])
    peak = np.abs(fields[1] - s.T0).max()
    assert peak > 1.0
    assert np.abs(fields[0] - fields[1]).max() <= 1e-12 * peak


@pytest.mark.parametrize("argv", [
    ["field", "--t", "5", "--modes", "6,6", "--grid", "0,3"],
    ["field", "--t", "5", "--modes", "6,6", "--grid", "3,-1"],
    ["peak-sweep", "--t", "5", "--truncations", "4", "--grid", "1,1"],
], ids=["field-0x3", "field-3x-1", "peak-sweep-1x1"])
def test_grid_below_two_samples_exits_2_before_any_output(tmp_path, capsys,
                                                          argv):
    out = tmp_path / "o"
    rc = main([argv[0], "--scenario", "ct_alpha2_q1_T1", *argv[1:],
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: grid needs at least 2 samples per axis" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["field", "--t", "5", "--modes", "0,3"],
    ["profile", "--t", "5", "--modes", "3,-1", "--y0", "0.5"],
    ["sweep", "--t", "5", "--modes", "0,2"],
    ["sweep", "--t", "5", "--modes", "2,2", "--tau-q", "1,abc"],
    ["oracle", "--modes", "0,4"],
    ["peak-sweep", "--t", "5", "--truncations", "4,0"],
    ["peak-sweep", "--t", "5", "--truncations", "4x0"],
    ["profile", "--t", "5", "--modes", "3,3", "--kind", "line-y"],
    ["profile", "--t", "5", "--modes", "3,3", "--y0", "5"],
    ["profile", "--t", "5", "--modes", "3,3", "--y0", "0.5", "--samples", "1"],
    ["profile", "--t", "5", "--modes", "3,3", "--kind", "trajectory",
     "--samples", "1"],
    ["profile", "--scenario", "lst_default", "--t", "5", "--modes", "3,3",
     "--kind", "trajectory"],
    ["profile", "--t", "5", "--modes", "3,3", "--kind", "trajectory",
     "--y0", "0.3"],
    ["sweep", "--t", "5", "--modes", "2,2", "--samples", "1"],
    ["sweep", "--scenario", "ct_default", "--t", "5", "--modes", "2,2",
     "--tau-q", "1,-1"],
    ["field", "--t", "5", "--t", "-1", "--modes", "4,4", "--grid", "5,5"],
    ["oracle", "--modes", "4,4", "--fdm-sigma", "0.001"],
    ["oracle", "--modes", "4,4", "--fdm-dt", "-1"],
    ["oracle", "--scenario", "bare.cfg", "--modes", "4,4", "--fdm-hx", "0.05",
     "--fdm-hy", "0.05", "--fdm-dt", "0.05", "--fdm-t-end", "1",
     "--fdm-store-every", "0"],
    ["field", "--t", "365.0001", "--t", "365.0002", "--modes", "3,3",
     "--grid", "3,3"],
    ["sweep", "--t", "2", "--modes", "2,2", "--samples", "4",
     "--tau-q", "1,1"],
    ["peak-sweep", "--t", "2.5", "--t", "5", "--truncations", "4",
     "--grid", "21,21"],
    ["oracle", "--scenario", "ct_alpha2_q5_T1", "--modes", "8,8",
     "--fdm-dt", "0.05", "--fdm-t-end", "1", "--fdm-hx", "-0.05",
     "--fdm-sigma", "1.0"],
    ["oracle", "--scenario", "ct_alpha2_q5_T1", "--modes", "8,8",
     "--fdm-dt", "0.05", "--fdm-t-end", "1", "--fdm-hx", "0",
     "--fdm-sigma", "1.0"],
    ["field", "--scenario", ".", "--t", "1"],
    ["peak-sweep", "--scenario", "lst_default", "--t", "27.5",
     "--truncations", "6,12", "--grid", "51,41", "--modes", "0,0"],
    ["sweep", "--scenario", "ct_alpha2_q5_T1", "--t", "25", "--modes", "8,8",
     "--samples", "24", "--tau-q="],
    ["sweep", "--scenario", "ct_alpha2_q5_T1", "--t", "25", "--modes", "8,8",
     "--samples", "24", "--tau-T="],
    ["sweep", "--scenario", "ct_alpha2_q5_T1", "--t", "25", "--modes", "8,8",
     "--samples", "24", "--w="],
    ["field", "--t", "5", "--modes", "3,"],
    ["field", "--t", "5", "--modes", "3,3", "--grid", "5,"],
    ["peak-sweep", "--t", "5", "--truncations", "10x"],
], ids=["field-modes-0x3", "profile-modes-3x-1", "sweep-modes-0x2",
        "sweep-tau-q-abc", "oracle-modes-0x4", "peak-sweep-0", "peak-sweep-4x0",
        "profile-line-y-without-y0", "profile-y0-off-plate",
        "profile-line-y-1-sample", "profile-trajectory-1-sample",
        "profile-trajectory-on-a-line", "profile-trajectory-with-y0",
        "sweep-1-sample",
        "sweep-negative-tau-q", "field-second-t-negative",
        "oracle-sigma-under-resolved", "oracle-negative-dt",
        "oracle-store-every-0-without-fdm-block", "field-times-share-a-name",
        "sweep-tau-q-repeated", "peak-sweep-second-t", "oracle-negative-hx",
        "oracle-zero-hx", "scenario-is-a-directory", "peak-sweep-modes",
        "sweep-tau-q-empty", "sweep-tau-T-empty", "sweep-w-empty",
        "field-modes-3x", "field-grid-5x", "peak-sweep-10x"])
def test_bad_flags_exit_2_before_any_output(tmp_path, monkeypatch, capsys,
                                            argv):
    # Without its own --scenario a case runs on ct_alpha2_q1_T1.
    if "--scenario" not in argv:
        argv = [argv[0], "--scenario", "ct_alpha2_q1_T1", *argv[1:]]
    if "bare.cfg" in argv:  # a scenario file saved without an fdm block
        monkeypatch.chdir(tmp_path)
        dh.save_scenario(tiny_scenario(), "bare.cfg")
    out = tmp_path / "o"
    rc = main([*argv, "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,flag,token,text", [
    (["field", "--t", "5", "--modes", "3,"], "--modes", "", "3,"),
    (["field", "--t", "5", "--modes", "3,3", "--grid", "5,"], "--grid", "",
     "5,"),
    (["peak-sweep", "--t", "5", "--truncations", "10x"], "--truncations",
     "10x", "10x"),
    (["sweep", "--t", "5", "--modes", "2,2", "--tau-q", "1,abc"], "--tau-q",
     "abc", "1,abc"),
], ids=["modes", "grid", "truncations", "tau-q"])
def test_malformed_numbers_name_the_flag_and_the_item(tmp_path, capsys, argv,
                                                      flag, token, text):
    out = tmp_path / "o"
    rc = main([argv[0], "--scenario", "ct_alpha2_q1_T1", *argv[1:],
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {flag} cannot read {token!r} in {text!r}" in err
    assert not out.exists()


def _count_series_calls(monkeypatch):
    """Count the oracle's matched-series solves."""
    import dpl_heatlab.fdm as fdm_mod

    real, calls = fdm_mod.project_gaussian_source_series, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fdm_mod, "project_gaussian_source_series", counted)
    return calls


@pytest.mark.parametrize("argv", [
    ["--scenario", "ct_alpha2_q5_T1", "--modes", "8,8", "--fdm-dt", "0.05",
     "--fdm-t-end", "1", "--fdm-hx", "0", "--fdm-sigma", "1.0"],
    ["--scenario", "ct_alpha2_q5_T1", "--modes", "8,8", "--fdm-dt", "0.05",
     "--fdm-t-end", "1", "--fdm-hx", "-0.05", "--fdm-sigma", "1.0"],
    ["--scenario", "ct_alpha2_q1_T1", "--modes", "4,4", "--fdm-dt", "-1"],
    ["--scenario", "ct_alpha2_q1_T1", "--modes", "4,4",
     "--fdm-sigma", "0.001"],
    ["--scenario", "ct_alpha2_q1_T1", "--modes", "4,4", "--fdm-sigma", "inf"],
    ["--scenario", "ct_alpha2_q1_T1", "--modes", "4,4", "--fdm-sigma", "nan"],
], ids=["oracle-zero-hx", "oracle-negative-hx", "oracle-negative-dt",
        "oracle-sigma-under-resolved", "oracle-sigma-inf", "oracle-sigma-nan"])
def test_oracle_checks_fdm_inputs_before_any_series_work(tmp_path, monkeypatch,
                                                         capsys, argv):
    calls = _count_series_calls(monkeypatch)
    out = tmp_path / "o"
    rc = main(["oracle", *argv, "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    assert calls == []


def test_oracle_jury_scan_failure_exits_3_before_any_series_work(
        tmp_path, monkeypatch, capsys):
    import dpl_heatlab.fdm as fdm_mod
    from dpl_heatlab.errors import UnstableConfig

    def explode(*args, **kwargs):
        raise UnstableConfig("synthetic instability")

    calls = _count_series_calls(monkeypatch)
    monkeypatch.setattr(fdm_mod, "_jury_scan", explode)
    out = tmp_path / "o"
    rc = main(["oracle", "--scenario", "ct_alpha2_q1_T1", "--modes", "4,4",
               "--out", str(out)])
    assert rc == 3
    assert "synthetic instability" in capsys.readouterr().err
    assert not out.exists()
    assert calls == []


def test_oracle_solves_the_matched_series_before_the_march(
        tmp_path, monkeypatch, capsys):
    # A march that fails at its first step finds the series already solved,
    # on the FDM grid at t_end; still nothing is written.
    import dpl_heatlab.fdm as fdm_mod

    calls = _count_series_calls(monkeypatch)
    monkeypatch.setattr(fdm_mod, "BLOWUP_SENTINEL", 1e-30)
    out = tmp_path / "o"
    rc = main(["oracle", "--scenario", "ct_alpha2_q1_T1", "--modes", "4,4",
               "--fdm-hx", "0.05", "--fdm-hy", "0.1", "--fdm-sigma", "0.3",
               "--out", str(out)])
    assert rc == 3
    assert "at step 1;" in capsys.readouterr().err
    assert not out.exists()
    [(_s, sigma, grid, t, *_modes)] = calls
    assert (sigma, grid, t) == (0.3, dh.GridSpec(21, 11), 25.0)


def test_name_clash_error_names_the_file(tmp_path, capsys):
    # 365.0001 and 365.0002 both format as 365 in a file name.
    rc = main(["field", "--scenario", "ct_alpha2_q1_T1", "--t", "365.0001",
               "--t", "365.0002", "--modes", "3,3", "--grid", "3,3",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "field_t365.csv" in capsys.readouterr().err


def test_huge_time_plot_script_marks_the_fmod_phase(tmp_path):
    # w t overflows at t = 1e308 with w = 2; the source is drawn where the
    # coefficients put it, at the phase w fmod(t, T).
    traj = dh.Trajectory(kind="circle", A=0.25, B=0.25, w=2.0)
    path = tmp_path / "case.cfg"
    dh.save_scenario(tiny_scenario(trajectory=traj), path)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["field", "--scenario", str(path), "--t", "1e308",
                   "--modes", "3,3", "--grid", "5,5", "--out", str(out)])
    assert rc == 0
    script = (out / "plot_field_t1e+308.py").read_text()
    compile(script, "plot.py", "exec")
    x_src, y_src = re.search(r'ax\.plot\(\[(.*)\], \[(.*)\], "wo"',
                             script).groups()
    phase = 2.0 * math.fmod(1e308, math.pi)
    assert math.isclose(float(x_src), 0.5 + 0.25 * math.cos(phase),
                        rel_tol=1e-12)
    assert math.isclose(float(y_src), 0.5 + 0.25 * math.sin(phase),
                        rel_tol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(t=st.floats(), modes=st.tuples(st.integers(-2, 6), st.integers(-2, 6)),
       grid=st.tuples(st.integers(-2, 6), st.integers(-2, 6)))
def test_field_inputs_give_a_code_or_finite_output(t, modes, grid):
    # Any time, truncation and grid either yields nx*ny finite CSV rows or
    # a documented failure code with an error line, never a traceback.
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        with contextlib.redirect_stderr(err):
            rc = main(["field", "--scenario", "ct_alpha2_q1_T1", f"--t={t!r}",
                       "--modes={},{}".format(*modes),
                       "--grid={},{}".format(*grid), "--out", str(out)])
        if rc == 0:
            _header, data = read_csv(out / f"field_t{t:g}.csv")
            assert data.shape == (grid[0] * grid[1], 3)
            assert np.isfinite(data).all()
        else:
            assert rc in (2, 3)
            assert "error:" in err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert not out.exists()


def _run_capturing_stderr(argv, out):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([*argv, "--out", str(out)])
    return rc, err.getvalue()


def _assert_code_and_no_output(rc, err, out):
    assert rc in (2, 3)
    assert "error:" in err
    assert "Traceback" not in err
    assert not out.exists()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(t=st.one_of(st.floats(0.5, 400.0), st.floats()),
       modes=st.tuples(st.integers(0, 6), st.integers(1, 6)),
       kind=st.sampled_from(["line-y", "trajectory"]),
       y0=st.one_of(st.none(), st.floats(0.0, 1.0), st.floats()),
       samples=st.integers(1, 8))
def test_profile_inputs_give_a_code_or_finite_output(t, modes, kind, y0,
                                                     samples):
    # Any time, truncation, cut and sample count either yields one finite
    # CSV row per sample or a documented failure code with no output.
    argv = ["profile", "--scenario", "ct_alpha2_q1_T1", f"--t={t!r}",
            "--modes={},{}".format(*modes), "--kind", kind,
            f"--samples={samples}"]
    if y0 is not None:
        argv.append(f"--y0={y0!r}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        rc, err = _run_capturing_stderr(argv, out)
        if rc == 0:
            name = (f"profile_line_y{y0:g}_t{t:g}.csv" if kind == "line-y"
                    else f"profile_trajectory_t{t:g}.csv")
            _header, data = read_csv(out / name)
            assert data.shape == (samples, 2)
            assert np.isfinite(data).all()
        else:
            _assert_code_and_no_output(rc, err, out)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(times=st.lists(st.one_of(st.floats(0.5, 400.0), st.floats()),
                     min_size=1, max_size=2),
       truncations=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 6)),
                            min_size=1, max_size=3),
       grid=st.tuples(st.integers(1, 12), st.integers(2, 12)))
def test_peak_sweep_inputs_give_a_code_or_finite_output(times, truncations,
                                                        grid):
    # Any times, truncation list and grid either yields one finite CSV row
    # per truncation or a documented failure code with no output.
    argv = ["peak-sweep", "--scenario", "ct_alpha2_q1_T1",
            *(f"--t={t!r}" for t in times),
            "--truncations=" + ",".join(f"{m}x{n}" for m, n in truncations),
            "--grid={},{}".format(*grid)]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        rc, err = _run_capturing_stderr(argv, out)
        if rc == 0:
            _header, data = read_csv(out / "peak_sweep.csv")
            assert data.shape == (len(truncations), 8)
            assert np.isfinite(data).all()
        else:
            _assert_code_and_no_output(rc, err, out)


_SWEEP_TOKEN = st.one_of(
    st.floats(0.0, 4.0).map(repr),
    st.floats().map(repr),
    st.floats(0.0, 1.0).map(lambda x: f"{x!r}pi"),
    st.sampled_from(["pi", "-0.2pi", "0", "-1", "1e400", "abc", ""]))
_SWEEP_LIST = st.one_of(st.none(),
                        st.lists(_SWEEP_TOKEN, min_size=1, max_size=2)
                        .map(",".join))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(["ct_alpha2_q1_T1", "lst_q1_T1"]),
       times=st.lists(st.one_of(st.floats(0.5, 400.0), st.floats()),
                      min_size=1, max_size=2),
       modes=st.tuples(st.integers(0, 5), st.integers(1, 5)),
       lists=st.tuples(_SWEEP_LIST, _SWEEP_LIST, _SWEEP_LIST),
       samples=st.integers(-1, 6))
def test_sweep_inputs_give_a_code_or_finite_output(name, times, modes, lists,
                                                   samples):
    # Any lag and rate lists, times, truncation and sample count on a
    # closed path or a line either yields one finite profile per
    # (tau_q, tau_T, w, t) and a finite summary row for each, or a
    # documented failure code with no output.
    argv = ["sweep", "--scenario", name, *(f"--t={t!r}" for t in times),
            "--modes={},{}".format(*modes), f"--samples={samples}"]
    argv += [f"{flag}={text}" for flag, text
             in zip(("--tau-q", "--tau-T", "--w"), lists) if text is not None]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        rc, err = _run_capturing_stderr(argv, out)
        if rc == 0:
            header, summary = read_csv(out / "summary.csv")
            assert header == "tau_q,tau_T,w,t,peak"
            assert np.isfinite(summary).all()
            profiles = sorted(out.glob("sweep_*.csv"))
            assert len(profiles) == len(summary)
            assert len(summary) % len(times) == 0
            for path in profiles:
                _header, data = read_csv(path)
                assert data.shape == (samples, 2)
                assert np.isfinite(data).all()
        else:
            _assert_code_and_no_output(rc, err, out)


def test_cli_import_loads_no_scipy():
    code = ("import sys, dpl_heatlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert fresh_python(code).strip() == "[]"
    assert callable(dh.solve_fdm)


def test_fdm_import_loads_no_scipy_sparse():
    code = ("import sys, dpl_heatlab.fdm; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.sparse')))")
    assert fresh_python(code).strip() == "[]"


def test_oracle_run_loads_no_scipy(tmp_path):
    # The Faddeeva function of the Gaussian projection is numpy-only, so an
    # oracle run (FDM and matched series) at the benchmark smoke size
    # imports no scipy module at all.
    code = (
        "import sys, dpl_heatlab.fdm\n"
        "from dpl_heatlab.cli import main\n"
        "rc = main(['oracle', '--scenario', 'ct_alpha2_q5_T1',"
        " '--modes', '8,8', '--fdm-hx', '0.05', '--fdm-hy', '0.05',"
        " '--fdm-dt', '0.05', '--fdm-sigma', '0.1', '--fdm-t-end', '5',"
        " '--fdm-store-every', '40', '--out', sys.argv[1]])\n"
        "print(rc, sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy'))\n")
    out = tmp_path / "o"
    assert fresh_python(code, str(out)).strip().splitlines()[-1] == "0 []"
    assert (out / "series_t5.csv").is_file()


@pytest.mark.parametrize("override", [["--w", "inf"], ["--tau-q", "nan"]],
                         ids=["w-inf", "tau-q-nan"])
def test_non_finite_sweep_parameter_exits_2(tmp_path, capsys, override):
    rc = main(["sweep", "--scenario", "ct_alpha2_q1_T1", "--t", "1",
               *override, "--modes", "2,2", "--samples", "4",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "must be finite" in err


def test_unwritable_out_dir_exits_4(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("occupied")
    rc = main(["field", "--scenario", "ct_alpha2_q1_T1", "--t", "0.0",
               "--modes", "3,3", "--grid", "3,3",
               "--out", str(blocker / "sub")])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def test_oracle_uses_embedded_fdm_block(tmp_path, capsys):
    path = tmp_path / "case.cfg"
    cfg = dh.FdmConfig(hx=0.05, hy=0.05, dt=0.05, t_end=1.0)
    dh.save_scenario(tiny_scenario(), path, fdm=cfg)
    out = tmp_path / "o"
    rc = main(["oracle", "--scenario", str(path), "--modes", "8,8",
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"rms_abs", "rms_rel", "max_abs", "max_signal"}
    assert (out / "fdm_t0.csv").exists()
    assert (out / "fdm_t1.csv").exists()
    assert (out / "series_t1.csv").exists()
    assert "rms_rel=" in capsys.readouterr().out


def test_oracle_requires_fdm_parameters(tmp_path, capsys):
    path = tmp_path / "bare.cfg"
    dh.save_scenario(tiny_scenario(), path)
    rc = main(["oracle", "--scenario", str(path),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "fdm" in capsys.readouterr().err


_FDM_FLAG_VALUES = {"hx": [0.05, 0.1], "hy": [0.05, 0.1], "dt": [0.05, 0.1],
                    "t_end": [0.5, 1.0], "sigma": [0.3, 0.4],
                    "store_every": [1, 3]}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(flags=st.fixed_dictionaries({}, optional={
    name: st.sampled_from(values) for name, values in _FDM_FLAG_VALUES.items()}))
def test_oracle_flags_override_the_fdm_block_field_by_field(flags):
    # Each --fdm-* flag replaces its field of the file's fdm block and
    # leaves the others as the file states them.
    block = dh.FdmConfig(hx=0.1, hy=0.1, dt=0.1, t_end=0.5, sigma=0.3,
                         store_every=2)
    assert set(_FDM_FLAG_VALUES) == {f.name for f in dataclasses.fields(block)}
    expected = dataclasses.replace(block, **flags)
    argv = [f"--fdm-{name.replace('_', '-')}={value!r}"
            for name, value in flags.items()]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "case.cfg", Path(tmp) / "o"
        dh.save_scenario(tiny_scenario(), path, fdm=block)
        with contextlib.redirect_stdout(io.StringIO()):
            rc, err = _run_capturing_stderr(
                ["oracle", "--scenario", str(path), "--modes", "4,4", *argv],
                out)
        assert rc == 0, err
        manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["fdm"] == dataclasses.asdict(expected)


_FDM_VALID = {"hx": st.floats(0.025, 0.1), "hy": st.floats(0.025, 0.1),
              "dt": st.floats(0.025, 0.5), "t_end": st.floats(0.05, 5.0),
              "sigma": st.floats(0.05, 0.6), "store_every": st.integers(1, 60)}
_FDM_BAD = [math.nan, math.inf, -math.inf, 0.0, -0.05]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(flags=st.fixed_dictionaries(_FDM_VALID),
       bad=st.one_of(st.none(), st.tuples(st.sampled_from(sorted(_FDM_VALID)),
                                          st.sampled_from(_FDM_BAD))))
def test_oracle_numeric_flags_give_a_code_or_finite_output(flags, bad):
    # Valid values, or one flag non-finite, zero or negative, either yield
    # finite CSVs and report or a documented failure code with no output.
    # The valid ranges keep a run at most 41 x 41 nodes and 200 steps.
    if bad is not None:
        name, value = bad
        flags = dict(flags, **{name: int(value) if name == "store_every"
                               and math.isfinite(value) else value})
    argv = ["oracle", "--scenario", "ct_alpha2_q5_T1", "--modes", "4,4",
            *(f"--fdm-{name.replace('_', '-')}={value!r}"
              for name, value in flags.items())]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        with contextlib.redirect_stdout(io.StringIO()):
            rc, err = _run_capturing_stderr(argv, out)
        if rc == 0:
            csvs = sorted(out.glob("*.csv"))
            assert len(csvs) >= 3   # t = 0, t_end and the matched series
            for path in csvs:
                assert np.isfinite(read_csv(path)[1]).all()
            report = json.loads((out / "report.json").read_text())
            assert all(math.isfinite(v) for v in report.values())
        else:
            _assert_code_and_no_output(rc, err, out)


def test_negative_threads_exit_2_before_any_output(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["oracle", "--scenario", "ct_alpha2_q1_T1", "--threads", "-1",
               "--out", str(out)])
    assert rc == 2
    assert "error: thread count must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_smoke_run_agrees_with_series(tmp_path):
    out = tmp_path / "o"
    rc = main(["oracle", "--scenario", "ct_alpha2_q1_T1",
               "--fdm-hx", "0.025", "--fdm-hy", "0.025",
               "--fdm-dt", "0.025", "--fdm-t-end", "5.0",
               "--fdm-sigma", "0.075",
               "--modes", "24,24", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rms_rel"] < 0.05


def test_sweep_grid_and_pi_suffix(tmp_path):
    out = tmp_path / "o"
    rc = main(["sweep", "--scenario", "ct_alpha2_q1_T1", "--t", "2.5",
               "--tau-q", "1,5", "--w", "0.1pi", "--samples", "24",
               "--modes", "5,5", "--out", str(out)])
    assert rc == 0
    header, data = read_csv(out / "summary.csv")
    assert header == "tau_q,tau_T,w,t,peak"
    assert data.shape == (2, 5)
    assert list(data[:, 0]) == [1.0, 5.0]
    assert data[0, 2] == pytest.approx(0.1 * math.pi, rel=0, abs=0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["w"] == [0.1 * math.pi]
    assert (out / "sweep_q1_T1_w0.314159_t2.5.csv").exists()


@pytest.mark.parametrize("flag,expected", [
    ("--w=0.1pi,-pi", [0.1, -1.0]), ("--w=-pi", [-1.0]),
    ("--w=+pi", [1.0]), ("--w=pi,-1pi", [1.0, -1.0])],
    ids=["list", "minus", "plus", "bare-and-one"])
def test_sweep_reads_a_bare_signed_pi(tmp_path, flag, expected):
    # '-pi' and '+pi' exited 2 ("cannot read '-pi'") while '-1pi' was read.
    # A lone '--w -pi' is taken by argparse for an option, hence '--w='.
    out = tmp_path / "o"
    rc = main(["sweep", "--scenario", "ct_alpha2_q5_T1", "--t", "25",
               "--modes", "4,4", "--samples", "8", flag, "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["w"] == [c * math.pi for c in expected]
    assert len(list(out.glob("sweep_*.csv"))) == len(expected)
