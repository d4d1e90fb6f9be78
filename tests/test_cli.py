import contextlib
import importlib.metadata
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dpl_heatlab as dh
from dpl_heatlab import cli
from dpl_heatlab.cli import main
from helpers import custom_path_scenario, tiny_scenario


def load_custom_path(monkeypatch):
    """Make every ``--scenario`` load ct_alpha2_q1_T1 on a custom path.

    Config files cannot describe custom paths, and only custom paths take
    the adaptive quadrature that the tolerance flags control.
    """
    custom = custom_path_scenario(dh.load_bundled("ct_alpha2_q1_T1")[0])
    monkeypatch.setattr(cli, "_load_scenario_arg", lambda _arg: (custom, None))


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


def test_field_run_writes_csv_plot_and_manifest(tmp_path):
    out = tmp_path / "run"
    rc = main(["field", "--scenario", "ct_alpha2_q1_T1", "--t", "0.0",
               "--modes", "4,4", "--grid", "5,4", "--out", str(out)])
    assert rc == 0
    header, data = read_csv(out / "field_t0.csv")
    assert header == "x,y,T"
    assert data.shape == (20, 3)
    s, _ = dh.load_bundled("ct_alpha2_q1_T1")
    assert (data[:, 2] == s.T0).all()   # nothing has been deposited yet
    assert (out / "plot_field_t0.py").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    for key in ("scenario", "subcommand", "out_dir", "quadrature", "threads",
                "timestamp", "tool_version", "times", "truncation", "grid"):
        assert key in manifest
    assert manifest["subcommand"] == "field"
    assert manifest["grid"] == [5, 4]
    assert manifest["truncation"] == [4, 4]
    assert manifest["tool_version"] == dh.__version__


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


def test_quadrature_failure_exits_3(tmp_path, monkeypatch, capsys):
    load_custom_path(monkeypatch)
    rc = main(["field", "--scenario", "ct_alpha2_q1_T1", "--t", "2.5",
               "--modes", "4,4", "--grid", "3,3",
               "--quad-abs", "1e-300", "--quad-rel", "1e-300",
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_unstable_stepping_exits_3(tmp_path, monkeypatch, capsys):
    import dpl_heatlab.fdm as fdm_mod
    from dpl_heatlab.errors import UnstableConfig

    def explode(*args, **kwargs):
        raise UnstableConfig("synthetic instability")

    monkeypatch.setattr(fdm_mod, "_jury_scan", explode)
    rc = main(["oracle", "--scenario", "ct_alpha2_q1_T1",
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["field", "--t", "inf", "--modes", "2,2", "--grid", "3,3"],
    ["field", "--t", "nan", "--modes", "2,2", "--grid", "3,3"],
    ["oracle", "--fdm-t-end", "inf", "--modes", "2,2"],
    ["oracle", "--fdm-dt", "inf", "--modes", "2,2"],
], ids=["field-t-inf", "field-t-nan", "oracle-t-end-inf", "oracle-dt-inf"])
def test_non_finite_time_exits_2(tmp_path, capsys, argv):
    rc = main([argv[0], "--scenario", "ct_alpha2_q1_T1", *argv[1:],
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_overflowing_time_exits_3(tmp_path, monkeypatch, capsys):
    from dpl_heatlab import series

    # --t 1e300 itself now has an exact answer (the periodic state); an
    # overflow inside the engine must still map to exit 3.
    def overflow(*args, **kwargs):
        raise OverflowError("synthetic overflow")

    monkeypatch.setattr(series, "_harmonic_coefficients", overflow)
    rc = main(["field", "--scenario", "ct_alpha2_q1_T1", "--t", "1e300",
               "--modes", "3,3", "--grid", "5,5", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "error: numerical failure" in capsys.readouterr().err


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


@pytest.mark.parametrize("flag,value,field", [
    ("--quad-abs", "-1", "abs_tol"),
    ("--quad-abs", "0", "abs_tol"),
    ("--quad-rel", "nan", "rel_tol"),
], ids=["abs-negative", "abs-zero", "rel-nan"])
def test_invalid_quadrature_tolerance_exits_2(tmp_path, capsys, flag, value,
                                              field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["field", "--scenario", "ct_alpha2_q1_T1", "--t", "2.5",
                   "--modes", "3,3", "--grid", "3,3", flag, value,
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and field in err


@settings(max_examples=25, deadline=None, derandomize=True)
@given(flag=st.sampled_from(["--quad-abs", "--quad-rel"]), value=st.floats())
def test_any_quadrature_tolerance_gives_a_code_or_finite_output(flag, value):
    # A tolerance is rejected (2), cannot be met (3, the documented
    # quadrature failure), or yields a finite field.
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        load_custom_path(mp)
        out = Path(tmp) / "o"
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            rc = main(["field", "--scenario", "ct_alpha2_q1_T1", "--t", "2.5",
                       "--modes", "3,3", "--grid", "3,3", flag, repr(value),
                       "--out", str(out)])
        if rc == 0:
            _header, data = read_csv(out / "field_t2.5.csv")
            assert np.isfinite(data).all()
        else:
            assert rc in (2, 3) and "error:" in err.getvalue()


def test_cli_import_loads_no_scipy():
    code = ("import sys, dpl_heatlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(dh.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, cwd=src)
    assert proc.stdout.strip() == "[]"
    assert callable(dh.solve_fdm)


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
