import math

import numpy as np
import pytest

import dpl_heatlab as dh
from dpl_heatlab.analysis import (line_profile_y, locate_peak,
                                  source_peak_distance_sweep,
                                  trajectory_profile, write_field_csv,
                                  write_profile_csv, write_sweep_csv)
from dpl_heatlab.errors import (NegativeElapsed, PeakOnBoundary,
                                TrajectoryNotClosed)
from dpl_heatlab.series import solve_series
from helpers import tiny_scenario


def stationary_scenario():
    traj = dh.Trajectory(kind="line", A=1e-30, B=0.0, w=1.0)
    return tiny_scenario(tau_q=0.0, tau_T=0.0, trajectory=traj)


def test_stationary_peak_sits_on_source():
    s = stationary_scenario()
    grid = dh.GridSpec(41, 41)
    report = locate_peak(s, 20.0, M=16, N=16, grid=grid)
    assert math.isclose(report.peak_position[0], 0.5, abs_tol=1.0 / 40)
    assert math.isclose(report.peak_position[1], 0.5, abs_tol=1.0 / 40)
    assert report.source_position == (0.5, 0.5)
    assert report.distance == math.hypot(report.peak_position[0] - 0.5,
                                         report.peak_position[1] - 0.5)
    assert report.truncation == (16, 16)


def test_huge_time_reports_the_source_at_the_fmod_phase():
    # The coefficients take the phase from fmod(t, T), and so must the
    # source position the peak is measured from.
    s, _ = dh.load_bundled("ct_alpha2_q1_T1")
    period = 2.0 * math.pi / abs(s.trajectory.w)
    grid = dh.GridSpec(41, 41)
    huge = locate_peak(s, 1e20, M=12, N=12, grid=grid)
    ref = locate_peak(s, math.fmod(1e20, period) + 40 * period, M=12, N=12,
                      grid=grid)
    phase = s.trajectory.w * math.fmod(1e20, period)
    assert huge.source_position == pytest.approx(
        (0.5 + 0.25 * math.cos(phase), 0.5 + 0.25 * math.sin(phase)),
        rel=1e-12)
    assert huge.source_position == pytest.approx(ref.source_position,
                                                 abs=1e-12)
    assert huge.peak_position == pytest.approx(ref.peak_position, abs=1e-9)
    assert huge.distance == pytest.approx(ref.distance, abs=1e-9)


def test_refined_peak_dominates_grid_samples():
    s, _ = dh.load_bundled("ct_alpha2_q1_T1")
    grid = dh.GridSpec(41, 41)
    refined = locate_peak(s, 12.0, M=12, N=12, grid=grid)
    values = solve_series(s, 12.0, 12, 12).field(grid).values
    ix, iy = np.unravel_index(np.argmax(values), values.shape)
    xs, ys = grid.axes(s.L, s.H)
    assert refined.peak_value >= values[ix, iy]
    # refinement never leaves the argmax cell
    assert abs(refined.peak_position[0] - xs[ix]) <= 1.0 / 40 + 1e-12
    assert abs(refined.peak_position[1] - ys[iy]) <= 1.0 / 40 + 1e-12


def test_flat_field_peak_is_reported_on_boundary():
    s = tiny_scenario(theta=0.0)
    with pytest.raises(PeakOnBoundary):
        locate_peak(s, 5.0, M=4, N=4, grid=dh.GridSpec(15, 15))


def test_line_profile_endpoints_are_ambient():
    s = tiny_scenario(T0=77.0)
    prof = line_profile_y(s, 6.0, 0.5, M=6, N=6, nsamples=33)
    assert prof.label == "x"
    assert prof.values[0] == 77.0 and prof.values[-1] == 77.0
    assert prof.parameter[0] == 0.0 and prof.parameter[-1] == s.L
    assert prof.values[1:-1].max() > 77.0


def test_line_profile_validates_cut():
    s = tiny_scenario()
    for y0 in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            line_profile_y(s, 1.0, y0, M=2, N=2)
    with pytest.raises(ValueError):
        line_profile_y(s, 1.0, 0.5, M=2, N=2, nsamples=1)


def test_profiles_at_time_zero_are_exactly_ambient():
    s = tiny_scenario(T0=41.5)
    line = line_profile_y(s, 0.0, 0.4, M=6, N=6, nsamples=17)
    ring = trajectory_profile(s, 0.0, M=6, N=6, nangles=12)
    assert np.array_equal(line.values, np.full(17, 41.5))
    assert np.array_equal(ring.values, np.full(12, 41.5))


def test_negative_time_rejected_by_every_entry_point():
    s = tiny_scenario()
    with pytest.raises(NegativeElapsed):
        line_profile_y(s, -1.0, 0.5, M=2, N=2)
    with pytest.raises(NegativeElapsed):
        trajectory_profile(s, -1.0, M=2, N=2)
    with pytest.raises(NegativeElapsed):
        locate_peak(s, -1.0, M=2, N=2, grid=dh.GridSpec(9, 9))


def test_trajectory_profile_requires_closed_path():
    s, _ = dh.load_bundled("lst_default")
    with pytest.raises(TrajectoryNotClosed):
        trajectory_profile(s, 5.0, M=2, N=2)


def test_trajectory_profile_samples_the_circle():
    s = tiny_scenario()
    prof = trajectory_profile(s, 5.0, M=8, N=8, nangles=16)
    assert prof.label == "phi"
    assert prof.parameter.shape == (16,)
    assert prof.parameter[0] == 0.0
    assert math.isclose(prof.parameter[1], 2.0 * math.pi / 16, rel_tol=1e-15)
    # spot check one angle against a direct point evaluation
    phi = prof.parameter[5]
    x = 0.5 + 0.25 * math.cos(phi)
    y = 0.5 + 0.25 * math.sin(phi)
    direct = dh.solve_series(s, 5.0, M=8, N=8).at([x], [y])[0]
    assert math.isclose(prof.values[5], direct, rel_tol=1e-12)


def test_sweep_singleton():
    s = tiny_scenario()
    reports = source_peak_distance_sweep(s, 6.0, [(8, 8)],
                                         grid=dh.GridSpec(31, 31))
    assert len(reports) == 1
    assert reports[0].truncation == (8, 8)


def test_sweep_masking_matches_direct_truncation():
    s, _ = dh.load_bundled("ct_alpha2_q1_T1")
    grid = dh.GridSpec(31, 31)
    reports = source_peak_distance_sweep(s, 9.0, [(6, 6), (12, 12)], grid=grid)
    direct_small = locate_peak(s, 9.0, M=6, N=6, grid=grid)
    direct_large = locate_peak(s, 9.0, M=12, N=12, grid=grid)
    for got, want in zip(reports, (direct_small, direct_large)):
        assert got.truncation == want.truncation
        assert math.isclose(got.peak_value, want.peak_value,
                            rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(got.distance, want.distance,
                            rel_tol=1e-6, abs_tol=1e-9)


def test_sweep_rejects_empty_list():
    with pytest.raises(ValueError):
        source_peak_distance_sweep(tiny_scenario(), 5.0, [])


def test_sweep_rejects_a_truncation_below_one_before_any_work():
    # An empty mode subset would otherwise give a flat field and a
    # PeakOnBoundary; the count is an input error, like build_mode_table's.
    with pytest.raises(ValueError, match="truncation must be at least 1x1"):
        source_peak_distance_sweep(tiny_scenario(), 5.0, [(0, 4), (4, 4)],
                                   dh.GridSpec(21, 21))


# --- CSV emission ----------------------------------------------------------


def test_profile_csv_roundtrip(tmp_path):
    s = tiny_scenario()
    prof = line_profile_y(s, 2.0, 0.5, M=4, N=4, nsamples=9)
    path = tmp_path / "profile.csv"
    write_profile_csv(prof, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "param,value"
    assert len(lines) == 10
    for row, p, v in zip(lines[1:], prof.parameter, prof.values):
        sp, sv = row.split(",")
        assert float(sp) == p and float(sv) == v


def test_sweep_csv_header_and_rows(tmp_path):
    s = tiny_scenario()
    reports = source_peak_distance_sweep(s, 5.0, [(4, 4), (8, 8)],
                                         grid=dh.GridSpec(21, 21))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(reports, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "M,N,x_peak,y_peak,T_peak,x_src,y_src,distance"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "4" and first[1] == "4"
    assert float(first[4]) == reports[0].peak_value


def test_field_csv_layout(tmp_path):
    s = tiny_scenario()
    field = dh.solve_series(s, 1.0, M=2, N=2).field(dh.GridSpec(3, 2))
    path = tmp_path / "field.csv"
    write_field_csv(field, s, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,T"
    assert len(lines) == 1 + 6
    # x varies slowest
    xs = [float(r.split(",")[0]) for r in lines[1:]]
    assert xs == [0.0, 0.0, 0.5, 0.5, 1.0, 1.0]


def test_field_csv_matches_value_by_value_repr(tmp_path):
    s = tiny_scenario(H=0.7)
    grid = dh.GridSpec(3, 4)
    xs, ys = grid.axes(s.L, s.H)
    floats = np.array([[-0.0, 1e-300, 0.1 + 0.2, 20.0],
                       [3.0, -7.0, 1e300, 5e-324],
                       [0.0, 1.0 / 3.0, -2.5, 1e16]])
    ints = np.arange(12).reshape(3, 4) - 5
    for values in (floats, ints):
        path = tmp_path / "field.csv"
        field = dh.TemperatureField(grid=grid, t=1.0, values=values)
        write_field_csv(field, s, path)
        ref = "x,y,T\n" + "".join(
            f"{repr(float(x))},{repr(float(y))},{repr(float(values[i, j]))}\n"
            for i, x in enumerate(xs) for j, y in enumerate(ys))
        assert path.read_bytes() == ref.encode()
