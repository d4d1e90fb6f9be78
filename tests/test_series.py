import dataclasses
import math

import numpy as np
import pytest

import dpl_heatlab as dh
from dpl_heatlab import series
from dpl_heatlab.errors import NegativeElapsed, QuadratureNotConverged
from dpl_heatlab.fdm import GaussianSourceFactors
from dpl_heatlab.modes import build_mode_table
from dpl_heatlab.quadrature import QuadratureSpec
from dpl_heatlab.series import (CoefficientHistory, PointSourceFactors,
                                amplitudes, assemble_at_points,
                                assemble_field, default_truncation,
                                mode_coefficient, mode_coefficients,
                                prefactor, resolve_threads, resolve_truncation,
                                source_factor, switch_on_transient)
from helpers import kahan_mode_sum, simpson_mode_coefficient, tiny_scenario


def stationary_scenario(**overrides):
    """Source parked at the plate center (zero-radius sweep)."""
    traj = dh.Trajectory(kind="line", A=1e-30, B=0.0, w=1.0)
    base = dict(tau_q=0.0, tau_T=0.0, alpha=1.29e-2, trajectory=traj)
    base.update(overrides)
    return tiny_scenario(**base)


def test_prefactor_branches():
    s = tiny_scenario(L=0.5, H=0.4, theta=2.5e4, k=51.4, alpha=1.29e-5,
                      tau_q=2.0)
    assert math.isclose(prefactor(s),
                        4.0 * 1.29e-5 * 2.5e4 / (0.5 * 0.4 * 2.0 * 51.4),
                        rel_tol=1e-15)
    c = dh.classical(s)
    assert math.isclose(prefactor(c),
                        4.0 * 1.29e-5 * 2.5e4 / (0.5 * 0.4 * 51.4),
                        rel_tol=1e-15)


def test_source_factor_zero_lag_is_plain_eigenfunction():
    s = dh.classical(tiny_scenario())
    table = build_mode_table(s, 3, 3)
    e = table.entry(2, 3)
    taus = np.linspace(0.0, 9.0, 11)
    x, y = dh.position(s.trajectory, taus)
    expected = np.sin(e.kx * x) * np.sin(e.ky * y)
    assert np.allclose(source_factor(e, s, taus), expected, rtol=1e-15)


def test_source_factor_even_mode_vanishes_at_center():
    s = stationary_scenario(tau_q=1.0, tau_T=1.0)
    e = build_mode_table(s, 2, 1).entry(2, 1)
    # sin(2 pi / L * L/2) = sin(pi) = 0 and the source never moves
    assert abs(source_factor(e, s, 5.0)) < 1e-12


def test_source_factor_at_turning_point_has_no_velocity_term():
    s, _ = dh.load_bundled("lst_default")
    s = dh.with_lags(s, 1.0, 1.0)
    table = build_mode_table(s, 4, 3)
    for m, n in [(1, 1), (4, 3)]:
        e = table.entry(m, n)
        got = source_factor(e, s, 365.0)
        expected = math.sin(e.kx * 0.05) * math.sin(e.ky * 0.2)
        assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12)


def test_coefficients_vanish_at_time_zero():
    s = tiny_scenario()
    table = build_mode_table(s, 4, 4)
    coeffs = mode_coefficients(s, table, 0.0)
    assert np.array_equal(coeffs, np.zeros(table.nmodes))


def test_stationary_classical_coefficient_closed_form():
    s = stationary_scenario()
    table = build_mode_table(s, 2, 2)
    for t in (0.5, 5.0, 40.0):
        e = table.entry(1, 1)
        rate = s.alpha * e.k2
        expected = (math.sin(e.kx * 0.5) * math.sin(e.ky * 0.5)
                    * -math.expm1(-rate * t) / rate)
        got = mode_coefficient(e, s, t)
        assert math.isclose(got, expected, rel_tol=1e-10)
        # even mode dies by parity
        assert abs(mode_coefficient(table.entry(2, 1), s, t)) < 1e-12


def test_coefficient_matches_brute_force_simpson():
    s, _ = dh.load_bundled("ct_default")
    s = dh.with_lags(s, 1.0, 1.0)
    e = build_mode_table(s, 1, 1).entry(1, 1)
    got = mode_coefficient(e, s, 10.0)
    ref = simpson_mode_coefficient(s, 1, 1, 10.0)
    assert math.isclose(got, ref, rel_tol=1e-8)


def test_scalar_and_batch_coefficients_agree():
    s, _ = dh.load_bundled("ct_alpha2_q5_T1")
    table = build_mode_table(s, 5, 5)
    batch = mode_coefficients(s, table, 7.0)
    for m, n in [(1, 1), (3, 2), (5, 5)]:
        direct = mode_coefficient(table.entry(m, n), s, 7.0)
        assert math.isclose(batch[table.index_of(m, n)], direct,
                            rel_tol=1e-9, abs_tol=1e-12)


def test_field_at_time_zero_is_ambient():
    s = tiny_scenario(T0=300.0)
    field = dh.temperature(s, dh.GridSpec(9, 7), 0.0, M=3, N=3)
    assert np.array_equal(field.values, np.full((9, 7), 300.0))


def test_boundary_samples_are_exactly_ambient():
    s = tiny_scenario(T0=250.0)
    field = dh.temperature(s, dh.GridSpec(13, 11), 4.0, M=6, N=6)
    v = field.values
    assert (v[0, :] == 250.0).all() and (v[-1, :] == 250.0).all()
    assert (v[:, 0] == 250.0).all() and (v[:, -1] == 250.0).all()
    # the interior actually heated up
    assert v[1:-1, 1:-1].max() > 250.0 + 1.0


def test_negative_time_rejected():
    with pytest.raises(NegativeElapsed):
        dh.temperature(tiny_scenario(), dh.GridSpec(5, 5), -1.0, M=2, N=2)


def test_point_evaluation_matches_grid_sample():
    s = tiny_scenario()
    grid = dh.GridSpec(11, 9)
    field = dh.temperature(s, grid, 3.0, M=5, N=5)
    xs, ys = grid.axes(s.L, s.H)
    for i, j in [(0, 0), (3, 4), (10, 8), (5, 2)]:
        p = dh.temperature_at_point(s, float(xs[i]), float(ys[j]), 3.0,
                                    M=5, N=5)
        assert math.isclose(p, field.values[i, j], rel_tol=1e-13, abs_tol=1e-13)


def test_doubling_strength_doubles_excess_temperature():
    s = tiny_scenario(theta=137.0, T0=10.0)
    s2 = dataclasses.replace(s, theta=274.0)
    grid = dh.GridSpec(7, 7)
    a = dh.temperature(s, grid, 2.5, M=4, N=4).values
    b = dh.temperature(s2, grid, 2.5, M=4, N=4).values
    assert np.allclose(b - 10.0, 2.0 * (a - 10.0), rtol=1e-13, atol=1e-13)


def test_stationary_field_inherits_plate_symmetry():
    s = stationary_scenario()
    grid = dh.GridSpec(9, 9)
    v = dh.temperature(s, grid, 10.0, M=7, N=7).values
    assert np.allclose(v, v[::-1, :], rtol=1e-11, atol=1e-11)
    assert np.allclose(v, v[:, ::-1], rtol=1e-11, atol=1e-11)


def test_equal_lag_switch_on_transient_identity():
    """Equal-lag and zero-lag runs differ exactly by the start-up term.

    The equal-lag solution has quiescent initial rate; the zero-lag one
    implicitly starts with rate c * f(0) per mode.  Adding the homogeneous
    relaxation of that rate mismatch to the lagged field must reproduce
    the diffusive field to quadrature accuracy, at any time, even while
    the two fields themselves still differ by percent.
    """
    s, _ = dh.load_bundled("lst_q1_T1")
    table = build_mode_table(s, 24, 24)
    xs = np.linspace(0.0, s.L, 41)
    ys = np.full_like(xs, 0.2)
    t = 12.5
    lagged = dh.temperature_at_points(s, xs, ys, t, M=24, N=24)
    diffusive = dh.temperature_at_points(dh.classical(s), xs, ys, t, M=24, N=24)
    correction = switch_on_transient(s, table, t, xs, ys)
    peak = np.abs(diffusive).max()
    assert np.abs(lagged + correction - diffusive).max() < 1e-6 * peak
    # sanity: the raw fields genuinely disagree, so the identity is doing work
    assert np.abs(lagged - diffusive).max() > 1e-3 * peak


def test_incremental_history_tracks_direct_quadrature():
    s, _ = dh.load_bundled("ct_alpha2_q5_T1")   # mixes oscillatory and overdamped
    table = build_mode_table(s, 8, 8)
    hist = CoefficientHistory(s, table)
    for t in (1.25, 2.5, 6.25, 10.0, 25.0):
        hist.advance(t)
        direct = mode_coefficients(s, table, t)
        scale = np.abs(direct).max()
        assert np.abs(hist.values() - direct).max() < 1e-8 * scale


def test_incremental_history_critical_and_diffusive_regimes():
    crit = dh.PlateScenario(L=math.pi, H=math.pi, theta=50.0, k=1.0,
                            alpha=0.25, tau_q=2.0, tau_T=2.0,
                            trajectory=dh.Trajectory(kind="circle", A=0.7,
                                                     B=0.7, w=0.5))
    for s in (crit, dh.classical(crit)):
        table = build_mode_table(s, 3, 3)
        hist = CoefficientHistory(s, table)
        for t in (2.0, 5.0):
            hist.advance(t)
            direct = mode_coefficients(s, table, t)
            scale = np.abs(direct).max()
            assert np.abs(hist.values() - direct).max() < 1e-8 * scale


def test_history_rejects_backward_steps():
    s = tiny_scenario()
    hist = CoefficientHistory(s, build_mode_table(s, 2, 2))
    hist.advance(3.0)
    with pytest.raises(NegativeElapsed):
        hist.advance(2.0)


def test_thread_count_does_not_change_bits(monkeypatch):
    s, _ = dh.load_bundled("ct_alpha2_q1_T5")
    table = build_mode_table(s, 10, 10)
    # Small chunks, so that the 100 modes keep several workers busy.
    monkeypatch.setattr(series, "MODE_CHUNK", 16)
    one = mode_coefficients(s, table, 11.0, threads=1)
    four = mode_coefficients(s, table, 11.0, threads=4)
    assert np.array_equal(one, four)


def test_unreachable_tolerance_surfaces_quadrature_failure():
    s = tiny_scenario()
    table = build_mode_table(s, 2, 2)
    strict = QuadratureSpec(abs_tol=1e-300, rel_tol=0.0, max_subintervals=64)
    with pytest.raises(QuadratureNotConverged) as err:
        mode_coefficients(s, table, 5.0, quad=strict)
    assert err.value.achieved > err.value.requested


def test_default_truncation_scales_with_diffusivity():
    assert default_truncation(tiny_scenario(alpha=1.29e-5)) == (80, 80)
    assert default_truncation(tiny_scenario(alpha=1.29e-2)) == (40, 40)


def test_resolve_truncation_fills_only_missing_counts():
    s = tiny_scenario(alpha=1.29e-2)
    assert resolve_truncation(s) == (40, 40)
    assert resolve_truncation(s, 7, None) == (7, 40)
    assert resolve_truncation(s, None, 5) == (40, 5)
    assert resolve_truncation(s, 7, 5) == (7, 5)


def test_resolve_threads_env_fallback(monkeypatch):
    monkeypatch.setenv("DPL_HEATLAB_THREADS", "3")
    assert resolve_threads() == 3
    assert resolve_threads(2) == 2          # explicit argument wins
    monkeypatch.delenv("DPL_HEATLAB_THREADS")
    assert resolve_threads() >= 1           # auto mode picks something sane
    with pytest.raises(ValueError):
        resolve_threads(-1)


def test_amplitudes_combine_prefactor_and_gain():
    s = tiny_scenario(tau_q=0.0, tau_T=3.0)
    table = build_mode_table(s, 3, 3)
    coeffs = np.linspace(1.0, 2.0, table.nmodes)
    amps = amplitudes(s, table, coeffs)
    assert np.allclose(amps, prefactor(s) * table.gain * coeffs, rtol=1e-15)


# --- separable evaluation ---------------------------------------------------


@pytest.mark.parametrize("kind", ["point-lagged", "point-classical",
                                  "gaussian"])
def test_column_restricted_factors_equal_selected_columns(kind):
    s, _ = dh.load_bundled("ct_alpha2_q5_T1")
    if kind == "point-classical":
        s = dh.classical(s)
    table = build_mode_table(s, 7, 6)
    if kind == "gaussian":
        factors = GaussianSourceFactors(s, table.kx, table.ky, 0.05)
    else:
        factors = PointSourceFactors(s, table.kx, table.ky)
    taus = np.linspace(0.0, 12.0, 37)
    cols = np.array([0, 3, 4, 11, 20, 41])
    got = factors(taus, cols)
    assert got.flags.c_contiguous
    assert np.array_equal(got, factors(taus)[:, cols])


def test_point_factors_match_per_mode_formula_bitwise():
    s, _ = dh.load_bundled("ct_alpha2_q5_T1")
    table = build_mode_table(s, 7, 6)
    taus = np.linspace(0.0, 12.0, 37)
    x, y = dh.position(s.trajectory, taus)
    vx, vy = dh.velocity(s.trajectory, taus)
    argx, argy = np.outer(x, table.kx), np.outer(y, table.ky)
    expected = np.sin(argx) * np.sin(argy) + s.tau_q * (
        (vx[:, None] * table.kx[None, :]) * np.cos(argx) * np.sin(argy)
        + (vy[:, None] * table.ky[None, :]) * np.sin(argx) * np.cos(argy))
    got = PointSourceFactors(s, table.kx, table.ky)(taus)
    assert np.array_equal(got, expected)


def _assembly_case(T0=20.0):
    s = tiny_scenario(T0=T0)
    table = build_mode_table(s, 9, 7)
    return s, table, mode_coefficients(s, table, 4.0)


@pytest.mark.parametrize("masked", [False, True])
def test_matrix_product_assembly_matches_per_mode_sum(masked):
    s, table, coeffs = _assembly_case()
    mask = (table.m + table.n) % 3 != 0 if masked else None
    amps = amplitudes(s, table, coeffs)

    grid = dh.GridSpec(23, 17)
    xs, ys = grid.axes(s.L, s.H)
    ref = kahan_mode_sum(amps, np.sin(np.outer(xs, table.kx)),
                         np.sin(np.outer(ys, table.ky)), mask)
    peak = np.abs(ref).max()
    field = assemble_field(s, table, coeffs, grid, 4.0, mode_mask=mask)
    assert np.abs(field.values - s.T0 - ref).max() <= 1e-13 * peak

    rng = np.random.default_rng(7)
    px, py = rng.uniform(0.0, s.L, 31), rng.uniform(0.0, s.H, 31)
    ref = kahan_mode_sum(amps, np.sin(np.outer(px, table.kx)),
                         np.sin(np.outer(py, table.ky)), mask, paired=True)
    got = assemble_at_points(s, table, coeffs, px, py, mode_mask=mask)
    assert np.abs(got - s.T0 - ref).max() <= 1e-13 * peak


def test_masked_assembly_equals_truncated_table():
    s, big, coeffs = _assembly_case()
    small = build_mode_table(s, 5, 4)
    sub = coeffs[[big.index_of(m, n) for m, n in zip(small.m, small.n)]]
    mask = (big.m <= 5) & (big.n <= 4)
    grid = dh.GridSpec(19, 13)
    masked = assemble_field(s, big, coeffs, grid, 4.0, mode_mask=mask)
    direct = assemble_field(s, small, sub, grid, 4.0)
    assert np.array_equal(masked.values, direct.values)
    xs, ys = np.linspace(0.1, 0.9, 9), np.linspace(0.8, 0.2, 9)
    assert np.array_equal(
        assemble_at_points(s, big, coeffs, xs, ys, mode_mask=mask),
        assemble_at_points(s, small, sub, xs, ys))


def test_masked_assembly_keeps_edges_at_ambient():
    s, table, coeffs = _assembly_case(T0=250.0)
    mask = (table.m + table.n) % 3 != 0
    v = assemble_field(s, table, coeffs, dh.GridSpec(13, 11), 4.0,
                       mode_mask=mask).values
    assert (v[0, :] == 250.0).all() and (v[-1, :] == 250.0).all()
    assert (v[:, 0] == 250.0).all() and (v[:, -1] == 250.0).all()
    assert v[1:-1, 1:-1].max() > 250.0 + 1.0
    edge = assemble_at_points(s, table, coeffs, [0.0, s.L, 0.3, 0.7],
                              [0.4, 0.6, 0.0, s.H], mode_mask=mask)
    assert (edge == 250.0).all()
