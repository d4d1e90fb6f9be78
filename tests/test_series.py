import dataclasses
import math

import numpy as np
import pytest

import dpl_heatlab as dh
from dpl_heatlab import series
from dpl_heatlab.errors import NegativeElapsed, QuadratureNotConverged
from dpl_heatlab.fdm import GaussianSourceFactors
from dpl_heatlab.modes import (CRITICAL, DIFFUSIVE, OSCILLATORY, OVERDAMPED,
                               REGIME_NAMES, build_mode_table)
from dpl_heatlab.quadrature import QuadratureSpec
from dpl_heatlab.series import (CoefficientHistory, PointSourceFactors,
                                amplitudes, assemble_at_points,
                                assemble_field, default_truncation,
                                mode_coefficients, prefactor, resolve_threads,
                                resolve_truncation, switch_on_transient)
from helpers import (custom_path_scenario, kahan_mode_sum,
                     simpson_mode_coefficient, tiny_scenario)


def stationary_scenario(**overrides):
    """Source parked at the plate center (zero-radius sweep)."""
    traj = dh.Trajectory(kind="line", A=1e-30, B=0.0, w=1.0)
    base = dict(tau_q=0.0, tau_T=0.0, alpha=1.29e-2, trajectory=traj)
    base.update(overrides)
    return tiny_scenario(**base)


def point_factor(s, table, m, n, taus):
    """Mode (m, n)'s column of the point-source factors at taus."""
    factors = PointSourceFactors(s, table.kx, table.ky)
    return factors(np.atleast_1d(np.asarray(taus, dtype=float)))[
        :, table.index_of(m, n)]


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
    i = table.index_of(2, 3)
    taus = np.linspace(0.0, 9.0, 11)
    x, y = dh.position(s.trajectory, taus)
    expected = np.sin(table.kx[i] * x) * np.sin(table.ky[i] * y)
    assert np.allclose(point_factor(s, table, 2, 3, taus), expected,
                       rtol=1e-15)


def test_source_factor_even_mode_vanishes_at_center():
    s = stationary_scenario(tau_q=1.0, tau_T=1.0)
    table = build_mode_table(s, 2, 1)
    # sin(2 pi / L * L/2) = sin(pi) = 0 and the source never moves
    assert abs(point_factor(s, table, 2, 1, 5.0)[0]) < 1e-12


def test_source_factor_at_turning_point_has_no_velocity_term():
    s, _ = dh.load_bundled("lst_default")
    s = dh.with_lags(s, 1.0, 1.0)
    table = build_mode_table(s, 4, 3)
    for m, n in [(1, 1), (4, 3)]:
        i = table.index_of(m, n)
        got = point_factor(s, table, m, n, 365.0)[0]
        expected = math.sin(table.kx[i] * 0.05) * math.sin(table.ky[i] * 0.2)
        assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12)


def test_coefficients_vanish_at_time_zero():
    s = tiny_scenario()
    table = build_mode_table(s, 4, 4)
    coeffs = mode_coefficients(s, table, 0.0)
    assert np.array_equal(coeffs, np.zeros(table.nmodes))


def test_stationary_classical_coefficient_closed_form():
    s = stationary_scenario()
    table = build_mode_table(s, 2, 2)
    i = table.index_of(1, 1)
    for t in (0.5, 5.0, 40.0):
        rate = s.alpha * table.k2[i]
        expected = (math.sin(table.kx[i] * 0.5) * math.sin(table.ky[i] * 0.5)
                    * -math.expm1(-rate * t) / rate)
        coeffs = mode_coefficients(s, table, t)
        assert math.isclose(coeffs[i], expected, rel_tol=1e-10)
        # even mode dies by parity
        assert abs(coeffs[table.index_of(2, 1)]) < 1e-12


def test_coefficient_matches_brute_force_simpson():
    s, _ = dh.load_bundled("ct_default")
    s = dh.with_lags(s, 1.0, 1.0)
    got = mode_coefficients(s, build_mode_table(s, 1, 1), 10.0)[0]
    ref = simpson_mode_coefficient(s, 1, 1, 10.0)
    assert math.isclose(got, ref, rel_tol=1e-8)


def test_scalar_and_batch_coefficients_agree():
    """Entries of a whole-table solve equal single-mode Simpson integrals."""
    s, _ = dh.load_bundled("ct_alpha2_q5_T1")
    table = build_mode_table(s, 5, 5)
    batch = mode_coefficients(s, table, 7.0)
    for m, n in [(1, 1), (3, 2), (5, 5)]:
        direct = simpson_mode_coefficient(s, m, n, 7.0)
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


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_time_rejected(t):
    s = tiny_scenario()
    with pytest.raises(ValueError, match="non-finite"):
        mode_coefficients(s, build_mode_table(s, 2, 2), t)


def test_point_evaluation_matches_grid_sample():
    s = tiny_scenario()
    grid = dh.GridSpec(11, 9)
    field = dh.temperature(s, grid, 3.0, M=5, N=5)
    sol = dh.solve_series(s, 3.0, M=5, N=5)
    xs, ys = grid.axes(s.L, s.H)
    for i, j in [(0, 0), (3, 4), (10, 8), (5, 2)]:
        p = float(sol.at([xs[i]], [ys[j]])[0])
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
    xs = np.linspace(0.0, s.L, 41)
    ys = np.full_like(xs, 0.2)
    t = 12.5
    sol = dh.solve_series(s, t, M=24, N=24)
    lagged = sol.at(xs, ys)
    diffusive = dh.solve_series(dh.classical(s), t, M=24, N=24).at(xs, ys)
    correction = switch_on_transient(s, sol.table, t, xs, ys)
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
    # Only custom paths run the worker pool.
    s = custom_path_scenario(dh.load_bundled("ct_alpha2_q1_T5")[0])
    table = build_mode_table(s, 10, 10)
    # Small chunks, so that the 100 modes keep several workers busy.
    monkeypatch.setattr(series, "MODE_CHUNK", 16)
    one = mode_coefficients(s, table, 11.0, threads=1)
    four = mode_coefficients(s, table, 11.0, threads=4)
    assert np.array_equal(one, four)


def test_unreachable_tolerance_surfaces_quadrature_failure():
    s = custom_path_scenario(tiny_scenario())
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


# --- harmonic engine ---------------------------------------------------------


def _critical_circle():
    """The critical-mode scenario of the incremental-history test."""
    return dh.PlateScenario(L=math.pi, H=math.pi, theta=50.0, k=1.0,
                            alpha=0.25, tau_q=2.0, tau_T=2.0,
                            trajectory=dh.Trajectory(kind="circle", A=0.7,
                                                     B=0.7, w=0.5))


def _periodic_scenario(name):
    if name == "critical":
        return _critical_circle()
    return dh.load_bundled(name)[0]


# Elapsed times as multiples of the period T.
SIMPSON_TIMES = {
    "5.3 periods": lambda T: 5.3 * T,
    "exact multiple": lambda T: 6.0 * T,
    "just after nT": lambda T: 6.0 * T + 1e-3,
    "window start off a quarter": lambda T: 5.0 * T + 0.0925 * T + 0.11,
    "under one period": lambda T: 0.73 * T,
}


@pytest.mark.parametrize("when", list(SIMPSON_TIMES))
@pytest.mark.parametrize("name,regime", [
    ("lst_q1_T1", "overdamped"), ("lst_default", "diffusive"),
    ("ct_alpha2_q5_T1", "oscillatory"), ("critical", "critical")])
def test_folded_coefficients_match_brute_force_simpson(name, regime, when):
    """The closed-form harmonic sums equal the full-history integral.

    The name dates from the period-fold engine this test first pinned.
    """
    s = _periodic_scenario(name)
    period = 2.0 * math.pi / abs(s.trajectory.w)
    t = SIMPSON_TIMES[when](period)
    table = build_mode_table(s, 3, 3)
    assert REGIME_NAMES[table.regime[table.index_of(1, 1)]] == regime
    coeffs = mode_coefficients(s, table, t)
    scale = np.abs(coeffs).max()
    for m, n in [(1, 1), (2, 3)]:
        ref = simpson_mode_coefficient(s, m, n, t, panels=100_000)
        assert abs(coeffs[table.index_of(m, n)] - ref) <= 1e-9 * scale


@pytest.mark.parametrize("path", ["custom", "w = 0"])
def test_unfolded_paths_match_brute_force_simpson(path):
    """The quadrature (custom path) and the one-harmonic case (w = 0)."""
    s, _ = dh.load_bundled("ct_alpha2_q5_T1")
    if path == "custom":
        s = custom_path_scenario(s)
    else:
        s = dh.validate_scenario(dataclasses.replace(
            s, trajectory=dataclasses.replace(s.trajectory, w=0.0)))
    t = 33.0
    table = build_mode_table(s, 3, 3)
    coeffs = mode_coefficients(s, table, t)
    scale = np.abs(coeffs).max()
    for m, n in [(1, 1), (2, 3)]:
        ref = simpson_mode_coefficient(s, m, n, t, panels=100_000)
        assert abs(coeffs[table.index_of(m, n)] - ref) <= 1e-9 * scale


# (regime, damping b1, splitting b2, slow rate) of one mode, with b2 down
# to 1e-13 on either side of the critical branch.
PINNED_MODES = {
    "overdamped": (OVERDAMPED, 0.8, 0.3, 0.5),
    "near-critical-overdamped": (OVERDAMPED, 0.7, 1e-9, 0.7 - 1e-9),
    "closer-critical-overdamped": (OVERDAMPED, 0.7, 1e-13, 0.7 - 1e-13),
    "critical": (CRITICAL, 0.7, 0.0, 0.7),
    "oscillatory": (OSCILLATORY, 0.3, 2.0, 0.3),
    "near-critical-oscillatory": (OSCILLATORY, 0.7, 1e-9, 0.7),
    "slow-diffusive": (DIFFUSIVE, 1.3e-3, 0.0, 1.3e-3),
}


@pytest.mark.parametrize("periods", [0.73, 6.3])
@pytest.mark.parametrize("name", list(PINNED_MODES))
def test_pinned_mode_rates_match_brute_force_simpson(name, periods):
    regime, damping, splitting, slow = PINNED_MODES[name]
    s = tiny_scenario(tau_q=0.0 if regime == DIFFUSIVE else 1.0)
    table = dataclasses.replace(
        build_mode_table(s, 1, 1), regime=np.array([regime], dtype=np.int8),
        damping=np.array([damping]), splitting=np.array([splitting]),
        slow=np.array([slow]))
    t = periods * 2.0 * math.pi / abs(s.trajectory.w)
    got = mode_coefficients(s, table, t)[0]
    ref = simpson_mode_coefficient(s, 1, 1, t, panels=100_000, table=table)
    assert abs(got - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("tau_q,tau_T", [(5.0, 1.0), (2.0, 2.0)])
def test_coefficients_are_continuous_across_the_critical_bracket(tau_q, tau_T):
    """As in acceptance 08: alpha_crit (1 -/+ 1e-12) brackets the branch.

    The three alphas fall in at least two regimes, with splittings of
    1e-7 and below: overdamped and oscillatory for tau_q = 5, tau_T = 1;
    oscillatory and critical for equal lags, where the discriminant is a
    square and its rounding picks the branch.
    """
    k2 = 2.0 * math.pi ** 2
    a, b = tau_T * tau_T * k2 * k2, 2.0 * tau_T * k2 - 4.0 * tau_q * k2
    alpha_crit = (-b - math.sqrt(b * b - 4.0 * a)) / (2.0 * a)
    values, regimes = [], set()
    for bump in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
        s = dh.validate_scenario(dh.PlateScenario(
            L=1.0, H=1.0, T0=0.0, theta=1.0, k=1.0,
            alpha=alpha_crit * bump, tau_q=tau_q, tau_T=tau_T,
            trajectory=dh.Trajectory(kind="circle", A=0.2, B=0.2, w=1.0)))
        tb = build_mode_table(s, 1, 1)
        regimes.add(int(tb.regime[0]))
        values.append([mode_coefficients(s, tb, t)[0]
                       for t in (0.4, 2.0 * math.pi, 7.3 * math.pi)])
    values = np.array(values)
    assert len(regimes) >= 2  # the bracket really changes the branch
    jump = (values.max(axis=0) - values.min(axis=0)).max()
    assert jump <= 1e-10 * np.abs(values).max()


@pytest.mark.parametrize("name,modes,t,boundary", [
    ("ct_default", (80, 80), 360.0, None),
    # rho lies just below a power-of-two boundary of Q: the next truncation
    # doubles Q, so Q / 2 has the least margin over rho.
    ("lst_q1_T1", (143, 4), 365.0, (144, 4)),
    ("ct_default", (114, 114), 360.0, (115, 115)),
], ids=["ct_default-80x80", "line-143x4-boundary", "circle-114x114-boundary"])
def test_doubling_the_samples_moves_coefficients_within_the_aliasing_estimate(
        monkeypatch, name, modes, t, boundary):
    s, _ = dh.load_bundled(name)
    table = build_mode_table(s, *modes)
    q = series._harmonic_samples(s, table)
    if boundary is not None:
        assert series._harmonic_samples(s, build_mode_table(s, *boundary)) == 2 * q
    taus = np.arange(q) * (2.0 * math.pi / abs(s.trajectory.w) / q)
    spectrum = np.abs(np.fft.rfft(PointSourceFactors(s, table.kx, table.ky)(taus),
                                  axis=0))
    aliasing = spectrum[-1].max() / spectrum.max()   # |F| at Nyquist
    coarse = mode_coefficients(s, table, t)
    monkeypatch.setattr(series, "_harmonic_samples", lambda *_: 2 * q)
    fine = mode_coefficients(s, table, t)
    assert aliasing <= 1e-13
    assert np.abs(fine - coarse).max() <= aliasing * np.abs(fine).max()


@pytest.mark.parametrize("name", ["ct_alpha2_q1_T1", "lst_default",
                                  "ct_alpha2_q5_T1"])
@pytest.mark.parametrize("t", [1e20, 1e300])
def test_huge_times_give_the_periodic_state(name, t):
    """Phase from fmod(t, T); the start-up transient has died out."""
    s, _ = dh.load_bundled(name)
    table = build_mode_table(s, 3, 3)
    period = 2.0 * math.pi / abs(s.trajectory.w)
    # e^(-slow t) < 1e-17 from n periods on
    n = math.ceil(40.0 / (table.slow.min() * period))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        huge = mode_coefficients(s, table, t)
        ref = mode_coefficients(s, table, math.fmod(t, period) + n * period)
    assert np.isfinite(huge).all()
    scale = np.abs(ref).max()
    assert scale > 0.0
    assert np.abs(huge - ref).max() <= 1e-12 * scale
