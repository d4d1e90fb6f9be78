import dataclasses
import math
from functools import partial

import numpy as np
import pytest

import dpl_heatlab as dh
from dpl_heatlab import series
from dpl_heatlab.errors import NegativeElapsed
from dpl_heatlab.modes import (CRITICAL, DIFFUSIVE, OSCILLATORY, OVERDAMPED,
                               build_mode_table, kernel_matrix)
from dpl_heatlab.series import (PointSourceFactors, amplitudes,
                                assemble_at_points, assemble_field,
                                mode_coefficients, prefactor, resolve_threads,
                                resolve_truncation)
from coefficient_history import CoefficientHistory
from helpers import (REGIME_NAMES, classical, complex_response_coefficients,
                     dirichlet_green, index_of, kahan_mode_sum,
                     simpson_mode_coefficient, tiny_scenario, with_lags)


def stationary_scenario(**overrides):
    """Source parked at the plate center (zero-radius sweep)."""
    traj = dh.Trajectory(kind="line", A=1e-30, B=0.0, w=1.0)
    base = dict(tau_q=0.0, tau_T=0.0, alpha=1.29e-2, trajectory=traj)
    base.update(overrides)
    return tiny_scenario(**base)


def axis_rates(table):
    """Per-axis rates (kx of the modes (m, 1), ky of the modes (1, n))."""
    return table.kx[::table.N], table.ky[:table.N]


def point_factors(s, table, taus):
    """(Q, nmodes) point-source factors of the whole table at taus."""
    factors = PointSourceFactors(s, *axis_rates(table), taus)
    return factors(slice(None), slice(None))


def point_factor(s, table, m, n, taus):
    """Mode (m, n)'s column of the point-source factors at taus."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    return point_factors(s, table, taus)[:, index_of(table, m, n)]


def test_prefactor_branches():
    s = tiny_scenario(L=0.5, H=0.4, theta=2.5e4, k=51.4, alpha=1.29e-5,
                      tau_q=2.0)
    assert math.isclose(prefactor(s, classical=False),
                        4.0 * 1.29e-5 * 2.5e4 / (0.5 * 0.4 * 2.0 * 51.4),
                        rel_tol=1e-15)
    c = classical(s)
    assert math.isclose(prefactor(c, classical=True),
                        4.0 * 1.29e-5 * 2.5e4 / (0.5 * 0.4 * 51.4),
                        rel_tol=1e-15)
    # The branch is the mode table's to choose, never inferred from tau_q.
    with pytest.raises(TypeError):
        prefactor(s)


def test_source_factor_zero_lag_is_plain_eigenfunction():
    s = classical(tiny_scenario())
    table = build_mode_table(s, 3, 3)
    i = index_of(table, 2, 3)
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
    s = with_lags(s, 1.0, 1.0)
    table = build_mode_table(s, 4, 3)
    for m, n in [(1, 1), (4, 3)]:
        i = index_of(table, m, n)
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
    i = index_of(table, 1, 1)
    for t in (0.5, 5.0, 40.0):
        rate = s.alpha * table.k2[i]
        expected = (math.sin(table.kx[i] * 0.5) * math.sin(table.ky[i] * 0.5)
                    * -math.expm1(-rate * t) / rate)
        coeffs = mode_coefficients(s, table, t)
        assert math.isclose(coeffs[i], expected, rel_tol=1e-10)
        # even mode dies by parity
        assert abs(coeffs[index_of(table, 2, 1)]) < 1e-12


def test_coefficient_matches_brute_force_simpson():
    s, _ = dh.load_bundled("ct_default")
    s = with_lags(s, 1.0, 1.0)
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
        assert math.isclose(batch[index_of(table, m, n)], direct,
                            rel_tol=1e-9, abs_tol=1e-12)


def test_field_at_time_zero_is_ambient():
    s = tiny_scenario(T0=300.0)
    field = dh.solve_series(s, 0.0, M=3, N=3).field(dh.GridSpec(9, 7))
    assert np.array_equal(field.values, np.full((9, 7), 300.0))


def test_boundary_samples_are_exactly_ambient():
    s = tiny_scenario(T0=250.0)
    field = dh.solve_series(s, 4.0, M=6, N=6).field(dh.GridSpec(13, 11))
    v = field.values
    assert (v[0, :] == 250.0).all() and (v[-1, :] == 250.0).all()
    assert (v[:, 0] == 250.0).all() and (v[:, -1] == 250.0).all()
    # the interior actually heated up
    assert v[1:-1, 1:-1].max() > 250.0 + 1.0


def test_negative_time_rejected():
    with pytest.raises(NegativeElapsed):
        dh.solve_series(tiny_scenario(), -1.0, M=2, N=2).field(
            dh.GridSpec(5, 5))


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_time_rejected(t):
    s = tiny_scenario()
    with pytest.raises(ValueError, match="non-finite"):
        mode_coefficients(s, build_mode_table(s, 2, 2), t)


def test_point_evaluation_matches_grid_sample():
    s = tiny_scenario()
    grid = dh.GridSpec(11, 9)
    field = dh.solve_series(s, 3.0, M=5, N=5).field(grid)
    sol = dh.solve_series(s, 3.0, M=5, N=5)
    xs, ys = grid.axes(s.L, s.H)
    for i, j in [(0, 0), (3, 4), (10, 8), (5, 2)]:
        p = float(sol.at([xs[i]], [ys[j]])[0])
        assert math.isclose(p, field.values[i, j], rel_tol=1e-13, abs_tol=1e-13)


def test_doubling_strength_doubles_excess_temperature():
    s = tiny_scenario(theta=137.0, T0=10.0)
    s2 = dataclasses.replace(s, theta=274.0)
    grid = dh.GridSpec(7, 7)
    a = dh.solve_series(s, 2.5, M=4, N=4).field(grid).values
    b = dh.solve_series(s2, 2.5, M=4, N=4).field(grid).values
    assert np.allclose(b - 10.0, 2.0 * (a - 10.0), rtol=1e-13, atol=1e-13)


def test_stationary_field_inherits_plate_symmetry():
    s = stationary_scenario()
    grid = dh.GridSpec(9, 9)
    v = dh.solve_series(s, 10.0, M=7, N=7).field(grid).values
    assert np.allclose(v, v[::-1, :], rtol=1e-11, atol=1e-11)
    assert np.allclose(v, v[:, ::-1], rtol=1e-11, atol=1e-11)


def switch_on_transient(s, table, t, xs, ys):
    """Start-up correction separating equal-lag and diffusive solutions.

    For tau_q = tau_T = tau the diffusive-branch solution satisfies the
    lagged equation exactly but with initial rate c * f(0) instead of 0;
    the two fields therefore differ by the homogeneous relaxation
    sum c * f_mn(0) * K_mn(t) * sin(kx x) sin(ky y), with c the diffusive
    prefactor and K the lagged kernel.  Returns that correction at the
    given points: diffusive field = lagged field + correction.
    """
    assert s.tau_q == s.tau_T and s.tau_q > 0.0
    x0, y0 = dh.position(s.trajectory, 0.0)
    f0 = np.sin(table.kx * x0) * np.sin(table.ky * y0)
    kern = kernel_matrix(table.regime, table.damping, table.splitting,
                         table.slow, np.array([t]))[0]
    pseudo = f0 * kern  # plays the role of P_mn for the correction
    c = 4.0 * s.alpha * s.theta / (s.L * s.H * s.k)
    return series._series_sum(s, table, c * pseudo, xs, ys, paired=True)


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
    diffusive = dh.solve_series(classical(s), t, M=24, N=24).at(xs, ys)
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
    for s in (crit, classical(crit)):
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


def test_default_truncation_scales_with_diffusivity():
    assert resolve_truncation(tiny_scenario(alpha=1.29e-5)) == (80, 80)
    assert resolve_truncation(tiny_scenario(alpha=1.29e-2)) == (40, 40)


def test_resolve_truncation_fills_only_missing_counts():
    s = tiny_scenario(alpha=1.29e-2)
    assert resolve_truncation(s) == (40, 40)
    assert resolve_truncation(s, 7, None) == (7, 40)
    assert resolve_truncation(s, None, 5) == (40, 5)
    assert resolve_truncation(s, 7, 5) == (7, 5)


@pytest.mark.parametrize("M,N", [(0, None), (None, 0), (0, 3)])
def test_explicit_zero_truncation_is_rejected_not_defaulted(M, N):
    # Only None takes the default; an explicit 0 reaches the table check.
    s = tiny_scenario(alpha=1.29e-2)
    assert 0 in resolve_truncation(s, M, N)
    with pytest.raises(ValueError, match="truncation must be at least 1x1"):
        dh.solve_series(s, 5.0, M, N)


def test_resolve_threads_validates_and_returns_one(monkeypatch):
    # The engines run in one thread; no environment variable is read.
    monkeypatch.setenv("DPL_HEATLAB_THREADS", "3")
    for threads in (None, 0, 1, 2, 64, "4"):
        assert resolve_threads(threads) == 1
    for threads in (-1, "-2"):
        with pytest.raises(ValueError, match="thread count must be >= 0"):
            resolve_threads(threads)


def test_amplitudes_combine_prefactor_and_gain():
    s = tiny_scenario(tau_q=0.0, tau_T=3.0)
    table = build_mode_table(s, 3, 3)
    coeffs = np.linspace(1.0, 2.0, table.nmodes)
    amps = amplitudes(s, table, coeffs)
    assert np.allclose(amps, prefactor(s, classical=True) * table.gain
                       * coeffs, rtol=1e-15)


# --- separable evaluation ---------------------------------------------------


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
    got = point_factors(s, table, taus)
    assert np.array_equal(got, expected)


def _plan_factors(name, modes, gaussian=False, parked=False):
    """(scenario, kx, ky, q, factors) of a solve, as the engine plans it."""
    from dpl_heatlab.fdm import GaussianSourceFactors

    s, _ = dh.load_bundled(name)
    if parked:
        s = dataclasses.replace(s, trajectory=dataclasses.replace(
            s.trajectory, w=0.0))
    kx, ky = axis_rates(build_mode_table(s, *modes))
    q = 1 if parked else series._harmonic_samples(s, kx[-1], ky[-1])
    factors = (GaussianSourceFactors(s, kx, ky, np.zeros(1), 0.02)
               if gaussian else PointSourceFactors(s, kx, ky, np.zeros(1)))
    return s, kx, ky, q, factors


@pytest.mark.parametrize("budget", [1, 3000, 1 << 15, 10 ** 9])
@pytest.mark.parametrize("name,modes,gaussian,parked", [
    ("ct_default", (80, 80), False, False),
    ("et_default", (30, 50), False, False),
    ("lst_default", (80, 80), False, False),
    ("lst_q1_T1", (60, 60), False, False),
    ("ct_alpha2_q5_T1", (40, 40), True, False),
    ("lst_default", (80, 80), True, False),
    ("ct_alpha2_q5_T1", (3, 300), False, False),
    ("et_default", (20, 20), False, True),
], ids=["circle", "ellipse", "line", "lagged-line", "gaussian-circle",
        "gaussian-line", "3x300", "parked"])
def test_tile_plan_covers_the_table_in_budget_largest_first(
        monkeypatch, name, modes, gaussian, parked, budget):
    monkeypatch.setattr(series, "TILE_BUDGET", budget)
    s, kx, ky, q, factors = _plan_factors(name, modes, gaussian, parked)
    M, N = modes
    tiles = series._tile_plan(s, kx, ky, q, factors)

    def size(tile):   # of the tile's largest array
        m0, n0, m1, n1, qt = tile
        return (m1 - m0) * (n1 - n0) * max(1, qt // 2 if factors.still else qt)

    # Runs of the row-major table that cover every mode exactly once:
    # whole rows, or one row's n-range.
    runs = sorted((m0 * N + n0, (m1 - 1) * N + n1) for m0, n0, m1, n1, _ in tiles)
    assert [a for a, _ in runs] == [0] + [b for _, b in runs[:-1]]
    assert runs[-1][1] == M * N
    for m0, n0, m1, n1, qt in tiles:
        assert (n0, n1) == (0, N) or m1 == m0 + 1
        assert qt == (series._harmonic_samples(s, kx[m1 - 1], ky[n1 - 1])
                      if factors.band_limited and not parked else q)
    # Within the budget, unless a single mode is over it on its own.
    for tile in tiles:
        assert size(tile) <= budget or (tile[2] - tile[0]) * (
            tile[3] - tile[1]) == 1
    # The most modes: a whole-row tile cannot take the next row, and a
    # split row is over budget whole and splits into the fewest even
    # n-ranges that fit.
    rows = {tile[0]: tile for tile in tiles if tile[3] - tile[1] < N}
    for m0, n0, m1, n1, qt in tiles:
        if (n0, n1) == (0, N) and m1 < M:
            wider = series._harmonic_samples(s, kx[m1], ky[-1]) if (
                factors.band_limited and not parked) else q
            assert size((m0, 0, m1 + 1, N, wider)) > budget
    for m in rows:
        parts = sorted(tile for tile in tiles if tile[0] == m)
        assert size((m, 0, m + 1, N, parts[-1][4])) > budget
        assert max(t[3] - t[1] for t in parts) - min(
            t[3] - t[1] for t in parts) <= 1
        if 2 < len(parts) < N:
            fewer = len(parts) - 1
            cuts = [i * N // fewer for i in range(fewer + 1)]
            assert any(size((m, a, m + 1, b, series._harmonic_samples(
                s, kx[m], ky[b - 1]) if factors.band_limited else q)) > budget
                for a, b in zip(cuts, cuts[1:]))
    # Largest first (qt times modes).
    keys = [(m1 - m0) * (n1 - n0) * qt for m0, n0, m1, n1, qt in tiles]
    assert keys == sorted(keys, reverse=True)
    if budget == 1:
        assert len(tiles) == M * N
    if budget == 10 ** 9:
        assert len(tiles) == 1


@pytest.mark.parametrize("gaussian", [False, True], ids=["point", "gaussian"])
@pytest.mark.parametrize("modes", [(7, 13), (3, 300), (300, 2)],
                         ids=["7x13", "3x300", "300x2"])
def test_tiling_does_not_change_the_coefficients(monkeypatch, modes,
                                                 gaussian):
    # A budget of 1 makes every mode its own tile, 3000 splits the rows of
    # N = 300 into n-ranges and groups the others, and 10**9 takes the
    # whole table at once.
    from dpl_heatlab.fdm import GaussianSourceFactors

    s, fdm_cfg = dh.load_bundled("ct_alpha2_q5_T1")
    table = build_mode_table(s, *modes)
    base = GaussianSourceFactors if gaussian else PointSourceFactors
    extra = (fdm_cfg.resolved_sigma(),) if gaussian else ()
    blocks = []

    class Recorded(base):
        def __call__(self, rows, cols, samples):
            block = super().__call__(rows, cols, samples)
            blocks.append(block.shape)
            return block

    def factory(sc, kx, ky, taus):
        return Recorded(sc, kx, ky, taus, *extra)

    ref = mode_coefficients(s, table, 7.0, factors_factory=factory)
    assert max(qt * width for qt, width in blocks) <= series.TILE_BUDGET
    scale = np.abs(ref).max()
    for budget, count in ((1, table.nmodes), (3000, None), (10 ** 9, 1)):
        blocks.clear()
        monkeypatch.setattr(series, "TILE_BUDGET", budget)
        got = mode_coefficients(s, table, 7.0, factors_factory=factory)
        assert all(qt * width <= budget or width == 1
                   for qt, width in blocks)
        assert sum(width for _, width in blocks) == table.nmodes
        assert count is None or len(blocks) == count
        assert np.abs(got - ref).max() <= 1e-15 * scale


def test_circle_tiles_keep_the_traced_peak_small():
    # ct_default at 80x80 takes Q = 512 samples; tiles of 240 modes held
    # about 1 MB per array and traced a 5.3 MB peak.  Within the budget
    # of 2^15 doubles the solve stays under 2.5 MB.
    import tracemalloc

    s, _ = dh.load_bundled("ct_default")
    table = build_mode_table(s, 80, 80)
    tracemalloc.start()
    try:
        mode_coefficients(s, table, 360.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


@pytest.mark.parametrize("gaussian", [False, True], ids=["point", "gaussian"])
def test_factor_tables_are_built_once_per_solve(monkeypatch, gaussian):
    # With a budget of 1 every mode is its own tile, yet the trajectory and
    # the per-axis tables are evaluated once for the whole solve.
    from dpl_heatlab import fdm

    s, fdm_cfg = dh.load_bundled("ct_alpha2_q5_T1")
    table = build_mode_table(s, 5, 4)
    calls = {"position": 0, "velocity": 0, "sine_projection": 0}
    for mod, name in ((series, "position"), (series, "velocity"),
                      (fdm, "sine_projection")):
        def counted(*args, _fn=getattr(mod, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mod, name, counted)
    monkeypatch.setattr(series, "TILE_BUDGET", 1)
    factory = (partial(fdm.GaussianSourceFactors,
                       sigma=fdm_cfg.resolved_sigma()) if gaussian else None)
    mode_coefficients(s, table, 7.0, factors_factory=factory)
    assert calls == {"position": 1, "velocity": 1,
                     "sine_projection": 2 if gaussian else 0}


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
    sub = coeffs[[index_of(big, m, n) for m, n in zip(small.m, small.n)]]
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


@pytest.mark.parametrize("x", [-0.1, 1.1, math.nan], ids=["below", "above", "nan"])
def test_sample_points_off_the_plate_are_rejected(x):
    s, table, coeffs = _assembly_case()   # L = H = 1
    sol = dh.SeriesSolution(s, table, coeffs, 4.0)
    with pytest.raises(ValueError, match=rf"sample x = {x} lies outside \[0, 1"):
        sol.at([0.5, x], [0.5, 0.5])
    with pytest.raises(ValueError, match=rf"sample y = {x} lies outside \[0, 1"):
        sol.at([0.5], [x])


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
    assert REGIME_NAMES[table.regime[index_of(table, 1, 1)]] == regime
    coeffs = mode_coefficients(s, table, t)
    scale = np.abs(coeffs).max()
    for m, n in [(1, 1), (2, 3)]:
        ref = simpson_mode_coefficient(s, m, n, t, panels=100_000)
        assert abs(coeffs[index_of(table, m, n)] - ref) <= 1e-9 * scale


@pytest.mark.parametrize("path", ["w = 0"])
def test_unfolded_paths_match_brute_force_simpson(path):
    """The one-harmonic case: a source parked at w = 0."""
    s, _ = dh.load_bundled("ct_alpha2_q5_T1")
    s = dh.validate_scenario(dataclasses.replace(
        s, trajectory=dataclasses.replace(s.trajectory, w=0.0)))
    t = 33.0
    table = build_mode_table(s, 3, 3)
    coeffs = mode_coefficients(s, table, t)
    scale = np.abs(coeffs).max()
    for m, n in [(1, 1), (2, 3)]:
        ref = simpson_mode_coefficient(s, m, n, t, panels=100_000)
        assert abs(coeffs[index_of(table, m, n)] - ref) <= 1e-9 * scale


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
    q = series._harmonic_samples(s, table.kx.max(), table.ky.max())
    if boundary is not None:
        wider = build_mode_table(s, *boundary)
        assert series._harmonic_samples(s, wider.kx.max(),
                                        wider.ky.max()) == 2 * q
    taus = np.arange(q) * (2.0 * math.pi / abs(s.trajectory.w) / q)
    spectrum = np.abs(np.fft.rfft(point_factors(s, table, taus), axis=0))
    aliasing = spectrum[-1].max() / spectrum.max()   # |F| at Nyquist
    coarse = mode_coefficients(s, table, t)
    monkeypatch.setattr(series, "_harmonic_samples", lambda *_: 2 * q)
    fine = mode_coefficients(s, table, t)
    assert aliasing <= 1e-13
    assert np.abs(fine - coarse).max() <= aliasing * np.abs(fine).max()


def _with_samples_everywhere(monkeypatch, s, table, factor):
    """Make every tile take factor x the solve's Q samples."""
    q = series._harmonic_samples(s, table.kx.max(), table.ky.max())
    monkeypatch.setattr(series, "_harmonic_samples", lambda *_: factor * q)


@pytest.mark.parametrize("name", dh.bundled_scenario_names())
def test_per_tile_samples_match_four_times_the_samples(monkeypatch, name):
    # Each tile samples the point source for its own largest rates; the
    # Jacobi-Anger bound keeps that at rounding level against 4Q everywhere.
    s, _ = dh.load_bundled(name)
    table = build_mode_table(s, *resolve_truncation(s))
    times = (1e-3, 0.37, 7.0, 25.0, 365.0)
    got = [mode_coefficients(s, table, t) for t in times]
    _with_samples_everywhere(monkeypatch, s, table, 4)
    for t, c in zip(times, got):
        ref = mode_coefficients(s, table, t)
        assert np.abs(c - ref).max() <= 1e-14 * np.abs(ref).max(), t


def test_gaussian_factors_keep_the_solve_samples_on_every_tile(monkeypatch):
    # The wall terms of sine_projection are not band-limited by k A: tiles
    # sampled for their own rates miss this reference by about 2.6e-12.
    from dpl_heatlab.fdm import GaussianSourceFactors

    s, _ = dh.load_bundled("lst_default")
    table = build_mode_table(s, 80, 80)
    factory = partial(GaussianSourceFactors, sigma=0.02)
    got = mode_coefficients(s, table, 0.37, factors_factory=factory)
    _with_samples_everywhere(monkeypatch, s, table, 4)
    ref = mode_coefficients(s, table, 0.37, factors_factory=factory)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_oracle_gaussian_coefficients_take_the_solve_samples_bitwise(
        monkeypatch):
    # The oracle command's series (as benchmarked): the same values as the
    # solve's Q samples on every tile, bit for bit.
    from dpl_heatlab.fdm import GaussianSourceFactors

    s, fdm_cfg = dh.load_bundled("ct_alpha2_q5_T1")
    table = build_mode_table(s, 40, 40)
    factory = partial(GaussianSourceFactors, sigma=fdm_cfg.resolved_sigma())
    got = mode_coefficients(s, table, 25.0, factors_factory=factory)
    _with_samples_everywhere(monkeypatch, s, table, 1)
    ref = mode_coefficients(s, table, 25.0, factors_factory=factory)
    assert np.array_equal(got, ref)


def _counting_transforms(monkeypatch):
    """Factory counting the values of ``__call__`` blocks and rfft inputs."""
    sizes = {"blocks": 0, "transformed": 0}
    rfft = np.fft.rfft

    def counted_rfft(a, *args, **kwargs):
        sizes["transformed"] += np.size(a)
        return rfft(a, *args, **kwargs)

    class Counted(PointSourceFactors):
        def __call__(self, rows, cols, samples=slice(None)):
            block = super().__call__(rows, cols, samples)
            sizes["blocks"] += block.size
            return block

    monkeypatch.setattr(np.fft, "rfft", counted_rfft)
    return Counted, sizes


def test_line_tiles_evaluate_only_their_own_samples(monkeypatch):
    # lst_q1_T1 at 60x60 takes Q = 512 for the solve, but its first rows
    # need only 128 and 256 samples.  On a line y does not move, so each
    # tile transforms its qt x R x-table alone: sum qt R = 14,336, the
    # 860,160 values of its (q, R C) blocks over the 60 columns, and no
    # block is formed.
    s, _ = dh.load_bundled("lst_q1_T1")
    table = build_mode_table(s, 60, 60)
    factory, sizes = _counting_transforms(monkeypatch)
    mode_coefficients(s, table, 365.0, factors_factory=factory)
    assert sizes == {"blocks": 0, "transformed": 14_336}


def test_line_spectra_hold_the_x_tables_and_rows_not_their_product(
        monkeypatch):
    # Each line tile hands the engine its (qt/2 + 1, R) x-spectrum and the
    # C-value y row: sum (qt/2 + 1) R = 7,228 and 14 rows of 60, where the
    # (qt/2 + 1, R C) product spectra held 433,680 values.
    s, _ = dh.load_bundled("lst_q1_T1")
    table = build_mode_table(s, 60, 60)
    counted, sizes = _counting_transforms(monkeypatch)
    held = {"spectra": 0, "rows": 0}

    class Held(counted):
        def spectrum(self, rows, cols, samples):
            spec, row = super().spectrum(rows, cols, samples)
            held["spectra"] += spec.size
            held["rows"] += row.size
            return spec, row

    mode_coefficients(s, table, 365.0, factors_factory=Held)
    assert held == {"spectra": 7_228, "rows": 840}
    assert sizes == {"blocks": 0, "transformed": 14_336}


@pytest.mark.parametrize("name,parked", [("ct_default", False),
                                         ("et_default", False),
                                         ("ct_default", True)],
                         ids=["circle", "ellipse", "parked"])
def test_spectrum_scaling_is_exactly_a_division_by_the_samples(monkeypatch,
                                                               name, parked):
    # 2 / qt and the halved DC and Nyquist rows are powers of two, so each
    # tile's amplitudes are bit for bit rfft / qt with the negative
    # harmonics' rows 1 ... qt/2 - 1 doubled.  Only the sign of an exact
    # zero may differ: numpy divides by qt + 0j, and its (re + im * 0)
    # turns some -0.0 into +0.0, so both sides add +0.0 first.  A parked
    # source (w = 0) takes one sample, whose only row is DC; at one double
    # per mode its table fits one tile, so a smaller budget splits it.
    s, _ = dh.load_bundled(name)
    if parked:
        s = dataclasses.replace(s, trajectory=dataclasses.replace(
            s.trajectory, w=0.0))
        monkeypatch.setattr(series, "TILE_BUDGET", 1000)
    table = build_mode_table(s, *resolve_truncation(s))
    taken = []

    class Checked(PointSourceFactors):
        def spectrum(self, rows, cols, samples):
            spec, row = super().spectrum(rows, cols, samples)
            block = self(rows, cols, samples)
            qt = len(block)
            ref = np.fft.rfft(block, axis=0) / qt
            ref[1:(qt + 1) // 2] *= 2.0
            assert row is None
            assert (spec + 0.0).tobytes() == (ref + 0.0).tobytes()
            taken.append(qt)
            return spec, row

    mode_coefficients(s, table, 25.0, factors_factory=Checked)
    assert len(taken) > 1
    if parked:
        assert set(taken) == {1}
    else:
        assert min(taken) > 2   # DC, Nyquist and doubled rows all occur


def test_moving_y_tiles_still_transform_their_full_blocks(monkeypatch):
    # On the ellipse every tile needs the solve's Q samples, and y moves,
    # so each tile forms and transforms its (Q, R C) block.
    s, _ = dh.load_bundled("et_default")
    table = build_mode_table(s, 20, 20)
    q = series._harmonic_samples(s, table.kx.max(), table.ky.max())
    factory, sizes = _counting_transforms(monkeypatch)
    mode_coefficients(s, table, 7.0, factors_factory=factory)
    assert sizes == {"blocks": q * table.nmodes,
                     "transformed": q * table.nmodes}


def _general_path(base):
    """``base`` forced onto the product path: rfft of every (q, R C) block."""
    class General(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.still = False   # the one-row y tables broadcast
    return General


@pytest.mark.parametrize("gaussian", [False, True], ids=["point", "gaussian"])
@pytest.mark.parametrize("name,lags", [("lst_default", None),
                                       ("lst_q1_T1", None),
                                       ("lst_q1_T1", (0.0, 1.0)),
                                       ("lst_q1_T1", (5.0, 1.0))],
                         ids=["classical", "lagged", "tau_T-only",
                              "oscillatory"])
def test_line_spectrum_matches_the_product_path(name, lags, gaussian):
    from dpl_heatlab.fdm import GaussianSourceFactors

    s, _ = dh.load_bundled(name)
    if lags is not None:
        s = with_lags(s, *lags)
    table = build_mode_table(s, *resolve_truncation(s))
    base = GaussianSourceFactors if gaussian else PointSourceFactors
    sigma = {"sigma": 0.02} if gaussian else {}
    line = partial(base, **sigma)
    product = partial(_general_path(base), **sigma)
    assert line(s, *axis_rates(table), np.zeros(1)).still
    for t in (1e-3, 0.37, 7.0, 25.0, 365.0):
        got = mode_coefficients(s, table, t, factors_factory=line)
        ref = mode_coefficients(s, table, t, factors_factory=product)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), t


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


@pytest.mark.parametrize("t", [1e-3, 1e-2])
@pytest.mark.parametrize("name", ["lst_q1_T1", "lst_default",
                                  "ct_alpha2_q5_T1"])
def test_start_up_coefficients_match_brute_force_simpson(name, t):
    # Long before the slowest modes decay, e^(i w t') - kappa - i w lambda
    # is a difference of nearly equal terms; written as form 2 (or 3) it
    # keeps every digit.  The complex division of the harmonics missed
    # Simpson by 6.7e-8 (lst_q1_T1), 1.2e-11 (lst_default) and 6.6e-11
    # (ct_alpha2_q5_T1) of max|c| at t = 1e-3.
    s, _ = dh.load_bundled(name)
    table = build_mode_table(s, 12, 12)
    coeffs = mode_coefficients(s, table, t)
    scale = np.abs(coeffs).max()
    for m, n in [(1, 1), (1, 2), (2, 3), (4, 1), (5, 7), (9, 4), (12, 12)]:
        ref = simpson_mode_coefficient(s, m, n, t, panels=2_000, table=table)
        err = abs(coeffs[index_of(table, m, n)] - ref)
        assert err <= 1e-13 * scale, (m, n)


@pytest.mark.parametrize("name", dh.bundled_scenario_names())
def test_real_response_matches_the_complex_reference(name):
    # One real factor per (harmonic, mode) and BLAS sums against one
    # complex division per pair, at every bundled scenario's default
    # truncation and times past the start-up.
    s, _ = dh.load_bundled(name)
    table = build_mode_table(s, *resolve_truncation(s))
    for t in (7.0, 25.0, 365.0 if s.trajectory.kind == "line" else 360.0):
        got = mode_coefficients(s, table, t)
        ref = complex_response_coefficients(s, table, t)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), t


@pytest.mark.parametrize("tau_q", [5.0, 50.0])
def test_lightly_damped_modes_match_the_complex_reference(tau_q):
    # tau_T = 0 leaves oscillatory modes with b2 up to 90 (tau_q = 5) and
    # 285 (tau_q = 50) times b1, where the expanded |s1 s2|^2 cancels near
    # w = b2; written there as (P - w^2)^2 + (w S)^2 it keeps the sums
    # within 3.4e-14 of max|c|, against 7.6e-13 without.
    s, _ = dh.load_bundled("ct_alpha2_q5_T1")
    s = with_lags(s, tau_q, 0.0)
    table = build_mode_table(s, 40, 40)
    assert (table.splitting > 50.0 * table.damping).any()
    got = mode_coefficients(s, table, 25.0)
    ref = complex_response_coefficients(s, table, 25.0)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


EXTREMES = {"alpha=1e-300": {"alpha": 1e-300},
            "tau_q=1e-200": {"tau_q": 1e-200},
            "w=1e100": {"w": 1e100}, "w=1e-200": {"w": 1e-200}}
# (scenario, change, modes per axis): every change at 6x6, and the widest
# table the suite affords, where the solve's rates spread by 2e4 and its
# frequencies by q / 2 under one power of two.
EXTREME_CASES = ([(name, change, 6) for name in ("lst_q1_T1", "lst_default")
                  for change in EXTREMES]
                 + [("lst_default", "alpha=1e-300", 200),
                    ("lst_default", "w=1e100", 200)])


@pytest.mark.parametrize("name,change,modes", EXTREME_CASES, ids=[
    f"{name}-{change}" if modes == 6 else f"{name}-{modes}x{modes}-{change}"
    for name, change, modes in EXTREME_CASES])
def test_extreme_rates_and_frequencies_keep_the_complex_range(name, change,
                                                              modes):
    # Without the exact DC term and the solve's power of two, 1 / |s1 s2|^2
    # overflows or underflows here while a complex division does not.
    s, _ = dh.load_bundled(name)
    fields = dict(EXTREMES[change])
    if "w" in fields:
        fields = {"trajectory": dataclasses.replace(s.trajectory,
                                                    w=fields["w"])}
    s = dh.validate_scenario(dataclasses.replace(s, **fields))
    table = build_mode_table(s, modes, modes)
    ref = complex_response_coefficients(s, table, 25.0)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = mode_coefficients(s, table, 25.0)
    assert np.isfinite(got).all()
    scale = np.abs(ref).max()
    assert 0.0 < scale < np.inf
    assert np.abs(got - ref).max() <= 1e-12 * scale


def _with_rate(name, w):
    s, _ = dh.load_bundled(name)
    return dataclasses.replace(s, trajectory=dataclasses.replace(s.trajectory,
                                                                 w=w))


@pytest.mark.parametrize("name,w", [
    ("ct_alpha2_q5_T1", 1e300), ("ct_alpha2_q5_T1", 1e303),
    ("ct_alpha2_q5_T1", 1e304), ("lst_q1_T1", 1e300), ("lst_q1_T1", 1e303),
    ("lst_q1_T1", 1e305)])
def test_huge_rates_keep_lagged_coefficients_finite(name, w):
    # The scale is about log2 w here, and each term row takes its power of
    # two back only after its product with the sums: none of them flushes
    # to 0 first (the coefficients came out +-inf when one did).  The
    # spectrum F grows like w too; divided by a power of two of its own,
    # E F stays finite at 1e304 and 1e305.  Every flag but underflow
    # raises; terms such as P / w^4 lie below the double range and flush
    # to 0.
    s = _with_rate(name, w)
    table = build_mode_table(s, 6, 6)
    with np.errstate(all="raise", under="ignore"):
        got = mode_coefficients(s, table, 25.0)
    with np.errstate(over="ignore"):   # the reference's s1 s2 ~ w^2 is inf
        ref = complex_response_coefficients(s, table, 25.0)
    scale = np.abs(ref).max()
    assert np.isfinite(got).all() and 0.0 < scale < np.inf
    assert np.abs(got - ref).max() <= 1e-15 * scale


@pytest.mark.parametrize("name,w", [("lst_q1_T1", 1e306),
                                    ("ct_alpha2_q5_T1", 1e306),
                                    ("lst_q1_T1", 1e307),
                                    ("ct_alpha2_q5_T1", 1e307)])
def test_overflowing_harmonics_raise_and_name_the_rate(name, w):
    # At 1e306 the spectrum's rfft overflows, in the complex reference
    # too; at 1e307 the top harmonic's frequency itself is inf.  Both
    # raise, naming w and t.
    s = _with_rate(name, w)
    table = build_mode_table(s, 6, 6)
    with (pytest.raises(OverflowError) as err,
          np.errstate(over="ignore", invalid="ignore")):
        mode_coefficients(s, table, 25.0)
    assert f"w = {w!r}" in str(err.value) and "t = 25.0" in str(err.value)


def _parked_steady_case():
    """ct_alpha2_q5_T1 parked at (0.75, 0.5), the points of [0.05, 0.95]^2
    on a 19 x 19 grid more than 0.15 from it, and (theta / k) G there."""
    s, _ = dh.load_bundled("ct_alpha2_q5_T1")
    s = dataclasses.replace(s, trajectory=dataclasses.replace(s.trajectory,
                                                              w=0.0))
    x0, y0 = dh.position(s.trajectory, 0.0)
    assert (x0, y0) == (0.75, 0.5)
    axis = np.linspace(0.05, 0.95, 19)
    x, y = (c.ravel() for c in np.meshgrid(axis, axis, indexing="ij"))
    far = np.hypot(x - x0, y - y0) > 0.15
    x, y = x[far], y[far]
    ref = s.theta / s.k * dirichlet_green(s.L, s.H, x, y, x0, y0)
    return s, x, y, ref


def test_parked_source_converges_to_the_green_function_at_second_order():
    # The steady state of every branch is (theta / k) G.  Away from the
    # source the truncated double series misses it by O(1 / M^2): measured
    # 6.93e-3, 1.83e-3 and 4.65e-4 of the peak at 20, 40 and 80 modes per
    # axis, ratios 3.78 and 3.94.
    s, x, y, ref = _parked_steady_case()
    peak = np.abs(ref).max()
    errors = [np.abs(dh.solve_series(s, 1000.0, M, M).at(x, y) - s.T0
                     - ref).max() / peak for M in (20, 40, 80)]
    assert errors[0] / errors[1] >= 3.5 and errors[1] / errors[2] >= 3.5
    assert errors[2] <= 5e-4


def test_lags_drop_out_of_the_parked_steady_state():
    # (5, 1) is oscillatory, (0, 0) classical and (1, 5) overdamped; at
    # t = 1000 the slowest start-up term is e^(-125) and the three agree
    # to 5.4e-16 of the peak (measured).
    s, x, y, ref = _parked_steady_case()
    values = [dh.solve_series(with_lags(s, q, lag_t), 1000.0, 80, 80).at(x, y)
              for q, lag_t in ((5.0, 1.0), (0.0, 0.0), (1.0, 5.0))]
    bound = 1e-14 * np.abs(ref).max()
    for other in values[1:]:
        assert np.abs(other - values[0]).max() <= bound
