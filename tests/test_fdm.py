import dataclasses
import math
from functools import partial

import numpy as np
import pytest

import dpl_heatlab as dh
from dpl_heatlab.errors import UnstableConfig
from dpl_heatlab.fdm import (GaussianSourceFactors, _faddeeva, checked_grid,
                             deviation_report, project_gaussian_source_series,
                             sine_projection, solve_fdm)
from dpl_heatlab.modes import build_mode_table
from dpl_heatlab.series import PointSourceFactors, mode_coefficients
from helpers import (classical, outer_product_source, simpson, source_track,
                     sparse_lu_fdm, tiny_scenario, with_lags,
                     wofz_sine_projection)


def unit_mode(xx, yy):
    return np.sin(np.pi * xx) * np.sin(np.pi * yy)


def test_zero_strength_source_stays_ambient():
    s = tiny_scenario(theta=0.0, T0=120.0)
    cfg = dh.FdmConfig(hx=0.1, hy=0.1, dt=0.1, t_end=1.0)
    fields = solve_fdm(s, cfg)
    for f in fields:
        assert np.array_equal(f.values, np.full((11, 11), 120.0))
    rep = deviation_report(fields[-1], fields[0], 120.0)
    assert rep["rms_rel"] == 0.0 and rep["max_abs"] == 0.0


def test_snapshot_times_and_boundaries():
    s = tiny_scenario(T0=5.0)
    cfg = dh.FdmConfig(hx=0.1, hy=0.1, dt=0.05, t_end=1.0, store_every=5)
    fields = solve_fdm(s, cfg)
    times = [f.t for f in fields]
    assert times[0] == 0.0 and times[-1] == 1.0
    assert times[1:5] == [0.25, 0.5, 0.75, 1.0][:4]
    for f in fields:
        v = f.values
        assert (v[0, :] == 5.0).all() and (v[-1, :] == 5.0).all()
        assert (v[:, 0] == 5.0).all() and (v[:, -1] == 5.0).all()


def test_classical_stepping_matches_mode_decay():
    # No source; start on the fundamental eigenmode and watch it relax.
    s = tiny_scenario(theta=0.0, alpha=0.05, tau_q=0.0, tau_T=0.0)
    cfg = dh.FdmConfig(hx=0.025, hy=0.025, dt=0.0025, t_end=1.0)
    final = solve_fdm(s, cfg, initial=unit_mode)[-1]
    lam2 = 2.0 * math.pi ** 2
    exact = math.exp(-s.alpha * lam2 * 1.0)
    center = final.values[20, 20]
    assert math.isclose(center, exact, rel_tol=2e-3)


def test_lagged_stepping_matches_two_root_decay():
    # Equal lags factor the mode equation exactly: roots -1/tau, -alpha k2.
    tau = 0.25
    s = tiny_scenario(theta=0.0, alpha=0.05, tau_q=tau, tau_T=tau)
    cfg = dh.FdmConfig(hx=0.025, hy=0.025, dt=0.0025, t_end=1.0)
    final = solve_fdm(s, cfg, initial=unit_mode)[-1]
    lam2 = 2.0 * math.pi ** 2
    r1, r2 = -1.0 / tau, -s.alpha * lam2
    exact = (r1 * math.exp(r2) - r2 * math.exp(r1)) / (r1 - r2)
    center = final.values[20, 20]
    assert math.isclose(center, exact, rel_tol=2e-3)


def test_spatial_convergence_is_second_order():
    s = tiny_scenario(theta=0.0, alpha=0.05, tau_q=0.0, tau_T=0.0)
    lam2 = 2.0 * math.pi ** 2
    exact = math.exp(-s.alpha * lam2 * 1.0)
    errors = []
    for h in (0.05, 0.025):
        cfg = dh.FdmConfig(hx=h, hy=h, dt=0.00125, t_end=1.0)
        final = solve_fdm(s, cfg, initial=unit_mode)[-1]
        i = int(round(0.5 / h))
        errors.append(abs(final.values[i, i] - exact))
    assert errors[0] / errors[1] > 3.0


def test_stationary_classical_run_reaches_analytic_steady_state():
    # Stationary smoothed source; the steady temperature has the closed
    # series sum 4 theta p_m p_n sin sin / (L H k lambda^2).
    traj = dh.Trajectory(kind="line", A=1e-30, B=0.0, w=1.0)
    s = tiny_scenario(theta=40.0, k=3.0, alpha=0.05, tau_q=0.0, tau_T=0.0,
                      trajectory=traj)
    sigma = 0.075
    cfg = dh.FdmConfig(hx=0.025, hy=0.025, dt=0.01, t_end=12.0, sigma=sigma,
                       store_every=1200)
    final = solve_fdm(s, cfg)[-1]

    xi = np.linspace(0.0, 1.0, 200_001)
    gauss = np.exp(-((xi - 0.5) ** 2) / (2.0 * sigma ** 2)) / (
        sigma * math.sqrt(2.0 * math.pi))
    proj = {m: simpson(gauss * np.sin(m * math.pi * xi), xi[1]) for m in
            range(1, 41)}
    xs = np.linspace(0.0, 1.0, 41)
    steady = np.zeros((41, 41))
    for m in range(1, 41):
        for n in range(1, 41):
            lam2 = (m * m + n * n) * math.pi ** 2
            amp = 4.0 * s.theta * proj[m] * proj[n] / (s.k * lam2)
            steady += amp * np.outer(np.sin(m * math.pi * xs),
                                     np.sin(n * math.pi * xs))
    err = np.abs(final.values - steady).max()
    assert err < 5e-3 * steady.max()


@pytest.mark.parametrize("tau_q,tau_T", [(1.0, 0.5), (0.0, 0.5), (1.0, 0.0)],
                         ids=["lagged", "crank-nicolson", "lagged-tau_T-0"])
def test_fast_diagonalization_matches_sparse_lu_steps(tau_q, tau_T):
    # Non-square plate, hx != hy and nx != ny, so a transposed axis or a
    # swapped eigenbasis shows.  Lagged: first step A - C, then A.  At
    # tau_T = 0 the Laplacian weight of A is -1/4, so the ratios that
    # split B and C against A take other values.
    traj = dh.Trajectory(kind="ellipse", A=0.3, B=0.15, w=0.8)
    s = tiny_scenario(L=1.0, H=0.7, alpha=0.05, tau_q=tau_q, tau_T=tau_T,
                      T0=20.0, trajectory=traj)
    cfg = dh.FdmConfig(hx=0.04, hy=0.05, dt=0.05, t_end=2.0, sigma=0.12,
                       store_every=7)
    got = [f.values for f in solve_fdm(s, cfg)]
    ref = sparse_lu_fdm(s, cfg)
    assert got[0].shape == (26, 15) and len(got) == len(ref) == 7
    peak = max(np.abs(v - s.T0).max() for v in ref)
    assert peak > 0.0
    for g, r in zip(got, ref):
        assert np.abs(g - r).max() <= 1e-12 * peak


@pytest.mark.parametrize("tau_q", [1.0, 0.0], ids=["lagged", "classical"])
def test_rank2_source_matches_outer_product_form(tau_q):
    import dpl_heatlab.fdm as fdm_mod

    traj = dh.Trajectory(kind="ellipse", A=0.3, B=0.15, w=0.8)
    s = tiny_scenario(L=1.0, H=0.7, tau_q=tau_q, trajectory=traj)
    xi = np.linspace(0.0, 1.0, 26)[1:-1]
    yi = np.linspace(0.0, 0.7, 15)[1:-1]
    for t in (0.0, 0.37, 2.9, 6.1):
        got = fdm_mod._source_grid(s, xi, yi, 0.12, source_track(s, t))
        ref = outer_product_source(s, xi, yi, 0.12, t)
        assert got.shape == (24, 13)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def _wrap_source_grid(monkeypatch, poison=None):
    """Count fdm._source_grid calls; ``poison`` replaces the third result."""
    import dpl_heatlab.fdm as fdm_mod

    real, calls = fdm_mod._source_grid, []

    def counted(*args):
        calls.append(args)
        q = real(*args)
        return np.full_like(q, poison) if poison and len(calls) == 3 else q

    monkeypatch.setattr(fdm_mod, "_source_grid", counted)
    return calls


@pytest.mark.parametrize("lagged", [True, False],
                         ids=["lagged", "crank-nicolson"])
def test_source_grid_runs_once_per_step(monkeypatch, lagged):
    s = tiny_scenario()
    if not lagged:
        s = classical(s)
    calls = _wrap_source_grid(monkeypatch)
    solve_fdm(s, dh.FdmConfig(hx=0.1, hy=0.1, dt=0.1, t_end=1.3, sigma=0.25,
                              store_every=4))
    assert len(calls) == 13


@pytest.mark.parametrize("lagged", [True, False],
                         ids=["lagged", "crank-nicolson"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_blowup_sentinel_catches_non_finite_steps(monkeypatch, lagged, bad):
    s = tiny_scenario()
    if not lagged:
        s = classical(s)
    _wrap_source_grid(monkeypatch, poison=bad)
    with pytest.raises(UnstableConfig, match="at step 3;"):
        solve_fdm(s, dh.FdmConfig(hx=0.1, hy=0.1, dt=0.1, t_end=1.0,
                                  sigma=0.25))


def test_stored_fields_are_not_overwritten_by_later_steps():
    # The march rotates fixed buffers, so a stored field that aliased one
    # would change under later steps.  dt = 1/16 makes k dt and
    # (k dt) / k exact, so a run ending at step k takes the same steps.
    traj = dh.Trajectory(kind="ellipse", A=0.3, B=0.15, w=0.8)
    s = tiny_scenario(L=1.0, H=0.7, alpha=0.05, tau_q=1.0, tau_T=0.5,
                      T0=20.0, trajectory=traj)
    cfg = dh.FdmConfig(hx=0.04, hy=0.05, dt=0.0625, t_end=0.625, sigma=0.12,
                       store_every=1)
    stored = solve_fdm(s, cfg)
    assert stored[0].values.shape == (26, 15) and len(stored) == 11
    assert np.array_equal(stored[0].values, np.full((26, 15), 20.0))
    for k, field in enumerate(stored[1:], start=1):
        assert field.t == k * cfg.dt
        alone = solve_fdm(s, dataclasses.replace(cfg, t_end=field.t))[-1]
        assert np.array_equal(field.values, alone.values), k
    # A second solve in the same process reads no stale buffer.
    again = solve_fdm(s, cfg)
    assert all(np.array_equal(a.values, b.values)
               for a, b in zip(stored, again))


# --- Gaussian-matched series source ----------------------------------------


def test_faddeeva_matches_scipy_wofz():
    # sine_projection evaluates w at +-y + ix with x = distance to a wall /
    # (sigma sqrt 2) in [0, 27) and y = rate sigma / sqrt 2.  Sample that
    # half-strip with |y| up to 1e4, x = 0 and both signs of y included.
    from scipy.special import wofz

    rng = np.random.default_rng(11)
    ys = np.geomspace(1e-8, 1e4, 241)
    grid = (np.concatenate((-ys, [0.0], ys))[:, None]
            + 1j * np.linspace(0.0, 27.0, 271, endpoint=False)).ravel()
    x = rng.uniform(0.0, 27.0, 100_000)
    x[:1000] = 0.0
    y = np.where(rng.random(x.size) < 0.5, -1.0, 1.0) * np.concatenate(
        (rng.uniform(0.0, 1e4, 50_000), rng.uniform(0.0, 30.0, 50_000)))
    for z in (grid, y + 1j * x):
        ref = wofz(z)
        assert np.max(np.abs(_faddeeva(z) - ref) / np.abs(ref)) <= 5e-14


def test_projection_tables_match_wofz_reference():
    # The oracle's scenario: rates m pi for m <= 80 on the unit plate, sigma
    # from its fdm block, and 3999 source centres along one period of its
    # ring.  The ring stays 4.7 sigma sqrt 2 from the walls, where the
    # Faddeeva terms are damped by e^(-x^2) < 3e-10, so centres across the
    # whole plate, walls included, are checked as well.
    s, cfg = dh.load_bundled("ct_alpha2_q5_T1")
    rates = np.pi * np.arange(1, 81)
    taus = np.linspace(0.0, 2.0 * math.pi / s.trajectory.w, 3999)
    x, y, _, _ = source_track(s, taus)
    sigma = cfg.resolved_sigma()
    for centers in (x, y, np.linspace(0.0, s.L, 3999)):
        value, q = sine_projection(rates, s.L, centers, sigma)
        ref, dref = wofz_sine_projection(rates, s.L, centers, sigma)
        assert np.max(np.abs(value - ref)) <= 1e-14 * np.max(np.abs(ref))
        slope = rates * q
        assert np.max(np.abs(slope - dref)) <= 1e-14 * np.max(np.abs(dref))


def test_projection_matches_brute_force_quadrature():
    sigma = 0.05
    rate = math.pi
    got = sine_projection(np.array([rate]), 1.0, np.array([0.5]), sigma)[0][0, 0]
    xi = np.linspace(0.0, 1.0, 400_001)
    gauss = np.exp(-((xi - 0.5) ** 2) / (2.0 * sigma ** 2)) / (
        sigma * math.sqrt(2.0 * math.pi))
    ref = simpson(gauss * np.sin(rate * xi), xi[1])
    assert math.isclose(got, ref, rel_tol=1e-12)
    # interior Gaussian: the infinite-domain attenuation is a tight model
    assert math.isclose(got, math.exp(-(rate * sigma) ** 2 / 2.0), rel_tol=1e-8)
    assert 0.0 < got <= 1.0


def test_projection_attenuates_but_never_amplifies():
    sigma = 0.04
    rates = np.pi * np.arange(1, 30)
    centers = np.linspace(0.2, 0.8, 31)
    table, _ = sine_projection(rates, 1.0, centers, sigma)
    assert (np.abs(table) <= 1.0 + 1e-12).all()
    # rows follow centers: the fundamental tracks sin(pi c) up to attenuation
    mid = len(centers) // 2
    assert table[mid, 0] > 0.99
    ref = np.sin(np.pi * centers) * math.exp(-(np.pi * sigma) ** 2 / 2.0)
    assert np.max(np.abs(table[:, 0] - ref)) < 1e-6


@pytest.mark.parametrize("sigma", [0.0375, 0.1, 0.15])
def test_projection_near_the_walls_matches_brute_force(sigma):
    # Centres on, and 0.3, 1 and 2.5 sigma inside, each wall: the clipped
    # tails carry up to half the mass there.  Both walls, odd and even m.
    rates = np.pi * np.arange(1, 81)
    offsets = sigma * np.array([0.0, 0.3, 1.0, 2.5])
    centers = np.concatenate([offsets, 1.0 - offsets])
    value, q = sine_projection(rates, 1.0, centers, sigma)
    slope = rates * q
    xi = np.linspace(0.0, 1.0, 100_001)   # Simpson error <= 4e-14 here
    basis = np.sin(np.outer(xi, rates))
    for i, c in enumerate(centers):
        gauss = np.exp(-((xi - c) ** 2) / (2.0 * sigma ** 2)) / (
            sigma * math.sqrt(2.0 * math.pi))
        ref = simpson(gauss[:, None] * basis, xi[1])
        # d/dc of g(xi - c) is g(xi - c) (xi - c) / sigma^2
        dref = simpson((gauss * (xi - c) / sigma ** 2)[:, None] * basis, xi[1])
        assert np.max(np.abs(value[i] - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(slope[i] - dref)) <= 1e-12 * np.max(np.abs(dref))
        # the whole-line gain alone misses the clipped tails
        whole_line = np.exp(-(rates * sigma) ** 2 / 2.0) * np.sin(rates * c)
        assert np.max(np.abs(whole_line - ref)) >= 1e-3 * np.max(np.abs(ref))


def test_ring_far_from_walls_scales_point_coefficients_by_the_gain():
    # At sigma = 0.005 the ring (0.25 from every wall) sits 35 sigma*sqrt 2
    # inside, so no wall term fires and the Gaussian factors are exactly
    # the point factors times exp(-k^2 sigma^2 / 2); t = 12.5 is folded.
    s, _ = dh.load_bundled("ct_alpha2_q5_T1")
    sigma = 0.005
    table = build_mode_table(s, 16, 16)
    point = mode_coefficients(s, table, 12.5)
    gauss = mode_coefficients(
        s, table, 12.5,
        factors_factory=lambda sc, kx, ky, taus: GaussianSourceFactors(
            sc, kx, ky, taus, sigma))
    gain = np.exp(-table.k2 * sigma ** 2 / 2.0)
    assert np.max(np.abs(gauss - gain * point)) <= 1e-9 * np.max(np.abs(point))


def test_each_factor_class_has_its_own_call_entry(monkeypatch):
    # perfbench wraps PointSourceFactors.__call__ and then
    # GaussianSourceFactors.__call__; an inherited entry would put the
    # Gaussian's calls inside the point span and count them twice.
    wrapped = []

    def spy(self, rows, cols):
        wrapped.append(type(self))
        return original(self, rows, cols)

    original = PointSourceFactors.__call__
    monkeypatch.setattr(PointSourceFactors, "__call__", spy)
    s = tiny_scenario(tau_q=1.0, tau_T=1.0)
    rates, taus = np.pi * np.arange(1.0, 4.0), np.linspace(0.0, 9.0, 5)
    every = slice(None), slice(None)
    GaussianSourceFactors(s, rates, rates, taus, 0.05)(*every)
    assert wrapped == []
    PointSourceFactors(s, rates, rates, taus)(*every)
    assert wrapped == [PointSourceFactors]


def test_vanishing_sigma_recovers_point_source_factors():
    s = tiny_scenario(tau_q=1.0, tau_T=1.0)
    kx = np.pi * np.array([1.0, 2.0, 3.0])
    ky = np.pi * np.array([1.0, 3.0, 2.0])
    taus = np.linspace(0.0, 9.0, 23)
    every = slice(None), slice(None)
    sharp = GaussianSourceFactors(s, kx, ky, taus, 5e-4)(*every)
    point = PointSourceFactors(s, kx, ky, taus)(*every)
    assert np.max(np.abs(sharp - point)) < 1e-4 * np.max(np.abs(point))


def test_matched_series_and_fdm_agree_on_coarse_run():
    s, _ = dh.load_bundled("ct_alpha2_q1_T1")
    cfg = dh.FdmConfig(hx=0.05, hy=0.05, dt=0.025, t_end=5.0, sigma=0.15)
    fdm_final = solve_fdm(s, cfg)[-1]
    series = project_gaussian_source_series(s, 0.15, fdm_final.grid, 5.0,
                                            M=24, N=24)
    rep = deviation_report(fdm_final, series, s.T0)
    assert rep["rms_rel"] < 0.05


def _moved(s, kind, A, B):
    """``s`` with its source on the path ``kind`` of semi-axes A and B."""
    return dataclasses.replace(s, trajectory=dataclasses.replace(
        s.trajectory, kind=kind, A=A, B=B))


def assert_fdm_converges_to_the_series_at_second_order(s):
    """Halving h = dt over 0.025/0.0125/0.00625 cuts the FDM-series gap by
    3.9-4.1, and the Richardson combination of the two finest runs is
    within 1e-5 (rms relative) of the series: sigma = 0.05, t_end = 5,
    40x40 modes."""
    sigma, t_end = 0.05, 5.0
    solution = dh.solve_series(
        s, t_end, 40, 40,
        factors_factory=partial(GaussianSourceFactors, sigma=sigma))
    finals = [solve_fdm(s, dh.FdmConfig(hx=h, hy=h, dt=h, t_end=t_end,
                                        sigma=sigma, store_every=10 ** 6))[-1]
              for h in (0.025, 0.0125, 0.00625)]
    gaps = [deviation_report(f, solution.field(f.grid), s.T0)["rms_abs"]
            for f in finals]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.9 <= coarse / fine <= 4.1, gaps
    coarse, fine = finals[1], finals[2]
    extrapolated = dataclasses.replace(
        coarse, values=(4.0 * fine.values[::2, ::2] - coarse.values) / 3.0)
    rep = deviation_report(extrapolated, solution.field(coarse.grid), s.T0)
    assert rep["rms_rel"] <= 1e-5


@pytest.mark.parametrize("name", ["ct_alpha2_q1_T1", "ct_alpha2_q5_T1"])
def test_line_fdm_converges_to_the_series_at_second_order(name):
    # The plate's source moved onto a line, where the series takes the
    # separable spectrum.  The lst_* plates (alpha = 1.29e-5) are not in
    # the asymptotic range at these h: their ratios read 0.58 and 1.37.
    s, _ = dh.load_bundled(name)
    assert_fdm_converges_to_the_series_at_second_order(
        _moved(s, "line", 0.3, 0.0))


@pytest.mark.parametrize("name", ["ct_alpha2_q1_T1", "ct_alpha2_q5_T1"])
def test_ellipse_fdm_converges_to_the_series_at_second_order(name):
    # The lagged branch on an ellipse: x and y both move, so the series
    # takes the general (product) spectrum.
    s, _ = dh.load_bundled(name)
    assert_fdm_converges_to_the_series_at_second_order(
        _moved(s, "ellipse", 0.3, 0.2))


@pytest.mark.parametrize("name,lags", [("ct_alpha2_q1_T5", (0.0, 5.0)),
                                       ("ct_alpha2_q1_T1", (0.0, 0.0))],
                         ids=["tau_T-only", "classical"])
def test_circle_fdm_converges_to_the_series_at_second_order(name, lags):
    # The two diffusive (tau_q = 0) kernels on the bundled circle.
    s, _ = dh.load_bundled(name)
    assert_fdm_converges_to_the_series_at_second_order(with_lags(s, *lags))


@pytest.mark.parametrize("sigma", [0.0, -0.1, math.inf, math.nan])
def test_matched_series_rejects_a_non_positive_or_non_finite_sigma(sigma):
    s = tiny_scenario()
    with pytest.raises(ValueError, match="positive and finite"):
        project_gaussian_source_series(s, sigma, dh.GridSpec(5, 5), 1.0,
                                       M=4, N=4)


def test_stability_scan_runs_before_stepping(monkeypatch):
    import dpl_heatlab.fdm as fdm_mod

    def explode(*args, **kwargs):
        raise UnstableConfig("synthetic instability")

    monkeypatch.setattr(fdm_mod, "_jury_scan", explode)
    with pytest.raises(UnstableConfig):
        solve_fdm(tiny_scenario(), dh.FdmConfig(hx=0.1, hy=0.1, dt=0.1,
                                                t_end=1.0))


@pytest.mark.parametrize("change,name", [
    ({"alpha": 1e-305}, "tau_q / (alpha dt^2)"),
    ({"alpha": 1e-307, "tau_q": 0.0}, "1 / (alpha dt)"),
    ({"tau_T": 1e306}, "a Laplacian row of the update"),
], ids=["lagged-alpha", "classical-alpha", "tau_T"])
def test_overflowing_scheme_coefficient_fails_the_scan(change, name):
    # Valid scenarios whose scheme coefficients overflow: the scan used to
    # report the NaN rows as a root-condition failure (or, on the
    # diffusive branch, pass inf <= inf), and a smaller dt makes the
    # first two larger still.
    s, block = dh.load_bundled("ct_alpha2_q5_T1")
    s = dh.validate_scenario(dataclasses.replace(s, **change))
    with pytest.raises(OverflowError) as err, np.errstate(all="ignore"):
        checked_grid(s, block)
    assert str(err.value) == (f"FDM scheme overflows at alpha={s.alpha!r}, "
                              f"dt=0.0125: {name} is not finite")


@pytest.mark.parametrize("lagged", [True, False])
@pytest.mark.parametrize("t_end", [0.1, 0.2])
def test_blowup_sentinel_checks_the_first_step(monkeypatch, lagged, t_end):
    import dpl_heatlab.fdm as fdm_mod

    monkeypatch.setattr(fdm_mod, "BLOWUP_SENTINEL", 1e-30)
    s = tiny_scenario(tau_q=1.0, tau_T=1.0)
    if not lagged:
        s = classical(s)
    cfg = dh.FdmConfig(hx=0.1, hy=0.1, dt=0.1, t_end=t_end, sigma=0.25)
    with pytest.raises(UnstableConfig, match="at step 1;"):
        solve_fdm(s, cfg)


def test_config_validation():
    s = tiny_scenario()
    with pytest.raises(ValueError):
        solve_fdm(s, dh.FdmConfig(hx=0.1, hy=0.1, dt=0.1, t_end=1.0,
                                  sigma=0.05))   # sigma under-resolved
    with pytest.raises(ValueError):
        solve_fdm(s, dh.FdmConfig(hx=0.1, hy=0.1, dt=-0.1, t_end=1.0))
    for field in ("dt", "t_end"):
        for value in (math.inf, math.nan):
            cfg = dh.FdmConfig(hx=0.1, hy=0.1, dt=0.1, t_end=1.0)
            with pytest.raises(ValueError, match="finite"):
                solve_fdm(s, dataclasses.replace(cfg, **{field: value}))
    with pytest.raises(ValueError):
        solve_fdm(s, dh.FdmConfig(hx=0.1, hy=0.1, dt=0.1, t_end=1.0,
                                  store_every=0))


def test_deviation_report_semantics():
    grid = dh.GridSpec(3, 3)
    ref = dh.TemperatureField(grid=grid, t=1.0, values=np.full((3, 3), 12.0))
    cand = dh.TemperatureField(grid=grid, t=1.0, values=np.full((3, 3), 13.0))
    rep = deviation_report(cand, ref, 10.0)
    assert rep["rms_abs"] == 1.0
    assert rep["rms_rel"] == 0.5
    assert rep["max_abs"] == 1.0
    assert rep["max_signal"] == 2.0
    with pytest.raises(ValueError):
        deviation_report(cand, dh.TemperatureField(grid=dh.GridSpec(2, 2),
                                                   t=1.0,
                                                   values=np.zeros((2, 2))),
                         10.0)
