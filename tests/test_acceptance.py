"""End-to-end acceptance battery.

Each test checks one shipped guarantee and prints a single PASS/FAIL
verdict line (visible with ``pytest -s`` or on failure) before asserting,
so a full run doubles as a checklist report.
"""

import math
import time
from dataclasses import replace

import numpy as np

import dpl_heatlab as dh
from dpl_heatlab.analysis import (line_profile_y, source_peak_distance_sweep,
                                  trajectory_profile)
from dpl_heatlab.fdm import (deviation_report, project_gaussian_source_series,
                             solve_fdm)
from dpl_heatlab.modes import (CRITICAL, OSCILLATORY, OVERDAMPED,
                               build_mode_table, kernel_matrix)
from dpl_heatlab.series import (assemble_field, mode_coefficients,
                                resolve_truncation, solve_series)
from dpl_heatlab.trajectory import position, velocity
from coefficient_history import CoefficientHistory


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _classical_twin(s):
    return dh.validate_scenario(replace(s, tau_q=0.0, tau_T=0.0))


def test_acceptance_01_equal_lags_match_classical_line_profiles():
    start = time.time()
    s, _ = dh.load_bundled("lst_q1_T1")
    twin = _classical_twin(s)
    y0 = s.trajectory.cy
    ratios = []
    for t in (362.5, 365.0, 370.0):
        lagged = line_profile_y(s, t, y0, 60, 60, 201)
        classical = line_profile_y(twin, t, y0, 60, 60, 201)
        peak = float(np.max(classical.values) - s.T0)
        ratios.append(float(np.max(np.abs(lagged.values - classical.values)))
                      / peak)
    elapsed = time.time() - start
    ok = all(r <= 1e-4 for r in ratios) and elapsed <= 300.0
    _report(1, "equal-lag classical equivalence", ok,
            f"max dev / peak = {['%.3g' % r for r in ratios]}, "
            f"tol 1e-4, {elapsed:.0f}s")
    assert ok


def test_acceptance_02_peak_distance_decreases_with_truncation():
    truncs = [(10, 10), (20, 20), (40, 40), (80, 80)]

    def distances(s, t):
        reports = source_peak_distance_sweep(s, t, truncs)
        return [r.distance for r in reports]

    results = {}
    for tag, base_name, t in (("lst", "lst_default", 367.5),
                              ("ct", "ct_default", 360.0)):
        base, _ = dh.load_bundled(base_name)
        for alpha in (1.29e-5, 1.29e-4):
            s = dh.validate_scenario(replace(base, alpha=alpha))
            results[(tag, alpha)] = distances(s, t)

    decreasing = {key: all(a > b for a, b in zip(seq, seq[1:]))
                  for key, seq in results.items()}
    larger_alpha_wins = all(
        hi <= lo
        for tag in ("lst", "ct")
        for hi, lo in zip(results[(tag, 1.29e-4)], results[(tag, 1.29e-5)]))
    ok = all(decreasing.values()) and larger_alpha_wins
    detail = "; ".join(
        f"{tag} a={alpha:g}: " + "/".join(f"{d:.4f}" for d in seq)
        + ("" if decreasing[(tag, alpha)] else " NOT DECREASING")
        for (tag, alpha), seq in results.items())
    _report(2, "peak-distance convergence", ok,
            detail + f"; larger-alpha<=smaller-alpha: {larger_alpha_wins}")
    assert ok


def test_acceptance_03_boundary_and_initial_values_are_ambient():
    rng = np.random.default_rng(20260815)
    kinds = ["line", "circle", "ellipse", "circle", "line"]
    worst_edge = 0.0
    worst_start = 0.0
    for kind in kinds:
        L = float(rng.uniform(0.4, 2.0))
        H = float(rng.uniform(0.4, 2.0))
        if kind == "line":
            A, B = 0.4 * L * float(rng.uniform(0.3, 1.0)), 0.0
        elif kind == "circle":
            A = 0.35 * min(L, H) * float(rng.uniform(0.3, 1.0))
            B = A
        else:
            A = 0.35 * L * float(rng.uniform(0.3, 1.0))
            B = 0.35 * H * float(rng.uniform(0.3, 1.0))
            if math.isclose(A, B):
                B *= 0.5
        s = dh.validate_scenario(dh.PlateScenario(
            L=L, H=H, T0=float(rng.uniform(0.0, 400.0)),
            theta=float(rng.uniform(10.0, 500.0)),
            k=float(rng.uniform(0.5, 60.0)),
            alpha=float(10.0 ** rng.uniform(-5.0, -1.3)),
            tau_q=float(rng.uniform(0.0, 4.0)),
            tau_T=float(rng.uniform(0.0, 4.0)),
            trajectory=dh.Trajectory(kind=kind, A=A, B=B,
                                     w=float(rng.uniform(0.1, 1.5)))))
        grid = dh.GridSpec(17, 13)
        hot = solve_series(s, float(rng.uniform(0.5, 3.0)), 12, 12)
        v = hot.field(grid).values
        edge = max(np.abs(row - s.T0).max() for row in
                   (v[0, :], v[-1, :], v[:, 0], v[:, -1]))
        start = float(np.abs(solve_series(s, 0.0, 12, 12).field(grid).values
                             - s.T0).max())
        worst_edge = max(worst_edge, float(edge))
        worst_start = max(worst_start, start)
    ok = worst_edge <= 1e-12 and worst_start <= 1e-12
    _report(3, "boundary/initial exactness", ok,
            f"worst edge dev {worst_edge:.2g}, worst t=0 dev "
            f"{worst_start:.2g}, tol 1e-12")
    assert ok


def test_acceptance_04_lag_orderings_of_profile_peaks():
    names = ("ct_alpha2_q1_T1", "ct_alpha2_q1_T2", "ct_alpha2_q1_T5",
             "ct_alpha2_q1_T10", "ct_alpha2_q2_T1", "ct_alpha2_q5_T1",
             "ct_alpha2_q10_T1")
    peaks = {}
    for name in names:
        s, _ = dh.load_bundled(name)
        peaks[name] = float(np.max(
            trajectory_profile(s, 25.0, 40, 40, 360).values))

    rising_T = [peaks["ct_alpha2_q1_T10"], peaks["ct_alpha2_q1_T5"],
                peaks["ct_alpha2_q1_T2"], peaks["ct_alpha2_q1_T1"]]
    rising_q = [peaks["ct_alpha2_q1_T1"], peaks["ct_alpha2_q2_T1"],
                peaks["ct_alpha2_q5_T1"], peaks["ct_alpha2_q10_T1"]]

    def ordered(seq):
        margin = 0.01 * max(seq)
        return all(b - a >= margin for a, b in zip(seq, seq[1:]))

    ok = ordered(rising_T) and ordered(rising_q)
    _report(4, "phase-lag peak orderings", ok,
            "peaks rising as tau_T drops: "
            + "/".join(f"{p:.1f}" for p in rising_T)
            + "; rising with tau_q: "
            + "/".join(f"{p:.1f}" for p in rising_q))
    assert ok


def test_acceptance_05_slower_sources_run_hotter():
    cases = {
        "q1_T5": ("ct_alpha2_q1_T5_w01pi", "ct_alpha2_q1_T5",
                  "ct_alpha2_q1_T5_w04pi", 0.005),
        "q5_T1": ("ct_alpha2_q5_T1_w01pi", "ct_alpha2_q5_T1",
                  "ct_alpha2_q5_T1_w04pi", 0.0),
    }
    ok = True
    details = []
    for tag, (slow_name, mid_name, fast_name, slack) in cases.items():
        vals = []
        for name in (slow_name, mid_name, fast_name):
            s, _ = dh.load_bundled(name)
            vals.append(float(np.max(
                trajectory_profile(s, 70.0, 40, 40, 360).values)))
        first = vals[0] > vals[1]
        second = vals[1] >= vals[2] * (1.0 - slack)
        ok = ok and first and second
        details.append(f"{tag}: " + "/".join(f"{v:.1f}" for v in vals))
    _report(5, "angular-velocity peak orderings", ok, "; ".join(details))
    assert ok


def test_acceptance_06_half_period_mirror_symmetry():
    """The periodic response at t + P/2 is the x-mirror of the one at t.

    The line runs through x = L/2, so a half-period shift mirrors the
    source path; every sine mode has parity (-1)^(m+1) under x -> L - x.
    The raw field at t ~ 365 still carries the start-up transient: with
    tau_q = tau_T every mode is overdamped with roots alpha k2 and
    1/tau, so past a few tau each coefficient is c(t) = p(t) + h e^(-r t),
    p periodic and r = table.slow.  Three solves one period apart fix h;
    a fourth one checks the fit, and the mirror test runs on p alone.
    """
    s, _ = dh.load_bundled("lst_q1_T1")
    grid = dh.GridSpec(101, 81)
    table = build_mode_table(s, 60, 60)
    period = 2.0 * math.pi / s.trajectory.w
    c365, c370, c_next, c_prev = (mode_coefficients(s, table, t) for t in
                                  (365.0, 370.0, 365.0 + period,
                                   365.0 - period))

    r = table.slow
    h365 = (c_next - c365) / np.expm1(-r * period)
    p365 = c365 - h365
    p370 = c370 - h365 * np.exp(-r * period / 2.0)
    misfit = (float(np.abs(p365 + h365 * np.exp(r * period) - c_prev).max())
              / float(np.abs(c365).max()))

    def field(coeffs, t):
        return assemble_field(s, table, coeffs, grid, t).values - s.T0

    early = field(c365, 365.0)
    peak = float(early.max())
    raw = float(np.abs(early - field(c370, 370.0)[::-1, :]).max())
    periodic = float(np.abs(field(p365, 365.0)
                            - field(p370, 370.0)[::-1, :]).max())
    startup = float(np.abs(field(h365, 365.0)).max())
    overdamped = bool((table.regime == OVERDAMPED).all())
    ok = (overdamped and misfit <= 1e-8 and periodic <= 1e-3 * peak
          and raw > 1e-3 * peak)
    _report(6, "half-period mirror symmetry", ok,
            f"periodic-part residual/peak = {periodic / peak:.3g}, tol 1e-3; "
            f"raw residual/peak = {raw / peak:.3g} (must exceed 1e-3); "
            f"start-up term/peak = {startup / peak:.3g}; "
            f"fit misfit = {misfit:.2g} of max|c|, tol 1e-8; "
            f"all overdamped: {overdamped}")
    assert ok


def test_acceptance_07_series_matches_finite_difference_oracle():
    start = time.time()
    budgets = {"ct_alpha2_q1_T1": 0.05, "ct_alpha2_q1_T5": 0.08,
               "ct_alpha2_q5_T1": 0.08}
    measured = {}
    for name, budget in budgets.items():
        s, cfg = dh.load_bundled(name)
        final = solve_fdm(s, cfg)[-1]
        M, N = resolve_truncation(s)
        series = project_gaussian_source_series(
            s, cfg.resolved_sigma(), final.grid, final.t, M, N)
        measured[name] = deviation_report(final, series, s.T0)["rms_rel"]
    elapsed = time.time() - start
    ok = (all(measured[n] <= b for n, b in budgets.items())
          and elapsed <= 600.0)
    _report(7, "independent-oracle cross-check", ok,
            "; ".join(f"{n}: rms_rel={measured[n]:.2%} (tol {b:.0%})"
                      for n, b in budgets.items()) + f"; {elapsed:.0f}s")
    assert ok


def test_acceptance_08_kernel_regime_properties():
    deltas = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0])

    # continuity: same rates evaluated through all three lagged branches
    damping = np.full(3, 1.0)
    splitting = np.full(3, 1e-7)
    slow = damping - splitting
    regimes = np.array([OVERDAMPED, CRITICAL, OSCILLATORY])
    vals = kernel_matrix(regimes, damping, splitting, slow, deltas)
    jump = float((vals.max(axis=1) - vals.min(axis=1)).max())

    # the same continuity driven through scenario classification
    k2 = 2.0 * math.pi ** 2
    alpha_crit = (9.0 - math.sqrt(80.0)) / k2
    sides = []
    for bump in (1.0 - 1e-12, 1.0 + 1e-12):
        s = dh.validate_scenario(dh.PlateScenario(
            L=1.0, H=1.0, T0=0.0, theta=1.0, k=1.0,
            alpha=alpha_crit * bump, tau_q=5.0, tau_T=1.0,
            trajectory=dh.Trajectory(kind="circle", A=0.2, B=0.2, w=1.0)))
        tb = build_mode_table(s, 1, 1)
        sides.append(kernel_matrix(tb.regime, tb.damping, tb.splitting,
                                   tb.slow, deltas)[:, 0])
    bracket_jump = float(np.abs(sides[0] - sides[1]).max())

    with np.errstate(over="raise", invalid="raise"):
        big = kernel_matrix(np.array([OVERDAMPED]), np.array([50.0]),
                            np.array([50.0]), np.array([0.0]),
                            np.array([1e4]))[0, 0]
    overflow_ok = np.isfinite(big) and math.isclose(big, 0.01, rel_tol=1e-12)

    s, _ = dh.load_bundled("ct_alpha2_q5_T1")
    table = build_mode_table(s, 10, 10)
    hist = CoefficientHistory(s, table)
    rng = np.random.default_rng(8)
    worst = 0.0
    for t in np.sort(rng.uniform(0.5, 25.0, size=10)):
        hist.advance(float(t))
        direct = mode_coefficients(s, table, float(t))
        scale = float(np.abs(direct).max())
        worst = max(worst, float(np.abs(hist.values() - direct).max()) / scale)

    ok = (jump <= 1e-10 and bracket_jump <= 1e-10 and overflow_ok
          and worst <= 1e-8)
    _report(8, "kernel regime properties", ok,
            f"branch jump {jump:.2g}, classification jump {bracket_jump:.2g}, "
            f"extreme-rate value {big:.4g}, incremental-vs-direct "
            f"{worst:.2g}")
    assert ok


def test_acceptance_09_trajectory_velocity_is_exact_to_second_order():
    rng = np.random.default_rng(99)
    kinds = ("line", "circle", "ellipse")
    hs = (1e-2, 5e-3, 2.5e-3)
    min_ratio = math.inf
    for i in range(50):
        kind = kinds[i % 3]
        A = float(rng.uniform(0.05, 0.4))
        B = {"line": 0.0, "circle": A,
             "ellipse": A * float(rng.uniform(1.2, 2.0))}[kind]
        traj = dh.Trajectory(kind=kind, A=A, B=B,
                             w=float(rng.uniform(0.2, 2.0)),
                             cx=0.5, cy=0.5)
        t = float(rng.uniform(0.1, 20.0))
        if kind == "line":
            # third derivative ~ sin(w t); stay away from its zeros
            while abs(math.sin(traj.w * t)) < 0.05:
                t = float(rng.uniform(0.1, 20.0))
        vx, vy = velocity(traj, t)
        errs = []
        for h in hs:
            xp, yp = position(traj, t + h)
            xm, ym = position(traj, t - h)
            errs.append(math.hypot((xp - xm) / (2 * h) - vx,
                                   (yp - ym) / (2 * h) - vy))
        for e_coarse, e_fine in zip(errs, errs[1:]):
            min_ratio = min(min_ratio, e_coarse / e_fine)
    ok = min_ratio >= 3.5
    _report(9, "trajectory derivative order", ok,
            f"min error ratio per h-halving {min_ratio:.2f}, need >= 3.5")
    assert ok


def test_acceptance_10_doubling_source_strength_doubles_excess():
    rng = np.random.default_rng(7)
    worst = 0.0
    for name in ("ct_alpha2_q1_T5", "lst_default"):
        s, _ = dh.load_bundled(name)
        doubled = dh.validate_scenario(replace(s, theta=2.0 * s.theta))
        for t in rng.uniform(0.5, 8.0, size=5):
            xs = rng.uniform(0.02 * s.L, 0.98 * s.L, size=10)
            ys = rng.uniform(0.02 * s.H, 0.98 * s.H, size=10)
            base = solve_series(s, float(t), 12, 12).at(xs, ys) - s.T0
            twice = solve_series(doubled, float(t), 12, 12).at(xs, ys) - s.T0
            scale = np.maximum(np.abs(2.0 * base), 1e-300)
            worst = max(worst, float(np.max(np.abs(twice - 2.0 * base)
                                            / scale)))
    ok = worst <= 1e-12
    _report(10, "source-strength linearity", ok,
            f"worst relative deviation {worst:.2g}, tol 1e-12")
    assert ok
