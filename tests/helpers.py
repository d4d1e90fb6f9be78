"""Independent brute-force oracles shared across the test modules.

Everything here is deliberately dumb: fixed-grid composite Simpson rules
and direct formula evaluation, with no code shared with the adaptive
quadrature or the kernel recurrences under test.
"""

import numpy as np

from dpl_heatlab.modes import kernel_matrix


def simpson(values, h):
    """Composite Simpson sum over an odd-length uniformly spaced sample."""
    n = values.shape[0]
    assert n % 2 == 1 and n >= 3
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return h / 3.0 * np.dot(w, values)


def source_track(scenario, taus):
    """Source position and velocity along the trajectory.

    Analytic kinds use the closed forms; the custom kind interpolates its
    samples with scipy's not-a-knot cubic spline.
    """
    traj = scenario.trajectory
    if traj.kind == "custom":
        from scipy.interpolate import CubicSpline

        ts, xs, ys = (np.asarray(a, dtype=float) for a in traj.samples)
        sx, sy = CubicSpline(ts, xs), CubicSpline(ts, ys)
        return sx(taus), sy(taus), sx(taus, 1), sy(taus, 1)
    ph = traj.w * taus
    x = traj.cx + traj.A * np.cos(ph)
    y = traj.cy + traj.B * np.sin(ph)
    vx = -traj.A * traj.w * np.sin(ph)
    vy = traj.B * traj.w * np.cos(ph)
    return x, y, vx, vy


def simpson_mode_coefficient(scenario, m, n, t, panels=250_000):
    """Brute-force convolution coefficient on a fixed Simpson grid.

    Only the kernel evaluation is borrowed from the package; the time
    integral itself, the eigenfunction factor and the lagged-source term
    are written out longhand.
    """
    from dpl_heatlab.modes import build_mode_table

    table = build_mode_table(scenario, m, n)
    i = table.index_of(m, n)
    kx, ky = table.kx[i], table.ky[i]
    taus = np.linspace(0.0, t, 2 * panels + 1)
    x, y, vx, vy = source_track(scenario, taus)
    f = np.sin(kx * x) * np.sin(ky * y)
    if scenario.tau_q:
        f = f + scenario.tau_q * (
            vx * kx * np.cos(kx * x) * np.sin(ky * y)
            + vy * ky * np.sin(kx * x) * np.cos(ky * y))
    one = slice(i, i + 1)
    kern = kernel_matrix(table.regime[one], table.damping[one],
                         table.splitting[one], table.slow[one],
                         t - taus)[:, 0]
    return simpson(f * kern, t / (2 * panels))


def tiny_scenario(**overrides):
    """Small, fast-to-solve scenario for plumbing-level tests."""
    import dpl_heatlab as dh

    fields = dict(L=1.0, H=1.0, theta=100.0, k=2.0, alpha=1.29e-2,
                  tau_q=1.0, tau_T=1.0,
                  trajectory=dh.Trajectory(kind="circle", A=0.25, B=0.25,
                                           w=0.2 * np.pi))
    fields.update(overrides)
    return dh.PlateScenario(**fields)


def kahan_mode_sum(amps, sinx, siny, mask=None, paired=False):
    """Per-mode compensated series sum, the reference for field assembly.

    Adds amps[p] * sinx[:, p] (x) siny[:, p] one mode at a time in table
    order with Kahan compensation: the outer product on a grid, or the
    elementwise product at paired points when ``paired`` is set.
    """
    shape = (sinx.shape[0],) if paired else (sinx.shape[0], siny.shape[0])
    total = np.zeros(shape)
    comp = np.zeros(shape)
    index = range(amps.size) if mask is None else np.flatnonzero(mask)
    for p in index:
        if paired:
            term = amps[p] * (sinx[:, p] * siny[:, p])
        else:
            term = amps[p] * np.outer(sinx[:, p], siny[:, p])
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total
