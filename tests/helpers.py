"""Independent brute-force oracles shared across the test modules.

Everything here is deliberately dumb: fixed-grid composite Simpson rules
and direct formula evaluation, with no code shared with the adaptive
quadrature or the kernel recurrences under test.  ``fresh_python`` runs
code in a new interpreter, for checks of what an import loads.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np

import dpl_heatlab
from dpl_heatlab.modes import kernel_matrix

# Names of the mode table's regime codes, in code order.
REGIME_NAMES = ("overdamped", "critical", "oscillatory", "diffusive")


def index_of(table, m, n):
    """Row-major position of mode (m, n) in the mode table."""
    if not (1 <= m <= table.M and 1 <= n <= table.N):
        raise IndexError(f"mode ({m}, {n}) outside truncation "
                         f"({table.M}, {table.N})")
    return (m - 1) * table.N + (n - 1)


def fresh_python(code, *args, env=None):
    """stdout of ``code`` run with ``args`` in a new interpreter that finds
    this package; ``env``, when given, replaces the environment."""
    src = str(Path(dpl_heatlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, check=True,
                          cwd=src, env=env)
    return proc.stdout


def simpson(values, h):
    """Composite Simpson sum over an odd-length uniformly spaced sample."""
    n = values.shape[0]
    assert n % 2 == 1 and n >= 3
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return h / 3.0 * np.dot(w, values)


def source_track(scenario, taus):
    """Source position and velocity along the trajectory, in closed form."""
    traj = scenario.trajectory
    ph = traj.w * taus
    x = traj.cx + traj.A * np.cos(ph)
    y = traj.cy + traj.B * np.sin(ph)
    vx = -traj.A * traj.w * np.sin(ph)
    vy = traj.B * traj.w * np.cos(ph)
    return x, y, vx, vy


def simpson_mode_coefficient(scenario, m, n, t, panels=250_000, table=None):
    """Brute-force convolution coefficient on a fixed Simpson grid.

    Only the kernel evaluation is borrowed from the package; the time
    integral itself, the eigenfunction factor and the lagged-source term
    are written out longhand.  ``table`` replaces the scenario's own mode
    table, so that tests can pin a mode's rates.
    """
    from dpl_heatlab.modes import build_mode_table

    if table is None:
        table = build_mode_table(scenario, m, n)
    i = index_of(table, m, n)
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


def dirichlet_green(L, H, x, y, x0, y0, terms=400):
    """Green's function of -Laplace on [0, L] x [0, H] with zero walls.

    G = sum_m (2/L) sin(kx x) sin(kx x0) sinh(kx y<) sinh(kx (H - y>))
    / (kx sinh(kx H)) converges like e^(-kx |y - y0|), so each point takes
    this series or the same one with x and y swapped, whichever decays
    faster.  sinh(a) sinh(b) / sinh(c), with a + b <= c, is written as
    e^(a + b - c) (1 - e^(-2a)) (1 - e^(-2b)) / (2 (1 - e^(-2c))), so no
    exponent is positive.  Shares no code with either solver.
    """
    def along(L, H, x, y, x0, y0):
        k = np.arange(1, terms + 1) * (np.pi / L)
        a = k * np.minimum(y, y0)[:, None]
        b = k * (H - np.maximum(y, y0))[:, None]
        ratio = (np.exp(a + b - k * H) * np.expm1(-2.0 * a)
                 * np.expm1(-2.0 * b) / (-2.0 * np.expm1(-2.0 * k * H)))
        return (2.0 / L) * (np.sin(k * x[:, None]) * np.sin(k * x0)
                            * ratio / k).sum(axis=1)

    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.where(np.abs(y - y0) >= np.abs(x - x0),
                    along(L, H, x, y, x0, y0), along(H, L, y, x, y0, x0))


def complex_response_coefficients(s, table, t, factory=None):
    """Harmonic coefficients by one complex division per (harmonic, mode).

    The reference for ``series._harmonic_coefficients``: the same tiles,
    samples and spectra (``factory(s, kx, ky, taus).spectrum``), with each
    response (e^(i w t') - e^(-r1 t)) / s1 or (e^(i w t') - e^(-r1 t)
    (1 + s1 h)) / (s1 (s1 + g)) formed in complex arithmetic and summed
    against the spectrum.  The numerator is grouped as (e^(i w t') - 1) +
    (1 - e^(-r1 t)) - e^(-r1 t) s1 h, so that rates far below 1 / t keep
    their DC term; at start-up times (t well below the slowest modes'
    1 / r1) its harmonics still cancel.
    """
    from dpl_heatlab import series
    from dpl_heatlab.modes import OSCILLATORY, OVERDAMPED

    N = table.N
    kx, ky = table.kx[::N], table.ky[:N]
    if s.trajectory.w == 0.0:
        q, taus, base, phase = 1, np.zeros(1), 0.0, 0.0
    else:
        q = series._harmonic_samples(s, kx[-1], ky[-1])
        period = 2.0 * np.pi / abs(s.trajectory.w)
        taus = np.arange(q) * (period / q)
        base, phase = 2.0 * np.pi / period, np.fmod(t, period)
    omega = 1j * base * np.arange(q // 2 + 1)[:, None]
    wave = np.expm1(omega * phase)   # e^(i w t') - 1
    factors = (factory or series.PointSourceFactors)(s, kx, ky, taus)
    out = np.empty(table.nmodes)
    for m0, n0, m1, n1, qt in series._tile_plan(s, kx, ky, q, factors):
        sel = slice(m0 * N + n0, (m1 - 1) * N + n1)
        spec, row = factors.spectrum(slice(m0, m1), slice(n0, n1),
                                     slice(None, None, q // qt))
        harmonics = slice(qt // 2 + 1)
        regime, splitting = table.regime[sel], table.splitting[sel]
        osc = regime == OSCILLATORY
        rate = table.slow[sel].astype(complex)
        rate[osc] -= 1j * splitting[osc]
        with np.errstate(over="ignore"):
            live = rate.real * t < 800.0
        decay = np.zeros(rate.shape, dtype=complex)
        decay[live] = np.exp(-rate[live] * t)
        rest = np.ones(rate.shape, dtype=complex)   # 1 - e^(-r1 t)
        rest[live] = -np.expm1(-rate[live] * t)
        s1 = rate + omega[harmonics]
        if table.classical:
            resp = (wave[harmonics] + rest) / s1
        else:
            gap = np.where(regime == OVERDAMPED, 2.0 * splitting,
                           0.0).astype(complex)
            gap[osc] = 2j * splitting[osc]
            ramp = np.full(gap.shape, t, dtype=complex)
            split = live & (gap != 0.0)
            ramp[split] = -np.expm1(-gap[split] * t) / gap[split]
            resp = ((wave[harmonics] + rest - s1 * (decay * ramp))
                    / (s1 * (s1 + gap)))
        if row is None:
            out[sel] = np.einsum("jp,jp->p", spec, resp).real
        else:
            out[sel] = (np.einsum("jr,jrc->rc", spec, resp.reshape(
                len(spec), m1 - m0, -1)).real * row).ravel()
    return out


def tiny_scenario(**overrides):
    """Small, fast-to-solve scenario for plumbing-level tests."""
    import dpl_heatlab as dh

    fields = dict(L=1.0, H=1.0, theta=100.0, k=2.0, alpha=1.29e-2,
                  tau_q=1.0, tau_T=1.0,
                  trajectory=dh.Trajectory(kind="circle", A=0.25, B=0.25,
                                           w=0.2 * np.pi))
    fields.update(overrides)
    return dh.PlateScenario(**fields)


def with_lags(s, tau_q, tau_T):
    """``s`` with the flux lag tau_q and the gradient lag tau_T."""
    return dataclasses.replace(s, tau_q=tau_q, tau_T=tau_T)


def classical(s):
    """The zero-lag variant of a scenario (parabolic branch)."""
    return with_lags(s, 0.0, 0.0)


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


def outer_product_source(s, xi, yi, sigma, t):
    """FDM source (Q + tau_q dQ/dt) / k on the grid (xi, yi) at time t.

    Written out on the full grid: the 2-D Gaussian times
    1 + tau_q (dx vx + dy vy) / sigma^2, with the source state from
    ``source_track``.  The reference for ``fdm._source_grid``.
    """
    x_src, y_src, vx, vy = source_track(s, t)
    dx = xi - x_src
    dy = yi - y_src
    amp = s.theta / (2.0 * np.pi * sigma * sigma)
    q = amp * np.outer(np.exp(-dx * dx / (2.0 * sigma * sigma)),
                       np.exp(-dy * dy / (2.0 * sigma * sigma)))
    if s.tau_q != 0.0:
        drift = (dx[:, None] * vx + dy[None, :] * vy) / (sigma * sigma)
        q = q + s.tau_q * q * drift
    return q / s.k


def wofz_sine_projection(rates, limit, centers, sigma):
    """``fdm.sine_projection`` as it was with scipy's ``wofz``.

    The reference for the numpy Faddeeva evaluation: the same closed form,
    with w(z) from ``scipy.special.wofz``.  Returns the (C, R) tables p and
    dp/dc.
    """
    from scipy.special import wofz

    root2 = np.sqrt(2.0)
    y = rates * (sigma / root2)
    z = np.exp(1j * np.outer(centers, rates) - y * y)
    half = 0.5 - np.rint(rates * (limit / np.pi)) % 2.0   # (-1)^m / 2
    for dist, arg, fac in ((centers, -y, 0.5), (limit - centers, y, half)):
        x = dist / (sigma * root2)
        near = x < 27.0
        xn = x[near, None]
        z[near] -= fac * np.exp(-xn * xn) * wofz(arg + 1j * xn)
    return z.imag, rates * z.real


def sparse_lu_fdm(s, cfg):
    """Reference FDM run with assembled sparse operators and SuperLU solves.

    The same scheme as ``fdm.solve_fdm`` (quiescent start, first step
    (A - C) u[1] = B u[0] + S[0], Crank-Nicolson at tau_q = 0), with the
    interior 5-point Laplacian assembled as kron(Dxx, I) + kron(I, Dyy)
    and the source from ``outer_product_source``.  Returns the stored
    (nx, ny) value arrays.
    """
    from scipy.sparse import diags, identity, kron
    from scipy.sparse.linalg import splu

    from dpl_heatlab.fdm import _axis_counts

    nx, ny, hx, hy = _axis_counts(cfg, s.L, s.H)
    mx, my = nx - 2, ny - 2
    dxx = diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(mx, mx)) / (hx * hx)
    dyy = diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(my, my)) / (hy * hy)
    lap = (kron(dxx, identity(my)) + kron(identity(mx), dyy)).tocsc()
    ident = identity(mx * my, format="csc")
    nsteps = max(1, int(round(cfg.t_end / cfg.dt)))
    dt = cfg.t_end / nsteps
    sigma = cfg.resolved_sigma()
    xi = np.linspace(0.0, s.L, nx)[1:-1]
    yi = np.linspace(0.0, s.H, ny)[1:-1]
    if s.tau_q > 0.0:
        sc = 1.0 / (2.0 * s.alpha * dt)
        p = s.tau_q / (s.alpha * dt * dt)
        mat_a = (sc + p) * ident - (0.25 + s.tau_T / (2.0 * dt)) * lap
        mat_b = 2.0 * p * ident + 0.5 * lap
        mat_c = (sc - p) * ident + (0.25 - s.tau_T / (2.0 * dt)) * lap
        solve_first = splu((mat_a - mat_c).tocsc())
        shift = 0.0
    else:
        r = 1.0 / (s.alpha * dt)
        mat_a = r * ident - (0.5 + s.tau_T / dt) * lap
        mat_b = r * ident + (0.5 - s.tau_T / dt) * lap
        mat_c = None
        shift = 0.5
    solve_a = splu(mat_a.tocsc())
    if mat_c is None:
        solve_first = solve_a

    def full(u):
        out = np.full((nx, ny), float(s.T0))
        out[1:-1, 1:-1] = u.reshape(mx, my) + s.T0
        return out

    u_prev = u_curr = np.zeros(mx * my)
    stored = [full(u_curr)]
    for n in range(nsteps):
        rhs = mat_b @ u_curr
        if mat_c is not None and n > 0:
            rhs += mat_c @ u_prev
        rhs += outer_product_source(s, xi, yi, sigma, (n + shift) * dt).ravel()
        u_prev, u_curr = u_curr, (solve_first if n == 0 else solve_a).solve(rhs)
        if (n + 1) % cfg.store_every == 0 and n + 1 != nsteps:
            stored.append(full(u_curr))
    stored.append(full(u_curr))
    return stored
