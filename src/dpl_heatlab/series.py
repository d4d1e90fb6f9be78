"""Eigenfunction-series temperature solver.

The temperature deviation from ambient expands over sin(kx x) sin(ky y)
eigenfunctions; each mode amplitude is a convolution of the source factor

    f(tau) = sin(kx xs(tau)) sin(ky ys(tau))
             + tau_q * (vx kx cos(kx xs) sin(ky ys) + vy ky sin(kx xs) cos(ky ys))

with that mode's relaxation kernel.  The grid field is then

    T(x, y, t) = T0 + sum prefactor * gain_mn * P_mn(t) sin(kx x) sin(ky y)

with prefactor 4 alpha theta / (L H tau_q k) on the lagged branch and
4 alpha theta / (L H k) on the diffusive (tau_q = 0) branch.

Every series result takes one route, ``solve_series``: resolve the
truncation, build the mode table, compute the coefficients P_mn(t) once,
and return a ``SeriesSolution`` whose ``field`` and ``at`` assemble them
on a grid or at paired points.  The field, the profiles, the peak search,
the truncation sweep and the Gaussian-source series of the finite-
difference cross-check all read such a solution.

Line, circle and ellipse sources repeat with period T = 2 pi / |w|, so
their coefficients come from the source's harmonics: one FFT of the
factors over a period, then a closed-form convolution of each harmonic
with the kernel's exponentials, with the phase taken from fmod(t, T).  Its
cost and accuracy do not depend on t.  Custom paths take one adaptive pass
per time segment over [0, t]: segments split at the spline knots and are
processed backward from tau = t, so that modes whose remaining kernel mass
is below their error budget drop out early; later segments evaluate source
factors for the still-active modes only.  Both engines handle modes in
fixed chunks in ascending-k2 order; only the quadrature runs in worker
threads, and its results do not depend on the thread count.

The basis is separable, and both hot paths use that.  Source factors
evaluate sin/cos once per distinct kx and ky and gather the per-axis values
into mode columns.  Assembly arranges the amplitudes as an (M, N) matrix A
and sums the series as SX @ A @ SY.T on a grid, or as the row sums of
(SX @ A) * SY at paired points, with SX and SY the per-axis sine tables.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import NegativeElapsed
from .model import CUSTOM, GridSpec, PlateScenario, TemperatureField
from .modes import (
    CRITICAL,
    DIFFUSIVE,
    OSCILLATORY,
    OVERDAMPED,
    ModeTable,
    build_mode_table,
    kernel_matrix,
    kernel_tail_mass,
)
from .quadrature import QuadratureSpec, integrate_columns
from .trajectory import period as source_period
from .trajectory import position, velocity, velocity_bounds

MODE_CHUNK = 1024
HARMONIC_CHUNK = 256


def default_truncation(s: PlateScenario) -> tuple[int, int]:
    """Series length heuristic: slow diffusion needs the longer sum."""
    return (80, 80) if s.alpha < 1e-3 else (40, 40)


def resolve_truncation(s: PlateScenario, M: int | None = None,
                       N: int | None = None) -> tuple[int, int]:
    """(M, N) with any missing count taken from ``default_truncation``."""
    if M is None or N is None:
        dm, dn = default_truncation(s)
        M = M or dm
        N = N or dn
    return M, N


def prefactor(s: PlateScenario, classical: bool | None = None) -> float:
    """Scalar multiplying gain * P_mn in the temperature series.

    ``classical`` pins the branch to the one the mode table chose (the
    table may demote an unresolvably small tau_q to the zero-lag branch);
    None falls back to tau_q == 0.
    """
    if classical is None:
        classical = s.tau_q == 0.0
    if classical:
        return 4.0 * s.alpha * s.theta / (s.L * s.H * s.k)
    return 4.0 * s.alpha * s.theta / (s.L * s.H * s.tau_q * s.k)


def resolve_threads(threads=None) -> int:
    """Worker count: explicit arg, else DPL_HEATLAB_THREADS, else auto."""
    if threads is None:
        env = os.environ.get("DPL_HEATLAB_THREADS", "").strip()
        threads = int(env) if env else 0
    threads = int(threads)
    if threads < 0:
        raise ValueError(f"thread count must be >= 0, got {threads}")
    if threads == 0:
        return os.cpu_count() or 1
    return threads


class PointSourceFactors:
    """Vectorized source factor f(tau) for the Dirac point source.

    The basis is separable, so sin/cos are evaluated once per distinct kx
    and ky and gathered into mode columns.
    """

    def __init__(self, s: PlateScenario, kx: np.ndarray, ky: np.ndarray):
        self.traj = s.trajectory
        self.tau_q = s.tau_q
        self.kx = kx
        self.ky = ky
        self._ux, self._ix = np.unique(kx, return_inverse=True)
        self._uy, self._iy = np.unique(ky, return_inverse=True)

    def __call__(self, taus: np.ndarray, cols=None) -> np.ndarray:
        """(Q, P) factors at taus for the mode columns ``cols`` (all if None)."""
        cols = slice(None) if cols is None else cols
        ix, iy = self._ix[cols], self._iy[cols]
        x, y = position(self.traj, taus)
        argx = np.outer(x, self._ux)
        argy = np.outer(y, self._uy)
        sinx, siny = np.sin(argx), np.sin(argy)
        f = np.take(sinx, ix, axis=1)
        f *= np.take(siny, iy, axis=1)
        if self.tau_q != 0.0:
            vx, vy = velocity(self.traj, taus)
            # Same association as the per-mode formula, so the values are
            # bitwise those of evaluating every (sample, mode) pair.
            drift = np.multiply.outer(vx, self.kx[cols])
            drift *= np.take(np.cos(argx), ix, axis=1)
            drift *= np.take(siny, iy, axis=1)
            cross = np.multiply.outer(vy, self.ky[cols])
            cross *= np.take(sinx, ix, axis=1)
            cross *= np.take(np.cos(argy), iy, axis=1)
            drift += cross
            drift *= self.tau_q
            f += drift
        return f

    def bound(self) -> np.ndarray:
        """Per-mode upper bound on |f| over all tau."""
        vx_max, vy_max = velocity_bounds(self.traj)
        return 1.0 + self.tau_q * (self.kx * vx_max + self.ky * vy_max)


def _panel_seeds(s: PlateScenario, a: float, b: float) -> np.ndarray:
    """a, b and the quarter-periods (spline knots for custom) inside (a, b)."""
    pts = [a, b]
    traj = s.trajectory
    if traj.kind == CUSTOM:
        pts.extend(tk for tk in traj.samples[0] if a < tk < b)
    elif traj.w != 0.0:
        quarter = 0.5 * math.pi / abs(traj.w)
        first = int(math.floor(a / quarter))
        last = int(math.floor(b / quarter))
        pts.extend(j * quarter for j in range(first, last + 1)
                   if a < j * quarter < b)
    return np.unique(np.asarray(pts, dtype=float))


def _coefficients_chunk(s, table: ModeTable, sel: slice, t: float,
                        quad: QuadratureSpec, seeds,
                        factors_factory) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients for one contiguous chunk of the mode table."""
    kx = table.kx[sel]
    ky = table.ky[sel]
    regime = table.regime[sel]
    damping = table.damping[sel]
    splitting = table.splitting[sel]
    slow = table.slow[sel]
    factors = factors_factory(s, kx, ky)
    fbound = factors.bound()

    nmodes = kx.size
    nseg = seeds.size - 1
    acc = np.zeros(nmodes)
    err = np.zeros(nmodes)
    active = np.ones(nmodes, dtype=bool)
    seg_spec = replace(quad, rel_tol=0.0)

    for j in range(nseg - 1, -1, -1):
        if not active.any():
            break
        a_seg, b_seg = seeds[j], seeds[j + 1]
        idx = np.flatnonzero(active)
        reg_a, dmp_a = regime[idx], damping[idx]
        spl_a, slo_a = splitting[idx], slow[idx]

        def f(taus, _idx=idx, _reg=reg_a, _dmp=dmp_a, _spl=spl_a, _slo=slo_a):
            delta = np.maximum(t - taus, 0.0)
            vals = factors(taus, _idx)
            vals *= kernel_matrix(_reg, _dmp, _spl, _slo, delta)
            return vals

        tol = np.maximum(quad.abs_tol, quad.rel_tol * np.abs(acc[idx])) / nseg
        totals, errors = integrate_columns(f, a_seg, b_seg, seg_spec, abs_tol=tol)
        acc[idx] += totals
        err[idx] += errors

        if j > 0:
            remaining = kernel_tail_mass(reg_a, dmp_a, spl_a, slo_a,
                                         t - a_seg) * fbound[idx]
            budget = 0.5 * np.maximum(quad.abs_tol,
                                      quad.rel_tol * np.abs(acc[idx]))
            done = remaining <= budget
            if done.any():
                active[idx[done]] = False
                err[idx[done]] += remaining[done]
    return acc, err


def _harmonic_samples(s: PlateScenario, table: ModeTable) -> int:
    """Samples Q per source period for the harmonic engine.

    The factor sin(kx (cx + A cos(w tau))) has the harmonics J_j(kx A)
    (Jacobi-Anger), and |J_j(z)| < 1e-19 for j >= z + 12 z^(1/3) + 8.  The
    x-y product has the tail of one such series with z = rho = max kx |A|
    + max ky |B|, so Q / 2 >= rho + 12 rho^(1/3) + 8 leaves the aliased
    tail at rounding level.
    """
    traj = s.trajectory
    rho = table.kx.max() * abs(traj.A) + table.ky.max() * abs(traj.B)
    return 1 << math.ceil(math.log2(2.0 * (rho + 12.0 * rho ** (1 / 3) + 8.0)))


def _harmonic_coefficients(s: PlateScenario, table: ModeTable, t: float,
                           factory) -> np.ndarray:
    """Closed-form coefficients of a periodic (or parked, w = 0) source.

    One FFT of Q samples over a period gives f = Re sum_j F_j e^(i w_j tau).
    Every lagged kernel is (e^(-r1 D) - e^(-r2 D)) / g with g = r2 - r1:
    r1 = slow and g = 2 b2 when overdamped, r1 = b1 - i |b2| and g = 2 i |b2|
    when oscillatory, r1 = b1 and g -> 0 when critical.  Each harmonic then
    convolves exactly; with s1 = r1 + i w_j, h = -expm1(-g t) / g (t when
    g = 0) and t' = fmod(t, T):

      diffusive  (e^(i w_j t') - e^(-r1 t)) / s1
      lagged     (e^(i w_j t') - e^(-r1 t) (1 + s1 h)) / (s1 (s1 + g))
    """
    traj = s.trajectory
    if traj.w == 0.0:
        q, taus, base, phase = 1, np.zeros(1), 0.0, 0.0
    else:
        q = _harmonic_samples(s, table)
        period = source_period(traj)
        taus = np.arange(q) * (period / q)
        base, phase = 2.0 * math.pi / period, math.fmod(t, period)
    omega = 1j * base * np.arange(q // 2 + 1)[:, None]
    wave = np.exp(omega * phase)
    out = np.empty(table.nmodes)
    for i in range(0, table.nmodes, HARMONIC_CHUNK):
        sel = slice(i, min(i + HARMONIC_CHUNK, table.nmodes))
        spec = np.fft.rfft(factory(s, table.kx[sel], table.ky[sel])(taus),
                           axis=0) / q
        spec[1:(q + 1) // 2] *= 2.0   # the real signal's negative harmonics
        regime, splitting = table.regime[sel], table.splitting[sel]
        osc = regime == OSCILLATORY
        rate = np.where(regime == OVERDAMPED, table.slow[sel],
                        table.damping[sel]).astype(complex)
        rate[osc] -= 1j * splitting[osc]
        # e^(-r1 t) is exactly 0 once Re(r1) t > 800; skipping those modes
        # keeps r1 t finite for any finite t (|Im r1| < Re r1).
        with np.errstate(over="ignore"):
            live = rate.real * t < 800.0
        decay = np.zeros(rate.shape, dtype=complex)
        decay[live] = np.exp(-rate[live] * t)
        s1 = rate + omega
        if table.classical:
            resp = (wave - decay) / s1
        else:
            gap = np.where(regime == OVERDAMPED, 2.0 * splitting,
                           0.0).astype(complex)
            gap[osc] = 2j * splitting[osc]
            ramp = np.full(gap.shape, t, dtype=complex)
            split = live & (gap != 0.0)
            ramp[split] = -np.expm1(-gap[split] * t) / gap[split]
            resp = (wave - (decay + s1 * (decay * ramp))) / (s1 * (s1 + gap))
        out[sel] = np.einsum("jp,jp->p", spec, resp).real
    return out


def mode_coefficients(s: PlateScenario, table: ModeTable, t: float,
                      quad: QuadratureSpec | None = None, *,
                      threads=None, factors_factory=None) -> np.ndarray:
    """Convolution coefficients P_mn(t) for every mode of the table.

    Returns an array aligned with the table's (ascending-k2) mode order.
    Line, circle and ellipse sources take the harmonic engine in one
    thread.  Custom paths take the adaptive quadrature under ``quad`` and
    ``threads``; it is partitioned into fixed chunks of the table, so the
    numeric result is identical for any worker count.
    """
    if not math.isfinite(t):
        raise ValueError(f"coefficients requested at non-finite time {t!r}")
    if t < 0.0:
        raise NegativeElapsed(f"coefficients requested at negative time {t!r}")
    nmodes = table.nmodes
    if t == 0.0:
        return np.zeros(nmodes)
    workers = resolve_threads(threads)
    factory = factors_factory or PointSourceFactors
    if s.trajectory.kind != CUSTOM:
        return _harmonic_coefficients(s, table, t, factory)
    quad = quad or QuadratureSpec()
    seeds = _panel_seeds(s, 0.0, t)
    chunks = [slice(i, min(i + MODE_CHUNK, nmodes))
              for i in range(0, nmodes, MODE_CHUNK)]

    out = np.empty(nmodes)
    workers = min(workers, len(chunks))
    if workers <= 1:
        results = [_coefficients_chunk(s, table, sel, t, quad, seeds, factory)
                   for sel in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                lambda sel: _coefficients_chunk(s, table, sel, t, quad,
                                                seeds, factory),
                chunks))
    for sel, (acc, _err) in zip(chunks, results):
        out[sel] = acc
    return out


# --- field assembly --------------------------------------------------------


def _sin_table(coords: np.ndarray, rates: np.ndarray, limit: float) -> np.ndarray:
    """sin(coord * rate) with rows on the plate edge zeroed exactly.

    Every series term vanishes on the boundary analytically; zeroing the
    basis rows keeps that exact in floating point instead of leaving
    sin(m pi) roundoff.
    """
    tab = np.sin(np.outer(coords, rates))
    edge = (coords <= 0.0) | (coords >= limit)
    tab[edge, :] = 0.0
    return tab


def amplitudes(s: PlateScenario, table: ModeTable,
               coeffs: np.ndarray) -> np.ndarray:
    """Per-mode series amplitudes prefactor * gain * P_mn."""
    return prefactor(s, classical=table.classical) * table.gain * coeffs


def _series_sum(s: PlateScenario, table: ModeTable, amps: np.ndarray,
                xs, ys, mode_mask=None, *, paired=False) -> np.ndarray:
    """sum_p amps[p] sin(kx_p x) sin(ky_p y), excluding modes outside the mask.

    With A the (M, N) amplitude matrix (zero outside ``mode_mask``, trimmed
    to the largest m and n in use) and SX, SY the per-axis sine tables, the
    sum on the xs-by-ys grid is SX @ A @ SY.T; with ``paired`` it is taken
    at the points (xs[i], ys[i]) as the row sums of (SX @ A) * SY.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    M, N = table.M, table.N
    if mode_mask is not None:
        amps = np.where(mode_mask, amps, 0.0)
        M = int(table.m[mode_mask].max(initial=0))
        N = int(table.n[mode_mask].max(initial=0))
    # inv maps (m-1)*N + (n-1) to table order, so this lays amps out by (m, n).
    amp = amps[table.inv].reshape(table.M, table.N)[:M, :N]
    kx = table.kx[table.inv[:M * table.N:table.N]]   # modes (m, 1)
    ky = table.ky[table.inv[:N]]                     # modes (1, n)
    sxa = _sin_table(xs, kx, s.L) @ amp
    sy = _sin_table(ys, ky, s.H)
    if paired:
        return np.einsum("ij,ij->i", sxa, sy)
    return sxa @ sy.T


def assemble_field(s: PlateScenario, table: ModeTable, coeffs: np.ndarray,
                   grid: GridSpec, t: float,
                   mode_mask=None) -> TemperatureField:
    """Sum the series on a grid; optional mask restricts the truncation."""
    xs, ys = grid.axes(s.L, s.H)
    values = _series_sum(s, table, amplitudes(s, table, coeffs), xs, ys,
                         mode_mask) + s.T0
    return TemperatureField(grid=grid, t=float(t), values=values)


def assemble_at_points(s: PlateScenario, table: ModeTable, coeffs: np.ndarray,
                       xs, ys, mode_mask=None) -> np.ndarray:
    """Series values at paired sample points (xs[i], ys[i])."""
    return _series_sum(s, table, amplitudes(s, table, coeffs), xs, ys,
                       mode_mask, paired=True) + s.T0


@dataclass(frozen=True)
class SeriesSolution:
    """Mode table and coefficients of one scenario at time t.

    The coefficients are computed once; ``field`` and ``at`` assemble the
    series from them on a grid or at paired points, optionally over the
    modes in ``mode_mask`` only.
    """

    s: PlateScenario
    table: ModeTable
    coeffs: np.ndarray
    t: float

    def field(self, grid: GridSpec, mode_mask=None) -> TemperatureField:
        return assemble_field(self.s, self.table, self.coeffs, grid, self.t,
                              mode_mask=mode_mask)

    def at(self, xs, ys, mode_mask=None) -> np.ndarray:
        return assemble_at_points(self.s, self.table, self.coeffs, xs, ys,
                                  mode_mask=mode_mask)


def solve_series(s: PlateScenario, t: float, M: int | None = None,
                 N: int | None = None, quad: QuadratureSpec | None = None, *,
                 threads=None, factors_factory=None) -> SeriesSolution:
    """Truncated series solution at time t (default truncation if M/N None)."""
    M, N = resolve_truncation(s, M, N)
    table = build_mode_table(s, M, N)
    coeffs = mode_coefficients(s, table, t, quad, threads=threads,
                               factors_factory=factors_factory)
    return SeriesSolution(s=s, table=table, coeffs=coeffs, t=float(t))


def temperature(s: PlateScenario, grid: GridSpec, t: float,
                M: int | None = None, N: int | None = None,
                quad: QuadratureSpec | None = None, *,
                threads=None) -> TemperatureField:
    """Temperature field on the grid at time t via the truncated series."""
    return solve_series(s, t, M, N, quad, threads=threads).field(grid)


def switch_on_transient(s: PlateScenario, table: ModeTable, t: float,
                        xs, ys) -> np.ndarray:
    """Start-up correction separating equal-lag and diffusive solutions.

    For tau_q = tau_T = tau the diffusive-branch solution satisfies the
    lagged equation exactly but with initial rate c * f(0) instead of 0;
    the two fields therefore differ by the homogeneous relaxation
    sum c * f_mn(0) * K_mn(t) * sin(kx x) sin(ky y), with c the diffusive
    prefactor and K the lagged kernel.  Returns that correction at the
    given points: diffusive field = lagged field + correction.
    """
    if not (s.tau_q == s.tau_T and s.tau_q > 0.0):
        raise ValueError("start-up correction applies to equal positive lags")
    x0, y0 = position(s.trajectory, 0.0)
    f0 = np.sin(table.kx * x0) * np.sin(table.ky * y0)
    kern = kernel_matrix(table.regime, table.damping, table.splitting,
                         table.slow, np.array([t]))[0]
    pseudo = f0 * kern  # plays the role of P_mn for the correction
    c = 4.0 * s.alpha * s.theta / (s.L * s.H * s.k)
    return _series_sum(s, table, c * pseudo, xs, ys, paired=True)


# --- incremental evaluation ------------------------------------------------


class CoefficientHistory:
    """Incremental P_mn evaluation by exponential-state recurrences.

    Each mode's kernel is a combination of exponentials in elapsed time,
    so the convolution state advances from t to t + h by damping the
    stored state and adding a local integral over [t, t + h]:

      overdamped   E_s, E_f with rates slow and damping + splitting;
                   P = (E_s - E_f) / (2 splitting)
      oscillatory  complex state with rate damping - i |splitting|;
                   P = Im / |splitting|
      critical     E0 (plain) and E1 (ramp-weighted); E1 gains h * E0
                   on each shift; P = E1
      diffusive    single E with the decay rate; P = E

    Local integrals reuse the adaptive engine, so a long time series costs
    one short quadrature per step instead of one full-history integral per
    query.  States start at the quiescent initial condition, P_mn(0) = 0.
    """

    def __init__(self, s: PlateScenario, table: ModeTable,
                 quad: QuadratureSpec | None = None):
        self.s = s
        self.table = table
        self.quad = quad or QuadratureSpec()
        self.factors = PointSourceFactors(s, table.kx, table.ky)
        self.t = 0.0
        n = table.nmodes
        self._e_slow = np.zeros(n)   # overdamped slow / critical E0 / diffusive E
        self._e_fast = np.zeros(n)   # overdamped fast / critical E1
        self._e_cos = np.zeros(n)    # oscillatory real part
        self._e_sin = np.zeros(n)    # oscillatory imag part

    def _local_integrals(self, t_new: float):
        """Segment integrals with kernels anchored at t_new, per state."""
        table = self.table
        reg = table.regime
        over = reg == OVERDAMPED
        crit = reg == CRITICAL
        osc = reg == OSCILLATORY
        diff = reg == DIFFUSIVE
        rate_slow = np.where(over, table.slow, table.damping)  # crit/diff reuse
        rate_fast = table.damping + table.splitting

        def f(taus):
            delta = np.maximum(t_new - taus, 0.0)[:, None]
            base = self.factors(taus)
            cols = [base * np.exp(-rate_slow[None, :] * delta)]
            cols.append(np.where(over[None, :],
                                 base * np.exp(-rate_fast[None, :] * delta),
                                 np.where(crit[None, :], cols[0] * delta, 0.0)))
            phase = table.splitting[None, :] * delta
            cols.append(np.where(osc[None, :], cols[0] * np.cos(phase), 0.0))
            cols.append(np.where(osc[None, :], cols[0] * np.sin(phase), 0.0))
            return np.concatenate(cols, axis=1)

        seg_spec = replace(self.quad, rel_tol=0.0)
        totals, _ = integrate_columns(f, self.t, t_new, seg_spec,
                                      abs_tol=self.quad.abs_tol,
                                      breakpoints=_panel_seeds(self.s, self.t,
                                                               t_new))
        n = table.nmodes
        return totals[:n], totals[n:2 * n], totals[2 * n:3 * n], totals[3 * n:]

    def advance(self, t_new: float) -> None:
        """Move the state from the current time to t_new > t."""
        if t_new < self.t:
            raise NegativeElapsed(
                f"cannot step backward from {self.t!r} to {t_new!r}")
        if t_new == self.t:
            return
        h = t_new - self.t
        table = self.table
        loc_slow, loc_mix, loc_cos, loc_sin = self._local_integrals(t_new)

        reg = table.regime
        over = reg == OVERDAMPED
        crit = reg == CRITICAL
        osc = reg == OSCILLATORY
        diff = reg == DIFFUSIVE

        decay_slow = np.exp(-np.where(over, table.slow, table.damping) * h)
        decay_fast = np.exp(-(table.damping + table.splitting) * h)

        e_slow_new = decay_slow * self._e_slow
        e_fast_new = np.where(
            over, decay_fast * self._e_fast,
            # critical: ramp state picks up h * E0 when the anchor shifts
            decay_slow * (self._e_fast + h * self._e_slow))
        e_slow_new[over | crit | diff] += loc_slow[over | crit | diff]
        e_fast_new[over | crit] += loc_mix[over | crit]

        if osc.any():
            rot_c = np.cos(table.splitting * h) * decay_slow
            rot_s = np.sin(table.splitting * h) * decay_slow
            e_cos_new = rot_c * self._e_cos - rot_s * self._e_sin + loc_cos
            e_sin_new = rot_s * self._e_cos + rot_c * self._e_sin + loc_sin
            self._e_cos = np.where(osc, e_cos_new, 0.0)
            self._e_sin = np.where(osc, e_sin_new, 0.0)

        self._e_slow = e_slow_new
        self._e_fast = e_fast_new
        self.t = t_new

    def values(self) -> np.ndarray:
        """Current P_mn array, aligned with the table's mode order."""
        table = self.table
        reg = table.regime
        out = np.zeros(table.nmodes)
        over = reg == OVERDAMPED
        out[over] = ((self._e_slow[over] - self._e_fast[over])
                     / (2.0 * table.splitting[over]))
        crit = reg == CRITICAL
        out[crit] = self._e_fast[crit]
        osc = reg == OSCILLATORY
        out[osc] = self._e_sin[osc] / table.splitting[osc]
        diff = reg == DIFFUSIVE
        out[diff] = self._e_slow[diff]
        return out
