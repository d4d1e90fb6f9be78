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

Every source the model describes runs along a line, circle or ellipse
with period T = 2 pi / |w|, or is parked (w = 0), so the coefficients come
from the source's harmonics: one FFT of the factors over a period, then a
closed-form convolution of each harmonic with the kernel's exponentials,
with the phase taken from fmod(t, T); cost and accuracy do not depend on
t.  It walks the row-major (m, n) modes in one thread, in tiles of whole
m-rows (or n-ranges of one row).  A point-source tile samples the period
only as finely as its own largest rates need (``_harmonic_samples``); the
Gaussian source's wall terms are not band-limited by the rates, so its
tiles keep the samples of the solve's largest rates.

The basis is separable.  The source factors are per-axis tables, built
once per solve at the solve's samples, and each tile takes the FFT of its
block of their product, scaled to one-sided amplitudes by powers of two.
On a line (B = 0) y and vy do not move, so every factor is an x-table
times one row sin(ky cy): the tile transforms its x-table alone, sums it
against the response over the harmonics and scales the sums by that row.
Assembly sums the series as SX @ A @ SY.T on a grid, or as the row sums
of (SX @ A) * SY at paired points, with A the (M, N) amplitude matrix and
SX, SY the per-axis sine tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeElapsed
from .model import GridSpec, PlateScenario, TemperatureField
from .modes import OSCILLATORY, OVERDAMPED, ModeTable, build_mode_table
from .trajectory import period as source_period
from .trajectory import position, velocity

HARMONIC_CHUNK = 256


def default_truncation(s: PlateScenario) -> tuple[int, int]:
    """Series length heuristic: slow diffusion needs the longer sum."""
    return (80, 80) if s.alpha < 1e-3 else (40, 40)


def resolve_truncation(s: PlateScenario, M: int | None = None,
                       N: int | None = None) -> tuple[int, int]:
    """(M, N) with any count left as None taken from ``default_truncation``."""
    if M is None or N is None:
        dm, dn = default_truncation(s)
        M = dm if M is None else M
        N = dn if N is None else N
    return M, N


def prefactor(s: PlateScenario, *, classical: bool) -> float:
    """Scalar multiplying gain * P_mn in the temperature series.

    ``classical`` is the branch the mode table chose (``table.classical``):
    the table may demote an unresolvably small tau_q to the zero-lag branch.
    """
    if classical:
        return 4.0 * s.alpha * s.theta / (s.L * s.H * s.k)
    return 4.0 * s.alpha * s.theta / (s.L * s.H * s.tau_q * s.k)


def resolve_threads(threads=None) -> int:
    """Validate a ``--threads`` value and return 1, the engines' worker count.

    The engines run in one thread.  The value is still accepted, and
    rejected below 0, so that existing command lines keep working.
    """
    if threads is not None and int(threads) < 0:
        raise ValueError(f"thread count must be >= 0, got {threads}")
    return 1


class PointSourceFactors:
    """Source factors of the Dirac point source at the samples taus.

    Per-axis tables p = sin(k c) and q = cos(k c) of the source coordinate
    c (so dp/dc = k q) are built once for the rates ``kx`` and ``ky``; a
    call on slices of the rates and samples forms that tile of the
    band-limited product f = px py + tau_q ((vx kx qx) py + (vy ky) px qy),
    and ``spectrum`` its one-sided amplitudes over the samples.

    On a line (B = 0, ``still``) y = cy and vy = 0 at every sample, so the
    y tables keep one row, which broadcasts over the samples, and every
    factor is the x-table px + tau_q vx kx qx times the row py.
    """

    band_limited = True

    def __init__(self, s: PlateScenario, kx: np.ndarray, ky: np.ndarray,
                 taus: np.ndarray):
        self.tau_q = s.tau_q
        self.still = s.trajectory.B == 0.0
        y_rows = slice(1) if self.still else slice(None)
        x, y = position(s.trajectory, taus)
        self.px, qx = self._project(kx, s.L, x)
        self.py, self.qy = self._project(ky, s.H, y[y_rows])
        if self.tau_q != 0.0:
            vx, vy = velocity(s.trajectory, taus)
            self.vqx = np.multiply.outer(vx, kx) * qx
            self.vky = np.multiply.outer(vy[y_rows], ky)

    def _project(self, rates, limit, centers):
        """(p, q) tables (C, R) of the source at centers; q only if lagged."""
        arg = np.outer(centers, rates)
        return np.sin(arg), np.cos(arg) if self.tau_q != 0.0 else None

    def __call__(self, rows: slice, cols: slice,
                 samples: slice = slice(None)) -> np.ndarray:
        """Row-major (q, R C) block of kx[rows] x ky[cols] at taus[samples]."""
        px, py = self.px[samples, rows, None], self.py[samples, None, cols]
        f = px * py
        if self.tau_q != 0.0:
            # Same association as the per-mode formula, so the point
            # source's values are bitwise those of every (sample, mode) pair.
            drift = self.vqx[samples, rows, None] * py
            cross = self.vky[samples, None, cols] * px
            cross *= self.qy[samples, None, cols]
            drift += cross
            drift *= self.tau_q
            f += drift
        return f.reshape(f.shape[0], -1)

    def spectrum(self, rows: slice, cols: slice, samples: slice):
        """One-sided amplitudes (spec, row) of the tile over its qt samples.

        spec is the rfft of the block ``self(rows, cols, samples)`` times
        2 / qt, DC and Nyquist rows halved: every scale is a power of two,
        so the values are those of a division by qt (zeros' signs aside).
        On a line spec is the x-table's (qt/2 + 1, R) spectrum and row the
        y row py, whose product is the block's; elsewhere row is None.
        """
        if self.still:
            block, row = self.px[samples, rows], self.py[0, cols]
            if self.tau_q != 0.0:
                block = block + self.tau_q * self.vqx[samples, rows]
        else:
            block, row = self(rows, cols, samples), None
        qt = block.shape[0]
        spec = np.fft.rfft(block, axis=0)
        spec *= 2.0 / qt
        spec[0] *= 0.5
        if qt > 1:
            spec[-1] *= 0.5   # the Nyquist row
        return spec, row


def _harmonic_samples(s: PlateScenario, kx: float, ky: float) -> int:
    """Samples Q per source period for the rates up to kx and ky.

    Jacobi-Anger: sin(kx (cx + A cos(w tau))) has the harmonics J_j(kx A),
    and |J_j(z)| < 1e-19 for j >= z + 12 z^(1/3) + 8.  The x-y product has
    the tail of one such series with z = rho = kx |A| + ky |B|, so Q / 2 >=
    rho + 12 rho^(1/3) + 8 leaves the aliased tail at rounding level: for
    the solve's largest rates, and for a band-limited tile's own.
    """
    traj = s.trajectory
    rho = kx * abs(traj.A) + ky * abs(traj.B)
    return 1 << math.ceil(math.log2(2.0 * (rho + 12.0 * rho ** (1 / 3) + 8.0)))


def _harmonic_coefficients(s: PlateScenario, table: ModeTable, t: float,
                           factory) -> np.ndarray:
    """Closed-form coefficients of a periodic (or parked, w = 0) source.

    A tile's spectrum of its q samples gives f = Re sum_j F_j e^(i w_j tau).
    Every lagged kernel is (e^(-r1 D) - e^(-r2 D)) / g with g = r2 - r1:
    r1 = slow and g = 2 b2 when overdamped, r1 = b1 - i |b2| and g = 2 i |b2|
    when oscillatory, r1 = b1 and g -> 0 when critical.  Each harmonic then
    convolves exactly; with s1 = r1 + i w_j, h = -expm1(-g t) / g (t when
    g = 0) and t' = fmod(t, T):

      diffusive  (e^(i w_j t') - e^(-r1 t)) / s1
      lagged     (e^(i w_j t') - e^(-r1 t) (1 + s1 h)) / (s1 (s1 + g))
    """
    M, N = table.M, table.N
    kx, ky = table.kx[::N], table.ky[:N]
    if s.trajectory.w == 0.0:
        q, taus, base, phase = 1, np.zeros(1), 0.0, 0.0
    else:
        q = _harmonic_samples(s, kx[-1], ky[-1])
        period = source_period(s.trajectory)
        taus = np.arange(q) * (period / q)
        base, phase = 2.0 * math.pi / period, math.fmod(t, period)
    omega = 1j * base * np.arange(q // 2 + 1)[:, None]
    wave = np.exp(omega * phase)
    factors = factory(s, kx, ky, taus)
    rows, cols = max(1, HARMONIC_CHUNK // N), min(N, HARMONIC_CHUNK)
    tiles = []
    for m0 in range(0, M, rows):
        for n0 in range(0, N, cols):
            # Whole rows, or part of one row: either way a run of the table.
            m1, n1 = min(m0 + rows, M), min(n0 + cols, N)
            # q and qt are powers of two: the tile reads every (q/qt)-th
            # sample.
            qt = (_harmonic_samples(s, kx[m1 - 1], ky[n1 - 1])
                  if factors.band_limited and q > 1 else q)
            tiles.append((m0, n0, m1, n1, qt))
    # Largest tiles (qt times modes) first: each fills only its own run of
    # ``out``, and once the largest temporaries are freed, glibc's raised
    # mmap threshold lets the smaller ones reuse that heap instead of
    # mapping and faulting in fresh pages.
    tiles.sort(key=lambda tile: tile[4] * (tile[2] - tile[0])
               * (tile[3] - tile[1]), reverse=True)
    out = np.empty(table.nmodes)
    for m0, n0, m1, n1, qt in tiles:
        sel = slice(m0 * N + n0, (m1 - 1) * N + n1)
        spec, row = factors.spectrum(slice(m0, m1), slice(n0, n1),
                                     slice(None, None, q // qt))
        harmonics = slice(qt // 2 + 1)
        regime, splitting = table.regime[sel], table.splitting[sel]
        osc = regime == OSCILLATORY
        rate = table.slow[sel].astype(complex)
        rate[osc] -= 1j * splitting[osc]
        # e^(-r1 t) is exactly 0 once Re(r1) t > 800; skipping those modes
        # keeps r1 t finite for any finite t (|Im r1| < Re r1).
        with np.errstate(over="ignore"):
            live = rate.real * t < 800.0
        decay = np.zeros(rate.shape, dtype=complex)
        decay[live] = np.exp(-rate[live] * t)
        s1 = rate + omega[harmonics]
        if table.classical:
            resp = (wave[harmonics] - decay) / s1
        else:
            gap = np.where(regime == OVERDAMPED, 2.0 * splitting,
                           0.0).astype(complex)
            gap[osc] = 2j * splitting[osc]
            ramp = np.full(gap.shape, t, dtype=complex)
            split = live & (gap != 0.0)
            ramp[split] = -np.expm1(-gap[split] * t) / gap[split]
            resp = ((wave[harmonics] - (decay + s1 * (decay * ramp)))
                    / (s1 * (s1 + gap)))
        if row is None:
            out[sel] = np.einsum("jp,jp->p", spec, resp).real
        else:   # sum each x-spectrum over the harmonics, then scale by row
            out[sel] = (np.einsum("jr,jrc->rc", spec, resp.reshape(
                len(spec), m1 - m0, -1)).real * row).ravel()
    return out


def mode_coefficients(s: PlateScenario, table: ModeTable, t: float, *,
                      factors_factory=None) -> np.ndarray:
    """Convolution coefficients P_mn(t) for every mode of the table.

    Returns an array in the table's row-major (m, n) mode order, computed
    by the harmonic engine (``_harmonic_coefficients``) from the factors
    ``factors_factory(s, kx, ky, taus)`` of per-axis rates kx and ky at
    the engine's samples taus, built once and transformed per tile
    (``spectrum``).
    """
    if not math.isfinite(t):
        raise ValueError(f"coefficients requested at non-finite time {t!r}")
    if t < 0.0:
        raise NegativeElapsed(f"coefficients requested at negative time {t!r}")
    if t == 0.0:
        return np.zeros(table.nmodes)
    return _harmonic_coefficients(s, table, t,
                                  factors_factory or PointSourceFactors)


# --- field assembly --------------------------------------------------------


def _sin_table(coords: np.ndarray, rates: np.ndarray, limit: float,
               axis: str) -> np.ndarray:
    """sin(coord * rate) with rows on the plate edge zeroed exactly.

    Every series term vanishes on the boundary analytically; zeroing the
    basis rows keeps that exact in floating point instead of leaving
    sin(m pi) roundoff.  Points off the plate (or not finite) raise.
    """
    bad = coords[~((coords >= 0.0) & (coords <= limit))]
    if bad.size:
        raise ValueError(f"sample {axis} = {bad[0]} lies outside [0, {limit}]")
    tab = np.sin(np.outer(coords, rates))
    tab[(coords == 0.0) | (coords == limit), :] = 0.0
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
    amp = amps.reshape(table.M, table.N)[:M, :N]
    kx = table.kx[:M * table.N:table.N]   # modes (m, 1)
    ky = table.ky[:N]                     # modes (1, n)
    sxa = _sin_table(xs, kx, s.L, "x") @ amp
    sy = _sin_table(ys, ky, s.H, "y")
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
                 N: int | None = None, *,
                 factors_factory=None) -> SeriesSolution:
    """Truncated series solution at time t (default truncation if M/N None)."""
    M, N = resolve_truncation(s, M, N)
    table = build_mode_table(s, M, N)
    coeffs = mode_coefficients(s, table, t, factors_factory=factors_factory)
    return SeriesSolution(s=s, table=table, coeffs=coeffs, t=float(t))

