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
t.  The response is real: one real factor E = 1 / |s1 s2|^2 per
(harmonic, mode), harmonic sums taken as BLAS products, and numerators
written so that start-up times cancel nothing (``_start_up``).  It walks
the row-major (m, n) modes in one thread, in tiles of whole m-rows (or
even n-ranges of one row) whose largest array holds at most
``TILE_BUDGET`` = 2^15 doubles (``_tile_plan``), so that a tile's
working set stays about L2-sized.  A point-source tile samples the period
only as finely as its own largest rates need (``_harmonic_samples``); the
Gaussian source's wall terms are not band-limited by the rates, so its
tiles keep the samples of the solve's largest rates.

The basis is separable.  The source factors are per-axis tables, built
once per solve at the solve's samples, and each tile takes the FFT of its
block of their product, scaled to one-sided amplitudes by powers of two.
On a line (B = 0) y and vy do not move, so every factor is an x-table
times one row sin(ky cy): the tile transforms its x-table alone, takes
its weighted harmonics against E as one real product per m-row and
scales the sums by that row.
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

# Doubles in a tile's largest array (``_tile_plan``): 256 KB, so that a
# tile's working set stays about L2-sized.  Tiles of 240 modes held 1 MB
# arrays on the 80x80 circle and ellipse (512 samples), and this budget
# made those solves about 30 % faster.  2^14 was slower on every scenario
# measured; 2^16 was no faster on them and grows the largest line tile.
TILE_BUDGET = 1 << 15


def resolve_truncation(s: PlateScenario, M: int | None = None,
                       N: int | None = None) -> tuple[int, int]:
    """(M, N), any count left as None taken from the scenario: slow
    diffusion (alpha < 1e-3) needs the longer sum, 80 modes, else 40."""
    default = 80 if s.alpha < 1e-3 else 40
    return (default if M is None else M, default if N is None else N)


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


def _tile_plan(s: PlateScenario, kx: np.ndarray, ky: np.ndarray, q: int,
               factors) -> list[tuple[int, int, int, int, int]]:
    """Tiles (m0, n0, m1, n1, qt) of the M x N modes, largest first.

    Each tile is a run of the row-major table: whole m-rows m0 ... m1 - 1,
    or one row's n-range n0 ... n1 - 1, sampled at the qt of its largest
    rates (the solve's q unless ``factors`` are band-limited).  It takes
    the most modes whose largest array holds at most ``TILE_BUDGET``
    doubles: qt samples per mode on a circle or ellipse (the factor block,
    its rfft and the E-weighted stack), qt / 2 harmonics per mode on a
    line (E).  A row over budget splits into the fewest even n-ranges that
    fit; a single mode over budget is a tile of its own.
    """
    M, N = len(kx), len(ky)
    kx, ky = kx.tolist(), ky.tolist()   # Python floats: faster scalar sums

    def samples(m, n):
        return (_harmonic_samples(s, kx[m], ky[n])
                if factors.band_limited and q > 1 else q)

    def per_mode(qt):   # doubles of the largest array
        return max(1, qt // 2 if factors.still else qt)

    row_qt = [samples(m, N - 1) for m in range(M)]
    tiles, m0 = [], 0
    while m0 < M:
        m1 = m0 + 1
        over = N * per_mode(row_qt[m0])
        if over > TILE_BUDGET:
            # The fewest even n-ranges that fit, or single modes.
            for parts in range(min(N, -(-over // TILE_BUDGET)), N + 1):
                cuts = [i * N // parts for i in range(parts + 1)]
                split = [(n0, n1, samples(m0, n1 - 1))
                         for n0, n1 in zip(cuts, cuts[1:])]
                if all((n1 - n0) * per_mode(qt) <= TILE_BUDGET
                       for n0, n1, qt in split):
                    break
            tiles += [(m0, n0, m1, n1, qt) for n0, n1, qt in split]
        else:
            while (m1 < M and (m1 + 1 - m0) * N * per_mode(row_qt[m1])
                   <= TILE_BUDGET):
                m1 += 1
            tiles.append((m0, 0, m1, N, row_qt[m1 - 1]))
        m0 = m1
    # Largest tiles (qt times modes) first: each fills only its own run of
    # the coefficients, and once the largest temporaries are freed, glibc's
    # raised mmap threshold lets the smaller ones reuse that heap instead
    # of mapping and faulting in fresh pages.
    tiles.sort(key=lambda tile: tile[4] * (tile[2] - tile[0])
               * (tile[3] - tile[1]), reverse=True)
    return tiles


# Taylor coefficients, highest power first, of phi_a(x) / x^2 with
# phi_a(x) = 1 - e^(-x) (1 + x), of phi_b(y) / y with
# phi_b(y) = 1 - (1 - e^(-y)) / y, and of (sin u - u) / u^3 and
# (cos u - 1 + u^2 / 2) / u^4 in u^2.  Below |x|, |y| = 1/2 and |u| = 1,
# where the closed forms cancel, the first term left out is under 1e-16
# of the sum.
_PHI_A = [(-1) ** k * (k - 1) / math.factorial(k) for k in range(17, 1, -1)]
_PHI_B = [(-1) ** (k + 1) / math.factorial(k + 1) for k in range(16, 0, -1)]
_SIN_LESS = [(-1) ** k / math.factorial(2 * k + 1) for k in range(10, 0, -1)]
_COS_LESS = [(-1) ** k / math.factorial(2 * k) for k in range(10, 1, -1)]

# Response terms: (harmonic vector, power of w) per row, the harmonic
# vectors being 0: e^(i w t') - 1, 1: -i (e^(i w t') - 1), 2: e^(i w t') - 1
# - i w t (+ (w t)^2 / 2 in form 3), 3: -i times that, 4: 1 and 5: -i.
# Lagged rows 3-5 serve the modes that take form 2 or 3.
_LAGGED = (np.array([0, 0, 1, 2, 2, 3, 4, 5, 4, 5]),
           np.array([0, 2, 1, 0, 2, 1, 0, 1, 2, 3]))
_CLASSICAL = (np.array([0, 1, 4, 5]), np.array([0, 1, 0, 1]))


def _cancel_free(z, cut, series, closed):
    """series(z) where |z| < cut, closed(z) elsewhere."""
    near = np.abs(z) < cut
    out = np.empty_like(z)
    out[near] = series(z[near])
    out[~near] = closed(z[~near])
    return out


def _start_up(table: ModeTable, t: float):
    """Per-mode (kappa1, Lambda, form2) of the response numerators.

    kappa = e^(-r1 t) (1 + r1 h) and lambda = e^(-r1 t) h (the kernel at
    t) are real in every regime.  The numerator e^(i w t') - kappa -
    i w lambda is taken as (e^(i w t') - 1) + kappa1 + i w Lambda with
    Lambda = -lambda (form 1) or, for the modes still starting up
    (``form2``: |t - lambda| < |lambda|), as (e^(i w t') - 1 - i w t) +
    kappa1 + i w Lambda with Lambda = t - lambda (form 2).  With x = r1 t
    and y = g t, kappa1 = 1 - kappa = phi_a(x) + x e^(-x) phi_b(y) and
    t - lambda = t (1 - e^(-x) + e^(-x) phi_b(y)) do not cancel; the
    diffusive kappa1 is 1 - e^(-r t).
    """
    kappa1, lam = np.ones(table.nmodes), np.zeros(table.nmodes)
    form2 = np.zeros(table.nmodes, dtype=bool)
    # e^(-r1 t) is exactly 0 once Re(r1) t > 800; skipping those modes
    # keeps r1 t finite for any finite t.
    with np.errstate(over="ignore"):
        live = table.slow * t < 800.0
    if table.classical:
        kappa1[live] = -np.expm1(-table.slow[live] * t)
        return kappa1, lam, form2
    regime, splitting = table.regime[live], table.splitting[live]
    x = table.slow[live] * t
    y = np.where(regime == OVERDAMPED, 2.0 * splitting * t, 0.0)
    osc = regime == OSCILLATORY
    if osc.any():   # complex only where the rates are
        turn = np.where(osc, splitting * t, 0.0)
        x, y = x - 1j * turn, y + 2j * turn
    decay = np.exp(-x)
    phi_b = _cancel_free(y, 0.5, lambda y: y * np.polyval(_PHI_B, y),
                         lambda y: 1.0 + np.expm1(-y) / y)
    held = _cancel_free(y, 0.5, lambda y: 1.0 - y * np.polyval(_PHI_B, y),
                        lambda y: -np.expm1(-y) / y)      # h / t
    phi_a = _cancel_free(x, 0.5, lambda x: x * x * np.polyval(_PHI_A, x),
                         lambda x: -np.expm1(-x) - x * np.exp(-x))
    kappa1[live] = (phi_a + x * decay * phi_b).real
    kernel = t * (decay * held).real
    rest = t * (decay * phi_b - np.expm1(-x)).real
    form2[live] = np.abs(rest) < np.abs(kernel)
    lam[live] = np.where(form2[live], rest, -kernel)
    return kappa1, lam, form2


def _harmonic_coefficients(s: PlateScenario, table: ModeTable, t: float,
                           factory) -> np.ndarray:
    """Closed-form coefficients of a periodic (or parked, w = 0) source.

    A tile's spectrum of its q samples gives f = Re sum_j F_j e^(i w_j tau).
    Every lagged kernel is (e^(-r1 D) - e^(-r2 D)) / g with g = r2 - r1:
    r1 = slow and g = 2 b2 when overdamped, r1 = b1 - i |b2| and g = 2 i |b2|
    when oscillatory, r1 = b1 and g -> 0 when critical.  Each harmonic then
    convolves exactly; with s1 = r1 + i w_j, s2 = s1 + g and t' = fmod(t, T)
    the coefficient is Re sum_j F_j times

      diffusive  (e^(i w_j t') - kappa) / s1
      lagged     (e^(i w_j t') - kappa - i w_j lambda) / (s1 s2)

    with the real per-mode kappa and lambda of ``_start_up``, whose
    numerator forms keep every digit at start-up times.  P = r1 r2 and
    S = r1 + r2 are real in every regime, so 1 / (s1 s2) = (P - w^2 -
    i w S) E and 1 / s1 = (r - i w) E with one real factor E per
    (harmonic, mode), itself one small matrix product and a reciprocal.
    Each coefficient is then a sum of per-mode terms (rows of ``terms``)
    times sum_j Re(F_j V_j) w_j^p E_j over a few harmonic vectors V
    (``vectors``, indexed by ``_LAGGED`` or ``_CLASSICAL``).  A line tile
    takes those sums as one real (K x J) @ (J x C) product per m-row, its
    x-spectrum's weights with E; a circle or ellipse tile as one
    (K x 2J) @ (2J x P) product, the weights with E Re F over E Im F.
    The DC harmonic is exactly kappa1 / P (kappa1 / r).  One power of two
    per solve divides the rates and w (each term row takes it back after
    its product with the sums): the rates of a solve spread by at most
    about (M^2 + N^2) / 2 and its frequencies by q / 2, so the scaled
    |s1 s2|^2 stays far inside the double range.  Mode constants times
    harmonic sums cancel near a resonance w = b2 of a lightly damped
    oscillatory mode: there about log10(b2 / b1) digits are lost.
    """
    N = table.N
    kx, ky = table.kx[::N], table.ky[:N]
    if s.trajectory.w == 0.0:
        q, taus, base, phase = 1, np.zeros(1), 0.0, 0.0
    else:
        q = _harmonic_samples(s, kx[-1], ky[-1])
        period = source_period(s.trajectory)
        taus = np.arange(q) * (period / q)
        base, phase = 2.0 * math.pi / period, math.fmod(t, period)
        if math.isinf(base * (q // 2)):
            raise OverflowError(f"{q // 2} harmonics of w = {s.trajectory.w!r}"
                                f" overflow at t = {t!r}")
    # Until the source's band (Jacobi-Anger, as in ``_harmonic_samples``)
    # has turned by a radian, the form-2 modes also take out the leading
    # term t^2 / 2 of their response (form 3): their numerators drop
    # t^2 / 2 s1 s2, and each tile adds t^2 / 2 times its amplitudes' sum.
    traj = s.trajectory
    turn = base * (kx[-1] * abs(traj.A) + ky[-1] * abs(traj.B) + 1.0)
    kappa1, lam, form2 = _start_up(table, t)
    lead = (np.where(form2, 0.5 * t * t, 0.0)
            if turn > 0.0 and t <= 1.0 / turn else None)
    slow = table.slow
    if table.classical:
        order, (vec, power), units = 1, _CLASSICAL, [[1]]
        dens = slow[None]
        terms = np.stack([slow, np.ones_like(slow), slow * kappa1, kappa1])
        dc = kappa1 / slow
    else:
        order, (vec, power), units = 2, _LAGGED, [[1], [1], [2], [1]]
        osc = table.regime == OSCILLATORY
        split = table.splitting
        gap = np.where(table.regime == OVERDAMPED, 2.0 * split, 0.0)
        prod, total = slow * (slow + gap), 2.0 * slow + gap
        prod[osc] += split[osc] ** 2
        if lead is not None:
            kappa1, lam = kappa1 - prod * lead, lam - total * lead
        # |s1 s2|^2 = w^4 + (S^2 - 2 P) w^2 + P^2 with S^2 - 2 P =
        # u1 |u1| + u2 |u2|: r1^2 + r2^2, or 2 (b1^2 - b2^2) if oscillatory.
        dens = np.stack([slow, slow + gap, prod, total])
        b1, b2 = slow[osc], split[osc]
        dens[:2, osc] = np.copysign(np.sqrt(np.abs((b1 - b2) * (b1 + b2))),
                                    b1 - b2)
        one, two = 1.0 - form2, form2.astype(float)
        terms = np.stack([prod * one, -one, total * one, prod * two, -two,
                          total * two, prod * kappa1,
                          total * kappa1 - prod * lam, total * lam - kappa1,
                          lam])
        dc = kappa1 / prod
    freq = base * np.arange(q // 2 + 1)
    theta = freq * phase
    wave = -2.0 * np.sin(0.5 * theta) ** 2 + 1j * np.sin(theta)
    late = wave   # form 2: e^(i w t') - 1 - i w t; form 3: + (w t)^2 / 2
    if form2.any():
        less = _cancel_free(
            theta, 1.0, lambda u: u ** 3 * np.polyval(_SIN_LESS, u * u),
            lambda u: np.sin(u) - u) + (theta - freq * t)
        late = wave.real + 1j * less if lead is None else _cancel_free(
            theta, 1.0, lambda u: u ** 4 * np.polyval(_COS_LESS, u * u),
            lambda u: 0.5 * u * u - 2.0 * np.sin(0.5 * u) ** 2) + 1j * less
    vectors = np.stack([wave, -1j * wave, late, -1j * late,
                        np.ones_like(wave), np.full_like(wave, -1j)])
    factors = factory(s, kx, ky, taus)
    out = np.empty(table.nmodes)
    if q > 1:
        # 2^scale centres log |s1 s2| (log |s1|) between the solve's
        # smallest rates at w_1 and its largest at w_(q/2).
        ends = np.abs(dens[:order])
        ends = np.log2([np.maximum(ends.min(axis=1), base),
                        np.maximum(ends.max(axis=1), freq[-1])])
        scale = round(ends.mean())
        omega = np.ldexp(freq[1:], -scale)
        weights = vectors[vec, 1:] * omega ** power[:, None]
        re, im = weights.real, -weights.imag
        left = omega[:, None] ** np.arange(2 * order, -1, -2)
        # 2^-scale to the powers ``units`` of u1, u2, P and S (or of r)
        units = -scale * np.array(units)
        shift = ((power - 2 * order) * scale)[:, None]
    for m0, n0, m1, n1, qt in _tile_plan(s, kx, ky, q, factors):
        sel = slice(m0 * N + n0, (m1 - 1) * N + n1)
        # q and qt are powers of two: the tile reads every (q/qt)-th sample.
        spec, row = factors.spectrum(slice(m0, m1), slice(n0, n1),
                                     slice(None, None, q // qt))
        line = slice(None) if row is None else np.s_[:, None]
        grid = (-1,) if row is None else (m1 - m0, -1)
        coeffs = spec[0].real[line] * dc[sel].reshape(grid)
        if lead is not None:
            coeffs += spec.real.sum(axis=0)[line] * lead[sel].reshape(grid)
        harm = qt // 2
        if harm:
            d = np.ldexp(dens[:, sel], units)   # in the solve's scale
            gain = left[:harm] @ np.stack([np.ones_like(d[0]), (
                d[:order] * np.abs(d[:order])).sum(axis=0), *(d[2:3] ** 2)])
            weak = d[0] < 0.0   # b2 > b1: near w = b2 that sum cancels
            if weak.any():   # there take (P - w^2)^2 + (w S)^2
                sq = left[:harm, 1:2]
                gain[:, weak] = (d[2][weak] - sq) ** 2 + sq * d[3][weak] ** 2
            np.reciprocal(gain, out=gain)
            fs = spec[1:] if row is None else spec[1:].T[:, None, :]
            if row is None:
                stack = np.empty((2 * harm, gain.shape[1]))
                np.multiply(gain, fs.real, out=stack[:harm])
                np.multiply(gain, fs.imag, out=stack[harm:])
                sums = np.hstack([re[:, :harm], im[:, :harm]]) @ stack
                coeffs += np.ldexp(terms[:, sel] * sums, shift).sum(axis=0)
            else:
                sums = (fs.real * re[:, :harm] + fs.imag * im[:, :harm]) @ (
                    gain.reshape(harm, m1 - m0, -1).transpose(1, 0, 2))
                part = terms[:, sel].reshape(len(terms), m1 - m0, -1)
                coeffs += np.ldexp(sums * part.swapaxes(0, 1), shift).sum(1)
        out[sel] = (coeffs if row is None else coeffs * row).ravel()
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
    out = _harmonic_coefficients(s, table, t,
                                 factors_factory or PointSourceFactors)
    if not np.isfinite(out).all():
        raise OverflowError(f"coefficients at w = {s.trajectory.w!r}, "
                            f"t = {t!r} are not finite")
    return out


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
    at the points (xs[i], ys[i]) as the row sums of (SX @ A) * SY.  Sums
    that are not finite, or not once T0 is added, raise OverflowError.
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
    values = np.einsum("ij,ij->i", sxa, sy) if paired else sxa @ sy.T
    ends = values.min(initial=0.0), values.max(initial=0.0)   # no temporary
    if not np.isfinite(np.add(ends, s.T0)).all():
        raise OverflowError("series temperatures are not finite")
    return values


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

