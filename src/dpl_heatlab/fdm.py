"""Finite-difference cross-check solver and the source-matched series.

Discretizes the lagged heat equation directly: second-order central
Laplacian, a three-level time scheme centered at step n (so the mixed
gradient-lag term differences the Laplacian between levels), and the
point source replaced by a normalized Gaussian of radius sigma whose
time derivative is evaluated analytically from the trajectory velocity.

With s = 1/(2 alpha dt), p = tau_q / (alpha dt^2) and Lap the discrete
Laplacian, the update solves

  [(s + p) I - (1/4 + tau_T/(2 dt)) Lap] u[n+1]
      = [2 p I + (1/2) Lap] u[n]
      + [(s - p) I + (1/4 - tau_T/(2 dt)) Lap] u[n-1] + S[n]

which a Jury analysis shows stable for every positive dt; the scan is
still performed (and a blow-up sentinel kept) to honor the error
contract for hand-built configurations.  tau_q = 0 drops to a two-level
Crank-Nicolson step with the gradient-lag term differenced across the
level pair.

Because a Gaussian source is not what the eigenfunction series solves,
the like-for-like comparison projects the same Gaussian onto the sine
basis: per-axis projection integrals are tabulated on a dense grid of
source centers and splined, then fed through the ordinary convolution
machinery in place of the point-source sine factors.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.sparse import eye, identity, kron
from scipy.sparse import diags
from scipy.sparse.linalg import splu

from .errors import UnstableConfig
from .model import FdmConfig, GridSpec, PlateScenario, TemperatureField
from .quadrature import QuadratureSpec
from .series import solve_series
from .trajectory import position, velocity, velocity_bounds

BLOWUP_SENTINEL = 1e12


def _axis_counts(cfg: FdmConfig, L: float, H: float):
    nx = max(3, int(round(L / cfg.hx)) + 1)
    ny = max(3, int(round(H / cfg.hy)) + 1)
    return nx, ny, L / (nx - 1), H / (ny - 1)


def _laplacian(nx: int, ny: int, hx: float, hy: float):
    """Interior 5-point Laplacian for the Dirichlet problem, CSC."""
    mx, my = nx - 2, ny - 2
    dxx = diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(mx, mx)) / (hx * hx)
    dyy = diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(my, my)) / (hy * hy)
    return (kron(dxx, identity(my)) + kron(identity(mx), dyy)).tocsc()


def _jury_scan(s: PlateScenario, dt: float, hx: float, hy: float) -> None:
    """Root-condition check of the update over the Laplacian spectrum."""
    lam_max = 4.0 / (hx * hx) + 4.0 / (hy * hy)
    lam = np.concatenate([[1e-12], np.geomspace(1e-6, lam_max, 256)])
    tol = 1e-9
    if s.tau_q > 0.0:
        sc = 1.0 / (2.0 * s.alpha * dt)
        p = s.tau_q / (s.alpha * dt * dt)
        a = sc + p + lam * (0.25 + s.tau_T / (2.0 * dt))
        b = 2.0 * p - 0.5 * lam
        c = sc - p - lam * (0.25 - s.tau_T / (2.0 * dt))
        scale = np.maximum(np.abs(a), np.maximum(np.abs(b), np.abs(c)))
        ok = ((a - b - c >= -tol * scale)
              & (a + b - c >= -tol * scale)
              & (a - np.abs(c) >= -tol * scale))
    else:
        num = np.abs(1.0 / (s.alpha * dt) - lam * (0.5 - s.tau_T / dt))
        den = 1.0 / (s.alpha * dt) + lam * (0.5 + s.tau_T / dt)
        ok = num <= den * (1.0 + tol)
    if not ok.all():
        bad = lam[~ok][0]
        raise UnstableConfig(
            f"time step dt={dt!r} fails the root condition at Laplacian "
            f"eigenvalue {bad:.6g}; refine dt or the spatial steps")


def _source_grid(s: PlateScenario, xi, yi, sigma, t):
    """(Q + tau_q dQ/dt) / k on the interior grid at time t."""
    x_src, y_src = position(s.trajectory, t)
    vx, vy = velocity(s.trajectory, t)
    dx = xi - x_src
    dy = yi - y_src
    amp = s.theta / (2.0 * math.pi * sigma * sigma)
    q = amp * np.outer(np.exp(-dx * dx / (2.0 * sigma * sigma)),
                       np.exp(-dy * dy / (2.0 * sigma * sigma)))
    if s.tau_q != 0.0:
        drift = (dx[:, None] * vx + dy[None, :] * vy) / (sigma * sigma)
        q = q + s.tau_q * q * drift
    return (q / s.k).reshape(-1)


def solve_fdm(s: PlateScenario, cfg: FdmConfig, *, initial=None):
    """March the lagged heat equation; returns the stored field sequence.

    ``initial`` is a test-only hook: a callable (x, y) -> T or an
    (nx, ny) array overriding the uniform T0 start (the initial rate
    stays zero).  The production path always starts quiescent.
    """
    nx, ny, hx, hy = _axis_counts(cfg, s.L, s.H)
    sigma = cfg.resolved_sigma()
    if sigma < 2.0 * max(hx, hy):
        raise ValueError(
            f"smoothing radius {sigma!r} under-resolved: need at least "
            f"2 * max(hx, hy) = {2.0 * max(hx, hy)!r}")
    if not (0.0 < cfg.dt < math.inf and 0.0 < cfg.t_end < math.inf):
        raise ValueError("dt and t_end must be positive and finite")
    if cfg.store_every < 1:
        raise ValueError(f"store_every must be >= 1, got {cfg.store_every}")
    _jury_scan(s, cfg.dt, hx, hy)

    nsteps = max(1, int(round(cfg.t_end / cfg.dt)))
    dt = cfg.t_end / nsteps
    xs = np.linspace(0.0, s.L, nx)
    ys = np.linspace(0.0, s.H, ny)
    xi, yi = xs[1:-1], ys[1:-1]
    lap = _laplacian(nx, ny, hx, hy)
    m = lap.shape[0]
    grid = GridSpec(nx, ny)

    if initial is None:
        u_prev = np.zeros(m)
    elif callable(initial):
        xx, yy = np.meshgrid(xi, yi, indexing="ij")
        u_prev = (np.asarray(initial(xx, yy), dtype=float) - s.T0).reshape(-1)
    else:
        arr = np.asarray(initial, dtype=float)
        if arr.shape != (nx, ny):
            raise ValueError(f"initial field must be {(nx, ny)}, got {arr.shape}")
        u_prev = (arr[1:-1, 1:-1] - s.T0).reshape(-1)

    def snapshot(u, t):
        full = np.full((nx, ny), float(s.T0))
        full[1:-1, 1:-1] = u.reshape(nx - 2, ny - 2) + s.T0
        return TemperatureField(grid=grid, t=float(t), values=full)

    stored = [snapshot(u_prev, 0.0)]

    ident = eye(m, format="csc")
    if s.tau_q > 0.0:
        sc = 1.0 / (2.0 * s.alpha * dt)
        p = s.tau_q / (s.alpha * dt * dt)
        mat_a = ((sc + p) * ident - (0.25 + s.tau_T / (2.0 * dt)) * lap).tocsc()
        mat_b = (2.0 * p * ident + 0.5 * lap).tocsr()
        mat_c = ((sc - p) * ident + (0.25 - s.tau_T / (2.0 * dt)) * lap).tocsr()
        # Quiescent start: the ghost level u[-1] = u[1] collapses the first
        # step to (A - C) u[1] = B u[0] + S[0].
        solve_first = splu((mat_a - mat_c).tocsc())
        shift = 0.0
    else:
        # Two-level Crank-Nicolson: no u[n-1] term, source at mid-step.
        r = 1.0 / (s.alpha * dt)
        mat_a = (r * ident - (0.5 + s.tau_T / dt) * lap).tocsc()
        mat_b = (r * ident + (0.5 - s.tau_T / dt) * lap).tocsr()
        mat_c = None
        shift = 0.5
    solve_a = splu(mat_a)
    if mat_c is None:
        solve_first = solve_a

    u_curr = u_prev
    for n in range(nsteps):
        rhs = mat_b @ u_curr
        if mat_c is not None and n > 0:
            rhs += mat_c @ u_prev
        rhs += _source_grid(s, xi, yi, sigma, (n + shift) * dt)
        u_next = (solve_first if n == 0 else solve_a).solve(rhs)
        if not np.isfinite(u_next).all() or np.abs(u_next).max() > BLOWUP_SENTINEL:
            raise UnstableConfig(
                f"solution exceeded {BLOWUP_SENTINEL:.0e} at step {n + 1}; "
                "the configuration is numerically unusable")
        u_prev, u_curr = u_curr, u_next
        step = n + 1
        if step % cfg.store_every == 0 and step != nsteps:
            stored.append(snapshot(u_curr, step * dt))
    stored.append(snapshot(u_curr, cfg.t_end))
    return stored


# --- source-matched series -------------------------------------------------


def _projection_table(rates: np.ndarray, limit: float, centers: np.ndarray,
                      sigma: float) -> np.ndarray:
    """p_r(c) = integral over [0, limit] of g_sigma(xi - c) sin(r xi) dxi.

    Tabulated for every (center, rate) pair by Gauss-Legendre panels over
    the +-8 sigma support clipped to the domain.
    """
    nodes, weights = np.polynomial.legendre.leggauss(96)
    out = np.empty((centers.size, rates.size))
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    for start in range(0, centers.size, 256):
        c = centers[start:start + 256]
        lo = np.maximum(0.0, c - 8.0 * sigma)
        hi = np.minimum(limit, c + 8.0 * sigma)
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        u = mid[:, None] + half[:, None] * nodes[None, :]
        g = norm * np.exp(-((u - c[:, None]) ** 2) / (2.0 * sigma * sigma))
        gw = g * (half[:, None] * weights[None, :])
        out[start:start + 256] = np.einsum(
            "cg,cgr->cr", gw, np.sin(u[:, :, None] * rates[None, None, :]))
    return out


def _center_range(s: PlateScenario, axis: int, sigma: float):
    traj = s.trajectory
    if traj.kind == "custom":
        ts = np.asarray(traj.samples[0], dtype=float)
        tt = np.linspace(ts[0], ts[-1], 4096)
        vals = position(traj, tt)[axis]
        lo, hi = float(np.min(vals)), float(np.max(vals))
    else:
        if axis == 0:
            lo, hi = traj.cx - traj.A, traj.cx + traj.A
        else:
            lo, hi = traj.cy - traj.B, traj.cy + traj.B
    pad = max(sigma * 0.25, 1e-9)
    return lo - pad, hi + pad


class GaussianSourceFactors:
    """Convolution source factors for the Gaussian-smoothed source.

    Drop-in replacement for the point-source factors: sin(k c) becomes the
    tabulated projection p_k(c), and the advection term uses the spline
    derivative dp_k/dc.
    """

    def __init__(self, s: PlateScenario, kx: np.ndarray, ky: np.ndarray,
                 sigma: float):
        self.s = s
        self.sigma = sigma
        self.kx = kx
        self.ky = ky
        self._ux, self._ix = np.unique(kx, return_inverse=True)
        self._uy, self._iy = np.unique(ky, return_inverse=True)
        self._spl_x, self._dspl_x = self._build(self._ux, s.L, 0)
        self._spl_y, self._dspl_y = self._build(self._uy, s.H, 1)

    def _build(self, rates, limit, axis):
        lo, hi = _center_range(self.s, axis, self.sigma)
        count = int(math.ceil((hi - lo) / (self.sigma / 64.0))) + 1
        centers = np.linspace(lo, hi, min(max(count, 33), 20001))
        table = _projection_table(rates, limit, centers, self.sigma)
        spline = CubicSpline(centers, table, axis=0)
        return spline, spline.derivative()

    def __call__(self, taus: np.ndarray, cols=None) -> np.ndarray:
        """(Q, P) factors at taus for the mode columns ``cols`` (all if None)."""
        cols = slice(None) if cols is None else cols
        ix, iy = self._ix[cols], self._iy[cols]
        x, y = position(self.s.trajectory, taus)
        px_u, py_u = self._spl_x(x), self._spl_y(y)
        f = np.take(px_u, ix, axis=1)
        f *= np.take(py_u, iy, axis=1)
        if self.s.tau_q != 0.0:
            vx, vy = velocity(self.s.trajectory, taus)
            drift = np.take(self._dspl_x(x), ix, axis=1)
            drift *= vx[:, None]
            drift *= np.take(py_u, iy, axis=1)
            cross = np.take(px_u, ix, axis=1)
            cross *= vy[:, None]
            cross *= np.take(self._dspl_y(y), iy, axis=1)
            drift += cross
            drift *= self.s.tau_q
            f += drift
        return f

    def bound(self) -> np.ndarray:
        vx_max, vy_max = velocity_bounds(self.s.trajectory)
        slope = math.sqrt(2.0 / math.pi) / self.sigma
        cap = 1.0 + self.s.tau_q * (vx_max + vy_max) * slope
        return np.full(self.kx.size, cap)


def project_gaussian_source_series(s: PlateScenario, sigma: float,
                                   grid: GridSpec, t: float,
                                   M: int | None = None,
                                   N: int | None = None,
                                   quad: QuadratureSpec | None = None, *,
                                   threads=None) -> TemperatureField:
    """Series field whose source matches the smoothed FDM source."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")

    def factory(sc, kx, ky):
        return GaussianSourceFactors(sc, kx, ky, sigma)

    return solve_series(s, t, M, N, quad, threads=threads,
                        factors_factory=factory).field(grid)


def deviation_report(candidate: TemperatureField, reference: TemperatureField,
                     T0: float) -> dict:
    """RMS/max deviation of a field against a reference on the same grid."""
    if candidate.values.shape != reference.values.shape:
        raise ValueError("fields live on different grids")
    diff = candidate.values - reference.values
    signal = reference.values - T0
    rms_diff = float(np.sqrt(np.mean(diff * diff)))
    rms_signal = float(np.sqrt(np.mean(signal * signal)))
    rms_rel = 0.0 if rms_diff == 0.0 else rms_diff / rms_signal
    return {
        "rms_abs": rms_diff,
        "rms_rel": rms_rel,
        "max_abs": float(np.max(np.abs(diff))),
        "max_signal": float(np.max(np.abs(signal))),
    }
