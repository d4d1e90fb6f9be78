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

Lap is the Kronecker sum of the 1-D second differences Dxx and Dyy, so on
the (mx, my) state array Lap U = Dxx U + U Dyy, and every step matrix
a I + b Lap is inverted exactly by fast diagonalization (Lynch, Rice and
Thomas, 1964) in the ``numpy.linalg.eigh`` bases of Dxx and Dyy.  A step
needs no product with Lap: against the implicit matrix M = a_M I + b_M Lap
(A, or A - C on the first step), B = (b_B / b_M) M + beta I with
beta = a_B - a_M b_B / b_M, and C likewise, so

  u[n+1] = (b_B / b_M) u[n] + (b_C / b_M) u[n-1]
           + M^-1 (beta u[n] + gamma u[n-1] + S[n]),

where b_M <= -1/4 for every tau_T >= 0.  S[n] is an exact rank-2 product
of 1-D Gaussian factors (``_source_grid``).  Stepping, source and checks
stay on the grid and nothing is shared with ``series`` or ``modes``, so the
oracle stays an independent discretization of the PDE.

The march runs in place on fixed buffers: the three time levels rotate
through three arrays, and each update is built in one right-hand side and
one scratch array with ``out=`` ufuncs and the four eigenbasis products
in the association order above, so its fields are bitwise those of the
expression form.  Only the stored fields are copies.  ``checked_grid``
runs every input check and returns the node grid before any work, so the
``oracle`` command solves the matched series on that grid first and
marches after it; the series' tile temporaries then set the peak memory
instead of stacking on top of the stored fields.

Because a Gaussian source is not what the eigenfunction series solves,
the like-for-like comparison projects the same Gaussian, clipped at the
walls, onto the sine basis in closed form (``sine_projection``), and
``GaussianSourceFactors`` hands those per-axis tables to the point-source
product in place of the sine and cosine tables.  The Faddeeva function of
that closed form is evaluated with numpy alone, by Weideman's rational
approximation (J. A. C. Weideman, "Computation of the complex error
function", SIAM J. Numer. Anal. 31 (1994) 1497-1518; ``_faddeeva``).
"""

from __future__ import annotations

import math
from functools import cache, partial

import numpy as np

from .errors import UnstableConfig
from .model import FdmConfig, GridSpec, PlateScenario, TemperatureField
from .series import PointSourceFactors, solve_series
from .trajectory import position, velocity

BLOWUP_SENTINEL = 1e12


def _axis_counts(cfg: FdmConfig, L: float, H: float):
    nx = max(3, int(round(L / cfg.hx)) + 1)
    ny = max(3, int(round(H / cfg.hy)) + 1)
    return nx, ny, L / (nx - 1), H / (ny - 1)


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
        terms = ("1 / (2 alpha dt)", sc), ("tau_q / (alpha dt^2)", p)
    else:
        num = np.abs(1.0 / (s.alpha * dt) - lam * (0.5 - s.tau_T / dt))
        scale = 1.0 / (s.alpha * dt) + lam * (0.5 + s.tau_T / dt)
        ok = num <= scale * (1.0 + tol)
        terms = (("1 / (alpha dt)", 1.0 / (s.alpha * dt)),)
    for name, value in (*terms, ("a Laplacian row of the update", scale)):
        if not np.isfinite(value).all():
            raise OverflowError(f"FDM scheme overflows at alpha={s.alpha!r},"
                                f" dt={dt!r}: {name} is not finite")
    if not ok.all():
        bad = lam[~ok][0]
        raise UnstableConfig(
            f"time step dt={dt!r} fails the root condition at Laplacian "
            f"eigenvalue {bad:.6g}; refine dt or the spatial steps")


def _source_grid(s: PlateScenario, xi, yi, sigma, state):
    """(Q + tau_q dQ/dt) / k on the interior grid; state = (x, y, vx, vy).

    The Gaussian is separable and its drift (dx vx + dy vy) / sigma^2 is a
    sum of an x and a y term, so the source is exactly the rank-2 product
    [gx (1 + tau_q vx dx / sigma^2), gx] @ [gy, gy tau_q vy dy / sigma^2].
    """
    x, y, vx, vy = state
    dx = xi - x
    dy = yi - y
    var = sigma * sigma
    amp = s.theta / (2.0 * math.pi * var * s.k)
    gx = amp * np.exp(-dx * dx / (2.0 * var))
    gy = np.exp(-dy * dy / (2.0 * var))
    if s.tau_q == 0.0:
        return np.outer(gx, gy)
    rate = s.tau_q / var
    left = np.empty((xi.size, 2))
    left[:, 0] = gx * (1.0 + rate * vx * dx)
    left[:, 1] = gx
    right = np.empty((2, yi.size))
    right[0] = gy
    right[1] = gy * (rate * vy * dy)
    return left @ right


def checked_grid(s: PlateScenario, cfg: FdmConfig) -> GridSpec:
    """The node grid of ``cfg`` on ``s``, once every input check passes.

    Steps and t_end must be positive and finite, sigma finite and at least
    twice the larger grid step and ``store_every`` at least 1 (ValueError),
    and the step must pass the Jury scan (UnstableConfig).  ``solve_fdm``
    calls it first; so does a caller that needs the grid before the march.
    """
    if not all(0.0 < v < math.inf for v in (cfg.hx, cfg.hy, cfg.dt, cfg.t_end)):
        raise ValueError("hx, hy, dt and t_end must be positive and finite")
    nx, ny, hx, hy = _axis_counts(cfg, s.L, s.H)
    sigma = cfg.resolved_sigma()
    if not 2.0 * max(hx, hy) <= sigma < math.inf:
        raise ValueError(
            f"smoothing radius {sigma!r} under-resolved or not finite: need "
            f"a finite value of at least 2 * max(hx, hy) = "
            f"{2.0 * max(hx, hy)!r}")
    if cfg.store_every < 1:
        raise ValueError(f"store_every must be >= 1, got {cfg.store_every}")
    _jury_scan(s, cfg.dt, hx, hy)
    return GridSpec(nx, ny)


def solve_fdm(s: PlateScenario, cfg: FdmConfig, *, initial=None):
    """March the lagged heat equation; returns the stored field sequence.

    ``initial`` is a test-only hook: a callable (x, y) -> T overriding
    the uniform T0 start at the interior nodes (the initial rate stays
    zero).  The production path always starts quiescent.
    """
    grid = checked_grid(s, cfg)
    nx, ny, hx, hy = _axis_counts(cfg, s.L, s.H)
    sigma = cfg.resolved_sigma()
    nsteps = max(1, int(round(cfg.t_end / cfg.dt)))
    dt = cfg.t_end / nsteps
    xi = np.linspace(0.0, s.L, nx)[1:-1]
    yi = np.linspace(0.0, s.H, ny)[1:-1]
    dxx, dyy = ((np.eye(m, k=-1) - 2.0 * np.eye(m) + np.eye(m, k=1)) / (h * h)
                for m, h in ((nx - 2, hx), (ny - 2, hy)))
    (lx, vx), (ly, vy) = np.linalg.eigh(dxx), np.linalg.eigh(dyy)
    lam = lx[:, None] + ly[None, :]

    if initial is None:
        u_prev = np.zeros((nx - 2, ny - 2))
    else:
        xx, yy = np.meshgrid(xi, yi, indexing="ij")
        u_prev = np.asarray(initial(xx, yy), dtype=float) - s.T0

    def snapshot(u, t):
        values = np.pad(u + s.T0, 1, constant_values=float(s.T0))
        return TemperatureField(grid=grid, t=float(t), values=values)

    stored = [snapshot(u_prev, 0.0)]

    # Each scheme matrix is a pair (a, b) for a I + b Lap.
    if s.tau_q > 0.0:
        sc = 1.0 / (2.0 * s.alpha * dt)
        p = s.tau_q / (s.alpha * dt * dt)
        mat_a = (sc + p, -(0.25 + s.tau_T / (2.0 * dt)))
        mat_b = (2.0 * p, 0.5)
        mat_c = (sc - p, 0.25 - s.tau_T / (2.0 * dt))
        shift = 0.0
    else:
        # Two-level Crank-Nicolson: no u[n-1] term, source at mid-step.
        r = 1.0 / (s.alpha * dt)
        mat_a = (r, -(0.5 + s.tau_T / dt))
        mat_b = (r, 0.5 - s.tau_T / dt)
        mat_c = (0.0, 0.0)
        shift = 0.5

    def split(m, x):
        """(ratio, beta) with X = ratio M + beta I; b_M < 0 in every scheme."""
        ratio = x[1] / m[1]
        return ratio, x[0] - m[0] * ratio

    # The march reuses five fixed (mx, my) buffers: the three levels, which
    # rotate, the right-hand side and one scratch array.
    u_curr = u_prev.copy()
    u_next = np.empty_like(u_prev)
    rhs = np.empty_like(u_prev)
    work = np.empty_like(u_prev)
    vxt, vyt = vx.T, vy.T

    def stepper(m, c):
        """u[n+1] = (rb u[n] + rc u[n-1]) + M^-1 (beta u[n] + gamma u[n-1] + S)
        into ``out``, with no Laplacian product."""
        (rb, beta), (rc, gamma) = split(m, mat_b), split(m, c)
        inv = 1.0 / (m[0] + m[1] * lam)

        def step(u, u_old, src, out):
            np.multiply(u, beta, out=rhs)
            np.multiply(u_old, gamma, out=work)
            np.add(rhs, work, out=rhs)
            np.add(rhs, src, out=rhs)
            # M^-1 rhs = vx ((vx^T rhs vy) * inv) vy^T
            np.matmul(vxt, rhs, out=work)
            np.matmul(work, vy, out=rhs)
            np.multiply(rhs, inv, out=rhs)
            np.matmul(vx, rhs, out=work)
            np.matmul(work, vyt, out=out)
            np.multiply(u, rb, out=rhs)
            np.multiply(u_old, rc, out=work)
            np.add(rhs, work, out=rhs)
            np.add(rhs, out, out=out)
        return step

    # Quiescent start: the ghost level u[-1] = u[1] collapses the first
    # step to (A - C) u[1] = B u[0] + S[0].
    step_first = stepper((mat_a[0] - mat_c[0], mat_a[1] - mat_c[1]),
                         (0.0, 0.0))
    step_a = stepper(mat_a, mat_c)
    times = (np.arange(nsteps) + shift) * dt
    track = zip(*position(s.trajectory, times),
                *velocity(s.trajectory, times))

    # A non-finite step is reported by the sentinel, not by a float warning.
    with np.errstate(invalid="ignore", over="ignore"):
        for step, state in enumerate(track, start=1):
            src = _source_grid(s, xi, yi, sigma, state)
            (step_a if step > 1 else step_first)(u_curr, u_prev, src, u_next)
            if not (u_next.max() <= BLOWUP_SENTINEL
                    and u_next.min() >= -BLOWUP_SENTINEL):
                raise UnstableConfig(
                    f"solution exceeded {BLOWUP_SENTINEL:.0e} at step {step}; "
                    "the configuration is numerically unusable")
            u_prev, u_curr, u_next = u_curr, u_next, u_prev
            if step % cfg.store_every == 0 and step != nsteps:
                stored.append(snapshot(u_curr, step * dt))
    stored.append(snapshot(u_curr, cfg.t_end))
    return stored


# --- source-matched series -------------------------------------------------


@cache
def _weideman_coefficients():
    """(L, a): the N = 48 Taylor coefficients of Weideman's expansion,
    highest degree first.

    They are the Fourier coefficients of exp(-t^2) (L^2 + t^2) under the map
    t = L tan(theta / 2), sampled at theta = k pi / (2N), |k| < 2N (k = 2N is
    t = infinity, where the function vanishes).  Built on the first call, so
    importing the module costs no FFT.
    """
    n = 48
    L = math.sqrt(n / math.sqrt(2.0))
    t = L * np.tan(np.arange(1 - 2 * n, 2 * n) * (math.pi / (4 * n)))
    f = np.concatenate(([0.0], np.exp(-t * t) * (L * L + t * t)))
    a = np.fft.fft(np.fft.ifftshift(f)).real / (4 * n)
    return L, a[n:0:-1]


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """w(z) = e^(-z^2) erfc(-i z) for Im z >= 0 (Weideman 1994, N = 48).

    w = 2 p(Z) / (L - i z)^2 + 1 / (sqrt(pi) (L - i z)) with
    Z = (L + i z) / (L - i z) and p the degree-47 polynomial of
    ``_weideman_coefficients``; the relative error is below 2e-14 over the
    arguments of ``sine_projection``.
    """
    L, coef = _weideman_coefficients()
    d = L - 1j * z
    Z = (L + 1j * z) / d
    p = np.full_like(Z, coef[0])
    for c in coef[1:]:
        p *= Z
        p += c
    return 2.0 * p / (d * d) + 1.0 / (math.sqrt(math.pi) * d)


def sine_projection(rates: np.ndarray, limit: float, centers: np.ndarray,
                    sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """p_r(c) = integral over [0, limit] of g_sigma(xi - c) sin(r xi) dxi.

    Exact for the wall-clipped Gaussian and r = m pi / limit.  With
    x = c / (sigma sqrt 2), x' = (limit - c) / (sigma sqrt 2),
    y = r sigma / sqrt 2 and w the Faddeeva function (``_faddeeva``, numpy
    only, after Weideman 1994), the projection onto e^(i r xi) is the
    whole-line transform minus the tails beyond the walls,

      Z_r(c) = e^(-y^2) e^(i r c) - 1/2 e^(-x^2) w(-y + i x)
               - 1/2 (-1)^m e^(-x'^2) w(y + i x'),

    so p_r = Im Z_r and, e^(i r limit) = (-1)^m being real,
    dp_r/dc = r q_r with q_r = Re Z_r.  Returns the (C, R) tables p and q.
    """
    root2 = math.sqrt(2.0)
    y = rates * (sigma / root2)
    z = np.exp(1j * np.outer(centers, rates) - y * y)
    half = 0.5 - np.rint(rates * (limit / math.pi)) % 2.0   # (-1)^m / 2
    for dist, arg, fac in ((centers, -y, 0.5), (limit - centers, y, half)):
        x = dist / (sigma * root2)
        near = x < 27.0   # farther out e^(-x^2) underflows to 0
        xn = x[near, None]
        z[near] -= fac * np.exp(-xn * xn) * _faddeeva(arg + 1j * xn)
    return z.imag, z.real


class GaussianSourceFactors(PointSourceFactors):
    """Source factors of the Gaussian-smoothed source: the point-source
    product over the tables p and q of ``sine_projection`` in place of
    sin(k c) and cos(k c), where p_k(c) projects the wall-clipped Gaussian
    centred on the source and dp_k/dc = k q_k(c)."""

    band_limited = False   # the wall terms of p are not band-limited by k A

    def __init__(self, s: PlateScenario, kx: np.ndarray, ky: np.ndarray,
                 taus: np.ndarray, sigma: float):
        self.sigma = sigma
        super().__init__(s, kx, ky, taus)

    def _project(self, rates, limit, centers):
        return sine_projection(rates, limit, centers, self.sigma)

    # Its own class entry, so that wrapping one class's __call__ (as the
    # perfbench tracer does) leaves the other's unwrapped.
    __call__ = PointSourceFactors.__call__


def project_gaussian_source_series(s: PlateScenario, sigma: float,
                                   grid: GridSpec, t: float,
                                   M: int | None = None,
                                   N: int | None = None
                                   ) -> TemperatureField:
    """Series field whose source matches the smoothed FDM source."""
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    factory = partial(GaussianSourceFactors, sigma=sigma)
    return solve_series(s, t, M, N, factors_factory=factory).field(grid)


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
