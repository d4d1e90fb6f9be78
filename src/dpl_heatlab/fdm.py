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

On an eigenvector of -Lap (eigenvalue lam >= 0) the update reads
a u[n+1] = b u[n] + c u[n-1], stable (Jury) when a - b - c >= 0,
a + b - c >= 0 and a >= |c|.  Here a - b - c = lam, a + b - c = 4 p, and
a >= |c| for every lam iff tau_T >= 0 (a - c = 2 p + lam / 2,
a + c = 2 s + lam tau_T / dt).  tau_q = 0 drops to a two-level
Crank-Nicolson step with the gradient-lag term differenced across the
level pair, stable by the triangle inequality when tau_T >= 0.  So
``_scheme`` asks alpha > 0, tau_T >= 0 and finite coefficients at the
march's step; a blow-up sentinel guards the march itself.

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
of 1-D Gaussian factors (``_source_factors``, ``_source_grid``).
Stepping, source and checks stay on the grid and nothing is shared with
``series`` or ``modes``, so the oracle stays an independent
discretization of the PDE.

The march runs in place on fixed buffers: the three time levels rotate
through three arrays, and each update is built in one right-hand side and
one scratch array with ``out=`` ufuncs and the four eigenbasis products
in the association order above, so its fields are bitwise those of the
expression form.  The Gaussian's 1-D factors are evaluated for a block
of steps at once, with one ``exp`` per axis; a block's factors hold at
most one level's doubles (19 steps at 79 x 79), and each step writes its
own product into one source buffer.  Equal axes share one eigenbasis, and
vy^T is kept contiguous: as the right operand of the last product a
transposed view took OpenBLAS 29.6 us at 79 x 79 on one thread, the copy
15.8 us.  On larger interiors the two layouts give the same bits; on 24
nodes or fewer per axis OpenBLAS's small-matrix kernels sum them in other
orders, a few 1e-14 of the peak apart.  Only the stored fields are
copies.  ``checked_grid`` runs every input check and returns the node
grid before any work, so the ``oracle`` command solves the matched series
on that grid first and marches after it; the series' tile temporaries
then set the peak memory instead of stacking on top of the stored fields.

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
import os
from functools import cache, partial

import numpy as np

from .errors import UnstableConfig
from .model import FdmConfig, GridSpec, PlateScenario, TemperatureField
from .series import PointSourceFactors, solve_series
from .trajectory import position, velocity

BLOWUP_SENTINEL = 1e12


def _counts(cfg: FdmConfig, L: float, H: float):
    """(nx, ny, hx, hy, nsteps, dt): nodes and steps of grid and march."""
    for name, num, den in (("node count L / hx", L, cfg.hx),
                           ("node count H / hy", H, cfg.hy),
                           ("step count t_end / dt", cfg.t_end, cfg.dt)):
        if num / den == math.inf:
            raise OverflowError(f"FDM {name} = {num!r} / {den!r} is not "
                                "finite")
    nx = max(3, int(round(L / cfg.hx)) + 1)
    ny = max(3, int(round(H / cfg.hy)) + 1)
    nsteps = max(1, int(round(cfg.t_end / cfg.dt)))
    return nx, ny, L / (nx - 1), H / (ny - 1), nsteps, cfg.t_end / nsteps


def _scheme(s: PlateScenario, dt: float, hx: float, hy: float):
    """(A, B, C, shift) at step dt, each a pair (a, b) for a I + b Lap;
    step n takes the source at (n + shift) dt.  Raises UnstableConfig
    unless alpha > 0 and tau_T >= 0, and OverflowError naming the
    quantity when a coefficient or the largest Laplacian row of A or of
    A - C is not finite."""
    if not (s.alpha > 0.0 and s.tau_T >= 0.0):
        raise UnstableConfig(
            f"the FDM scheme needs alpha > 0 and tau_T >= 0, got "
            f"alpha={s.alpha!r}, tau_T={s.tau_T!r}")
    # numpy scalars: an alpha dt or h^2 that underflows divides to inf.
    alpha = np.float64(s.alpha)
    with np.errstate(all="ignore"):
        if s.tau_q > 0.0:
            sc = 1.0 / (2.0 * alpha * dt)
            p = s.tau_q / (alpha * dt * dt)
            lag = s.tau_T / (2.0 * dt)
            mats = ((sc + p, -(0.25 + lag)), (2.0 * p, 0.5),
                    (sc - p, 0.25 - lag))
            terms, shift = (("1 / (2 alpha dt)", sc),
                            ("tau_q / (alpha dt^2)", p)), 0.0
        else:
            # Two-level Crank-Nicolson: no u[n-1] term, source at mid-step.
            r = 1.0 / (alpha * dt)
            mats = ((r, -(0.5 + s.tau_T / dt)), (r, 0.5 - s.tau_T / dt),
                    (0.0, 0.0))
            terms, shift = (("1 / (alpha dt)", r),), 0.5
        (a, b), _, (c, d) = mats
        lam_max = (4.0 / np.square([hx, hy])).sum()
        rows = np.abs([[a, b], [a - c, b - d]]) @ [1.0, lam_max]
    for name, value in (*terms, ("a Laplacian row of the update", rows)):
        if not np.isfinite(value).all():
            raise OverflowError(f"FDM scheme overflows at alpha={s.alpha!r},"
                                f" dt={dt!r}: {name} is not finite")
    return (*mats, shift)


def _source_factors(s: PlateScenario, xi, yi, sigma, states):
    """(left, right): (Q + tau_q dQ/dt) / k on the interior grid at step j
    of a block is left[j] @ right[j]; states = (x, y, vx, vy), each one
    value per step.

    The Gaussian is separable and its drift (dx vx + dy vy) / sigma^2 is a
    sum of an x and a y term, so the source is exactly the rank-2 product
    [gx (1 + tau_q vx dx / sigma^2), gx] @ [gy, gy tau_q vy dy / sigma^2],
    and gx @ gy at tau_q = 0.  One ``exp`` per axis covers the block.
    """
    x, y, vx, vy = (v[:, None] for v in states)
    dx = xi - x
    dy = yi - y
    var = sigma * sigma
    amp = s.theta / (2.0 * math.pi * var * s.k)
    gx = amp * np.exp(-dx * dx / (2.0 * var))
    gy = np.exp(-dy * dy / (2.0 * var))
    if s.tau_q == 0.0:
        return gx[:, :, None], gy[:, None, :]
    rate = s.tau_q / var
    left = np.empty((*gx.shape, 2))
    left[..., 0] = gx * (1.0 + rate * vx * dx)
    left[..., 1] = gx
    right = np.empty((gy.shape[0], 2, gy.shape[1]))
    right[:, 0] = gy
    right[:, 1] = gy * (rate * vy * dy)
    return left, right


def _source_grid(left, right, out):
    """One step's source left @ right of ``_source_factors``, into ``out``."""
    return np.matmul(left, right, out=out)


def checked_grid(s: PlateScenario, cfg: FdmConfig) -> GridSpec:
    """The node grid of ``cfg`` on ``s``, once every input check passes.

    Steps and t_end must be positive and finite, sigma finite and at least
    twice the larger grid step and ``store_every`` at least 1 (ValueError),
    the node and step counts finite and the march's step sound (``_counts``,
    ``_scheme``), the grid one numpy can index (ValueError) and the march's
    arrays no larger than the machine's physical memory (MemoryError;
    skipped where ``os.sysconf`` does not report it).  ``solve_fdm`` calls
    it first; so does a caller that needs the grid before the march.
    """
    if not all(0.0 < v < math.inf for v in (cfg.hx, cfg.hy, cfg.dt, cfg.t_end)):
        raise ValueError("hx, hy, dt and t_end must be positive and finite")
    nx, ny, hx, hy, nsteps, dt = _counts(cfg, s.L, s.H)
    sigma = cfg.resolved_sigma()
    if not 2.0 * max(hx, hy) <= sigma < math.inf:
        raise ValueError(
            f"smoothing radius {sigma!r} under-resolved or not finite: need "
            f"a finite value of at least 2 * max(hx, hy) = "
            f"{2.0 * max(hx, hy)!r}")
    if cfg.store_every < 1:
        raise ValueError(f"store_every must be >= 1, got {cfg.store_every}")
    _scheme(s, dt, hx, hy)
    # The field and each axis's dense eigenbasis, in bytes of float64.
    if 8 * max(nx * ny, (nx - 2) ** 2, (ny - 2) ** 2) > np.iinfo(np.intp).max:
        raise ValueError(f"FDM grid of {nx:.3g} x {ny:.3g} nodes at "
                         f"hx={cfg.hx!r}, hy={cfg.hy!r} is larger than numpy "
                         "can index")
    # Nine (mx, my) levels (five working, the source, lam and two inverses),
    # the three dense eigenbases, the stored fields and five doubles a step.
    mx, my = nx - 2, ny - 2
    fields = 2 + (nsteps - 1) // cfg.store_every
    need = 8 * (9 * mx * my + mx * mx + 2 * my * my + fields * nx * ny
                + 5 * nsteps)
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):   # not reported here
        memory = 0
    if 0 < memory < need:
        raise MemoryError(f"the FDM march of {nx:.3g} x {ny:.3g} nodes, "
                          f"{nsteps:.3g} steps and {fields:.3g} stored fields "
                          f"needs {need:.3g} bytes, more than the {memory:.3g}"
                          " bytes of physical memory")
    return GridSpec(nx, ny)


def solve_fdm(s: PlateScenario, cfg: FdmConfig):
    """March the lagged heat equation from rest at T0; returns the stored
    field sequence."""
    grid = checked_grid(s, cfg)
    nx, ny, hx, hy, nsteps, dt = _counts(cfg, s.L, s.H)
    mat_a, mat_b, mat_c, shift = _scheme(s, dt, hx, hy)
    sigma = cfg.resolved_sigma()
    xi = np.linspace(0.0, s.L, nx)[1:-1]
    yi = np.linspace(0.0, s.H, ny)[1:-1]

    def basis(m, h):
        """eigh of the 1-D second difference of m interior nodes."""
        return np.linalg.eigh(
            (np.eye(m, k=-1) - 2.0 * np.eye(m) + np.eye(m, k=1)) / (h * h))

    mx, my = nx - 2, ny - 2
    lx, vx = basis(mx, hx)
    # Equal axes share one basis.
    ly, vy = (lx, vx) if (mx, hx) == (my, hy) else basis(my, hy)
    lam = lx[:, None] + ly[None, :]
    u_prev = np.zeros((mx, my))

    def snapshot(u, t):
        values = np.pad(u + s.T0, 1, constant_values=float(s.T0))
        return TemperatureField(grid=grid, t=float(t), values=values)

    stored = [snapshot(u_prev, 0.0)]

    def split(m, x):
        """(ratio, beta) with X = ratio M + beta I; b_M < 0 in every scheme."""
        ratio = x[1] / m[1]
        return ratio, x[0] - m[0] * ratio

    # The march reuses six fixed (mx, my) buffers: the three levels, which
    # rotate, the right-hand side, one scratch array and the source.
    u_curr = u_prev.copy()
    u_next = np.empty_like(u_prev)
    rhs = np.empty_like(u_prev)
    work = np.empty_like(u_prev)
    source = np.empty_like(u_prev)
    # vx^T is fast as a transposed left operand; vy^T is not as a right one.
    vxt, vyt = vx.T, np.ascontiguousarray(vy.T)

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
    track = (*position(s.trajectory, times), *velocity(s.trajectory, times))
    # Source factors for a block of steps at once, at most one level's
    # doubles: rank 2, or rank 1 at tau_q = 0.
    rank = 2 if s.tau_q > 0.0 else 1
    block = max(1, mx * my // (rank * (mx + my)))

    # A non-finite step is reported by the sentinel, not by a float warning.
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, nsteps, block):
            left, right = _source_factors(
                s, xi, yi, sigma, [v[start:start + block] for v in track])
            for step, factors in enumerate(zip(left, right), start=start + 1):
                (step_a if step > 1 else step_first)(
                    u_curr, u_prev, _source_grid(*factors, source), u_next)
                if not (u_next.max() <= BLOWUP_SENTINEL
                        and u_next.min() >= -BLOWUP_SENTINEL):
                    raise UnstableConfig(
                        f"solution exceeded {BLOWUP_SENTINEL:.0e} at step "
                        f"{step}; the configuration is numerically unusable")
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
