"""Field post-processing: peak tracking, line/trajectory profiles, sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PeakOnBoundary, TrajectoryNotClosed
from .model import CIRCLE, ELLIPSE, GridSpec, PlateScenario, default_peak_grid
from .series import SeriesSolution, solve_series
from .trajectory import position


@dataclass(frozen=True)
class PeakReport:
    """Located field maximum and its offset from the source."""

    peak_position: tuple[float, float]
    peak_value: float
    source_position: tuple[float, float]
    distance: float
    truncation: tuple[int, int]


@dataclass(frozen=True)
class LineProfile:
    """Temperatures along a 1D cut; parameter is x or the central angle."""

    parameter: np.ndarray
    values: np.ndarray
    t: float
    label: str


def _fit_refine(patch: np.ndarray) -> tuple[float, float]:
    """One clamped Newton step on a biquadratic fit of a 3x3 patch.

    Returns the sub-cell offset (du, dv) in units of the grid spacing,
    each clamped to [-1, 1].  Falls back to (0, 0) whenever the fitted
    step would not improve on the center of the stencil.
    """
    u = np.array([-1.0, 0.0, 1.0])
    uu, vv = np.meshgrid(u, u, indexing="ij")
    design = np.column_stack([np.ones(9), uu.ravel(), vv.ravel(),
                              uu.ravel() ** 2, vv.ravel() ** 2,
                              (uu * vv).ravel()])
    c = np.linalg.lstsq(design, patch.ravel(), rcond=None)[0]

    hess = np.array([[2.0 * c[3], c[5]], [c[5], 2.0 * c[4]]])
    grad = np.array([c[1], c[2]])
    det = hess[0, 0] * hess[1, 1] - hess[0, 1] * hess[1, 0]
    if abs(det) < 1e-300:
        return 0.0, 0.0
    step = -np.linalg.solve(hess, grad)
    du = float(np.clip(step[0], -1.0, 1.0))
    dv = float(np.clip(step[1], -1.0, 1.0))

    def fitted(a, b):
        return (c[0] + c[1] * a + c[2] * b + c[3] * a * a + c[4] * b * b
                + c[5] * a * b)

    if fitted(du, dv) < fitted(0.0, 0.0):
        return 0.0, 0.0
    return du, dv


def _peak(sol: SeriesSolution, grid: GridSpec, truncation,
          mode_mask=None) -> PeakReport:
    s = sol.s
    field = sol.field(grid, mode_mask=mode_mask)
    values = field.values
    flat = int(np.argmax(values))
    ix, iy = np.unravel_index(flat, values.shape)
    if ix in (0, grid.nx - 1) or iy in (0, grid.ny - 1):
        raise PeakOnBoundary(
            f"field maximum sits on the plate edge at sample ({ix}, {iy}); "
            "the truncated series is too short for this scenario/time")
    xs, ys = grid.axes(s.L, s.H)
    x_pk, y_pk = float(xs[ix]), float(ys[iy])
    t_pk = float(values[ix, iy])

    patch = values[ix - 1:ix + 2, iy - 1:iy + 2]
    du, dv = _fit_refine(patch)
    if du != 0.0 or dv != 0.0:
        hx = xs[1] - xs[0]
        hy = ys[1] - ys[0]
        x_try = x_pk + du * hx
        y_try = y_pk + dv * hy
        t_try = float(sol.at([x_try], [y_try], mode_mask=mode_mask)[0])
        # Never report a worse point than the grid argmax.
        if t_try >= t_pk:
            x_pk, y_pk, t_pk = x_try, y_try, t_try

    x_src, y_src = position(s.trajectory, sol.t)
    dist = math.hypot(x_pk - x_src, y_pk - y_src)
    return PeakReport(peak_position=(x_pk, y_pk), peak_value=t_pk,
                      source_position=(float(x_src), float(y_src)),
                      distance=dist, truncation=truncation)


def locate_peak(s: PlateScenario, t: float, M: int | None = None,
                N: int | None = None, grid: GridSpec | None = None
                ) -> PeakReport:
    """Grid argmax of the series field, refined inside its cell."""
    sol = solve_series(s, t, M, N)
    return _peak(sol, grid or default_peak_grid(s),
                 (sol.table.M, sol.table.N))


def line_profile_y(s: PlateScenario, t: float, y0: float,
                   M: int | None = None, N: int | None = None,
                   nsamples: int = 201) -> LineProfile:
    """Temperatures on nsamples uniform points along the cut y = y0."""
    if not 0.0 < y0 < s.H:
        raise ValueError(f"cut must be interior: 0 < y0 < {s.H}, got {y0!r}")
    if nsamples < 2:
        raise ValueError(f"need at least 2 samples, got {nsamples}")
    xs = np.linspace(0.0, s.L, nsamples)
    vals = solve_series(s, t, M, N).at(xs, np.full(nsamples, y0))
    return LineProfile(parameter=xs, values=vals, t=float(t), label="x")


def trajectory_profile(s: PlateScenario, t: float,
                       M: int | None = None, N: int | None = None,
                       nangles: int = 360) -> LineProfile:
    """Temperatures along the closed trajectory vs. central angle.

    Samples nangles positions (cx + A cos phi, cy + B sin phi) with phi
    uniform on [0, 2 pi); only circle and ellipse paths are closed curves
    with a central-angle parameterization.
    """
    traj = s.trajectory
    if traj.kind not in (CIRCLE, ELLIPSE):
        raise TrajectoryNotClosed(
            f"trajectory kind {traj.kind!r} is not a closed central curve")
    if nangles < 2:
        raise ValueError(f"need at least 2 angles, got {nangles}")
    phi = np.linspace(0.0, 2.0 * math.pi, nangles, endpoint=False)
    xs = traj.cx + traj.A * np.cos(phi)
    ys = traj.cy + traj.B * np.sin(phi)
    vals = solve_series(s, t, M, N).at(xs, ys)
    return LineProfile(parameter=phi, values=vals, t=float(t), label="phi")


def source_peak_distance_sweep(s: PlateScenario, t: float,
                               truncations, grid: GridSpec | None = None
                               ) -> list[PeakReport]:
    """Peak reports across truncations, sharing one coefficient table.

    Coefficients are computed once at the largest requested truncation;
    each entry is assembled from the subset of modes it covers, so the
    sweep sees a consistent set of per-mode integrals.
    """
    truncations = [(int(mm), int(nn)) for mm, nn in truncations]
    if not truncations:
        raise ValueError("truncation list must not be empty")
    for mm, nn in truncations:
        if mm < 1 or nn < 1:
            raise ValueError(f"truncation must be at least 1x1, got {mm}x{nn}")
    grid = grid or default_peak_grid(s)
    m_max = max(mm for mm, _ in truncations)
    n_max = max(nn for _, nn in truncations)
    sol = solve_series(s, t, m_max, n_max)
    table = sol.table
    return [_peak(sol, grid, (mm, nn),
                  mode_mask=(table.m <= mm) & (table.n <= nn))
            for mm, nn in truncations]


# --- CSV emission ----------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def write_profile_csv(profile: LineProfile, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("param,value\n")
        for p, v in zip(profile.parameter, profile.values):
            fh.write(f"{_fmt(p)},{_fmt(v)}\n")


def write_sweep_csv(reports, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("M,N,x_peak,y_peak,T_peak,x_src,y_src,distance\n")
        for r in reports:
            fh.write(",".join([
                str(r.truncation[0]), str(r.truncation[1]),
                _fmt(r.peak_position[0]), _fmt(r.peak_position[1]),
                _fmt(r.peak_value),
                _fmt(r.source_position[0]), _fmt(r.source_position[1]),
                _fmt(r.distance)]) + "\n")


def write_field_csv(field, s: PlateScenario, path) -> None:
    # Same text as _fmt per value: tolist() yields Python floats, whose
    # repr is the shortest round-trip form.  One x-row at a time keeps
    # the Python floats of only that row alive.
    xs, ys = (a.tolist() for a in field.grid.axes(s.L, s.H))
    ys = [f"{y!r}," for y in ys]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,T\n")
        for x, row in zip(xs, np.asarray(field.values, dtype=float)):
            px = f"{x!r},"
            fh.write("".join([f"{px}{y}{v!r}\n"
                              for y, v in zip(ys, row.tolist())]))
