"""Source kinematics: position, velocity, period, and containment checks."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ZeroAngularVelocity
from .model import CUSTOM, Trajectory


@lru_cache(maxsize=64)
def _splines(traj: Trajectory):
    from scipy.interpolate import CubicSpline

    ts, xs, ys = (np.asarray(a, dtype=float) for a in traj.samples)
    sx = CubicSpline(ts, xs)
    sy = CubicSpline(ts, ys)
    return sx, sy, sx.derivative(), sy.derivative()


def position(traj: Trajectory, t):
    """Source position at time t (scalar or array)."""
    if traj.kind == CUSTOM:
        sx, sy, _, _ = _splines(traj)
        return sx(t), sy(t)
    phase = traj.w * np.asarray(t, dtype=float)
    x = traj.cx + traj.A * np.cos(phase)
    y = traj.cy + traj.B * np.sin(phase)
    if np.ndim(t) == 0:
        return float(x), float(y)
    return x, y


def velocity(traj: Trajectory, t):
    """Source velocity at time t (scalar or array)."""
    if traj.kind == CUSTOM:
        _, _, dx, dy = _splines(traj)
        return dx(t), dy(t)
    phase = traj.w * np.asarray(t, dtype=float)
    vx = -traj.A * traj.w * np.sin(phase)
    vy = traj.B * traj.w * np.cos(phase)
    if np.ndim(t) == 0:
        return float(vx), float(vy)
    return vx, vy


def period(traj: Trajectory) -> float:
    """Time for one full sweep, 2*pi/|w|."""
    if traj.w == 0.0:
        raise ZeroAngularVelocity("trajectory has w = 0, no period exists")
    return 2.0 * math.pi / abs(traj.w)


def velocity_bounds(traj: Trajectory):
    """Upper bounds (max |vx|, max |vy|) over the trajectory."""
    if traj.kind != CUSTOM:
        return abs(traj.A * traj.w), abs(traj.B * traj.w)
    _, _, dx, dy = _splines(traj)
    ts = np.asarray(traj.samples[0], dtype=float)
    tt = np.linspace(ts[0], ts[-1], max(4096, 32 * ts.size))
    return float(np.max(np.abs(dx(tt)))), float(np.max(np.abs(dy(tt))))


# --- containment -----------------------------------------------------------


def _first_phase_cos(c: float, a: float, wall: float, direction: int):
    """Earliest phase where c + a*cos(phase) crosses the wall (a > 0).

    direction +1 looks for >= wall, -1 for <= wall.  cos starts at its
    maximum, so a >=-crossing can only appear immediately.
    """
    ratio = (wall - c) / a
    if direction > 0:
        return 0.0 if ratio <= 1.0 else None
    if ratio >= 1.0:
        return 0.0
    if ratio >= -1.0:
        return math.acos(ratio)
    return None


def _first_phase_sin(c: float, b: float, wall: float, direction: int):
    """Earliest phase where c + b*sin(phase) crosses the wall (any b)."""
    if b == 0.0:
        hit = c >= wall if direction > 0 else c <= wall
        return 0.0 if hit else None
    ratio = (wall - c) / b
    need_ge = (direction > 0) == (b > 0.0)
    if need_ge:
        if ratio <= 0.0:
            return 0.0
        if ratio <= 1.0:
            return math.asin(ratio)
        return None
    if ratio >= 0.0:
        return 0.0
    if ratio >= -1.0:
        return math.pi + math.asin(-ratio)
    return None


def earliest_escape_time(traj: Trajectory, L: float, H: float):
    """First t >= 0 at which the source leaves the open plate interior.

    Returns None when the path stays strictly inside.  Analytic kinds get
    an exact answer from the wall-crossing phases of cos/sin; the custom
    kind is scanned densely over its sample range and refined by bisection.
    """
    if traj.kind == CUSTOM:
        return _earliest_escape_custom(traj, L, H)

    if traj.w == 0.0:
        x0, y0 = traj.cx + traj.A, traj.cy
        inside = 0.0 < x0 < L and 0.0 < y0 < H
        return None if inside else 0.0

    b = traj.B * math.copysign(1.0, traj.w)
    candidates = [
        _first_phase_cos(traj.cx, traj.A, L, +1),
        _first_phase_cos(traj.cx, traj.A, 0.0, -1),
        _first_phase_sin(traj.cy, b, H, +1),
        _first_phase_sin(traj.cy, b, 0.0, -1),
    ]
    hits = [phi for phi in candidates if phi is not None]
    if not hits:
        return None
    return min(hits) / abs(traj.w)


def _earliest_escape_custom(traj: Trajectory, L: float, H: float):
    sx, sy, _, _ = _splines(traj)
    ts = np.asarray(traj.samples[0], dtype=float)
    tt = np.linspace(ts[0], ts[-1], max(4096, 32 * ts.size))
    x, y = sx(tt), sy(tt)
    outside = (x <= 0.0) | (x >= L) | (y <= 0.0) | (y >= H)
    idx = np.flatnonzero(outside)
    if idx.size == 0:
        return None
    i = int(idx[0])
    if i == 0:
        return float(tt[0])
    lo, hi = float(tt[i - 1]), float(tt[i])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        xm, ym = float(sx(mid)), float(sy(mid))
        if 0.0 < xm < L and 0.0 < ym < H:
            lo = mid
        else:
            hi = mid
    return hi
