"""Source kinematics: position, velocity, period, and containment checks."""

from __future__ import annotations

import math

import numpy as np

from .errors import ZeroAngularVelocity
from .model import Trajectory


def _turn(traj: Trajectory, t):
    """cos and sin of the phase w fmod(t, T), the one the coefficients use.

    The phase is finite for every finite t; a parked source (w = 0) keeps 0.
    """
    t = np.asarray(t, dtype=float)
    phase = traj.w * (np.fmod(t, period(traj)) if traj.w else t)
    c, s = np.cos(phase), np.sin(phase)
    return (float(c), float(s)) if t.ndim == 0 else (c, s)


def position(traj: Trajectory, t):
    """Source position at time t (scalar or array)."""
    c, s = _turn(traj, t)
    return traj.cx + traj.A * c, traj.cy + traj.B * s


def velocity(traj: Trajectory, t):
    """Source velocity at time t (scalar or array)."""
    c, s = _turn(traj, t)
    return -traj.A * traj.w * s, traj.B * traj.w * c


def period(traj: Trajectory) -> float:
    """Time for one full sweep, 2*pi/|w|."""
    if traj.w == 0.0:
        raise ZeroAngularVelocity("trajectory has w = 0, no period exists")
    return 2.0 * math.pi / abs(traj.w)


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

    Returns None when the path stays strictly inside.  The answer is exact:
    the earliest wall-crossing phase of cos/sin (or the parked position
    when w = 0).
    """
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
