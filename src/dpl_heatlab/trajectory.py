"""Source kinematics: position, velocity and period."""

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
