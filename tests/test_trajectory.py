import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dpl_heatlab as dh
from dpl_heatlab.errors import ZeroAngularVelocity
from dpl_heatlab.trajectory import period, position, velocity


def source_state(traj, t):
    """Position and velocity of the source at one instant."""
    (x, y), (vx, vy) = position(traj, t), velocity(traj, t)
    return SimpleNamespace(x=x, y=y, vx=vx, vy=vy)


def lst_traj():
    s, _ = dh.load_bundled("lst_default")
    return s.trajectory


def ct_traj():
    s, _ = dh.load_bundled("ct_default")
    return s.trajectory


def test_circle_starts_at_rightmost_point():
    x, y = position(ct_traj(), 0.0)
    assert (x, y) == (0.75, 0.5)


def test_circle_initial_velocity_is_tangential():
    vx, vy = velocity(ct_traj(), 0.0)
    assert vx == 0.0
    assert math.isclose(vy, 0.05 * math.pi, rel_tol=1e-15)


def test_line_midstroke_state():
    # Quarter period past a turning point: center of the segment, top speed,
    # heading in +x.
    st_ = source_state(lst_traj(), 367.5)
    assert math.isclose(st_.x, 0.25, abs_tol=1e-12)
    assert st_.y == 0.2
    assert math.isclose(st_.vx, 0.04 * math.pi, rel_tol=1e-12)
    assert abs(st_.vy) == 0.0
    assert st_.vx > 0.0


def test_line_turning_point_is_at_rest():
    st_ = source_state(lst_traj(), 365.0)
    assert math.isclose(st_.x, 0.05, abs_tol=1e-12)
    assert abs(st_.vx) < 1e-12 and st_.vy == 0.0


@pytest.mark.parametrize("w,expected", [
    (0.2 * math.pi, 10.0),
    (0.1 * math.pi, 20.0),
    (0.4 * math.pi, 5.0),
])
def test_period(w, expected):
    traj = dh.Trajectory(kind="circle", A=0.25, B=0.25, w=w, cx=0.5, cy=0.5)
    assert math.isclose(period(traj), expected, rel_tol=1e-15)


def test_zero_angular_velocity_has_no_period():
    traj = dh.Trajectory(kind="line", A=0.2, w=0.0, cx=0.5, cy=0.5)
    with pytest.raises(ZeroAngularVelocity):
        period(traj)


def test_positions_accept_arrays():
    ts = np.linspace(0.0, 12.0, 7)
    xs, ys = position(ct_traj(), ts)
    assert xs.shape == ts.shape
    for i, t in enumerate(ts):
        x, y = position(ct_traj(), float(t))
        assert xs[i] == x and ys[i] == y


def test_periodicity():
    traj = ct_traj()
    T = period(traj)
    for t in (0.3, 4.7, 9.999):
        a = position(traj, t)
        b = position(traj, t + T)
        assert math.isclose(a[0], b[0], abs_tol=1e-12)
        assert math.isclose(a[1], b[1], abs_tol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    kind=st.sampled_from(["line", "circle", "ellipse"]),
    w=st.floats(0.05, 2.0),
    t=st.floats(0.0, 50.0),
)
def test_velocity_matches_difference_quotient(kind, w, t):
    A = 0.2
    B = {"line": 0.0, "circle": 0.2, "ellipse": 0.12}[kind]
    traj = dh.Trajectory(kind=kind, A=A, B=B, w=w, cx=0.5, cy=0.5)
    h = 1e-5
    xp, yp = position(traj, t + h)
    xm, ym = position(traj, t - h)
    vx, vy = velocity(traj, t)
    scale = max(abs(vx), abs(vy), 1e-3)
    assert abs((xp - xm) / (2 * h) - vx) < 1e-7 * scale + 1e-9
    assert abs((yp - ym) / (2 * h) - vy) < 1e-7 * scale + 1e-9
