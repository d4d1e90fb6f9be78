import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dpl_heatlab as dh
from dpl_heatlab.errors import (INCONSISTENT_KIND, NEGATIVE_LAG,
                                NON_FINITE_VALUE, NON_POSITIVE_GEOMETRY,
                                TRAJECTORY_ESCAPES_PLATE, ConfigFormatError,
                                ScenarioValidationError)
from dpl_heatlab.model import (CIRCLE, ELLIPSE, LINE, fdm_from_mapping,
                               parse_config_text, scenario_from_mapping)
from dpl_heatlab.trajectory import period, position
from helpers import classical, tiny_scenario, with_lags


def test_trajectory_center_defaults_to_plate_center():
    s = tiny_scenario(L=0.5, H=0.4)
    assert s.trajectory.cx == 0.25
    assert s.trajectory.cy == 0.2


def test_explicit_center_is_kept():
    traj = dh.Trajectory(kind="circle", A=0.1, B=0.1, w=1.0, cx=0.3, cy=0.35)
    s = tiny_scenario(trajectory=traj)
    assert (s.trajectory.cx, s.trajectory.cy) == (0.3, 0.35)


def test_zero_length_plate_rejected():
    with pytest.raises(ScenarioValidationError) as err:
        dh.validate_scenario(tiny_scenario(L=0.0))
    assert NON_POSITIVE_GEOMETRY in err.value.codes()


def test_escaping_circle_rejected_with_earliest_time():
    s = tiny_scenario(trajectory=dh.Trajectory(kind="circle", A=0.6, B=0.6, w=1.0))
    with pytest.raises(ScenarioValidationError) as err:
        dh.validate_scenario(s)
    assert err.value.codes() == {TRAJECTORY_ESCAPES_PLATE}
    # The message gives the path's box, cx +- A by cy +- B, and the plate.
    lo, hi = 0.5 - 0.6, 0.5 + 0.6
    assert str(err.value) == (
        f"trajectory spans x in [{lo!r}, {hi!r}], y in [{lo!r}, {hi!r}], "
        "which leaves the open plate (0, 1.0) x (0, 1.0)")


# A dense scan of n samples over one period misses an extreme of the path
# by at most A (1 - cos(pi / (n - 1))) < 3e-7 A, so a path that comes
# closer to a wall than SCAN_TOL is left undecided by the scan.
SCAN_SAMPLES = 4097
SCAN_TOL = 1e-6


def scan_wall_distance(traj, L, H):
    """Least distance from the path to a wall, negative once outside: over
    a dense scan of one period, or at the parked point when w = 0."""
    ts = np.linspace(0.0, period(traj), SCAN_SAMPLES) if traj.w else 0.0
    xs, ys = position(traj, ts)
    return float(np.min([xs, L - xs, ys, H - ys]))


@st.composite
def _paths(draw):
    """A scenario whose path has A > 0, B >= 0 and w parked or of either
    sign, its centre often put where an extreme lands on a wall."""
    L, H = draw(st.floats(0.2, 2.0)), draw(st.floats(0.2, 2.0))
    A = draw(st.floats(0.01, L))
    B = draw(st.one_of(st.just(0.0), st.just(A), st.floats(0.0, H)))
    w = draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0),
                       st.floats(-2.0, -0.05)))
    cx = draw(st.one_of(st.floats(0.0, L), st.sampled_from([A, L - A])))
    cy = draw(st.one_of(st.floats(0.0, H), st.sampled_from([B, H - B])))
    kind = LINE if B == 0.0 else CIRCLE if A == B else ELLIPSE
    traj = dh.Trajectory(kind=kind, A=A, B=B, w=w, cx=cx, cy=cy)
    return tiny_scenario(L=L, H=H, trajectory=traj)


@settings(max_examples=300, deadline=None)
@given(s=_paths())
def test_escape_verdict_matches_a_dense_scan(s):
    try:
        dh.validate_scenario(s)
        rejected = False
    except ScenarioValidationError as err:
        assert err.codes() == {TRAJECTORY_ESCAPES_PLATE}
        rejected = True
    gap = scan_wall_distance(s.trajectory, s.L, s.H)
    if gap <= 0.0:
        assert rejected
    elif gap > SCAN_TOL:
        assert not rejected


@pytest.mark.parametrize("traj", [
    dh.Trajectory(kind="circle", A=0.25, B=0.25, w=1.0, cx=0.75, cy=0.5),
    dh.Trajectory(kind="line", A=0.25, B=0.0, w=-1.0, cx=0.25, cy=0.5),
    dh.Trajectory(kind="circle", A=0.25, B=0.25, w=0.0, cx=0.75, cy=0.5),
], ids=["circle-cx+A=L", "line-cx-A=0", "parked-cx+A=L"])
def test_path_touching_a_wall_escapes(traj):
    # The plate is open: an extreme exactly on a wall escapes, and one ulp
    # of the centre towards the middle brings the path back inside.
    assert traj.cx + traj.A == 1.0 or traj.cx - traj.A == 0.0
    with pytest.raises(ScenarioValidationError) as err:
        dh.validate_scenario(tiny_scenario(trajectory=traj))
    assert err.value.codes() == {TRAJECTORY_ESCAPES_PLATE}
    inward = dataclasses.replace(traj, cx=math.nextafter(traj.cx, 0.5))
    dh.validate_scenario(tiny_scenario(trajectory=inward))


def test_negative_lag_rejected():
    with pytest.raises(ScenarioValidationError) as err:
        dh.validate_scenario(tiny_scenario(tau_T=-0.5))
    assert err.value.codes() == {NEGATIVE_LAG}


def test_all_violations_collected():
    s = tiny_scenario(L=-1.0, tau_q=-2.0)
    with pytest.raises(ScenarioValidationError) as err:
        dh.validate_scenario(s)
    assert {NON_POSITIVE_GEOMETRY, NEGATIVE_LAG} <= err.value.codes()
    assert len(err.value.violations) >= 2


@pytest.mark.parametrize("kind,A,B", [
    ("line", 0.2, 0.1),     # line must have B = 0
    ("line", 0.0, 0.0),     # ... and a positive sweep
    ("circle", 0.2, 0.1),   # circle must have A = B
    ("ellipse", 0.2, 0.2),  # ellipse must have distinct semi-axes
    ("ellipse", 0.2, 0.0),
])
def test_kind_consistency(kind, A, B):
    s = tiny_scenario(trajectory=dh.Trajectory(kind=kind, A=A, B=B, w=1.0))
    with pytest.raises(ScenarioValidationError) as err:
        dh.validate_scenario(s)
    assert INCONSISTENT_KIND in err.value.codes()


def test_unknown_kind_rejected():
    for kind in ("spiral", "custom"):
        traj = dh.Trajectory(kind=kind, A=0.1, B=0.1, w=1.0)
        with pytest.raises(ScenarioValidationError) as err:
            dh.validate_scenario(tiny_scenario(trajectory=traj))
        assert INCONSISTENT_KIND in err.value.codes()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", [
    "L", "H", "theta", "k", "alpha", "tau_q", "tau_T", "T0",
    "traj.A", "traj.B", "traj.w", "traj.cx", "traj.cy"])
def test_non_finite_value_rejected(field, value):
    """Each non-finite field gets the NonFiniteValue code and no other."""
    s = tiny_scenario()
    if field.startswith("traj."):
        traj = dataclasses.replace(s.trajectory, **{field[5:]: value})
        s = dataclasses.replace(s, trajectory=traj)
    else:
        s = dataclasses.replace(s, **{field: value})
    with pytest.raises(ScenarioValidationError) as err:
        dh.validate_scenario(s)
    assert err.value.codes() == {NON_FINITE_VALUE}
    assert f"{field} must be finite" in str(err.value)


@pytest.mark.parametrize("w", [1e-310, -1e-310, 5e-324])
def test_rate_without_a_finite_period_rejected(w):
    # 2 pi / |w| overflows below |w| = 3.5e-308; the engine then sampled
    # the path at arange(q) * inf and wrote NaN at every node.
    s = tiny_scenario()
    s = dataclasses.replace(s, trajectory=dataclasses.replace(s.trajectory,
                                                              w=w))
    with pytest.raises(ScenarioValidationError) as err:
        dh.validate_scenario(s)
    assert err.value.codes() == {NON_FINITE_VALUE}
    assert f"traj.w = {w!r} has no finite period" in str(err.value)


def test_slowest_rate_with_a_finite_period_is_kept():
    s = tiny_scenario()
    traj = dataclasses.replace(s.trajectory, w=3.6e-308)
    s = dh.validate_scenario(dataclasses.replace(s, trajectory=traj))
    assert math.isfinite(period(s.trajectory))


# --- config codec ----------------------------------------------------------


def test_roundtrip_is_bit_identical():
    s = tiny_scenario(L=0.1 + 0.2, alpha=1.29e-5, theta=2.5e4, T0=293.15)
    text = dh.format_scenario(s)
    back = scenario_from_mapping(parse_config_text(text))
    assert back == s


@settings(max_examples=60, deadline=None)
@given(values=st.lists(
    st.floats(min_value=1e-12, max_value=1e12, allow_nan=False),
    min_size=7, max_size=7))
def test_roundtrip_survives_awkward_floats(values):
    L, H, theta, k, alpha, tq, tT = values
    s = dh.PlateScenario(L=L, H=H, theta=theta, k=k, alpha=alpha,
                         tau_q=tq, tau_T=tT,
                         trajectory=dh.Trajectory(kind="circle", A=L / 4,
                                                  B=L / 4, w=math.pi / 7))
    back = scenario_from_mapping(parse_config_text(dh.format_scenario(s)))
    assert back == s


def test_comments_and_blank_lines_ignored():
    text = dh.format_scenario(tiny_scenario())
    noisy = "# leading comment\n\n" + text.replace(
        "alpha", "alpha", 1) + "\n   # trailing\n"
    assert scenario_from_mapping(parse_config_text(noisy)) == tiny_scenario()


@pytest.mark.parametrize("mutation,fragment", [
    (lambda t: t + "\nbogus_key = 1\n", "unknown key"),
    (lambda t: t + "\nL = 2.0\n", "duplicate"),
    (lambda t: t.replace("theta = ", "theta  "), "key = value"),
    (lambda t: t.replace("k = 2.0", "k = two"), "number"),
])
def test_malformed_configs_rejected(mutation, fragment):
    text = mutation(dh.format_scenario(tiny_scenario()))
    with pytest.raises(ConfigFormatError) as err:
        mapping = parse_config_text(text)
        scenario_from_mapping(mapping)
    assert fragment in str(err.value)


def test_missing_required_key_rejected():
    text = "\n".join(line for line in dh.format_scenario(tiny_scenario()).splitlines()
                     if not line.startswith("alpha"))
    with pytest.raises(ConfigFormatError) as err:
        scenario_from_mapping(parse_config_text(text))
    assert "alpha" in str(err.value)


def test_custom_kind_not_representable_in_files(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text(dh.format_scenario(tiny_scenario()).replace(
        "traj.kind = circle", "traj.kind = custom"), encoding="utf-8")
    with pytest.raises(ScenarioValidationError) as err:
        dh.load_scenario_file(path)
    assert err.value.codes() == {INCONSISTENT_KIND}


def test_negative_semi_axis_in_a_file_reports_both_rules(tmp_path):
    # A circle with A = -0.25 breaks the sign rule and the kind's A = B.
    path = tmp_path / "case.cfg"
    path.write_text(dh.format_scenario(tiny_scenario()).replace(
        "traj.A = 0.25", "traj.A = -0.25"), encoding="utf-8")
    with pytest.raises(ScenarioValidationError) as err:
        dh.load_scenario_file(path)
    assert err.value.codes() == {NON_POSITIVE_GEOMETRY, INCONSISTENT_KIND}
    assert "semi-axes must be nonnegative, got A=-0.25, B=0.25" in str(
        err.value)


def test_fdm_block_roundtrip(tmp_path):
    cfg = dh.FdmConfig(hx=0.0125, hy=0.0125, dt=0.0125, t_end=25.0,
                       sigma=0.0375, store_every=400)
    path = tmp_path / "case.cfg"
    dh.save_scenario(tiny_scenario(), path, fdm=cfg)
    s, fdm = dh.load_scenario_file(path)
    assert s == tiny_scenario()
    assert fdm == cfg


def test_partial_fdm_block_rejected():
    text = dh.format_scenario(tiny_scenario()) + "\nfdm.hx = 0.05\n"
    mapping = parse_config_text(text)
    with pytest.raises(ConfigFormatError):
        fdm_from_mapping(mapping)


def test_bundled_scenarios_survive_a_save_load_cycle(tmp_path):
    # Every bundled case, written with its fdm block and read back, gives
    # equal objects.
    for name in dh.bundled_scenario_names():
        s, cfg = dh.load_bundled(name)
        path = tmp_path / f"{name}.cfg"
        dh.save_scenario(s, path, fdm=cfg)
        assert dh.load_scenario_file(path) == (s, cfg), name


_BASE_LINES = dh.format_scenario(*dh.load_bundled("ct_alpha2_q5_T1")).splitlines()
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_VALUES = st.one_of(st.floats().map(repr), st.integers(-3, 10**6).map(str),
                    st.sampled_from(["line", "circle", "ellipse", "0.5pi"]),
                    _TEXT)
_KEY_NAMES = st.one_of(st.sampled_from([line.split(" = ")[0] for line in _BASE_LINES]),
                       _TEXT)


@st.composite
def _config_texts(draw):
    """The text of ct_alpha2_q5_T1 with a few lines dropped, changed or
    added, in any order."""
    lines = list(_BASE_LINES)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        action = draw(st.sampled_from(["drop", "value", "value", "raw", "add"]))
        if action == "drop" and lines:
            del lines[i]
        elif action == "value" and lines:
            lines[i] = f"{lines[i].split(' = ')[0]} = {draw(_VALUES)}"
        elif action == "raw":
            lines.append(draw(_TEXT))
        else:
            lines.append(f"{draw(_KEY_NAMES)} = {draw(_VALUES)}")
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_config_texts())
def test_any_config_text_loads_or_raises_a_config_error(text):
    # The codec and the loader either return (scenario, FdmConfig or None)
    # or raise one of the two config errors; nothing else escapes.
    def from_text():
        mapping = parse_config_text(text)
        return (dh.validate_scenario(scenario_from_mapping(mapping)),
                fdm_from_mapping(mapping))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.cfg"
        path.write_text(text, encoding="utf-8")
        for load in (from_text, lambda: dh.load_scenario_file(path)):
            try:
                s, cfg = load()
            except (ConfigFormatError, ScenarioValidationError):
                continue
            assert isinstance(s, dh.PlateScenario)
            assert cfg is None or isinstance(cfg, dh.FdmConfig)


def test_resolved_sigma_default():
    cfg = dh.FdmConfig(hx=0.02, hy=0.05, dt=0.01, t_end=1.0)
    assert cfg.resolved_sigma() == 3.0 * 0.05
    assert dh.FdmConfig(hx=0.02, hy=0.05, dt=0.01, t_end=1.0,
                        sigma=0.2).resolved_sigma() == 0.2


# --- bundled scenarios -----------------------------------------------------


def test_bundled_scenarios_all_validate():
    names = dh.bundled_scenario_names()
    assert len(names) >= 15
    for name in names:
        s, _ = dh.load_bundled(name)
        dh.validate_scenario(s)


def test_load_bundled_takes_bundled_names_only():
    assert dh.load_bundled("ct_default.cfg") == dh.load_bundled("ct_default")
    for name in ("../scenarios/ct_default", "scenarios/ct_default.cfg",
                 "no_such_case", ""):
        with pytest.raises(ConfigFormatError, match="known: .*ct_default"):
            dh.load_bundled(name)


def test_bundled_defaults_match_reference_cases():
    lst, _ = dh.load_bundled("lst_default")
    assert (lst.L, lst.H) == (0.5, 0.4)
    assert lst.trajectory.kind == "line"
    assert (lst.tau_q, lst.tau_T) == (0.0, 0.0)
    assert lst.trajectory.A == 0.2 and lst.trajectory.B == 0.0
    assert math.isclose(lst.trajectory.w, 0.2 * math.pi)

    ct, _ = dh.load_bundled("ct_default")
    assert (ct.L, ct.H) == (1.0, 1.0)
    assert ct.trajectory.kind == "circle"
    assert ct.trajectory.A == ct.trajectory.B == 0.25

    et, _ = dh.load_bundled("et_default")
    assert et.trajectory.kind == "ellipse"
    assert et.trajectory.A != et.trajectory.B

    fast, cfg = dh.load_bundled("ct_alpha2_q1_T1")
    assert fast.alpha == 1.29e-2
    assert cfg is not None and cfg.t_end == 25.0


def test_grid_axes_cover_plate():
    xs, ys = dh.GridSpec(3, 5).axes(2.0, 1.0)
    assert xs.tolist() == [0.0, 1.0, 2.0]
    assert ys.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_default_peak_grid_follows_aspect():
    grid = dh.default_peak_grid(tiny_scenario(L=0.5, H=0.4))
    assert (grid.nx, grid.ny) == (201, 161)


def test_lag_helpers():
    s = tiny_scenario(tau_q=3.0, tau_T=4.0)
    assert classical(s).tau_q == 0.0 and classical(s).tau_T == 0.0
    relagged = with_lags(classical(s), 5.0, 1.0)
    assert (relagged.tau_q, relagged.tau_T) == (5.0, 1.0)
