"""Domain types and scenario plumbing.

Defines the plate/material description, the source trajectory description,
grid and field containers, scenario validation, and the flat key/value
config-file format used by the CLI and the bundled scenario library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .errors import (
    NEGATIVE_LAG,
    NON_FINITE_VALUE,
    NON_POSITIVE_GEOMETRY,
    TRAJECTORY_ESCAPES_PLATE,
    ConfigFormatError,
    ScenarioValidationError,
    Violation,
)

LINE = "line"
CIRCLE = "circle"
ELLIPSE = "ellipse"
KINDS = (LINE, CIRCLE, ELLIPSE)

INCONSISTENT_KIND = "InconsistentTrajectoryKind"


@dataclass(frozen=True)
class Trajectory:
    """Parametric path of the moving point source.

    Every kind traces x(t) = cx + A cos(w t), y(t) = cy + B sin(w t):
    ``line`` sweeps the horizontal segment (B = 0, A > 0), ``circle`` has
    A = B > 0, ``ellipse`` has distinct positive semi-axes.  These are the
    paper's three source paths; any other kind fails validation.

    cx, cy may be left as None; they resolve to the plate center when the
    trajectory is attached to a PlateScenario.

    Parameters
    ----------
    kind : str
        One of ``line``, ``circle``, ``ellipse``.
    A, B : float
        Semi-axes of the sweep in x and y.
    w : float
        Angular rate in radians per unit time.  Sign sets orientation.
    cx, cy : float or None
        Sweep center.
    """

    kind: str
    A: float = 0.0
    B: float = 0.0
    w: float = 0.0
    cx: float | None = None
    cy: float | None = None


@dataclass(frozen=True)
class PlateScenario:
    """Complete problem statement for one plate/source configuration.

    All quantities are dimensionless.  ``theta`` is the source strength,
    ``k`` the conductivity, ``alpha`` the diffusivity, ``tau_q`` and
    ``tau_T`` the flux and gradient lags.  ``T0`` is the uniform ambient
    (initial and boundary) temperature; every solver computes T - T0
    internally and shifts on output.
    """

    L: float
    H: float
    theta: float
    k: float
    alpha: float
    tau_q: float
    tau_T: float
    trajectory: Trajectory
    T0: float = 0.0

    def __post_init__(self):
        traj = self.trajectory
        if traj.cx is None or traj.cy is None:
            cx = 0.5 * self.L if traj.cx is None else traj.cx
            cy = 0.5 * self.H if traj.cy is None else traj.cy
            object.__setattr__(self, "trajectory", replace(traj, cx=cx, cy=cy))


@dataclass(frozen=True)
class GridSpec:
    """Uniform sample grid covering [0, L] x [0, H] inclusive of boundaries."""

    nx: int
    ny: int

    def __post_init__(self):
        if not (self.nx >= 2 and self.ny >= 2):
            raise ValueError(f"grid needs at least 2 samples per axis, "
                             f"got {self.nx}x{self.ny}")

    def axes(self, L: float, H: float):
        """Coordinate vectors (xs, ys) for a plate of the given extents."""
        return np.linspace(0.0, L, self.nx), np.linspace(0.0, H, self.ny)


@dataclass(frozen=True)
class TemperatureField:
    """Grid of temperatures at one instant; values[i, j] = T(x_i, y_j)."""

    grid: GridSpec
    t: float
    values: np.ndarray


@dataclass(frozen=True)
class FdmConfig:
    """Discretization of the finite-difference cross-check run.

    sigma is the smoothing radius of the Gaussian that stands in for the
    point source; None resolves to 3 * max(hx, hy).  Fields are stored
    every ``store_every`` accepted steps (the final time is always stored).
    """

    hx: float
    hy: float
    dt: float
    t_end: float
    sigma: float | None = None
    store_every: int = 1

    def resolved_sigma(self) -> float:
        if self.sigma is not None:
            return self.sigma
        return 3.0 * max(self.hx, self.hy)


def default_peak_grid(s: PlateScenario) -> GridSpec:
    """Peak-search grid: 201 columns, rows scaled by the aspect ratio."""
    ny = int(round(200.0 * s.H / s.L)) + 1
    return GridSpec(201, max(ny, 2))


def validate_scenario(s: PlateScenario) -> PlateScenario:
    """Check every scenario invariant, collecting all failures.

    Returns the scenario unchanged when everything holds; otherwise raises
    ScenarioValidationError carrying one Violation per failed rule, so a
    config with several mistakes reports them all at once.
    """
    violations: list[Violation] = []
    traj = s.trajectory

    # A non-finite field gets this code only; the range rules below skip it.
    finite = {}
    for name, value in (("L", s.L), ("H", s.H), ("theta", s.theta),
                        ("k", s.k), ("alpha", s.alpha), ("tau_q", s.tau_q),
                        ("tau_T", s.tau_T), ("T0", s.T0), ("traj.A", traj.A),
                        ("traj.B", traj.B), ("traj.w", traj.w),
                        ("traj.cx", traj.cx), ("traj.cy", traj.cy)):
        finite[name] = math.isfinite(value)
        if not finite[name]:
            violations.append(Violation(
                NON_FINITE_VALUE, f"{name} must be finite, got {value!r}"))

    for name, value in (("L", s.L), ("H", s.H), ("theta", s.theta),
                        ("k", s.k), ("alpha", s.alpha)):
        if finite[name] and not value > 0.0:
            violations.append(Violation(
                NON_POSITIVE_GEOMETRY, f"{name} must be positive, got {value!r}"))
    for name, value in (("tau_q", s.tau_q), ("tau_T", s.tau_T)):
        if finite[name] and value < 0.0:
            violations.append(Violation(
                NEGATIVE_LAG, f"{name} must be nonnegative, got {value!r}"))

    if traj.kind not in KINDS:
        violations.append(Violation(
            INCONSISTENT_KIND, f"unknown trajectory kind {traj.kind!r}"))
    elif finite["traj.A"] and finite["traj.B"]:
        if traj.A < 0.0 or traj.B < 0.0:
            violations.append(Violation(
                NON_POSITIVE_GEOMETRY,
                f"semi-axes must be nonnegative, got A={traj.A!r}, B={traj.B!r}"))
        if traj.kind == LINE and not (traj.B == 0.0 and traj.A > 0.0):
            violations.append(Violation(
                INCONSISTENT_KIND,
                f"kind 'line' requires B = 0 and A > 0, got A={traj.A!r}, B={traj.B!r}"))
        if traj.kind == CIRCLE and not (traj.A == traj.B and traj.A > 0.0):
            violations.append(Violation(
                INCONSISTENT_KIND,
                f"kind 'circle' requires A = B > 0, got A={traj.A!r}, B={traj.B!r}"))
        if traj.kind == ELLIPSE and not (traj.A != traj.B and traj.A > 0.0 and traj.B > 0.0):
            violations.append(Violation(
                INCONSISTENT_KIND,
                f"kind 'ellipse' requires A != B with both positive, "
                f"got A={traj.A!r}, B={traj.B!r}"))

    if not violations:
        # Geometry is sane, so the escape scan is meaningful.
        from .trajectory import earliest_escape_time

        t_escape = earliest_escape_time(traj, s.L, s.H)
        if t_escape is not None:
            violations.append(Violation(
                TRAJECTORY_ESCAPES_PLATE,
                "trajectory leaves the open plate interior, earliest offending "
                f"t = {t_escape!r}"))

    if violations:
        raise ScenarioValidationError(violations)
    return s


# --- scenario config files -------------------------------------------------
#
# Flat `key = value` lines, '#' starts a comment, one scenario per file.
# Floats are written with repr() so a save/load cycle is bit-identical.

_SCENARIO_KEYS = (
    "L", "H", "theta", "k", "alpha", "tau_q", "tau_T", "T0",
    "traj.kind", "traj.A", "traj.B", "traj.w", "traj.cx", "traj.cy",
)
_FDM_KEYS = ("fdm.hx", "fdm.hy", "fdm.dt", "fdm.sigma", "fdm.t_end", "fdm.store_every")
_REQUIRED = ("L", "H", "theta", "k", "alpha", "tau_q", "tau_T",
             "traj.kind", "traj.A", "traj.B", "traj.w")


def parse_config_text(text: str) -> dict:
    """Parse config text into a raw key -> string mapping."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigFormatError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCENARIO_KEYS and key not in _FDM_KEYS:
            raise ConfigFormatError(f"line {lineno}: unknown key {key!r}")
        if key in mapping:
            raise ConfigFormatError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigFormatError(f"line {lineno}: empty value for {key!r}")
        mapping[key] = value
    return mapping


def _as_float(mapping: dict, key: str) -> float:
    try:
        return float(mapping[key])
    except ValueError as exc:
        raise ConfigFormatError(f"key {key!r}: not a number: {mapping[key]!r}") from exc


def scenario_from_mapping(mapping: dict) -> PlateScenario:
    missing = [key for key in _REQUIRED if key not in mapping]
    if missing:
        raise ConfigFormatError(f"missing required keys: {', '.join(missing)}")
    kind = mapping["traj.kind"]
    if kind not in KINDS:
        raise ConfigFormatError(f"unknown traj.kind {kind!r}")
    traj = Trajectory(
        kind=kind,
        A=_as_float(mapping, "traj.A"),
        B=_as_float(mapping, "traj.B"),
        w=_as_float(mapping, "traj.w"),
        cx=_as_float(mapping, "traj.cx") if "traj.cx" in mapping else None,
        cy=_as_float(mapping, "traj.cy") if "traj.cy" in mapping else None,
    )
    return PlateScenario(
        L=_as_float(mapping, "L"),
        H=_as_float(mapping, "H"),
        theta=_as_float(mapping, "theta"),
        k=_as_float(mapping, "k"),
        alpha=_as_float(mapping, "alpha"),
        tau_q=_as_float(mapping, "tau_q"),
        tau_T=_as_float(mapping, "tau_T"),
        trajectory=traj,
        T0=_as_float(mapping, "T0") if "T0" in mapping else 0.0,
    )


def fdm_from_mapping(mapping: dict) -> FdmConfig | None:
    present = [key for key in _FDM_KEYS if key in mapping]
    if not present:
        return None
    needed = ("fdm.hx", "fdm.hy", "fdm.dt", "fdm.t_end")
    missing = [key for key in needed if key not in mapping]
    if missing:
        raise ConfigFormatError(
            f"fdm block present but missing: {', '.join(missing)}")
    store_raw = mapping.get("fdm.store_every", "1")
    try:
        store_every = int(store_raw)
    except ValueError as exc:
        raise ConfigFormatError(f"fdm.store_every must be an integer, got {store_raw!r}") from exc
    return FdmConfig(
        hx=_as_float(mapping, "fdm.hx"),
        hy=_as_float(mapping, "fdm.hy"),
        dt=_as_float(mapping, "fdm.dt"),
        t_end=_as_float(mapping, "fdm.t_end"),
        sigma=_as_float(mapping, "fdm.sigma") if "fdm.sigma" in mapping else None,
        store_every=store_every,
    )


def format_scenario(s: PlateScenario, fdm: FdmConfig | None = None) -> str:
    """Render a scenario (and optional fdm block) in the config format."""
    traj = s.trajectory
    lines = [
        f"L = {s.L!r}",
        f"H = {s.H!r}",
        f"theta = {s.theta!r}",
        f"k = {s.k!r}",
        f"alpha = {s.alpha!r}",
        f"tau_q = {s.tau_q!r}",
        f"tau_T = {s.tau_T!r}",
        f"T0 = {s.T0!r}",
        f"traj.kind = {traj.kind}",
        f"traj.A = {traj.A!r}",
        f"traj.B = {traj.B!r}",
        f"traj.w = {traj.w!r}",
        f"traj.cx = {traj.cx!r}",
        f"traj.cy = {traj.cy!r}",
    ]
    if fdm is not None:
        lines += [
            f"fdm.hx = {fdm.hx!r}",
            f"fdm.hy = {fdm.hy!r}",
            f"fdm.dt = {fdm.dt!r}",
            f"fdm.sigma = {fdm.resolved_sigma()!r}",
            f"fdm.t_end = {fdm.t_end!r}",
            f"fdm.store_every = {fdm.store_every}",
        ]
    return "\n".join(lines) + "\n"


def save_scenario(s: PlateScenario, path, fdm: FdmConfig | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_scenario(s, fdm))


def load_scenario_file(path):
    """Read a config file; returns (validated scenario, FdmConfig or None)."""
    with open(path, "r", encoding="utf-8") as fh:
        mapping = parse_config_text(fh.read())
    scenario = validate_scenario(scenario_from_mapping(mapping))
    return scenario, fdm_from_mapping(mapping)


def load_scenario(path) -> PlateScenario:
    return load_scenario_file(path)[0]


def bundled_scenario_names() -> list[str]:
    root = resources.files(__package__) / "scenarios"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def load_bundled(name: str):
    """Load a scenario shipped with the package, by bare name or filename."""
    if name.endswith(".cfg"):
        name = name[:-4]
    node = resources.files(__package__) / "scenarios" / f"{name}.cfg"
    try:
        text = node.read_text(encoding="utf-8")
    except FileNotFoundError:
        known = ", ".join(bundled_scenario_names())
        raise ConfigFormatError(f"no bundled scenario {name!r}; known: {known}") from None
    mapping = parse_config_text(text)
    scenario = validate_scenario(scenario_from_mapping(mapping))
    return scenario, fdm_from_mapping(mapping)
