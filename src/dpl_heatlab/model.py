"""Domain types and scenario plumbing.

Defines the plate/material description, the source trajectory description,
grid and field containers, scenario validation, and the flat key/value
config-file format used by the CLI and the bundled scenario library.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from importlib import resources

import numpy as np

from .errors import (
    INCONSISTENT_KIND,
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
    values = {name: value for name, value in _items(s)
              if not isinstance(value, str)}
    finite = {name: math.isfinite(value) for name, value in values.items()}
    for name, value in values.items():
        if not finite[name]:
            violations.append(Violation(
                NON_FINITE_VALUE, f"{name} must be finite, got {value!r}"))
    if finite["traj.w"] and traj.w and math.isinf(2.0 * math.pi / abs(traj.w)):
        violations.append(Violation(
            NON_FINITE_VALUE, f"traj.w = {traj.w!r} has no finite period: "
                              f"2 pi / |w| overflows"))

    for name in ("L", "H", "theta", "k", "alpha"):
        if finite[name] and not values[name] > 0.0:
            violations.append(Violation(
                NON_POSITIVE_GEOMETRY, f"{name} must be positive, got {values[name]!r}"))
    for name in ("tau_q", "tau_T"):
        if finite[name] and values[name] < 0.0:
            violations.append(Violation(
                NEGATIVE_LAG, f"{name} must be nonnegative, got {values[name]!r}"))

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
        # A moving source passes every phase once a period, so it covers the
        # box cx +- A, cy +- B; a parked one (w = 0) stays at (cx + A, cy).
        # The plate is open: a path that touches a wall escapes.
        if traj.w:
            xs = (traj.cx - traj.A, traj.cx + traj.A)
            ys = (traj.cy - traj.B, traj.cy + traj.B)
        else:
            xs, ys = (traj.cx + traj.A,) * 2, (traj.cy,) * 2
        if not (0.0 < xs[0] and xs[1] < s.L and 0.0 < ys[0] and ys[1] < s.H):
            violations.append(Violation(
                TRAJECTORY_ESCAPES_PLATE,
                f"trajectory spans x in [{xs[0]!r}, {xs[1]!r}], "
                f"y in [{ys[0]!r}, {ys[1]!r}], which leaves the open plate "
                f"(0, {s.L!r}) x (0, {s.H!r})"))

    if violations:
        raise ScenarioValidationError(violations)
    return s


# --- scenario config files -------------------------------------------------
#
# Flat `key = value` lines, '#' starts a comment, one scenario per file.
# Every scalar field of a section's dataclass is one key: its name, after
# the section's prefix.  Values are written with str(), which for a float
# is its repr, so a save/load cycle is bit-identical.

_SECTIONS = {PlateScenario: "", Trajectory: "traj.", FdmConfig: "fdm."}
# Field annotations are strings here (``from __future__ import annotations``).
FIELD_TYPES = {"str": str, "int": int, "float": float, "float | None": float}
# Keys a file must state although their fields have defaults: a missing
# traj.w would silently park the source.  Fields without a default are
# required anyway.
_REQUIRED = ("traj.A", "traj.B", "traj.w")

# Every config key -> (its dataclass, its field), in file order.
_KEYS = {prefix + f.name: (cls, f)
         for cls, prefix in _SECTIONS.items()
         for f in fields(cls) if f.type in FIELD_TYPES}


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
        if key not in _KEYS:
            raise ConfigFormatError(f"line {lineno}: unknown key {key!r}")
        if key in mapping:
            raise ConfigFormatError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigFormatError(f"line {lineno}: empty value for {key!r}")
        mapping[key] = value
    return mapping


def _build(cls, mapping: dict, **given):
    """cls from ``given`` and the keys of its other fields in mapping, each
    read as its field's type; a key the mapping lacks takes the default."""
    missing = [key for key, (owner, f) in _KEYS.items() if owner is cls
               and key not in mapping
               and (f.default is MISSING or key in _REQUIRED)]
    if missing:
        raise ConfigFormatError(f"missing required keys: {', '.join(missing)}")
    for key, (owner, f) in _KEYS.items():
        if owner is cls and key in mapping:
            typ = FIELD_TYPES[f.type]
            try:
                given[f.name] = typ(mapping[key])
            except ValueError as exc:
                raise ConfigFormatError(f"key {key!r}: not a number of type "
                                        f"{typ.__name__}: {mapping[key]!r}") from exc
    return cls(**given)


def scenario_from_mapping(mapping: dict) -> PlateScenario:
    return _build(PlateScenario, mapping, trajectory=_build(Trajectory, mapping))


def fdm_from_mapping(mapping: dict) -> FdmConfig | None:
    if not any(key in mapping for key, (cls, _f) in _KEYS.items() if cls is FdmConfig):
        return None
    return _build(FdmConfig, mapping)


def _items(s: PlateScenario, fdm: FdmConfig | None = None):
    """(key, value) of every config field of s (and fdm), in file order."""
    sections = {PlateScenario: s, Trajectory: s.trajectory, FdmConfig: fdm}
    for key, (cls, f) in _KEYS.items():
        if sections[cls] is not None:
            yield key, getattr(sections[cls], f.name)


def format_scenario(s: PlateScenario, fdm: FdmConfig | None = None) -> str:
    """Render a scenario (and optional fdm block) in the config format.

    A field that is None is left out, so it reads back as its default.
    """
    return "".join(f"{key} = {value}\n" for key, value in _items(s, fdm)
                   if value is not None)


def save_scenario(s: PlateScenario, path, fdm: FdmConfig | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_scenario(s, fdm))


def _load_text(text: str):
    mapping = parse_config_text(text)
    scenario = validate_scenario(scenario_from_mapping(mapping))
    return scenario, fdm_from_mapping(mapping)


def load_scenario_file(path):
    """Read a config file; returns (validated scenario, FdmConfig or None)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigFormatError(f"cannot read scenario file: {exc}") from exc
    return _load_text(text)


def bundled_scenario_names() -> list[str]:
    root = resources.files(__package__) / "scenarios"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def load_bundled(name: str):
    """Load a scenario shipped with the package, by bare name or filename.

    Any other name, one with a path in it included, is a ConfigFormatError
    that lists the bundled names.
    """
    if name.endswith(".cfg"):
        name = name[:-4]
    known = bundled_scenario_names()
    if name not in known:
        raise ConfigFormatError(
            f"no bundled scenario {name!r}; known: {', '.join(known)}")
    node = resources.files(__package__) / "scenarios" / f"{name}.cfg"
    return _load_text(node.read_text(encoding="utf-8"))
