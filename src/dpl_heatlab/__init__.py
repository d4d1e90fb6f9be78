"""Temperature fields of a rectangular plate heated by a moving source.

Series solver for the phase-lagged (and classical) heat equation with a
point source on line/circle/ellipse paths, an independent finite-difference
cross-check, and field-analysis utilities.
"""

__version__ = "0.1.0"

from .analysis import (
    LineProfile,
    PeakReport,
    line_profile_y,
    locate_peak,
    source_peak_distance_sweep,
    trajectory_profile,
)
from .errors import (
    ConfigFormatError,
    NegativeElapsed,
    PeakOnBoundary,
    ScenarioValidationError,
    TrajectoryNotClosed,
    UnstableConfig,
    ZeroAngularVelocity,
)
from .model import (
    FdmConfig,
    GridSpec,
    PlateScenario,
    TemperatureField,
    Trajectory,
    bundled_scenario_names,
    default_peak_grid,
    format_scenario,
    load_bundled,
    load_scenario,
    load_scenario_file,
    save_scenario,
    validate_scenario,
)
from .modes import ModeTable, build_mode_table
from .series import (
    SeriesSolution,
    default_truncation,
    mode_coefficients,
    solve_series,
    temperature,
)
from .trajectory import period, position, velocity

__all__ = [
    "__version__",
    "ConfigFormatError", "FdmConfig",
    "GaussianSourceFactors", "GridSpec", "LineProfile", "ModeTable",
    "NegativeElapsed", "PeakOnBoundary", "PeakReport", "PlateScenario",
    "ScenarioValidationError", "SeriesSolution", "TemperatureField",
    "Trajectory", "TrajectoryNotClosed", "UnstableConfig",
    "ZeroAngularVelocity", "build_mode_table", "bundled_scenario_names",
    "default_peak_grid", "default_truncation",
    "deviation_report", "format_scenario",
    "line_profile_y", "load_bundled", "load_scenario", "load_scenario_file",
    "locate_peak", "mode_coefficients", "period",
    "position", "project_gaussian_source_series", "save_scenario",
    "solve_fdm", "solve_series", "source_peak_distance_sweep",
    "temperature", "trajectory_profile", "validate_scenario", "velocity",
]


def __getattr__(name):
    # Load fdm on first use (PEP 562): series-only commands skip its import
    # (about 5.5 ms measured with -X importtime).
    if name in ("GaussianSourceFactors", "deviation_report",
                "project_gaussian_source_series", "solve_fdm"):
        from . import fdm

        return getattr(fdm, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
