"""Temperature fields of a rectangular plate heated by a moving source.

Series solver for the phase-lagged (and classical) heat equation with a
point source on line/circle/ellipse paths, an independent finite-difference
cross-check, and field-analysis utilities.

Importing the package loads neither numpy nor any submodule: each public
name is looked up in its home module on first access (PEP 562).  So the
command-line entry in ``__main__`` can set BLAS's thread variables before
numpy loads, and a library import leaves them alone.
"""

import importlib

__version__ = "0.1.0"

# The one list of public names, by home module.  Lookups are not cached
# here, so a patch to the home module is what callers of the package see.
_EXPORTS = {
    "analysis": ("LineProfile", "PeakReport", "line_profile_y", "locate_peak",
                 "source_peak_distance_sweep", "trajectory_profile"),
    "errors": ("ConfigFormatError", "NegativeElapsed", "PeakOnBoundary",
               "ScenarioValidationError", "TrajectoryNotClosed",
               "UnstableConfig", "ZeroAngularVelocity"),
    "fdm": ("GaussianSourceFactors", "deviation_report",
            "project_gaussian_source_series", "solve_fdm"),
    "model": ("FdmConfig", "GridSpec", "PlateScenario", "TemperatureField",
              "Trajectory", "bundled_scenario_names", "default_peak_grid",
              "format_scenario", "load_bundled", "load_scenario_file",
              "save_scenario", "validate_scenario"),
    "modes": ("ModeTable", "build_mode_table"),
    "series": ("SeriesSolution", "mode_coefficients", "resolve_truncation",
               "solve_series"),
    "trajectory": ("period", "position", "velocity"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                       name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
