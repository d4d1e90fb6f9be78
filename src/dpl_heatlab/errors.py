"""Exception types shared across the solver, analysis, and CLI layers."""

from __future__ import annotations

from dataclasses import dataclass

NON_POSITIVE_GEOMETRY = "NonPositiveGeometry"
NEGATIVE_LAG = "NegativeLag"
TRAJECTORY_ESCAPES_PLATE = "TrajectoryEscapesPlate"
INCONSISTENT_KIND = "InconsistentTrajectoryKind"
NON_FINITE_VALUE = "NonFiniteValue"


@dataclass(frozen=True)
class Violation:
    """One validation failure: a stable code plus a human-readable message."""

    code: str
    message: str


class ScenarioValidationError(ValueError):
    """Raised by validate_scenario with the full list of violations."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(v.message for v in self.violations))

    def codes(self):
        return frozenset(v.code for v in self.violations)


class ConfigFormatError(ValueError):
    """Malformed or incomplete scenario config file."""


class ZeroAngularVelocity(ValueError):
    """Angular rate is zero, so no period exists."""


class NegativeElapsed(ValueError):
    """Kernel evaluated at a negative elapsed time."""


class QuadratureNotConverged(RuntimeError):
    """Adaptive quadrature exhausted its subinterval budget.

    Carries the achieved error estimate so callers can report how far the
    result is from the requested tolerance.
    """

    def __init__(self, message, achieved=None, requested=None):
        super().__init__(message)
        self.achieved = achieved
        self.requested = requested


class TrajectoryNotClosed(ValueError):
    """Trajectory-parameterized output requested for an open (line) path."""


class PeakOnBoundary(RuntimeError):
    """Field maximum found on the plate edge; the interior field is degenerate."""


class UnstableConfig(RuntimeError):
    """Finite-difference configuration failed the stability check or blew up."""
