"""Exception types shared across the engine."""

from __future__ import annotations


class SleZeroError(Exception):
    """Base class for all engine errors."""


class DegenerateConfigurationError(SleZeroError):
    """Divisor points coincide, or a map collapses them."""


class UnsupportedChargeError(SleZeroError):
    """A charge outside the supported set for the requested operation."""


class SingularityProximityError(SleZeroError):
    """Field evaluation requested too close to a singular point."""


class InvalidReferenceError(SleZeroError):
    """A reference arc or reference point does not exist or is singular."""


class LaunchError(SleZeroError):
    """Trajectory launch direction invalid or no admissible separatrix."""


class WindingUndefinedError(SleZeroError):
    """Winding angle requested for a polyline passing through the base point."""


class InversionFailureError(SleZeroError):
    """Reverse-time solve for an inverse Loewner map did not converge."""


class StepBudgetError(SleZeroError):
    """An integration would take more steps than its budget."""


class ConfigError(SleZeroError):
    """Scene configuration rejected; carries line-numbered diagnostics."""

    def __init__(self, diagnostics: list[tuple[int, str]]):
        lines = "; ".join(f"line {n}: {msg}" for n, msg in diagnostics)
        super().__init__(lines or "invalid configuration")
        self.diagnostics = list(diagnostics)
