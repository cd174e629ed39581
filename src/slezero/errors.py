"""Exception types shared across the engine.

Each class carries what the command line reports for it: its exit code and
the prefix of its one stderr line.
"""

from __future__ import annotations


class SleZeroError(Exception):
    """Base class for all engine errors."""

    exit_code = 1
    prefix = "invalid scene: "


class IntegrationError(SleZeroError):
    """Base class for the failures of a trace, a flow or a reverse solve."""

    exit_code = 3
    prefix = "integration failure: "


class PathError(SleZeroError):
    """A config file cannot be read, or an artifact cannot be written."""

    prefix = ""


class DegenerateConfigurationError(SleZeroError):
    """Divisor points coincide, a map collapses them, or a divisor is not
    admissible: ``SymmetricDivisor`` raises it when it is made, with every
    rule the divisor breaks in ``problems``."""

    problems: tuple[str, ...] = ()


class UnsupportedChargeError(SleZeroError):
    """A charge outside the supported set for the requested operation."""


class SingularityProximityError(IntegrationError):
    """Field evaluation requested too close to a singular point."""


class InvalidReferenceError(SleZeroError):
    """A reference arc or reference point does not exist or is singular."""


class LaunchError(IntegrationError):
    """Trajectory launch direction invalid or no admissible separatrix."""


class WindingUndefinedError(IntegrationError):
    """Winding angle requested for a polyline passing through the base point."""


class InversionFailureError(IntegrationError):
    """Reverse-time solve for an inverse Loewner map did not converge."""


class StepBudgetError(IntegrationError):
    """An integration would take more steps than its budget, or its steps
    no longer move it."""


class ConfigError(SleZeroError):
    """Scene configuration rejected; carries line-numbered diagnostics."""

    prefix = "config error:\n"

    def __init__(self, diagnostics: list[tuple[int, str]]):
        lines = "; ".join(f"line {n}: {msg}" for n, msg in diagnostics)
        super().__init__(lines or "invalid configuration")
        self.diagnostics = list(diagnostics)
