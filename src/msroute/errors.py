"""Exception hierarchy shared across the package."""


class MsRouteError(Exception):
    """Base class for all package errors."""


class ParseError(MsRouteError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(MsRouteError):
    """Floorplan failed geometric validation."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


class InvalidNetError(MsRouteError):
    """Net violates basic structural requirements (e.g. fewer than 2 pins)."""


class PinHostError(MsRouteError):
    """A pin could not be attached to any usable routing segment."""


class MetricError(MsRouteError):
    """A metric is undefined for the given population (e.g. empty snapshot)."""


class InternalError(MsRouteError):
    """Invariant violation that indicates a bug, not bad input."""
