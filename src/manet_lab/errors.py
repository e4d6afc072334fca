"""Exception types shared across the simulator."""


class ManetLabError(Exception):
    """Base class for all simulator errors."""


class SchedulingInPast(ManetLabError):
    """An event was scheduled with a fire time earlier than the clock."""


class OutOfTraceRange(ManetLabError):
    """A position query fell outside the time span covered by a trace."""


class AccountingError(ManetLabError):
    """A metrics counter was driven inconsistently (double drop, unknown uid)."""


class DuplicateDelivery(AccountingError):
    """A data packet uid was delivered while not in flight: delivered twice
    (a routing loop bug), delivered after a drop, or never sent."""


class ParseError(ManetLabError):
    """Scenario text could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(ManetLabError):
    """A scenario field has an unsupported or out-of-range value."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
