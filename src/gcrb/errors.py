"""Exception types shared across the package."""


class EstimationError(Exception):
    """Base class for all diagnostic-pipeline errors."""


class UndefinedRatioError(EstimationError):
    """Saturation ratio requested with vanishing generalized Fisher information."""


class CountsParseError(EstimationError):
    """Counts table rejected; carries every offending line, not just the first."""

    def __init__(self, line_errors):
        self.line_errors = list(line_errors)
        detail = "; ".join(f"line {n}: {msg}" for n, msg in self.line_errors)
        super().__init__(f"invalid counts table: {detail}")
