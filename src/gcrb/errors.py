"""Exception types shared across the package, for data gcrb cannot analyze;
a number that is undefined is nan instead (`gcrb.bayes.CountsReport`)."""


class EstimationError(Exception):
    """Base class for all diagnostic-pipeline errors."""


class CountsParseError(EstimationError):
    """Counts table rejected; carries every offending line, not just the first."""

    def __init__(self, line_errors):
        self.line_errors = list(line_errors)
        detail = "; ".join(f"line {n}: {msg}" for n, msg in self.line_errors)
        super().__init__(f"invalid counts table: {detail}")

    def __reduce__(self):
        # args hold the message, not the line errors __init__ takes
        return type(self), (self.line_errors,)
