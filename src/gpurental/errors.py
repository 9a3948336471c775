"""Exception types shared across the package."""


class SpecError(ValueError):
    """A workload config document is malformed or violates a structural invariant."""


class AxiomError(SpecError):
    """A job type's speedup breaks an axiom the solver relies on."""


class ReplayError(SpecError):
    """A replay finished with a job's or the trace's result past the range of a double.
    ``row`` is the trace row of the job at fault, named as line row + 2, else None."""

    def __init__(self, reason: str, row: int | None = None):
        self.reason, self.row = reason, row
        super().__init__(reason if row is None else f"trace line {row + 2}: {reason}")


class TraceError(ValueError):
    """A trace file or trace object is malformed.

    ``line`` is the 1-based line number of the first offending row when the
    error came from parsing a file, else None.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InstabilityError(ValueError):
    """Total load meets or exceeds the budget, so no allocation can keep up."""


class BruteForceError(ValueError):
    """The exhaustive grid search was asked for something it cannot enumerate."""
