"""Shared error taxonomy.

Config errors point at the effective configuration, parse errors at
malformed input bytes, validation errors at structurally sound but
contract-violating values, domain errors at mathematically undefined
requests (entropy of nothing), and training errors at optimizer-level
failures.  A fit that stops at its iteration cap without meeting its
tolerance is not an error: it emits a ``ConvergenceWarning`` and still
returns the model.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ToolkitError):
    """Raised for problems in the effective configuration."""


class ParseError(ToolkitError):
    """Malformed input file content.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(ToolkitError):
    """Well-formed input that violates a documented precondition."""


class DomainError(ToolkitError):
    """Quantity undefined for the given input (e.g. empty distribution)."""


class TrainingError(ToolkitError):
    """Optimizer failed in a way that invalidates the fitted model."""


class ConvergenceWarning(UserWarning):
    """A fit stopped before its loss change fell below the tolerance."""

    def __init__(self, message: str, iterations: int, final_loss: float):
        super().__init__(message)
        self.iterations = iterations
        self.final_loss = final_loss
