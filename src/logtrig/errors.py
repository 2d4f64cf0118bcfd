"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SolverError(RuntimeError):
    """The nome of the requested alpha underflows, or the modulus solved
    from it fails the AGM check of K'/K."""


class AccuracyError(RuntimeError):
    """Quadrature could not reach the requested tolerance.

    ``best`` is the last estimate, ``error_estimate`` its a-posteriori bound.
    """

    def __init__(self, message: str, best: float, error_estimate: float,
                 evaluations: int = 0):
        super().__init__(message)
        self.best = best
        self.error_estimate = error_estimate
        self.evaluations = evaluations
