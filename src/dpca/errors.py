"""Exception hierarchy for the dpca package.

Library code raises these instead of bare ValueError so the CLI can map
failures onto its documented exit codes (usage 2, data 3, numerical 4).
"""

from __future__ import annotations

import numpy as np


class DpcaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(DpcaError):
    """Input data violates a precondition (non-finite values, bad shapes)."""


class SymmetryError(InvalidInputError):
    """A matrix expected to be symmetric is not, beyond tolerance."""


class DimensionError(InvalidInputError):
    """Dimension mismatch, or more components requested than dimensions."""


class NumericalError(DpcaError):
    """Base class for failures of the numerical routines themselves."""


class RankZeroError(NumericalError):
    """A covariance matrix is identically zero, so no whitening factor exists."""


class FloorAppliedWarning(UserWarning):
    """The whitening floor raised background eigenvalues and so set the result.

    The remedy is a ridge on the background covariance (``--ridge``).
    """


class NonConvergenceError(NumericalError):
    """Iterative solver exceeded its iteration budget.

    Carries the best iterate found so callers can inspect or salvage it.
    """

    def __init__(self, message: str, *, best_eigenvalue: float,
                 best_vector: np.ndarray, residual: float, iterations: int):
        super().__init__(message)
        self.best_eigenvalue = best_eigenvalue
        self.best_vector = best_vector
        self.residual = residual
        self.iterations = iterations
