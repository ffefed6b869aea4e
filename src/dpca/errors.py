"""Exception hierarchy for the dpca package, and the rule for a number a caller passes.

Library code raises these instead of bare ValueError so the CLI can map
failures onto its documented exit codes (usage 2, data 3, numerical 4).
:func:`check_range` is the one check of a scalar argument (a ridge, an
alpha, a floor, a spread, a CLI flag) and the one place its message is
formed. :func:`check_float` is that check for a number the library turns
into a double.
"""

from __future__ import annotations

import numbers
import sys

import numpy as np


class DpcaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(DpcaError):
    """Input data violates a precondition (non-finite values, bad shapes)."""


def check_range(name: str, value, lo: float = 0, hi: float = np.inf):
    """``value``, when it is a real number, not a bool, finite and in ``lo..hi``.

    Anything else, a string or None included, raises
    :class:`InvalidInputError` with ``"<name> must be a finite number >= <lo>,
    got <value!r>"`` (``"in <lo>..<hi>"`` for a finite ``hi``).
    """
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not (lo <= value <= hi and abs(value) < np.inf)):
        bound = f">= {lo}" if hi == np.inf else f"in {lo}..{hi}"
        raise InvalidInputError(f"{name} must be a finite number {bound}, got {value!r}")
    return value


def check_float(name: str, value, lo: float = 0, hi: float = np.inf) -> float:
    """``value`` as a float, when it passes :func:`check_range` and a double holds it.

    An integer past the largest double passes the rule but not ``float()``;
    it is rejected by name, with the rule's message bounded at that double.
    """
    try:
        return float(check_range(name, value, lo, hi))
    except OverflowError:
        big = sys.float_info.max
        check_range(name, value, max(lo, -big), min(hi, big))
        raise


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
