"""Dataset containers, centering, and sample covariance construction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, InvalidInputError


@dataclass(frozen=True)
class DataMatrix:
    """Row-major sample set, ``m`` samples by ``n_features`` columns.

    ``labels`` is an optional length-``m`` integer tag vector used only for
    evaluation and plotting; it never influences a fit.

    ``DataMatrix(values, labels)`` copies both arrays, so the caller's arrays
    stay theirs and stay writeable. Arrays that the package has just built
    itself (a parsed CSV, generated or centered data) are adopted instead:
    :meth:`_adopt` takes ownership without a copy. Either way the stored
    arrays are read-only.
    """

    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self._own(np.array(self.values, dtype=np.float64, copy=True),
                  None if self.labels is None else np.array(self.labels, dtype=np.int64, copy=True))

    @classmethod
    def _adopt(cls, values: np.ndarray, labels: np.ndarray | None = None, *,
               finite_checked: bool = False) -> DataMatrix:
        """A DataMatrix that owns float64 ``values`` and int64 ``labels`` without copying.

        Only for arrays that nothing else writes to: they are made read-only
        in place. ``finite_checked`` skips the finiteness scan when the caller
        has just made it (with a better message) or built the values from
        finite data by copying.
        """
        matrix = object.__new__(cls)
        matrix._own(values, labels, finite_checked=finite_checked)
        return matrix

    def _own(self, vals: np.ndarray, labs: np.ndarray | None, *,
             finite_checked: bool = False) -> None:
        """Validate the arrays, freeze them, and store them on this instance."""
        if vals.ndim != 2:
            raise DimensionError(f"data must be 2-D (samples x features), got ndim={vals.ndim}")
        if vals.shape[0] < 1 or vals.shape[1] < 1:
            raise DimensionError(f"data must be at least 1x1, got shape {vals.shape}")
        if not finite_checked and not np.all(np.isfinite(vals)):
            raise InvalidInputError("data contains non-finite values")
        if labs is not None and labs.shape != (vals.shape[0],):
            raise DimensionError(f"labels must have length {vals.shape[0]}, got shape {labs.shape}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if labs is not None:
            labs.flags.writeable = False
        object.__setattr__(self, "labels", labs)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CenteredDataset:
    """A DataMatrix with its column means removed, plus the removed means."""

    data: DataMatrix
    mean: np.ndarray


class CovarianceEstimate:
    """Sample covariance ``X^T X / m + ridge * I`` plus the ridge that was added to it.

    Built either from the matrix itself, or (by :func:`sample_covariance`)
    from the centered data ``X``: then ``data`` is a read-only reference to
    ``X`` (not a copy) and the ``D x D`` ``matrix`` is formed the first time
    it is read. Fits on wide data (many more features than samples) work from
    ``data`` and never form it; ``dim`` never forms it either. ``data`` is None
    when the estimate was built from a matrix.
    """

    __slots__ = ("_matrix", "data", "sample_count", "ridge_applied")

    def __init__(self, matrix: np.ndarray | None = None, sample_count: int = 0,
                 ridge_applied: float = 0.0, *, data: np.ndarray | None = None):
        if (matrix is None) == (data is None):
            raise InvalidInputError("a covariance estimate needs exactly one of matrix or data")
        if data is not None:
            data = data.view()  # read-only view of the caller's array, not a copy
            data.flags.writeable = False
        self._matrix = matrix
        self.data = data
        self.sample_count = sample_count
        self.ridge_applied = ridge_applied

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            x = self.data
            cov = (x.T @ x) / self.sample_count
            cov = 0.5 * (cov + cov.T)
            if self.ridge_applied > 0:
                cov = cov + self.ridge_applied * np.eye(x.shape[1])
            self._matrix = cov
        return self._matrix

    @property
    def dim(self) -> int:
        return (self.data if self._matrix is None else self._matrix).shape[1]


def center(raw: DataMatrix) -> CenteredDataset:
    """Remove the column-wise mean from a dataset.

    Labels pass through unchanged. Idempotent on the data part: centering an
    already centered dataset leaves it unchanged up to rounding. The one
    subtraction makes the only new array, which the result adopts; it is
    still checked for finiteness, because ``x - mean`` can overflow.
    """
    mean = raw.values.mean(axis=0)
    return CenteredDataset(data=DataMatrix._adopt(raw.values - mean, raw.labels), mean=mean)


def sample_covariance(centered: CenteredDataset, ridge: float = 0.0) -> CovarianceEstimate:
    """Covariance ``(1/m) X^T X + ridge * I`` of a centered dataset.

    The divisor is the sample count ``m``, not ``m - 1``. A positive ridge
    makes rank-deficient covariances invertible before a pencil solve; the
    amount added is recorded on the estimate. The estimate keeps a reference
    to the centered values and forms the ``D x D`` matrix only when its
    ``matrix`` is first read (see :class:`CovarianceEstimate`).
    """
    if not 0 <= ridge < np.inf:
        raise InvalidInputError(f"ridge must be finite and nonnegative, got {ridge}")
    x = centered.data.values
    return CovarianceEstimate(sample_count=x.shape[0], ridge_applied=float(ridge), data=x)


def concat_rows(parts: Sequence[DataMatrix]) -> DataMatrix:
    """Stack several datasets row-wise into one (labels are dropped).

    This is how multiple background datasets are fused: combine first, then
    fit against the combined covariance.
    """
    if not parts:
        raise InvalidInputError("need at least one dataset to concatenate")
    width = parts[0].n_features
    for i, p in enumerate(parts[1:], start=1):
        if p.n_features != width:
            raise DimensionError(
                f"dataset {i} has {p.n_features} features, expected {width}")
    # the parts are finite DataMatrix values, so their stack is too
    return DataMatrix._adopt(np.vstack([p.values for p in parts]), finite_checked=True)
