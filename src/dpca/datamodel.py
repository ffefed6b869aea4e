"""Dataset containers, centering, sample covariances, and the inputs a fit takes.

:func:`center` and :func:`sample_covariance` never write their inputs.
:func:`fit_inputs` takes one path: each table is copied once, or taken
as it is when the caller asks it to ``consume`` the tables, and is then
z-scored and centered in place. So a caller that consumes tables it never
reads again holds each of them once.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import eigencore
from .errors import DimensionError, InvalidInputError, check_float


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
    it is read, in the library of the fit it serves
    (``eigencore._data_covariance``). Fits on wide data (many more features
    than samples) work from ``data`` and never form it; ``dim`` never forms
    it either. ``data`` is None when the estimate was built from a matrix.
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
            self._matrix = eigencore._data_covariance(self.data, self.sample_count,
                                                      self.ridge_applied)
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
    amount added is recorded on the estimate. ``ridge`` must pass
    :func:`~dpca.errors.check_float` (a finite number >= 0, not a bool, that a
    double holds). The
    estimate keeps a reference to the centered values and forms the ``D x
    D`` matrix only when its ``matrix`` is first read (see
    :class:`CovarianceEstimate`).
    """
    ridge = check_float("ridge", ridge)
    x = centered.data.values
    return CovarianceEstimate(sample_count=x.shape[0], ridge_applied=ridge, data=x)


def concat_rows(parts: Sequence[DataMatrix]) -> DataMatrix:
    """Stack several datasets row-wise into one (labels are dropped).

    :func:`fit_inputs` fuses several background datasets with it: combine
    first, then fit against the combined covariance.
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


@dataclass(frozen=True)
class FitInputs:
    """What the fits take from a target and its backgrounds.

    ``target`` is the centered target that the target covariance holds:
    divided by ``scale`` when the inputs were z-scored, ``scale`` being None
    otherwise, then less its column mean ``means[0]``. ``covs`` and
    ``means`` hold the covariance estimates and column means, the target's
    first and then the fused background's, if there is one.
    """

    target: DataMatrix
    scale: np.ndarray | None
    covs: tuple[CovarianceEstimate, ...]
    means: tuple[np.ndarray, ...]


# the pooled z-score reads its tables this many bytes of rows at a time
_STD_BLOCK_BYTES = 1 << 20


def _pooled_std(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``np.vstack(arrays).std(axis=0)``, bit for bit, without the stack.

    numpy sums the rows of a multi-column C-ordered array one after another
    along axis 0, so each pooled sum (the column sums, then the squared
    deviations from their mean) continues one accumulation from block to
    block and from table to table: a block is copied below the running
    total and the rows are summed as one array. The total starts at zero,
    which can change only the sign of a zero column sum, and no squared
    deviation sees that sign. numpy sums a single column pairwise instead,
    which blocks cannot continue, so one-column tables are stacked: their
    stack is one column.
    """
    width = arrays[0].shape[1]
    if width == 1:
        return np.vstack(arrays).std(axis=0)
    # a block need not be longer than the longest table
    rows = max(1, min(_STD_BLOCK_BYTES // (8 * width), max(arr.shape[0] for arr in arrays)))
    buf = np.empty((rows + 1, width))
    count = sum(arr.shape[0] for arr in arrays)

    def pooled_mean(fill):
        buf[0] = 0.0
        for arr in arrays:
            for lo in range(0, arr.shape[0], rows):
                block = arr[lo:lo + rows]
                fill(buf[1:block.shape[0] + 1], block)
                buf[0] = buf[:block.shape[0] + 1].sum(axis=0)
        return buf[0] / count

    mean = pooled_mean(np.copyto)

    def squared_deviations(out, block):
        np.subtract(block, mean, out=out)
        np.square(out, out=out)

    return np.sqrt(pooled_mean(squared_deviations))


@contextmanager
def _writing(arr: np.ndarray):
    """``arr`` made writeable for the block, and read-only again after it."""
    arr.flags.writeable = True
    try:
        yield arr
    finally:
        arr.flags.writeable = False


def _center_in_place(data: DataMatrix) -> CenteredDataset:
    """:func:`center` on an array that nothing else reads, by subtracting in place.

    ``x - mean`` is the same subtraction either way, and it is still checked
    for finiteness, because it can overflow.
    """
    vals = data.values
    mean = vals.mean(axis=0)
    with _writing(vals):
        np.subtract(vals, mean, out=vals)
    if not np.all(np.isfinite(vals)):
        raise InvalidInputError("data contains non-finite values")
    return CenteredDataset(data=data, mean=mean)


def fit_inputs(target: DataMatrix, backgrounds: Sequence[DataMatrix] = (),
               ridge: float = 0.0, zscore: bool = False, *,
               consume: bool = False) -> FitInputs:
    """Means and covariance estimates of a target and its backgrounds, ready to fit.

    Several backgrounds are fused into one by :func:`concat_rows`. With
    ``zscore`` every feature is divided by one standard deviation of the
    pooled target and background rows, so the two stay directly comparable;
    a constant feature keeps scale 1. Each dataset is then centered and its
    :func:`sample_covariance` formed with ``ridge``.

    ``consume`` decides only whether each table is copied. By default every
    table is copied once and no input array is written. With ``consume`` the
    caller gives the tables up: a table whose array owns its memory and
    shares none with the other table is taken as it is, and the others are
    copied. The fused background is always this call's own. Each array is
    then divided and centered in place and is read-only afterwards, so the
    result is the same either way, and ``target`` is the centered target.

    Raises
    ------
    InvalidInputError
        If the backgrounds' feature count differs from the target's.
    DimensionError
        If the backgrounds differ from each other in feature count.
    """
    datasets = [target]
    if backgrounds:
        datasets.append(backgrounds[0] if len(backgrounds) == 1 else concat_rows(backgrounds))
        if datasets[1].n_features != target.n_features:
            raise InvalidInputError(
                f"feature count mismatch: target has {target.n_features}, "
                f"background has {datasets[1].n_features}")
    # a table is taken when consumed, owning its memory and sharing none with
    # the other; the fused background is this call's own
    shared = len(datasets) > 1 and np.may_share_memory(target.values, datasets[1].values)
    taken = [consume and d.values.flags.owndata and not shared for d in datasets]
    if len(backgrounds) > 1:
        taken[1] = True
    # the copy keeps the layout that ``raw - mean`` would give, as centering does
    datasets = [d if mine else DataMatrix._adopt(d.values.copy(order="K"), d.labels,
                                                finite_checked=True)
                for d, mine in zip(datasets, taken)]
    scale = None
    if zscore:
        scale = _pooled_std([d.values for d in datasets])
        scale[scale == 0] = 1.0
        for d in datasets:
            with _writing(d.values) as vals:
                np.divide(vals, scale, out=vals)
    centered = [_center_in_place(d) for d in datasets]
    return FitInputs(centered[0].data, scale,
                     tuple(sample_covariance(c, ridge) for c in centered),
                     tuple(c.mean for c in centered))
