"""The three fitted methods: PCA, contrastive PCA, and discriminative PCA.

All three produce a :class:`ComponentModel` holding unit-norm projection
directions and their associated eigenvalues:

* ``pca_fit``: leading eigenvectors of the target covariance.
* ``cpca_fit``: leading eigenvectors (by algebraic value; the matrix is
  indefinite) of ``C_target - alpha * C_background`` for a contrast strength
  ``alpha``, plus ``cpca_select_alphas`` to pick alphas automatically by
  clustering the subspaces the candidates produce.
* ``dpca_fit``: leading generalized eigenvectors of the pencil
  ``(C_target, C_background)``, i.e. directions maximizing the ratio of
  target variance to background variance. Parameter-free, and it needs a
  single pencil solve.

``pencil_residual`` certifies that a dPCA model solves its pencil.

On wide data (far fewer samples than features) the three fits solve exactly
the same problem at the order of the sample count instead of the feature
count; see ``_reduce_to_data_span``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import eigencore
from .cluster import spectral_cluster
from .datamodel import CovarianceEstimate, DataMatrix
from .errors import DimensionError, FloorAppliedWarning, InvalidInputError

METHODS = ("pca", "cpca", "dpca")


def _frozen_array(values) -> np.ndarray:
    # C order, as after a save/load round trip: the projection's BLAS path
    # depends on the layout, and in-memory and reloaded models must agree.
    arr = np.array(values, dtype=np.float64, copy=True, order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ComponentModel:
    """A fitted projection: unit-norm components plus their eigenvalues.

    ``target_mean`` is subtracted before projecting; ``alpha`` is present
    exactly when ``method == "cpca"``. The ridge/floor fields record the
    regularization that went into the fit.
    """

    method: str
    components: np.ndarray
    eigenvalues: np.ndarray
    target_mean: np.ndarray
    alpha: float | None = None
    background_mean: np.ndarray | None = None
    ridge_target: float = 0.0
    ridge_background: float | None = None
    floor_rel: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidInputError(f"unknown method {self.method!r}")
        comps = _frozen_array(self.components)
        vals = _frozen_array(self.eigenvalues)
        if comps.ndim != 2 or vals.ndim != 1 or comps.shape[1] != vals.shape[0]:
            raise DimensionError("components must be (D, d) with one eigenvalue per column")
        norms = np.linalg.norm(comps, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-10):
            raise InvalidInputError("component columns must have unit norm")
        if np.any(np.diff(vals) > 1e-12 * np.maximum(1.0, np.abs(vals[:-1]))):
            raise InvalidInputError("eigenvalues must be sorted descending")
        if (self.alpha is not None) != (self.method == "cpca"):
            raise InvalidInputError("alpha must be present exactly for cpca models")
        mean = _frozen_array(self.target_mean)
        if mean.shape != (comps.shape[0],):
            raise DimensionError(f"target_mean must have length {comps.shape[0]}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "target_mean", mean)
        if self.background_mean is not None:
            object.__setattr__(self, "background_mean", _frozen_array(self.background_mean))

    @property
    def n_features(self) -> int:
        return self.components.shape[0]

    @property
    def n_components(self) -> int:
        return self.components.shape[1]


@dataclass(frozen=True)
class EmbeddingResult:
    """Projected coordinates, one row per sample, with labels passed through."""

    coordinates: np.ndarray
    model: ComponentModel
    labels: np.ndarray | None = None


@dataclass(frozen=True)
class AlphaSelection:
    """Outcome of automatic alpha selection over a candidate grid."""

    grid: np.ndarray
    affinity: np.ndarray
    cluster_assignment: np.ndarray
    selected: np.ndarray


def _zero_mean(mean, dim: int) -> np.ndarray:
    if mean is None:
        return np.zeros(dim)
    arr = np.asarray(mean, dtype=np.float64)
    if arr.shape != (dim,):
        raise DimensionError(f"mean must have length {dim}, got shape {arr.shape}")
    return arr


def _check_d(d: int, dim: int) -> None:
    if not 1 <= d <= dim:
        raise DimensionError(f"requested {d} components from {dim} features")


def _reduce_to_data_span(covs: Sequence[CovarianceEstimate],
                         d: int) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """The fit's covariances, restricted to a basis of their data's span when that pays.

    A covariance built from centered data ``X`` (``m`` rows) is
    ``C = X^T X / m + r I``. Let ``Q`` (``D x K``, ``K = k + d`` with ``k`` the
    total row count) be the Householder QR basis of ``[X_1^T, ..., X_p^T, 0]``:
    its first ``k`` columns contain every row of every ``X`` and its last ``d``
    are orthonormal to them. Every ``C`` maps ``span(Q)`` into itself and acts
    as ``r I`` on the orthogonal complement, so each fit's matrix or pencil is
    block-diagonal in ``[Q, Q_perp]`` and every complement vector is an
    eigenvector with a known value: ``r_t`` (PCA), ``r_t - alpha r_b`` (cPCA)
    or ``r_t / max(r_b, floor)`` (dPCA; the background's largest eigenvalue,
    and so the floor, is the same in both blocks). The ``d`` extra columns put
    that value into the reduced problem, so its top ``d`` pairs ``y``, lifted
    as ``u = Q y``, are top-``d`` pairs of the full problem even when the
    complement value ranks among them, and the reduced background block
    needs the eigenvalue floor exactly when the full one does. With
    ``R = Q^T [X_1^T, ...]``, the reduced covariances are ``R_i R_i^T / m_i + r_i I``.

    Returns ``(Q, reduced matrices)`` when every covariance carries its data
    and ``K <= D / 2``, else ``(None, full matrices)``. Measured from D=16 to
    2000 on 2 cores, up to that cut-over the reduction beats forming the
    covariances and solving at order ``D`` for cPCA and dPCA, and PCA, the
    cheapest dense fit, breaks even near it; beyond it the QR costs more than
    it saves for PCA.
    """
    dim = covs[0].dim
    total = sum(c.sample_count for c in covs) + d
    if 2 * total > dim or any(c.data is None for c in covs):
        return None, [c.matrix for c in covs]
    # stacking rows and transposing gives the Fortran-ordered D x K layout LAPACK works in
    stacked = np.concatenate([c.data for c in covs] + [np.zeros((d, dim))]).T
    basis, upper = np.linalg.qr(stacked)
    reduced, start = [], 0
    for c in covs:
        part = upper[:, start:start + c.sample_count]
        start += c.sample_count
        block = (part @ part.T) / c.sample_count
        block = 0.5 * (block + block.T)
        if c.ridge_applied > 0:
            block += c.ridge_applied * np.eye(total)
        reduced.append(block)
    return basis, reduced


def _lift(basis: np.ndarray | None, vectors: np.ndarray) -> np.ndarray:
    """Map eigenvectors of a reduced problem back to feature space, ``u = Q y``."""
    if basis is None:
        return vectors
    return eigencore.apply_sign_convention(basis @ vectors)


def pca_fit(cxx: CovarianceEstimate, d: int,
            target_mean: np.ndarray | None = None) -> ComponentModel:
    """Fit ordinary PCA: the top-``d`` eigenpairs of the target covariance.

    On wide data the eigenproblem is solved in the span of the target samples
    (see the module docstring); the result is the same.
    """
    _check_d(d, cxx.dim)
    basis, (a,) = _reduce_to_data_span([cxx], d)
    eig = eigencore.sym_eigendecompose(a, d)
    return ComponentModel(
        method="pca",
        components=_lift(basis, eig.eigenvectors),
        eigenvalues=eig.eigenvalues,
        target_mean=_zero_mean(target_mean, cxx.dim),
        ridge_target=cxx.ridge_applied,
    )


def _cpca_reduce(cxx: CovarianceEstimate, cyy: CovarianceEstimate, alphas: np.ndarray,
                 d: int) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """Validate a cPCA request and reduce its covariances, once for all ``alphas``."""
    lowest = float(np.min(alphas))
    if lowest < 0:
        raise InvalidInputError(f"alpha must be nonnegative, got {lowest}")
    if cxx.dim != cyy.dim:
        raise DimensionError(f"covariance dims disagree: {cxx.dim} vs {cyy.dim}")
    _check_d(d, cxx.dim)
    return _reduce_to_data_span([cxx, cyy], d)


def _cpca_top(basis: np.ndarray | None, a: np.ndarray, b: np.ndarray, alpha: float,
              d: int) -> tuple[np.ndarray, np.ndarray]:
    eig = eigencore.sym_eigendecompose(a - alpha * b, d)
    return _lift(basis, eig.eigenvectors), eig.eigenvalues


def cpca_fit(cxx: CovarianceEstimate, cyy: CovarianceEstimate, alpha: float, d: int,
             target_mean: np.ndarray | None = None,
             background_mean: np.ndarray | None = None) -> ComponentModel:
    """Fit contrastive PCA at contrast strength ``alpha``.

    Components are the top-``d`` eigenvectors, ordered by algebraic
    eigenvalue, of ``C_target - alpha * C_background``; that matrix is
    indefinite, so eigenvalues may be negative. On wide data the eigenproblem
    is solved in the span of the target and background samples (see the
    module docstring); the result is the same.
    """
    basis, (a, b) = _cpca_reduce(cxx, cyy, np.array([alpha]), d)
    components, values = _cpca_top(basis, a, b, alpha, d)
    return ComponentModel(
        method="cpca",
        components=components,
        eigenvalues=values,
        target_mean=_zero_mean(target_mean, cxx.dim),
        alpha=float(alpha),
        background_mean=None if background_mean is None else np.asarray(background_mean, dtype=np.float64),
        ridge_target=cxx.ridge_applied,
        ridge_background=cyy.ridge_applied,
    )


def dpca_fit(cxx: CovarianceEstimate, cyy: CovarianceEstimate, d: int,
             floor_rel: float = eigencore.DEFAULT_FLOOR_REL,
             target_mean: np.ndarray | None = None,
             background_mean: np.ndarray | None = None,
             orthonormalize: bool = False) -> ComponentModel:
    """Fit discriminative PCA: top-``d`` pairs of the pencil ``(C_target, C_background)``.

    Each eigenvalue equals the variance ratio ``u^T C_target u / u^T
    C_background u`` of its component (up to the eigenvalue floor when the
    background covariance is rank-deficient). For ``d > 1`` the components
    are background-covariance-orthogonal, not Euclidean-orthogonal; pass
    ``orthonormalize=True`` to re-orthonormalize the columns in order. That
    preserves the spanned subspace and the leading direction, and the
    eigenvalues still refer to the pencil, not to individual rotated columns.
    The fit makes one pencil solve; on wide data it is of the order of the
    sample count (see the module docstring), with the same result.

    Emits :class:`~dpca.errors.FloorAppliedWarning` when the eigenvalue floor
    was applied to the background covariance, because the floor then
    determines the result; a ridge on the background covariance avoids it.
    """
    if cxx.dim != cyy.dim:
        raise DimensionError(f"covariance dims disagree: {cxx.dim} vs {cyy.dim}")
    _check_d(d, cxx.dim)
    basis, (a, b) = _reduce_to_data_span([cxx, cyy], d)
    pairs = eigencore.generalized_eig(a, b, d, floor_rel)
    if pairs.floor_applied:
        warnings.warn(
            f"the background covariance has eigenvalues below floor_rel={floor_rel:g} times "
            "its largest (rank-deficient, e.g. fewer background samples than features); "
            "they were floored, so the floor, not the data, determines the dPCA result. "
            "Add a ridge to the background covariance (ridge= in sample_covariance, "
            "--ridge on the command line).", FloorAppliedWarning, stacklevel=2)
    comps = _lift(basis, pairs.eigenvectors)
    if orthonormalize and d > 1:
        q, r = np.linalg.qr(comps)
        q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)[None, :]  # keep column orientation
        comps = eigencore.apply_sign_convention(q)
    return ComponentModel(
        method="dpca",
        components=comps,
        eigenvalues=pairs.eigenvalues,
        target_mean=_zero_mean(target_mean, cxx.dim),
        background_mean=None if background_mean is None else np.asarray(background_mean, dtype=np.float64),
        ridge_target=cxx.ridge_applied,
        ridge_background=cyy.ridge_applied,
        floor_rel=float(floor_rel),
    )


def subspace_affinity(u: np.ndarray, v: np.ndarray) -> float:
    """Product of cosines of the principal angles between two subspaces.

    Both arguments are matrices with orthonormal columns; the result is the
    product of the singular values of ``u^T v``, a number in [0, 1] that is 1
    exactly when the subspaces coincide.
    """
    sv = np.linalg.svd(u.T @ v, compute_uv=False)
    return float(np.clip(np.prod(sv), 0.0, 1.0))


def cpca_select_alphas(cxx: CovarianceEstimate, cyy: CovarianceEstimate,
                       grid: Sequence[float], d: int, n_select: int,
                       seed: int = 0) -> AlphaSelection:
    """Pick representative contrast strengths from a candidate grid.

    Fits the cPCA subspace for every candidate, measures pairwise subspace
    affinity (product of principal-angle cosines), spectrally clusters the
    affinity matrix into ``n_select`` groups, and returns one medoid per
    group (the member maximizing within-group affinity sum). The selected
    values are returned in ascending order. On wide data the covariances are
    reduced to the span of the samples once for the whole grid.
    """
    grid_arr = np.asarray(list(grid), dtype=np.float64)
    if grid_arr.ndim != 1 or grid_arr.size == 0:
        raise InvalidInputError("alpha grid must be a nonempty 1-D sequence")
    if not 1 <= n_select <= grid_arr.size:
        raise InvalidInputError(
            f"cannot select {n_select} alphas from a grid of {grid_arr.size}")

    basis, (a, b) = _cpca_reduce(cxx, cyy, grid_arr, d)
    subspaces = [_cpca_top(basis, a, b, alpha, d)[0] for alpha in grid_arr]
    n = grid_arr.size
    affinity = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            affinity[i, j] = affinity[j, i] = subspace_affinity(subspaces[i], subspaces[j])

    assignment = spectral_cluster(affinity, n_select, seed=seed)
    total_affinity = affinity.sum(axis=1)
    chosen = []
    for c in range(n_select):
        members = np.flatnonzero(assignment == c)
        if members.size == 0:
            # degenerate clustering (e.g. duplicated candidates): any medoid
            # is as good as any other, take the globally most central one
            chosen.append(int(np.argmax(total_affinity)))
        else:
            within = affinity[np.ix_(members, members)].sum(axis=1)
            chosen.append(int(members[int(np.argmax(within))]))
    selected = np.sort(grid_arr[chosen])
    return AlphaSelection(grid=grid_arr, affinity=affinity,
                          cluster_assignment=assignment, selected=selected)


def transform(model: ComponentModel, raw: DataMatrix) -> EmbeddingResult:
    """Project data onto a fitted model: subtract the stored mean, multiply."""
    if raw.n_features != model.n_features:
        raise DimensionError(
            f"data has {raw.n_features} features, model expects {model.n_features}")
    coords = (raw.values - model.target_mean) @ model.components
    return EmbeddingResult(coordinates=coords, model=model, labels=raw.labels)


def pencil_residual(model: ComponentModel, cxx: CovarianceEstimate,
                    cyy: CovarianceEstimate) -> float:
    """Worst relative pencil residual of a dPCA model's components.

    Returns ``max_i ||C_target u_i - lam_i C_background u_i|| / (||C_target||_F
    + lam_i ||C_background||_F)``; small values certify the components solve
    the pencil they claim to.
    """
    if model.method != "dpca":
        raise InvalidInputError(f"pencil residual is defined for dpca models, got {model.method!r}")
    norm_a = float(np.linalg.norm(cxx.matrix))
    norm_b = float(np.linalg.norm(cyy.matrix))
    worst = 0.0
    for i in range(model.n_components):
        u = model.components[:, i]
        lam = float(model.eigenvalues[i])
        resid = float(np.linalg.norm(cxx.matrix @ u - lam * (cyy.matrix @ u)))
        worst = max(worst, resid / (norm_a + lam * norm_b))
    return worst
