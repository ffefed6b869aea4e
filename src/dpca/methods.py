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
    arr = np.array(values, dtype=np.float64, copy=True)
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


def pca_fit(cxx: CovarianceEstimate, d: int,
            target_mean: np.ndarray | None = None) -> ComponentModel:
    """Fit ordinary PCA: the top-``d`` eigenpairs of the target covariance."""
    _check_d(d, cxx.dim)
    eig = eigencore.sym_eigendecompose(cxx.matrix, d)
    return ComponentModel(
        method="pca",
        components=eig.eigenvectors,
        eigenvalues=eig.eigenvalues,
        target_mean=_zero_mean(target_mean, cxx.dim),
        ridge_target=cxx.ridge_applied,
    )


def cpca_fit(cxx: CovarianceEstimate, cyy: CovarianceEstimate, alpha: float, d: int,
             target_mean: np.ndarray | None = None,
             background_mean: np.ndarray | None = None) -> ComponentModel:
    """Fit contrastive PCA at contrast strength ``alpha``.

    Components are the top-``d`` eigenvectors, ordered by algebraic
    eigenvalue, of ``C_target - alpha * C_background``; that matrix is
    indefinite, so eigenvalues may be negative.
    """
    if alpha < 0:
        raise InvalidInputError(f"alpha must be nonnegative, got {alpha}")
    if cxx.dim != cyy.dim:
        raise DimensionError(f"covariance dims disagree: {cxx.dim} vs {cyy.dim}")
    _check_d(d, cxx.dim)
    contrast = cxx.matrix - alpha * cyy.matrix
    eig = eigencore.sym_eigendecompose(contrast, d)
    return ComponentModel(
        method="cpca",
        components=eig.eigenvectors,
        eigenvalues=eig.eigenvalues,
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

    Emits :class:`~dpca.errors.FloorAppliedWarning` when the eigenvalue floor
    was applied to the background covariance, because the floor then
    determines the result; a ridge on the background covariance avoids it.
    """
    if cxx.dim != cyy.dim:
        raise DimensionError(f"covariance dims disagree: {cxx.dim} vs {cyy.dim}")
    _check_d(d, cxx.dim)
    pairs = eigencore.generalized_eig(cxx.matrix, cyy.matrix, d, floor_rel)
    if pairs.floor_applied:
        warnings.warn(
            f"the background covariance has eigenvalues below floor_rel={floor_rel:g} times "
            "its largest (rank-deficient, e.g. fewer background samples than features); "
            "they were floored, so the floor, not the data, determines the dPCA result. "
            "Add a ridge to the background covariance (ridge= in sample_covariance, "
            "--ridge on the command line).", FloorAppliedWarning, stacklevel=2)
    comps = pairs.eigenvectors
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
    values are returned in ascending order.
    """
    grid_arr = np.asarray(list(grid), dtype=np.float64)
    if grid_arr.ndim != 1 or grid_arr.size == 0:
        raise InvalidInputError("alpha grid must be a nonempty 1-D sequence")
    if not 1 <= n_select <= grid_arr.size:
        raise InvalidInputError(
            f"cannot select {n_select} alphas from a grid of {grid_arr.size}")

    subspaces = [cpca_fit(cxx, cyy, a, d).components for a in grid_arr]
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
