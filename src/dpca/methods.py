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

``fit`` is the one entry point from the ``FitInputs`` of
``datamodel.fit_inputs`` to models: it runs the method's fit above on the
inputs' covariances and means, and the models carry the inputs' z-score
scale, so ``transform`` projects raw data as the fit saw it.
``pencil_residual`` certifies that a dPCA model solves its pencil.

On wide data (far fewer samples than features, from
``eigencore.TOP_D_MIN_DIM`` features up) the three fits solve exactly the
same problem at the order of the sample count instead of the feature count.
Every fit takes one path: validate and factor the samples (``_data_span``),
solve at the reduced order (PCA and cPCA on the reduced matrices of
``_reduce_to_data_span``, dPCA from the factor itself), lift back to
feature space (``eigencore._lift``) and build the model (``_model``).
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import eigencore
from .cluster import spectral_cluster
from .datamodel import CovarianceEstimate, DataMatrix, FitInputs
from .errors import DimensionError, FloorAppliedWarning, InvalidInputError

METHODS = ("pca", "cpca", "dpca")


def _frozen_array(values) -> np.ndarray:
    # C order, as after a save/load round trip: the projection's BLAS path
    # depends on the layout, and in-memory and reloaded models must agree.
    arr = np.array(values, dtype=np.float64, copy=True, order="C")
    arr.flags.writeable = False
    return arr


def _scalar(name: str, value, optional: bool = False) -> float | None:
    """``value`` as a float when it is a finite real >= 0, not a bool; None if ``optional``."""
    if value is None and optional:
        return None
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not 0 <= value < np.inf):
        raise InvalidInputError(f"{name} must be a finite nonnegative number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ComponentModel:
    """A fitted projection: unit-norm components plus their eigenvalues.

    Raw data projects as ``(raw / feature_scale - target_mean) @
    components``: ``feature_scale`` is the z-score divisor of a fit to
    z-scored inputs and None otherwise, and ``target_mean`` is the mean of
    the (scaled) target. ``alpha`` is present exactly when ``method ==
    "cpca"``. The ridge/floor fields record the regularization that went
    into the fit. Each scalar is stored as a finite nonnegative float;
    ``alpha``, ``ridge_background`` and ``floor_rel`` may also be None. The
    means and the scale are finite vectors of one entry per feature, and the
    scale is positive.
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
    feature_scale: np.ndarray | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidInputError(f"unknown method {self.method!r}")
        arrays = {}
        for name in ("components", "eigenvalues", "target_mean", "background_mean",
                     "feature_scale"):
            arr = getattr(self, name)
            if arr is not None or name in ("components", "eigenvalues", "target_mean"):
                arr = _frozen_array(arr)
                if not np.all(np.isfinite(arr)):
                    raise InvalidInputError(f"{name} must be finite")
            arrays[name] = arr
        comps, vals = arrays["components"], arrays["eigenvalues"]
        if comps.ndim != 2 or vals.ndim != 1 or comps.shape[1] != vals.shape[0]:
            raise DimensionError("components must be (D, d) with one eigenvalue per column")
        norms = np.linalg.norm(comps, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-10):
            raise InvalidInputError("component columns must have unit norm")
        if np.any(np.diff(vals) > 1e-12 * np.maximum(1.0, np.abs(vals[:-1]))):
            raise InvalidInputError("eigenvalues must be sorted descending")
        if (self.alpha is not None) != (self.method == "cpca"):
            raise InvalidInputError("alpha must be present exactly for cpca models")
        for name in ("target_mean", "background_mean", "feature_scale"):
            if arrays[name] is not None and arrays[name].shape != (comps.shape[0],):
                raise DimensionError(f"{name} must have length {comps.shape[0]}, "
                                     f"got shape {arrays[name].shape}")
        if arrays["feature_scale"] is not None and np.any(arrays["feature_scale"] <= 0):
            raise InvalidInputError("feature_scale must be positive")
        for name in ("alpha", "ridge_target", "ridge_background", "floor_rel"):
            object.__setattr__(self, name, _scalar(name, getattr(self, name),
                                                   optional=name != "ridge_target"))
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

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
    """Outcome of automatic alpha selection over a candidate grid.

    ``components[i]`` and ``eigenvalues[i]`` are the cPCA pairs at
    ``selected[i]``, the same as :func:`cpca_fit` returns at that alpha.
    """

    grid: np.ndarray
    affinity: np.ndarray
    cluster_assignment: np.ndarray
    selected: np.ndarray
    components: tuple[np.ndarray, ...]
    eigenvalues: tuple[np.ndarray, ...]


def _data_span(covs: Sequence[CovarianceEstimate], d: int) -> eigencore._Span | None:
    """Validate a fit's covariances and ``d``; the QR of their data when reducing to its span pays.

    A covariance built from centered data ``X`` (``m`` rows) is
    ``C = X^T X / m + r I``. Let ``Q`` (``D x K``, ``K = k + d`` with ``k`` the
    total row count) be the Householder QR basis of ``[X_p^T, ..., X_1^T, 0]``,
    the background's rows first: its first ``k`` columns contain every row of
    every ``X`` and its last ``d`` are orthonormal to them. The reduced
    background is then ``blockdiag(B11, r_b I)`` with ``B11`` of the order of
    its own row count, and a dPCA fit with a background ridge factors only
    ``B11`` and whitens the target straight from the QR factor ``R``
    (``eigencore._span_pencil_eig``). Every ``C``
    maps ``span(Q)`` into itself and acts as ``r I`` on the orthogonal
    complement, so each fit's matrix or pencil is block-diagonal in
    ``[Q, Q_perp]`` and every complement vector is an
    eigenvector with a known value: ``r_t`` (PCA), ``r_t - alpha r_b`` (cPCA)
    or ``r_t / max(r_b, floor)`` (dPCA; the background's largest eigenvalue,
    and so the floor, is the same in both blocks). The ``d`` extra columns put
    that value into the reduced problem, so its top ``d`` pairs ``y``, lifted
    as ``u = Q y``, are top-``d`` pairs of the full problem even when the
    complement value ranks among them, and the reduced background block
    needs the eigenvalue floor exactly when the full one does.
    ``eigencore._span_qr`` factors the samples.

    Returns the factorization when the fit reduces, else None. A fit
    reduces when it runs in scipy (``D >= eigencore.TOP_D_MIN_DIM``), every
    covariance carries its data and ``K <= D / 2``. Measured from D=16 to
    2000 on 2 cores, up to that cut-over the reduction beats forming the
    covariances and solving at order ``D`` for cPCA and dPCA, and PCA, the
    cheapest dense fit, breaks even near it; beyond it the QR costs more
    than it saves for PCA. Below ``TOP_D_MIN_DIM`` features a fit runs in
    numpy and is dense, so it never loads scipy.
    """
    dim = covs[0].dim
    if covs[-1].dim != dim:  # the background's, when there is one
        raise DimensionError(f"covariance dims disagree: {dim} vs {covs[-1].dim}")
    if not 1 <= d <= dim:
        raise DimensionError(f"requested {d} components from {dim} features")
    order = sum(c.sample_count for c in covs) + d
    if (dim < eigencore.TOP_D_MIN_DIM or 2 * order > dim
            or any(c.data is None for c in covs)):
        return None
    return eigencore._span_qr([(c.data, c.sample_count, c.ridge_applied) for c in covs], d)


def _reduce_to_data_span(covs: Sequence[CovarianceEstimate],
                         d: int) -> tuple[eigencore._Span | None, list[np.ndarray]]:
    """A fit's span and reduced matrices on wide data (:func:`_data_span`).

    Returns ``(None, full matrices)`` when the fit is not reduced.
    """
    span = _data_span(covs, d)
    if span is None:
        return None, [c.matrix for c in covs]
    return span, eigencore._span_grams(span)


def _top(span: eigencore._Span | None, mat: np.ndarray,
         d: int) -> tuple[np.ndarray, np.ndarray]:
    """The top-``d`` components and eigenvalues of a fit's symmetric matrix.

    ``mat`` is reduced to ``span`` when that is not None; it is then
    symmetric by construction, its top pairs are taken in scipy, the library
    of every reduced fit, and lifting them fixes their signs.
    """
    if span is None:
        eig = eigencore.sym_eigendecompose(mat, d)
        return eig.eigenvectors, eig.eigenvalues
    values, vectors = eigencore._top_pairs(mat, d, True)
    return eigencore._lift(span, vectors), values


def _model(method: str, covs: Sequence[CovarianceEstimate], components: np.ndarray,
           eigenvalues: np.ndarray, target_mean: np.ndarray | None,
           background_mean: np.ndarray | None = None, **fields) -> ComponentModel:
    """The model of a fit: its pairs, its means, and the ridges of its covariances.

    ``covs`` lists the target's covariance first; a missing ``target_mean``
    is zero.
    """
    return ComponentModel(
        method=method,
        components=components,
        eigenvalues=eigenvalues,
        target_mean=np.zeros(covs[0].dim) if target_mean is None else target_mean,
        background_mean=background_mean,
        ridge_target=covs[0].ridge_applied,
        ridge_background=covs[1].ridge_applied if len(covs) > 1 else None,
        **fields,
    )


def pca_fit(cxx: CovarianceEstimate, d: int,
            target_mean: np.ndarray | None = None) -> ComponentModel:
    """Fit ordinary PCA: the top-``d`` eigenpairs of the target covariance.

    On wide data the eigenproblem is solved in the span of the target samples
    (see the module docstring); the result is the same.
    """
    span, (a,) = _reduce_to_data_span([cxx], d)
    return _model("pca", [cxx], *_top(span, a, d), target_mean)


def _cpca_reduce(cxx: CovarianceEstimate, cyy: CovarianceEstimate, alphas: np.ndarray,
                 d: int) -> tuple[eigencore._Span | None, list[np.ndarray]]:
    """Validate a cPCA request and reduce its covariances, once for all ``alphas``."""
    bad = alphas[~(np.isfinite(alphas) & (alphas >= 0))]
    if bad.size:
        raise InvalidInputError(f"alpha must be finite and nonnegative, got {bad[0]}")
    return _reduce_to_data_span([cxx, cyy], d)


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
    span, (a, b) = _cpca_reduce(cxx, cyy, np.array([alpha], dtype=np.float64), d)
    return _model("cpca", [cxx, cyy], *_top(span, a - alpha * b, d), target_mean,
                  background_mean, alpha=alpha)


def _dpca(cxx: CovarianceEstimate, cyy: CovarianceEstimate, d: int, floor_rel: float,
          target_mean: np.ndarray | None, background_mean: np.ndarray | None,
          orthonormalize: bool = False) -> tuple[ComponentModel, bool]:
    """:func:`dpca_fit`'s model, and whether the eigenvalue floor was applied."""
    span = _data_span([cxx, cyy], d)
    if span is None:
        pairs = eigencore.generalized_eig(cxx.matrix, cyy.matrix, d, floor_rel)
    else:
        pairs = eigencore._span_pencil_eig(span, d, floor_rel)
    comps = eigencore._lift(span, pairs.eigenvectors)
    if orthonormalize and d > 1:
        q, r = np.linalg.qr(comps)
        q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)[None, :]  # keep column orientation
        comps = eigencore.apply_sign_convention(q)
    return _model("dpca", [cxx, cyy], comps, pairs.eigenvalues, target_mean, background_mean,
                  floor_rel=floor_rel), pairs.floor_applied


def _warn_floor(model: ComponentModel, floor_applied: bool) -> ComponentModel:
    """``model``, after a :class:`~dpca.errors.FloorAppliedWarning` if its floor was applied.

    Called straight from the public function, so the warning names that
    function's caller.
    """
    if floor_applied:
        warnings.warn(
            f"the background covariance has eigenvalues below floor_rel={model.floor_rel:g} "
            "times its largest (rank-deficient, e.g. fewer background samples than features); "
            "they were floored, so the floor, not the data, determines the dPCA result. "
            "Add a ridge to the background covariance (ridge= in sample_covariance, "
            "--ridge on the command line).", FloorAppliedWarning, stacklevel=3)
    return model


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
    return _warn_floor(*_dpca(cxx, cyy, d, floor_rel, target_mean, background_mean,
                              orthonormalize))


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
    values are returned in ascending order, with their components and
    eigenvalues, so no refit is needed. On wide data the covariances are
    reduced to the span of the samples once for the whole grid.
    """
    grid_arr = np.asarray(list(grid), dtype=np.float64)
    if grid_arr.ndim != 1 or grid_arr.size == 0:
        raise InvalidInputError("alpha grid must be a nonempty 1-D sequence")
    if not 1 <= n_select <= grid_arr.size:
        raise InvalidInputError(
            f"cannot select {n_select} alphas from a grid of {grid_arr.size}")

    span, (a, b) = _cpca_reduce(cxx, cyy, grid_arr, d)
    pairs = [_top(span, a - alpha * b, d) for alpha in grid_arr]
    n = grid_arr.size
    affinity = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            affinity[i, j] = affinity[j, i] = subspace_affinity(pairs[i][0], pairs[j][0])

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
    chosen.sort(key=lambda i: grid_arr[i])
    return AlphaSelection(grid=grid_arr, affinity=affinity, cluster_assignment=assignment,
                          selected=grid_arr[chosen],
                          components=tuple(pairs[i][0] for i in chosen),
                          eigenvalues=tuple(pairs[i][1] for i in chosen))


def fit(method: str, inputs: FitInputs, d: int, *, alpha: float | None = None,
        grid: Sequence[float] = (), select: int = 4, seed: int = 0,
        floor_rel: float = eigencore.DEFAULT_FLOOR_REL) -> list[ComponentModel]:
    """The models of one ``method`` fit to ``inputs``, with the inputs' means and scale.

    PCA fits the target alone, also when ``inputs`` hold a background; cPCA
    and dPCA need one. cPCA at ``alpha`` and every other fit give one model.
    cPCA without ``alpha`` gives one model per alpha that
    :func:`cpca_select_alphas` picks from ``grid`` (``select`` of them,
    clustered with ``seed``), built from the selection's own pairs, so
    nothing is refitted. ``floor_rel`` is dPCA's eigenvalue floor, and a
    :class:`~dpca.errors.FloorAppliedWarning` names this function's caller.

    Each model is the direct call's (:func:`pca_fit`, :func:`cpca_fit`,
    :func:`dpca_fit`) on ``inputs.covs`` and ``inputs.means``, with
    ``feature_scale`` set to ``inputs.scale``; so :func:`transform` of the
    raw target gives ``inputs.target.values @ model.components``.

    Raises
    ------
    InvalidInputError
        For an unknown method, or cPCA or dPCA on inputs without a
        background, before any solve; and as the fit itself raises, e.g. for
        cPCA with neither ``alpha`` nor a nonempty ``grid``.
    """
    if method not in METHODS:
        raise InvalidInputError(f"unknown method {method!r}, expected one of {METHODS}")
    if method != "pca" and len(inputs.covs) < 2:
        raise InvalidInputError(f"{method} needs background data")
    if method == "pca":
        models = [pca_fit(inputs.covs[0], d, target_mean=inputs.means[0])]
    elif method == "dpca":
        models = [_warn_floor(*_dpca(*inputs.covs, d, floor_rel, *inputs.means))]
    elif alpha is not None:
        models = [cpca_fit(*inputs.covs, alpha, d, *inputs.means)]
    else:
        selection = cpca_select_alphas(*inputs.covs, grid, d, select, seed=seed)
        models = [_model("cpca", inputs.covs, *pairs, *inputs.means, alpha=a) for a, *pairs
                  in zip(selection.selected, selection.components, selection.eigenvalues)]
    return [replace(model, feature_scale=inputs.scale) for model in models]


def transform(model: ComponentModel, raw: DataMatrix) -> EmbeddingResult:
    """Project raw data onto a fitted model: ``(raw / feature_scale - target_mean) @ components``.

    The division is left out when the model has no ``feature_scale``. The
    width is checked first, so data of another width is a
    :class:`~dpca.errors.DimensionError` also when it would broadcast
    against the scale.
    """
    if raw.n_features != model.n_features:
        raise DimensionError(
            f"data has {raw.n_features} features, model expects {model.n_features}")
    if model.feature_scale is None:
        centered = raw.values - model.target_mean
    else:  # subtracting in place holds one copy of the table, not two
        centered = raw.values / model.feature_scale
        centered -= model.target_mean
    coords = centered @ model.components
    return EmbeddingResult(coordinates=coords, model=model, labels=raw.labels)


def _times(cov: CovarianceEstimate, vectors: np.ndarray) -> np.ndarray:
    """``C u`` for each column ``u``; from the data, ``X^T (X u) / m + r u``."""
    if cov.data is None:
        return cov.matrix @ vectors
    x = cov.data
    out = x.T @ (x @ vectors) / cov.sample_count
    if cov.ridge_applied > 0:
        out += cov.ridge_applied * vectors
    return out


def _frobenius_norm(cov: CovarianceEstimate) -> float:
    """``||C||_F``; from the data, through the smaller Gram matrix of ``X``.

    ``||X^T X / m + r I||_F^2 = ||X^T X||_F^2 / m^2 + 2 r tr(X^T X) / m + r^2 D``,
    with ``||X^T X||_F = ||X X^T||_F`` and ``tr(X^T X) = ||X||_F^2``.
    """
    if cov.data is None:
        return float(np.linalg.norm(cov.matrix))
    x, m, r = cov.data, cov.sample_count, cov.ridge_applied
    gram = x @ x.T if x.shape[0] <= x.shape[1] else x.T @ x
    squared = (np.linalg.norm(gram) / m) ** 2 + 2.0 * r * np.linalg.norm(x) ** 2 / m \
        + r * r * x.shape[1]
    return float(np.sqrt(squared))


def pencil_residual(model: ComponentModel, cxx: CovarianceEstimate,
                    cyy: CovarianceEstimate) -> float:
    """Worst relative pencil residual of a dPCA model's components.

    Returns ``max_i ||C_target u_i - lam_i C_background u_i|| / (||C_target||_F
    + lam_i ||C_background||_F)``; small values certify the components solve
    the pencil they claim to. Covariances that carry their data are applied
    and measured from it, so no ``D x D`` matrix is formed.
    """
    if model.method != "dpca":
        raise InvalidInputError(f"pencil residual is defined for dpca models, got {model.method!r}")
    lams = model.eigenvalues
    resid = np.linalg.norm(_times(cxx, model.components) - _times(cyy, model.components) * lams,
                           axis=0)
    return float(np.max(resid / (_frobenius_norm(cxx) + lams * _frobenius_norm(cyy))))
