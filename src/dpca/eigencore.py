"""Dense symmetric eigendecomposition, whitening, and pencil solvers.

Everything downstream (the PCA variants, the synthetic-recovery experiments)
is built on four operations:

* :func:`sym_eigendecompose` validates a symmetric matrix, takes its top
  ``d`` pairs (all by default) and applies a deterministic sign convention.
* :func:`whitening_factor` builds the symmetric inverse square root of a PSD
  matrix, with a relative eigenvalue floor so rank-deficient inputs remain
  usable.
* :func:`generalized_eig` computes the top ``d`` pairs of the symmetric-definite
  pencil ``A u = lam B u``. It validates its inputs once and hands the
  pencil to exactly one of two leaf solvers. From order ``TOP_D_MIN_DIM``
  up, when ``B`` is comfortably positive definite (its Cholesky
  factorization succeeds and its estimated reciprocal condition number
  exceeds ``1e3 * floor_rel``), :func:`_cholesky_eig` solves the pencil
  through the Cholesky factor, computing only the top ``d`` pairs, all in
  the lower triangle. Otherwise :func:`_floored_whitening_eig` whitens ``B``
  with the floor of ``whitening_factor`` and takes the top ``d`` pairs of
  the whitened matrix; only this leaf can apply the floor.
* :func:`power_topd` computes the leading eigenpairs of a dense symmetric
  matrix by deflated power iteration. No fit calls it: it is the
  independent oracle that the acceptance criteria check the dense solve
  against, and the one source of ``NonConvergenceError``.

Eigenpairs have one type, :class:`EigenDecomposition`, which
``sym_eigendecompose`` and ``power_topd`` return. The pencil solvers return
its subclass :class:`GeneralizedEigenPairs`, which adds ``floor_applied``
and ``route``: each leaf stamps its route name on the pairs it returns,
``"floored_whitening"``, ``"cholesky"`` or ``"whitened_span"``. So a caller
learns from the result which leaf ran, and from ``dim`` the order it solved.

Fits on wide data solve at a smaller order in an orthonormal basis ``Q`` of
their samples: ``_span_qr`` factors the samples, ``_span_grams`` forms the
reduced matrices from the factor ``R``, and ``_lift`` maps the reduced
eigenvectors back as ``u = Q y``. A reduced dPCA pencil goes to
``_span_pencil_eig``, the second dispatcher, which also calls exactly one
leaf: with a background ridge and a comfortable background block, the third
leaf, :func:`_whitened_span_eig`, solves it from ``R`` itself, forming and
factoring only the background's own block; otherwise
:func:`_floored_whitening_eig` takes both reduced matrices.

Every symmetric eigensolve of the package, in these functions and all three
leaves, is one call of ``_top_pairs``: the top pairs, largest first, from
the lower triangle. It checks only that the matrix is finite and fixes no
signs: the public functions validate their inputs once, and
``sym_eigendecompose``, the leaves' ``_pencil_pairs`` and ``_lift`` fix the
signs of what they return.

This module is the only one that chooses between numpy's and scipy's BLAS
and LAPACK, and it chooses once per fit, by the fit's feature count ``D``
(``TOP_D_MIN_DIM``): from 256 features up every step of the fit runs in
scipy, and only such fits reduce to the span of their samples; below it
every step runs in numpy, on the dense matrices. A dense covariance formed
from its data (``_data_covariance``, which ``CovarianceEstimate.matrix``
calls) is one of those steps. scipy is imported inside
the functions that call it: importing ``scipy.linalg`` takes about 0.3 s
and 30 MB, which a fit on fewer features never needs.

All functions are pure; returned arrays are never aliased to the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionError,
    InvalidInputError,
    NonConvergenceError,
    RankZeroError,
    SymmetryError,
    check_float,
)

SYMMETRY_RTOL = 1e-12
_PANEL = 64  # columns compared at once by check_symmetric; a panel's transpose stays in cache
DEFAULT_FLOOR_REL = 1e-10
# The Cholesky route needs rcond(B) above this multiple of floor_rel. The
# LAPACK condition estimate can undershoot ||B^{-1}||_1; the margin covers
# that, so the floor can never apply on the Cholesky route.
CHOLESKY_RCOND_MARGIN = 1e3
# Smallest feature count whose fits run in scipy: from it up, every step of a
# fit (a dense covariance formed from its data, the QR, Gram blocks and lift
# of a span reduction, each eigensolve, each product of a whitening) runs in
# scipy, and only these fits reduce to the span of their samples; below it
# every step runs in numpy. The usual
# numpy and scipy wheels each bundle their own OpenBLAS, and the first
# threaded scipy call after numpy BLAS work can wait for numpy's idle pool
# to stop spinning: up to 0.1 s on a 2-core machine. So a fit never hands
# work from one pool to the other. Below this count numpy's full
# eigensolves cost less than scipy's import and that wait.
TOP_D_MIN_DIM = 256


@dataclass(frozen=True)
class EigenDecomposition:
    """Leading eigenpairs of a symmetric matrix, all of them or the top ``d``.

    ``eigenvalues`` are sorted descending; ``eigenvectors`` holds the matching
    unit-norm eigenvectors as columns, sign-fixed so the largest-magnitude
    entry of each column is positive. ``dim`` is the order of the matrix,
    also when only the top ``d`` pairs were computed.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]


@dataclass(frozen=True)
class WhiteningFactor:
    """Symmetric factor ``W`` with ``W^T C W ~= I`` for a PSD matrix ``C``.

    When ``C`` has eigenvalues below ``floor_rel`` times its largest one they
    are floored before inversion; ``floor_applied`` records that this
    happened, in which case the whitening identity holds for the floored
    matrix rather than ``C`` itself.
    """

    factor: np.ndarray
    floor_applied: bool
    floor_value: float


@dataclass(frozen=True)
class GeneralizedEigenPairs(EigenDecomposition):
    """Top eigenpairs of a symmetric-definite pencil ``(A, B)``.

    An :class:`EigenDecomposition` whose ``eigenvalues`` are also
    nonnegative and whose ``eigenvectors`` columns have unit Euclidean norm
    and satisfy ``A u ~= lam B u``. ``floor_applied`` is True when the
    whitening floor raised eigenvalues of ``B``, in which case the floor,
    not ``B``, determines the result. ``route`` names the leaf solver that
    computed the pairs: ``"floored_whitening"``, ``"cholesky"`` or
    ``"whitened_span"`` (None for pairs built by hand).
    """

    floor_applied: bool = False
    route: str | None = None

    @property
    def count(self) -> int:
        return self.eigenvalues.shape[0]


def _as_square_matrix(mat: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(mat, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise DimensionError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def check_symmetric(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate finiteness and symmetry; returns the matrix as float64.

    Symmetry tolerance is elementwise: ``|A_ij - A_ji| <= 1e-12 * max(1, |A_ij|)``.
    An exactly symmetric matrix passes it, so that case skips the tolerance
    arithmetic; it is found by comparing each panel of ``_PANEL`` rows, from
    the diagonal on, with its column panel, up to the first mismatch.
    """
    arr = _as_square_matrix(mat, name)
    if all(np.array_equal(arr[j:j + _PANEL, j:], arr[j:, j:j + _PANEL].T)
           for j in range(0, arr.shape[0], _PANEL)):
        return arr
    gap = np.abs(arr - arr.T)
    limit = SYMMETRY_RTOL * np.maximum(1.0, np.abs(arr))
    if not np.all(gap <= limit):
        worst = float(np.max(gap - limit))
        raise SymmetryError(f"{name} is not symmetric within tolerance (excess {worst:.3e})")
    return arr


def apply_sign_convention(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is positive.

    Ties pick the lowest row index. Returns a new array.
    """
    out = np.array(vectors, dtype=np.float64, copy=True)
    lead = np.argmax(np.abs(out), axis=0)
    out[:, out[lead, np.arange(out.shape[1])] < 0] *= -1
    return out


def sym_eigendecompose(mat: np.ndarray, d: int | None = None) -> EigenDecomposition:
    """Eigendecompose a symmetric matrix with deterministic ordering.

    Parameters
    ----------
    mat : (D, D) array_like
        Symmetric, finite matrix.
    d : int, optional
        Number of leading pairs (by algebraic eigenvalue), ``1 <= d <= D``;
        the default is all ``D``. With ``d < D`` and ``D >= TOP_D_MIN_DIM``
        only the top ``d`` pairs are computed (LAPACK ``syevr``).

    Returns
    -------
    EigenDecomposition
        Eigenvalues descending, orthonormal eigenvectors as columns
        satisfying the sign convention.

    Raises
    ------
    SymmetryError
        If ``mat`` deviates from symmetry beyond tolerance.
    InvalidInputError
        If ``mat`` contains NaN or Inf.
    DimensionError
        If ``d`` is out of range.
    """
    arr = check_symmetric(mat, "matrix")
    dim = arr.shape[0]
    count = dim if d is None else d
    if not 1 <= count <= dim:
        raise DimensionError(f"requested {d} pairs from a dimension-{dim} matrix")
    vals, vecs = _top_pairs(arr, count, dim >= TOP_D_MIN_DIM)
    return EigenDecomposition(eigenvalues=vals, eigenvectors=apply_sign_convention(vecs))


def whitening_factor(cov: np.ndarray, floor_rel: float = DEFAULT_FLOOR_REL) -> WhiteningFactor:
    """Symmetric inverse square root of a PSD matrix.

    Builds ``W = U diag(max(s_i, floor_rel * s_max))^{-1/2} U^T`` from the
    eigendecomposition ``cov = U diag(s) U^T``. The symmetric root makes the
    result basis-independent and transpose-unambiguous.

    Parameters
    ----------
    cov : (D, D) array_like
        Symmetric PSD matrix.
    floor_rel : float
        Relative eigenvalue floor; eigenvalues below ``floor_rel * s_max``
        (including small negative rounding noise) are raised to that floor.

    Raises
    ------
    RankZeroError
        If the largest eigenvalue is not positive (zero matrix).
    """
    floor_rel = check_float("floor_rel", floor_rel)
    arr = check_symmetric(cov, "matrix")
    return _whitening(arr, floor_rel, arr.shape[0] >= TOP_D_MIN_DIM)


def _whitening(arr: np.ndarray, floor_rel: float, in_scipy: bool) -> WhiteningFactor:
    """:func:`whitening_factor` of a validated matrix, in the fit's library."""
    # W does not depend on the eigenvectors' signs, so none are fixed
    vals, vecs = _top_pairs(arr, arr.shape[0], in_scipy)
    s_max = float(vals[0])
    if s_max <= 0.0:
        raise RankZeroError("covariance has no positive eigenvalue; cannot whiten")
    floor_value = floor_rel * s_max
    floor_applied = bool(np.any(vals < floor_value))
    floored = np.maximum(vals, floor_value)
    if floor_value == 0.0 and np.any(floored <= 0.0):
        # floor_rel == 0 with an exactly singular matrix cannot be inverted
        raise RankZeroError("covariance is singular and the eigenvalue floor is zero")
    factor = _product(in_scipy, vecs * (1.0 / np.sqrt(floored)), vecs.T)
    factor = 0.5 * (factor + factor.T)
    return WhiteningFactor(factor=factor, floor_applied=floor_applied, floor_value=floor_value)


def generalized_eig(mat_a: np.ndarray, mat_b: np.ndarray, d: int,
                    floor_rel: float = DEFAULT_FLOOR_REL) -> GeneralizedEigenPairs:
    """Top-``d`` eigenpairs of the symmetric-definite pencil ``(A, B)``.

    Validates the inputs once and calls exactly one leaf solver. When
    ``D >= TOP_D_MIN_DIM``, ``B`` has a Cholesky factor ``B = L L^T`` and its
    estimated reciprocal condition number (LAPACK ``pocon``, 1-norm) exceeds
    ``1e3 * floor_rel``, the leaf is :func:`_cholesky_eig`; since
    ``cond_2(B) <= cond_1(B)``, the floor cannot apply there. Otherwise it is
    :func:`_floored_whitening_eig`, which runs in scipy from that order up
    and in numpy below it. Either way each eigenvector ``u`` has unit
    Euclidean norm. For nonsingular ``B`` the eigenvalues equal the
    Rayleigh ratios ``u^T A u / u^T B u``; when the floor applied they are
    those of the whitened matrix and ``floor_applied`` is set. ``route``
    names the leaf, ``"cholesky"`` or ``"floored_whitening"``. (The third
    leaf, :func:`_whitened_span_eig`, serves reduced dPCA fits only; see
    :func:`_span_pencil_eig`.)

    Parameters
    ----------
    mat_a, mat_b : (D, D) array_like
        Symmetric PSD matrices defining the pencil.
    d : int
        Number of leading pairs to return, ``1 <= d <= D``.
    floor_rel : float
        Eigenvalue floor of the whitening (see :func:`whitening_factor`).

    Raises
    ------
    DimensionError
        If ``d`` is out of range or the matrices disagree in shape.
    RankZeroError
        If ``mat_b`` is identically zero.
    """
    a = check_symmetric(mat_a, "pencil matrix A")
    b = check_symmetric(mat_b, "pencil matrix B")
    if a.shape != b.shape:
        raise DimensionError(f"pencil matrices disagree in shape: {a.shape} vs {b.shape}")
    dim = a.shape[0]
    if not 1 <= d <= dim:
        raise DimensionError(f"requested {d} pairs from a dimension-{dim} pencil")
    floor_rel = check_float("floor_rel", floor_rel)
    in_scipy = dim >= TOP_D_MIN_DIM
    lower = _comfortable_cholesky(b, floor_rel) if in_scipy else None
    if lower is None:
        return _floored_whitening_eig(a, b, d, floor_rel, in_scipy)
    return _cholesky_eig(a, lower, d)


def _floored_whitening_eig(a: np.ndarray, b: np.ndarray, d: int, floor_rel: float,
                           in_scipy: bool) -> GeneralizedEigenPairs:
    """Leaf solver: top-``d`` pairs of ``(A, B)`` through the floored whitening of ``B``.

    With ``W = whitening_factor(B, floor_rel)``, the top ``d`` pairs ``v``
    of the symmetric ``W^T A W`` map back as ``u = W v``. The only leaf that
    can apply the floor. ``a``, ``b`` and ``floor_rel`` are validated by the
    caller, and every step runs in the library the caller chose.
    """
    white = _whitening(b, floor_rel, in_scipy)
    transformed = _product(in_scipy, white.factor.T, a, white.factor)
    transformed = 0.5 * (transformed + transformed.T)  # kill rounding asymmetry
    values, vectors = _top_pairs(transformed, d, in_scipy)
    return _pencil_pairs(values, _product(in_scipy, white.factor, vectors),
                         white.floor_applied, "floored_whitening")


def _product(in_scipy: bool, *factors: np.ndarray) -> np.ndarray:
    """The matrix product of ``factors``, left to right, by numpy or by scipy's ``gemm``."""
    if not in_scipy:
        return reduce(np.matmul, factors)
    from scipy.linalg import blas

    return reduce(lambda left, right: blas.dgemm(1.0, left, right), factors)


def _cholesky_eig(a: np.ndarray, lower: np.ndarray, d: int) -> GeneralizedEigenPairs:
    """Leaf solver: top-``d`` pairs of ``(A, L L^T)`` from ``B``'s lower Cholesky factor ``L``.

    The pencil becomes the symmetric ``L^-1 A L^-T`` (LAPACK ``sygst``),
    whose top ``d`` pairs ``y`` map back as ``u = L^-T y``; the reduction
    and the solve work in the lower triangle.
    """
    import scipy.linalg
    from scipy.linalg import lapack

    reduced, _ = lapack.dsygst(a, lower, lower=1)  # result in the lower triangle
    values, vectors = _top_pairs(reduced, d, True)
    vectors = scipy.linalg.solve_triangular(lower, vectors, lower=True, trans="T",
                                            check_finite=False)
    return _pencil_pairs(values, vectors, False, "cholesky")


def _pencil_pairs(values: np.ndarray, vectors: np.ndarray, floor_applied: bool,
                  route: str) -> GeneralizedEigenPairs:
    """A leaf's pairs, descending, as returned: values clipped at 0, unit columns, signs fixed."""
    return GeneralizedEigenPairs(
        eigenvalues=np.maximum(values, 0.0),
        eigenvectors=apply_sign_convention(vectors / np.linalg.norm(vectors, axis=0)),
        floor_applied=floor_applied, route=route)


def _top_pairs(arr: np.ndarray, count: int, in_scipy: bool) -> tuple[np.ndarray, np.ndarray]:
    """Top ``count`` eigenpairs of a symmetric matrix, largest first: the one eigensolve.

    Every LAPACK eigensolve in the package comes through here, in the
    library its fit runs in (``in_scipy``, see ``TOP_D_MIN_DIM``). Only the
    lower triangle is read, and nothing is sign-fixed or checked for
    symmetry: the callers do that where it matters. Finiteness is checked,
    as a leaf's whitened or reduced matrix can overflow where ``A`` and
    ``B`` do not, and LAPACK would then return NaN pairs or fail. In scipy,
    with ``count`` below the order, only those pairs are computed, by LAPACK
    ``syevr``; otherwise the full solve (``syevd``, in numpy or in scipy)
    is sliced. With 2 OpenBLAS
    threads a top-2 ``syevr`` takes 12.8, 36.6 and 67.1 ms on the lower
    triangle against 14.6, 44.4 and 77.8 ms on the upper one at orders 500,
    802 and 1000 (with 1 thread they are within 2%; 2-vCPU Xeon VM, best of
    two medians of 9). ``syevr`` can return fewer pairs than requested, even
    none, when the wanted eigenvalues sit in a tight cluster (a rank-2
    covariance plus a ridge, top 5 of order 300); the full solve then
    stands in. The eigenvectors keep ``eigh``'s column-major layout.
    """
    if not np.isfinite(arr).all():
        raise InvalidInputError("the matrix to eigensolve overflows; rescale the data")
    dim = arr.shape[0]
    if not in_scipy:
        vals, vecs = np.linalg.eigh(arr, UPLO="L")
    else:
        import scipy.linalg

        vals = None
        if count < dim:
            vals, vecs = scipy.linalg.eigh(arr, lower=True, check_finite=False,
                                           subset_by_index=[dim - count, dim - 1])
        if vals is None or vals.shape[0] < count:
            vals, vecs = scipy.linalg.eigh(arr, lower=True, check_finite=False, driver="evd")
    top = np.arange(vals.shape[0] - 1, vals.shape[0] - count - 1, -1)  # eigh is ascending
    return vals[top], vecs[:, top]


def _comfortable_cholesky(b: np.ndarray, floor_rel: float,
                          ridge: float | None = None) -> np.ndarray | None:
    """Lower Cholesky factor ``L`` of ``b`` if rcond clears the floor's margin, else None.

    With ``ridge``, ``b`` is the leading block ``B11`` of the matrix
    ``blockdiag(B11, ridge I)`` and the margin is that matrix's: its 1-norms
    combine as ``max(||B11||, r)`` and ``max(||B11^-1||, 1 / r)``, the latter
    from ``B11``'s ``pocon`` estimate. Returns None when the factorization
    fails or the margin is not cleared. Only the lower triangle of the
    returned array holds the factor.
    """
    import scipy.linalg
    from scipy.linalg import lapack

    try:
        lower, _ = scipy.linalg.cho_factor(b, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    norm = np.linalg.norm(b, 1)
    rcond, info = lapack.dpocon(lower, norm, uplo="L")
    if ridge is not None:
        rcond = min(rcond * norm, ridge) / max(norm, ridge)
    return lower if info == 0 and rcond > CHOLESKY_RCOND_MARGIN * floor_rel else None


class _Span(NamedTuple):
    """The QR factorization of a fit's stacked samples, from :func:`_span_qr`.

    ``Q`` (``D x K``) is kept as LAPACK ``geqrt`` leaves it, in compact-WY
    form ``Q = I - V T V^T``: ``reflectors`` is the factored stack, with the
    Householder vectors ``V`` below its diagonal, and ``t`` holds the
    upper-triangular block factors ``T``, one per column block.
    ``triangle`` is the stack's leading ``K x K`` block and holds ``R`` in
    its upper triangle (below it lie reflectors); ``parts`` is the
    ``(X_i, m_i, r_i)`` of each covariance, in the order the fit gave them.
    """

    reflectors: np.ndarray
    t: np.ndarray
    triangle: np.ndarray
    parts: tuple[tuple[np.ndarray, int, float], ...]


def _span_qr(parts: Sequence[tuple[np.ndarray, int, float]], d: int) -> _Span:
    """An orthonormal basis ``Q`` of the samples of the covariances in ``parts``.

    ``parts`` holds one ``(X_i, m_i, r_i)`` per covariance
    ``X_i^T X_i / m_i + r_i I``. ``Q`` (``D x K``, ``K`` the total row count
    plus ``d``) is the Householder QR basis of ``[X_p^T, ..., X_1^T, 0]``,
    the last part's rows first: its first columns span every row of every
    ``X_i`` and its last ``d`` are orthonormal to them. With
    ``R = Q^T [X_p^T, ...]`` upper triangular, each reduced matrix
    ``Q^T (X_i^T X_i / m_i + r_i I) Q`` is ``R_i R_i^T / m_i + r_i I``, and
    ``R_i`` (``R``'s columns of part ``i``) is zero below the row where its
    part ends in the stack. So a pencil's background, the last part,
    reduces to ``blockdiag(B11, r_b I)`` with ``B11`` of the order of its
    row count. The QR is LAPACK's recursive compact-WY ``geqrt``, in place
    on the stack, and ``Q`` is kept as its reflectors and never formed.
    """
    from scipy.linalg import lapack

    parts = tuple(parts)
    # stacking rows and transposing gives the Fortran-ordered D x K layout LAPACK works in
    stacked = np.concatenate([x for x, _, _ in parts[::-1]]
                             + [np.zeros((d, parts[0][0].shape[1]))]).T
    order = stacked.shape[1]
    factored, t, _ = lapack.dgeqrt(min(64, order), stacked, overwrite_a=1)
    return _Span(factored, t, factored[:order, :order], parts)


def _span_grams(span: _Span) -> list[np.ndarray]:
    """Each covariance of ``span`` reduced to it, ``R_i R_i^T / m_i + r_i I``, in order.

    Each is formed from the part's nonzero rows of ``R`` only
    (:func:`_part_gram`) and is ``r_i I`` beyond them.
    """
    order = span.triangle.shape[0]
    blocks, stop = [], 0
    for x, count, ridge in span.parts[::-1]:
        start, stop = stop, stop + x.shape[0]
        block = np.zeros((order, order), order="F")
        block[:stop, :stop] = _part_gram(span.triangle, start, stop, count, ridge)
        tail = np.arange(stop, order)
        block[tail, tail] = ridge
        blocks.append(block)
    return blocks[::-1]


def _part_gram(triangle: np.ndarray, start: int, stop: int, count: int,
               ridge: float) -> np.ndarray:
    """``R_i R_i^T / m_i + r_i I`` over the nonzero rows ``:stop`` of ``R_i = R[:, start:stop]``.

    The first part's rows are triangular, which ``lauum`` reads as such; a
    later part's are a dense block over a triangle, whose lower side holds
    reflectors and is cleared before its ``syrk``. Either product is
    mirrored in place.
    """
    from scipy.linalg import blas, lapack

    if start == 0:
        gram, _ = lapack.dlauum(triangle[:stop, :stop])
    else:
        part = triangle[:stop, start:stop].copy(order="F")
        part[start:] = np.triu(part[start:])
        gram = blas.dsyrk(1.0, part)
    gram = _mirror_upper(gram) * (1.0 / count)
    if ridge > 0:
        gram[np.diag_indices(stop)] += ridge
    return gram


def _span_pencil_eig(span: _Span, d: int, floor_rel: float) -> GeneralizedEigenPairs:
    """Top-``d`` pairs of the dPCA pencil ``span`` reduces, by exactly one leaf solver.

    ``span.parts`` is the target's and then the background's. With a
    background ridge ``r_b > 0``, only the background's own block
    ``B11 = R_bb R_bb^T / m_b + r_b I`` is formed and factored
    (:func:`_comfortable_cholesky`, with the margin of the whole
    ``blockdiag(B11, r_b I)``), and :func:`_whitened_span_eig` solves the
    pencil. Otherwise, or when the margin is not cleared, both reduced
    matrices are formed from the same ``R`` and :func:`_floored_whitening_eig`
    solves them. The whole reduced background is never factored: without a
    ridge it is singular, and with one its 1-norm condition is the one just
    estimated from its two blocks. Every step runs in scipy. ``floor_rel``
    was checked by the fit.
    """
    background, count, ridge = span.parts[1]
    lower = None
    if ridge > 0:
        block = _part_gram(span.triangle, 0, background.shape[0], count, ridge)
        lower = _comfortable_cholesky(block, floor_rel, ridge)
    if lower is None:
        return _floored_whitening_eig(*_span_grams(span), d, floor_rel, True)
    return _whitened_span_eig(span.triangle, lower, span.parts, d)


def _whitened_span_eig(triangle: np.ndarray, lower: np.ndarray,
                       parts: tuple[tuple[np.ndarray, int, float], ...],
                       d: int) -> GeneralizedEigenPairs:
    """Leaf solver: top-``d`` pairs of a reduced dPCA pencil, whitened straight from ``R``.

    With ``B11 = L1 L1^T`` (``lower``) the reduced background is ``L L^T``,
    ``L = blockdiag(L1, sqrt(r_b) I)``, and the pencil becomes the symmetric
    ``C = L^-1 A L^-T = V V^T + r_t blockdiag(L1^-1 L1^-T, I / r_b)`` with
    ``V = L^-1 R_t / sqrt(m_t)``, ``R_t`` being ``R``'s target columns; the
    reduced target ``A`` is never formed. ``C``'s lower triangle takes one
    ``trsm`` and one ``syrk`` of ``V``, and with ``r_t > 0`` one ``trtri``
    and one more ``syrk``. Its top ``d`` pairs ``y`` map back as
    ``u = L^-T y``.
    """
    import scipy.linalg
    from scipy.linalg import blas, lapack

    (target, count_t, ridge_t), (background, _, ridge_b) = parts
    rows_b, order = background.shape[0], triangle.shape[0]
    stop = rows_b + target.shape[0]
    # V's rows below R_t's last nonzero row are zero; they keep C at order K
    v = np.zeros((order, stop - rows_b), order="F")
    v[:rows_b] = blas.dtrsm(1.0 / np.sqrt(count_t), lower, triangle[:rows_b, rows_b:stop],
                            lower=1)
    v[rows_b:stop] = np.triu(triangle[rows_b:stop, rows_b:stop]) / np.sqrt(count_t * ridge_b)
    whitened = blas.dsyrk(1.0, v, lower=1)
    if ridge_t > 0:
        # the whitened ridge is r_t L1^-1 L1^-T = r_t (L1^T L1)^-1, not r_t B11^-1
        inverse, _ = lapack.dtrtri(lower, lower=1)
        whitened[:rows_b, :rows_b] += blas.dsyrk(ridge_t, np.tril(inverse), lower=1)
        tail = np.arange(rows_b, order)
        whitened[tail, tail] += ridge_t / ridge_b
    values, vectors = _top_pairs(whitened, d, True)
    head = scipy.linalg.solve_triangular(lower, vectors[:rows_b], lower=True, trans="T",
                                         check_finite=False)
    return _pencil_pairs(values, np.vstack([head, vectors[rows_b:] / np.sqrt(ridge_b)]), False,
                         "whitened_span")


def _data_covariance(x: np.ndarray, count: int, ridge: float) -> np.ndarray:
    """``X^T X / m + r I`` of centered data ``x`` (``count`` rows ``m``), in the fit's library.

    Below ``TOP_D_MIN_DIM`` features numpy forms ``X^T X / m`` and symmetrizes
    it. From there up scipy's ``dsyrk`` forms its upper triangle from the
    Fortran-ordered ``x.T``, so ``x`` is not copied, and it is mirrored; the
    fit that reads it then never waits on numpy's BLAS pool.
    """
    if x.shape[1] < TOP_D_MIN_DIM:
        cov = (x.T @ x) / count
        cov = 0.5 * (cov + cov.T)
        if ridge > 0:
            cov = cov + ridge * np.eye(x.shape[1])
        return cov
    from scipy.linalg import blas

    cov = _mirror_upper(blas.dsyrk(1.0, x.T))
    cov /= count
    if ridge > 0:
        cov[np.diag_indices(x.shape[1])] += ridge
    return cov


def _mirror_upper(block: np.ndarray) -> np.ndarray:
    """Copy ``block``'s upper triangle onto its lower one, in place; exact.

    The copy goes one 64-column panel at a time: a whole transposed read
    strides through memory, and at order 800 took 5.2 ms against 1.7 ms
    (2-vCPU Xeon VM).
    """
    order = block.shape[0]
    for start in range(0, order, 64):
        stop = min(start + 64, order)
        block[stop:, start:stop] = block[start:stop, stop:].T
        tile = block[start:stop, start:stop]
        tile[...] = np.triu(tile) + np.triu(tile, 1).T
    return block


def _lift(span: _Span | None, vectors: np.ndarray) -> np.ndarray:
    """Map eigenvectors of a problem reduced to ``span`` back to feature space, ``u = Q y``.

    ``Q`` is applied from its compact-WY reflectors by LAPACK ``gemqrt``;
    the columns then follow the sign convention, so the reduced pairs need
    no signs fixed before. Unreduced fits (``span`` None) pass through
    unchanged.
    """
    if span is None:
        return vectors
    from scipy.linalg import lapack

    # Q y is the full D x D orthogonal factor applied to y padded with zeros
    padded = np.zeros((span.reflectors.shape[0], vectors.shape[1]), order="F")
    padded[:vectors.shape[0]] = vectors
    lifted, _ = lapack.dgemqrt(span.reflectors, span.t, padded, "L", "N", overwrite_c=1)
    return apply_sign_convention(lifted)


def power_topd(mat: np.ndarray, d: int, tol: float = 1e-10, max_iter: int = 5000,
               seed: int = 0) -> EigenDecomposition:
    """Leading eigenpairs of a symmetric PSD matrix by deflated power iteration.

    Each pair iterates ``v <- Av / ||Av||`` until successive Rayleigh
    quotients differ by at most ``tol``, then restarts from a fresh seeded
    vector projected off the pairs found so far, ``U``. The deflation is a
    projection of each product, ``Av - U (U^T Av)``, so every iterate stays
    orthogonal to ``U`` and the matrix is never copied or modified. When
    that product is at most ``D * eps * ||A||_F``, rounding noise, ``v``
    lies in the null space and is returned with eigenvalue 0. No floor is
    applied.

    Parameters
    ----------
    mat : (D, D) array_like
        Symmetric, finite matrix.
    d : int
        Number of pairs, ``1 <= d <= D``.
    tol : float
        Convergence threshold on successive Rayleigh quotients; must be > 0.
    max_iter : int
        Iteration budget per pair; must be >= 1.
    seed : int
        Seed for the starting vectors.

    Raises
    ------
    NonConvergenceError
        If some pair fails to converge within ``max_iter``; carries the best
        iterate and its residual.
    """
    if not tol > 0:
        raise InvalidInputError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be >= 1, got {max_iter}")
    matrix = check_symmetric(mat, "matrix")
    dim = matrix.shape[0]
    if not 1 <= d <= dim:
        raise DimensionError(f"requested {d} pairs from a dimension-{dim} matrix")

    start = np.random.default_rng(seed).standard_normal((dim, d))
    values = np.zeros(d)
    vectors = np.zeros((dim, d))
    null = dim * np.finfo(np.float64).eps * np.linalg.norm(matrix)

    def off_found(w, k):  # w less its part in the span of the first k pairs
        return w - vectors[:, :k] @ (vectors[:, :k].T @ w)

    for j in range(d):
        v = off_found(start[:, j], j)
        v /= np.linalg.norm(v)
        q = 0.0
        q_prev = np.inf
        it = 0
        while it < max_iter:
            it += 1
            w = off_found(matrix @ v, j)
            q = float(v @ w)
            if abs(q - q_prev) <= tol:
                break
            norm_w = float(np.linalg.norm(w))
            if norm_w <= null:  # v lies in the null space of the deflated matrix
                q = 0.0
                break
            v = w / norm_w
            q_prev = q
        else:
            resid = float(np.linalg.norm(off_found(matrix @ v, j) - q * v))
            raise NonConvergenceError(
                f"power iteration for pair {j} did not converge in {max_iter} iterations",
                best_eigenvalue=q, best_vector=v.copy(), residual=resid, iterations=it)
        values[j] = q
        vectors[:, j] = v
    order = np.argsort(-values, kind="stable")
    return EigenDecomposition(eigenvalues=np.maximum(values[order], 0.0),
                              eigenvectors=apply_sign_convention(vectors[:, order]))
