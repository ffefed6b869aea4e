"""Dense symmetric eigendecomposition, whitening, and pencil solvers.

Everything downstream (the PCA variants, the synthetic-recovery experiments)
is built on four operations:

* :func:`sym_eigendecompose` wraps LAPACK's symmetric eigensolver with a
  descending order and a deterministic sign convention; given ``d`` it
  returns the top ``d`` pairs, and from order ``TOP_D_MIN_DIM`` (256) up it
  computes only those.
* :func:`whitening_factor` builds the symmetric inverse square root of a PSD
  matrix, with a relative eigenvalue floor so rank-deficient inputs remain
  usable.
* :func:`generalized_eig` computes the top ``d`` pairs of the symmetric-definite
  pencil ``A u = lam B u``. From order ``TOP_D_MIN_DIM`` up, when ``B`` is
  comfortably positive definite (its Cholesky factorization succeeds and its
  estimated reciprocal condition number exceeds ``1e3 * floor_rel``), it
  solves the pencil directly through the Cholesky factor, computing only the
  top ``d`` pairs; a ``B`` that is ``r I`` beyond a leading block has only
  that block factored. Otherwise it whitens with the floored
  ``whitening_factor(B)`` and takes the top ``d`` pairs of the whitened
  matrix; only this route can apply the floor.
* :func:`power_topd` computes leading eigenpairs by deflated power iteration,
  the cheap route for when a dense solve is overkill.

Fits on wide data solve at a smaller order in an orthonormal basis ``Q`` of
their samples: ``_reduce_to_span`` factors the samples and forms the reduced
matrices, and ``_lift`` maps the reduced eigenvectors back as ``u = Q y``.
This module is the only one that chooses between numpy's and scipy's BLAS
and LAPACK; the choice, by matrix order, is ``TOP_D_MIN_DIM``'s. scipy is
imported inside the functions that call it: importing ``scipy.linalg`` takes
about 0.3 s and 30 MB, which problems below that order never need.

All functions are pure; returned arrays are never aliased to the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    DimensionError,
    InvalidInputError,
    NonConvergenceError,
    RankZeroError,
    SymmetryError,
)

SYMMETRY_RTOL = 1e-12
DEFAULT_FLOOR_REL = 1e-10
# The Cholesky route needs rcond(B) above this multiple of floor_rel. The
# LAPACK condition estimate can undershoot ||B^{-1}||_1; the margin covers
# that, so the floor can never apply on the Cholesky route.
CHOLESKY_RCOND_MARGIN = 1e3
# Smallest matrix order whose linear algebra runs in scipy: the top-d LAPACK
# routes of the solvers, and the QR, Gram blocks and lift of a span
# reduction; below it all of them run in numpy. The usual numpy and scipy
# wheels each bundle their own OpenBLAS, and the first threaded scipy call
# after numpy BLAS work (such as forming a covariance) can wait for numpy's
# idle pool to stop spinning: up to 0.1 s on a 2-core machine. Below this
# order the full numpy eigensolves cost less than that wait. A reduced fit
# solves at the order it reduced to, so its reduction, solve and lift run in
# one library and never hand work from one pool to the other.
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

    @property
    def dim(self) -> int:
        return self.factor.shape[0]


@dataclass(frozen=True)
class GeneralizedEigenPairs:
    """Top eigenpairs of a symmetric-definite pencil ``(A, B)``.

    ``eigenvalues`` are descending and nonnegative; ``eigenvectors`` columns
    have unit Euclidean norm and satisfy ``A u ~= lam B u``. Columns follow
    the same sign convention as :class:`EigenDecomposition`.
    ``floor_applied`` is True when the whitening floor raised eigenvalues of
    ``B``, in which case the floor, not ``B``, determines the result.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    floor_applied: bool = False

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

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
    arithmetic.
    """
    arr = _as_square_matrix(mat, name)
    if np.array_equal(arr, arr.T):
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
    for j in range(out.shape[1]):
        col = out[:, j]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            out[:, j] = -col
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
    if count < dim and dim >= TOP_D_MIN_DIM:
        vals, vecs = _top_subset_eigh(arr, count)
    else:
        vals, vecs = np.linalg.eigh(arr)
        vals, vecs = vals[dim - count:], vecs[:, dim - count:]
    order = np.arange(vals.shape[0])[::-1]  # eigh is ascending; reverse it
    vals = np.ascontiguousarray(vals[order])
    vecs = apply_sign_convention(vecs[:, order])
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)


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
    if not 0 <= floor_rel < np.inf:
        raise InvalidInputError(f"floor_rel must be finite and nonnegative, got {floor_rel}")
    eig = sym_eigendecompose(cov)
    s_max = float(eig.eigenvalues[0])
    if s_max <= 0.0:
        raise RankZeroError("covariance has no positive eigenvalue; cannot whiten")
    floor_value = floor_rel * s_max
    floor_applied = bool(np.any(eig.eigenvalues < floor_value))
    floored = np.maximum(eig.eigenvalues, floor_value)
    if floor_value == 0.0 and np.any(floored <= 0.0):
        # floor_rel == 0 with an exactly singular matrix cannot be inverted
        raise RankZeroError("covariance is singular and the eigenvalue floor is zero")
    inv_root = eig.eigenvectors * (1.0 / np.sqrt(floored))
    factor = inv_root @ eig.eigenvectors.T
    factor = 0.5 * (factor + factor.T)
    return WhiteningFactor(factor=factor, floor_applied=floor_applied, floor_value=floor_value)


def generalized_eig(mat_a: np.ndarray, mat_b: np.ndarray, d: int,
                    floor_rel: float = DEFAULT_FLOOR_REL) -> GeneralizedEigenPairs:
    """Top-``d`` eigenpairs of the symmetric-definite pencil ``(A, B)``.

    When ``D >= TOP_D_MIN_DIM``, ``B`` has a Cholesky factor ``B = U^T U``
    and its estimated reciprocal condition number (LAPACK ``pocon``, 1-norm)
    exceeds ``1e3 * floor_rel``, the pencil is reduced to the symmetric matrix
    ``U^-T A U^-1`` (LAPACK ``sygst``), its top ``d`` pairs ``y`` are computed,
    and ``u = U^-1 y``. Since ``cond_2(B) <= cond_1(B)``, the floor cannot
    apply on this route. When ``B`` is ``blockdiag(B11, r I)``, as a reduced
    dPCA background is, only ``B11 = U1^T U1`` is factored: ``U`` is
    ``blockdiag(U1, sqrt(r) I)``, so the reduced matrix is ``sygst`` of
    ``A11`` with ``U1``, ``U1^-T A12 / sqrt(r)`` (BLAS ``trsm``) and
    ``A22 / r``, and ``u`` is ``U1^-1 y1`` over ``y / sqrt(r)`` in the tail.
    The block is found from ``B`` itself; a dense ``B`` has no tail and is
    factored whole. Otherwise ``B`` is whitened with
    ``W = whitening_factor(B, floor_rel)``, the top ``d`` pairs of the
    symmetric matrix ``W^T A W`` are computed, and each eigenvector ``v`` is
    mapped back as ``u = W v``. Either way each ``u`` is normalized to unit
    Euclidean norm. For nonsingular ``B`` the eigenvalues equal the Rayleigh
    ratios ``u^T A u / u^T B u``; when the floor applied they are those of the
    whitened matrix and ``floor_applied`` is set.

    Parameters
    ----------
    mat_a, mat_b : (D, D) array_like
        Symmetric PSD matrices defining the pencil.
    d : int
        Number of leading pairs to return, ``1 <= d <= D``.
    floor_rel : float
        Eigenvalue floor forwarded to :func:`whitening_factor`.

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
    if not 0 <= floor_rel < np.inf:
        raise InvalidInputError(f"floor_rel must be finite and nonnegative, got {floor_rel}")

    upper = _comfortable_cholesky(b, floor_rel) if dim >= TOP_D_MIN_DIM else None
    if upper is not None:
        import scipy.linalg
        from scipy.linalg import blas, lapack

        # B = U^T U turns the pencil into U^-T A U^-1 y = lam y with u = U^-1 y;
        # beyond the order of the leading block's factor U1, B is r I and U is sqrt(r) I
        lead, ridge = upper.shape[0], b[-1, -1]
        if lead == dim:
            reduced, _ = lapack.dsygst(a, upper)  # result in the upper triangle
        else:
            reduced = np.zeros((dim, dim), order="F")  # upper triangle only, like dsygst's
            reduced[:lead, :lead] = lapack.dsygst(a[:lead, :lead], upper)[0]
            reduced[:lead, lead:] = blas.dtrsm(1.0 / np.sqrt(ridge), upper, a[:lead, lead:],
                                               trans_a=1)
            reduced[lead:, lead:] = a[lead:, lead:] / ridge
        values, vectors = _top_subset_eigh(reduced, d, lower=False)
        values, vectors = values[::-1], vectors[:, ::-1]
        head = scipy.linalg.solve_triangular(upper, vectors[:lead], check_finite=False)
        vectors = head if lead == dim else np.vstack([head, vectors[lead:] / np.sqrt(ridge)])
        floor_applied = False
    else:
        white = whitening_factor(b, floor_rel)
        transformed = white.factor.T @ a @ white.factor
        transformed = 0.5 * (transformed + transformed.T)  # kill rounding asymmetry
        eig = sym_eigendecompose(transformed, d)
        values, vectors = eig.eigenvalues, white.factor @ eig.eigenvectors
        floor_applied = white.floor_applied

    values = np.maximum(values, 0.0)
    vectors = apply_sign_convention(vectors / np.linalg.norm(vectors, axis=0))
    return GeneralizedEigenPairs(eigenvalues=values, eigenvectors=vectors,
                                 floor_applied=floor_applied)


def _top_subset_eigh(arr: np.ndarray, count: int,
                     lower: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Top ``count`` eigenpairs of a symmetric matrix, ascending, by LAPACK ``syevr``.

    Only the ``lower`` (or upper) triangle is read. ``syevr`` can return fewer
    pairs than requested, even none, when the wanted eigenvalues sit in a tight
    cluster (a rank-2 covariance plus a ridge, top 5 of order 300); the full
    solve then stands in.
    """
    import scipy.linalg

    dim = arr.shape[0]
    vals, vecs = scipy.linalg.eigh(arr, lower=lower, subset_by_index=[dim - count, dim - 1],
                                   check_finite=False)
    if vals.shape[0] < count:
        vals, vecs = np.linalg.eigh(arr, UPLO="L" if lower else "U")
        vals, vecs = vals[dim - count:], vecs[:, dim - count:]
    return vals, vecs


def _comfortable_cholesky(b: np.ndarray, floor_rel: float) -> np.ndarray | None:
    """Upper Cholesky factor of ``b``'s leading block if rcond(b) clears the floor's margin.

    Beyond its leading block ``B11`` (:func:`_leading_order`) ``b`` is
    ``r I``, so only ``B11`` is factored, and the 1-norms of the block-diagonal
    ``b`` combine as ``||b|| = max(||B11||, r)`` and
    ``||b^-1|| = max(||B11^-1||, 1 / r)``, the latter from ``B11``'s ``pocon``
    estimate. Returns None when the factorization fails or the margin is not
    cleared. Only the upper triangle of the returned array holds the factor.
    """
    import scipy.linalg
    from scipy.linalg import lapack

    lead = _leading_order(b)
    block = b[:lead, :lead]
    try:
        upper, _ = scipy.linalg.cho_factor(block, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    norm = np.linalg.norm(block, 1)
    rcond, info = lapack.dpocon(upper, norm)
    if lead < b.shape[0]:
        ridge = b[-1, -1]
        rcond = min(rcond * norm, ridge) / max(norm, ridge)
    return upper if info == 0 and rcond > CHOLESKY_RCOND_MARGIN * floor_rel else None


def _leading_order(b: np.ndarray) -> int:
    """Order of the leading block of ``b`` beyond which ``b`` is ``r I`` with ``r > 0``.

    ``r`` is the last diagonal entry; every trailing column whose only nonzero
    is a diagonal ``r`` belongs to the tail. The order is at least 1, and it is
    ``b``'s own when the last column has an off-diagonal nonzero, which a dense
    ``b`` shows after O(D) reads.
    """
    ridge = b[-1, -1]
    if ridge <= 0 or np.any(b[:-1, -1]):
        return b.shape[0]
    plain = (np.count_nonzero(b, axis=0) == 1) & (np.diagonal(b) == ridge)
    plain[0] = False
    return int(np.flatnonzero(~plain)[-1]) + 1


class _Reflectors(NamedTuple):
    """``Q`` of a QR factorization as LAPACK ``geqrt`` leaves it, in compact-WY form.

    ``Q = I - V T V^T``: ``reflectors`` holds the Householder vectors ``V``
    below its diagonal (the factored stack; the rest is ``R`` and unused
    here), and ``t`` the upper-triangular block factors ``T``, one per
    column block.
    """

    reflectors: np.ndarray
    t: np.ndarray


# The orthonormal basis of a reduced fit: None (not reduced), Q, or its reflectors.
_Basis = Union[None, np.ndarray, _Reflectors]


def _reduce_to_span(parts: Sequence[tuple[np.ndarray, int, float]],
                    d: int) -> tuple[_Basis, list[np.ndarray]]:
    """An orthonormal basis ``Q`` of the samples, and each covariance reduced to it.

    ``parts`` holds one ``(X_i, m_i, r_i)`` per covariance
    ``X_i^T X_i / m_i + r_i I``; the result is ``Q`` and each
    ``Q^T (X_i^T X_i / m_i + r_i I) Q``, in the order of ``parts``. ``Q``
    (``D x K``, ``K`` the total row count plus ``d``) is the Householder QR
    basis of ``[X_p^T, ..., X_1^T, 0]``, the last part's rows first: its
    first columns span every row of every ``X_i`` and its last ``d`` are
    orthonormal to them. With ``R = Q^T [X_p^T, ...]`` upper triangular,
    each reduced matrix is ``R_i R_i^T / m_i + r_i I``, and ``R_i`` is zero
    below the row where its part ends in the stack. So a pencil's background,
    the last part, reduces to ``blockdiag(B11, r_b I)`` with ``B11`` of the
    order of its row count, the shape :func:`generalized_eig` factors in
    that order only. From ``K = TOP_D_MIN_DIM`` up the QR is LAPACK's
    recursive compact-WY ``geqrt``, in place on the stack, and ``Q`` is kept
    as its reflectors and never formed. Each Gram block is formed from the
    part's nonzero rows of ``R`` only: ``lauum`` of the first part's
    triangle, ``syrk`` of a later part's columns. It is mirrored in place and
    scaled into the leading block of its reduced matrix, which gets its ridge
    on the whole diagonal. Below it numpy forms ``Q`` and the products.
    """
    stacked_parts = parts[::-1]
    # stacking rows and transposing gives the Fortran-ordered D x K layout LAPACK works in
    stacked = np.concatenate([x for x, _, _ in stacked_parts]
                             + [np.zeros((d, parts[0][0].shape[1]))]).T
    order = stacked.shape[1]
    in_scipy = order >= TOP_D_MIN_DIM
    if in_scipy:
        from scipy.linalg import blas, lapack

        factored, t, _ = lapack.dgeqrt(min(64, order), stacked, overwrite_a=1)
        basis = _Reflectors(factored, t)
    else:
        basis, upper = np.linalg.qr(stacked)
    blocks, stop = [], 0
    for x, count, ridge in stacked_parts:
        start, stop = stop, stop + x.shape[0]
        if in_scipy:
            # R's nonzero rows of this part's columns: the first part's are
            # triangular, which lauum reads as such; below R's diagonal lie reflectors
            if start == 0:
                gram, _ = lapack.dlauum(factored[:stop, :stop])
            else:
                part = factored[:stop, start:stop].copy(order="F")
                part[start:] = np.triu(part[start:])
                gram = blas.dsyrk(1.0, part)
            block = np.zeros((order, order), order="F")
            np.multiply(_mirror_upper(gram), 1.0 / count, out=block[:stop, :stop])
            if ridge > 0:
                block[np.diag_indices(order)] += ridge
        else:
            part = upper[:, start:stop]
            block = (part @ part.T) / count
            block = 0.5 * (block + block.T)
            if ridge > 0:
                block += ridge * np.eye(order)
        blocks.append(block)
    return basis, blocks[::-1]


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


def _lift(basis: _Basis, vectors: np.ndarray) -> np.ndarray:
    """Map eigenvectors of a reduced problem back to feature space, ``u = Q y``.

    ``Q`` is applied as a matrix or, from its compact-WY reflectors, by LAPACK
    ``gemqrt``; the columns then follow the sign convention. Unreduced fits
    (``basis`` None) pass through unchanged.
    """
    if basis is None:
        return vectors
    if isinstance(basis, np.ndarray):
        return apply_sign_convention(basis @ vectors)
    from scipy.linalg import lapack

    # Q y is the full D x D orthogonal factor applied to y padded with zeros
    padded = np.zeros((basis.reflectors.shape[0], vectors.shape[1]), order="F")
    padded[:vectors.shape[0]] = vectors
    lifted, _ = lapack.dgemqrt(basis.reflectors, basis.t, padded, "L", "N", overwrite_c=1)
    return apply_sign_convention(lifted)


LinearOperator = Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]


def power_topd(op: LinearOperator, d: int, tol: float = 1e-10, max_iter: int = 5000,
               seed: int = 0, dim: int | None = None) -> GeneralizedEigenPairs:
    """Leading eigenpairs of a symmetric PSD operator by deflated power iteration.

    Each pair iterates ``v <- Av / ||Av||`` until successive Rayleigh
    quotients differ by at most ``tol``, then deflates by subtracting
    ``lam v v^T`` and restarts from a fresh seeded vector. One kernel serves
    both kinds of operator: a dense matrix is applied as ``v -> A v``, and
    the deflation is applied functionally, so the operator is never copied
    or modified.

    Parameters
    ----------
    op : (D, D) array_like or callable
        The operator. A callable must map a length-``D`` vector to ``A v``,
        and ``dim`` must be given.
    d : int
        Number of pairs, ``1 <= d <= D``.
    tol : float
        Convergence threshold on successive Rayleigh quotients; must be > 0.
    max_iter : int
        Iteration budget per pair.
    seed : int
        Seed for the starting vectors.
    dim : int, optional
        Operator dimension, required for callables.

    Raises
    ------
    NonConvergenceError
        If some pair fails to converge within ``max_iter``; carries the best
        iterate and its residual.
    """
    if tol <= 0:
        raise InvalidInputError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be >= 1, got {max_iter}")

    if callable(op):
        if dim is None:
            raise DimensionError("dim is required when the operator is a callable")
        apply_op, op_dim = op, int(dim)
    else:
        matrix = check_symmetric(op, "operator")
        apply_op, op_dim = (lambda v: matrix @ v), matrix.shape[0]
    if not 1 <= d <= op_dim:
        raise DimensionError(f"requested {d} pairs from a dimension-{op_dim} operator")

    rng = np.random.default_rng(seed)
    values, vectors = _power_callable(apply_op, rng.standard_normal((op_dim, d)), tol, max_iter)
    order = np.argsort(-values, kind="stable")
    values = np.maximum(values[order], 0.0)
    vectors = apply_sign_convention(vectors[:, order])
    return GeneralizedEigenPairs(eigenvalues=values, eigenvectors=vectors)


def _power_callable(apply_op, start, tol, max_iter):
    """Deflated power iteration from the columns of ``start``; deflation is functional."""
    op_dim, d = start.shape
    values = np.zeros(d)
    vectors = np.zeros((op_dim, d))

    def deflated(v, k):
        # copy so deflation never mutates a buffer owned by the operator
        w = np.array(apply_op(v), dtype=np.float64, copy=True)
        if w.shape != (op_dim,):
            raise DimensionError(f"operator returned shape {w.shape}, expected ({op_dim},)")
        for i in range(k):
            w -= values[i] * (vectors[:, i] @ v) * vectors[:, i]
        return w

    for j in range(d):
        v = start[:, j] / np.linalg.norm(start[:, j])
        q = 0.0
        q_prev = np.inf
        ok = False
        it = 0
        while it < max_iter:
            it += 1
            w = deflated(v, j)
            q = float(v @ w)
            if abs(q - q_prev) <= tol:
                ok = True
                break
            norm_w = float(np.linalg.norm(w))
            if norm_w == 0.0:
                # v lies in the null space of the deflated operator
                q = 0.0
                ok = True
                break
            v = w / norm_w
            q_prev = q
        if not ok:
            resid = float(np.linalg.norm(deflated(v, j) - q * v))
            raise NonConvergenceError(
                f"power iteration for pair {j} did not converge in {max_iter} iterations",
                best_eigenvalue=q, best_vector=v.copy(), residual=resid, iterations=it)
        values[j] = q
        vectors[:, j] = v
    return values, vectors
