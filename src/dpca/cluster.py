"""Small deterministic clustering utilities.

Used in two places: spectral clustering of the alpha-candidate affinity
matrix during automatic alpha selection, and the cluster-separation metrics
reported by the CLI ``compare`` command. Everything is seeded and single
threaded so repeated runs produce identical results.
"""

from __future__ import annotations

import itertools

import numpy as np

from .eigencore import sym_eigendecompose
from .errors import DimensionError, InvalidInputError


# The most classes cluster_label_accuracy scores: it tries all k! matchings.
MAX_ACCURACY_CLASSES = 6

# Distances formed at once by silhouette_score: 1 MiB of float64, so each
# block and the in-place passes over it stay in a core's L2 cache.
_SILHOUETTE_BLOCK_BYTES = 2**20


def _sq_dists(points: np.ndarray, sq_norms: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances ``(r, k, m)`` from ``r`` sets of ``k`` centers to the points.

    Each entry is rounded as ``(|p|^2 + |c|^2) - 2 p.c``, clipped at 0, with
    the products of one ``points @ c.T`` per center set ``c``, so it equals
    the distance formed for that set alone.
    """
    # contiguous (r, k, m), so the passes below run along m
    dot = np.ascontiguousarray(np.swapaxes(points @ np.swapaxes(centers, 1, 2), 1, 2))
    dot *= 2.0
    d = np.sum(centers * centers, axis=2)[:, :, None] + sq_norms
    d -= dot
    np.maximum(d, 0.0, out=d)
    return d


def _cluster_sums(points: np.ndarray, seg: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of the rows of ``points`` in each segment, ``(counts.size, dim)``.

    ``seg`` holds one segment id per point and restart, shape ``(r, m)``, and
    ``counts`` the number of entries with each id. Each sum is bit-equal to
    ``points[member].sum(axis=0)``: numpy adds the rows of a multi-column
    array one after another, as ``np.bincount`` does, but sums a single
    column pairwise, which ``np.add.reduce`` repeats on the column's members
    in index order.
    """
    m, dim = points.shape
    flat = seg.ravel()
    if dim > 1:
        return np.stack([np.bincount(flat, weights=np.tile(col, seg.shape[0]), minlength=counts.size)
                         for col in points.T], axis=1)
    grouped = points[np.argsort(flat, kind="stable") % m, 0]
    parts = np.split(grouped, np.cumsum(counts)[:-1])
    return np.array([np.add.reduce(part) for part in parts])[:, None]


def kmeans(points: np.ndarray, k: int, seed: int = 0, restarts: int = 8,
           max_iter: int = 100, tol: float = 1e-12) -> np.ndarray:
    """Lloyd's k-means with seeded restarts; returns integer labels.

    Ties in assignment go to the lowest cluster index, and a cluster left
    empty keeps its previous centroid, so degenerate inputs (e.g. all points
    identical) still terminate with a valid labeling. The restarts iterate
    together, each stopping at its own convergence, and return the same
    labels as running them one at a time; the lowest inertia wins, the
    earliest restart on a tie. Non-finite points raise ``InvalidInputError``.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise DimensionError("points must be 2-D")
    if not np.isfinite(pts).all():
        raise InvalidInputError("points contain a non-finite value")
    m = pts.shape[0]
    if not 1 <= k <= m:
        raise InvalidInputError(f"k must be in [1, {m}], got {k}")
    rng = np.random.default_rng(seed)
    centers = np.stack([pts[rng.choice(m, size=k, replace=False)] for _ in range(restarts)])
    sq_norms = np.sum(pts * pts, axis=1)
    labels = np.zeros((restarts, m), dtype=np.int64)
    running = np.arange(restarts)  # restarts not yet converged
    for _ in range(max_iter):
        if running.size == 0:
            break
        current = centers[running]
        dists = _sq_dists(pts, sq_norms, current)
        assigned = np.zeros((running.size, m), dtype=np.int64)
        nearest = dists[:, 0].copy()
        # argmin by one pass per cluster (np.argmin along the short k axis
        # is several times slower); strict "<" keeps a tie at the lower index
        for c in range(1, k):
            closer = dists[:, c] < nearest
            assigned[closer] = c
            np.minimum(nearest, dists[:, c], out=nearest)
        labels[running] = assigned
        seg = assigned + k * np.arange(running.size)[:, None]
        counts = np.bincount(seg.ravel(), minlength=running.size * k)
        filled = counts > 0
        updated = current.reshape(-1, pts.shape[1]).copy()
        updated[filled] = _cluster_sums(pts, seg, counts)[filled] / counts[filled, None]
        updated = updated.reshape(current.shape)
        moved = np.max(np.abs(updated - current), axis=(1, 2))
        centers[running] = updated
        running = running[moved > tol]
    inertia = np.sum(np.min(_sq_dists(pts, sq_norms, centers), axis=1), axis=1)

    best_labels = None
    best_inertia = np.inf
    for r in range(restarts):
        if inertia[r] < best_inertia - 1e-15:
            best_inertia = inertia[r]
            best_labels = labels[r]
    return best_labels


def spectral_cluster(affinity: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Cluster items given a symmetric nonnegative affinity matrix.

    Standard normalized-cut pipeline: form the symmetric normalized affinity
    ``D^{-1/2} A D^{-1/2}``, take its top-``k`` eigenvectors (the bottom
    eigenvectors of the normalized graph Laplacian) from
    :func:`~dpca.eigencore.sym_eigendecompose`, row-normalize, and run
    seeded k-means on the rows. The wrapper's column signs do not change
    the labels: flipping a column reflects every row, which keeps each
    k-means distance exactly.
    """
    a = np.asarray(affinity, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("affinity must be square")
    n = a.shape[0]
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must be in [1, {n}], got {k}")
    degrees = a.sum(axis=1)
    if np.any(degrees <= 0):
        raise InvalidInputError("affinity has a zero-degree row")
    inv_root = 1.0 / np.sqrt(degrees)
    normalized = a * inv_root[:, None] * inv_root[None, :]
    normalized = 0.5 * (normalized + normalized.T)
    embedding = sym_eigendecompose(normalized, k).eigenvectors
    norms = np.linalg.norm(embedding, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    embedding = embedding / norms
    return kmeans(embedding, k, seed=seed)


def _points_and_labels(points, labels) -> tuple[np.ndarray, np.ndarray]:
    """``points`` as a finite float64 ``(m, dim)`` array and ``labels`` as one label per row."""
    pts = np.asarray(points, dtype=np.float64)
    labs = np.asarray(labels)
    if pts.ndim != 2:
        raise DimensionError(f"points must be 2-D, got {pts.ndim}-D")
    if labs.shape != (pts.shape[0],):
        raise DimensionError(f"labels must have shape ({pts.shape[0]},), got {labs.shape}")
    if not np.isfinite(pts).all():
        raise InvalidInputError("points contain a non-finite value")
    return pts, labs


def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient over all samples.

    For sample ``i`` with intra-cluster mean distance ``a`` (self excluded)
    and smallest other-cluster mean distance ``b``, the coefficient is
    ``(b - a) / max(a, b)``, or 0 when both are 0; singleton clusters
    contribute 0. Each distance is formed once, on points centred on their
    mean, so the score does not lose digits when the points lie far from
    the origin. Rows ``lo:hi`` are paired with rows ``lo:`` in blocks of
    about 1 MiB of distances, and each block's sums per cluster (a product
    with the one-hot label matrix) go to both of its row sets, so extra
    memory is about 1 MiB rather than ``m * m`` doubles; a block that small
    stays in cache through its in-place passes.
    """
    pts, labs = _points_and_labels(points, labels)
    m = pts.shape[0]
    uniq, cluster = np.unique(labs, return_inverse=True)
    if uniq.size < 2:
        raise InvalidInputError("silhouette needs at least two clusters")
    if uniq.size >= m:
        raise InvalidInputError("silhouette needs at least one non-singleton cluster")
    sizes = np.bincount(cluster).astype(np.float64)
    one_hot = np.zeros((m, uniq.size))
    one_hot[np.arange(m), cluster] = 1.0
    # |p - q|^2 = [-2p, 1, |p|^2] . [q, |q|^2, 1], one product per block
    centred = pts - pts.mean(axis=0)
    sq_norms = np.einsum("ij,ij->i", centred, centred)
    left = np.column_stack([-2.0 * centred, np.ones(m), sq_norms])
    right = np.vstack([centred.T, sq_norms, np.ones(m)])
    sums = np.zeros((m, uniq.size))
    # one buffer for every block: a fresh 1 MiB array per block would be
    # page-faulted in again, which costs more than the product itself
    budget = _SILHOUETTE_BLOCK_BYTES // 8
    buffer = np.empty(max(budget, m))
    lo = 0
    while lo < m:
        hi = min(lo + max(1, budget // (m - lo)), m)
        dist = buffer[:(hi - lo) * (m - lo)].reshape(hi - lo, m - lo)
        np.matmul(left[lo:hi], right[:, lo:], out=dist)
        np.maximum(dist, 0.0, out=dist)
        np.sqrt(dist, out=dist)
        np.fill_diagonal(dist, 0.0)  # the formula leaves a rounding residual here
        sums[lo:hi] += dist @ one_hot[lo:]
        sums[hi:] += dist[:, hi - lo:].T @ one_hot[lo:hi]  # the mirrored pairs
        lo = hi
    rows = np.arange(m)
    n_own = sizes[cluster]
    a = sums[rows, cluster] / np.maximum(n_own - 1.0, 1.0)
    means = sums / sizes
    means[rows, cluster] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    safe = (n_own > 1) & (denom > 0)
    scores = np.where(safe, (b - a) / np.where(safe, denom, 1.0), 0.0)
    return float(np.mean(scores))


def cluster_label_accuracy(points: np.ndarray, labels: np.ndarray, seed: int = 0) -> float:
    """Accuracy of k-means (k = number of true classes) under the best
    cluster-to-label permutation.

    This quantifies how well the point cloud separates into its labeled
    groups; with two balanced classes, chance level is about 0.5.
    """
    pts, labs = _points_and_labels(points, labels)
    classes = np.unique(labs)
    k = classes.size
    if k < 2:
        raise InvalidInputError("need at least two distinct labels")
    if k > MAX_ACCURACY_CLASSES:
        raise InvalidInputError(
            f"accuracy-by-permutation supports at most {MAX_ACCURACY_CLASSES} classes")
    assigned = kmeans(pts, k, seed=seed)
    best = 0.0
    for perm in itertools.permutations(range(k)):
        mapped = classes[np.asarray(perm)][assigned]
        best = max(best, float(np.mean(mapped == labs)))
    return best
