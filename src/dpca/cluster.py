"""Small deterministic clustering utilities.

Used in two places: spectral clustering of the alpha-candidate affinity
matrix during automatic alpha selection, and the cluster-separation metrics
reported by the CLI ``compare`` command. Everything is seeded and single
threaded so repeated runs produce identical results.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DimensionError, InvalidInputError


# Distance rows formed at once by silhouette_score: 32 MiB of float64.
_SILHOUETTE_BLOCK_BYTES = 32 * 2**20


def _pairwise_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    p2 = np.sum(points * points, axis=1, keepdims=True)
    c2 = np.sum(centers * centers, axis=1, keepdims=True).T
    d = p2 + c2 - 2.0 * (points @ centers.T)
    np.maximum(d, 0.0, out=d)
    return d


def kmeans(points: np.ndarray, k: int, seed: int = 0, restarts: int = 8,
           max_iter: int = 100, tol: float = 1e-12) -> np.ndarray:
    """Lloyd's k-means with seeded restarts; returns integer labels.

    Ties in assignment go to the lowest cluster index, and a cluster left
    empty keeps its previous centroid, so degenerate inputs (e.g. all points
    identical) still terminate with a valid labeling.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise DimensionError("points must be 2-D")
    m = pts.shape[0]
    if not 1 <= k <= m:
        raise InvalidInputError(f"k must be in [1, {m}], got {k}")
    rng = np.random.default_rng(seed)

    best_labels = None
    best_inertia = np.inf
    for _ in range(restarts):
        centers = pts[rng.choice(m, size=k, replace=False)].copy()
        labels = np.zeros(m, dtype=np.int64)
        for _ in range(max_iter):
            dists = _pairwise_sq_dists(pts, centers)
            labels = np.argmin(dists, axis=1)
            moved = 0.0
            for c in range(k):
                member = labels == c
                if np.any(member):
                    new_center = pts[member].mean(axis=0)
                    moved = max(moved, float(np.max(np.abs(new_center - centers[c]))))
                    centers[c] = new_center
            if moved <= tol:
                break
        inertia = float(np.sum(np.min(_pairwise_sq_dists(pts, centers), axis=1)))
        if inertia < best_inertia - 1e-15:
            best_inertia = inertia
            best_labels = labels
    return best_labels


def spectral_cluster(affinity: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Cluster items given a symmetric nonnegative affinity matrix.

    Standard normalized-cut pipeline: form the symmetric normalized affinity
    ``D^{-1/2} A D^{-1/2}``, take its top-``k`` eigenvectors (the bottom
    eigenvectors of the normalized graph Laplacian), row-normalize, and run
    seeded k-means on the rows.
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
    vals, vecs = np.linalg.eigh(normalized)
    embedding = vecs[:, ::-1][:, :k]
    norms = np.linalg.norm(embedding, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    embedding = embedding / norms
    return kmeans(embedding, k, seed=seed)


def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient over all samples.

    For sample ``i`` with intra-cluster mean distance ``a`` (self excluded)
    and smallest other-cluster mean distance ``b``, the coefficient is
    ``(b - a) / max(a, b)``, or 0 when both are 0; singleton clusters
    contribute 0. Distances are formed for a block of rows at a time and
    summed per cluster by a product with the one-hot label matrix, so extra
    memory is about 32 MiB rather than ``m * m`` doubles.
    """
    pts = np.asarray(points, dtype=np.float64)
    uniq, cluster = np.unique(np.asarray(labels), return_inverse=True)
    if uniq.size < 2:
        raise InvalidInputError("silhouette needs at least two clusters")
    if uniq.size >= pts.shape[0]:
        raise InvalidInputError("silhouette needs at least one non-singleton cluster")
    m = pts.shape[0]
    sizes = np.bincount(cluster).astype(np.float64)
    one_hot = np.zeros((m, uniq.size))
    one_hot[np.arange(m), cluster] = 1.0
    sq_norms = np.einsum("ij,ij->i", pts, pts)
    block = max(1, _SILHOUETTE_BLOCK_BYTES // (8 * m))
    scores = np.zeros(m)
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        local = np.arange(hi - lo)
        # squared distances, in place: |p|^2 + |q|^2 - 2 p.q, clipped at 0
        dist = pts[lo:hi] @ pts.T
        dist *= -2.0
        dist += sq_norms[lo:hi, None]
        dist += sq_norms[None, :]
        np.maximum(dist, 0.0, out=dist)
        np.sqrt(dist, out=dist)
        dist[local, lo + local] = 0.0  # the formula leaves a rounding residual here
        sums = dist @ one_hot
        del dist  # free this block before the next one is allocated
        own = cluster[lo:hi]
        n_own = sizes[own]
        a = sums[local, own] / np.maximum(n_own - 1.0, 1.0)
        means = sums / sizes
        means[local, own] = np.inf
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        safe = (n_own > 1) & (denom > 0)
        scores[lo:hi] = np.where(safe, (b - a) / np.where(safe, denom, 1.0), 0.0)
    return float(np.mean(scores))


def cluster_label_accuracy(points: np.ndarray, labels: np.ndarray, seed: int = 0) -> float:
    """Accuracy of k-means (k = number of true classes) under the best
    cluster-to-label permutation.

    This quantifies how well the point cloud separates into its labeled
    groups; with two balanced classes, chance level is about 0.5.
    """
    labs = np.asarray(labels)
    classes = np.unique(labs)
    k = classes.size
    if k < 2:
        raise InvalidInputError("need at least two distinct labels")
    if k > 6:
        raise InvalidInputError("accuracy-by-permutation supports at most 6 classes")
    assigned = kmeans(np.asarray(points, dtype=np.float64), k, seed=seed)
    best = 0.0
    for perm in itertools.permutations(range(k)):
        mapped = classes[np.asarray(perm)][assigned]
        best = max(best, float(np.mean(mapped == labs)))
    return best
