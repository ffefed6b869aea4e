import tracemalloc

import numpy as np
import pytest

from dpca import cluster
from dpca.cluster import cluster_label_accuracy, kmeans, silhouette_score, spectral_cluster
from dpca.errors import InvalidInputError


def two_blobs(rng, n=60, sep=8.0):
    a = rng.standard_normal((n, 2)) + [sep, 0]
    b = rng.standard_normal((n, 2)) - [sep, 0]
    return np.vstack([a, b]), np.repeat([0, 1], n)


class TestKmeans:
    def test_separates_blobs(self, rng):
        pts, truth = two_blobs(rng)
        labels = kmeans(pts, 2, seed=3)
        # perfect split up to cluster-id permutation
        agreement = np.mean(labels == truth)
        assert agreement == 1.0 or agreement == 0.0

    def test_deterministic(self, rng):
        pts, _ = two_blobs(rng)
        assert np.array_equal(kmeans(pts, 2, seed=5), kmeans(pts, 2, seed=5))

    def test_identical_points_terminate(self):
        pts = np.ones((8, 3))
        labels = kmeans(pts, 3, seed=0)
        assert labels.shape == (8,)
        assert set(labels) <= {0, 1, 2}

    def test_k_bounds(self, rng):
        with pytest.raises(InvalidInputError):
            kmeans(rng.standard_normal((4, 2)), 5)


class TestSpectralCluster:
    def test_block_affinity(self):
        a = np.eye(6)
        a[:3, :3] = 1.0
        a[3:, 3:] = 1.0
        a[0, 3] = a[3, 0] = 0.05
        labels = spectral_cluster(a, 2, seed=0)
        assert len(set(labels[:3])) == 1
        assert len(set(labels[3:])) == 1
        assert labels[0] != labels[3]

    def test_all_ones_affinity(self):
        labels = spectral_cluster(np.ones((5, 5)), 2, seed=0)
        assert labels.shape == (5,)


def silhouette_loop(points, labels):
    """Per-sample loop over a dense distance matrix, the reference.

    Distances come from coordinate differences, so a point's distance to
    itself is exactly 0 and ``a`` excludes self.
    """
    d = np.sqrt(np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1))
    uniq = np.unique(labels)
    m = points.shape[0]
    scores = np.zeros(m)
    masks = {c: labels == c for c in uniq}
    for i in range(m):
        own = masks[labels[i]]
        n_own = int(np.sum(own))
        if n_own <= 1:
            scores[i] = 0.0
            continue
        a = float(np.sum(d[i, own]) / (n_own - 1))
        b = np.inf
        for c in uniq:
            if c == labels[i]:
                continue
            b = min(b, float(np.mean(d[i, masks[c]])))
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(np.mean(scores))


class TestSilhouette:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("block_bytes", [cluster._SILHOUETTE_BLOCK_BYTES, 8 * 7 * 150])
    def test_matches_loop(self, rng, monkeypatch, k, block_bytes):
        # the small block size splits the 150 rows into blocks of 7
        monkeypatch.setattr(cluster, "_SILHOUETTE_BLOCK_BYTES", block_bytes)
        centers = rng.standard_normal((k, 3)) * 4.0 + 20.0
        labels = rng.integers(-3, k - 3, size=150)
        labels[17] = 99  # a singleton cluster
        points = centers[np.clip(labels + 3, 0, k - 1)] + rng.standard_normal((150, 3))
        assert silhouette_score(points, labels) == pytest.approx(
            silhouette_loop(points, labels), abs=1e-12)

    def test_duplicate_points_score_zero(self):
        # a = b = 0 for every sample: a zero denominator scores 0
        points = np.zeros((6, 2))
        assert silhouette_score(points, np.array([0, 0, 0, 1, 1, 1])) == 0.0

    def test_needs_non_singleton_cluster(self, rng):
        with pytest.raises(InvalidInputError):
            silhouette_score(rng.standard_normal((3, 2)), np.arange(3))

    def test_memory_bounded(self, rng):
        m = 6000
        dense_bytes = 8 * m * m  # 288 MB for the full distance matrix
        points = rng.standard_normal((m, 2))
        labels = rng.integers(0, 3, size=m)
        tracemalloc.start()
        try:
            silhouette_score(points, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * dense_bytes

    def test_matches_sklearn(self, rng):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        for _ in range(5):
            pts, truth = two_blobs(rng, n=25, sep=2.0)
            ours = silhouette_score(pts, truth)
            theirs = sklearn_metrics.silhouette_score(pts, truth)
            assert ours == pytest.approx(theirs, abs=1e-10)

    def test_well_separated_is_high(self, rng):
        pts, truth = two_blobs(rng, sep=10.0)
        assert silhouette_score(pts, truth) > 0.8

    def test_needs_two_clusters(self, rng):
        with pytest.raises(InvalidInputError):
            silhouette_score(rng.standard_normal((5, 2)), np.zeros(5))


class TestClusterLabelAccuracy:
    def test_separated(self, rng):
        pts, truth = two_blobs(rng)
        assert cluster_label_accuracy(pts, truth, seed=0) == pytest.approx(1.0)

    def test_unseparated_near_chance(self, rng):
        pts = rng.standard_normal((400, 2))
        truth = np.repeat([0, 1], 200)
        acc = cluster_label_accuracy(pts, truth, seed=0)
        assert 0.5 <= acc <= 0.65

    def test_needs_two_labels(self, rng):
        with pytest.raises(InvalidInputError):
            cluster_label_accuracy(rng.standard_normal((5, 2)), np.zeros(5))
