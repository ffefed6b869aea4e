import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpca import cluster
from dpca.cluster import cluster_label_accuracy, kmeans, silhouette_score, spectral_cluster
from dpca.errors import DimensionError, InvalidInputError

MIB = 2**20


def two_blobs(rng, n=60, sep=8.0):
    a = rng.standard_normal((n, 2)) + [sep, 0]
    b = rng.standard_normal((n, 2)) - [sep, 0]
    return np.vstack([a, b]), np.repeat([0, 1], n)


@st.composite
def kmeans_cases(draw):
    """Points, k and keyword arguments for ``kmeans`` and ``kmeans_loop``."""
    m = draw(st.integers(2, 300), label="m")
    k = draw(st.integers(1, min(6, m)), label="k")
    dim = draw(st.integers(1, 3), label="dim")
    kind = draw(st.sampled_from(["gaussian", "rounded", "identical"]), label="kind")
    points = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((m, dim))
    if kind == "rounded":  # exact ties in distances, inexact sums in centroids
        points = np.round(points * draw(st.sampled_from([0.2, 1.0])), 1)
    elif kind == "identical":
        points = np.repeat(points[:1], m, axis=0)
    # a large tol or a small max_iter stops restarts at different iterations
    kwargs = dict(seed=draw(st.integers(0, 2**16), label="seed"),
                  restarts=draw(st.integers(1, 8), label="restarts"),
                  max_iter=draw(st.sampled_from([1, 2, 5, 100]), label="max_iter"),
                  tol=draw(st.sampled_from([0.0, 1e-12, 0.05, 0.5]), label="tol"))
    return points, k, kwargs


@st.composite
def silhouette_cases(draw):
    """Points, labels with one singleton cluster, and a distance budget in bytes."""
    m = draw(st.integers(3, 300), label="m")
    k = draw(st.integers(2, min(6, m - 1)), label="k")
    dim = draw(st.integers(1, 3), label="dim")
    offset = draw(st.floats(-1e6, 1e6), label="offset")
    # from one distance per block to the whole triangle in one
    budget = draw(st.integers(1, m * (m + 1) // 2), label="budget")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, k - 1, size=m)
    labels[rng.integers(m)] = k - 1  # the singleton
    centers = rng.standard_normal((k, dim)) * draw(st.sampled_from([0.5, 4.0]), label="spread")
    points = centers[labels] + rng.standard_normal((m, dim)) + offset
    return points, labels, 8 * budget


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

    def test_points_not_2d(self, rng):
        with pytest.raises(DimensionError, match="points must be 2-D"):
            kmeans(rng.standard_normal(6), 2)

    @pytest.mark.parametrize("cell, value", [((4, 1), np.inf), ((4, 1), np.nan), (..., np.nan)],
                             ids=["one_inf", "one_nan", "all_nan"])
    def test_non_finite_points(self, rng, cell, value):
        # no distance to a NaN point compares below the best inertia, so no labels exist
        points = rng.standard_normal((20, 2))
        points[cell] = value
        with pytest.raises(InvalidInputError, match="non-finite"):
            kmeans(points, 2)

    @settings(max_examples=150, deadline=None)
    @given(case=kmeans_cases())
    # one column summed in a different order flips a tied label here
    @example(case=(np.array([[3], [3], [1], [1], [3], [0], [3], [1], [1], [1], [0], [3]]) * 0.1,
                   2, {"seed": 71, "restarts": 1}))
    def test_matches_loop(self, case):
        points, k, kwargs = case
        assert np.array_equal(kmeans(points, k, **kwargs), kmeans_loop(points, k, **kwargs))

    def test_memory_bounded(self, rng):
        points = rng.standard_normal((6000, 2))
        tracemalloc.start()
        try:
            kmeans(points, 3, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * MIB


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

    @pytest.mark.parametrize("affinity", [np.ones((3, 4)), np.ones(4), np.ones((2, 2, 2))],
                             ids=["wide", "1d", "3d"])
    def test_affinity_not_square(self, affinity):
        with pytest.raises(DimensionError, match="affinity must be square"):
            spectral_cluster(affinity, 1)

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_bounds(self, k):
        with pytest.raises(InvalidInputError, match=rf"k must be in \[1, 3\], got {k}"):
            spectral_cluster(np.ones((3, 3)), k)

    def test_zero_degree_row(self):
        affinity = np.ones((3, 3))
        affinity[2] = affinity[:, 2] = 0.0
        with pytest.raises(InvalidInputError, match="zero-degree row"):
            spectral_cluster(affinity, 2)


def kmeans_loop(points, k, seed=0, restarts=8, max_iter=100, tol=1e-12):
    """One restart at a time, one cluster at a time, the reference.

    Each centroid is ``points[member].mean(axis=0)``; a restart stops when no
    centroid moves by more than ``tol``; the first restart with the lowest
    inertia (by a 1e-15 margin) wins.
    """
    def sq_dists(pts, centers):
        p2 = np.sum(pts * pts, axis=1, keepdims=True)
        c2 = np.sum(centers * centers, axis=1, keepdims=True).T
        d = p2 + c2 - 2.0 * (pts @ centers.T)
        np.maximum(d, 0.0, out=d)
        return d

    pts = np.asarray(points, dtype=np.float64)
    m = pts.shape[0]
    rng = np.random.default_rng(seed)
    best_labels = None
    best_inertia = np.inf
    for _ in range(restarts):
        centers = pts[rng.choice(m, size=k, replace=False)].copy()
        labels = np.zeros(m, dtype=np.int64)
        for _ in range(max_iter):
            labels = np.argmin(sq_dists(pts, centers), axis=1)
            moved = 0.0
            for c in range(k):
                member = labels == c
                if np.any(member):
                    new_center = pts[member].mean(axis=0)
                    moved = max(moved, float(np.max(np.abs(new_center - centers[c]))))
                    centers[c] = new_center
            if moved <= tol:
                break
        inertia = float(np.sum(np.min(sq_dists(pts, centers), axis=1)))
        if inertia < best_inertia - 1e-15:
            best_inertia = inertia
            best_labels = labels
    return best_labels


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
    @pytest.mark.parametrize("block_bytes", [32 * MIB, 8 * 7 * 150])
    def test_matches_loop(self, rng, monkeypatch, k, block_bytes):
        # 32 MiB holds all 150 rows in one block; 8 * 7 * 150 bytes splits
        # them into blocks of 7
        monkeypatch.setattr(cluster, "_SILHOUETTE_BLOCK_BYTES", block_bytes)
        centers = rng.standard_normal((k, 3)) * 4.0 + 20.0
        labels = rng.integers(-3, k - 3, size=150)
        labels[17] = 99  # a singleton cluster
        points = centers[np.clip(labels + 3, 0, k - 1)] + rng.standard_normal((150, 3))
        assert silhouette_score(points, labels) == pytest.approx(
            silhouette_loop(points, labels), abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(case=silhouette_cases())
    def test_matches_loop_property(self, case):
        points, labels, block_bytes = case
        with mock.patch.object(cluster, "_SILHOUETTE_BLOCK_BYTES", block_bytes):
            ours = silhouette_score(points, labels)
        assert ours == pytest.approx(silhouette_loop(points, labels), abs=1e-12)

    @pytest.mark.parametrize("offset", [1e4, 1e6, 1e7])
    def test_translation_invariant(self, rng, offset):
        labels = rng.integers(0, 3, size=400)
        points = labels[:, None] * 1.5 + rng.standard_normal((400, 2)) + offset
        assert silhouette_score(points, labels) == pytest.approx(
            silhouette_loop(points, labels), abs=1e-12)

    def test_duplicate_points_score_zero(self):
        # a = b = 0 for every sample: a zero denominator scores 0
        points = np.zeros((6, 2))
        assert silhouette_score(points, np.array([0, 0, 0, 1, 1, 1])) == 0.0

    def test_needs_non_singleton_cluster(self, rng):
        with pytest.raises(InvalidInputError):
            silhouette_score(rng.standard_normal((3, 2)), np.arange(3))

    def test_default_blocks_match_loop(self, rng):
        m = 600
        assert cluster._SILHOUETTE_BLOCK_BYTES // (8 * m) < m  # several blocks
        labels = rng.integers(0, 3, size=m)
        points = labels[:, None] * 1.5 + rng.standard_normal((m, 2))
        assert silhouette_score(points, labels) == pytest.approx(
            silhouette_loop(points, labels), abs=1e-12)

    def test_memory_bounded(self, rng):
        # the full distance matrix would be 8 * 6000**2 bytes, 275 MiB; one
        # block of distance rows is 1 MiB
        m = 6000
        points = rng.standard_normal((m, 2))
        labels = rng.integers(0, 3, size=m)
        tracemalloc.start()
        try:
            silhouette_score(points, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * MIB

    def test_textbook_convention_by_hand(self):
        # points 0, 2 | 5, 6 | 20 on a line. a excludes the point itself, b is
        # the nearest other cluster's mean distance, and the singleton scores
        # 0: (5.5 - 2) / 5.5, (3.5 - 2) / 3.5, (4 - 1) / 4, (5 - 1) / 5, 0.
        # Counting the point itself in a, b as the mean over every other
        # point, or 1 for the singleton each changes the score.
        points = np.array([[0.0], [2.0], [5.0], [6.0], [20.0]])
        labels = np.array([0, 0, 1, 1, 2])
        expected = (7 / 11 + 3 / 7 + 3 / 4 + 4 / 5 + 0.0) / 5
        assert silhouette_score(points, labels) == pytest.approx(expected, abs=1e-15)

    def test_well_separated_is_high(self, rng):
        pts, truth = two_blobs(rng, sep=10.0)
        assert silhouette_score(pts, truth) > 0.8

    def test_needs_two_clusters(self, rng):
        with pytest.raises(InvalidInputError):
            silhouette_score(rng.standard_normal((5, 2)), np.zeros(5))


@pytest.mark.parametrize("metric", [silhouette_score, cluster_label_accuracy])
class TestMetricInputs:
    def test_points_not_2d(self, rng, metric):
        with pytest.raises(DimensionError):
            metric(rng.standard_normal(6), np.array([0, 0, 0, 1, 1, 1]))

    @pytest.mark.parametrize("m", [5, 7])
    def test_labels_wrong_length(self, rng, metric, m):
        with pytest.raises(DimensionError):
            metric(rng.standard_normal((6, 2)), np.arange(m) % 2)

    @pytest.mark.parametrize("cell, value", [((4, 1), np.inf), ((4, 1), np.nan), (..., np.nan)],
                             ids=["one_inf", "one_nan", "all_nan"])
    def test_non_finite_points(self, rng, metric, cell, value):
        points = rng.standard_normal((6, 2))
        points[cell] = value
        with pytest.raises(InvalidInputError, match="non-finite"):
            metric(points, np.array([0, 0, 0, 1, 1, 1]))


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

    def test_class_count_bounded(self, rng):
        # one more class than the permutation search allows
        k = cluster.MAX_ACCURACY_CLASSES + 1
        with pytest.raises(InvalidInputError, match=f"at most {k - 1} classes"):
            cluster_label_accuracy(rng.standard_normal((3 * k, 2)), np.arange(3 * k) % k)
