import tracemalloc

import numpy as np
import pytest

from dpca.datamodel import CovarianceEstimate, DataMatrix, center, concat_rows, sample_covariance
from dpca.errors import DimensionError, InvalidInputError


class TestDataMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            DataMatrix(np.array([[1.0, np.inf]]))

    def test_rejects_bad_label_length(self):
        with pytest.raises(DimensionError):
            DataMatrix(np.ones((3, 2)), labels=[0, 1])

    def test_values_frozen(self):
        dm = DataMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            dm.values[0, 0] = 5.0

    def test_rejects_1d(self):
        with pytest.raises(DimensionError):
            DataMatrix(np.ones(4))


class TestOwnership:
    def test_public_constructor_copies(self):
        values, labels = np.ones((3, 2)), np.array([0, 1, 2])
        dm = DataMatrix(values, labels=labels)
        values[0, 0] = 7.0
        labels[0] = 7
        assert dm.values[0, 0] == 1.0 and dm.labels[0] == 0
        assert values.flags.writeable and labels.flags.writeable
        assert not dm.values.flags.writeable and not dm.labels.flags.writeable

    def test_adopted_arrays_are_read_only(self):
        values, labels = np.ones((3, 2)), np.array([0, 1, 2])
        dm = DataMatrix._adopt(values, labels)
        assert dm.values is values and dm.labels is labels
        assert not values.flags.writeable and not labels.flags.writeable

    def test_adopt_validates_like_the_constructor(self):
        with pytest.raises(InvalidInputError):
            DataMatrix._adopt(np.array([[1.0, np.inf]]))
        with pytest.raises(DimensionError):
            DataMatrix._adopt(np.ones(4))
        with pytest.raises(DimensionError):
            DataMatrix._adopt(np.ones((0, 2)))
        with pytest.raises(DimensionError):
            DataMatrix._adopt(np.ones((3, 2)), np.array([0, 1]))

    def test_center_and_concat_share_no_memory_with_inputs(self, rng):
        raw = DataMatrix(rng.standard_normal((10, 3)), labels=np.arange(10))
        centered = center(raw).data.values
        assert not np.shares_memory(centered, raw.values)
        assert not centered.flags.writeable
        for parts in ([raw], [raw, DataMatrix(rng.standard_normal((4, 3)))]):
            stacked = concat_rows(parts).values
            assert not any(np.shares_memory(stacked, p.values) for p in parts)
            assert not stacked.flags.writeable


class TestCenter:
    def test_two_point_mean(self):
        out = center(DataMatrix([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(out.mean, [2.0, 3.0])
        np.testing.assert_allclose(out.data.values, [[-1.0, -1.0], [1.0, 1.0]])

    def test_idempotent(self, rng):
        raw = DataMatrix(rng.standard_normal((50, 4)) + 3.0)
        once = center(raw)
        twice = center(once.data)
        assert np.all(np.abs(twice.mean) <= 1e-12)
        np.testing.assert_allclose(twice.data.values, once.data.values, atol=1e-12)

    def test_single_row(self):
        out = center(DataMatrix([[5.0, 7.0]]))
        np.testing.assert_allclose(out.mean, [5.0, 7.0])
        np.testing.assert_allclose(out.data.values, [[0.0, 0.0]])

    def test_mean_residual_invariant(self, rng):
        raw = DataMatrix(rng.standard_normal((200, 6)) * 10 + 100)
        out = center(raw)
        residual = np.abs(out.data.values.mean(axis=0))
        assert np.all(residual <= 1e-9 * (1 + np.abs(out.mean)))

    def test_labels_pass_through(self):
        out = center(DataMatrix([[1.0], [2.0]], labels=[0, 1]))
        np.testing.assert_array_equal(out.data.labels, [0, 1])

    def test_overflow_rejected(self):
        # finite values whose difference from the mean is not
        with np.errstate(over="ignore"), pytest.raises(InvalidInputError):
            center(DataMatrix([[1.7e308], [-1.7e308], [-1.7e308]]))

    def test_memory_is_one_copy(self, rng):
        # the result plus the finiteness scan's boolean mask: 1.13x measured
        raw = DataMatrix(rng.standard_normal((20000, 50)))
        tracemalloc.start()
        try:
            center(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * raw.values.nbytes


class TestSampleCovariance:
    def test_direct_two_sample(self):
        c = sample_covariance(center(DataMatrix([[1.0, 2.0], [3.0, 4.0]])))
        np.testing.assert_allclose(c.matrix, [[1.0, 1.0], [1.0, 1.0]])
        assert c.sample_count == 2
        assert c.ridge_applied == 0.0

    def test_divisor_is_m(self):
        # two samples at +/-3: (1/2)(9 + 9) = 9, not 18
        c = sample_covariance(center(DataMatrix([[3.0], [-3.0]])))
        assert c.matrix[0, 0] == pytest.approx(9.0)

    def test_ridge_additivity(self, rng):
        centered = center(DataMatrix(rng.standard_normal((30, 5))))
        plain = sample_covariance(centered)
        ridged = sample_covariance(centered, ridge=0.5)
        np.testing.assert_allclose(ridged.matrix, plain.matrix + 0.5 * np.eye(5), atol=1e-14)
        assert ridged.ridge_applied == 0.5

    @pytest.mark.parametrize("ridge", [np.nan, np.inf])
    def test_non_finite_ridge_rejected(self, ridge):
        # a NaN ridge would fail every "> 0" test and be skipped silently
        with pytest.raises(InvalidInputError, match="ridge must be finite"):
            sample_covariance(center(DataMatrix([[1.0, 2.0], [3.0, 5.0]])), ridge=ridge)

    def test_single_sample_degenerate(self):
        c = sample_covariance(center(DataMatrix([[4.0, 5.0]])), ridge=0.25)
        np.testing.assert_allclose(c.matrix, 0.25 * np.eye(2))

    def test_psd(self, rng):
        for _ in range(10):
            m, dim = int(rng.integers(2, 40)), int(rng.integers(1, 12))
            c = sample_covariance(center(DataMatrix(rng.standard_normal((m, dim)))))
            eigs = np.linalg.eigvalsh(c.matrix)
            assert eigs.min() >= -1e-10 * max(np.trace(c.matrix), 1e-300)

    def test_permutation_invariance(self, rng):
        vals = rng.standard_normal((60, 5))
        base = sample_covariance(center(DataMatrix(vals))).matrix
        perm = rng.permutation(60)
        shuffled = sample_covariance(center(DataMatrix(vals[perm]))).matrix
        assert np.max(np.abs(base - shuffled)) <= 1e-12

    def test_lazy_matrix_bit_identical_to_eager(self, rng):
        centered = center(DataMatrix(rng.standard_normal((30, 7))))
        x = centered.data.values
        for ridge in (0.0, 0.5):
            est = sample_covariance(centered, ridge=ridge)
            assert np.shares_memory(est.data, x) and not est.data.flags.writeable
            assert est.dim == 7 and est._matrix is None  # dim does not form the matrix
            eager = (x.T @ x) / 30
            eager = 0.5 * (eager + eager.T)
            if ridge > 0:
                eager = eager + ridge * np.eye(7)
            assert np.array_equal(est.matrix, eager)
            assert est.matrix is est.matrix  # formed once

    def test_estimate_from_matrix_or_data(self, rng):
        mat = np.eye(3)
        est = CovarianceEstimate(mat, 10, 0.1)
        assert est.matrix is mat and est.data is None and est.dim == 3
        with pytest.raises(InvalidInputError):
            CovarianceEstimate(sample_count=1)
        with pytest.raises(InvalidInputError):
            CovarianceEstimate(mat, 1, data=np.ones((1, 3)))

    def test_negative_ridge_rejected(self, rng):
        centered = center(DataMatrix(rng.standard_normal((5, 2))))
        with pytest.raises(InvalidInputError):
            sample_covariance(centered, ridge=-0.1)


class TestConcatRows:
    def test_stacks(self):
        a = DataMatrix([[1.0, 2.0]])
        b = DataMatrix([[3.0, 4.0], [5.0, 6.0]])
        out = concat_rows([a, b])
        assert out.m == 3
        assert out.labels is None

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            concat_rows([DataMatrix([[1.0]]), DataMatrix([[1.0, 2.0]])])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            concat_rows([])
