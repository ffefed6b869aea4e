import tracemalloc

import numpy as np
import pytest

from dpca import datamodel, fileio
from dpca.datamodel import (CovarianceEstimate, DataMatrix, center, concat_rows, fit_inputs,
                            sample_covariance)
from dpca.errors import DimensionError, InvalidInputError
from dpca.synthgen import default_subgroup_spec, gen_pair, spread_offsets


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


def table_pair(rng, backgrounds, width=6):
    """A labelled target and ``backgrounds`` tables, each with a constant feature."""
    def table(m, labels):
        values = rng.standard_normal((m, width)) * rng.uniform(0.5, 40.0, width) + 3.0
        values[:, 2] = 0.1  # constant: its pooled std rounds to a tiny nonzero value or 0
        return DataMatrix(values, rng.integers(0, 3, m) if labels else None)
    return table(40, True), [table(30 + 7 * i, False) for i in range(backgrounds)]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


CASES = pytest.mark.parametrize("backgrounds,zscore", [(0, False), (1, False), (2, False),
                                                       (0, True), (1, True), (2, True)])


class TestFitInputs:
    @CASES
    def test_default_writes_no_input(self, rng, backgrounds, zscore):
        target, parts = table_pair(rng, backgrounds)
        before = [d.values.copy() for d in (target, *parts)]
        inputs = fit_inputs(target, parts, ridge=0.5, zscore=zscore)
        for d, old in zip((target, *parts), before):
            assert same_bits(d.values, old)
            assert not d.values.flags.writeable
        expected = target.values / inputs.scale if zscore else target.values
        assert same_bits(inputs.target.values, expected)
        assert inputs.target.labels is target.labels

    @CASES
    def test_consume_gives_the_default_fit(self, rng, backgrounds, zscore):
        target, parts = table_pair(rng, backgrounds)
        copies = [DataMatrix(d.values, d.labels) for d in (target, *parts)]
        default = fit_inputs(copies[0], copies[1:], ridge=0.5, zscore=zscore)
        consumed = fit_inputs(target, parts, ridge=0.5, zscore=zscore, consume=True)
        assert (consumed.scale is None) == (default.scale is None)
        if zscore:
            assert same_bits(consumed.scale, default.scale)
        for mine, theirs in zip(consumed.means, default.means, strict=True):
            assert same_bits(mine, theirs)
        for mine, theirs in zip(consumed.covs, default.covs, strict=True):
            assert same_bits(mine.data, theirs.data)
            assert same_bits(mine.matrix, theirs.matrix)
        assert same_bits(consumed.target.values, default.target.values - default.means[0])
        assert np.array_equal(consumed.target.labels, target.labels)

    @pytest.mark.parametrize("zscore", [False, True])
    def test_consume_holds_each_table_once(self, rng, zscore):
        target, (background,) = table_pair(rng, 1)
        inputs = fit_inputs(target, [background], zscore=zscore, consume=True)
        # the tables themselves were centered, and are read-only again
        assert inputs.target.values is target.values
        assert inputs.covs[1].data.base is background.values
        assert not target.values.flags.writeable and not background.values.flags.writeable

    def test_consume_copies_what_it_cannot_own(self, rng):
        # a view of a caller's array, and one table given as target and background
        base = rng.standard_normal((50, 4))
        view = DataMatrix._adopt(base[10:])
        kept = base.copy()
        fit_inputs(view, [DataMatrix(base[:10])], zscore=True, consume=True)
        assert same_bits(base, kept)
        twice = DataMatrix(base)
        inputs = fit_inputs(twice, [twice], zscore=True, consume=True)
        assert same_bits(twice.values, kept)
        assert same_bits(inputs.covs[0].data, inputs.covs[1].data)

    def test_consume_keeps_the_overflow_check(self):
        # finite values whose difference from the mean is not
        target = DataMatrix([[1.7e308], [-1.7e308], [-1.7e308]])
        with np.errstate(over="ignore"), pytest.raises(InvalidInputError):
            fit_inputs(target, consume=True)
        assert not target.values.flags.writeable


class TestPooledStd:
    """The z-score's scale is ``np.vstack(tables).std(axis=0)``, bit for bit."""

    @pytest.mark.parametrize("block_rows", [None, 1, 7], ids=["whole", "one_row", "seven_rows"])
    @pytest.mark.parametrize("backgrounds", [1, 3])
    def test_equals_the_stacked_std(self, rng, monkeypatch, backgrounds, block_rows):
        target, parts = table_pair(rng, backgrounds, width=5)
        if block_rows is not None:  # blocks shorter than a table, crossing table ends
            monkeypatch.setattr(datamodel, "_STD_BLOCK_BYTES", 8 * 5 * block_rows)
        tables = [d.values for d in (target, *parts)]
        assert same_bits(datamodel._pooled_std(tables), np.vstack(tables).std(axis=0))

    def test_random_shapes(self, rng, monkeypatch):
        for _ in range(20):
            width = int(rng.integers(1, 12))
            tables = [rng.standard_normal((int(rng.integers(1, 200)), width)) * 1e3 - 5e2
                      for _ in range(int(rng.integers(1, 4)))]
            tables[0][:, 0] = -0.0  # the sum starts at +0.0; the std must not see it
            monkeypatch.setattr(datamodel, "_STD_BLOCK_BYTES", 8 * width * int(rng.integers(1, 50)))
            assert same_bits(datamodel._pooled_std(tables), np.vstack(tables).std(axis=0))


@pytest.mark.parametrize("zscore", [False, True])
def test_cli_load_path_holds_each_table_once(tmp_path, zscore):
    # read_csv twice, then fit_inputs consuming the tables, as the CLI's fit
    # and compare load them: the tables plus a finiteness mask (1.13x
    # measured, 1.15x z-scored), where centering copies of them took 2x
    pair = gen_pair(default_subgroup_spec(n_features=50, seed=1), 8000, 12000,
                    spread_offsets(2, 1, 6.0))
    fileio.write_data_csv(tmp_path / "t.csv", pair.target)
    fileio.write_data_csv(tmp_path / "b.csv", pair.background)
    tracemalloc.start()
    try:
        fit_inputs(fileio.read_csv(tmp_path / "t.csv"), [fileio.read_csv(tmp_path / "b.csv")],
                   zscore=zscore, consume=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (pair.target.values.nbytes + pair.background.values.nbytes)
