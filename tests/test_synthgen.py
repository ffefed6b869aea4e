"""Factor-model generators: degenerate cases, population covariance, recovery."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from dpca import methods, synthgen
from dpca.datamodel import center, sample_covariance
from dpca.errors import DimensionError, InvalidInputError


def tiny_spec(seed=0, noise=0.0, background_std=0.0, shared_std=0.0, specific_std=0.0):
    return synthgen.random_spec(6, 2, 1,
                                background_coeff_std=background_std,
                                shared_coeff_std=shared_std,
                                specific_coeff_std=specific_std,
                                noise_std=noise, seed=seed,
                                background_mean=np.arange(6.0),
                                target_mean=np.arange(6.0) + 10.0)


class TestSpecValidation:
    def test_subspace_budget(self):
        with pytest.raises(DimensionError):
            synthgen.random_spec(4, 3, 2, 1.0, 1.0, 1.0, 0.1)

    def test_bases_orthonormal(self):
        spec = synthgen.random_spec(12, 4, 2, 1.0, 1.0, 1.0, 0.1, seed=3)
        stacked = np.hstack([spec.shared_basis, spec.specific_basis])
        assert np.linalg.norm(stacked.T @ stacked - np.eye(6)) <= 1e-10

    def test_negative_std_rejected(self):
        with pytest.raises(InvalidInputError):
            synthgen.random_spec(6, 2, 1, -1.0, 1.0, 1.0, 0.1)

    @pytest.mark.parametrize("changes,error,message", [
        ({"shared_basis": np.zeros(6)}, DimensionError, "bases must be 2-D"),
        ({"specific_basis": np.zeros((5, 1))}, DimensionError, "common feature dimension"),
        ({"shared_basis": np.eye(3)[:, :2], "specific_basis": np.eye(3)[:, :2]}, DimensionError,
         r"subspace dims 2\+2 exceed feature dim 3"),
        ({"specific_basis": np.eye(6)[:, :1]}, InvalidInputError, "not orthonormal"),
        ({"target_mean": np.zeros(5)}, DimensionError, "target_mean must have length 6"),
        ({"noise_std": -0.5}, InvalidInputError, "noise_std must be nonnegative"),
    ], ids=["basis_not_2d", "bases_disagree", "too_many_dims", "not_orthonormal",
            "mean_length", "negative_noise"])
    def test_spec_built_directly_is_checked(self, changes, error, message):
        # random_spec builds valid bases, so these checks are reached only here
        spec = synthgen.FactorModelSpec(
            shared_basis=np.eye(6)[:, :2], specific_basis=np.eye(6)[:, 2:3],
            target_mean=np.zeros(6), background_mean=np.zeros(6),
            background_coeff_std=np.ones(2), shared_coeff_std=np.ones(2),
            specific_coeff_std=np.ones(1), noise_std=0.1)
        with pytest.raises(error, match=message):
            dataclasses.replace(spec, **changes)


class TestGenBackground:
    def test_degenerate_noiseless(self):
        spec = tiny_spec()
        data = synthgen.gen_background(spec, 5)
        np.testing.assert_allclose(data.values, np.tile(spec.background_mean, (5, 1)))

    def test_population_covariance(self):
        spec = synthgen.random_spec(10, 2, 1,
                                    background_coeff_std=[3.0, 2.0],
                                    shared_coeff_std=1.0, specific_coeff_std=1.0,
                                    noise_std=0.5, seed=7)
        data = synthgen.gen_background(spec, 20000)
        sample = sample_covariance(center(data)).matrix
        population = spec.background_population_covariance()
        rel = np.linalg.norm(sample - population) / np.linalg.norm(population)
        assert rel <= 0.05

    def test_seeded_reproducible(self):
        spec = synthgen.random_spec(5, 2, 1, 1.0, 1.0, 1.0, 0.3, seed=9)
        a = synthgen.gen_background(spec, 40)
        b = synthgen.gen_background(spec, 40)
        assert np.array_equal(a.values, b.values)

    def test_needs_samples(self):
        with pytest.raises(InvalidInputError):
            synthgen.gen_background(tiny_spec(), 0)


class TestGenTarget:
    def test_degenerate_single_cluster(self):
        spec = tiny_spec()
        data = synthgen.gen_target(spec, 4, [[0.0]])
        np.testing.assert_allclose(data.values, np.tile(spec.target_mean, (4, 1)))
        np.testing.assert_array_equal(data.labels, np.zeros(4))

    def test_balanced_labels(self):
        spec = tiny_spec(shared_std=1.0, specific_std=1.0, noise=0.1)
        for m in (10, 11):
            data = synthgen.gen_target(spec, m, [[1.0], [-1.0]])
            counts = np.bincount(data.labels, minlength=2)
            assert abs(counts[0] - counts[1]) <= 1

    def test_offset_dimension_checked(self):
        with pytest.raises(DimensionError):
            synthgen.gen_target(tiny_spec(), 10, [[1.0, 2.0]])

    @pytest.mark.parametrize("m,offsets", [(1, [[1.0], [-1.0]]), (4, np.zeros((0, 1)))],
                             ids=["more_clusters_than_rows", "no_cluster"])
    def test_cluster_count_checked(self, m, offsets):
        with pytest.raises(InvalidInputError, match="need 1 <= n_clusters <= m"):
            synthgen.gen_target(tiny_spec(), m, offsets)

    def test_seeded_reproducible(self):
        spec = tiny_spec(shared_std=1.0, specific_std=0.5, noise=0.2)
        a = synthgen.gen_target(spec, 30, [[1.0], [-1.0]])
        b = synthgen.gen_target(spec, 30, [[1.0], [-1.0]])
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.labels, b.labels)

    def test_population_covariance_single_cluster(self):
        spec = synthgen.random_spec(8, 2, 1,
                                    background_coeff_std=1.0,
                                    shared_coeff_std=[4.0, 2.0],
                                    specific_coeff_std=1.5,
                                    noise_std=0.5, seed=21)
        data = synthgen.gen_target(spec, 20000, [[0.0]])
        sample = sample_covariance(center(data)).matrix
        b, s = spec.shared_basis, spec.specific_basis
        population = ((b * spec.shared_coeff_std ** 2) @ b.T
                      + (s * spec.specific_coeff_std ** 2) @ s.T
                      + spec.noise_std ** 2 * np.eye(8))
        rel = np.linalg.norm(sample - population) / np.linalg.norm(population)
        assert rel <= 0.05


def background_expression(spec, n):
    """The background generator as one expression, on the same RNG stream."""
    rng = np.random.default_rng([spec.seed, 0])
    coeffs = rng.standard_normal((n, spec.n_shared)) * spec.background_coeff_std
    rows = spec.background_mean + coeffs @ np.asarray(spec.shared_basis).T
    if spec.noise_std > 0:
        rows = rows + spec.noise_std * rng.standard_normal((n, spec.n_features))
    return rows


def target_expression(spec, m, offsets):
    """The target generator as one expression, on the same RNG stream."""
    offsets = np.asarray(offsets, dtype=np.float64)
    rng = np.random.default_rng([spec.seed, 1])
    labels = np.arange(m) % offsets.shape[0]
    shared = rng.standard_normal((m, spec.n_shared)) * spec.shared_coeff_std
    specific = offsets[labels] + rng.standard_normal((m, spec.n_specific)) * spec.specific_coeff_std
    rows = (spec.target_mean
            + shared @ np.asarray(spec.shared_basis).T
            + specific @ np.asarray(spec.specific_basis).T)
    if spec.noise_std > 0:
        rows = rows + spec.noise_std * rng.standard_normal((m, spec.n_features))
    return rows, labels


class TestInPlaceSums:
    @pytest.mark.parametrize("noise", [0.0, 0.7])
    def test_bit_equal_to_the_expressions(self, noise):
        rng = np.random.default_rng(5)
        spec = synthgen.random_spec(30, 3, 2,
                                    background_coeff_std=[9.0, 5.0, 0.3],
                                    shared_coeff_std=[4.0, 2.0, 1e-3],
                                    specific_coeff_std=[1.5, 0.25],
                                    noise_std=noise, seed=17,
                                    target_mean=rng.standard_normal(30) * 1e3,
                                    background_mean=rng.standard_normal(30) * 1e-3)
        offsets = synthgen.spread_offsets(3, 2, 6.0)
        background = synthgen.gen_background(spec, 257)
        target = synthgen.gen_target(spec, 301, offsets)
        assert background.values.tobytes() == background_expression(spec, 257).tobytes()
        rows, labels = target_expression(spec, 301, offsets)
        assert target.values.tobytes() == rows.tobytes()
        assert np.array_equal(target.labels, labels)
        assert not background.values.flags.writeable and not target.values.flags.writeable


    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    def test_noise_drawn_in_blocks_is_the_whole_draw(self, monkeypatch, block_rows):
        # blocks of 1, 7 and 64 rows of 30 features, over 257 and 301 rows
        monkeypatch.setattr(synthgen, "_NOISE_BLOCK_BYTES", 8 * 30 * block_rows)
        self.test_bit_equal_to_the_expressions(0.7)


def test_background_holds_one_block_of_noise():
    # the table, its coefficients and one 1 MiB block of noise: 1.19x the
    # table measured, where drawing the noise whole took 2.19x
    spec = synthgen.default_subgroup_spec(n_features=50, seed=1)
    synthgen.gen_background(spec, 10)  # one-time allocations
    n = 20000
    tracemalloc.start()
    try:
        synthgen.gen_background(spec, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (8 * n * 50)


class TestSubgroupConstruction:
    def test_pca_misses_dpca_finds(self):
        # shared variance dominates: PCA locks onto it, the ratio does not
        spec = synthgen.default_subgroup_spec(n_features=50, n_shared=3, n_specific=1, seed=4)
        pair = synthgen.gen_pair(spec, 1500, 2000, synthgen.spread_offsets(2, 1, 6.0))
        ct, cb = center(pair.target), center(pair.background)
        cxx, cyy = sample_covariance(ct), sample_covariance(cb)
        u_s = spec.specific_basis[:, 0]
        pc1 = methods.pca_fit(cxx, 1).components[:, 0]
        dpc1 = methods.dpca_fit(cxx, cyy, 1).components[:, 0]
        assert abs(pc1 @ u_s) <= 0.3
        assert abs(dpc1 @ u_s) >= 0.95

    def test_spread_offsets(self):
        np.testing.assert_allclose(synthgen.spread_offsets(2, 1, 6.0), [[-6.0], [6.0]])
        np.testing.assert_allclose(synthgen.spread_offsets(1, 2, 3.0), [[0.0, 0.0]])
        three = synthgen.spread_offsets(3, 1, 4.0)
        np.testing.assert_allclose(three[:, 0], [-4.0, 0.0, 4.0])

    def test_spread_offsets_needs_a_cluster(self):
        with pytest.raises(InvalidInputError, match="need at least one cluster"):
            synthgen.spread_offsets(0, 1, 1.0)

    def test_gen_pair_bundles_truth(self):
        spec = tiny_spec(shared_std=1.0, specific_std=1.0, noise=0.1)
        pair = synthgen.gen_pair(spec, 12, 8, [[1.0], [-1.0]])
        assert pair.target.m == 12
        assert pair.background.m == 8
        assert pair.truth is spec
        assert pair.background.labels is None
