"""Fit methods: trivial examples, cross-route checks, and exhaustive oracles.

The simultaneous-diagonalization oracle builds covariance pairs with a known
common eigenbasis, ranks the candidate directions by brute force, and checks
the fits pick exactly those directions in that order.
"""

import dataclasses
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpca import eigencore as ec
from dpca import methods
from dpca.datamodel import CovarianceEstimate, DataMatrix, center, fit_inputs, sample_covariance
from dpca.errors import DimensionError, FloorAppliedWarning, InvalidInputError
from dpca.synthgen import default_subgroup_spec, gen_pair, spread_offsets

from conftest import PENCIL_SOLVERS, assert_same_model, random_orthogonal, random_spd


def cov(mat, ridge=0.0):
    return CovarianceEstimate(matrix=np.asarray(mat, dtype=np.float64),
                              sample_count=0, ridge_applied=ridge)


def whitened_reference(cxx, cyy, d, floor_rel=ec.DEFAULT_FLOOR_REL):
    """dPCA by explicit whiten-then-PCA with full eigendecompositions.

    The reference for ``dpca_fit``: it whitens the target covariance by the
    floored ``whitening_factor`` of the background, runs plain PCA on all
    ``D`` whitened directions, and maps the top ``d`` back. It never takes the
    Cholesky route, so ``dpca_fit`` must agree with it column-wise up to sign.
    """
    white = ec.whitening_factor(cyy.matrix, floor_rel)
    transformed = white.factor.T @ cxx.matrix @ white.factor
    transformed = 0.5 * (transformed + transformed.T)
    eig = ec.sym_eigendecompose(transformed)
    mapped = white.factor @ eig.eigenvectors[:, :d]
    mapped /= np.linalg.norm(mapped, axis=0)
    return methods.ComponentModel(
        method="dpca",
        components=ec.apply_sign_convention(mapped),
        eigenvalues=np.maximum(eig.eigenvalues[:d], 0.0),
        target_mean=np.zeros(cxx.dim),
        floor_rel=float(floor_rel),
    )


def assert_top_d_matches(model, ref_vals, ref_vecs):
    """Eigenvalues to 1e-12 relative (of the largest magnitude), same subspace."""
    scale = np.max(np.abs(ref_vals))
    np.testing.assert_allclose(model.eigenvalues, ref_vals, rtol=1e-12, atol=1e-12 * scale)
    assert methods.subspace_affinity(model.components, ref_vecs) >= 1 - 1e-10


def ladder_background(rng, dim, cond):
    """SPD matrix with log-spaced eigenvalues from 1 down to 1/cond."""
    q = random_orthogonal(rng, dim)
    mat = (q * np.logspace(0.0, -np.log10(cond), dim)) @ q.T
    return 0.5 * (mat + mat.T)


def diagonalizable_pair(rng, dim, min_ratio_gap=1e-3):
    """Simultaneously diagonalizable SPD pair with well-separated ratios."""
    while True:
        basis = random_orthogonal(rng, dim)
        lam_x = rng.uniform(0.5, 10.0, size=dim)
        lam_y = rng.uniform(0.5, 10.0, size=dim)
        ratios = lam_x / lam_y
        if np.min(np.abs(np.subtract.outer(ratios, ratios))[~np.eye(dim, dtype=bool)]) > min_ratio_gap:
            cxx = (basis * lam_x) @ basis.T
            cyy = (basis * lam_y) @ basis.T
            return cov(cxx), cov(cyy), basis, lam_x, lam_y


class TestPcaFit:
    def test_diagonal_top1(self):
        model = methods.pca_fit(cov(np.diag([1.0, 5.0, 2.0])), 1)
        assert model.method == "pca"
        np.testing.assert_allclose(model.eigenvalues, [5.0])
        np.testing.assert_allclose(model.components[:, 0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_full_basis_reconstructs(self, rng):
        a = random_spd(rng, 6)
        model = methods.pca_fit(cov(a), 6)
        recon = model.components @ np.diag(model.eigenvalues) @ model.components.T
        assert np.linalg.norm(recon - a) <= 1e-8 * np.linalg.norm(a)

    def test_matches_dense_reference(self, rng):
        # from order TOP_D_MIN_DIM up, d < D takes the subset eigensolver
        for dim in (9, 300):
            a = random_spd(rng, dim)
            vals, vecs = np.linalg.eigh(a)
            for d in (1, dim // 2, dim):
                model = methods.pca_fit(cov(a), d)
                assert_top_d_matches(model, vals[::-1][:d], vecs[:, ::-1][:, :d])

    def test_dimension_error(self, rng):
        with pytest.raises(DimensionError):
            methods.pca_fit(cov(random_spd(rng, 3)), 4)


class TestDpcaFit:
    def test_identity_background_equals_pca(self):
        cxx = cov(np.diag([1.0, 5.0, 2.0]))
        dpc = methods.dpca_fit(cxx, cov(np.eye(3)), 1)
        pc = methods.pca_fit(cxx, 1)
        assert abs(dpc.components[:, 0] @ pc.components[:, 0]) >= 1 - 1e-10

    def test_ratio_beats_variance_ordering(self):
        # plain PCA on the target alone would rank e2 first; the ratio flips it
        model = methods.dpca_fit(cov(np.diag([2.0, 8.0])), cov(np.diag([1.0, 16.0])), 2)
        np.testing.assert_allclose(model.eigenvalues, [2.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(np.abs(model.components), np.eye(2), atol=1e-9)

    def test_remark1_degeneration_random(self, rng):
        for _ in range(20):
            a = random_spd(rng, 8)
            dpc = methods.dpca_fit(cov(a), cov(np.eye(8)), 3)
            pc = methods.pca_fit(cov(a), 3)
            for j in range(3):
                assert abs(dpc.components[:, j] @ pc.components[:, j]) >= 1 - 1e-10

    def test_rayleigh_consistency(self, rng):
        a, b = random_spd(rng, 10), random_spd(rng, 10)
        model = methods.dpca_fit(cov(a), cov(b), 4)
        for j in range(4):
            u = model.components[:, j]
            ratio = (u @ a @ u) / (u @ b @ u)
            assert ratio == pytest.approx(model.eigenvalues[j], rel=1e-8)

    def test_orthonormalize_flag(self, rng):
        a, b = random_spd(rng, 8), random_spd(rng, 8)
        plain = methods.dpca_fit(cov(a), cov(b), 3)
        ortho = methods.dpca_fit(cov(a), cov(b), 3, orthonormalize=True)
        gram = ortho.components.T @ ortho.components
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)
        # same leading direction, same spanned subspace
        assert abs(ortho.components[:, 0] @ plain.components[:, 0]) >= 1 - 1e-10
        proj = plain.components @ np.linalg.lstsq(plain.components, ortho.components, rcond=None)[0]
        np.testing.assert_allclose(proj, ortho.components, atol=1e-8)

    def test_data_covariance_dims_must_agree(self, rng):
        target, background = (sample_covariance(center(DataMatrix(rng.standard_normal((10, k)))))
                               for k in (5, 6))
        with pytest.raises(DimensionError, match="covariance dims disagree: 5 vs 6"):
            methods.dpca_fit(target, background, 1)

    def test_mean_recorded(self, rng):
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        mean = np.arange(4.0)
        model = methods.dpca_fit(cov(a), cov(b), 2, target_mean=mean, background_mean=-mean)
        np.testing.assert_array_equal(model.target_mean, mean)
        np.testing.assert_array_equal(model.background_mean, -mean)

    def test_floor_warning_names_ridge(self, rng):
        # n = 100 background samples in D = 200: only the floor keeps the
        # background invertible, and a ridge removes the need for it
        target = center(DataMatrix(rng.standard_normal((300, 200))))
        background = center(DataMatrix(rng.standard_normal((100, 200))))
        cxx = sample_covariance(target)
        with pytest.warns(FloorAppliedWarning, match="ridge"):
            methods.dpca_fit(cxx, sample_covariance(background), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", FloorAppliedWarning)
            methods.dpca_fit(sample_covariance(target, ridge=1.0),
                             sample_covariance(background, ridge=1.0), 2)


    def test_floor_warning_through_fit_names_the_caller(self, rng):
        # 5 background rows in 20 features: the floor is applied. Under the
        # default filter a warning shows once per location, so two call
        # sites here show two warnings only when each names its own line.
        inputs = fit_inputs(DataMatrix(rng.standard_normal((40, 20))),
                            [DataMatrix(rng.standard_normal((5, 20)))])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            methods.fit("dpca", inputs, 2)
            methods.fit("dpca", inputs, 2)
        assert [w.category for w in caught] == [FloorAppliedWarning] * 2
        assert {w.filename for w in caught} == {__file__}
        assert caught[0].lineno != caught[1].lineno


class TestDpcaWhitenedRoute:
    def test_identity_background_reduces_to_pca(self, rng):
        a = random_spd(rng, 6)
        wh = whitened_reference(cov(a), cov(np.eye(6)), 2)
        pc = methods.pca_fit(cov(a), 2)
        for j in range(2):
            assert abs(wh.components[:, j] @ pc.components[:, j]) >= 1 - 1e-9

    def test_agrees_with_pencil_route(self, rng):
        cases = [
            (cov(np.diag([2.0, 8.0])), cov(np.diag([1.0, 16.0])), 2),
            (cov(np.diag([1.0, 5.0, 2.0])), cov(np.eye(3)), 1),
        ]
        for _ in range(10):
            dim = int(rng.integers(3, 12))
            cases.append((cov(random_spd(rng, dim)), cov(random_spd(rng, dim)), 3 if dim >= 3 else 1))
        for cxx, cyy, d in cases:
            one = methods.dpca_fit(cxx, cyy, d)
            two = whitened_reference(cxx, cyy, d)
            np.testing.assert_allclose(one.eigenvalues, two.eigenvalues, rtol=1e-9, atol=1e-12)
            for j in range(d):
                assert abs(one.components[:, j] @ two.components[:, j]) >= 1 - 1e-8


class TestConditionLadder:
    """Both pencil routes on backgrounds from well- to ill-conditioned.

    With the default floor 1e-10, cond(B) = 1 and 1e4 take the Cholesky
    route from order TOP_D_MIN_DIM up; 1e8 stays above the floor but inside
    the Cholesky route's 1e3 margin, so it takes the whitening route
    unfloored; 1e12 is floored.
    """

    @pytest.mark.parametrize("dim", [5, 50, 300])
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8, 1e12])
    def test_routes_agree_with_references(self, rng, monkeypatch, dim, cond):
        whitenings = []
        real_whitening = ec._whitening

        def counted(*args, **kwargs):
            whitenings.append(args)
            return real_whitening(*args, **kwargs)

        a, b = random_spd(rng, dim), ladder_background(rng, dim, cond)
        d = min(3, dim)
        monkeypatch.setattr(ec, "_whitening", counted)
        pairs = ec.generalized_eig(a, b, d)
        monkeypatch.undo()

        cholesky_route = dim >= ec.TOP_D_MIN_DIM and cond < 1e8
        assert len(whitenings) == (0 if cholesky_route else 1)
        assert pairs.floor_applied == (cond > 1 / ec.DEFAULT_FLOOR_REL)
        ref = whitened_reference(cov(a), cov(b), d)
        np.testing.assert_allclose(pairs.eigenvalues, ref.eigenvalues, rtol=1e-10)
        for j in range(d):
            assert abs(pairs.eigenvectors[:, j] @ ref.components[:, j]) >= 1 - 1e-10
        if not pairs.floor_applied:
            # LAPACK's own Cholesky route; generalized eigenvalues are
            # accurate to about eps * cond(B) relative
            dense = scipy.linalg.eigh(a, b, eigvals_only=True)[::-1][:d]
            rtol = max(1e-12, 100 * np.finfo(float).eps * cond)
            np.testing.assert_allclose(pairs.eigenvalues, dense, rtol=rtol)

    @pytest.mark.parametrize("dim", [50, 300])
    def test_rank_deficient_background_matches_reference(self, rng, dim):
        target = center(DataMatrix(rng.standard_normal((2 * dim, dim))))
        background = center(DataMatrix(rng.standard_normal((dim // 2, dim))))
        cxx, cyy = sample_covariance(target), sample_covariance(background)
        with pytest.warns(FloorAppliedWarning):
            model = methods.dpca_fit(cxx, cyy, 3)
        ref = whitened_reference(cxx, cyy, 3)
        np.testing.assert_allclose(model.eigenvalues, ref.eigenvalues, rtol=1e-10)
        for j in range(3):
            assert abs(model.components[:, j] @ ref.components[:, j]) >= 1 - 1e-10


class TestCpcaFit:
    def test_alpha_zero_is_pca(self, rng):
        a, b = random_spd(rng, 7), random_spd(rng, 7)
        cpc = methods.cpca_fit(cov(a), cov(b), 0.0, 3)
        pc = methods.pca_fit(cov(a), 3)
        np.testing.assert_allclose(cpc.eigenvalues, pc.eigenvalues, rtol=1e-12)
        np.testing.assert_allclose(cpc.components, pc.components, atol=1e-12)
        assert cpc.alpha == 0.0

    def test_diagonal_arithmetic(self):
        model = methods.cpca_fit(cov(np.diag([2.0, 8.0])), cov(np.diag([1.0, 16.0])), 1.0, 2)
        np.testing.assert_allclose(model.eigenvalues, [1.0, -8.0], atol=1e-12)
        np.testing.assert_allclose(model.components[:, 0], [1.0, 0.0], atol=1e-12)

    def test_algebraic_not_magnitude_ordering(self):
        # top eigenvalue is 1 even though |-8| is larger
        model = methods.cpca_fit(cov(np.diag([2.0, 8.0])), cov(np.diag([1.0, 16.0])), 1.0, 1)
        assert model.eigenvalues[0] == pytest.approx(1.0)

    def test_equivalence_at_pencil_eigenvalue(self, rng):
        for _ in range(20):
            a, b = random_spd(rng, 8), random_spd(rng, 8)
            pairs = ec.generalized_eig(a, b, 2)
            if pairs.eigenvalues[0] - pairs.eigenvalues[1] < 1e-3 * pairs.eigenvalues[0]:
                continue  # equivalence needs a unique top pair
            top_dpc = methods.dpca_fit(cov(a), cov(b), 1).components[:, 0]
            top_cpc = methods.cpca_fit(cov(a), cov(b), float(pairs.eigenvalues[0]), 1).components[:, 0]
            assert abs(top_dpc @ top_cpc) >= 1 - 1e-8

    def test_matches_dense_reference_indefinite(self, rng):
        for dim in (9, 300):
            a, b = random_spd(rng, dim), random_spd(rng, dim)
            vals, vecs = np.linalg.eigh(a - 2.0 * b)
            assert vals[0] < 0 < vals[-1]  # indefinite contrast; d = D includes negatives
            for d in (1, dim // 2, dim):
                model = methods.cpca_fit(cov(a), cov(b), 2.0, d)
                assert_top_d_matches(model, vals[::-1][:d], vecs[:, ::-1][:, :d])

    def test_negative_alpha_rejected(self, rng):
        a = random_spd(rng, 3)
        with pytest.raises(InvalidInputError):
            methods.cpca_fit(cov(a), cov(a), -1.0, 1)


class TestDiagonalizableOracle:
    def test_dpca_picks_largest_ratios(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 11))
            d = int(min(3, dim))
            cxx, cyy, basis, lam_x, lam_y = diagonalizable_pair(rng, dim)
            model = methods.dpca_fit(cxx, cyy, d)
            ranking = np.argsort(-(lam_x / lam_y))
            np.testing.assert_allclose(model.eigenvalues, (lam_x / lam_y)[ranking[:d]], rtol=1e-8)
            for j in range(d):
                assert abs(model.components[:, j] @ basis[:, ranking[j]]) >= 1 - 1e-8

    def test_cpca_picks_largest_differences(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 11))
            d = int(min(3, dim))
            cxx, cyy, basis, lam_x, lam_y = diagonalizable_pair(rng, dim)
            alpha = float(rng.uniform(0.0, 5.0))
            scores = lam_x - alpha * lam_y
            gaps = np.abs(np.subtract.outer(scores, scores))[~np.eye(dim, dtype=bool)]
            if gaps.min() < 1e-6:
                continue  # reject near-tied scores
            model = methods.cpca_fit(cxx, cyy, alpha, d)
            ranking = np.argsort(-scores)
            np.testing.assert_allclose(model.eigenvalues, scores[ranking[:d]], rtol=1e-8, atol=1e-10)
            for j in range(d):
                assert abs(model.components[:, j] @ basis[:, ranking[j]]) >= 1 - 1e-8


class TestAlphaSelection:
    def test_grid_selection_count(self, rng):
        a, b = random_spd(rng, 6), random_spd(rng, 6)
        grid = np.geomspace(0.001, 1000, 15)
        sel = methods.cpca_select_alphas(cov(a), cov(b), grid, 2, 4, seed=0)
        assert sel.selected.shape == (4,)
        assert set(sel.selected).issubset(set(grid))
        assert sel.affinity.shape == (15, 15)
        np.testing.assert_allclose(sel.affinity, sel.affinity.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(sel.affinity), 1.0, atol=1e-12)
        assert np.all((sel.affinity >= 0) & (sel.affinity <= 1))

    def test_duplicate_grid(self, rng):
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        sel = methods.cpca_select_alphas(cov(a), cov(b), [2.0, 2.0], 1, 2, seed=0)
        np.testing.assert_allclose(sel.affinity, np.ones((2, 2)), atol=1e-10)
        assert sel.selected.shape == (2,)
        np.testing.assert_allclose(sel.selected, [2.0, 2.0])

    def test_proportional_backgrounds_cluster_by_sign(self, rng):
        # with C_yy = c*C_xx every alpha on the same side of 1/c yields the
        # same subspace: top-d of C_xx below, bottom-d above
        a = random_spd(rng, 5)
        c = 2.0
        grid = [0.01, 0.1, 10.0, 100.0]  # two below 1/c = 0.5, two above
        sel = methods.cpca_select_alphas(cov(a), cov(c * a), grid, 2, 2, seed=0)
        assert sel.affinity[0, 1] >= 1 - 1e-8
        assert sel.affinity[2, 3] >= 1 - 1e-8
        # brute-force check of the subspaces on this small dimension
        vals, vecs = np.linalg.eigh(a)
        top = vecs[:, ::-1][:, :2]
        bottom = vecs[:, :2]
        low_alpha = methods.cpca_fit(cov(a), cov(c * a), 0.01, 2).components
        high_alpha = methods.cpca_fit(cov(a), cov(c * a), 100.0, 2).components
        assert methods.subspace_affinity(low_alpha, top) >= 1 - 1e-8
        assert methods.subspace_affinity(high_alpha, bottom) >= 1 - 1e-8

    def test_empty_cluster_takes_the_most_central_candidate(self, rng, monkeypatch):
        a, b = random_spd(rng, 5), random_spd(rng, 5)
        grid = np.geomspace(0.01, 100, 7)
        monkeypatch.setattr(methods, "spectral_cluster",
                            lambda affinity, k, seed=0: np.zeros(len(affinity), dtype=int))
        sel = methods.cpca_select_alphas(cov(a), cov(b), grid, 2, 2, seed=0)
        central = grid[np.argmax(sel.affinity.sum(axis=1))]
        assert sel.selected.tolist() == [central, central]

    def test_selection_errors(self, rng):
        a = random_spd(rng, 3)
        with pytest.raises(InvalidInputError):
            methods.cpca_select_alphas(cov(a), cov(a), [1.0], 1, 2)
        with pytest.raises(InvalidInputError):
            methods.cpca_select_alphas(cov(a), cov(a), [], 1, 1)

    def test_deterministic(self, rng):
        a, b = random_spd(rng, 5), random_spd(rng, 5)
        grid = np.geomspace(0.01, 100, 9)
        one = methods.cpca_select_alphas(cov(a), cov(b), grid, 2, 3, seed=11)
        two = methods.cpca_select_alphas(cov(a), cov(b), grid, 2, 3, seed=11)
        assert np.array_equal(one.selected, two.selected)
        assert np.array_equal(one.cluster_assignment, two.cluster_assignment)

    # dense; wide, reduced to orders 103 and 303, both in scipy
    @pytest.mark.parametrize("dim,m,n", [(20, 200, 300), (300, 40, 60), (700, 100, 200)])
    def test_selected_pairs_equal_cpca_fit(self, rng, dim, m, n):
        cxx, cyy = TestWideDataReduction.wide_pair(rng, dim, m, n, (1.0, 1.0))
        sel = methods.cpca_select_alphas(cxx, cyy, np.geomspace(0.001, 1000, 15), 3, 4, seed=0)
        assert len(sel.components) == len(sel.eigenvalues) == sel.selected.size
        for alpha, components, values in zip(sel.selected, sel.components, sel.eigenvalues):
            model = methods.cpca_fit(cxx, cyy, float(alpha), 3)
            assert np.array_equal(components, model.components)
            assert np.array_equal(values, model.eigenvalues)


# a dense fit; and a wide one with a ridge, reduced to the span of its samples
FIT_SHAPES = pytest.mark.parametrize("dim,m,n,ridge", [(20, 150, 200, 0.0), (300, 30, 60, 1.0)],
                                     ids=["dense", "wide"])


class TestFit:
    """``methods.fit`` makes the direct call of its method on the inputs' covariances and means."""

    @staticmethod
    def inputs(dim=20, m=150, n=200, ridge=0.0, backgrounds=1):
        pair = gen_pair(default_subgroup_spec(n_features=dim, seed=2), m, n,
                        spread_offsets(2, 1, 6.0))
        return fit_inputs(pair.target, [pair.background] * backgrounds, ridge=ridge)

    @FIT_SHAPES
    @pytest.mark.parametrize("method,backgrounds,kwargs", [
        ("pca", 0, {}),
        ("pca", 1, {}),  # the background is left out, as compare's PCA leaves it
        ("dpca", 1, {}),
        ("dpca", 1, {"floor_rel": 1e-6}),
        ("cpca", 1, {"alpha": 2.5}),
    ])
    def test_equals_the_direct_call(self, dim, m, n, ridge, method, backgrounds, kwargs):
        inputs = self.inputs(dim, m, n, ridge, backgrounds)
        covs, means = inputs.covs, inputs.means
        (model,) = methods.fit(method, inputs, 2, **kwargs)
        if method == "pca":
            direct = methods.pca_fit(covs[0], 2, target_mean=means[0])
        elif method == "dpca":
            direct = methods.dpca_fit(covs[0], covs[1], 2, target_mean=means[0],
                                      background_mean=means[1], **kwargs)
        else:
            direct = methods.cpca_fit(covs[0], covs[1], 2.5, 2, means[0], means[1])
        assert_same_model(model, direct)

    @FIT_SHAPES
    @pytest.mark.parametrize("method,kwargs", [("pca", {}), ("dpca", {}),
                                               ("cpca", {"alpha": 2.5}),
                                               ("cpca", {"grid": [0.1, 1.0, 10.0], "select": 2})])
    def test_zscored_model_carries_the_scale(self, dim, m, n, ridge, method, kwargs):
        pair = gen_pair(default_subgroup_spec(n_features=dim, seed=2), m, n,
                        spread_offsets(2, 1, 6.0))
        inputs = fit_inputs(pair.target, [pair.background], ridge=ridge, zscore=True)
        models = methods.fit(method, inputs, 2, **kwargs)
        if method == "pca":
            direct = [methods.pca_fit(inputs.covs[0], 2, target_mean=inputs.means[0])]
        elif method == "dpca":
            direct = [methods.dpca_fit(*inputs.covs, 2, target_mean=inputs.means[0],
                                       background_mean=inputs.means[1])]
        else:
            direct = [methods.cpca_fit(*inputs.covs, model.alpha, 2, *inputs.means)
                      for model in models]
        assert len(models) == len(direct)
        for model, plain in zip(models, direct):
            assert model.feature_scale.tobytes() == inputs.scale.tobytes()
            assert plain.feature_scale is None
            assert_same_model(dataclasses.replace(model, feature_scale=None), plain)

    @FIT_SHAPES
    def test_auto_alpha_gives_a_model_per_selected_alpha(self, dim, m, n, ridge):
        inputs = self.inputs(dim, m, n, ridge)
        grid = np.geomspace(0.001, 1000, 15)
        models = methods.fit("cpca", inputs, 2, grid=grid, select=3, seed=1)
        selection = methods.cpca_select_alphas(*inputs.covs, grid, 2, 3, seed=1)
        assert [model.alpha for model in models] == selection.selected.tolist()
        for model in models:
            assert_same_model(model, methods.cpca_fit(*inputs.covs, model.alpha, 2, *inputs.means))

    def test_errors_come_before_any_fit(self, monkeypatch):
        inputs, target_only = self.inputs(), self.inputs(backgrounds=0)
        # every fit validates its covariances there first
        monkeypatch.setattr(methods, "_data_span", lambda *args: pytest.fail("a fit started"))
        with pytest.raises(InvalidInputError, match="unknown method 'ica'"):
            methods.fit("ica", inputs, 2)
        for method in ("dpca", "cpca"):
            with pytest.raises(InvalidInputError, match=f"{method} needs background data"):
                methods.fit(method, target_only, 2, alpha=1.0)
        # cPCA with neither an alpha nor a grid: the selection's own error
        with pytest.raises(InvalidInputError, match="alpha grid must be a nonempty 1-D sequence"):
            methods.fit("cpca", inputs, 2)


class TestWideDataReduction:
    """Fits on wide data (k + d <= D/2, D >= 256) against dense solves of the D x D matrices.

    The reduction solves at order k + d (k the total sample count), in
    scipy whatever that order; the references call ``sym_eigendecompose`` /
    ``generalized_eig`` on the full covariance matrices.
    """

    # K = k + d for dPCA/cPCA: 103, 253 and 303; for PCA 43, 103 and 263
    SHAPES = [(300, 40, 60), (600, 100, 150), (700, 260, 40)]
    RIDGES = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1e-3, 0.0)]

    @staticmethod
    def wide_pair(rng, dim, m, n, ridges):
        # distinct column scales give the target a spectrum with clear gaps
        target = rng.standard_normal((m, dim)) * np.linspace(3.0, 0.5, dim)
        background = rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0, dim)
        cxx = sample_covariance(center(DataMatrix(target)), ridge=ridges[0])
        cyy = sample_covariance(center(DataMatrix(background)), ridge=ridges[1])
        return cxx, cyy

    @staticmethod
    def solve_orders(monkeypatch):
        """Record ``(name, order)`` of every symmetric eigensolve and leaf pencil solve.

        ``_top_pairs`` is the one eigensolve: a PCA/cPCA fit, dense (through
        ``sym_eigendecompose``) or reduced, records it alone, and a dPCA fit
        records its leaf and then the leaf's eigensolve.
        """
        orders = []
        for name in ("_top_pairs",) + PENCIL_SOLVERS:
            real = getattr(ec, name)

            def spy(mat, *args, real=real, name=name, **kwargs):
                orders.append((name, np.shape(mat)[0]))
                return real(mat, *args, **kwargs)

            monkeypatch.setattr(ec, name, spy)
        return orders

    @staticmethod
    def leaves(orders):
        return [name for name, _ in orders if name in PENCIL_SOLVERS]

    @pytest.mark.parametrize("dim,m,n", SHAPES)
    @pytest.mark.parametrize("ridges", RIDGES)
    def test_dpca_and_pca_match_dense(self, rng, monkeypatch, dim, m, n, ridges):
        cxx, cyy = self.wide_pair(rng, dim, m, n, ridges)
        d = 3
        orders = self.solve_orders(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dpc = methods.dpca_fit(cxx, cyy, d)
        # at every reduced order, a background ridge lets the fit solve from R
        assert self.leaves(orders) == ["_whitened_span_eig" if ridges[1] > 0
                                       else "_floored_whitening_eig"]
        assert {order for _, order in orders} == {m + n + d}  # solved at the reduced order
        del orders[:]
        pc = methods.pca_fit(cxx, d)
        monkeypatch.undo()
        assert orders == [("_top_pairs", m + d)]

        ref = ec.generalized_eig(cxx.matrix, cyy.matrix, d)
        floor_warnings = [w for w in caught if issubclass(w.category, FloorAppliedWarning)]
        assert len(floor_warnings) == int(ref.floor_applied)
        assert ref.floor_applied == (ridges[1] == 0.0)
        np.testing.assert_allclose(dpc.eigenvalues, ref.eigenvalues, rtol=1e-12)
        # pencil eigenvectors are B-orthogonal: compare the spans they orthonormalize to
        spans = [np.linalg.qr(vecs)[0] for vecs in (dpc.components, ref.eigenvectors)]
        assert methods.subspace_affinity(*spans) >= 1 - 1e-10
        assert methods.pencil_residual(dpc, cxx, cyy) <= 1e-10

        dense = ec.sym_eigendecompose(cxx.matrix, d)
        assert_top_d_matches(pc, dense.eigenvalues, dense.eigenvectors)

    @pytest.mark.parametrize("dim,m,n", SHAPES)
    @pytest.mark.parametrize("ridges", RIDGES)
    def test_cpca_matches_dense(self, rng, monkeypatch, dim, m, n, ridges):
        cxx, cyy = self.wide_pair(rng, dim, m, n, ridges)
        d = 3
        for alpha in (0.0, 1.0, 1000.0):
            orders = self.solve_orders(monkeypatch)
            model = methods.cpca_fit(cxx, cyy, alpha, d)
            monkeypatch.undo()
            assert orders == [("_top_pairs", m + n + d)]
            dense = ec.sym_eigendecompose(cxx.matrix - alpha * cyy.matrix, d)
            assert_top_d_matches(model, dense.eigenvalues, dense.eigenvectors)

    # K = 263 and 303, with 200 and 40 background rows: both in scipy
    BLOCK_SHAPES = [(600, 60, 200), (700, 260, 40)]

    @pytest.mark.parametrize("dim,m,n", BLOCK_SHAPES)
    @pytest.mark.parametrize("ridge", [1e-6, 1e-3, 1.0, 100.0])
    def test_dpca_block_route_matches_dense_eigh(self, rng, monkeypatch, dim, m, n, ridge):
        cxx, cyy = self.wide_pair(rng, dim, m, n, (1.0, ridge))
        d = 3
        orders = self.solve_orders(monkeypatch)
        dpc = methods.dpca_fit(cxx, cyy, d)
        monkeypatch.undo()
        # at r_b = 1e-6, rcond(B) ~ r_b / ||B11||_1 falls inside the margin 1e3 * floor_rel
        assert self.leaves(orders) == ["_floored_whitening_eig" if ridge < 1e-3
                                       else "_whitened_span_eig"]
        assert {order for _, order in orders} == {m + n + d}
        a, b = cxx.matrix, cyy.matrix
        dense = scipy.linalg.eigh(a, b, eigvals_only=True, subset_by_index=[dim - d, dim - 1])
        rtol = max(1e-12, np.finfo(float).eps * np.linalg.cond(b))
        np.testing.assert_allclose(dpc.eigenvalues, dense[::-1], rtol=rtol)
        assert methods.pencil_residual(dpc, cxx, cyy) <= 1e-10

    @pytest.mark.parametrize("dim,m,n,factored", [(700, 260, 40, 40), (600, 60, 200, 200),
                                                  (300, 100, 60, 300)])
    def test_cholesky_factors_the_background_block(self, rng, monkeypatch, dim, m, n, factored):
        # reduced: the background's own n x n block; dense (163 > 300 / 2): all D features
        cxx, cyy = self.wide_pair(rng, dim, m, n, (1.0, 1.0))
        orders = []
        real = scipy.linalg.cho_factor

        def spy(mat, *args, **kwargs):
            orders.append(np.shape(mat))
            return real(mat, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", spy)
        methods.dpca_fit(cxx, cyy, 3)
        monkeypatch.undo()
        assert orders == [(factored, factored)]

    def test_complement_eigenvalue_in_top_d(self, rng, monkeypatch):
        # 20 background rows: dPCA and cPCA solve at order 28, in scipy
        self.check_complement_eigenvalue_in_top_d(rng, monkeypatch, 300, 20)

    def test_complement_eigenvalue_in_top_d_on_reflector_route(self, rng, monkeypatch):
        # 260 background rows: dPCA and cPCA solve at order 268, in scipy
        self.check_complement_eigenvalue_in_top_d(rng, monkeypatch, 600, 260)

    def check_complement_eigenvalue_in_top_d(self, rng, monkeypatch, dim, n):
        # 3 target rows span 2 directions; every other direction, in the
        # sample span or not, has the complement eigenvalue, which fills the
        # rest of the top 5 (k = 3 < d for PCA)
        d = 5
        cxx = sample_covariance(center(DataMatrix(rng.standard_normal((3, dim)))), ridge=10.0)
        cyy = sample_covariance(center(DataMatrix(rng.standard_normal((n, dim)))), ridge=1.0)
        orders = self.solve_orders(monkeypatch)
        pc = methods.pca_fit(cxx, d)
        dpc = methods.dpca_fit(cxx, cyy, d)
        cpc = methods.cpca_fit(cxx, cyy, 1000.0, d)
        monkeypatch.undo()
        assert {order for _, order in orders} == {3 + d, 3 + n + d}
        assert self.leaves(orders) == ["_whitened_span_eig"]  # with the background ridge 1

        a, b = cxx.matrix, cyy.matrix
        pca_ref = ec.sym_eigendecompose(a, d).eigenvalues
        np.testing.assert_allclose(pc.eigenvalues, pca_ref, rtol=1e-12)
        np.testing.assert_allclose(pc.eigenvalues[2:], 10.0, rtol=1e-12)
        assert np.linalg.norm(a @ pc.components - pc.components * pc.eigenvalues) <= 1e-12 * np.linalg.norm(a)
        dpca_ref = ec.generalized_eig(a, b, d).eigenvalues
        np.testing.assert_allclose(dpc.eigenvalues, dpca_ref, rtol=1e-12)
        np.testing.assert_allclose(dpc.eigenvalues[2:], 10.0, rtol=1e-12)
        assert methods.pencil_residual(dpc, cxx, cyy) <= 1e-12
        cpca_ref = ec.sym_eigendecompose(a - 1000.0 * b, d).eigenvalues
        np.testing.assert_allclose(cpc.eigenvalues, cpca_ref, rtol=1e-12)
        np.testing.assert_allclose(cpc.eigenvalues[2:], 10.0 - 1000.0, rtol=1e-12)

    @pytest.mark.parametrize("dim,m,n", SHAPES)
    def test_select_alphas_matches_dense(self, rng, monkeypatch, dim, m, n):
        cxx, cyy = self.wide_pair(rng, dim, m, n, (1.0, 1.0))
        grid = np.geomspace(0.001, 1000, 15)
        reductions = []
        real_reduce = methods._reduce_to_data_span

        def counted(*args):
            reductions.append(args)
            return real_reduce(*args)

        monkeypatch.setattr(methods, "_reduce_to_data_span", counted)
        sel = methods.cpca_select_alphas(cxx, cyy, grid, 2, 4, seed=0)
        monkeypatch.undo()
        assert len(reductions) == 1  # once for the whole grid
        dense = methods.cpca_select_alphas(cov(cxx.matrix, 1.0), cov(cyy.matrix, 1.0),
                                           grid, 2, 4, seed=0)
        np.testing.assert_allclose(sel.affinity, dense.affinity, atol=1e-10)
        np.testing.assert_array_equal(sel.selected, dense.selected)

    @pytest.mark.parametrize("dim,n,library", [(600, 152, "scipy"), (600, 153, "scipy"),
                                               (255, 20, "none")])
    def test_qr_library_follows_the_feature_count(self, rng, monkeypatch, dim, n, library):
        # in 600 features the QR runs in scipy at K = 100 + n + 3 = 255 as at
        # 256 = ec.TOP_D_MIN_DIM; in 255 features a fit as wide (K = 123 <=
        # 255 / 2) runs in numpy, dense, with no QR
        cxx, cyy = self.wide_pair(rng, dim, 100, n, (1.0, 1.0))
        calls = []
        spied = ((np.linalg, "qr", "numpy"), (scipy.linalg.lapack, "dgeqrt", "scipy"))
        for module, attr, name in spied:
            def spy(*args, real=getattr(module, attr), name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, attr, spy)
        dpc = methods.dpca_fit(cxx, cyy, 3)
        monkeypatch.undo()
        assert calls == ([] if library == "none" else [library])
        ref = ec.generalized_eig(cxx.matrix, cyy.matrix, 3)
        np.testing.assert_allclose(dpc.eigenvalues, ref.eigenvalues, rtol=1e-12)
        spans = [np.linalg.qr(vecs)[0] for vecs in (dpc.components, ref.eigenvectors)]
        assert methods.subspace_affinity(*spans) >= 1 - 1e-10

    @pytest.mark.parametrize("ridge", [1.0, 0.0])
    def test_every_step_of_a_wide_fit_runs_in_scipy(self, rng, monkeypatch, ridge):
        # 600 features reduce to K = 60 + 140 + 2 = 202 (PCA: 62), below
        # ec.TOP_D_MIN_DIM: the QR is geqrt and each eigensolve scipy's, top-d
        # subset or, for the floored whitening of the reduced background
        # (no ridge), full; numpy's QR and eigh are never called
        cxx, cyy = self.wide_pair(rng, 600, 60, 140, (ridge, ridge))
        calls = []
        spied = ((np.linalg, "qr"), (np.linalg, "eigh"), (scipy.linalg.lapack, "dgeqrt"),
                 (scipy.linalg, "eigh"))
        for module, attr in spied:
            def spy(*args, real=getattr(module, attr), name=f"{module.__name__}.{attr}",
                    **kwargs):
                calls.append(name + (".subset" if "subset_by_index" in kwargs else ""))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, attr, spy)
        fits = {"pca": lambda: methods.pca_fit(cxx, 2),
                "cpca": lambda: methods.cpca_fit(cxx, cyy, 3.0, 2),
                "dpca": lambda: methods.dpca_fit(cxx, cyy, 2)}
        traced = {}
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            for name, fit in fits.items():
                del calls[:]
                fit()
                traced[name] = list(calls)
        monkeypatch.undo()
        qr, subset = "scipy.linalg.lapack.dgeqrt", "scipy.linalg.eigh.subset"
        whitening = [] if ridge else ["scipy.linalg.eigh"]
        assert traced == {"pca": [qr, subset], "cpca": [qr, subset],
                          "dpca": [qr, *whitening, subset]}

    def test_reflector_route_never_forms_q(self, rng, monkeypatch):
        # PCA at order 263, cPCA and dPCA at 303: Q stays as reflectors
        cxx, cyy = self.wide_pair(rng, 700, 260, 40, (1.0, 1.0))

        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.qr reached on the reflector route")

        monkeypatch.setattr(np.linalg, "qr", forbidden)
        methods.pca_fit(cxx, 3)
        methods.cpca_fit(cxx, cyy, 1.0, 3)
        methods.dpca_fit(cxx, cyy, 3)
        methods.cpca_select_alphas(cxx, cyy, np.geomspace(0.001, 1000, 5), 3, 2)

    @pytest.mark.parametrize("ridge", [1.0, 1e-3])
    def test_nearly_collinear_samples_on_reflector_route(self, rng, monkeypatch, ridge):
        # every row twice, the copy moved by 1e-8: R of the QR is nearly
        # rank-deficient, and K = 130 + 150 + 3 = 283 takes the reflector route
        dim, d = 700, 3

        def doubled(rows, scale):
            x = rng.standard_normal((rows, dim)) * scale
            return np.vstack([x, x + 1e-8 * rng.standard_normal((rows, dim))])

        target = doubled(65, np.linspace(3.0, 0.5, dim))
        background = doubled(75, rng.uniform(0.5, 2.0, dim))
        cxx = sample_covariance(center(DataMatrix(target)), ridge=ridge)
        cyy = sample_covariance(center(DataMatrix(background)), ridge=ridge)
        orders = self.solve_orders(monkeypatch)
        pc = methods.pca_fit(cxx, d)
        cpc = methods.cpca_fit(cxx, cyy, 10.0, d)
        dpc = methods.dpca_fit(cxx, cyy, d)
        monkeypatch.undo()
        assert sorted({order for _, order in orders}) == [130 + d, 280 + d]

        a, b = cxx.matrix, cyy.matrix
        rtol = max(1e-12, 100 * np.finfo(float).eps * np.linalg.cond(b))
        for model, dense in ((pc, ec.sym_eigendecompose(a, d)),
                             (cpc, ec.sym_eigendecompose(a - 10.0 * b, d))):
            scale = np.max(np.abs(dense.eigenvalues))
            np.testing.assert_allclose(model.eigenvalues, dense.eigenvalues, rtol=rtol,
                                       atol=rtol * scale)
            assert methods.subspace_affinity(model.components, dense.eigenvectors) >= 1 - 1e-10
        ref = ec.generalized_eig(a, b, d)
        np.testing.assert_allclose(dpc.eigenvalues, ref.eigenvalues, rtol=rtol)
        spans = [np.linalg.qr(vecs)[0] for vecs in (dpc.components, ref.eigenvectors)]
        assert methods.subspace_affinity(*spans) >= 1 - 1e-10

    def test_cut_over_at_half_the_features(self, rng, monkeypatch):
        # in 300 features, dPCA's 100 + 60 + 3 > 150 keeps the dense route;
        # PCA's 100 + 3 <= 150 on the same target is reduced
        cxx, cyy = self.wide_pair(rng, 300, 100, 60, (1.0, 1.0))
        orders = self.solve_orders(monkeypatch)
        methods.dpca_fit(cxx, cyy, 3)
        assert {order for _, order in orders} == {300}
        del orders[:]
        methods.pca_fit(cxx, 3)
        assert orders == [("_top_pairs", 103)]


class TestOneLeafPerFit:
    """Each dPCA route validates its inputs once and calls exactly one leaf pencil solver.

    One case per route, with the Cholesky factorizations it makes: the
    reduced fallback factors only the background's own block, and only when
    the background has a ridge.
    """

    # route: (D, m, n, background ridge, leaf, cho_factor orders)
    ROUTES = {
        "dense_whitening": (100, 300, 400, 1.0, "_floored_whitening_eig", []),
        "dense_cholesky": (300, 400, 500, 1.0, "_cholesky_eig", [300]),
        "reduced_cholesky": (800, 100, 200, 1.0, "_whitened_span_eig", [200]),
        "reduced_fallback_margin": (800, 100, 200, 1e-8, "_floored_whitening_eig", [200]),
        "reduced_fallback_no_ridge": (800, 100, 200, 0.0, "_floored_whitening_eig", []),
    }

    @staticmethod
    def route_inputs(rng, route):
        dim, m, n, ridge = TestOneLeafPerFit.ROUTES[route][:4]
        cxx = sample_covariance(center(DataMatrix(rng.standard_normal((m, dim)))), ridge=1.0)
        cyy = sample_covariance(center(DataMatrix(rng.standard_normal((n, dim)))), ridge=ridge)
        return cxx, cyy

    @pytest.mark.parametrize("route", ROUTES)
    def test_one_leaf(self, rng, monkeypatch, pencil_solves, route):
        cxx, cyy = self.route_inputs(rng, route)
        _, _, _, ridge, leaf, factored = self.ROUTES[route]
        orders = []
        real = scipy.linalg.cho_factor

        def spy(mat, *args, **kwargs):
            orders.append(np.shape(mat)[0])
            return real(mat, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", spy)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            methods.dpca_fit(cxx, cyy, 3)
        assert pencil_solves == [leaf]
        assert orders == factored
        floored = [w for w in caught if issubclass(w.category, FloorAppliedWarning)]
        assert len(floored) == int(ridge == 0.0)  # the centered background has rank n - 1

    @pytest.mark.parametrize("route", ROUTES)
    def test_negative_floor_rejected(self, rng, pencil_solves, route):
        cxx, cyy = self.route_inputs(rng, route)
        with pytest.raises(InvalidInputError, match="floor_rel must be a finite number >= 0"):
            methods.dpca_fit(cxx, cyy, 3, floor_rel=-1.0)
        assert pencil_solves == []


class TestScalingOracles:
    """Scaling and feature-permutation oracles on every pencil route, through ``dpca_fit``.

    Scaling the target covariance by ``c`` scales the pencil's eigenvalues
    by ``c``; scaling the background's divides them by ``c``; either way the
    top-``d`` subspace stays. A data-backed estimate is scaled by scaling
    its data by ``sqrt(c)`` and its ridge by ``c``. Permuting the features
    of both datasets (the rows and columns of both matrices) permutes the
    components' rows and keeps the eigenvalues. Each fit takes ``d + 1``
    pairs, so the gap below the ``d``-th is known. The allowed error is a
    multiple of ``eps * cond(B) * lam_1`` for the eigenvalues and of that
    over the gap for the sine of the largest principal angle.
    """

    D_COMPONENTS = 2
    # c in [1e-3, 10**-0.25] or [10**0.25, 1e3]: never near 1, where any solver passes
    SCALES = st.tuples(st.floats(0.25, 3.0), st.sampled_from([1.0, -1.0])).map(
        lambda pair: 10.0 ** (pair[1] * pair[0]))
    # route: (D, m, n, target ridge, background ridge, leaf); m is None for
    # covariances given as random SPD matrices of order D
    ROUTES = {
        "dense_whitening": (40, None, None, 0.0, 0.0, "_floored_whitening_eig"),
        "dense_cholesky": (ec.TOP_D_MIN_DIM + 4, None, None, 0.0, 0.0, "_cholesky_eig"),
        # K = m + n + d + 1 = 263 and 103, both in scipy; a background ridge
        # of 1e-7 leaves rcond(B) near 2e-9, inside the Cholesky margin
        # 1e3 * floor_rel, and B's smallest eigenvalue 50 times above the floor
        "reduced_whitening_from_r": (600, 60, 200, 0.5, 1.0, "_whitened_span_eig"),
        "reduced_floored_whitening": (300, 40, 60, 0.5, 1e-7, "_floored_whitening_eig"),
    }

    @classmethod
    def estimates(cls, route, seed, scale_target=1.0, scale_background=1.0, features=None):
        """``(cxx, cyy)`` of ``route`` from ``seed``, each side scaled by its factor.

        ``features``, a permutation, reorders the features of both sides.
        """
        dim, m, n, ridge_t, ridge_b = cls.ROUTES[route][:5]
        rng = np.random.default_rng(seed)
        order = np.arange(dim) if features is None else features
        if m is None:
            return tuple(cov(c * random_spd(rng, dim)[np.ix_(order, order)])
                         for c in (scale_target, scale_background))
        target = rng.standard_normal((m, dim)) * np.linspace(3.0, 0.5, dim)
        background = rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0, dim)
        return tuple(sample_covariance(center(DataMatrix(x[:, order] * np.sqrt(c))), ridge=r * c)
                     for x, r, c in ((target, ridge_t, scale_target),
                                     (background, ridge_b, scale_background)))

    @classmethod
    def fit_both(cls, pencil_solves, route, seed, **changed):
        """The base fit of ``route``, the fit of its ``changed`` estimates, and the error bound."""
        d = cls.D_COMPONENTS
        base_inputs = cls.estimates(route, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", FloorAppliedWarning)
            pencil_solves.clear()
            base = methods.dpca_fit(*base_inputs, d + 1)
            other = methods.dpca_fit(*cls.estimates(route, seed, **changed), d + 1)
        leaf = cls.ROUTES[route][5]
        assert pencil_solves == [leaf, leaf]
        background = np.linalg.eigvalsh(base_inputs[1].matrix)
        err = 100 * np.finfo(float).eps * background[-1] / background[0] * base.eigenvalues[0]
        return base, other, err

    @classmethod
    def assert_same_span(cls, base_components, other_components, lam, err):
        # the components are B-orthogonal: compare the spans they orthonormalize to
        d = cls.D_COMPONENTS
        q0, q1 = (np.linalg.qr(comps[:, :d])[0] for comps in (base_components, other_components))
        sine = np.linalg.norm(q1 - q0 @ (q0.T @ q1), 2)
        assert sine <= err / (lam[d - 1] - lam[d])

    @classmethod
    def check_scaling(cls, pencil_solves, route, seed, c, side):
        d = cls.D_COMPONENTS
        base, scaled, err = cls.fit_both(pencil_solves, route, seed, **{f"scale_{side}": c})
        lam = base.eigenvalues
        expected = lam[:d] * (c if side == "target" else 1.0 / c)
        np.testing.assert_allclose(scaled.eigenvalues[:d], expected, rtol=0,
                                   atol=err * expected[0] / lam[0])
        cls.assert_same_span(base.components, scaled.components, lam, err)

    @pytest.mark.parametrize("route", ROUTES)
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), scale=SCALES)
    def test_target_scaling_scales_eigenvalues(self, pencil_solves, route, seed, scale):
        self.check_scaling(pencil_solves, route, seed, scale, "target")

    @pytest.mark.parametrize("route", ROUTES)
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), scale=SCALES)
    def test_background_scaling_divides_eigenvalues(self, pencil_solves, route, seed, scale):
        self.check_scaling(pencil_solves, route, seed, scale, "background")

    @pytest.mark.parametrize("route", ROUTES)
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), shuffle=st.integers(0, 2**32 - 1))
    def test_feature_permutation_permutes_components(self, pencil_solves, route, seed, shuffle):
        d = self.D_COMPONENTS
        features = np.random.default_rng(shuffle).permutation(self.ROUTES[route][0])
        base, permuted, err = self.fit_both(pencil_solves, route, seed, features=features)
        np.testing.assert_allclose(permuted.eigenvalues[:d], base.eigenvalues[:d], rtol=0,
                                   atol=err)
        self.assert_same_span(base.components[features], permuted.components,
                              base.eigenvalues, err)


class TestTransform:
    def test_identity_components(self, rng):
        raw = DataMatrix(rng.standard_normal((20, 4)) + 5.0)
        centered = center(raw)
        model = methods.pca_fit(cov(np.eye(4)), 4, target_mean=centered.mean)
        out = methods.transform(model, raw)
        # full orthonormal basis: coordinates are a rotation of the centered data
        np.testing.assert_allclose(out.coordinates @ model.components.T,
                                   centered.data.values, atol=1e-10)

    def test_single_axis_component(self, rng):
        raw = DataMatrix(rng.standard_normal((10, 3)))
        model = methods.ComponentModel(
            method="pca", components=np.eye(3)[:, :1], eigenvalues=np.array([1.0]),
            target_mean=np.zeros(3))
        out = methods.transform(model, raw)
        np.testing.assert_allclose(out.coordinates[:, 0], raw.values[:, 0])

    def test_column_variance_oracle(self, rng):
        raw = DataMatrix(rng.standard_normal((300, 6)) * [1, 2, 3, 4, 5, 6])
        centered = center(raw)
        cxx = sample_covariance(centered)
        model = methods.pca_fit(cxx, 3, target_mean=centered.mean)
        out = methods.transform(model, raw)
        for j in range(3):
            u = model.components[:, j]
            var = np.mean(out.coordinates[:, j] ** 2)  # coords are mean-free
            assert var == pytest.approx(u @ cxx.matrix @ u, rel=1e-10)

    def test_labels_pass_through(self, rng):
        raw = DataMatrix(rng.standard_normal((5, 2)), labels=[1, 0, 1, 0, 1])
        model = methods.pca_fit(cov(np.eye(2)), 1)
        out = methods.transform(model, raw)
        np.testing.assert_array_equal(out.labels, [1, 0, 1, 0, 1])

    def test_dimension_mismatch(self, rng):
        model = methods.pca_fit(cov(np.eye(3)), 2)
        with pytest.raises(DimensionError):
            methods.transform(model, DataMatrix(rng.standard_normal((4, 2))))

    @pytest.mark.parametrize("dim,m,n", [(20, 150, 200), (100, 2000, 3000)],
                             ids=["small", "paper"])
    @pytest.mark.parametrize("method", ["pca", "dpca"])
    def test_zscored_fit_projects_the_raw_target(self, dim, m, n, method):
        # the raw target through the model is the centered, scaled target the fit holds
        pair = gen_pair(default_subgroup_spec(n_features=dim, seed=0), m, n,
                        spread_offsets(2, 1, 6.0))
        inputs = fit_inputs(pair.target, [pair.background], zscore=True)
        (model,) = methods.fit(method, inputs, 2)
        out = methods.transform(model, pair.target)
        assert out.coordinates.tobytes() == (inputs.target.values @ model.components).tobytes()
        np.testing.assert_array_equal(out.labels, pair.target.labels)

    @pytest.mark.parametrize("width", [1, 4])
    def test_width_checked_before_the_scale(self, rng, width):
        # one column would broadcast against the scale
        model = methods.ComponentModel(method="pca", components=np.eye(3)[:, :2],
                                       eigenvalues=np.array([2.0, 1.0]), target_mean=np.zeros(3),
                                       feature_scale=np.array([1.0, 2.0, 4.0]))
        with pytest.raises(DimensionError, match=f"data has {width} features, model expects 3"):
            methods.transform(model, DataMatrix(rng.standard_normal((4, width))))


class TestPencilResidual:
    def test_valid_model_is_small(self, rng):
        a, b = random_spd(rng, 12), random_spd(rng, 12)
        model = methods.dpca_fit(cov(a), cov(b), 4)
        assert methods.pencil_residual(model, cov(a), cov(b)) <= 1e-7

    def test_perturbed_eigenvalue_grows(self, rng):
        a, b = random_spd(rng, 6), random_spd(rng, 6)
        model = methods.dpca_fit(cov(a), cov(b), 1)
        bumped = methods.ComponentModel(
            method="dpca", components=model.components,
            eigenvalues=model.eigenvalues + 1.0, target_mean=model.target_mean,
            floor_rel=model.floor_rel)
        u = model.components[:, 0]
        expected = np.linalg.norm(b @ u) / (np.linalg.norm(a) + (model.eigenvalues[0] + 1) * np.linalg.norm(b))
        assert methods.pencil_residual(bumped, cov(a), cov(b)) == pytest.approx(expected, rel=1e-6)

    def test_identical_pencil(self, rng):
        a = random_spd(rng, 5)
        model = methods.dpca_fit(cov(a), cov(a), 2)
        assert methods.pencil_residual(model, cov(a), cov(a)) <= 1e-12

    @pytest.mark.parametrize("dim,m,n,ridges", [(300, 40, 60, (1e-3, 1.0)), (300, 40, 60, (0.0, 0.5)),
                                                (30, 80, 120, (0.0, 0.0)), (30, 80, 120, (2.0, 1.0))])
    def test_data_backed_equals_dense_formula(self, rng, dim, m, n, ridges):
        cxx, cyy = TestWideDataReduction.wide_pair(rng, dim, m, n, ridges)
        # random unit columns: residuals of order one, far from rounding
        comps = rng.standard_normal((dim, 3))
        model = methods.ComponentModel(method="dpca", components=comps / np.linalg.norm(comps, axis=0),
                                       eigenvalues=[2.0, 1.0, 0.5], target_mean=np.zeros(dim))
        residual = methods.pencil_residual(model, cxx, cyy)
        assert cxx._matrix is None and cyy._matrix is None
        a, b = cxx.matrix, cyy.matrix
        dense = max(np.linalg.norm(a @ u - lam * (b @ u)) / (np.linalg.norm(a) + lam * np.linalg.norm(b))
                    for u, lam in zip(model.components.T, model.eigenvalues))
        assert residual == pytest.approx(dense, rel=1e-12)
        assert methods.pencil_residual(model, cov(a), cov(b)) == pytest.approx(dense, rel=1e-12)

    def test_wide_fit_never_forms_the_covariances(self, rng):
        # K = 110 + 150 + 3 = 263: the reflector route
        cxx, cyy = TestWideDataReduction.wide_pair(rng, 2000, 110, 150, (1.0, 1.0))
        model = methods.dpca_fit(cxx, cyy, 3)
        assert methods.pencil_residual(model, cxx, cyy) <= 1e-12
        assert cxx._matrix is None and cyy._matrix is None

    def test_wrong_method_tag(self, rng):
        a = random_spd(rng, 4)
        model = methods.pca_fit(cov(a), 2)
        with pytest.raises(InvalidInputError):
            methods.pencil_residual(model, cov(a), cov(a))


class TestNonFiniteParameters:
    """NaN and infinite alphas and floors are rejected by name, before any solve."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_cpca_alpha(self, rng, bad):
        a, b = cov(random_spd(rng, 4)), cov(random_spd(rng, 4))
        with pytest.raises(InvalidInputError, match="alpha must be a finite number"):
            methods.cpca_fit(a, b, bad, 2)
        with pytest.raises(InvalidInputError, match="alpha must be a finite number"):
            methods.cpca_select_alphas(a, b, [0.1, bad, 10.0], 2, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_floor_rel(self, rng, bad):
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        with pytest.raises(InvalidInputError, match="floor_rel must be a finite number"):
            methods.dpca_fit(cov(a), cov(b), 2, floor_rel=bad)
        with pytest.raises(InvalidInputError, match="floor_rel must be a finite number"):
            ec.generalized_eig(a, b, 2, floor_rel=bad)
        with pytest.raises(InvalidInputError, match="floor_rel must be a finite number"):
            ec.whitening_factor(b, floor_rel=bad)


class TestComponentModelInvariants:
    @pytest.mark.parametrize("field", ["components", "eigenvalues", "target_mean",
                                       "background_mean", "feature_scale"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, bad):
        fields = {"components": np.eye(2), "eigenvalues": np.array([2.0, 1.0]),
                  "target_mean": np.zeros(2), "background_mean": np.zeros(2),
                  "feature_scale": np.ones(2)}
        fields[field] = fields[field].copy()
        fields[field].flat[0] = bad
        with pytest.raises(InvalidInputError, match=f"{field} must be finite"):
            methods.ComponentModel(method="dpca", **fields)

    def test_alpha_only_for_cpca(self):
        with pytest.raises(InvalidInputError):
            methods.ComponentModel(method="pca", components=np.eye(2),
                                   eigenvalues=np.array([2.0, 1.0]),
                                   target_mean=np.zeros(2), alpha=1.0)
        with pytest.raises(InvalidInputError):
            methods.ComponentModel(method="cpca", components=np.eye(2),
                                   eigenvalues=np.array([2.0, 1.0]),
                                   target_mean=np.zeros(2))

    @pytest.mark.parametrize("field,method,value", [
        *(("alpha", "cpca", bad) for bad in (np.nan, np.inf, -1.0, "abc", True)),
        *((field, "dpca", bad) for field in ("ridge_target", "ridge_background", "floor_rel")
          for bad in (np.nan, -np.inf, -1e-3, "x", False)),
        ("ridge_target", "pca", None)])
    def test_bad_scalar_rejected(self, field, method, value):
        fields = {"alpha": 1.0} if method == "cpca" else {}
        with pytest.raises(InvalidInputError, match=f"{field} must be a finite number >= 0"):
            methods.ComponentModel(method=method, components=np.eye(2),
                                   eigenvalues=np.array([2.0, 1.0]), target_mean=np.zeros(2),
                                   **{**fields, field: value})

    @pytest.mark.parametrize("field", ["alpha", "ridge_target", "ridge_background", "floor_rel"])
    def test_integer_beyond_the_doubles_rejected(self, field):
        # float() cannot hold it, so the rule rejects it by name, bounded at the largest double
        fields = {"alpha": 1.0} if field == "alpha" else {}
        message = f"{field} must be a finite number in 0..1.7976931348623157e+308, got 1000"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            methods.ComponentModel(method="cpca" if field == "alpha" else "dpca",
                                   components=np.eye(2), eigenvalues=np.array([2.0, 1.0]),
                                   target_mean=np.zeros(2), **{**fields, field: 10**400})

    def test_scalars_stored_as_floats(self):
        model = methods.ComponentModel(method="cpca", components=np.eye(2),
                                       eigenvalues=np.array([2.0, 1.0]), target_mean=np.zeros(2),
                                       alpha=np.float32(2.5), ridge_target=1,
                                       ridge_background=np.int64(0), floor_rel=None)
        assert [type(v) for v in (model.alpha, model.ridge_target, model.ridge_background)] \
            == [float, float, float]
        assert (model.alpha, model.ridge_target, model.ridge_background) == (2.5, 1.0, 0.0)
        assert model.floor_rel is None

    def test_unit_columns_enforced(self):
        with pytest.raises(InvalidInputError):
            methods.ComponentModel(method="pca", components=2 * np.eye(2),
                                   eigenvalues=np.array([2.0, 1.0]),
                                   target_mean=np.zeros(2))

    def test_descending_enforced(self):
        with pytest.raises(InvalidInputError):
            methods.ComponentModel(method="pca", components=np.eye(2),
                                   eigenvalues=np.array([1.0, 2.0]),
                                   target_mean=np.zeros(2))

    def test_unknown_method(self):
        with pytest.raises(InvalidInputError, match="unknown method 'ica'"):
            methods.ComponentModel(method="ica", components=np.eye(2),
                                   eigenvalues=np.array([2.0, 1.0]), target_mean=np.zeros(2))

    @pytest.mark.parametrize("components,eigenvalues", [
        (np.ones(2) / np.sqrt(2), np.array([1.0])),
        (np.eye(2), np.array([1.0])),
        (np.eye(2), np.array([[2.0, 1.0]]))], ids=["1d_components", "too_few_values", "2d_values"])
    def test_component_shapes(self, components, eigenvalues):
        with pytest.raises(DimensionError, match=r"components must be \(D, d\)"):
            methods.ComponentModel(method="pca", components=components, eigenvalues=eigenvalues,
                                   target_mean=np.zeros(2))

    def test_target_mean_length(self):
        with pytest.raises(DimensionError, match="target_mean must have length 3"):
            methods.ComponentModel(method="pca", components=np.eye(3)[:, :2],
                                   eigenvalues=np.array([2.0, 1.0]), target_mean=np.zeros(2))

    @pytest.mark.parametrize("field", ["background_mean", "feature_scale"])
    @pytest.mark.parametrize("value", [np.ones(2), np.ones(7), np.ones((1, 3)), np.ones((3, 1))],
                             ids=["short", "long", "row", "column"])
    def test_vector_shapes(self, field, value):
        with pytest.raises(DimensionError, match=rf"{field} must have length 3, got shape"):
            methods.ComponentModel(method="pca", components=np.eye(3)[:, :2],
                                   eigenvalues=np.array([2.0, 1.0]), target_mean=np.zeros(3),
                                   **{field: value})

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.0, -np.finfo(float).tiny])
    def test_feature_scale_must_be_positive(self, bad):
        with pytest.raises(InvalidInputError, match="feature_scale must be positive"):
            methods.ComponentModel(method="pca", components=np.eye(3)[:, :2],
                                   eigenvalues=np.array([2.0, 1.0]), target_mean=np.zeros(3),
                                   feature_scale=np.array([1.0, bad, 2.0]))

    def test_feature_scale_frozen_and_owned(self):
        scale = np.array([1.0, 2.0, 3.0])
        model = methods.ComponentModel(method="pca", components=np.eye(3)[:, :2],
                                       eigenvalues=np.array([2.0, 1.0]), target_mean=np.zeros(3),
                                       feature_scale=scale)
        scale[0] = 5.0  # the caller's array stays theirs
        assert model.feature_scale.tolist() == [1.0, 2.0, 3.0]
        assert not model.feature_scale.flags.writeable
