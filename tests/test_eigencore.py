"""Eigendecomposition, whitening, and pencil solver contracts.

The independent reference for the pencil solver is a brute-force dense
eigendecomposition of B^{-1} A, which never goes through the whitening path.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import blas, lapack

from dpca import eigencore as ec
from dpca import methods
from dpca.datamodel import CovarianceEstimate
from dpca.errors import (DimensionError, FloorAppliedWarning, InvalidInputError, RankZeroError,
                         SymmetryError)

from conftest import random_orthogonal, random_spd


class TestSymEigendecompose:
    def test_identity(self):
        out = ec.sym_eigendecompose(np.eye(3))
        np.testing.assert_allclose(out.eigenvalues, np.ones(3))

    def test_diagonal(self):
        out = ec.sym_eigendecompose(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(out.eigenvalues, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(out.eigenvectors), np.eye(2))

    def test_analytic_2x2(self):
        out = ec.sym_eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(out.eigenvalues, [3.0, 1.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(out.eigenvectors[:, 0], [s, s], atol=1e-12)
        np.testing.assert_allclose(np.abs(out.eigenvectors[:, 1]), [s, s], atol=1e-12)

    def test_reconstruction_and_orthonormality(self, rng):
        for dim in (2, 5, 17, 40):
            a = random_spd(rng, dim)
            out = ec.sym_eigendecompose(a)
            recon = out.eigenvectors @ np.diag(out.eigenvalues) @ out.eigenvectors.T
            assert np.linalg.norm(recon - a) <= 1e-8 * max(1.0, np.linalg.norm(a))
            gram = out.eigenvectors.T @ out.eigenvectors
            assert np.linalg.norm(gram - np.eye(dim)) <= 1e-10 * dim
            assert np.all(np.diff(out.eigenvalues) <= 1e-12)

    def test_top_d_subset(self, rng):
        # below TOP_D_MIN_DIM the full solve is sliced, from it up only the
        # top d pairs are computed
        for dim in (12, 300):
            a = random_spd(rng, dim)
            full = ec.sym_eigendecompose(a)
            for d in (1, 5, dim):
                top = ec.sym_eigendecompose(a, d)
                assert top.dim == dim
                assert top.eigenvectors.shape == (dim, d)
                np.testing.assert_allclose(top.eigenvalues, full.eigenvalues[:d], rtol=1e-12)
                np.testing.assert_allclose(top.eigenvectors, full.eigenvectors[:, :d],
                                           atol=1e-10)
            for bad in (0, dim + 1):
                with pytest.raises(DimensionError):
                    ec.sym_eigendecompose(a, bad)

    def test_top_d_subset_tight_cluster(self, monkeypatch):
        # rank 2 plus a ridge: the top 5 end in a cluster of 298 equal
        # eigenvalues, where LAPACK syevr can return fewer pairs than asked
        # for; the full solve that then stands in is scipy's too
        def forbidden(*args, **kwargs):
            raise AssertionError("numpy's eigh reached at order 300")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        for seed in range(5):
            x = np.random.default_rng(seed).standard_normal((3, 300))
            x -= x.mean(axis=0)
            a = x.T @ x / 3 + 10.0 * np.eye(300)
            expected = np.linalg.eigvalsh(a)[::-1][:5]
            top = ec.sym_eigendecompose(a, 5)
            np.testing.assert_allclose(top.eigenvalues, expected, rtol=1e-12)
            pairs = ec.generalized_eig(a, 2.0 * np.eye(300), 5)
            np.testing.assert_allclose(pairs.eigenvalues, expected / 2.0, rtol=1e-12)
            resid = a @ pairs.eigenvectors - 2.0 * pairs.eigenvectors * pairs.eigenvalues
            assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(a)

    def test_sign_convention(self, rng):
        a = random_spd(rng, 6)
        out = ec.sym_eigendecompose(a)
        for j in range(6):
            col = out.eigenvectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_sign_convention_matches_the_column_loop(self, rng):
        # ties (the lowest row leads), signed zeros and a NaN, bit for bit
        cases = [rng.standard_normal((7, 5)), rng.integers(-2, 3, (6, 40)).astype(float),
                 np.array([[1.0, -1.0, 0.0, -0.0], [-1.0, 1.0, -0.0, 0.0]]),
                 np.array([[np.nan, -2.0], [-3.0, np.nan]])]
        for vectors in cases:
            want = vectors.copy()
            for j in range(want.shape[1]):
                if want[np.argmax(np.abs(want[:, j])), j] < 0:
                    want[:, j] = -want[:, j]
            assert ec.apply_sign_convention(vectors).tobytes() == want.tobytes()

    def test_deterministic(self, rng):
        a = random_spd(rng, 9)
        one = ec.sym_eigendecompose(a)
        two = ec.sym_eigendecompose(a)
        assert np.array_equal(one.eigenvalues, two.eigenvalues)
        assert np.array_equal(one.eigenvectors, two.eigenvectors)

    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            ec.sym_eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            ec.sym_eigendecompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape,message", [((2, 3), "must be a square matrix"),
                                               ((0, 0), "must have dimension >= 1")],
                             ids=["non_square", "empty"])
    def test_rejects_non_square_and_empty(self, shape, message):
        with pytest.raises(DimensionError, match=message):
            ec.sym_eigendecompose(np.ones(shape))


class TestCheckSymmetric:
    """Accept/reject decisions of ``check_symmetric``, exact symmetry or not."""

    @staticmethod
    def nudged(rng, scale, factor):
        # one off-diagonal entry moved by factor times its tolerance
        a = random_spd(rng, 6) * scale
        a[1, 4] += factor * ec.SYMMETRY_RTOL * max(1.0, abs(a[1, 4]))
        return a

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_exactly_symmetric_accepted(self, rng, scale):
        a = random_spd(rng, 6) * scale
        a = 0.5 * (a + a.T)
        assert np.array_equal(ec.check_symmetric(a), a)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_asymmetry_within_tolerance_accepted(self, rng, scale):
        a = self.nudged(rng, scale, 0.5)
        assert not np.array_equal(a, a.T)
        assert np.array_equal(ec.check_symmetric(a), a)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_asymmetry_beyond_tolerance_rejected(self, rng, scale):
        with pytest.raises(SymmetryError, match="not symmetric within tolerance"):
            ec.check_symmetric(self.nudged(rng, scale, 4.0))

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, where, value):
        a = np.eye(3)
        a[where] = a[where[::-1]] = value  # placed symmetrically: only finiteness fails
        with pytest.raises(InvalidInputError, match="non-finite"):
            ec.check_symmetric(a, "A")

    @pytest.mark.parametrize("factor,accepted", [(0.5, True), (4.0, False)])
    @pytest.mark.parametrize("where", [(-9, -3), (-3, -9)], ids=["upper", "lower"])
    def test_asymmetry_in_the_last_panel_only(self, rng, factor, accepted, where):
        # three panels, the last one partial; every other entry mirrors exactly
        a = random_spd(rng, 2 * ec._PANEL + 22)
        a = 0.5 * (a + a.T)
        a[where] += factor * ec.SYMMETRY_RTOL * max(1.0, abs(a[where]))
        if accepted:
            assert np.array_equal(ec.check_symmetric(a), a)
        else:
            with pytest.raises(SymmetryError, match="not symmetric within tolerance"):
                ec.check_symmetric(a)

    def test_signed_zero_mirror_accepted(self):
        a = np.array([[1.0, -0.0], [0.0, 2.0]])
        assert np.array_equal(ec.check_symmetric(a), a)


class TestWhiteningFactor:
    def test_identity(self):
        out = ec.whitening_factor(np.eye(4))
        np.testing.assert_allclose(out.factor, np.eye(4), atol=1e-14)
        assert not out.floor_applied

    def test_diagonal(self):
        out = ec.whitening_factor(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(out.factor, np.diag([0.5, 1.0]), atol=1e-14)

    def test_whitening_identity_random(self, rng):
        for dim in (2, 7, 25):
            c = random_spd(rng, dim)
            out = ec.whitening_factor(c)
            assert not out.floor_applied
            err = np.linalg.norm(out.factor.T @ c @ out.factor - np.eye(dim))
            assert err <= 1e-8 * dim

    def test_symmetric_factor(self, rng):
        c = random_spd(rng, 9)
        w = ec.whitening_factor(c).factor
        np.testing.assert_allclose(w, w.T, atol=1e-14)

    def test_floor_on_rank_deficient(self, rng):
        u = random_orthogonal(rng, 5)[:, :2]
        c = (u * [4.0, 1.0]) @ u.T  # rank 2 in dimension 5
        out = ec.whitening_factor(c, floor_rel=1e-10)
        assert out.floor_applied
        assert out.floor_value == pytest.approx(1e-10 * 4.0, rel=1e-6)

    def test_zero_matrix_raises(self):
        with pytest.raises(RankZeroError):
            ec.whitening_factor(np.zeros((3, 3)))

    def test_singular_matrix_without_floor_raises(self):
        with pytest.raises(RankZeroError, match="floor is zero"):
            ec.whitening_factor(np.diag([1.0, 0.0]), floor_rel=0.0)


class TestGeneralizedEig:
    def test_pairs_extend_the_eigendecomposition(self):
        # one eigenpair type: the pencil's adds its floor flag and route, nothing it restates
        assert issubclass(ec.GeneralizedEigenPairs, ec.EigenDecomposition)
        assert set(vars(ec.GeneralizedEigenPairs)["__annotations__"]) == {"floor_applied",
                                                                            "route"}
        assert "dim" not in vars(ec.GeneralizedEigenPairs)
        pairs = ec.GeneralizedEigenPairs(np.array([2.0]), np.eye(3)[:, :1])
        assert (pairs.dim, pairs.count, pairs.floor_applied, pairs.route) == (3, 1, False, None)

    def test_diagonal_ratio_ordering(self):
        out = ec.generalized_eig(np.diag([2.0, 8.0]), np.diag([1.0, 16.0]), 2)
        np.testing.assert_allclose(out.eigenvalues, [2.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(out.eigenvectors[:, 0], [1.0, 0.0], atol=1e-9)

    def test_pencil_identity(self, rng):
        a = random_spd(rng, 6)
        out = ec.generalized_eig(a, a, 6)
        np.testing.assert_allclose(out.eigenvalues, np.ones(6), atol=1e-9)

    def test_identity_background_degenerates_to_plain(self, rng):
        a = random_spd(rng, 8)
        gen = ec.generalized_eig(a, np.eye(8), 3)
        plain = ec.sym_eigendecompose(a)
        np.testing.assert_allclose(gen.eigenvalues, plain.eigenvalues[:3], rtol=1e-10)
        for j in range(3):
            cos = abs(gen.eigenvectors[:, j] @ plain.eigenvectors[:, j])
            assert cos >= 1 - 1e-10

    def test_pencil_residual_property(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 51))
            d = int(min(rng.integers(1, 6), dim))
            a = random_spd(rng, dim)
            b = random_spd(rng, dim)
            out = ec.generalized_eig(a, b, d)
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            for i in range(d):
                u, lam = out.eigenvectors[:, i], out.eigenvalues[i]
                resid = np.linalg.norm(a @ u - lam * (b @ u))
                assert resid <= 1e-7 * (na + lam * nb)

    def test_against_brute_force_reference(self, rng):
        # reference route: dense eigenvalues of B^{-1} A, no whitening involved
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            a = random_spd(rng, dim)
            b = random_spd(rng, dim)
            ours = ec.generalized_eig(a, b, dim).eigenvalues
            ref = np.sort(np.linalg.eigvals(np.linalg.solve(b, a)).real)[::-1]
            assert np.all(np.abs(ours - ref) <= 1e-8 * np.maximum(1.0, np.abs(ref)))

    def test_scaling_covariance(self, rng):
        a = random_spd(rng, 7)
        b = random_spd(rng, 7)
        base = ec.generalized_eig(a, b, 4)
        scaled = ec.generalized_eig(3.5 * a, b, 4)
        np.testing.assert_allclose(scaled.eigenvalues, 3.5 * base.eigenvalues, rtol=1e-9)
        np.testing.assert_allclose(scaled.eigenvectors, base.eigenvectors, atol=1e-8)

    def test_unit_columns_and_signs(self, rng):
        out = ec.generalized_eig(random_spd(rng, 10), random_spd(rng, 10), 5)
        np.testing.assert_allclose(np.linalg.norm(out.eigenvectors, axis=0), 1.0, atol=1e-12)
        for j in range(5):
            col = out.eigenvectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_deterministic(self, rng):
        a, b = random_spd(rng, 12), random_spd(rng, 12)
        one = ec.generalized_eig(a, b, 4)
        two = ec.generalized_eig(a, b, 4)
        assert np.array_equal(one.eigenvalues, two.eigenvalues)
        assert np.array_equal(one.eigenvectors, two.eigenvectors)

    @pytest.mark.parametrize("order,leaf", [(3, "floored_whitening"),
                                            (ec.TOP_D_MIN_DIM + 4, "cholesky")])
    def test_overflow_in_the_solve_rejected(self, pencil_solves, order, leaf):
        # A and B are finite, but the whitened or reduced target is not
        a = np.diag(np.linspace(1e300, 2e300, order))
        with pytest.raises(InvalidInputError, match="overflows"), np.errstate(all="ignore"):
            ec.generalized_eig(a, 1e-300 * np.eye(order), 2)
        assert pencil_solves == [leaf]

    def test_errors(self, rng):
        a = random_spd(rng, 4)
        with pytest.raises(DimensionError):
            ec.generalized_eig(a, a, 5)
        with pytest.raises(RankZeroError):
            ec.generalized_eig(a, np.zeros((4, 4)), 2)
        with pytest.raises(DimensionError):
            ec.generalized_eig(a, random_spd(rng, 5), 2)


class TestLeadingBlockBackground:
    """Backgrounds ``blockdiag(B11, r I)``, the shape a reduced dPCA background has.

    A reduced dPCA fit with a background ridge forms and factors only
    ``B11``, from the QR factor of its samples, and solves it on the route
    ``"whitened_span"``; when that route does not apply, it hands both
    reduced matrices to the floored-whitening leaf, which whitens the whole
    reduced background, and factors nothing more. Every reduced fit runs in
    scipy, whatever its order. ``generalized_eig`` factors every ``B`` it is
    given whole. Every case is checked against scipy's dense solve of the
    same pencil.
    """

    DIM = 300

    @staticmethod
    def factorizations(monkeypatch):
        """A list that gains the order of each Cholesky factorization."""
        factored = []
        real_cho = scipy.linalg.cho_factor

        def cho(mat, *args, **kwargs):
            factored.append(np.shape(mat)[0])
            return real_cho(mat, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", cho)
        return factored

    @staticmethod
    def assert_matches_dense(pairs, a, b):
        # rtol covers the dense solve's own error, which grows with cond(B)
        dim, d = a.shape[0], pairs.count
        vals, vecs = scipy.linalg.eigh(a, b, subset_by_index=[dim - d, dim - 1])
        rtol = max(1e-12, np.finfo(float).eps * np.linalg.cond(b))
        np.testing.assert_allclose(pairs.eigenvalues, vals[::-1], rtol=rtol)
        vecs = vecs[:, ::-1] / np.linalg.norm(vecs, axis=0)[::-1]
        for j in range(d):
            assert abs(pairs.eigenvectors[:, j] @ vecs[:, j]) >= 1 - 1e-10

    def check_dense_solve(self, rng, monkeypatch, b):
        a = random_spd(rng, self.DIM)
        factored = self.factorizations(monkeypatch)
        pairs = ec.generalized_eig(a, b, 4)
        monkeypatch.undo()
        assert (factored, pairs.route, pairs.dim) == ([self.DIM], "cholesky", self.DIM)
        self.assert_matches_dense(pairs, a, b)

    def block_background(self, rng, lead, ridge=2.5):
        b = np.diag(np.full(self.DIM, ridge))
        b[:lead, :lead] = random_spd(rng, lead)
        return b

    @pytest.mark.parametrize("tail", [0, 1, DIM - 1])
    def test_tail_orders(self, rng, monkeypatch, tail):
        # generalized_eig looks for no block: it factors B whole, whatever its tail
        self.check_dense_solve(rng, monkeypatch, self.block_background(rng, self.DIM - tail))

    @pytest.mark.parametrize("case", ["unequal_diagonal", "coupled_inside", "coupled_last_column"])
    def test_not_a_tail(self, rng, monkeypatch, case):
        # B11 of order 200; one entry beyond it breaks the r I pattern
        b = self.block_background(rng, 200)
        if case == "unequal_diagonal":
            b[250, 250] = 3.0
        elif case == "coupled_inside":
            b[250, 10] = b[10, 250] = 0.1
        else:
            b[-1, 5] = b[5, -1] = 0.1
        self.check_dense_solve(rng, monkeypatch, b)

    @staticmethod
    def covariance(x, ridge):
        # x need not be centered: a background of n rows then has a B11 of full rank n
        return CovarianceEstimate(sample_count=x.shape[0], ridge_applied=ridge, data=x)

    def check_reduced_fit(self, monkeypatch, cxx, cyy, route, d=3):
        """Fit dPCA on wide data; check ``route``, that no floor applied, and the dense solve.

        ``route`` is ``(Cholesky factorization orders, route, order)``.
        """
        factored = self.factorizations(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = methods.dpca_fit(cxx, cyy, d)
        monkeypatch.undo()
        assert (factored, model.diagnostics["route"], model.diagnostics["order"]) == route
        assert not [w for w in caught if issubclass(w.category, FloorAppliedWarning)]
        pairs = ec.GeneralizedEigenPairs(model.eigenvalues, model.components)
        self.assert_matches_dense(pairs, cxx.matrix, cyy.matrix)
        assert methods.pencil_residual(model, cxx, cyy) <= 1e-10

    # K = 263 and 303, with 200 and 40 background rows (n > m and n < m)
    @pytest.mark.parametrize("dim,m,n", [(600, 60, 200), (700, 260, 40)])
    def test_block_orders(self, rng, monkeypatch, dim, m, n):
        target = rng.standard_normal((m, dim)) * np.linspace(3.0, 0.5, dim)
        background = rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0, dim)
        cxx, cyy = self.covariance(target, 1.0), self.covariance(background, 2.5)
        self.check_reduced_fit(monkeypatch, cxx, cyy, ([n], "whitened_span", m + n + 3))

    def test_scalar_background_factors_one_entry(self, rng, monkeypatch):
        # one background row: B11 is 1 x 1; K = 264
        cxx = self.covariance(rng.standard_normal((260, 600)), 1.0)
        cyy = self.covariance(rng.standard_normal((1, 600)), 2.5)
        self.check_reduced_fit(monkeypatch, cxx, cyy, ([1], "whitened_span", 264))

    @pytest.mark.parametrize("ridge", [1e-8, 1e8])
    def test_condition_combines_both_blocks(self, rng, monkeypatch, ridge):
        # B11's spectrum lies in [0.1, 10] times a scale that keeps it clear of
        # the ridge, so B11 alone clears the margin, but cond(B) is about 1e9
        # with either ridge: the fit factors only B11 and whitens the whole
        # reduced B, unfloored
        dim, m, n = 600, 60, 200
        scale = 1.0 if ridge < 1 else 1e16
        spectrum = scale * np.geomspace(0.1, 10.0, n)
        rows = random_orthogonal(rng, dim)[:n]
        background = np.sqrt(n * spectrum)[:, None] * rows
        cxx = self.covariance(rng.standard_normal((m, dim)), 1.0)
        cyy = self.covariance(background, ridge)
        self.check_reduced_fit(monkeypatch, cxx, cyy, ([n], "floored_whitening", m + n + 3))

    def test_zero_tail_takes_the_whitening_route(self, rng, monkeypatch):
        # r_b = 0: B is singular, so nothing is factored; the whitening leaf's floor decides
        dim, m, n, d = 600, 60, 200, 3
        cxx = self.covariance(rng.standard_normal((m, dim)), 1.0)
        cyy = self.covariance(rng.standard_normal((n, dim)), 0.0)
        factored = self.factorizations(monkeypatch)
        with pytest.warns(FloorAppliedWarning) as caught:
            model = methods.dpca_fit(cxx, cyy, d)
        monkeypatch.undo()
        assert len(caught) == 1
        assert (factored, dict(model.diagnostics)) == (
            [], {"route": "floored_whitening", "order": m + n + d, "floor_applied": True})


class TestReduceToSpan:
    @pytest.mark.parametrize("order", [1, 63, 64, 65, 130, 300])
    def test_mirror_equals_triu_expression(self, rng, order):
        # the syrk output with a zero lower triangle, and with garbage in it
        upper = blas.dsyrk(1.0, np.asfortranarray(rng.standard_normal((order, 7))))
        expected = upper + np.triu(upper, 1).T
        assert np.array_equal(ec._mirror_upper(upper.copy(order="F")), expected)
        garbage = upper.copy(order="F")
        garbage[np.tril_indices(order, -1)] = rng.standard_normal(order * (order - 1) // 2)
        assert np.array_equal(ec._mirror_upper(garbage), expected)

    # K = 103 and 263: both in scipy, from reflectors
    @pytest.mark.parametrize("dim,m,n", [(300, 40, 60), (700, 100, 160)])
    def test_blocks_are_the_reduced_covariances(self, rng, dim, m, n):
        d, ridges = 3, (0.5, 2.0)
        target = rng.standard_normal((m, dim)) * np.linspace(3.0, 0.5, dim)
        background = rng.standard_normal((n, dim))
        span = ec._span_qr([(target, m, ridges[0]), (background, n, ridges[1])], d)
        a, b = ec._span_grams(span)
        order = m + n + d
        q, _ = lapack.dgemqrt(span.reflectors, span.t, np.eye(dim, order, order="F"), "L", "N")
        for block, x, count, ridge in ((a, target, m, ridges[0]), (b, background, n, ridges[1])):
            cov = x.T @ x / count + ridge * np.eye(dim)
            np.testing.assert_allclose(block, q.T @ cov @ q, rtol=0, atol=1e-12 * np.linalg.norm(cov))
            assert np.array_equal(block, block.T)
        # the background's rows come first: beyond its own n x n block it is exactly r_b I
        assert np.array_equal(b[n:, n:], ridges[1] * np.eye(order - n))
        assert not b[:n, n:].any()
        assert not a[:n + m, n + m:].any()
        assert np.array_equal(a[n + m:, n + m:], ridges[0] * np.eye(d))
        # the triangle the dPCA solve reads is R: Q R is the stack, the background's rows first
        stack = np.vstack([background, target, np.zeros((d, dim))]).T
        np.testing.assert_allclose(q @ np.triu(span.triangle), stack, rtol=0,
                                   atol=1e-12 * np.linalg.norm(stack))


class TestOneEigensolve:
    """Every symmetric eigensolve goes through ``_top_pairs``, which its callers never undo."""

    SOURCE = Path(ec.__file__).parent

    @staticmethod
    def functions(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

    @staticmethod
    def called(node):
        return {call.func.attr if isinstance(call.func, ast.Attribute) else
                getattr(call.func, "id", None)
                for call in ast.walk(node) if isinstance(call, ast.Call)}

    def test_eigh_is_called_in_one_function(self):
        callers = set()
        for path in sorted(self.SOURCE.glob("*.py")):
            callers.update(f"{path.stem}.{func.name}"
                           for func in self.functions(ast.parse(path.read_text()))
                           if "eigh" in self.called(func))
        assert callers == {"eigencore._top_pairs"}
        assert not hasattr(ec, "_top_subset_eigh")

    def test_callers_do_not_reverse_the_pairs(self):
        callers = {f"{path.stem}.{func.name}": func
                   for path in sorted(self.SOURCE.glob("*.py"))
                   for func in self.functions(ast.parse(path.read_text()))
                   if "_top_pairs" in self.called(func)}
        assert set(callers) == {
            "eigencore.sym_eigendecompose", "eigencore._whitening",
            "eigencore._floored_whitening_eig", "eigencore._cholesky_eig",
            "eigencore._whitened_span_eig", "methods._top"}
        for name, func in callers.items():
            steps = [node.step for node in ast.walk(func) if isinstance(node, ast.Slice)]
            assert all(step is None for step in steps), name

    def test_validation_and_signs_once(self, rng, monkeypatch):
        calls = []
        for name in ("check_symmetric", "apply_sign_convention"):
            def spy(*args, real=getattr(ec, name), name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(ec, name, spy)
        a, b = random_spd(rng, 20), random_spd(rng, 20)
        ec.whitening_factor(b)
        assert calls == ["check_symmetric"]
        del calls[:]
        # A and B are checked once each; the leaf whitens the checked B and
        # fixes its pairs' signs once
        ec.generalized_eig(a, b, 2)
        assert calls == ["check_symmetric", "check_symmetric", "apply_sign_convention"]

    def test_every_pair_on_the_cholesky_route(self, rng):
        # d equal to the order takes scipy's full solve of the reduced pencil
        order = ec.TOP_D_MIN_DIM + 4
        a, b = random_spd(rng, order), random_spd(rng, order)
        out = ec.generalized_eig(a, b, order)
        assert out.route == "cholesky"
        ref = scipy.linalg.eigh(a, b, eigvals_only=True)[::-1]
        np.testing.assert_allclose(out.eigenvalues, ref, rtol=1e-12)
        resid = a @ out.eigenvectors - (b @ out.eigenvectors) * out.eigenvalues
        assert np.linalg.norm(resid) <= 1e-12 * order * np.linalg.norm(a)
