"""Deflated power iteration against the dense solver."""

import numpy as np
import pytest

from dpca import eigencore as ec
from dpca.errors import DimensionError, InvalidInputError, NonConvergenceError

from conftest import random_orthogonal


def spd_with_gaps(rng, dim, top=3, gap=0.2):
    """Random SPD whose leading eigenvalues are separated by at least ``gap``."""
    q = random_orthogonal(rng, dim)
    lead = 3.0 + np.cumsum(rng.uniform(gap, 2 * gap, size=top))[::-1]
    rest = rng.uniform(0.05, lead[-1] - gap, size=dim - top) if dim > top else []
    eigs = np.concatenate([lead, rest])
    return (q * eigs) @ q.T, np.sort(eigs)[::-1]


class TestPowerTopd:
    def test_dominant_diagonal(self):
        out = ec.power_topd(np.diag([5.0, 1.0, 1.0]), 1, tol=1e-12)
        assert out.eigenvalues[0] == pytest.approx(5.0, abs=1e-9)
        assert abs(out.eigenvectors[0, 0]) >= 1 - 1e-6

    def test_matches_dense_top3(self, rng):
        for _ in range(10):
            mat, eigs = spd_with_gaps(rng, int(rng.integers(6, 30)))
            out = ec.power_topd(mat, 3, tol=1e-13, max_iter=20000)
            dense = ec.sym_eigendecompose(mat)
            assert np.all(np.abs(out.eigenvalues - dense.eigenvalues[:3]) <= 1e-6)
            for j in range(3):
                cos = abs(out.eigenvectors[:, j] @ dense.eigenvectors[:, j])
                assert cos >= 1 - 1e-6

    def test_degenerate_top_eigenspace(self):
        out = ec.power_topd(np.diag([2.0, 2.0]), 1, tol=1e-10)
        assert out.eigenvalues[0] == pytest.approx(2.0, abs=1e-10)
        assert np.linalg.norm(out.eigenvectors[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_non_convergence_carries_best_iterate(self, rng):
        mat, _ = spd_with_gaps(rng, 12)
        with pytest.raises(NonConvergenceError) as info:
            ec.power_topd(mat, 1, tol=1e-16, max_iter=3)
        err = info.value
        assert err.iterations == 3
        assert err.best_vector.shape == (12,)
        assert np.isfinite(err.residual)
        assert err.best_eigenvalue > 0

    def test_deterministic(self, rng):
        mat, _ = spd_with_gaps(rng, 15)
        one = ec.power_topd(mat, 2, seed=7)
        two = ec.power_topd(mat, 2, seed=7)
        assert np.array_equal(one.eigenvalues, two.eigenvalues)
        assert np.array_equal(one.eigenvectors, two.eigenvectors)

    def test_returns_plain_eigenpairs(self):
        # the solver applies no floor, so it returns no pencil pairs
        assert type(ec.power_topd(np.diag([2.0, 1.0]), 1)) is ec.EigenDecomposition

    def test_null_space_pair_is_orthogonal(self):
        # the deflated product of the second start vector is exactly zero
        out = ec.power_topd(np.diag([1.0, 0.0]), 2)
        assert np.array_equal(out.eigenvalues, [1.0, 0.0])
        assert np.array_equal(out.eigenvectors, np.eye(2))

    @pytest.mark.parametrize("eigs", [[3.0, 2.0, 0.0, 0.0], [5.0, 4.0, 3.0, 0.0, 0.0, 0.0]],
                             ids=["rank2_of_4", "rank3_of_6"])
    def test_pairs_beyond_the_rank_are_orthonormal(self, eigs):
        # the deflated products past the rank are rounding noise, not exact zeros
        out = ec.power_topd(np.diag(eigs), len(eigs))
        gram = out.eigenvectors.T @ out.eigenvectors
        assert np.abs(gram - np.eye(len(eigs))).max() <= 1e-14
        assert np.allclose(out.eigenvalues, eigs, rtol=0, atol=1e-8)


def test_argument_validation(rng):
    mat, _ = spd_with_gaps(rng, 5)
    with pytest.raises(InvalidInputError):
        ec.power_topd(mat, 1, tol=0.0)
    with pytest.raises(InvalidInputError):
        ec.power_topd(np.eye(2), 1, max_iter=0)
    with pytest.raises(DimensionError):
        ec.power_topd(mat, 6)


def test_nan_tol_rejected(rng):
    # a NaN tolerance never converges: every pair would run to max_iter
    mat, _ = spd_with_gaps(rng, 5)
    with pytest.raises(InvalidInputError, match="tol must be positive, got nan"):
        ec.power_topd(mat, 1, tol=np.nan)
