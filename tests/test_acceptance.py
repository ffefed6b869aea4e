"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Sizes and tolerances are fixed here, not tuned at runtime.
"""

import json
import time

import numpy as np
import pytest

from dpca import eigencore as ec
from dpca import fileio, methods, synthgen
from dpca.cli import main as cli_main
from dpca.cluster import cluster_label_accuracy
from dpca.datamodel import CovarianceEstimate, DataMatrix, center, sample_covariance
from dpca.errors import FloorAppliedWarning, NonConvergenceError

from conftest import random_orthogonal, random_spd


def cov(mat):
    return CovarianceEstimate(matrix=np.asarray(mat, dtype=np.float64), sample_count=0)


def test_criterion_1_pencil_residual_suite():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 51))
        d = int(min(rng.integers(1, 6), dim))
        a = random_spd(rng, dim)
        b = random_spd(rng, dim)
        model = methods.dpca_fit(cov(a), cov(b), d)
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        for i in range(d):
            u, lam = model.components[:, i], model.eigenvalues[i]
            resid = np.linalg.norm(a @ u - lam * (b @ u)) / (na + lam * nb)
            worst = max(worst, resid)
            assert resid <= 1e-7
    elapsed = time.perf_counter() - started
    assert elapsed <= 30.0
    print(f"ACCEPTANCE 1 PASS: pencil residual suite "
          f"(200 pairs, worst {worst:.2e}, {elapsed:.1f} s)")


def test_criterion_2_identity_background_degeneration():
    rng = np.random.default_rng(1002)
    worst = 1.0
    for _ in range(100):
        dim = int(rng.integers(2, 13))
        d = int(min(3, dim))
        a = random_spd(rng, dim)
        dpc = methods.dpca_fit(cov(a), cov(np.eye(dim)), d)
        pc = methods.pca_fit(cov(a), d)
        for j in range(d):
            cos = abs(dpc.components[:, j] @ pc.components[:, j])
            worst = min(worst, cos)
            assert cos >= 1 - 1e-10
    print(f"ACCEPTANCE 2 PASS: identity-background degeneration "
          f"(100 draws, worst |cos| {worst:.12f})")


def test_criterion_3_diagonalizable_oracle():
    rng = np.random.default_rng(1003)
    checked_alphas = 0
    for _ in range(100):
        dim = int(rng.integers(2, 11))
        d = int(min(rng.integers(1, 6), dim))
        while True:  # reject degenerate ratio draws
            basis = random_orthogonal(rng, dim)
            lam_x = rng.uniform(0.5, 10.0, size=dim)
            lam_y = rng.uniform(0.5, 10.0, size=dim)
            ratios = lam_x / lam_y
            off = ~np.eye(dim, dtype=bool)
            if dim == 1 or np.min(np.abs(np.subtract.outer(ratios, ratios))[off]) > 1e-3:
                break
        cxx = cov((basis * lam_x) @ basis.T)
        cyy = cov((basis * lam_y) @ basis.T)
        model = methods.dpca_fit(cxx, cyy, d)
        ranking = np.argsort(-ratios)
        for j in range(d):
            assert abs(model.components[:, j] @ basis[:, ranking[j]]) >= 1 - 1e-8
        np.testing.assert_allclose(model.eigenvalues, ratios[ranking[:d]], rtol=1e-8)

        done = 0
        while done < 5:  # 5 usable alphas per pair, rejecting near ties
            alpha = float(rng.uniform(0.0, 5.0))
            scores = lam_x - alpha * lam_y
            if dim > 1 and np.min(np.abs(np.subtract.outer(scores, scores))[off]) <= 1e-6:
                continue
            cmodel = methods.cpca_fit(cxx, cyy, alpha, d)
            cranking = np.argsort(-scores)
            for j in range(d):
                assert abs(cmodel.components[:, j] @ basis[:, cranking[j]]) >= 1 - 1e-8
            done += 1
            checked_alphas += 1
    print(f"ACCEPTANCE 3 PASS: simultaneous-diagonalization oracle "
          f"(100 pairs, {checked_alphas} alpha rankings)")


def test_criterion_4_cpca_dpca_equivalence_at_top_eigenvalue():
    rng = np.random.default_rng(1004)
    worst = 1.0
    done = 0
    while done < 100:
        dim = int(rng.integers(2, 21))
        a, b = random_spd(rng, dim), random_spd(rng, dim)
        pairs = ec.generalized_eig(a, b, min(2, dim))
        if dim > 1 and pairs.eigenvalues[0] - pairs.eigenvalues[1] < 1e-3 * pairs.eigenvalues[0]:
            continue  # the top pair must be unique for the equivalence to hold
        top_dpc = methods.dpca_fit(cov(a), cov(b), 1).components[:, 0]
        top_cpc = methods.cpca_fit(cov(a), cov(b), float(pairs.eigenvalues[0]), 1).components[:, 0]
        cos = abs(top_dpc @ top_cpc)
        worst = min(worst, cos)
        assert cos >= 1 - 1e-8
        done += 1
    print(f"ACCEPTANCE 4 PASS: cPCA(alpha = top pencil eigenvalue) matches dPCA "
          f"(100 pairs, worst |cos| {worst:.10f})")


def _recovery_cos(noise_std, seed):
    spec = synthgen.random_spec(
        20, 3, 1,
        background_coeff_std=[10.0, 9.0, 8.0],
        shared_coeff_std=[10.0, 9.0, 8.0],
        specific_coeff_std=1.0,
        noise_std=noise_std, seed=seed)
    pair = synthgen.gen_pair(spec, 2000, 2000, [[0.0]])
    cxx = sample_covariance(center(pair.target))
    cyy = sample_covariance(center(pair.background))
    model = methods.dpca_fit(cxx, cyy, 1)
    return abs(float(model.components[:, 0] @ spec.specific_basis[:, 0]))


def test_criterion_5_ls_recovery():
    # without noise the background has rank 3 < 20 by construction, so the floor applies
    with pytest.warns(FloorAppliedWarning):
        noiseless = [_recovery_cos(0.0, seed) for seed in range(20)]
    # noise at one tenth of the specific coefficient std
    noisy = [_recovery_cos(0.1, seed) for seed in range(20)]
    ok_noiseless = sum(c >= 0.99 for c in noiseless)
    ok_noisy = sum(c >= 0.9 for c in noisy)
    assert ok_noiseless >= 18
    assert ok_noisy >= 18
    print(f"ACCEPTANCE 5 PASS: factor-model recovery "
          f"(noiseless {ok_noiseless}/20 >= 0.99, min {min(noiseless):.4f}; "
          f"noisy {ok_noisy}/20 >= 0.9, min {min(noisy):.4f})")


def test_criterion_6_subgroup_discovery():
    spec = synthgen.default_subgroup_spec(n_features=100, n_shared=3, n_specific=1, seed=0)
    pair = synthgen.gen_pair(spec, 2000, 3000, synthgen.spread_offsets(2, 1, 6.0))
    cxx = sample_covariance(center(pair.target))
    cyy = sample_covariance(center(pair.background))
    dpca_model = methods.dpca_fit(cxx, cyy, 2)
    pca_model = methods.pca_fit(cxx, 2)
    dpca_emb = methods.transform(dpca_model, pair.target)
    pca_emb = methods.transform(pca_model, pair.target)
    acc_dpca = cluster_label_accuracy(dpca_emb.coordinates[:, :2], pair.target.labels, seed=0)
    acc_pca = cluster_label_accuracy(pca_emb.coordinates[:, :2], pair.target.labels, seed=0)
    assert acc_dpca >= 0.95
    assert acc_pca <= 0.6
    print(f"ACCEPTANCE 6 PASS: subgroup discovery "
          f"(dPCA 2-means accuracy {acc_dpca:.3f} >= 0.95, PCA {acc_pca:.3f} <= 0.6)")


def test_criterion_7_runtime_shape():
    spec = synthgen.default_subgroup_spec(n_features=200, n_shared=3, n_specific=1, seed=0)
    pair = synthgen.gen_pair(spec, 5000, 5000, synthgen.spread_offsets(2, 1, 6.0))
    cxx = sample_covariance(center(pair.target))
    cyy = sample_covariance(center(pair.background))

    methods.dpca_fit(cxx, cyy, 2)  # warm the BLAS/LAPACK path
    times = []
    for _ in range(3):
        ec.reset_pencil_solve_count()
        t0 = time.perf_counter()
        methods.dpca_fit(cxx, cyy, 2)
        times.append(time.perf_counter() - t0)
        assert ec.pencil_solve_count() == 1  # exactly one pencil solve per fit
    t_dpca = sorted(times)[1]

    grid = np.geomspace(0.001, 1000, 15)
    t0 = time.perf_counter()
    selection = methods.cpca_select_alphas(cxx, cyy, grid, 2, 4, seed=0)
    for alpha in selection.selected:
        methods.cpca_fit(cxx, cyy, float(alpha), 2)
    t_cpca = time.perf_counter() - t0

    ratio = t_cpca / t_dpca
    assert ratio >= 5.0
    print(f"ACCEPTANCE 7 PASS: runtime shape "
          f"(dPCA {t_dpca * 1e3:.1f} ms with 1 pencil solve, "
          f"cPCA auto-alpha {t_cpca * 1e3:.1f} ms, ratio {ratio:.1f}x >= 5x)")


def test_criterion_8_power_iteration_oracle():
    rng = np.random.default_rng(1008)
    worst_gap = np.inf
    worst_cos = 1.0
    for _ in range(50):
        dim = int(rng.integers(5, 40))
        q = random_orthogonal(rng, dim)
        # top three eigenvalues separated by at least 0.1, rest below by 0.1
        lead = 3.0 + np.cumsum(rng.uniform(0.1, 0.6, size=3))[::-1]
        rest = rng.uniform(0.05, lead[-1] - 0.1, size=dim - 3)
        eigs = np.concatenate([lead, rest])
        mat = (q * eigs) @ q.T
        out = ec.power_topd(mat, 3, tol=1e-13, max_iter=50000, seed=5)
        dense = ec.sym_eigendecompose(mat)
        for j in range(3):
            gap = abs(out.eigenvalues[j] - dense.eigenvalues[j])
            cos = abs(out.eigenvectors[:, j] @ dense.eigenvectors[:, j])
            worst_gap = min(worst_gap, 1e-6 - gap)
            worst_cos = min(worst_cos, cos)
            assert gap <= 1e-6
            assert cos >= 1 - 1e-6
    print(f"ACCEPTANCE 8 PASS: deflated power iteration vs dense solve "
          f"(50 matrices, worst |cos| {worst_cos:.8f})")


def test_criterion_9_cli_round_trips(tmp_path, rng):
    # model save/load exactness
    a, b = random_spd(rng, 6), random_spd(rng, 6)
    model = methods.dpca_fit(cov(a), cov(b), 3, target_mean=rng.standard_normal(6))
    model_path = tmp_path / "model.json"
    fileio.save_model(model_path, model, provenance={"seed": 0})
    back = fileio.load_model(model_path).model
    assert np.array_equal(back.components, model.components)
    assert np.array_equal(back.eigenvalues, model.eigenvalues)
    assert np.array_equal(back.target_mean, model.target_mean)

    # deterministic synth -> fit -> transform -> plot pipeline
    digests = []
    for tag in ("r1", "r2"):
        prefix = tmp_path / tag
        assert cli_main(["synth", "--features", "20", "-m", "150", "-n", "200",
                         "--seed", "7", "--out", str(prefix)]) == 0
        mpath = tmp_path / f"{tag}.json"
        assert cli_main(["fit", "dpca", f"{prefix}_target.csv",
                         f"{prefix}_background.csv", "-d", "2", "--out", str(mpath)]) == 0
        epath = tmp_path / f"{tag}.csv"
        assert cli_main(["transform", str(mpath), f"{prefix}_target.csv",
                         "--out", str(epath)]) == 0
        spath = tmp_path / f"{tag}.svg"
        assert cli_main(["plot", str(epath), "--out", str(spath)]) == 0
        digests.append((open(f"{prefix}_target.csv", "rb").read(),
                        open(f"{prefix}_background.csv", "rb").read(),
                        epath.read_bytes(), spath.read_bytes()))
    assert digests[0] == digests[1]

    # documented error exit codes
    target = tmp_path / "t.csv"
    fileio.write_data_csv(target, DataMatrix(rng.standard_normal((30, 2))))
    assert cli_main(["fit", "dpca", str(target)]) == 2  # usage: no background
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    assert cli_main(["fit", "pca", str(ragged), "--out", str(tmp_path / "x.json")]) == 3
    flat = tmp_path / "flat.csv"
    fileio.write_data_csv(flat, DataMatrix(np.ones((30, 2))))
    assert cli_main(["fit", "dpca", str(target), str(flat),
                     "--out", str(tmp_path / "x.json")]) == 4  # rank-zero background
    print("ACCEPTANCE 9 PASS: CLI round-trips "
          "(model exact, pipeline byte-deterministic, exit codes 2/3/4)")


def test_criterion_9b_non_convergence_is_numerical_error():
    # the documented non-convergence error carries its best iterate
    rng = np.random.default_rng(1009)
    mat = random_spd(rng, 10)
    try:
        ec.power_topd(mat, 1, tol=1e-18, max_iter=2)
    except NonConvergenceError as err:
        assert err.best_vector.shape == (10,)
        assert np.isfinite(err.residual)
    else:
        raise AssertionError("expected NonConvergenceError")
