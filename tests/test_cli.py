"""End-to-end CLI checks: pipelines, determinism, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpca
from dpca import cli, fileio
from dpca import eigencore as ec
from dpca.cli import main, parse_grid
from dpca.datamodel import DataMatrix


def run(*argv):
    return main([str(a) for a in argv])


def write_gaussian_csv(path, rng, m, stds, labels=None):
    data = DataMatrix(rng.standard_normal((m, len(stds))) * stds, labels=labels)
    fileio.write_data_csv(path, data)
    return path


class TestParseGrid:
    def test_log(self):
        grid = parse_grid("0.001:1000:15log")
        assert grid.shape == (15,)
        assert grid[0] == pytest.approx(0.001)
        assert grid[-1] == pytest.approx(1000.0)
        np.testing.assert_allclose(np.diff(np.log(grid)), np.diff(np.log(grid))[0])

    def test_linear(self):
        np.testing.assert_allclose(parse_grid("0:10:5"), [0, 2.5, 5, 7.5, 10])

    def test_malformed(self):
        from dpca.cli import UsageError
        for bad in ("1:2", "a:b:3log", "1:0:5log", "0:10:3log"):
            with pytest.raises(UsageError):
                parse_grid(bad)


class TestPipeline:
    def test_synth_fit_transform_plot(self, tmp_path):
        prefix = tmp_path / "exp"
        assert run("synth", "--features", 30, "--shared", 2, "-m", 200, "-n", 300,
                   "--seed", 3, "--out", prefix) == 0
        target = f"{prefix}_target.csv"
        background = f"{prefix}_background.csv"
        model = tmp_path / "model.json"
        assert run("fit", "dpca", target, background, "-d", 2, "--out", model) == 0
        emb = tmp_path / "emb.csv"
        assert run("transform", model, target, "--out", emb) == 0
        svg = tmp_path / "emb.svg"
        assert run("plot", emb, "--out", svg) == 0
        assert svg.read_text().count("<circle") == 200

    def test_pipeline_deterministic(self, tmp_path):
        out = []
        for tag in ("one", "two"):
            prefix = tmp_path / tag
            run("synth", "--features", 12, "-m", 60, "-n", 80, "--seed", 9, "--out", prefix)
            model = tmp_path / f"{tag}.json"
            run("fit", "dpca", f"{prefix}_target.csv", f"{prefix}_background.csv",
                "--out", model)
            emb = tmp_path / f"{tag}_emb.csv"
            run("transform", model, f"{prefix}_target.csv", "--out", emb)
            svg = tmp_path / f"{tag}.svg"
            run("plot", emb, "--out", svg)
            out.append((prefix, model, emb, svg))
        (p1, m1, e1, s1), (p2, m2, e2, s2) = out
        for suffix in ("_target.csv", "_background.csv", "_truth.json"):
            assert (tmp_path / f"one{suffix}").read_bytes() == (tmp_path / f"two{suffix}").read_bytes()
        one, two = fileio.load_model(m1), fileio.load_model(m2)
        assert np.array_equal(one.model.components, two.model.components)
        assert np.array_equal(one.model.eigenvalues, two.model.eigenvalues)
        assert np.array_equal(one.model.target_mean, two.model.target_mean)
        assert e1.read_bytes() == e2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()

    def test_auto_alpha_writes_one_model_per_selection(self, tmp_path, rng):
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 300, [3, 2, 1, 1])
        background = write_gaussian_csv(tmp_path / "b.csv", rng, 300, [1, 2, 3, 1])
        out = tmp_path / "cp.json"
        assert run("fit", "cpca", target, background, "--auto-alpha",
                   "--grid", "0.001:1000:15log", "--select", 4, "--out", out) == 0
        models = sorted(tmp_path.glob("cp_a*.json"))
        assert len(models) == 4
        alphas = [fileio.load_model(p).model.alpha for p in models]
        assert all(a is not None for a in alphas)

    def test_remark1_white_noise_background(self, tmp_path, rng):
        stds = [5.0, 4.0, 3.0, 2.0, 1.0, 1.0]
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 2000, stds)
        background = write_gaussian_csv(tmp_path / "b.csv", rng, 8000, np.ones(6))
        m_dpca, m_pca = tmp_path / "d.json", tmp_path / "p.json"
        assert run("fit", "dpca", target, background, "-d", 2, "--out", m_dpca) == 0
        assert run("fit", "pca", target, "-d", 2, "--out", m_pca) == 0
        dpc = fileio.load_model(m_dpca).model.components
        pc = fileio.load_model(m_pca).model.components
        for j in range(2):
            assert abs(dpc[:, j] @ pc[:, j]) >= 0.99

    def test_zscore_recorded_and_applied(self, tmp_path, rng):
        stds = [10.0, 0.1, 1.0]
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 400, stds)
        model_path = tmp_path / "m.json"
        assert run("fit", "pca", target, "-d", 1, "--zscore", "--out", model_path) == 0
        stored = fileio.load_model(model_path)
        assert stored.feature_scale is not None
        emb = tmp_path / "e.csv"
        assert run("transform", model_path, target, "--out", emb) == 0
        # recompute the expected projection by hand
        raw = fileio.read_csv(target)
        scaled = raw.values / stored.feature_scale
        expected = (scaled - stored.model.target_mean) @ stored.model.components
        got = fileio.read_csv(emb).values
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_multiple_backgrounds_concatenated(self, tmp_path, rng):
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 100, [2.0, 1.0])
        b1 = write_gaussian_csv(tmp_path / "b1.csv", rng, 60, [1.0, 1.0])
        b2 = write_gaussian_csv(tmp_path / "b2.csv", rng, 40, [1.0, 1.0])
        assert run("fit", "dpca", target, b1, b2, "--out", tmp_path / "m.json") == 0


class TestCompare:
    def test_report_and_metrics(self, tmp_path):
        prefix = tmp_path / "exp"
        run("synth", "--features", 40, "-m", 800, "-n", 1200, "--seed", 1, "--out", prefix)
        out = tmp_path / "cmp"
        assert run("compare", f"{prefix}_target.csv", f"{prefix}_background.csv",
                   "-d", 2, "--out", out) == 0
        report = json.loads((tmp_path / "cmp_report.json").read_text())
        assert report["methods"]["dpca"]["pencil_solves"] == 1
        assert report["methods"]["dpca"]["kmeans_accuracy"] >= 0.9
        assert report["methods"]["pca"]["kmeans_accuracy"] <= 0.65
        assert report["runtime_ratio_cpca_over_dpca"] > 0
        assert len(report["methods"]["cpca_auto"]["selected_alphas"]) == 4
        emb = fileio.read_csv(tmp_path / "cmp_dpca.csv")
        assert emb.values.shape == (800, 2)
        assert emb.labels is not None


    def test_summary_without_runtime_ratio(self, tmp_path, monkeypatch, capsys):
        # a clock that never advances gives dpca 0 s, so there is no ratio
        prefix = tmp_path / "exp"
        run("synth", "--features", 10, "-m", 100, "-n", 150, "--seed", 2, "--out", prefix)
        monkeypatch.setattr(cli.time, "perf_counter", lambda: 0.0)
        assert run("compare", f"{prefix}_target.csv", f"{prefix}_background.csv",
                   "--out", tmp_path / "cmp") == 0
        monkeypatch.undo()
        report = json.loads((tmp_path / "cmp_report.json").read_text())
        assert report["runtime_ratio_cpca_over_dpca"] is None
        assert report["methods"]["pca"]["seconds"] == 0.0
        assert "(ratio vs dpca: -)" in capsys.readouterr().out


class TestCompareMatchesFit:
    @pytest.mark.parametrize("flags", [(), ("--ridge", "0.5", "--seed", "3"), ("--zscore",)])
    def test_embeddings_equal_fit_then_transform(self, tmp_path, flags):
        # compare and fit share one load -> z-score -> center -> covariance ->
        # fit path, so compare's embeddings are fit + transform's, byte for byte
        prefix = tmp_path / "exp"
        run("synth", "--features", 20, "-m", 150, "-n", 200, "--seed", 4, "--out", prefix)
        target, background = f"{prefix}_target.csv", f"{prefix}_background.csv"
        assert run("compare", target, background, *flags, "--out", tmp_path / "cmp") == 0
        fits = {"dpca": ("dpca", target, background),
                "cpca": ("cpca", target, background, "--auto-alpha")}
        if "--zscore" not in flags:
            # fit pca takes no background, so its z-score scale comes from the
            # target alone, while compare pools target and background
            fits["pca"] = ("pca", target)
        for name, argv in fits.items():
            assert run("fit", *argv, *flags, "--out", tmp_path / f"{name}.json") == 0
        # fit cpca --auto-alpha writes one model per selected alpha (4 by default)
        models = [n for n in fits if n != "cpca"] + [f"cpca_a{i}" for i in range(1, 5)]
        for name in models:
            emb = tmp_path / f"{name}.csv"
            assert run("transform", tmp_path / f"{name}.json", target, "--out", emb) == 0
            assert emb.read_bytes() == (tmp_path / f"cmp_{name}.csv").read_bytes(), name


class TestWideData:
    def test_fit_and_compare_match_dense_reference(self, tmp_path, rng):
        # 40 + 60 samples in 300 features: the fits take the reduced route
        dim, m, n = 300, 40, 60
        labels = np.repeat([0, 1], m // 2)
        xt = rng.standard_normal((m, dim)) * np.linspace(3.0, 0.5, dim)
        xt[:, 0] += 4.0 * labels
        xb = rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0, dim)
        fileio.write_data_csv(tmp_path / "t.csv", DataMatrix(xt, labels=labels))
        fileio.write_data_csv(tmp_path / "b.csv", DataMatrix(xb))
        assert run("fit", "dpca", tmp_path / "t.csv", tmp_path / "b.csv", "-d", 2,
                   "--ridge", 1, "--out", tmp_path / "m.json") == 0
        assert run("compare", tmp_path / "t.csv", tmp_path / "b.csv", "-d", 2,
                   "--ridge", 1, "--out", tmp_path / "cmp") == 0

        def covariance(x):
            x = x - x.mean(axis=0)
            return x.T @ x / x.shape[0] + np.eye(dim)

        ref = ec.generalized_eig(covariance(xt), covariance(xb), 2)
        model = fileio.load_model(tmp_path / "m.json").model
        np.testing.assert_allclose(model.eigenvalues, ref.eigenvalues, rtol=1e-12)
        for j in range(2):
            assert abs(model.components[:, j] @ ref.eigenvectors[:, j]) >= 1 - 1e-10
        report = json.loads((tmp_path / "cmp_report.json").read_text())
        assert report["methods"]["dpca"]["pencil_solves"] == 1
        np.testing.assert_allclose(report["methods"]["dpca"]["eigenvalues"], ref.eigenvalues,
                                   rtol=1e-12)


class TestFloorWarning:
    def test_warning_on_stderr_names_ridge(self, tmp_path, rng):
        # 20 background rows in 40 features: the whitening floor decides the fit
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 60, np.ones(40))
        background = write_gaussian_csv(tmp_path / "b.csv", rng, 20, np.ones(40))
        src = str(Path(dpca.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

        def fit(*extra):
            return subprocess.run(
                [sys.executable, "-m", "dpca", "fit", "dpca", str(target), str(background),
                 "-d", "2", "--out", str(tmp_path / "m.json"), *extra],
                capture_output=True, text=True, env=env, timeout=120)

        floored = fit()
        assert floored.returncode == 0
        assert "FloorAppliedWarning" in floored.stderr and "--ridge" in floored.stderr
        assert floored.stdout.startswith("dpca d=2 eigenvalues:")
        ridged = fit("--ridge", "1")
        assert ridged.returncode == 0
        assert ridged.stderr == ""


class TestExitCodes:
    def test_usage_missing_background(self, tmp_path, rng):
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 20, [1.0, 1.0])
        assert run("fit", "dpca", target) == 2

    def test_usage_cpca_needs_alpha(self, tmp_path, rng):
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 20, [1.0, 1.0])
        background = write_gaussian_csv(tmp_path / "b.csv", rng, 20, [1.0, 1.0])
        assert run("fit", "cpca", target, background) == 2

    def test_usage_pca_rejects_background(self, tmp_path, rng):
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 20, [1.0, 1.0])
        background = write_gaussian_csv(tmp_path / "b.csv", rng, 20, [1.0, 1.0])
        assert run("fit", "pca", target, background) == 2

    def test_usage_plot_needs_two_columns(self, tmp_path):
        emb = tmp_path / "one.csv"
        emb.write_text("component_1\n1.0\n2.0\n")
        assert run("plot", emb, "--out", tmp_path / "x.svg") == 2

    def test_usage_synth_subspace_budget(self, tmp_path):
        assert run("synth", "--features", 3, "--shared", 3, "--specific", 1,
                   "--out", tmp_path / "s") == 2

    def test_data_ragged_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        assert run("fit", "pca", bad, "--out", tmp_path / "m.json") == 3

    def test_data_dimension_mismatch(self, tmp_path, rng):
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 20, [1.0, 1.0])
        background = write_gaussian_csv(tmp_path / "b.csv", rng, 20, [1.0, 1.0, 1.0])
        assert run("fit", "dpca", target, background, "--out", tmp_path / "m.json") == 3

    def test_data_missing_file(self, tmp_path):
        assert run("fit", "pca", tmp_path / "nope.csv", "--out", tmp_path / "m.json") == 3

    def test_numerical_rank_zero_background(self, tmp_path, rng):
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 30, [1.0, 1.0])
        constant = tmp_path / "b.csv"
        fileio.write_data_csv(constant, DataMatrix(np.ones((30, 2))))
        assert run("fit", "dpca", target, constant, "--out", tmp_path / "m.json") == 4

    def test_transform_dimension_mismatch(self, tmp_path, rng):
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 30, [1.0, 1.0])
        model = tmp_path / "m.json"
        assert run("fit", "pca", target, "--out", model) == 0
        other = write_gaussian_csv(tmp_path / "wide.csv", rng, 5, [1.0, 1.0, 1.0])
        assert run("transform", model, other, "--out", tmp_path / "e.csv") == 3
