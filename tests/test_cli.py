"""End-to-end CLI checks: pipelines, determinism, and exit codes."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dpca
from dpca import cli, fileio, methods, synthgen
from dpca import eigencore as ec
from dpca.cli import main, parse_grid
from dpca.datamodel import DataMatrix

from conftest import reference_table


def run(*argv):
    return main([str(a) for a in argv])


def src_env():
    """This environment with the package's source directory first on PYTHONPATH."""
    src = str(Path(dpca.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


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
        for bad in ("1:2", "a:b:3log", "1:0:5log", "0:10:3log", "0:10:5lin"):
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

    def test_auto_alpha_reuses_the_selection_pairs(self, tmp_path, monkeypatch):
        # the selection has already solved at each selected alpha; neither
        # command fits cPCA again
        prefix = tmp_path / "exp"
        run("synth", "--features", 20, "-m", 150, "-n", 200, "--seed", 4, "--out", prefix)
        target, background = f"{prefix}_target.csv", f"{prefix}_background.csv"
        calls = []
        real = methods.cpca_fit

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(methods, "cpca_fit", spy)
        assert run("fit", "cpca", target, background, "--auto-alpha",
                   "--out", tmp_path / "cp.json") == 0
        assert run("compare", target, background, "--out", tmp_path / "cmp") == 0
        assert calls == []
        assert run("fit", "cpca", target, background, "--alpha", 1,
                   "--out", tmp_path / "one.json") == 0
        assert len(calls) == 1  # the spy sees a fixed-alpha fit

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
        assert stored.model.feature_scale is not None
        emb = tmp_path / "e.csv"
        assert run("transform", model_path, target, "--out", emb) == 0
        # recompute the expected projection by hand
        raw = fileio.read_csv(target)
        scaled = raw.values / stored.model.feature_scale
        expected = (scaled - stored.model.target_mean) @ stored.model.components
        got = fileio.read_csv(emb).values
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_multiple_backgrounds_concatenated(self, tmp_path, rng):
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 100, [2.0, 1.0])
        b1 = write_gaussian_csv(tmp_path / "b1.csv", rng, 60, [1.0, 1.0])
        b2 = write_gaussian_csv(tmp_path / "b2.csv", rng, 40, [1.0, 1.0])
        assert run("fit", "dpca", target, b1, b2, "--out", tmp_path / "m.json") == 0

    def test_fit_creates_the_output_directory(self, tmp_path, rng):
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 30, [1.0, 2.0])
        model = tmp_path / "new" / "dir" / "m.json"
        assert run("fit", "pca", target, "--out", model) == 0
        assert fileio.load_model(model).model.n_features == 2


class TestHelp:
    def test_defaults_come_from_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("fit", "--help")
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
        assert f"(default {ec.DEFAULT_FLOOR_REL:g})" in text
        assert f"(default {cli.DEFAULT_GRID})" in text


class TestCompare:
    def test_report_and_metrics(self, tmp_path, pencil_solves):
        prefix = tmp_path / "exp"
        run("synth", "--features", 40, "-m", 800, "-n", 1200, "--seed", 1, "--out", prefix)
        out = tmp_path / "cmp"
        assert run("compare", f"{prefix}_target.csv", f"{prefix}_background.csv",
                   "-d", 2, "--out", out) == 0
        assert len(pencil_solves) == 1  # the whole command makes one pencil solve
        report = json.loads((tmp_path / "cmp_report.json").read_text())
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

    def test_unlabelled_target_has_no_metrics(self, tmp_path, rng, capsys):
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 60, [3.0, 1.0, 1.0])
        background = write_gaussian_csv(tmp_path / "b.csv", rng, 60, [1.0, 1.0, 1.0])
        assert run("compare", target, background, "--select", 2, "--out", tmp_path / "cmp") == 0
        report = json.loads((tmp_path / "cmp_report.json").read_text())
        rows = [report["methods"]["pca"], report["methods"]["dpca"],
                *report["methods"]["cpca_auto"]["per_alpha"].values()]
        assert len(rows) == 4
        assert all(row["kmeans_accuracy"] is None and row["silhouette"] is None for row in rows)
        table = capsys.readouterr().out.splitlines()[1:5]
        assert all(line.split()[-2:] == ["-", "-"] for line in table)


class TestAlphaKeys:
    def test_fewest_digits_that_tell_alphas_apart(self):
        default = list(parse_grid(cli.DEFAULT_GRID))
        assert cli._alpha_keys(default) == [format(a, ".6g") for a in default]
        assert cli._alpha_keys([1.0, 1.0000002, 1.0000008]) == ["1", "1.0000002", "1.0000008"]
        assert cli._alpha_keys([2.5, 2.5]) == ["2.5", "2.5"]
        assert cli._alpha_keys([0.1, np.nextafter(0.1, 1.0)]) == ["0.10000000000000001",
                                                                   "0.10000000000000002"]

    def test_compare_reports_every_selected_alpha(self, tmp_path, capsys):
        prefix = tmp_path / "exp"
        run("synth", "--features", 20, "-m", 150, "-n", 200, "--seed", 4, "--out", prefix)
        capsys.readouterr()
        assert run("compare", f"{prefix}_target.csv", f"{prefix}_background.csv",
                   "--grid", "1:1.000001:6", "--select", 3, "--out", tmp_path / "cmp") == 0
        printed = capsys.readouterr().out
        auto = json.loads((tmp_path / "cmp_report.json").read_text())["methods"]["cpca_auto"]
        # three different alphas that agree to 6 significant digits
        assert len(set(auto["selected_alphas"])) == 3
        assert list(auto["per_alpha"]) == cli._alpha_keys(auto["selected_alphas"])
        assert len(auto["per_alpha"]) == 3
        for i, key in enumerate(auto["per_alpha"], start=1):
            assert auto["per_alpha"][key]["embedding_csv"] == f"{tmp_path / 'cmp'}_cpca_a{i}.csv"
            assert f"cpca a={key} " in printed


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


class TestLibraryPath:
    @pytest.mark.parametrize("method,backgrounds,flags", [
        ("dpca", 1, ()),
        ("dpca", 2, ()),
        ("cpca", 1, ("--alpha", "2", "--zscore", "--ridge", "0.5")),
        ("cpca", 1, ("--auto-alpha", "--zscore", "--select", "3", "--seed", "3")),
    ])
    def test_fit_writes_the_library_model(self, tmp_path, method, backgrounds, flags):
        # read_csv -> fit_inputs -> dpca.fit -> save_model is the path fit runs
        prefix = tmp_path / "exp"
        run("synth", "--features", 20, "-m", 150, "-n", 200, "--seed", 4, "--out", prefix)
        target = f"{prefix}_target.csv"
        parts = [f"{prefix}_background.csv"]
        if backgrounds == 2:
            second = tmp_path / "second"
            run("synth", "--features", 20, "-m", 50, "-n", 120, "--seed", 5, "--out", second)
            parts.append(f"{second}_background.csv")
        cli_path, lib_path = tmp_path / "cli.json", tmp_path / "lib.json"
        assert run("fit", method, target, *parts, *flags, "--out", cli_path) == 0

        inputs = dpca.fit_inputs(fileio.read_csv(target), [fileio.read_csv(p) for p in parts],
                                 ridge=0.5 if "--ridge" in flags else 0.0,
                                 zscore="--zscore" in flags)
        if "--auto-alpha" in flags:
            models = dpca.fit(method, inputs, 2, grid=parse_grid(cli.DEFAULT_GRID), select=3, seed=3)
            cli_paths = [tmp_path / f"cli_a{i}.json" for i in range(1, len(models) + 1)]
        else:
            models = dpca.fit(method, inputs, 2, alpha=2.0 if method == "cpca" else None)
            cli_paths = [cli_path]
        assert sorted(tmp_path.glob("cli*.json")) == cli_paths
        for model, path in zip(models, cli_paths):
            provenance = json.loads(path.read_text())["provenance"]
            fileio.save_model(lib_path, model, provenance=provenance)
            assert lib_path.read_bytes() == path.read_bytes()


class TestStartup:
    def test_small_commands_never_import_scipy(self, tmp_path):
        # D = 20, and D = 200 on wide data (30 + 60 + 2 <= 200 / 2): fewer
        # features than eigencore.TOP_D_MIN_DIM, so every fit runs in numpy
        commands = []
        for name, features, m, n in (("exp", "20", "150", "200"), ("wide", "200", "30", "60")):
            prefix = tmp_path / name
            data = [f"{prefix}_target.csv", f"{prefix}_background.csv"]
            commands += [["synth", "--features", features, "-m", m, "-n", n, "--out", str(prefix)],
                         ["fit", "dpca", *data, "--out", str(tmp_path / f"{name}.json")],
                         ["compare", *data, "--out", str(tmp_path / f"{name}_cmp")]]
        script = ("import json, sys\nfrom dpca.cli import main\n"
                  "assert all(main(argv) == 0 for argv in json.loads(sys.argv[1]))\n"
                  "print('scipy' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              capture_output=True, text=True, env=src_env(), timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    def test_no_fit_time_includes_the_scipy_import(self, tmp_path):
        # 600 features >= eigencore.TOP_D_MIN_DIM, so the fits run in scipy,
        # also where wide data reduces to an order below it (60 + 140 + 2 =
        # 202, against 60 + 200 + 2 = 262); a fresh interpreter has not
        # imported scipy yet
        commands = []
        for n in (140, 200):  # the order-202 fits first, in the fresh interpreter
            prefix = tmp_path / f"wide{n}"
            assert run("synth", "--features", 600, "-m", 60, "-n", n, "--seed", 3,
                       "--out", prefix) == 0
            data = [f"{prefix}_target.csv", f"{prefix}_background.csv", "--ridge", "1"]
            commands += [["fit", "dpca", *data, "--out", str(tmp_path / f"m{n}.json")],
                         ["compare", *data, "--out", str(tmp_path / f"cmp{n}")]]
        script = ("import json, sys, time, types\nfrom dpca import cli\nreads = []\n"
                  "def clock():\n"
                  "    reads.append('scipy.linalg' in sys.modules)\n"
                  "    return time.perf_counter()\n"
                  "cli.time = types.SimpleNamespace(perf_counter=clock)\n"
                  "assert all(cli.main(argv) == 0 for argv in json.loads(sys.argv[1]))\n"
                  "print(json.dumps(reads))")
        done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              capture_output=True, text=True, env=src_env(), timeout=120)
        assert done.returncode == 0, done.stderr
        # two reads per fit: fit dpca's one fit, compare's three, for each shape
        assert json.loads(done.stdout.splitlines()[-1]) == [True] * 16

    def test_module_entry_point(self):
        done = subprocess.run([sys.executable, "-m", "dpca", "--help"],
                              capture_output=True, text=True, env=src_env(), timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: dpca")


class TestCsvBytes:
    @pytest.mark.parametrize("scale", [1.0, 1e-7, 1e16])
    def test_synth_and_transform_write_reference_bytes(self, tmp_path, scale):
        # every cell is '%.17g' of the array behind it, rebuilt here from
        # synthgen and the model; at 1e-7 and 1e16 the values straddle the
        # edges of the writer's window 1e-6 <= |v| < 1e17
        stds = ["--shared-std", 10 * scale, "--background-std", 15 * scale,
                "--specific-std", scale, "--noise-std", scale, "--separation", 6 * scale]
        prefix = tmp_path / "exp"
        assert run("synth", "--features", 6, "--shared", 1, "-m", 40, "-n", 50, "--seed", 7,
                   *stds, "--out", prefix) == 0
        spec = synthgen.random_spec(6, 1, 1, background_coeff_std=np.full(1, 15 * scale),
                                    shared_coeff_std=np.full(1, 10 * scale),
                                    specific_coeff_std=scale, noise_std=scale, seed=7)
        pair = synthgen.gen_pair(spec, 40, 50, synthgen.spread_offsets(2, 1, 6 * scale))
        features = [f"f{j + 1}" for j in range(6)]
        target, background = Path(f"{prefix}_target.csv"), Path(f"{prefix}_background.csv")
        assert target.read_bytes() == reference_table(
            pair.target.values, pair.target.labels, features + ["label"]).encode()
        assert background.read_bytes() == reference_table(
            pair.background.values, None, features).encode()

        model, emb = tmp_path / "model.json", tmp_path / "emb.csv"
        assert run("fit", "dpca", target, background, "-d", 2, "--out", model) == 0
        assert run("transform", model, target, "--out", emb) == 0
        coords = methods.transform(fileio.load_model(model).model, pair.target).coordinates
        assert emb.read_bytes() == reference_table(
            coords, pair.target.labels, ["component_1", "component_2", "label"]).encode()


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """A list that gains the arguments of every ``np.loadtxt`` call."""
    calls = []
    real = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return calls


def test_synth_holds_one_generated_table_at_a_time(tmp_path):
    # one table, one block of its noise and the write buffers: 1.91x the
    # background measured, where drawing the noise whole took 2.21x and
    # holding the target too 2.89x
    features, m, n = 50, 4000, 6000
    run("synth", "-m", 10, "-n", 10, "--out", tmp_path / "warm")  # one-time allocations
    tracemalloc.start()
    try:
        assert run("synth", "--features", features, "-m", m, "-n", n, "--out", tmp_path / "s") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (8 * n * features)


def test_zscored_transform_holds_one_copy_of_the_table(tmp_path):
    # the parsed table and one scaled, centered copy: 2.07x the table
    # measured, where dividing and subtracting into new arrays took 3.07x
    features, m = 50, 20000
    run("synth", "--features", features, "-m", m, "-n", 100, "--seed", 1, "--out", tmp_path / "s")
    target, model = tmp_path / "s_target.csv", tmp_path / "z.json"
    assert run("fit", "pca", target, "--zscore", "--out", model) == 0
    run("transform", model, target, "--out", tmp_path / "warm.csv")  # one-time allocations
    tracemalloc.start()
    try:
        assert run("transform", model, target, "--out", tmp_path / "e.csv") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (8 * m * features)


class TestReadRoute:
    """What the package writes is read by the kernel; other files by np.loadtxt."""

    @pytest.mark.parametrize("scale", [1.0, 1e-7, 1e16])
    def test_package_output_never_reaches_loadtxt(self, tmp_path, loadtxt_calls, scale):
        stds = ["--shared-std", 10 * scale, "--background-std", 15 * scale,
                "--specific-std", scale, "--noise-std", scale, "--separation", 6 * scale]
        prefix = tmp_path / "exp"
        assert run("synth", "--features", 6, "--shared", 1, "-m", 40, "-n", 50, "--seed", 7,
                   *stds, "--out", prefix) == 0
        target, background = f"{prefix}_target.csv", f"{prefix}_background.csv"
        model, emb = tmp_path / "model.json", tmp_path / "emb.csv"
        assert run("fit", "dpca", target, background, "-d", 2, "--out", model) == 0
        assert run("transform", model, target, "--out", emb) == 0
        assert run("compare", target, background, "-d", 2, "--out", tmp_path / "cmp") == 0
        assert run("plot", emb, "--out", tmp_path / "emb.svg") == 0
        embeddings = sorted(tmp_path.glob("cmp_*.csv"))
        assert embeddings
        for path in [emb, *embeddings]:
            fileio.read_csv(path)
        assert loadtxt_calls == []

    @pytest.mark.parametrize("text,rows", [("f1,f2\r\n1,2\r\n", [[1.0, 2.0]]),
                                           ("f1,f2\n1,2\n\n", [[1.0, 2.0]]),
                                           ("f1,f2\r\n1,2\r\n\r\n\n", [[1.0, 2.0]]),
                                           ("f1,f2\n1,2\n\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
                                           ("f1,f2\r1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]])],
                             ids=["crlf", "trailing-blank-line", "crlf-trailing-blank-lines",
                                  "blank-line", "lone-cr"])
    def test_crlf_and_trailing_blank_lines_take_the_kernel(self, tmp_path, loadtxt_calls, text,
                                                           rows):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        assert fileio.read_csv(path).values.tolist() == rows
        assert loadtxt_calls == []

    @pytest.mark.parametrize("text", ['"f1","f2"\n"1","2"\n', "f1,f2\n 1,2\n3,4\n"],
                             ids=["quoted", "padded"])
    def test_other_files_go_through_loadtxt(self, tmp_path, loadtxt_calls, text):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        assert fileio.read_csv(path).values[0].tolist() == [1.0, 2.0]
        assert loadtxt_calls

    @pytest.mark.parametrize("label,passes", [(-3, 1), (2**53 + 1, 2)],
                             ids=["small-labels", "large-label"])
    def test_quoted_labels_read_as_text_only_when_needed(self, tmp_path, loadtxt_calls,
                                                         label, passes):
        # a label below 2**53 is exact as a double; only a larger one is read again as text
        path = tmp_path / "in.csv"
        path.write_text(f'"f1","label"\n"1.5","1"\n"2","{label}"\n')
        assert fileio.read_csv(path).labels.tolist() == [1, label]
        assert len(loadtxt_calls) == passes


class TestWideData:
    def test_fit_and_compare_match_dense_reference(self, tmp_path, rng, pencil_solves):
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
        assert len(pencil_solves) == 1
        assert run("compare", tmp_path / "t.csv", tmp_path / "b.csv", "-d", 2,
                   "--ridge", 1, "--out", tmp_path / "cmp") == 0
        assert len(pencil_solves) == 2  # one more for the whole compare command

        def covariance(x):
            x = x - x.mean(axis=0)
            return x.T @ x / x.shape[0] + np.eye(dim)

        ref = ec.generalized_eig(covariance(xt), covariance(xb), 2)
        model = fileio.load_model(tmp_path / "m.json").model
        np.testing.assert_allclose(model.eigenvalues, ref.eigenvalues, rtol=1e-12)
        for j in range(2):
            assert abs(model.components[:, j] @ ref.eigenvectors[:, j]) >= 1 - 1e-10
        report = json.loads((tmp_path / "cmp_report.json").read_text())
        np.testing.assert_allclose(report["methods"]["dpca"]["eigenvalues"], ref.eigenvalues,
                                   rtol=1e-12)


class TestFloorWarning:
    def test_warning_on_stderr_names_ridge(self, tmp_path, rng):
        # 20 background rows in 40 features: the whitening floor decides the fit
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 60, np.ones(40))
        background = write_gaussian_csv(tmp_path / "b.csv", rng, 20, np.ones(40))

        def fit(*extra):
            return subprocess.run(
                [sys.executable, "-m", "dpca", "fit", "dpca", str(target), str(background),
                 "-d", "2", "--out", str(tmp_path / "m.json"), *extra],
                capture_output=True, text=True, env=src_env(), timeout=120)

        floored = fit()
        assert floored.returncode == 0
        assert "FloorAppliedWarning" in floored.stderr and "--ridge" in floored.stderr
        # one line, like an error's, with no source location
        assert len(floored.stderr.splitlines()) == 1
        assert floored.stderr.startswith("dpca: FloorAppliedWarning: ")
        assert "cli.py" not in floored.stderr
        assert floored.stdout.startswith("dpca d=2 eigenvalues:")
        ridged = fit("--ridge", "1")
        assert ridged.returncode == 0
        assert ridged.stderr == ""


class TestExitCodes:
    def test_usage_missing_background(self, tmp_path, rng):
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 20, [1.0, 1.0])
        assert run("fit", "dpca", target) == 2

    def test_usage_compare_missing_background(self, tmp_path, rng, capsys):
        # compare's parser requires a background, so no command code checks it again
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 20, [1.0, 1.0])
        with pytest.raises(SystemExit) as exc:
            run("compare", target, "--out", tmp_path / "cmp")
        assert exc.value.code == 2
        assert "required: background" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

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

    def test_data_header_wider_than_rows(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("f1,f2,label\n1.5,2\n3,4\n")
        assert run("fit", "pca", bad, "--out", tmp_path / "m.json") == 3
        assert "bad.csv: header has 3 columns, the first data row has 2" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command,flags,named", [
        (("fit", "dpca"), ("--ridge", "nan"), "--ridge"),
        (("fit", "dpca"), ("--floor", "nan"), "--floor"),
        (("fit", "cpca"), ("--alpha", "nan"), "--alpha"),
        (("fit", "cpca"), ("--alpha", "inf"), "--alpha"),
        (("fit", "cpca"), ("--auto-alpha", "--grid", "nan:1:3"), "nan:1:3"),
        (("fit", "cpca"), ("--auto-alpha", "--grid", "1:inf:3"), "1:inf:3"),
        (("compare",), ("--grid=-1:1:3", "--select", "2"), "-1:1:3"),
        (("compare",), ("--ridge", "inf"), "--ridge"),
        (("fit", "dpca"), ("--ridge", "-1"), "--ridge"),
        (("fit", "dpca"), ("--floor", "-1"), "--floor"),
        (("fit", "cpca"), ("--alpha", "-1"), "--alpha"),
        (("fit", "dpca"), ("-d", "0"), "-d"),
        (("compare",), ("-d", "0"), "-d"),
        (("fit", "cpca"), ("--auto-alpha", "--select", "20"), "--select"),
        (("compare",), ("--select", "0"), "--select"),
        (("compare",), ("--grid", "1:2:3", "--select", "4"), "--select"),
        (("fit", "cpca"), ("--auto-alpha", "--seed", "-1"), "--seed"),
        (("compare",), ("--seed", "-1"), "--seed"),
        (("fit", "cpca"), ("--alpha", "1", "--auto-alpha"), "--alpha"),
        (("fit", "dpca"), ("--alpha", "1"), "--alpha"),
    ], ids=["ridge-nan", "floor-nan", "alpha-nan", "alpha-inf", "grid-lo-nan", "grid-hi-inf",
            "compare-grid-lo-negative", "compare-ridge-inf", "ridge-negative", "floor-negative",
            "alpha-negative", "d-zero", "compare-d-zero", "select-above-grid",
            "compare-select-zero", "compare-select-above-grid", "seed-negative",
            "compare-seed-negative", "alpha-and-auto-alpha", "alpha-on-dpca"])
    def test_usage_non_finite_parameter(self, tmp_path, capsys, command, flags, named):
        # the inputs do not exist: reading them first would be a data error (exit 3)
        assert run(*command, tmp_path / "t.csv", tmp_path / "b.csv", *flags,
                   "--out", tmp_path / "m.json") == 2
        assert named in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", [("pca",), ("dpca", "b.csv"),
                                         ("cpca", "b.csv", "--alpha", "1")],
                             ids=["pca", "dpca", "cpca-alpha"])
    @pytest.mark.parametrize("flags,named", [
        (("--grid", "nonsense"), "nonsense"), (("--select", "0"), "--select"),
        (("--seed", "-1"), "--seed"),
    ], ids=["grid-nonsense", "select-zero", "seed-negative"])
    def test_usage_flags_a_fit_does_not_use(self, tmp_path, rng, capsys, command, flags, named):
        # the inputs exist: a fit that ignored these flags would write its model
        write_gaussian_csv(tmp_path / "t.csv", rng, 30, [1.0, 2.0])
        write_gaussian_csv(tmp_path / "b.csv", rng, 30, [1.0, 1.0])
        method, *rest = command
        out = tmp_path / "m.json"
        assert run("fit", method, tmp_path / "t.csv",
                   *[tmp_path / a if a.endswith(".csv") else a for a in rest],
                   *flags, "--out", out) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,named", [
        (("-m", "0"), "-m"), (("-n", "0"), "-n"), (("--clusters", "0"), "--clusters"),
        (("--clusters", "600", "-m", "50"), "--clusters"), (("--noise-std", "-1"), "--noise-std"),
        (("--noise-std", "nan"), "--noise-std"), (("--shared-std", "-1"), "--shared-std"),
        (("--background-std", "inf"), "--background-std"),
        (("--specific-std", "-1"), "--specific-std"), (("--separation", "nan"), "--separation"),
        (("--seed", "-1"), "--seed"),
        # beyond what numpy can index: features x (shared + specific), rows x features
        (("--features", str(10**30)), "--features"), (("--features", str(2**62)), "--features"),
        (("-m", str(10**30)), "-m"), (("-n", str(10**30)), "-n"),
        # the --features bound would be empty: the flag too large is named
        (("--shared", str(10**30), "--features", str(10**31)), "--shared"),
    ], ids=["m-zero", "n-zero", "clusters-zero", "clusters-above-m", "noise-std-negative",
            "noise-std-nan", "shared-std-negative", "background-std-inf", "specific-std-negative",
            "separation-nan", "seed-negative", "features-1e30", "features-2e62", "m-1e30",
            "n-1e30", "shared-1e30-features-1e31"])
    def test_usage_synth_parameter(self, tmp_path, capsys, flags, named):
        assert run("synth", "--features", 10, *flags, "--out", tmp_path / "s") == 2
        err = capsys.readouterr().err
        assert f"{named} must be" in err
        for lo, hi in re.findall(r" in (-?\d+)\.\.(-?\d+),", err):
            assert int(lo) <= int(hi), err  # never an empty range
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,flag,code", [
        (("fit", "dpca", "t.csv", "b.csv"), "-d", 3),
        (("fit", "dpca", "t.csv", "b.csv"), "--select", 2),
        (("fit", "dpca", "t.csv", "b.csv"), "--seed", 0),
        (("fit", "cpca", "t.csv", "b.csv", "--auto-alpha"), "--seed", 0),
        (("compare", "t.csv", "b.csv"), "-d", 3),
        (("compare", "t.csv", "b.csv"), "--select", 2),
        (("compare", "t.csv", "b.csv"), "--seed", 0),
        (("synth", "--features", "10", "-m", "40", "-n", "50"), "--shared", 2),
        (("synth", "--features", "10", "-m", "40", "-n", "50"), "--specific", 2),
        (("synth", "--features", "10", "-m", "40", "-n", "50"), "--clusters", 2),
        (("synth", "--features", "10", "-m", "40", "-n", "50"), "--seed", 0),
    ], ids=["fit-d", "fit-select", "fit-seed", "fit-auto-alpha-seed", "compare-d",
            "compare-select", "compare-seed", "synth-shared", "synth-specific",
            "synth-clusters", "synth-seed"])
    def test_integer_flag_beyond_int64(self, tmp_path, rng, capsys, argv, flag, code):
        # 10**30 passes no int64 conversion; it is checked like any other value. synth's
        # --features, -m and -n size the generated tables: test_usage_synth_parameter.
        write_gaussian_csv(tmp_path / "t.csv", rng, 30, [1.0, 2.0], labels=np.arange(30) % 2)
        write_gaussian_csv(tmp_path / "b.csv", rng, 30, [1.0, 1.0])
        argv = [tmp_path / a if a.endswith(".csv") else a for a in argv]
        assert run(*argv, flag, 10**30, "--out", tmp_path / "o") == code
        err = capsys.readouterr().err
        assert err == "" if code == 0 else "1" + "0" * 30 in err

    @pytest.mark.parametrize("argv", [
        ("fit", "cpca", "t.csv", "b.csv", "--auto-alpha", "--select", "2"),
        ("compare", "t.csv", "b.csv", "--select", "2"),
        ("synth", "--features", "6", "-m", "20", "-n", "30")], ids=["fit", "compare", "synth"])
    def test_seed_beyond_the_doubles(self, tmp_path, rng, capsys, argv):
        # the seed is an integer and never turned into a double, so no bound applies
        write_gaussian_csv(tmp_path / "t.csv", rng, 30, [1.0, 2.0], labels=np.arange(30) % 2)
        write_gaussian_csv(tmp_path / "b.csv", rng, 30, [1.0, 1.0])
        argv = [tmp_path / a if a.endswith(".csv") else a for a in argv]
        assert run(*argv, "--seed", 10**400, "--out", tmp_path / "o") == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("doc", [[1, 2], None])
    def test_data_model_file_not_an_object(self, tmp_path, rng, capsys, doc):
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 30, [1.0, 2.0])
        model = tmp_path / "m.json"
        model.write_text(json.dumps(doc))
        assert run("transform", model, target, "--out", tmp_path / "e.csv") == 3
        assert f"{model}: malformed model file" in capsys.readouterr().err

    def test_data_model_file_without_components(self, tmp_path, rng, capsys):
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 30, [1.0, 2.0])
        model = tmp_path / "m.json"
        assert run("fit", "pca", target, "--out", model) == 0
        doc = json.loads(model.read_text())
        del doc["components"]
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("transform", model, target, "--out", tmp_path / "e.csv") == 3
        assert f"{model}: model file is missing field 'components'" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("components", float("nan")), ("eigenvalues", float("inf")),
        ("target_mean", float("-inf")), ("feature_scale", float("nan")),
        ("feature_scale", float("inf")), ("feature_scale", 0.0), ("feature_scale", -1.0)])
    def test_data_model_file_values(self, tmp_path, rng, capsys, field, value):
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 30, [1.0, 2.0])
        model = tmp_path / "m.json"
        assert run("fit", "pca", target, "--zscore", "--out", model) == 0
        doc = json.loads(model.read_text())
        row = doc[field][0] if field == "components" else doc[field]
        row[0] = value
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("transform", model, target, "--out", tmp_path / "e.csv") == 3
        err = capsys.readouterr().err
        assert f"{model}: malformed model file: {field}" in err
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("method,field,message", [
        ("dpca", "floor_rel", "floor_rel must be a finite number in 0..1.79"),
        ("cpca", "alpha", "alpha must be a finite number in 0..1.79"),
        ("cpca", "ridge_background", "ridge_background must be a finite number in 0..1.79"),
        ("dpca", "components", "int too large to convert to float")])
    def test_data_model_file_integer_beyond_the_doubles(self, tmp_path, rng, capsys, method,
                                                        field, message):
        # JSON holds a 401-digit integer, which float() cannot
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 30, [1.0, 2.0])
        background = write_gaussian_csv(tmp_path / "b.csv", rng, 40, [1.0, 1.0])
        model = tmp_path / "m.json"
        flags = ("--alpha", 2.5, "--ridge", 0.5) if method == "cpca" else ()
        assert run("fit", method, target, background, *flags, "--out", model) == 0
        doc = json.loads(model.read_text())
        if field == "components":
            doc[field][0][0] = 10**400
        else:
            (doc if field == "alpha" else doc["regularization"])[field] = 10**400
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("transform", model, target, "--out", tmp_path / "e.csv") == 3
        assert f"{model}: malformed model file: {message}" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("mean", [[0.0] * 7, [[0.0, 0.0]]], ids=["7_values", "2d"])
    def test_data_model_file_background_mean_shape(self, tmp_path, rng, capsys, mean):
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 30, [1.0, 2.0])
        background = write_gaussian_csv(tmp_path / "b.csv", rng, 40, [1.0, 1.0])
        model = tmp_path / "m.json"
        assert run("fit", "dpca", target, background, "--out", model) == 0
        fileio.write_json(model, {**json.loads(model.read_text()), "background_mean": mean})
        capsys.readouterr()
        assert run("transform", model, target, "--out", tmp_path / "e.csv") == 3
        assert (f"{model}: malformed model file: background_mean must have length 2"
                in capsys.readouterr().err)
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("width", [1, 3])
    def test_transform_dimension_mismatch_zscored(self, tmp_path, rng, capsys, width):
        # a narrower table would broadcast against the model's scale, a wider one not
        target = write_gaussian_csv(tmp_path / "t.csv", rng, 30, [1.0, 2.0])
        model = tmp_path / "m.json"
        assert run("fit", "pca", target, "--zscore", "--out", model) == 0
        other = write_gaussian_csv(tmp_path / "other.csv", rng, 5, [1.0] * width)
        assert run("transform", model, other, "--out", tmp_path / "e.csv") == 3
        assert f"data has {width} features, model expects 2" in capsys.readouterr().err

    @pytest.mark.parametrize("encoding", ["latin-1", "utf-16"])
    @pytest.mark.parametrize("command", ["fit", "transform", "plot"])
    def test_data_not_utf8(self, tmp_path, rng, capsys, command, encoding):
        bad = tmp_path / "bad.csv"
        bad.write_bytes("f1,f2\n1.5,2\n3,4\n5,\xe96\n".encode(encoding))
        if command == "fit":
            argv = ("fit", "pca", bad, "--out", tmp_path / "m.json")
        elif command == "transform":
            target = write_gaussian_csv(tmp_path / "t.csv", rng, 30, [1.0, 2.0])
            assert run("fit", "pca", target, "--out", tmp_path / "m.json") == 0
            argv = ("transform", tmp_path / "m.json", bad, "--out", tmp_path / "e.csv")
        else:
            argv = ("plot", bad, "--out", tmp_path / "e.svg")
        capsys.readouterr()
        assert run(*argv) == 3
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err

    def test_data_not_utf8_on_the_loadtxt_route(self, tmp_path, capsys):
        # quoted cells send the table to np.loadtxt, which meets the bad byte
        # far past the first block of text the reader decoded
        rows = [f'"{i}","{i + 1}"' for i in range(2000)]
        rows[1499] = '"1499","\xe9"'
        bad = tmp_path / "bad.csv"
        bad.write_bytes("\n".join(rows).encode("latin-1") + b"\n")
        assert run("fit", "pca", bad, "--out", tmp_path / "m.json") == 3
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err
