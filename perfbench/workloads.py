"""The benchmark's workloads: inputs from a seed, one pass of operations, checks.

Each workload is a list of named operations run in order, one after the
other, by a single client (a closed loop). An operation is a callable that
takes the outputs of the earlier operations of the same pass and returns its
own. ``check`` turns a pass's outputs into failure messages per operation,
using only :mod:`oracle` and the raw inputs.

Call the program through its modules (``cli.main``, ``methods.dpca_fit``),
never through names bound at import time, so that a traced pass sees every
call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import oracle
from dpca import cli, datamodel, methods, synthgen

D_COMPONENTS = 2
ALPHA_GRID = np.geomspace(1e-3, 1e3, 15)  # the CLI's default 0.001:1000:15log
N_SELECT = 4


class Workload:
    name = ""
    ops: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Generate the inputs (part of set-up)."""

    def operations(self):
        return [(name, getattr(self, f"op_{name}")) for name in self.ops]

    def check(self, outputs: dict, first: bool) -> dict[str, list[str]]:
        raise NotImplementedError


# --------------------------------------------------------------------------- CLI


class CliPaper(Workload):
    """The paper's subgroup-discovery experiment through ``dpca.cli.main``."""

    name = "cli_paper"
    ops = ("synth", "fit_dpca", "fit_cpca_auto", "transform", "compare", "plot")
    D, M, N = 100, 2000, 3000

    def prepare(self) -> None:
        w = self.workdir
        self.target = str(w / "exp_target.csv")
        self.background = str(w / "exp_background.csv")
        seed = str(self.seed)
        self.argv = {
            "synth": ["synth", "--features", str(self.D), "-m", str(self.M),
                      "-n", str(self.N), "--seed", seed, "--out", str(w / "exp")],
            "fit_dpca": ["fit", "dpca", self.target, self.background, "-d", "2",
                         "--out", str(w / "dpca.json")],
            "fit_cpca_auto": ["fit", "cpca", self.target, self.background, "-d", "2",
                              "--auto-alpha", "--seed", seed, "--out", str(w / "cpca.json")],
            "transform": ["transform", str(w / "dpca.json"), self.target,
                          "--out", str(w / "dpca_emb.csv")],
            "compare": ["compare", self.target, self.background, "-d", "2", "--seed", seed,
                        "--out", str(w / "cmp")],
            "plot": ["plot", str(w / "dpca_emb.csv"), "--out", str(w / "dpca.svg")],
        }
        cpca = [f"cpca_a{i}.json" for i in range(1, N_SELECT + 1)]
        cmp_csv = [f"cmp_{m}.csv" for m in ("pca", "dpca")] + [
            f"cmp_cpca_a{i}.csv" for i in range(1, N_SELECT + 1)]
        self.files = {
            "synth": ["exp_target.csv", "exp_background.csv", "exp_truth.json"],
            "fit_dpca": ["dpca.json"],
            "fit_cpca_auto": cpca,
            "transform": ["dpca_emb.csv"],
            "compare": cmp_csv + ["cmp_report.json"],
            "plot": ["dpca.svg"],
        }
        self.digests = None

    def operations(self):
        return [(op, lambda outputs, op=op: self._run(op)) for op in self.ops]

    def _run(self, op: str):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv[op])
        if code != 0:
            raise RuntimeError(f"dpca {' '.join(self.argv[op][:2])} exited with {code}")
        return self.files[op]

    def _digest(self, fname: str) -> str:
        raw = (self.workdir / fname).read_bytes()
        if fname.endswith(".json") and fname != "exp_truth.json":
            doc = json.loads(raw)
            if "provenance" in doc:
                doc["provenance"].pop("created_utc", None)
            # compare's own timing fields change every run; the benchmark
            # neither compares nor reads them
            doc.pop("runtime_ratio_cpca_over_dpca", None)
            for entry in doc.get("methods", {}).values():
                entry.pop("seconds", None)
            raw = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(raw).hexdigest()

    def _digests(self, op: str):
        try:
            return [self._digest(f) for f in self.files[op]]
        except (OSError, ValueError):
            return None

    def check(self, outputs: dict, first: bool) -> dict[str, list[str]]:
        """Oracle checks on the warm-up pass; byte identity with it afterwards."""
        digests = {op: self._digests(op) for op in self.ops}
        if first:
            self.digests = digests
            self.reference_failures = self._oracle_checks()
        result = {}
        for op in self.ops:
            fails = list(self.reference_failures[op])
            if digests[op] is None:
                fails.append("output missing or unreadable")
            elif digests[op] != self.digests[op]:
                fails.append("output differs from the warm-up pass")
            result[op] = fails
        return result

    def _load_table(self, fname: str):
        path = self.workdir / fname
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if header[-1] == "label":
            return arr[:, :-1], arr[:, -1].astype(np.int64)
        return arr, None

    def _model(self, fname: str) -> dict:
        with open(self.workdir / fname, encoding="utf-8") as fh:
            return json.load(fh)

    def _oracle_checks(self) -> dict[str, list[str]]:
        fails = {op: [] for op in self.ops}
        try:
            xt, labels = self._load_table("exp_target.csv")
            xb, _ = self._load_table("exp_background.csv")
        except (OSError, ValueError) as exc:
            fails["synth"].append(f"unreadable synth output: {exc!r}")
            return fails
        if xt.shape != (self.M, self.D) or xb.shape != (self.N, self.D) or labels is None:
            fails["synth"].append(f"synth shapes {xt.shape}, {xb.shape}")
            return fails
        mean_t, a = oracle.covariance(xt)
        _, b = oracle.covariance(xb)
        d = D_COMPONENTS

        dpca = self._model("dpca.json")
        u = np.asarray(dpca["components"])
        fails["fit_dpca"] += oracle.check_dpca(u, dpca["eigenvalues"], a, b,
                                               oracle.top_eigvals(a, d, b))
        for fname in self.files["fit_cpca_auto"]:
            model = self._model(fname)
            ref = oracle.top_eigvals(a - model["alpha"] * b, d)
            fails["fit_cpca_auto"] += oracle.check_spectrum(model["eigenvalues"], ref, fname)

        emb, emb_labels = self._load_table("dpca_emb.csv")
        fails["transform"] += oracle.check_projection(emb, xt, mean_t, u)
        if emb_labels is None or not np.array_equal(emb_labels, labels):
            fails["transform"].append("embedding labels differ from the target labels")
        else:
            fails["transform"] += oracle.check_accuracy(emb, labels, "dpca embedding")
        cmp_emb, cmp_labels = self._load_table("cmp_dpca.csv")
        fails["compare"] += oracle.check_projection(cmp_emb, xt, mean_t, u)
        fails["compare"] += oracle.check_accuracy(cmp_emb, cmp_labels, "compare dpca embedding")

        svg = (self.workdir / "dpca.svg").read_text(encoding="utf-8")
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
            fails["plot"].append("plot output is not a complete SVG document")
        return fails


# --------------------------------------------------------------------------- library


class Library(Workload):
    """The README quickstart through the library, on in-memory inputs."""

    D = M = N = 0
    RIDGE = 0.0

    def prepare(self) -> None:
        spec = synthgen.default_subgroup_spec(n_features=self.D, seed=self.seed)
        self.pair = synthgen.gen_pair(spec, self.M, self.N,
                                      cluster_offsets=synthgen.spread_offsets(2, 1, 6.0))
        self.reference = None

    def _centered(self, background: bool):
        ct = datamodel.center(self.pair.target)
        cxx = datamodel.sample_covariance(ct, ridge=self.RIDGE)
        if not background:
            return ct, cxx, None, None
        cb = datamodel.center(self.pair.background)
        cyy = datamodel.sample_covariance(cb, ridge=self.RIDGE)
        return ct, cxx, cb, cyy

    def op_fit_pca(self, outputs):
        ct, cxx, _, _ = self._centered(False)
        return methods.pca_fit(cxx, D_COMPONENTS, target_mean=ct.mean)

    def op_fit_dpca(self, outputs):
        ct, cxx, cb, cyy = self._centered(True)
        return methods.dpca_fit(cxx, cyy, D_COMPONENTS, target_mean=ct.mean,
                                background_mean=cb.mean)

    def op_fit_cpca_auto(self, outputs):
        ct, cxx, cb, cyy = self._centered(True)
        selection = methods.cpca_select_alphas(cxx, cyy, ALPHA_GRID, D_COMPONENTS, N_SELECT,
                                               seed=self.seed)
        return [methods.cpca_fit(cxx, cyy, float(alpha), D_COMPONENTS,
                                 target_mean=ct.mean, background_mean=cb.mean)
                for alpha in selection.selected]

    def op_transform(self, outputs):
        models = [outputs[op] for op in ("fit_pca", "fit_dpca")] + outputs.get("fit_cpca_auto", [])
        return [methods.transform(model, self.pair.target) for model in models]

    def _reference(self):
        xt = self.pair.target.values
        mean_t, a = oracle.covariance(xt, self.RIDGE)
        _, b = oracle.covariance(self.pair.background.values, self.RIDGE)
        return {"mean": mean_t, "a": a, "b": b,
                "pca": oracle.top_eigvals(a, D_COMPONENTS),
                "dpca": oracle.top_eigvals(a, D_COMPONENTS, b), "cpca": {}}

    def check(self, outputs: dict, first: bool) -> dict[str, list[str]]:
        if self.reference is None:
            self.reference = self._reference()
        ref = self.reference
        a, b = ref["a"], ref["b"]
        fails = {op: [] for op in self.ops}
        missing = [op for op in self.ops if op not in outputs]
        for op in missing:
            fails[op].append("operation produced no output")
        if missing:
            return fails
        fails["fit_pca"] += oracle.check_spectrum(outputs["fit_pca"].eigenvalues, ref["pca"], "pca")
        dpca = outputs["fit_dpca"]
        fails["fit_dpca"] += oracle.check_dpca(dpca.components, dpca.eigenvalues, a, b, ref["dpca"])
        for model in outputs.get("fit_cpca_auto", []):
            if model.alpha not in ref["cpca"]:
                ref["cpca"][model.alpha] = oracle.top_eigvals(a - model.alpha * b, D_COMPONENTS)
            fails["fit_cpca_auto"] += oracle.check_spectrum(
                model.eigenvalues, ref["cpca"][model.alpha], f"cpca alpha={model.alpha:g}")
        values, labels = self.pair.target.values, self.pair.target.labels
        for emb in outputs["transform"]:
            fails["transform"] += oracle.check_projection(
                emb.coordinates, values, ref["mean"], emb.model.components)
            if emb.model.method == "dpca":
                fails["transform"] += oracle.check_accuracy(emb.coordinates, labels,
                                                             "dpca embedding")
        return fails


class LibLargeD(Library):
    name = "lib_large_d"
    ops = ("fit_pca", "fit_dpca", "fit_cpca_auto", "transform")
    D, M, N = 1000, 2000, 3000


class LibWide(Library):
    name = "lib_wide"
    ops = ("fit_pca", "fit_dpca", "transform")
    D, M, N = 2000, 300, 500
    RIDGE = 1.0


WORKLOADS = {w.name: w for w in (CliPaper, LibLargeD, LibWide)}
