"""Spans recorded from outside the program, by wrapping its public functions.

A :class:`Tracer` replaces a fixed set of public ``dpca`` functions with
timing wrappers while it is installed, and restores them afterwards. It
patches every name bound to one of those functions, so calls that go through
``from ... import`` bindings (``cli.center``, ``cli.silhouette_score``,
``methods.spectral_cluster``, the ``dpca`` package namespace) are seen as
well. Spans are kept in memory; :func:`layer_metrics` turns them into the
per-layer numbers the benchmark prints.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager

# Layer boundaries: the public functions each layer is timed at. Helpers such
# as eigencore.apply_sign_convention stay unwrapped, so their time is part of
# the caller's self time (the sign pass belongs to pencil_self_s).
WRAPPED = {
    "cli": ("main", "cmd_fit", "cmd_transform", "cmd_compare", "cmd_synth", "cmd_plot"),
    "fileio": ("read_csv", "write_data_csv", "write_embedding_csv", "save_model", "load_model"),
    "synthgen": ("random_spec", "gen_pair"),
    "datamodel": ("center", "sample_covariance", "concat_rows"),
    "eigencore": ("sym_eigendecompose", "whitening_factor", "generalized_eig"),
    "methods": ("pca_fit", "cpca_fit", "dpca_fit", "cpca_select_alphas", "transform"),
    "cluster": ("silhouette_score", "cluster_label_accuracy", "spectral_cluster"),
    "svgplot": ("write_scatter",),
}

PACKAGE = "dpca"

# Spans the benchmark itself opens around a pass and each operation in it.
PASS_SPAN = "bench.pass"
OP_PREFIX = "op."

# Calls whose arguments are kept so their peak memory can be probed afterwards.
PEAK_PROBES = ("cluster.silhouette_score",)


def _cells(data) -> int:
    return int(data.values.size + (0 if data.labels is None else data.labels.size))


def _table_written(bound, result) -> dict:
    labels = bound.get("labels")
    coords = bound["coordinates"]
    return {"cells": int(coords.size + (0 if labels is None else len(labels))),
            "bytes": os.path.getsize(bound["path"])}


# Computed work counts attached to a span after the call returns, outside it.
# Each gets the call's bound arguments and its result.
ANNOTATE = {
    "fileio.read_csv": lambda b, r: {"cells": _cells(r)},
    "fileio.write_data_csv": lambda b, r: {"cells": _cells(b["data"]),
                                           "bytes": os.path.getsize(b["path"])},
    "fileio.write_embedding_csv": _table_written,
    "datamodel.sample_covariance": lambda b, r: {"m": b["centered"].data.m, "dim": r.dim},
    "eigencore.sym_eigendecompose": lambda b, r: {"dim": r.dim},
    "methods.cpca_fit": lambda b, r: {"alpha": float(r.alpha)},
}

# Per-layer metrics that are exact counts; reported as integers.
COUNTS = ("fileio.read_csv_calls", "fileio.cells_read", "fileio.cells_written",
          "fileio.bytes_written", "datamodel.covariance_calls", "eigencore.sym_eig_calls",
          "eigencore.whitening_calls", "eigencore.pencil_solves", "methods.cpca_fit_calls",
          "cluster.silhouette_calls", "trace.spans_per_pass")


class Tracer:
    """In-memory span recorder; install it to time the program's layers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, pass_id, op_id, info]
        self.pass_id = None
        self.op_id = None
        self.last_args: dict[str, tuple] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.pass_id, self.op_id, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[idx][1:3] = [start, end]

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, time.perf_counter())

    def _wrap(self, name: str, fn):
        tracer = self
        annotate = ANNOTATE.get(name)
        signature = inspect.signature(fn)
        keep_args = name in PEAK_PROBES

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, start, time.perf_counter())
            if annotate is not None:
                tracer.spans[idx][6] = annotate(signature.bind(*args, **kwargs).arguments,
                                                result)
            if keep_args:
                tracer.last_args[name] = (args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in WRAPPED}
        modules[""] = importlib.import_module(PACKAGE)
        wrappers = {}
        for layer, names in WRAPPED.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                wrappers[id(original)] = self._wrap(f"{layer}.{fname}", original)
        # Patch every binding of a wrapped function, including from-imports.
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def measure_peak_mb(self, name: str) -> float:
        """Peak traced allocation of re-running the last recorded call of ``name``.

        Runs uninstalled and outside any timed pass, because ``tracemalloc``
        slows allocation-heavy Python code. 0 when the call never ran.
        """
        if name not in self.last_args:
            return 0.0
        layer, fname = name.split(".")
        fn = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), fname)
        args, kwargs = self.last_args[name]
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def records(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "pass", "op", "info")
        return [dict(zip(keys, s)) for s in self.spans]


def _self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, traced_passes: list, untraced_pipeline: list[float]) -> dict:
    """Per-layer metrics: the sum over each traced pass, then the median over passes.

    Counts are exact: products of array shapes (cells, flops, D^3 work),
    file sizes and call counts, not timings.
    """
    spans = tracer.spans
    self_t = _self_times(spans)
    per_pass = [_pass_metrics(spans, self_t, [i for i, s in enumerate(spans) if s[4] == pid])
                for pid in traced_passes]
    metrics = {key: _median(p.get(key, 0.0) for p in per_pass)
               for key in set().union(*per_pass)}
    for name in COUNTS:
        metrics[name] = int(round(metrics[name]))

    for rate, cells, secs in (("fileio.read_cells_per_s", "fileio.cells_read", "fileio.read_csv_s"),
                              ("fileio.write_cells_per_s", "fileio.cells_written",
                               "fileio.write_csv_s")):
        metrics[rate] = metrics[cells] / metrics[secs] if metrics[secs] > 0 else 0.0
    # gen_pair runs in set-up on the library workloads, so take it per call.
    metrics["synthgen.gen_pair_s"] = _median(s[2] - s[1] for s in spans
                                             if s[0] == "synthgen.gen_pair")
    metrics["cluster.silhouette_peak_mb"] = tracer.measure_peak_mb("cluster.silhouette_score")
    metrics["trace.untraced_pipeline_s"] = _median(untraced_pipeline)
    metrics["trace.overhead_s"] = metrics["trace.pipeline_s"] - metrics["trace.untraced_pipeline_s"]
    return metrics


def _pass_metrics(spans, self_t, idx) -> dict:
    def total(name, key=None):
        sel = [i for i in idx if spans[i][0] == name]
        if key is None:
            return sum(spans[i][2] - spans[i][1] for i in sel)
        return sum(spans[i][6][key] for i in sel)

    def count(name):
        return sum(1 for i in idx if spans[i][0] == name)

    def self_of(pred):
        return sum(self_t[i] for i in idx if pred(spans[i][0]))

    duration = total(PASS_SPAN)
    program_self = self_of(lambda n: n.split(".")[0] in WRAPPED)
    covs = [spans[i][6] for i in idx if spans[i][0] == "datamodel.sample_covariance"]
    eigs = [spans[i][6]["dim"] for i in idx if spans[i][0] == "eigencore.sym_eigendecompose"]
    alphas_by_op: dict = {}
    for i in idx:
        if spans[i][0] == "methods.cpca_fit":
            alphas_by_op.setdefault(spans[i][5], []).append(spans[i][6]["alpha"])
    cpca_calls = sum(len(v) for v in alphas_by_op.values())
    distinct = sum(len(set(v)) for v in alphas_by_op.values())

    m = {
        "cli.self_s": self_of(lambda n: n.startswith("cli.")),
        "fileio.read_csv_s": total("fileio.read_csv"),
        "fileio.read_csv_calls": count("fileio.read_csv"),
        "fileio.cells_read": total("fileio.read_csv", "cells"),
        "fileio.write_csv_s": total("fileio.write_data_csv") + total("fileio.write_embedding_csv"),
        "fileio.cells_written": (total("fileio.write_data_csv", "cells")
                                 + total("fileio.write_embedding_csv", "cells")),
        "fileio.bytes_written": (total("fileio.write_data_csv", "bytes")
                                 + total("fileio.write_embedding_csv", "bytes")),
        "fileio.model_io_s": total("fileio.save_model") + total("fileio.load_model"),
        "datamodel.center_s": total("datamodel.center"),
        "datamodel.covariance_s": total("datamodel.sample_covariance"),
        "datamodel.covariance_calls": len(covs),
        "datamodel.covariance_gflop": sum(2.0 * c["m"] * c["dim"] ** 2 for c in covs) / 1e9,
        "eigencore.sym_eig_s": total("eigencore.sym_eigendecompose"),
        "eigencore.sym_eig_calls": len(eigs),
        "eigencore.eig_work_gD3": sum(float(d) ** 3 for d in eigs) / 1e9,
        "eigencore.whitening_s": total("eigencore.whitening_factor"),
        "eigencore.whitening_calls": count("eigencore.whitening_factor"),
        "eigencore.pencil_s": total("eigencore.generalized_eig"),
        "eigencore.pencil_solves": count("eigencore.generalized_eig"),
        "eigencore.pencil_self_s": self_of(lambda n: n == "eigencore.generalized_eig"),
        "methods.pca_fit_s": total("methods.pca_fit"),
        "methods.dpca_fit_s": total("methods.dpca_fit"),
        "methods.cpca_fit_s": total("methods.cpca_fit"),
        "methods.cpca_fit_calls": cpca_calls,
        "methods.cpca_fit_yield": distinct / cpca_calls if cpca_calls else 0.0,
        "methods.select_alphas_s": total("methods.cpca_select_alphas"),
        "methods.select_alphas_self_s": self_of(lambda n: n == "methods.cpca_select_alphas"),
        "methods.transform_s": total("methods.transform"),
        "cluster.silhouette_s": total("cluster.silhouette_score"),
        "cluster.silhouette_calls": count("cluster.silhouette_score"),
        "cluster.kmeans_accuracy_s": total("cluster.cluster_label_accuracy"),
        "cluster.spectral_s": total("cluster.spectral_cluster"),
        "svgplot.write_scatter_s": total("svgplot.write_scatter"),
        "trace.pipeline_s": duration,
        "trace.accounted_share": program_self / duration if duration > 0 else 0.0,
        "trace.bench_self_s": self_of(lambda n: n == PASS_SPAN or n.startswith(OP_PREFIX)),
        "trace.spans_per_pass": len(idx),
    }
    for i in idx:
        if spans[i][0].startswith(OP_PREFIX):
            m[f"{spans[i][0]}_s"] = spans[i][2] - spans[i][1]
    return m
