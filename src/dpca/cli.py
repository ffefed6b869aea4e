"""Command-line interface.

Subcommands: ``fit``, ``transform``, ``compare``, ``synth``, ``plot``.
Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import eigencore, fileio, methods, svgplot, synthgen
from .cluster import cluster_label_accuracy, silhouette_score
from .datamodel import CovarianceEstimate, DataMatrix, center, concat_rows, sample_covariance
from .errors import DpcaError, InvalidInputError, NumericalError

DEFAULT_GRID = "0.001:1000:15log"


class UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


def parse_grid(spec: str) -> np.ndarray:
    """Parse ``lo:hi:N`` (linear) or ``lo:hi:Nlog`` (logarithmic) grids."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must look like lo:hi:N or lo:hi:Nlog, got {spec!r}")
    lo_s, hi_s, n_s = parts
    log = n_s.endswith("log")
    if log:
        n_s = n_s[:-3]
    elif n_s.endswith("lin"):
        n_s = n_s[:-3]
    try:
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise UsageError(f"bad grid {spec!r}: {exc}") from exc
    if n < 1 or hi < lo:
        raise UsageError(f"bad grid {spec!r}: need hi >= lo and N >= 1")
    if log:
        if lo <= 0:
            raise UsageError("logarithmic grids need lo > 0")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _apply_scale(data: DataMatrix, scale: np.ndarray) -> DataMatrix:
    return DataMatrix(data.values / scale, labels=data.labels)


@dataclass(frozen=True)
class _Prepared:
    """A command's scaled inputs: ``covs`` and ``means`` list the target's first."""

    target: DataMatrix
    scale: np.ndarray | None
    covs: list[CovarianceEstimate]
    means: list[np.ndarray]


def _prepare(args) -> _Prepared:
    """Load the target and background CSVs, z-score, center, and form the covariances."""
    datasets = [fileio.read_csv(args.target)]
    if args.background:
        parts = [fileio.read_csv(p) for p in args.background]
        datasets.append(parts[0] if len(parts) == 1 else concat_rows(parts))
        if datasets[1].n_features != datasets[0].n_features:
            raise InvalidInputError(
                f"feature count mismatch: target has {datasets[0].n_features}, "
                f"background has {datasets[1].n_features}")
    scale = None
    if args.zscore:
        # One scale vector from the pooled rows, so target and background
        # stay directly comparable after scaling.
        scale = np.vstack([d.values for d in datasets]).std(axis=0)
        scale[scale == 0] = 1.0
        datasets = [_apply_scale(d, scale) for d in datasets]
    centered = [center(d) for d in datasets]
    return _Prepared(datasets[0], scale, [sample_covariance(c, ridge=args.ridge) for c in centered],
                     [c.mean for c in centered])


def _fit(method: str, prep: _Prepared, args,
         alpha: float | None = None) -> methods.ComponentModel:
    if method == "pca":
        return methods.pca_fit(prep.covs[0], args.components, target_mean=prep.means[0])
    means = {"target_mean": prep.means[0], "background_mean": prep.means[1]}
    if method == "cpca":
        return methods.cpca_fit(*prep.covs, alpha, args.components, **means)
    return methods.dpca_fit(*prep.covs, args.components, floor_rel=args.floor, **means)


def _auto_alpha(prep: _Prepared, args) -> list[methods.ComponentModel]:
    """cPCA models at the alphas that auto-selection picks over ``--grid``."""
    selection = methods.cpca_select_alphas(
        *prep.covs, parse_grid(args.grid), args.components, args.select, seed=args.seed)
    return [_fit("cpca", prep, args, float(a)) for a in selection.selected]


def _provenance(args, scale) -> dict:
    return {
        "target_file": str(args.target),
        "background_files": [str(p) for p in (args.background or [])],
        "seed": args.seed,
        "zscore": bool(scale is not None),
        "created_utc": _utc_now(),
    }


def _eigs_str(vals: np.ndarray | list[float]) -> str:
    return " ".join(format(v, ".6g") for v in vals)


def cmd_fit(args) -> int:
    if args.method in ("cpca", "dpca") and not args.background:
        raise UsageError(f"{args.method} requires a background CSV")
    if args.method == "pca" and args.background:
        raise UsageError("pca takes no background data")
    if args.method == "cpca":
        if args.auto_alpha and args.alpha is not None:
            raise UsageError("--alpha and --auto-alpha are mutually exclusive")
        if not args.auto_alpha and args.alpha is None:
            raise UsageError("cpca needs --alpha or --auto-alpha")
    elif args.alpha is not None or args.auto_alpha:
        raise UsageError("--alpha/--auto-alpha apply to cpca only")

    prep = _prepare(args)
    started = time.perf_counter()

    if args.method == "cpca" and args.auto_alpha:
        models = _auto_alpha(prep, args)
        out = Path(args.out)
        for i, model in enumerate(models, start=1):
            path = out.with_name(f"{out.stem}_a{i}{out.suffix or '.json'}")
            fileio.save_model(fileio.ensure_parent(path), model,
                              feature_scale=prep.scale, provenance=_provenance(args, prep.scale))
            print(f"alpha={model.alpha:.6g} eigenvalues: {_eigs_str(model.eigenvalues)} -> {path}")
        print(f"selected alphas: {_eigs_str([m.alpha for m in models])} "
              f"({time.perf_counter() - started:.3f} s)")
        return 0

    model = _fit(args.method, prep, args, args.alpha)
    fileio.save_model(fileio.ensure_parent(args.out), model,
                      feature_scale=prep.scale, provenance=_provenance(args, prep.scale))
    print(f"{args.method} d={args.components} eigenvalues: {_eigs_str(model.eigenvalues)} "
          f"({time.perf_counter() - started:.3f} s) -> {args.out}")
    return 0


def cmd_transform(args) -> int:
    stored = fileio.load_model(args.model)
    data = fileio.read_csv(args.data)
    if stored.feature_scale is not None:
        data = _apply_scale(data, stored.feature_scale)
    emb = methods.transform(stored.model, data)
    fileio.write_embedding_csv(fileio.ensure_parent(args.out), emb.coordinates, emb.labels)
    print(f"wrote {emb.coordinates.shape[0]}x{emb.coordinates.shape[1]} embedding -> {args.out}")
    return 0


def _metrics(coords: np.ndarray, labels, seed: int) -> dict:
    if labels is None or not 2 <= np.unique(labels).size <= 6:
        return {"kmeans_accuracy": None, "silhouette": None}
    two_d = coords[:, :2]
    return {
        "kmeans_accuracy": cluster_label_accuracy(two_d, labels, seed=seed),
        "silhouette": silhouette_score(two_d, labels),
    }


def cmd_compare(args) -> int:
    if not args.background:
        raise UsageError("compare requires a background CSV")
    prep = _prepare(args)
    prefix = Path(args.out)
    fileio.ensure_parent(prefix.with_name(prefix.name + "_report.json"))

    # each "seconds" times the fits only
    t0 = time.perf_counter()
    pca_model = _fit("pca", prep, args)
    pca_secs = time.perf_counter() - t0
    eigencore.reset_pencil_solve_count()
    t0 = time.perf_counter()
    dpca_model = _fit("dpca", prep, args)
    dpca_secs = time.perf_counter() - t0
    extra = {"dpca": {"pencil_solves": eigencore.pencil_solve_count()}}
    t0 = time.perf_counter()
    cpca_models = _auto_alpha(prep, args)
    cpca_secs = time.perf_counter() - t0

    fitted = {"pca": pca_model, "dpca": dpca_model,
              **{f"cpca_a{i}": m for i, m in enumerate(cpca_models, start=1)}}
    rows = {}
    for name, model in fitted.items():
        emb = methods.transform(model, prep.target)
        path = f"{prefix}_{name}.csv"
        fileio.write_embedding_csv(path, emb.coordinates, emb.labels)
        rows[name] = {"eigenvalues": model.eigenvalues.tolist(), "embedding_csv": path,
                      **extra.get(name, {}), **_metrics(emb.coordinates, emb.labels, args.seed)}
    per_alpha = {format(m.alpha, ".6g"): rows[n] for n, m in fitted.items() if m.method == "cpca"}
    report = {
        "n_components": args.components,
        "methods": {
            "pca": {"seconds": pca_secs, **rows["pca"]},
            "dpca": {"seconds": dpca_secs, **rows["dpca"]},
            "cpca_auto": {"seconds": cpca_secs,
                          "selected_alphas": [m.alpha for m in cpca_models],
                          "per_alpha": per_alpha},
        },
        "runtime_ratio_cpca_over_dpca": cpca_secs / dpca_secs if dpca_secs > 0 else None,
    }
    report_path = f"{prefix}_report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    table = [("pca", format(pca_secs, ".4f"), rows["pca"]),
             ("dpca", format(dpca_secs, ".4f"), rows["dpca"]),
             *((f"cpca a={alpha}", "", row) for alpha, row in per_alpha.items())]
    print(f"{'method':<18} {'seconds':>9} {'kmeans_acc':>11} {'silhouette':>11}")
    for name, seconds, row in table:
        acc, sil = row["kmeans_accuracy"], row["silhouette"]
        print(f"{name:<18} {seconds:>9} "
              f"{'-' if acc is None else format(acc, '.3f'):>11} "
              f"{'-' if sil is None else format(sil, '.3f'):>11}")
    ratio = report["runtime_ratio_cpca_over_dpca"]
    print(f"cpca auto-alpha total: {cpca_secs:.4f} s "
          f"(ratio vs dpca: {'-' if ratio is None else format(ratio, '.1f') + 'x'}) "
          f"-> {report_path}")
    return 0


def cmd_synth(args) -> int:
    if args.shared < 1 or args.specific < 1:
        raise UsageError("--shared and --specific must be at least 1")
    if args.shared + args.specific > args.features:
        raise UsageError(
            f"shared+specific dims ({args.shared}+{args.specific}) exceed features ({args.features})")
    shared_std = (np.full(args.shared, args.shared_std) if args.shared_std is not None
                  else (np.linspace(10.0, 8.0, args.shared) if args.shared > 1 else np.array([10.0])))
    background_std = (np.full(args.shared, args.background_std)
                      if args.background_std is not None else 1.5 * shared_std)
    spec = synthgen.random_spec(
        args.features, args.shared, args.specific,
        background_coeff_std=background_std,
        shared_coeff_std=shared_std,
        specific_coeff_std=args.specific_std,
        noise_std=args.noise_std,
        seed=args.seed,
    )
    offsets = synthgen.spread_offsets(args.clusters, args.specific, args.separation)
    pair = synthgen.gen_pair(spec, args.target_samples, args.background_samples, offsets)

    prefix = Path(args.out)
    fileio.ensure_parent(prefix.with_name(prefix.name + "_target.csv"))
    target_path = f"{prefix}_target.csv"
    background_path = f"{prefix}_background.csv"
    truth_path = f"{prefix}_truth.json"
    fileio.write_data_csv(target_path, pair.target)
    fileio.write_data_csv(background_path, pair.background)
    truth = {
        "n_features": spec.n_features,
        "n_shared": spec.n_shared,
        "n_specific": spec.n_specific,
        "shared_basis": spec.shared_basis.tolist(),
        "specific_basis": spec.specific_basis.tolist(),
        "target_mean": spec.target_mean.tolist(),
        "background_mean": spec.background_mean.tolist(),
        "background_coeff_std": spec.background_coeff_std.tolist(),
        "shared_coeff_std": spec.shared_coeff_std.tolist(),
        "specific_coeff_std": spec.specific_coeff_std.tolist(),
        "noise_std": spec.noise_std,
        "seed": spec.seed,
        "cluster_offsets": offsets.tolist(),
    }
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2)
        fh.write("\n")
    print(f"wrote {target_path} ({pair.target.m} rows), "
          f"{background_path} ({pair.background.m} rows), {truth_path}")
    return 0


def cmd_plot(args) -> int:
    data = fileio.read_csv(args.embedding)
    if data.n_features < 2:
        raise UsageError("plotting needs an embedding with at least two columns")
    svgplot.write_scatter(fileio.ensure_parent(args.out), data.values, data.labels)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpca",
        description="Discriminative analytics: PCA, contrastive PCA, and "
                    "ratio-based discriminative PCA over CSV data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_fit_flags(p, with_alpha):
        p.add_argument("-d", "--components", type=int, default=2,
                       help="number of components (default 2)")
        if with_alpha:
            p.add_argument("--alpha", type=float, default=None,
                           help="contrast strength for cpca")
            p.add_argument("--auto-alpha", action="store_true",
                           help="select alphas automatically over --grid")
        p.add_argument("--grid", default=DEFAULT_GRID,
                       help=f"alpha grid, lo:hi:N[log] (default {DEFAULT_GRID})")
        p.add_argument("--select", type=int, default=4,
                       help="number of alphas to select (default 4)")
        p.add_argument("--ridge", type=float, default=0.0,
                       help="ridge added to covariance diagonals (default 0)")
        p.add_argument("--floor", type=float, default=eigencore.DEFAULT_FLOOR_REL,
                       help="relative eigenvalue floor for whitening (default 1e-10)")
        p.add_argument("--zscore", action="store_true",
                       help="divide features by their pooled standard deviation")
        p.add_argument("--seed", type=int, default=0, help="seed (default 0)")

    p_fit = sub.add_parser("fit", help="fit a model from CSV data")
    p_fit.add_argument("method", choices=("pca", "cpca", "dpca"))
    p_fit.add_argument("target", help="target data CSV")
    p_fit.add_argument("background", nargs="*",
                       help="background CSV(s); several are row-concatenated")
    add_common_fit_flags(p_fit, with_alpha=True)
    p_fit.add_argument("--out", default="model.json", help="model file to write")
    p_fit.set_defaults(func=cmd_fit)

    p_tr = sub.add_parser("transform", help="project data through a saved model")
    p_tr.add_argument("model", help="model JSON file")
    p_tr.add_argument("data", help="data CSV")
    p_tr.add_argument("--out", default="embedding.csv", help="embedding CSV to write")
    p_tr.set_defaults(func=cmd_transform)

    p_cmp = sub.add_parser("compare", help="fit pca/dpca/cpca(auto) and report metrics")
    p_cmp.add_argument("target", help="target data CSV (labels recommended)")
    p_cmp.add_argument("background", nargs="+", help="background CSV(s)")
    add_common_fit_flags(p_cmp, with_alpha=False)
    p_cmp.add_argument("--out", default="compare", help="output path prefix")
    p_cmp.set_defaults(func=cmd_compare)

    p_sy = sub.add_parser("synth", help="generate synthetic target/background data")
    p_sy.add_argument("--features", type=int, default=100)
    p_sy.add_argument("--shared", type=int, default=3,
                      help="shared-subspace dimension (default 3)")
    p_sy.add_argument("--specific", type=int, default=1,
                      help="target-specific dimension (default 1)")
    p_sy.add_argument("-m", "--target-samples", type=int, default=2000)
    p_sy.add_argument("-n", "--background-samples", type=int, default=3000)
    p_sy.add_argument("--clusters", type=int, default=2)
    p_sy.add_argument("--separation", type=float, default=6.0,
                      help="cluster offset scale along the first specific axis")
    p_sy.add_argument("--shared-std", type=float, default=None,
                      help="target shared coefficient std (default 10..8 ramp)")
    p_sy.add_argument("--background-std", type=float, default=None,
                      help="background coefficient std (default 1.5x shared)")
    p_sy.add_argument("--specific-std", type=float, default=1.0)
    p_sy.add_argument("--noise-std", type=float, default=1.0)
    p_sy.add_argument("--seed", type=int, default=0)
    p_sy.add_argument("--out", default="synth", help="output path prefix")
    p_sy.set_defaults(func=cmd_synth)

    p_pl = sub.add_parser("plot", help="render an embedding CSV as an SVG scatter")
    p_pl.add_argument("embedding", help="embedding CSV (>= 2 columns)")
    p_pl.add_argument("--out", default="embedding.svg", help="SVG file to write")
    p_pl.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"dpca: usage error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"dpca: numerical error: {exc}", file=sys.stderr)
        return 4
    except (DpcaError, OSError) as exc:
        print(f"dpca: data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
