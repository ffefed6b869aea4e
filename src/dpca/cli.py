"""Command-line interface.

Subcommands: ``fit``, ``transform``, ``compare``, ``synth``, ``plot``.
Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import eigencore, fileio, methods, svgplot, synthgen
from .cluster import cluster_label_accuracy, silhouette_score
from .datamodel import FitInputs, fit_inputs
from .errors import DpcaError, NumericalError

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
    if not np.isfinite(lo) or not np.isfinite(hi):
        raise UsageError(f"bad grid {spec!r}: lo and hi must be finite")
    if n < 1 or hi < lo:
        raise UsageError(f"bad grid {spec!r}: need hi >= lo and N >= 1")
    if log:
        if lo <= 0:
            raise UsageError("logarithmic grids need lo > 0")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _check_range(name: str, value, lo, hi=np.inf) -> None:
    """Reject a flag value that is not finite or lies outside ``lo..hi``."""
    if value is not None and not (np.isfinite(value) and lo <= value <= hi):
        bound = f">= {lo}" if hi == np.inf else f"in {lo}..{hi}"
        raise UsageError(f"{name} must be a finite number {bound}, got {value}")


def _prepare(args, select: bool = False) -> tuple[FitInputs, np.ndarray | None]:
    """Load the target and background CSVs into fit inputs, with the alpha grid if ``select``.

    Out-of-range flags, and ``--grid`` and ``--select`` when the command
    ``select``s alphas, are usage errors raised before any file is read.
    """
    _check_range("-d", args.components, 1)
    for flag in ("ridge", "floor", "alpha"):
        _check_range(f"--{flag}", getattr(args, flag, None), 0)  # compare has no --alpha
    grid = parse_grid(args.grid) if select else None
    if select:
        _check_range("--select", args.select, 1, grid.size)
        _check_range("--seed", args.seed, 0)
    return fit_inputs(fileio.read_csv(args.target),
                      [fileio.read_csv(p) for p in args.background or ()],
                      ridge=args.ridge, zscore=args.zscore), grid


def _fit(method: str, inputs: FitInputs, args,
         alpha: float | None = None) -> methods.ComponentModel:
    if method == "pca":
        return methods.pca_fit(inputs.covs[0], args.components, target_mean=inputs.means[0])
    means = {"target_mean": inputs.means[0], "background_mean": inputs.means[1]}
    if method == "cpca":
        return methods.cpca_fit(*inputs.covs, alpha, args.components, **means)
    return methods.dpca_fit(*inputs.covs, args.components, floor_rel=args.floor, **means)


def _auto_alpha(inputs: FitInputs, grid: np.ndarray, args) -> list[methods.ComponentModel]:
    """cPCA models at the alphas that auto-selection picks over ``grid``.

    The selection has already solved at each selected alpha; its pairs are
    the ones ``cpca_fit`` would return, so nothing is refitted.
    """
    selection = methods.cpca_select_alphas(
        *inputs.covs, grid, args.components, args.select, seed=args.seed)
    return [methods._model("cpca", inputs.covs, components, values, *inputs.means,
                           alpha=float(alpha))
            for alpha, components, values in zip(selection.selected, selection.components,
                                                 selection.eigenvalues)]


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


def _alpha_keys(alphas: list[float]) -> list[str]:
    """Labels for alphas: the fewest significant digits, 6 to 17, that tell them apart.

    Equal alphas share a label; 17 digits tell any two different floats apart.
    """
    digits = 6
    while len({format(a, f".{digits}g") for a in alphas}) < len(set(alphas)):
        digits += 1
    return [format(a, f".{digits}g") for a in alphas]


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

    inputs, grid = _prepare(args, select=args.auto_alpha)
    started = time.perf_counter()

    if args.method == "cpca" and args.auto_alpha:
        models = _auto_alpha(inputs, grid, args)
        out = Path(args.out)
        for i, model in enumerate(models, start=1):
            path = out.with_name(f"{out.stem}_a{i}{out.suffix or '.json'}")
            fileio.save_model(fileio.ensure_parent(path), model,
                              feature_scale=inputs.scale, provenance=_provenance(args, inputs.scale))
            print(f"alpha={model.alpha:.6g} eigenvalues: {_eigs_str(model.eigenvalues)} -> {path}")
        print(f"selected alphas: {_eigs_str([m.alpha for m in models])} "
              f"({time.perf_counter() - started:.3f} s)")
        return 0

    model = _fit(args.method, inputs, args, args.alpha)
    fileio.save_model(fileio.ensure_parent(args.out), model,
                      feature_scale=inputs.scale, provenance=_provenance(args, inputs.scale))
    print(f"{args.method} d={args.components} eigenvalues: {_eigs_str(model.eigenvalues)} "
          f"({time.perf_counter() - started:.3f} s) -> {args.out}")
    return 0


def cmd_transform(args) -> int:
    stored = fileio.load_model(args.model)
    data = fileio.read_csv(args.data)
    # data of another width is left unscaled, for transform's DimensionError
    if stored.feature_scale is not None and data.n_features == stored.model.n_features:
        data = data.scaled(stored.feature_scale)
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
    inputs, grid = _prepare(args, select=True)
    prefix = Path(args.out)
    fileio.ensure_parent(prefix.with_name(prefix.name + "_report.json"))

    # each "seconds" times the fits only
    t0 = time.perf_counter()
    pca_model = _fit("pca", inputs, args)
    pca_secs = time.perf_counter() - t0
    t0 = time.perf_counter()
    dpca_model = _fit("dpca", inputs, args)
    dpca_secs = time.perf_counter() - t0
    extra = {"dpca": {"pencil_solves": 1}}  # dpca_fit makes one generalized_eig call
    t0 = time.perf_counter()
    cpca_models = _auto_alpha(inputs, grid, args)
    cpca_secs = time.perf_counter() - t0

    fitted = {"pca": pca_model, "dpca": dpca_model,
              **{f"cpca_a{i}": m for i, m in enumerate(cpca_models, start=1)}}
    rows = {}
    for name, model in fitted.items():
        emb = methods.transform(model, inputs.target)
        path = f"{prefix}_{name}.csv"
        fileio.write_embedding_csv(path, emb.coordinates, emb.labels)
        rows[name] = {"eigenvalues": model.eigenvalues.tolist(), "embedding_csv": path,
                      **extra.get(name, {}), **_metrics(emb.coordinates, emb.labels, args.seed)}
    keys = _alpha_keys([m.alpha for m in cpca_models])
    per_alpha = {key: rows[f"cpca_a{i}"] for i, key in enumerate(keys, start=1)}
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
    # synth reads no data, so a bad flag value is a usage error, not a data error
    for name, value in (("--shared", args.shared), ("--specific", args.specific),
                        ("-m", args.target_samples), ("-n", args.background_samples)):
        _check_range(name, value, 1)
    _check_range("--clusters", args.clusters, 1, args.target_samples)
    _check_range("--separation", args.separation, -np.inf)
    for flag in ("shared_std", "background_std", "specific_std", "noise_std", "seed"):
        _check_range("--" + flag.replace("_", "-"), getattr(args, flag), 0)
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
