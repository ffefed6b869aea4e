"""Command-line interface.

Subcommands: ``fit``, ``transform``, ``compare``, ``synth``, ``plot``.
Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import warnings
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import eigencore, fileio, methods, svgplot, synthgen
from .cluster import MAX_ACCURACY_CLASSES, cluster_label_accuracy, silhouette_score
from .datamodel import FitInputs, fit_inputs
from .errors import DpcaError, InvalidInputError, NumericalError, check_range

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
    if lo < 0:
        raise UsageError(f"bad grid {spec!r}: alphas are nonnegative, need lo >= 0")
    return np.linspace(lo, hi, n)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _check_range(name: str, value, lo, hi=np.inf) -> None:
    """:func:`~dpca.errors.check_range` of a flag that was given, as a usage error."""
    if value is not None:
        try:
            check_range(name, value, lo, hi)
        except InvalidInputError as exc:
            raise UsageError(str(exc)) from None


def _prepare(args) -> tuple[FitInputs, np.ndarray]:
    """Load the target and background CSVs into fit inputs, with the parsed ``--grid``.

    The inputs consume the tables, so each table is held once: it is
    z-scored and centered where it was parsed.

    Every flag is checked, also one the command does not use (``--grid``,
    ``--select`` and ``--seed`` without alpha selection): an out-of-range
    or malformed value is a usage error raised before any file is read.
    scipy is imported here when the command's fits will run in it, on
    ``eigencore.TOP_D_MIN_DIM`` features or more, so its one-time import is
    in no fit's time.
    """
    _check_range("-d", args.components, 1)
    for flag in ("ridge", "floor", "alpha"):
        _check_range(f"--{flag}", getattr(args, flag, None), 0)  # compare has no --alpha
    grid = parse_grid(args.grid)
    _check_range("--select", args.select, 1, grid.size)
    _check_range("--seed", args.seed, 0)
    # the command never reads the raw tables again, so they are taken, not copied
    inputs = fit_inputs(fileio.read_csv(args.target),
                        [fileio.read_csv(p) for p in args.background or ()],
                        ridge=args.ridge, zscore=args.zscore, consume=True)
    if inputs.covs[0].dim >= eigencore.TOP_D_MIN_DIM:
        import scipy.linalg  # noqa: F401
    return inputs, grid


def _fit(method: str, inputs: FitInputs, grid: np.ndarray, args,
         alpha: float | None = None) -> tuple[list[methods.ComponentModel], float]:
    """The models of one fit (:func:`methods.fit`), and the seconds the fit alone took."""
    started = time.perf_counter()
    models = methods.fit(method, inputs, args.components, alpha=alpha, grid=grid,
                         select=args.select, seed=args.seed, floor_rel=args.floor)
    return models, time.perf_counter() - started


def _provenance(args) -> dict:
    return {
        "target_file": str(args.target),
        "background_files": [str(p) for p in (args.background or [])],
        "seed": args.seed,
        "zscore": args.zscore,
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

    inputs, grid = _prepare(args)
    models, seconds = _fit(args.method, inputs, grid, args, args.alpha)
    out = Path(args.out)
    for i, model in enumerate(models, start=1):
        path = (out.with_name(f"{out.stem}_a{i}{out.suffix or '.json'}") if args.auto_alpha
                else args.out)
        fileio.save_model(fileio.ensure_parent(path), model, provenance=_provenance(args))
        eigs = f"eigenvalues: {_eigs_str(model.eigenvalues)}"
        print(f"alpha={model.alpha:.6g} {eigs} -> {path}" if args.auto_alpha else
              f"{args.method} d={args.components} {eigs} ({seconds:.3f} s) -> {path}")
    if args.auto_alpha:
        print(f"selected alphas: {_eigs_str([m.alpha for m in models])} ({seconds:.3f} s)")
    return 0


def cmd_transform(args) -> int:
    emb = methods.transform(fileio.load_model(args.model).model, fileio.read_csv(args.data))
    fileio.write_embedding_csv(fileio.ensure_parent(args.out), emb.coordinates, emb.labels)
    print(f"wrote {emb.coordinates.shape[0]}x{emb.coordinates.shape[1]} embedding -> {args.out}")
    return 0


def _metrics(coords: np.ndarray, labels, seed: int) -> dict:
    if labels is None or not 2 <= np.unique(labels).size <= MAX_ACCURACY_CLASSES:
        return {"kmeans_accuracy": None, "silhouette": None}
    two_d = coords[:, :2]
    return {
        "kmeans_accuracy": cluster_label_accuracy(two_d, labels, seed=seed),
        "silhouette": silhouette_score(two_d, labels),
    }


def cmd_compare(args) -> int:
    """Fit PCA, dPCA and auto-alpha cPCA, then write their embeddings and a report.

    Each embedding projects ``inputs.target``, the centered target that the
    fits were built from: ``inputs.target.values @ components`` gives the
    same numbers as ``transform`` of the raw target, whose ``raw / scale -
    mean`` is the same arithmetic, without a second copy of the target.
    """
    inputs, grid = _prepare(args)
    prefix = Path(args.out)
    fileio.ensure_parent(prefix.with_name(prefix.name + "_report.json"))

    (pca_model,), pca_secs = _fit("pca", inputs, grid, args)
    (dpca_model,), dpca_secs = _fit("dpca", inputs, grid, args)
    cpca_models, cpca_secs = _fit("cpca", inputs, grid, args)
    fitted = {"pca": pca_model, "dpca": dpca_model,
              **{f"cpca_a{i}": m for i, m in enumerate(cpca_models, start=1)}}
    rows = {}
    labels = inputs.target.labels
    for name, model in fitted.items():
        coords = inputs.target.values @ model.components
        path = f"{prefix}_{name}.csv"
        fileio.write_embedding_csv(path, coords, labels)
        rows[name] = {"eigenvalues": model.eigenvalues.tolist(), "embedding_csv": path,
                      **_metrics(coords, labels, args.seed)}
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
    fileio.write_json(report_path, report)

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
    # numpy indexes no array of more cells than intp holds: the bases are
    # features x (shared + specific), the tables rows x features. As features
    # >= shared + specific, the basis fits only when shared + specific <= side
    cells = np.iinfo(np.intp).max
    side = math.isqrt(cells)
    _check_range("--shared", args.shared, 1, side - 1)
    _check_range("--specific", args.specific, 1, side - args.shared)
    _check_range("--features", args.features, 1, cells // (args.shared + args.specific))
    for name, value in (("-m", args.target_samples), ("-n", args.background_samples)):
        _check_range(name, value, 1, cells // args.features)
    shared_std = (np.full(args.shared, args.shared_std) if args.shared_std is not None
                  else synthgen.default_shared_std(args.shared))
    background_std = (synthgen.BACKGROUND_STD_RATIO * shared_std if args.background_std is None
                      else np.full(args.shared, args.background_std))
    spec = synthgen.random_spec(
        args.features, args.shared, args.specific,
        background_coeff_std=background_std,
        shared_coeff_std=shared_std,
        specific_coeff_std=args.specific_std,
        noise_std=args.noise_std,
        seed=args.seed,
    )
    offsets = synthgen.spread_offsets(args.clusters, args.specific, args.separation)

    prefix = Path(args.out)
    fileio.ensure_parent(prefix.with_name(prefix.name + "_target.csv"))
    target_path = f"{prefix}_target.csv"
    background_path = f"{prefix}_background.csv"
    truth_path = f"{prefix}_truth.json"
    # one generated table at a time: each is written and dropped before the
    # next is drawn, from its own random stream, so the order cannot move a byte
    fileio.write_data_csv(target_path, synthgen.gen_target(spec, args.target_samples, offsets))
    fileio.write_data_csv(background_path, synthgen.gen_background(spec, args.background_samples))
    # every FactorModelSpec field, in declaration order, which is the file's key order
    truth = {"n_features": spec.n_features, "n_shared": spec.n_shared,
             "n_specific": spec.n_specific,
             **{f.name: np.asarray(getattr(spec, f.name)).tolist() for f in fields(spec)},
             "cluster_offsets": offsets.tolist()}
    fileio.write_json(truth_path, truth)
    print(f"wrote {target_path} ({args.target_samples} rows), "
          f"{background_path} ({args.background_samples} rows), {truth_path}")
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
                       help="number of components (default %(default)s)")
        if with_alpha:
            p.add_argument("--alpha", type=float, default=None,
                           help="contrast strength for cpca")
            p.add_argument("--auto-alpha", action="store_true",
                           help="select alphas automatically over --grid")
        p.add_argument("--grid", default=DEFAULT_GRID,
                       help="alpha grid, lo:hi:N[log] (default %(default)s)")
        p.add_argument("--select", type=int, default=4,
                       help="number of alphas to select (default %(default)s)")
        p.add_argument("--ridge", type=float, default=0.0,
                       help="ridge added to covariance diagonals (default %(default)g)")
        p.add_argument("--floor", type=float, default=eigencore.DEFAULT_FLOOR_REL,
                       help="relative eigenvalue floor for whitening (default %(default)g)")
        p.add_argument("--zscore", action="store_true",
                       help="divide features by their pooled standard deviation")
        p.add_argument("--seed", type=int, default=0, help="seed (default %(default)s)")

    p_fit = sub.add_parser("fit", help="fit a model from CSV data")
    p_fit.add_argument("method", choices=methods.METHODS)
    p_fit.add_argument("target", help="target data CSV")
    p_fit.add_argument("background", nargs="*",
                       help="background CSV(s); several are row-concatenated")
    add_common_fit_flags(p_fit, with_alpha=True)
    p_fit.add_argument("--out", default="model.json",
                       help="model file to write; with --auto-alpha, one file per selected "
                            "alpha, <stem>_a<i><suffix>")
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
                      help="shared-subspace dimension (default %(default)s)")
    p_sy.add_argument("--specific", type=int, default=1,
                      help="target-specific dimension (default %(default)s)")
    p_sy.add_argument("-m", "--target-samples", type=int, default=2000)
    p_sy.add_argument("-n", "--background-samples", type=int, default=3000)
    p_sy.add_argument("--clusters", type=int, default=2)
    p_sy.add_argument("--separation", type=float, default=6.0,
                      help="cluster offset scale along the first specific axis")
    p_sy.add_argument("--shared-std", type=float, default=None,
                      help="target shared coefficient std (default 10..8 ramp)")
    p_sy.add_argument("--background-std", type=float, default=None,
                      help="background coefficient std "
                           f"(default {synthgen.BACKGROUND_STD_RATIO}x shared)")
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


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"dpca: {category.__name__}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # a warning prints as one line, as an error does, without the source location
        warnings.showwarning = _show_warning
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
