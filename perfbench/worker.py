"""One benchmark process: set up a workload, then run timed passes of it.

Started by ``run.py`` in a fresh interpreter with BLAS threads pinned. It
imports ``dpca`` from the checkout's ``src/``, generates the inputs from the
seed, runs one untimed warm-up pass, and writes ``READY`` to stdout; the
parent's clock from process start to that line is one set-up sample. It then
runs passes until about ``--seconds`` of pass time have been measured (at
least one), checks every pass's outputs outside the timed region, and writes
its results as JSON to ``--out``.

With ``--trace 1`` passes alternate between untraced and traced ones, so the
trace overhead is measured within one process on the same inputs; a traced
worker runs at least three of each.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

MIN_TRACED_PASSES = 6


def run_pass(workload, tracer=None, pass_id=None) -> dict:
    """Run every operation once, back to back; returns times, outputs, errors."""
    outputs, times, errors = {}, {}, {}
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    if tracer is not None:
        tracer.pass_id = pass_id
    start = time.perf_counter()
    with span("bench.pass"):
        for op_id, (name, op) in enumerate(workload.operations()):
            if tracer is not None:
                tracer.op_id = op_id
            t0 = time.perf_counter()
            try:
                with span(f"op.{name}"):
                    outputs[name] = op(outputs)
            except (Exception, SystemExit) as exc:  # an operation failure, not ours
                errors[name] = f"{type(exc).__name__}: {exc}"
            times[name] = time.perf_counter() - t0
    return {"seconds": time.perf_counter() - start, "times": times,
            "outputs": outputs, "errors": errors}


def check_pass(workload, result: dict, first: bool) -> dict[str, list[str]]:
    try:
        fails = workload.check(result["outputs"], first)
    except Exception as exc:  # a check that cannot run fails every operation
        fails = {op: [f"check raised {type(exc).__name__}: {exc}"] for op in workload.ops}
    for op, err in result["errors"].items():
        fails.setdefault(op, []).insert(0, err)
    return fails


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.root / "src"))
    import dpca  # noqa: F401  (import time belongs to set-up)
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    if not Path(dpca.__file__).resolve().is_relative_to((args.root / "src").resolve()):
        print(f"dpca imported from {dpca.__file__}, not from the checkout", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = Tracer() if args.trace else None
    with tracer.installed() if tracer else nullcontext():
        if tracer is not None:
            tracer.pass_id = "setup"
        workload.prepare()
    warmup = run_pass(workload)
    print("READY", flush=True)

    reference_fails = check_pass(workload, warmup, first=True)
    attempted = failed = 0
    failures = [{"pass": "warm-up", "op": op, "why": f}
                for op, fs in reference_fails.items() for f in fs]
    op_times: dict[str, list[float]] = {op: [] for op in workload.ops}
    pipeline, traced_ids = [], []
    measured = 0.0
    n = 0
    min_passes = MIN_TRACED_PASSES if tracer else 1
    # Stop at the pass boundary nearest to --seconds of measured pass time.
    while n < min_passes or measured + warmup["seconds"] / 2 < args.seconds:
        gc.collect()
        traced = tracer is not None and n % 2 == 1
        if traced:
            with tracer.installed():
                result = run_pass(workload, tracer, pass_id=n)
            traced_ids.append(n)
        else:
            result = run_pass(workload)
        measured += result["seconds"]
        if not traced:
            pipeline.append(result["seconds"])
            for op, secs in result["times"].items():
                op_times[op].append(secs)
        fails = check_pass(workload, result, first=False)
        attempted += len(workload.ops)
        for op in workload.ops:
            if fails.get(op):
                failed += 1
                failures.extend({"pass": n, "op": op, "why": f} for f in fails[op])
        n += 1

    out = {
        "workload": args.workload,
        "passes": n,
        "measured_s": measured,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "pipeline_s": pipeline,
        "op_s": op_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, traced_ids, pipeline)
        out["spans"] = tracer.records()
    args.out.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
