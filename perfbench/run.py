#!/usr/bin/env python3
"""End-to-end benchmark of dpca: one workload, one seed, one closed-loop run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli_paper --seed 1 --seconds 36 --trace 0

Workloads are defined in ``perfbench/workloads.py`` and explained in
``perfbench/README.md``; ``BENCHMARK.json`` lists the ones the benchmark runs.
An untraced run starts three fresh worker processes (``perfbench/worker.py``)
one after the other, with BLAS threads pinned to the core count. Each one is a
set-up sample and then runs its share of the ``--seconds`` of timed passes, so
the samples spread over the whole run. With ``--trace 0`` it prints every
end-to-end metric; with ``--trace 1`` a single worker prints the per-layer
metrics from wrapped program functions. The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Full results, the run environment
and (traced runs) the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKERS = 3  # per untraced run; each gives one set-up sample
WORKER_TIMEOUT_S = 170.0


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"  # one source of process-to-process spread fewer
    env.pop("PYTHONPATH", None)
    return env


def run_worker(cmd: list[str], env: dict, deadline: float) -> tuple[float, int]:
    """Start a worker; return (seconds from start to READY, exit code).

    A worker still running at ``deadline`` is killed, which fails the run.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(max(0.0, deadline - start), proc.kill)
    killer.start()
    ready = None
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - start
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready is None and code == 0:
        code = 1
    return (ready or 0.0), code


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    probe = ("import json, importlib.util, numpy, scipy; "
             "cfg = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
             "print(json.dumps({'blas': cfg.get('name'), 'blas_version': cfg.get('version'), "
             "'numpy': numpy.__version__, 'scipy': scipy.__version__, "
             "'numba_present': importlib.util.find_spec('numba') is not None}))")
    info = json.loads(subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                     text=True, check=True, env=worker_env()).stdout)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=ROOT)
        commit = rev.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "pythonhashseed": "0",
        **info,
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
    }


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dpca end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "dpca" / "__init__.py").is_file():
        print(f"no dpca sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup below
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    result_path = OUT / f"{tag}.json"
    OUT.mkdir(exist_ok=True)
    env = worker_env()
    base = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
            "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(args.trace), "--workdir", str(workdir)]
    run_info = environment(args.seed)
    print("env " + json.dumps(run_info), flush=True)

    workers = 1 if args.trace else WORKERS
    setups, parts = [], []
    measured = 0.0
    try:
        for k in range(1, workers + 1):
            part_path = OUT / f"{tag}-worker{k}.json"
            share = args.seconds * k / workers - measured
            secs, code = run_worker(base + ["--seconds", str(share), "--out", str(part_path)],
                                    env, deadline)
            if code != 0:
                print(f"benchmark worker {k} failed with exit code {code}", file=sys.stderr)
                return 1
            setups.append(secs)
            parts.append(json.loads(part_path.read_text(encoding="utf-8")))
            part_path.unlink()
            measured += parts[-1]["measured_s"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    res = {
        "workload": args.workload,
        "env": run_info,
        "setup_s": setups,
        "passes": [p["passes"] for p in parts],
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "failures": [dict(f, worker=k) for k, p in enumerate(parts, 1) for f in p["failures"]],
        "pipeline_s": [x for p in parts for x in p["pipeline_s"]],
        "op_s": {op: [x for p in parts for x in p["op_s"][op]] for op in parts[0]["op_s"]},
        "peak_rss_mb": [p["peak_rss_mb"] for p in parts],
    }
    if args.trace:
        res["layers"] = parts[0]["layers"]
        res["spans"] = parts[0]["spans"]
    samples = {
        "setup_s": setups,
        "fit_dpca_s": res["op_s"]["fit_dpca"],
        "pipeline_s": res["pipeline_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    metrics = {}
    if args.trace:
        for spec in config["per_layer"]:
            value = res["layers"].get(spec["name"], 0.0)
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    else:
        for spec in config["end_to_end"]:
            name = spec["name"]
            value = median(samples[name])
            metrics[name] = {"value": value, "unit": spec["unit"]}
            print(f"{name:<16} {value:>12.6g} {spec['unit']:<6} "
                  f"(median of {len(samples[name])})")
    # Every operation's time, by name; only the metrics above are gated.
    for op, secs in res["op_s"].items():
        print(f"  {op + '_s':<16} {median(secs):>10.4f} s      (median of {len(secs)})")
    for fail in res["failures"][:10]:
        print(f"FAILED pass {fail['pass']} {fail['op']}: {fail['why']}")

    res["metrics"] = metrics
    result_path.write_text(json.dumps(res, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": res["failed"] == 0 and not res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
