#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the repository root)::

    python3 perfbench/sweep.py --seeds 1-10 [--workloads cli_paper,lib_wide] \
        [--trace 1] [--out perfbench/out/sweep.json]

Each (workload, seed) is one ``run.py`` run of ``run_seconds`` from
``BENCHMARK.json``. For every metric the summary gives the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median; an end-to-end metric is steady when that
share is below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="multi-seed benchmark sweep")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in config["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    summary = {}
    for wl in workloads:
        runs, envs = [], []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                   "--seconds", str(config["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append(result)
            env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
            envs.append(env)
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = spread([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
        summary[wl] = {"env": envs[0], "seeds": [e.get("seed") for e in envs],
                       "correct": all(r["correct"] for r in runs),
                       "failed": sum(r["failed"] for r in runs),
                       "attempted": sum(r["attempted"] for r in runs), "metrics": metrics}
        for name, s in metrics.items():
            bound = bounds.get(name) if not args.trace else None
            share = s["iqr_share"]
            flag = ""
            if bound is not None and share is not None:
                flag = "steady" if share < bound / 3 else f"SPREAD > bound/3 ({bound / 3:.3f})"
            print(f"  {name:<30} median {s['median']:<12.6g} {s['unit']:<6} "
                  f"iqr/median {share if share is None else round(share, 4)}  {flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
