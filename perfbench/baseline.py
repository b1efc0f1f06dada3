"""Measure a baseline: several seeds per workload, one traced run each.

    python3 perfbench/baseline.py

Each workload runs once per seed 1..10 with tracing off (run length from
BENCHMARK.json) and once traced at seed 0.  For every end-to-end metric
the file keeps all values, the median, the quartiles and the spread
(q3 - q1) / median; for the traced run, its per-layer metrics.  The
machine facts come first, so two files compare only on the same machine.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run

SEEDS = list(range(1, 11))
OUT = os.path.join(run.HERE, "baseline.json")


def one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy

    model = ""
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def summarize(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                     "values": values}
    return out


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    doc = {"machine": machine(), "run_seconds": seconds,
           "seeds": SEEDS, "trace_seed": run.DEFAULT_SEED,
           "date": time.strftime("%Y-%m-%d"), "workloads": {}}
    for workload in run.WORKLOADS:
        results = [one(workload, seed, seconds, 0) for seed in doc["seeds"]]
        traced = one(workload, run.DEFAULT_SEED, seconds, 1)
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in results + [traced]),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": summarize(results),
            "per_layer": traced["metrics"],
        }
        for name, s in doc["workloads"][workload]["end_to_end"].items():
            print(f"{workload:12s} {name:14s} median {s['median']:12.6g} {s['unit']:9s}"
                  f" spread {s['spread']:.4f}", flush=True)
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
