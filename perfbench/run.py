"""noisy-sqp benchmark: one workload, one seed, one run of fixed length.

    python3 perfbench/run.py --workload {grid,solve-long,solve-short,all} \
        [--seed N] [--seconds S] [--trace {0,1}]

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` measures the same work once untraced and once with
every layer wrapped, and reports the per-layer metrics and the tracing
overhead.  A human-readable report goes to standard output; its last line
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 when the benchmark ran, whatever the checks found.
``--workload all`` runs each workload in its own interpreter and ends with
one JSON object whose metric names are prefixed by the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("grid", "solve-long", "solve-short")
DEFAULT_SEED = 0
SETUP_REPEATS = 11


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import noisy_sqp from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "noisy_sqp", "__init__.py")):
        raise SystemExit(f"perfbench: no noisy_sqp sources under {SRC}")
    sys.path.insert(0, SRC)
    import noisy_sqp

    if os.path.dirname(os.path.abspath(noisy_sqp.__file__)) != os.path.join(SRC, "noisy_sqp"):
        raise SystemExit(f"perfbench: imported noisy_sqp from {noisy_sqp.__file__}")


def setup_seconds(workload: str) -> float:
    """Median set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def report(args, metrics, measurements, notes):
    outcomes = [o for m in measurements for o in m.outcomes]
    failed = [o for o in outcomes if o.failures]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for m in measurements:
        print(f"  {m.workload}: {m.calls} calls, {len(m.outcomes)} runs, "
              f"{m.iters} iterations, {m.measured_ns * 1e-9:.3f} s measured")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':40s} {len(failed) / max(len(outcomes), 1):14.6g} fraction "
          f"({len(failed)} of {len(outcomes)} runs)")
    for o in failed[:10]:
        print(f"  FAILED {o.key}: {'; '.join(o.failures)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args) -> int:
    """Run every workload in its own interpreter; the last line combines them."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse(argv)
    if args.workload == "all":
        return run_all(args)
    import_program()
    import tracer as tracing
    import workloads

    os.makedirs(WORK, exist_ok=True)
    notes = []
    workloads.setup(args.workload)
    workloads.warm_up(args.workload, args.seed)
    if args.trace == 0:
        setup_s = setup_seconds(args.workload)
        m = workloads.measure(args.workload, args.seed, args.seconds, WORK)
        notes.append(workloads.compare_reference(m, args.seed, REFERENCE))
        metrics = workloads.end_to_end(m, setup_s)
        beyond = m.calls - int(0.9 * m.calls)
        notes.append(f"run_ms percentiles over {m.calls} calls; p90 has {beyond} beyond it"
                     f"{'' if beyond >= 10 else ' (fewer than ten: read p50)'}")
        measurements = [m]
    else:
        plain, traced = workloads.measure_traced(args.workload, args.seed, args.seconds,
                                                 WORK, tracing.Tracer())
        notes.append(workloads.compare_reference(plain, args.seed, REFERENCE))
        metrics = workloads.per_layer(traced, plain.measured_ns)
        spans = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.npz")
        traced.table.write(spans)
        notes.append(f"untraced {plain.measured_ns * 1e-9:.3f} s, traced "
                     f"{traced.measured_ns * 1e-9:.3f} s on the same runs; spans in {spans}")
        measurements = [plain, traced]
    report(args, metrics, measurements, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
