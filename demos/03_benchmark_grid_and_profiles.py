"""Run a small benchmark grid and build Dolan-More performance profiles.

Every (problem x variant x noise x seed) cell is solved independently on a
worker pool, summarized into one CSV row (deterministic and byte-identical
across reruns), and the profile curves compare solvers by their cost ratio
to the per-instance winner.
"""

import os
import tempfile

from noisy_sqp import ExperimentConfig, VariantSpec, performance_profile, run_grid
from noisy_sqp.harness import profile_to_tsv

# the grid CSV and the profiles are written to a temporary directory, removed at the end
with tempfile.TemporaryDirectory(prefix="noisy_sqp_demo_") as out_dir:
    config = ExperimentConfig(
        problems=["quad-linear", "quad-ellipse", "unit-circle", "parabola-ridge"],
        noise_grid=[(1e-2, 1e-2), (1e-4, 1e-4)],
        variants=[
            VariantSpec("ada", "opt", "inexact", 1e-2),
            VariantSpec("ada", "pes", "inexact", 1e-2),
            VariantSpec("ls", "opt", "inexact", 1e-2),
            VariantSpec("ls", "pes", "inexact", 1e-2),
        ],
        seeds=[0, 1, 2],
        budgets=(1000, 10000),
        out_dir=out_dir,
    )

    records, csv_path = run_grid(config)
    print(f"{len(records)} runs -> {csv_path}")

    solved = {}
    for rec in records:
        key = f"{rec.variant}-{rec.optimism}"
        solved.setdefault(key, []).append(rec.solved)
    for key, flags in sorted(solved.items()):
        print(f"  {key:<8} solved {sum(flags)}/{len(flags)}")

    for cost_field in ("weighted_evals", "minres_iters"):
        table = performance_profile(records, cost_field=cost_field)
        tsv_path = os.path.join(out_dir, f"profile_{cost_field}.tsv")
        with open(tsv_path, "w") as fh:
            fh.write(profile_to_tsv(table))
        print(f"\nprofile on {cost_field} -> {tsv_path}")
        print(f"  {'solver':<18} rho(1)   rho(2)   rho(4)")
        for solver in table.solvers:
            print(f"  {solver:<18} {table.rho(solver, 1.0):.2f}     "
                  f"{table.rho(solver, 2.0):.2f}     {table.rho(solver, 4.0):.2f}")
