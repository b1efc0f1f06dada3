"""Rank-deficient Jacobians, the infeasible-stationary exit, and the verifiers.

Duplicating a constraint row makes the exact Jacobian rank-deficient
without changing the feasible region; the solver keeps making progress on
the infeasibility gradient ||J'c|| even though least-squares multipliers
are no longer unique.  The verification scans check that the noisy step
components track their exact counterparts linearly in the noise level.
"""

import numpy as np

from noisy_sqp import NoiseSpec, SolverParams, derive_gradient_noise, get_problem, solve
from noisy_sqp.harness import best_iterate
from noisy_sqp.linalg import smallest_singular_value
from noisy_sqp.problems import duplicate_last_constraint, evaluate
from noisy_sqp.verify import cauchy_perturbation_scan, tangential_gap_scan

problem = get_problem("circle-shifted")
dup = duplicate_last_constraint(problem)
J = evaluate(dup, dup.x0).J
print(f"{dup.name}: m = {dup.m}, smallest singular value of J(x0) = "
      f"{smallest_singular_value(J):.1e}  (rank-deficient)\n")

eps_f = eps_c = 1e-4
eps_g, eps_J = derive_gradient_noise(eps_f, eps_c)
noise = NoiseSpec(eps_f=eps_f, eps_g=eps_g, eps_c=eps_c, eps_J=eps_J)
for variant in ("adaptive", "line_search"):
    params = SolverParams(
        noise, variant=variant, optimism="optimistic", exactness="inexact")
    trace = solve(dup, params, seed=0)
    _, feas, stat, infeas_stat, _ = best_iterate(trace, eps_c, eps_f)
    print(f"[{variant}] status={trace.status}, iterations={len(trace.records)}")
    print(f"  feasibility ||c||_inf            = {feas:.2e}")
    print(f"  infeasible stationarity ||J'c||  = {infeas_stat:.2e}")

print("\n-- perturbation scans (noise scaling of the step components) --")
quad = get_problem("quad-linear")
report = cauchy_perturbation_scan(quad, quad.x0)
print(f"cauchy scan pass={report.passed}")
for obs in report.observations:
    print(f"  eps={obs['eps']:.0e}  max step error={obs['max_error']:.2e}  "
          f"error/eps={obs['ratio']:.2f}")

report = tangential_gap_scan(quad, np.zeros(quad.n))
print(f"tangential scan pass={report.passed}")
for obs in report.observations:
    print(f"  eps={obs['eps']:.0e}  max gap={obs['max_error']:.2e}  "
          f"gap/(2 eps)={obs['ratio']:.2f}")
