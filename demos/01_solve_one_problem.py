"""Solve one noisy equality-constrained problem and inspect the run trace.

The solver only sees noisy values: the objective, gradient, constraints,
and Jacobian are all perturbed within known bounds.  Ground-truth errors
are recorded alongside for post-hoc measurement and never influence the
iterates.
"""

import numpy as np

from noisy_sqp import NoiseSpec, SolverParams, derive_gradient_noise, get_problem, solve
from noisy_sqp.harness import best_iterate
from noisy_sqp.linalg import norm_inf

problem = get_problem("unit-circle")
print(f"problem: {problem.name}  (n={problem.n}, m={problem.m})")
print(f"start:   x0 = {problem.x0}")

# noise levels: the derivative noise is the square root of the value noise
eps_f = eps_c = 1e-4
eps_g, eps_J = derive_gradient_noise(eps_f, eps_c)
noise = NoiseSpec(eps_f=eps_f, eps_g=eps_g, eps_c=eps_c, eps_J=eps_J)
print(f"noise:   eps_f={eps_f:.0e} eps_g={eps_g:.0e} eps_c={eps_c:.0e} eps_J={eps_J:.0e}")

for variant in ("adaptive", "line_search"):
    params = SolverParams(
        noise, variant=variant, optimism="optimistic", exactness="inexact")
    trace = solve(problem, params, seed=0)
    idx, feas, stat, infeas_stat, _ = best_iterate(trace, eps_c, eps_f)
    print(f"\n[{variant}]")
    print(f"  status:          {trace.status} after {len(trace.records)} iterations")
    print(f"  weighted evals:  {trace.counters.weighted_total}")
    print(f"  best iterate #{idx}: x = {np.round(trace.records[idx].x, 6)}")
    print(f"  true feasibility error  ||c||_inf       = {feas:.3e}")
    print(f"  true stationarity error ||g + J'y||_inf = {stat:.3e}")

x_star = problem.known_kkt[0]
print(f"\nanalytic solution for reference: x* = {np.round(x_star, 6)}")
print(f"distance of best iterate to x*:  "
      f"{norm_inf(trace.records[idx].x - x_star):.3e}")
