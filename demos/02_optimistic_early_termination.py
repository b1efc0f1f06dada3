"""Optimistic vs pessimistic feasibility under constraint noise.

With noisy constraints, exact feasibility is unknowable: once the observed
violation falls below the constraint noise level, pushing it further just
chases noise.  The optimistic variant declares feasibility at that point
and can stop as soon as the merit-model reduction is also at noise level;
the pessimistic variant keeps grinding until a budget runs out.
"""

from noisy_sqp import NoiseSpec, SolverParams, derive_gradient_noise, get_problem, solve
from noisy_sqp.harness import best_iterate

problem = get_problem("quad-ellipse")
eps_f = eps_c = 1e-2
eps_g, eps_J = derive_gradient_noise(eps_f, eps_c)
noise = NoiseSpec(eps_f=eps_f, eps_g=eps_g, eps_c=eps_c, eps_J=eps_J)

print(f"problem {problem.name}, eps_c = {eps_c:.0e}\n")
print(f"{'variant':<14} {'optimism':<12} {'status':<28} {'iters':>5} "
      f"{'evals':>6} {'feas':>10} {'stat':>10}")
for variant in ("adaptive", "line_search"):
    for optimism in ("optimistic", "pessimistic"):
        params = SolverParams(
            noise, variant=variant, optimism=optimism, exactness="inexact")
        trace = solve(problem, params, seed=3)
        _, feas, stat, _, _ = best_iterate(trace, eps_c, eps_f)
        print(f"{variant:<14} {optimism:<12} {trace.status:<28} "
              f"{len(trace.records):>5} {trace.counters.weighted_total:>6} "
              f"{feas:>10.2e} {stat:>10.2e}")

print("""
When the exit triggers (noisy violation and model reduction both below the
threshold), the optimistic run stops with errors at noise level after a
fraction of the pessimistic budget.  The exit is opportunistic: some runs
never reach it and fall back to the budget, matching the pessimistic cost.""")
