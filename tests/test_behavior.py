"""Qualitative behavior regressions: properties the method is known to show.

These complement the acceptance gate with coarser, structure-level checks
that would catch behavioral drift (a broken early exit, a mis-scaled noise
injection) even while individual unit contracts still pass.
"""

import numpy as np

from noisy_sqp import NoiseSpec, SolverParams, builtin_registry, derive_gradient_noise, solve
from noisy_sqp.harness import best_iterate


def noise_for(eps_f, eps_c):
    eps_g, eps_J = derive_gradient_noise(eps_f, eps_c)
    return NoiseSpec(eps_f=eps_f, eps_g=eps_g, eps_c=eps_c, eps_J=eps_J)


PROBLEMS = [p for p in builtin_registry() if p.full_rank][:5]


def test_optimistic_never_costs_more_at_high_noise():
    # at eps = 1e-1 the early exit triggers readily; the optimistic variant
    # should never spend more evaluations than the pessimistic one
    noise = noise_for(1e-1, 1e-1)
    wins = ties = losses = 0
    for p in PROBLEMS:
        for seed in (0, 1):
            costs = {}
            for optimism in ("optimistic", "pessimistic"):
                params = SolverParams(
                    noise, variant="adaptive", optimism=optimism,
                    exactness="inexact", max_iters=300, max_weighted_evals=3000)
                trace = solve(p, params, seed)
                costs[optimism] = trace.counters.weighted_total
            if costs["optimistic"] < costs["pessimistic"]:
                wins += 1
            elif costs["optimistic"] == costs["pessimistic"]:
                ties += 1
            else:
                losses += 1
    assert losses == 0
    assert wins >= ties


def test_feasibility_error_tracks_constraint_noise():
    # fixed objective noise, two constraint noise levels two decades apart:
    # the achieved feasibility error must separate by at least one decade
    def median_feas(eps_c):
        noise = noise_for(1e-4, eps_c)
        vals = []
        for p in PROBLEMS:
            for seed in (0, 1):
                params = SolverParams(
                    noise, variant="adaptive", optimism="optimistic",
                    exactness="inexact", max_iters=300, max_weighted_evals=3000)
                trace = solve(p, params, seed)
                _, feas, _, _, _ = best_iterate(trace, eps_c, 1e-4)
                vals.append(feas)
        return float(np.median(vals))

    coarse = median_feas(1e-2)
    fine = median_feas(1e-4)
    assert fine <= coarse / 10.0
