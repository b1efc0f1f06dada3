"""Noise-aware SQP for equality-constrained problems with bounded noise.

The solver decomposes each step into a normal component (trust-region CG on
linearized infeasibility) and a tangential component (inexact symmetric
Krylov solve accepted by termination tests), balances them with an l2 merit
function, and supports optimistic early termination once the noisy
constraint violation falls below the constraint noise level.
"""

from .driver import RunTrace, SolverParams, solve
from .harness import ExperimentConfig, VariantSpec, performance_profile, run_grid, run_single
from .noise import NoiseSpec, NoisyOracle, derive_gradient_noise
from .problems import ProblemSpec, builtin_registry, get_problem, parse_problem_json

__all__ = [
    "ExperimentConfig",
    "NoiseSpec",
    "NoisyOracle",
    "ProblemSpec",
    "RunTrace",
    "SolverParams",
    "VariantSpec",
    "builtin_registry",
    "derive_gradient_noise",
    "get_problem",
    "parse_problem_json",
    "performance_profile",
    "run_grid",
    "run_single",
    "solve",
]
