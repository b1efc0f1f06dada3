"""Metamorphic relations: a transformed problem must give a matching outcome.

Every run is noise-free (eps = 0) in exact mode with 300 iterations and seed
0, over every built-in problem and both step-size controllers.  At eps = 0
the optimistic and pessimistic variants share eps_o = 0 and run alike, so
one optimism covers both.  The relations are not bitwise: reversing the
rows reorders sums inside the Krylov solvers, and quad-ellipse under the
adaptive controller took 33 iterations against 36.  They compare statuses
and best-iterate errors within tolerances instead.

The best iterate is chosen with eps_c = eps_f = 2.5e-9, that is a
feasibility gate of 5e-9.

"eps -> 0 keeps the zero-noise status" is deliberately not a relation here:
with all four eps at 1e-12 or 1e-14, 28 of 80 runs (both optimisms) ended in
another status than at eps = 0.  degenerate_direction became
early_stationary, early_stationary and budget_iters swapped both ways, and
quad-ellipse ended early_infeasible_stationary at 1e-12.
"""

import numpy as np
import pytest

from noisy_sqp.driver import ADAPTIVE, LINE_SEARCH, SolverParams, solve
from noisy_sqp.harness import best_iterate
from noisy_sqp.noise import NoiseSpec
from noisy_sqp.problems import (
    ExactEvaluation,
    ProblemSpec,
    builtin_registry,
    duplicate_last_constraint,
    get_problem,
)

NAMES = [p.name for p in builtin_registry()]
GATE_EPS = 2.5e-9


def reversed_rows(problem: ProblemSpec) -> ProblemSpec:
    """The same problem with its constraint rows in reverse order."""
    m, n, inner = problem.m, problem.n, problem.eval_fn

    def ev(x):
        e = inner(x)
        c = np.asarray(e.c, dtype=float).reshape(m)
        J = np.asarray(e.J, dtype=float).reshape(m, n)
        return ExactEvaluation(e.f, e.g, c[::-1].copy(), J[::-1].copy())

    shared = tuple(tuple(sorted(m - 1 - i for i in pair)) for pair in problem.shared_noise_rows)
    return ProblemSpec(problem.name + "-reversed", n, m, problem.x0, ev,
                       full_rank=problem.full_rank, shared_noise_rows=shared, H=problem.H)


def run(problem, variant):
    params = SolverParams.benchmark_defaults(NoiseSpec(), variant=variant,
                                             exactness="exact", max_iters=300)
    trace = solve(problem, params, 0)
    _, feas, stat, _, _ = best_iterate(trace, GATE_EPS, GATE_EPS)
    return trace.status, feas, stat


def test_the_problem_set_covers_multiple_rows():
    assert "sphere-dup" in NAMES
    assert any(get_problem(name).m >= 2 for name in NAMES)


@pytest.mark.parametrize("variant", [ADAPTIVE, LINE_SEARCH])
@pytest.mark.parametrize("name", NAMES)
def test_reversed_rows_keep_status_and_errors(name, variant):
    problem = get_problem(name)
    status, feas, stat = run(problem, variant)
    status_r, feas_r, stat_r = run(reversed_rows(problem), variant)
    assert status_r == status
    assert abs(feas_r - feas) <= 1e-6
    assert abs(stat_r - stat) <= 1e-6


@pytest.mark.parametrize("variant", [ADAPTIVE, LINE_SEARCH])
@pytest.mark.parametrize("name", NAMES)
def test_duplicated_row_keeps_the_iterate_stationary(name, variant):
    # the status may change (rosenbrock-sphere under the adaptive controller
    # ends degenerate_direction, its duplicate early_stationary); the quality
    # of the best iterate may not
    problem = get_problem(name)
    for p in (problem, duplicate_last_constraint(problem)):
        _, feas, stat = run(p, variant)
        assert feas <= 1e-11, p.name
        assert stat <= 1e-6, p.name
