"""Property tests over generated well-posed equality-constrained QPs.

Each example is  min 1/2 x'Qx + q'x  s.t.  Ax = b  with Q = B'B + I (SPD,
hence SPD on the null space of A) and A of full row rank (smallest singular
value >= 1e-2), solved under both step-size controllers, optimistic and
pessimistic, with and without noise.  Every trace must end with one of the
driver's statuses, pass the machine-checked invariants and give a finite
best iterate.  Hypothesis runs derandomized and without an example
database, so the suite stays deterministic (``conftest.py`` keeps the
plugin's constants cache out of the working tree).
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from noisy_sqp import driver
from noisy_sqp.driver import SolverParams, solve
from noisy_sqp.harness import best_iterate
from noisy_sqp.linalg import smallest_singular_value
from noisy_sqp.noise import NoiseSpec, derive_gradient_noise
from noisy_sqp.problems import ExactEvaluation, ProblemSpec
from noisy_sqp.verify import assert_trace_invariants

STATUSES = {driver.BUDGET_ITERS, driver.BUDGET_EVALS, driver.EARLY_STATIONARY,
            driver.EARLY_INFEASIBLE, driver.DEGENERATE, driver.LINE_SEARCH_FAILURE,
            driver.TEST_UNSATISFIABLE, driver.NONFINITE}

ENTRIES = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def well_posed_qps(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, n - 1))
    A = draw(arrays(float, (m, n), elements=ENTRIES))
    assume(smallest_singular_value(A) >= 1e-2)
    B = draw(arrays(float, (n, n), elements=ENTRIES))
    Q = B.T @ B + np.eye(n)
    q = draw(arrays(float, n, elements=ENTRIES))
    b = draw(arrays(float, m, elements=ENTRIES))
    x0 = draw(arrays(float, n, elements=ENTRIES))

    def ev(x):
        return ExactEvaluation(f=0.5 * float(x @ Q @ x) + float(q @ x),
                               g=Q @ x + q, c=A @ x - b, J=A)

    return ProblemSpec(f"qp-{n}x{m}", n, m, x0, ev)


def noise_for(eps):
    eps_g, eps_J = derive_gradient_noise(eps, eps)
    return NoiseSpec(eps_f=eps, eps_g=eps_g, eps_c=eps, eps_J=eps_J)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(problem=well_posed_qps())
def test_generated_qps_keep_the_solver_invariants(problem):
    for variant in (driver.ADAPTIVE, driver.LINE_SEARCH):
        for optimism in ("optimistic", "pessimistic"):
            for eps in (0.0, 1e-3):
                params = SolverParams.benchmark_defaults(
                    noise_for(eps), variant=variant, optimism=optimism, max_iters=40)
                trace = solve(problem, params, 0)
                label = (variant, optimism, eps)
                assert trace.status in STATUSES, label
                assert assert_trace_invariants(trace, params) == [], label
                _, feas, stat, infeas_stat, y_inf = best_iterate(trace, eps, eps)
                assert all(map(math.isfinite, (feas, stat, infeas_stat, y_inf))), label
