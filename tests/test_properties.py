"""Property tests over generated problems and linearizations.

Each generated QP is  min 1/2 x'Qx + q'x  s.t.  Ax = b  with Q = B'B + I (SPD,
hence SPD on the null space of A) and A of full row rank (smallest singular
value >= 1e-2), solved under both step-size controllers, optimistic and
pessimistic, with and without noise.  Every trace must end with one of the
driver's statuses, pass the machine-checked invariants and give a finite
best iterate.  The normal step on generated (c, J), rank-deficient J
included, must keep the decrease of ||c|| of `verify`'s independently coded
Cauchy point, in full and not only the share GAMMA_C.  Hypothesis runs
derandomized and without an example database, so the suite stays
deterministic (``conftest.py`` keeps the plugin's constants cache out of the
working tree).
"""

import math
from unittest.mock import patch

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from noisy_sqp import driver, steps
from noisy_sqp.driver import SolverParams, solve
from noisy_sqp.harness import best_iterate
from noisy_sqp.linalg import norm2, smallest_singular_value
from noisy_sqp.merit import GAMMA_C, Linearization
from noisy_sqp.noise import NoiseSpec, derive_gradient_noise
from noisy_sqp.problems import ExactEvaluation, ProblemSpec
from noisy_sqp.steps import normal_step
from noisy_sqp.verify import _cauchy_step, assert_trace_invariants

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


@st.composite
def linearizations(draw):
    """(c, J) with J'c not numerically zero; some J have repeated, scaled or
    zero rows, or more rows than columns."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    J = draw(arrays(float, (m, n), elements=ENTRIES))
    if m >= 2 and draw(st.booleans()):
        J[-1] = draw(st.sampled_from([1.0, -3.0, 0.0])) * J[0]
    c = draw(arrays(float, m, elements=ENTRIES)) * 10.0 ** draw(st.integers(-6, 6))
    lin = Linearization(np.zeros(n), c, J)
    assume(lin.Jtc_inf > lin.round_off)
    return lin


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lin=linearizations(),
       sigma_Jc=st.sampled_from([1e-2, 1.0, 1e2]),
       eps=st.sampled_from([0.0, 1e-4, 1e-2]),
       exact=st.booleans())
def test_normal_step_keeps_the_cauchy_decrease(lin, sigma_Jc, eps, exact):
    coef = 1e-10 if exact else 1e-2 * eps  # the driver's gate coefficient at kappa = 1e-2
    # the radius constant is patched where normal_step reads it; hypothesis rejects
    # function-scoped fixtures such as monkeypatch
    with patch.object(steps, "SIGMA_JC", sigma_Jc):
        decrease = lin.c_norm - normal_step(lin, coef).c_v_norm
    cauchy = lin.c_norm - norm2(lin.c + lin.J @ _cauchy_step(lin.c, lin.J, sigma_Jc))
    for share in (GAMMA_C, 1.0):
        assert decrease >= share * cauchy - lin.round_off, share
