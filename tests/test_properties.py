"""Property tests over generated problems and linearizations.

Each generated QP is  min 1/2 x'Qx + q'x  s.t.  Ax = b  with Q = B'B + I (SPD,
hence SPD on the null space of A) and A of full row rank (smallest singular
value >= 1e-2), solved under both step-size controllers, optimistic and
pessimistic, with and without noise.  Every trace must end with one of the
driver's statuses, pass the machine-checked invariants and give a finite
best iterate.  The normal step on generated (c, J), rank-deficient J
included, must equal bit for bit an eager reference that always forms the
Cauchy point.  Hypothesis runs derandomized and without an example
database, so the suite stays deterministic (``conftest.py`` keeps the
plugin's constants cache out of the working tree).
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
from noisy_sqp.linalg import cg_steihaug, norm2, smallest_singular_value
from noisy_sqp.merit import Linearization
from noisy_sqp.noise import NoiseSpec, derive_gradient_noise
from noisy_sqp.problems import ExactEvaluation, ProblemSpec
from noisy_sqp.steps import NormalStep, cauchy_normal_step, normal_step
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


def eager_normal_step(lin, coef):
    """The normal step with the Cauchy point formed up front, every time, at
    `steps`' current GAMMA_C and SIGMA_JC."""
    c, J = lin.c, lin.J
    v_c, alpha_c = cauchy_normal_step(lin)
    v_cauchy = alpha_c * v_c
    c_cauchy = c + J.dot(v_cauchy)
    c_cauchy_norm = norm2(c_cauchy)
    cauchy_target = steps.GAMMA_C * (lin.c_norm - c_cauchy_norm)
    radius = steps.SIGMA_JC * lin.Jtc_norm
    threshold = coef * max(1.0, lin.Jtc_inf)
    v, _, iters = cg_steihaug(lambda p: J.T.dot(J.dot(p)), lin.Jtc, radius,
                              stop=lambda r: np.maximum.reduce(abs(r)) <= threshold)
    c_v = c + J.dot(v)
    c_v_norm = norm2(c_v)
    if lin.c_norm - c_v_norm < cauchy_target - lin.round_off:
        return NormalStep(v_cauchy, c_cauchy, c_cauchy_norm, iters)
    return NormalStep(v, c_v, c_v_norm, iters)


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
       gamma_c=st.sampled_from([0.1, 0.9, 1.0]),
       sigma_Jc=st.sampled_from([1e-2, 1.0, 1e2]),
       eps=st.sampled_from([0.0, 1e-4, 1e-2]),
       exact=st.booleans())
def test_normal_step_equals_the_eager_cauchy_reference(lin, gamma_c, sigma_Jc, eps, exact):
    coef = 1e-10 if exact else 1e-2 * eps  # the driver's gate coefficient at kappa = 1e-2
    # the constants are patched where normal_step reads them; hypothesis rejects
    # function-scoped fixtures such as monkeypatch
    with patch.object(steps, "GAMMA_C", gamma_c), patch.object(steps, "SIGMA_JC", sigma_Jc):
        got = normal_step(lin, coef)
        ref = eager_normal_step(lin, coef)
    assert got.v.tobytes() == ref.v.tobytes()
    assert got.c_v.tobytes() == ref.c_v.tobytes()
    assert got.c_v_norm.hex() == ref.c_v_norm.hex()
    assert got.cg_iters == ref.cg_iters
