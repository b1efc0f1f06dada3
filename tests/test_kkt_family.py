"""A generated family of nonlinear problems with known KKT points.

Each seed draws n in 2..10 and m in 1..n-1, a KKT pair (x*, y*) uniform in
[-1, 1] and a standard normal B (m x n).  With e = x - x*, the constraints are
c(x) = B e + 1/2 [e' C_i e]_i with symmetric C_i of scale s in [0, 0.5], and
the objective is f(x) = 1/2 e'Q e + q'e with Q = M'M/n + I and q = -B'y*, so
c(x*) = 0 and g(x*) + J(x*)'y* = 0 hold by construction.  The curvature
matrix is the Lagrangian Hessian at x*; a draw whose Hessian is not positive
definite on null(B) (smallest eigenvalue <= 1e-3) is drawn again.  The start
is x* + 0.3 N(0, I).

Unlike the quadratics of ``test_properties.py``, every problem here has
nonlinear, independent constraints.  The zero-noise runs end near a KKT
point, where ||c||, ||J'c|| and the model reduction all sit at round-off, so
they check the round-off rules: no controller steps on a model reduction
<= 0, the step size stays positive, and a feasible KKT point is never
labelled infeasible-stationary.  The runs may reach another KKT point than
(x*, y*), so the best iterate's errors are checked, not its distance to x*.

Every check runs on both exactness modes.  At zero noise the inexact
residual gate's coefficient is 0, so every inexact step is the dense
`exact_fallback`.
"""

import numpy as np
import pytest

from noisy_sqp import steps
from noisy_sqp.driver import (ADAPTIVE, EARLY_INFEASIBLE, EXACTNESS, LINE_SEARCH,
                               TEST_UNSATISFIABLE, SolverParams, solve)
from noisy_sqp.harness import best_iterate
from noisy_sqp.linalg import minres_iterate, norm2
from noisy_sqp.noise import NoiseSpec
from noisy_sqp.problems import ExactEvaluation, ProblemSpec
from noisy_sqp.verify import assert_trace_invariants

SEEDS = range(120)
GATE_EPS = 5e-10  # best-iterate feasibility gate 2 * GATE_EPS = 1e-9


def kkt_problem(seed: int) -> ProblemSpec:
    """The family's problem for one seed, with ``known_kkt`` = (x*, y*)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    m = int(rng.integers(1, n))
    while True:
        x_star = rng.uniform(-1.0, 1.0, n)
        y_star = rng.uniform(-1.0, 1.0, m)
        B = rng.standard_normal((m, n))
        R = rng.standard_normal((m, n, n))
        C = rng.uniform(0.0, 0.5) * (R + R.transpose(0, 2, 1)) / 2.0
        M = rng.standard_normal((n, n))
        Q = M.T @ M / n + np.eye(n)
        H = Q + np.tensordot(y_star, C, axes=1)
        Z = np.linalg.svd(B)[2][m:].T  # orthonormal basis of null(B)
        if np.linalg.eigvalsh(Z.T @ H @ Z).min() > 1e-3:
            break
    q = -B.T @ y_star

    def ev(x):
        e = x - x_star
        Ce = C @ e
        Qe = Q @ e
        return ExactEvaluation(f=0.5 * float(e @ Qe) + float(q @ e), g=Qe + q,
                               c=B @ e + 0.5 * (Ce @ e), J=B + Ce)

    x0 = x_star + 0.3 * rng.standard_normal(n)
    return ProblemSpec(f"kkt-{seed}", n, m, x0, ev, known_kkt=(x_star, y_star),
                       H=(H + H.T) / 2.0)


@pytest.fixture(scope="module")
def family_runs():
    """(problem, params, trace) for every seed under both controllers and both exactness modes."""
    runs = []
    for seed in SEEDS:
        problem = kkt_problem(seed)
        for variant in (ADAPTIVE, LINE_SEARCH):
            for exactness in EXACTNESS:
                params = SolverParams.benchmark_defaults(NoiseSpec(), variant=variant,
                                                         exactness=exactness, max_iters=300)
                runs.append((problem, params, solve(problem, params, 0)))
    return runs


def label(problem, params):
    return f"{problem.name} {params.variant} {params.exactness}"


def test_no_step_size_is_negative(family_runs):
    bad = [(label(p, s), r.k, r.alpha) for p, s, t in family_runs for r in t.records
           if r.alpha < 0.0]
    assert bad == []


def test_no_controller_steps_on_a_nonpositive_model_reduction(family_runs):
    # a record with a bundle and alpha != 0 is a step the controller took
    bad = [(label(p, s), r.k, r.delta_l) for p, s, t in family_runs for r in t.records
           if r.bundle is not None and r.alpha != 0.0 and r.delta_l <= 0.0]
    assert bad == []


def test_feasible_points_are_not_infeasible_stationary(family_runs):
    bad = [(label(p, s), norm2(t.records[-1].noisy.c_bar)) for p, s, t in family_runs
           if t.status == EARLY_INFEASIBLE and norm2(t.records[-1].noisy.c_bar) <= 1e-10]
    assert bad == []


@pytest.mark.xfail(strict=True, reason="the TT residual gate has no round-off floor")
def test_feasible_runs_do_not_end_test_unsatisfiable(family_runs):
    # at a feasible KKT point ||u|| and ||J'c|| sit at round-off, and the gate
    # scaled by them rejects even the dense solve's residual (ROADMAP item 2)
    bad = [label(p, s) for p, s, t in family_runs
           if t.status == TEST_UNSATISFIABLE and norm2(t.records[-1].exact.c) <= 1e-10]
    assert bad == []


@pytest.mark.xfail(strict=True, reason="an iteration whose tangential step passes no test "
                                       "returns no bundle, so its Krylov steps go uncounted")
def test_a_test_unsatisfiable_run_counts_every_minres_step(monkeypatch):
    # seed 0 under the line search, inexact, ends test_unsatisfiable after 5 records:
    # it takes 150 MINRES steps and its trace reports the 120 of its bundles
    taken = []

    def counted(*args):
        taken.append(None)
        return minres_iterate(*args)

    monkeypatch.setattr(steps, "minres_iterate", counted)
    params = SolverParams.benchmark_defaults(NoiseSpec(), variant=LINE_SEARCH,
                                             exactness="inexact", max_iters=300)
    trace = solve(kkt_problem(0), params, 0)
    assert trace.minres_iters == len(taken)


def test_traces_keep_the_invariants(family_runs):
    bad = {label(p, s): v for p, s, t in family_runs
           if (v := assert_trace_invariants(t, s))}
    assert bad == {}


def test_best_iterate_is_a_kkt_point(family_runs):
    bad = []
    for problem, params, trace in family_runs:
        _, feas, stat, _, _ = best_iterate(trace, GATE_EPS, GATE_EPS)
        if not (feas <= 1e-9 and stat <= 1e-7):
            bad.append((label(problem, params), trace.status, feas, stat))
    assert bad == []
