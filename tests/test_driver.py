import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from noisy_sqp.driver import (
    BUDGET_EVALS,
    BUDGET_ITERS,
    DEGENERATE,
    EARLY_INFEASIBLE,
    EARLY_STATIONARY,
    LINE_SEARCH_FAILURE,
    NONFINITE,
    TEST_UNSATISFIABLE,
    TOL_FEAS,
    SolverParams,
    solve,
)
from noisy_sqp.harness import VariantSpec, best_iterate
from noisy_sqp.linalg import kkt_matrix, norm2, norm_inf
from noisy_sqp.noise import NoiseSpec, NoisyOracle, derive_gradient_noise
from noisy_sqp.merit import LAMBDA_U, SIGMA_R, SIGMA_U
from noisy_sqp.problems import ExactEvaluation, ProblemSpec, get_problem, parse_problem_json
from noisy_sqp.stepsize import MAX_BACKTRACKS
from noisy_sqp.steps import EXACT_FALLBACK, TT2_COND1
from noisy_sqp.verify import assert_trace_invariants, audit


def kkt_start_problem():
    # feasible exact-KKT start: c(x0) = 0 and g(x0) = 0
    A = np.array([[1.0, 1.0]])

    def ev(x):
        return ExactEvaluation(f=0.5 * float(x @ x), g=x.copy(), c=A @ x, J=A)

    return ProblemSpec("kkt-start", 2, 1, np.zeros(2), ev,
                       known_kkt=(np.zeros(2), np.zeros(1)))


def noise_for(eps_f, eps_c):
    eps_g, eps_J = derive_gradient_noise(eps_f, eps_c)
    return NoiseSpec(eps_f=eps_f, eps_g=eps_g, eps_c=eps_c, eps_J=eps_J)


class CountingOracle(NoisyOracle):
    """Independent tally used to cross-check the built-in counters."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.tally = {"value": 0, "derivative": 0}

    def sample(self, x, want="both"):
        if want in ("value", "both"):
            self.tally["value"] += 1
        if want in ("derivative", "both"):
            self.tally["derivative"] += 1
        return super().sample(x, want)


class TestZeroNoiseConvergence:
    @pytest.mark.parametrize("variant", ["adaptive", "line_search"])
    def test_quad_linear_reaches_kkt(self, variant):
        p = get_problem("quad-linear")
        params = SolverParams(
            NoiseSpec(), variant=variant, exactness="exact", max_iters=100)
        trace = solve(p, params, 0)
        best = min(trace.records,
                   key=lambda r: norm_inf(r.exact.c) + norm_inf(r.exact.g + r.exact.J.T @ np.zeros(p.m)))
        x_star, _ = p.known_kkt  # dense equality-QP oracle solution
        final = trace.records[-1].x
        alpha = trace.records[-1].alpha
        d = trace.records[-1].bundle.d if trace.records[-1].bundle is not None else 0.0
        x_end = final + alpha * d
        assert norm_inf(x_end - x_star) <= 1e-6
        assert len(trace.records) <= 100


class TestEarlyStationaryExit:
    def test_terminates_at_start_with_noise(self):
        p = kkt_start_problem()
        eps_c = 1e-2
        noise = noise_for(eps_c, eps_c)
        params = SolverParams(
            noise, variant="adaptive", optimism="optimistic", exactness="exact")
        trace = solve(p, params, 7)
        assert trace.status == EARLY_STATIONARY
        assert trace.records[-1].k == 0
        # exact feasibility within twice the constraint noise
        assert norm2(trace.records[-1].exact.c) <= 2 * eps_c

    def test_status_invariant(self):
        p = kkt_start_problem()
        noise = noise_for(1e-2, 1e-2)
        params = SolverParams(
            noise, variant="adaptive", optimism="optimistic", exactness="exact")
        trace = solve(p, params, 3)
        assert trace.status == EARLY_STATIONARY
        last = trace.records[-1]
        gate = max(trace.eps_o, TOL_FEAS)
        assert norm2(last.noisy.c_bar) <= gate
        assert last.delta_l <= trace.eps_o


class TestEarlyInfeasibleExit:
    def test_crafted_zero_jacobian_noise(self):
        eps_c = 1e-2
        eps_g, eps_J = derive_gradient_noise(eps_c, eps_c)
        a = 0.8 * eps_J * np.array([0.6, 0.8])

        def ev(x):
            return ExactEvaluation(f=0.5 * float(x @ x), g=x.copy(),
                                   c=np.array([a @ x + 0.5]), J=a.reshape(1, 2))

        p = ProblemSpec("tilted-plane", 2, 1, np.zeros(2), ev)
        noise = NoiseSpec(eps_f=eps_c, eps_g=eps_g, eps_c=eps_c, eps_J=eps_J)

        class ZeroJacobianOracle(NoisyOracle):
            def _perturbations(self, exact, want):
                e_f, e_g, e_c, e_J = super()._perturbations(exact, want)
                if want in ("derivative", "both"):
                    e_J = -exact.J  # within bounds: ||J||_F <= eps_J by construction
                return e_f, e_g, e_c, e_J

        params = SolverParams(
            noise, variant="adaptive", optimism="optimistic", exactness="exact")
        oracle = ZeroJacobianOracle(p, noise, np.random.default_rng(1))
        trace = solve(p, params, 1, oracle=oracle)
        assert trace.status == EARLY_INFEASIBLE
        ex = trace.records[-1].exact
        kappa_c = norm2(ex.c)
        kappa_J = float(np.linalg.norm(ex.J, 2))
        bound = kappa_c * eps_J + (kappa_J + eps_J) * eps_c
        assert norm2(ex.J.T @ ex.c) <= bound

    @pytest.mark.parametrize("variant", ["adaptive", "line_search"])
    def test_well_conditioned_jacobian_never_takes_the_exit(self, variant):
        # sigma_min(J) = 5e-3 > 1e-3 ||J||_F; at x0, J'c = (0, 1e-14, 0) is at round-off
        # and ||c|| = 2e-12 is above the branch gate, but ||J'c|| = 5e-3 ||c||
        J = np.array([[1.0, 0.0, 0.0], [0.0, 5e-3, 0.0]])

        def ev(x):
            return ExactEvaluation(f=float(x[2]), g=np.array([0.0, 0.0, 1.0]),
                                   c=J @ x + np.array([0.0, 2e-12]), J=J.copy())

        params = SolverParams(NoiseSpec(), variant=variant, max_iters=20)
        trace = solve(ProblemSpec("well-conditioned-3", 3, 2, np.zeros(3), ev), params, 0)
        assert trace.status == BUDGET_ITERS and len(trace.records) == 20
        assert trace.records[0].bundle is not None


class TestDegenerateDirection:
    def test_near_range_gradient_stops(self):
        # g barely outside Range(J') makes the exact tangential step tiny
        J = np.array([[1.0, 0.0]])

        def ev(x):
            return ExactEvaluation(f=x[0] + 1e-15 * x[1],
                                   g=np.array([1.0, 1e-15]),
                                   c=np.array([x[0]]), J=J)

        p = ProblemSpec("near-degenerate", 2, 1, np.zeros(2), ev)
        params = SolverParams(
            NoiseSpec(), variant="adaptive", optimism="pessimistic",
            exactness="exact", max_iters=10)
        trace = solve(p, params, 0)
        assert trace.status == DEGENERATE

    @pytest.mark.parametrize("variant", ["adaptive", "line_search"])
    def test_underflowing_step_is_degenerate(self, variant):
        # H = 1e170 I shrinks the tangential step to ||d||_inf = 1e-170, so
        # d'd underflows to 0 (adaptive used to divide by it); the round-off
        # step test stops it before any controller sees it
        A = np.array([[1.0, 0.0]])

        def ev(x):
            return ExactEvaluation(f=float(x[1]), g=np.array([0.0, 1.0]), c=A @ x, J=A)

        p = ProblemSpec("tiny-step", 2, 1, np.zeros(2), ev, H=1e170 * np.eye(2))
        params = SolverParams(
            NoiseSpec(), variant=variant, optimism="pessimistic", max_iters=5)
        trace = solve(p, params, 0)
        assert trace.status == DEGENERATE
        assert len(trace.records) == 1
        last = trace.records[-1]
        assert last.alpha == 0.0
        d = last.bundle.d
        assert norm_inf(d) > 0.0 and d @ d == 0.0
        assert assert_trace_invariants(trace, params) == []


class TestLoopMechanics:
    def test_iterate_update_identity(self):
        p = get_problem("unit-circle")
        noise = noise_for(1e-2, 1e-2)
        params = SolverParams(noise, variant="line_search",
                              max_iters=40)
        trace = solve(p, params, 5)
        recs = trace.records
        for prev, cur in zip(recs, recs[1:]):
            # bitwise: the recorded next iterate is exactly x + alpha d
            assert np.array_equal(cur.x, prev.x + prev.alpha * prev.bundle.d)

    def test_budget_iters(self):
        p = get_problem("unit-circle")
        noise = noise_for(1e-2, 1e-2)
        params = SolverParams(noise, variant="adaptive",
                              optimism="pessimistic", max_iters=15)
        trace = solve(p, params, 0)
        assert trace.status == BUDGET_ITERS
        assert len(trace.records) == 15

    def test_budget_evals_with_slack_of_one_iteration(self):
        p = get_problem("unit-circle")
        noise = noise_for(1e-2, 1e-2)
        params = SolverParams(
            noise, variant="line_search", optimism="pessimistic",
            max_iters=10000, max_weighted_evals=200)
        trace = solve(p, params, 0)
        assert trace.status == BUDGET_EVALS
        per_iter = 3 + MAX_BACKTRACKS + 1
        assert trace.counters.weighted_total <= 200 + per_iter

    def test_counters_match_instrumented_wrapper(self):
        p = get_problem("quad-ellipse")
        noise = noise_for(1e-2, 1e-2)
        params = SolverParams(noise, variant="line_search",
                              max_iters=30)
        oracle = CountingOracle(p, noise, np.random.default_rng(11))
        trace = solve(p, params, 11, oracle=oracle)
        assert trace.counters.function_evals == oracle.tally["value"]
        assert trace.counters.gradient_evals == oracle.tally["derivative"]
        assert trace.counters.weighted_total == (
            oracle.tally["value"] + 2 * oracle.tally["derivative"])

    def test_line_search_failure_status(self):
        # adversarial oracle: the merit increases at every trial point
        p = get_problem("unit-circle")
        noise = NoiseSpec(eps_f=1e-3, eps_g=1e-2, eps_c=1e-3, eps_J=1e-2)

        class HostileOracle(NoisyOracle):
            def sample(self, x, want="both"):
                out = super().sample(x, want)
                if want == "value":  # line search trials only
                    out = type(out)(out.f_bar + 1e6, out.g_bar, out.c_bar, out.J_bar)
                return out

        params = SolverParams(noise, variant="line_search",
                              optimism="pessimistic", max_iters=5)
        oracle = HostileOracle(p, noise, np.random.default_rng(0))
        trace = solve(p, params, 0, oracle=oracle)
        assert trace.status == LINE_SEARCH_FAILURE

    def test_tau_history_non_increasing(self):
        p = get_problem("circle-shifted")
        noise = noise_for(1e-2, 1e-2)
        for variant in ("adaptive", "line_search"):
            params = SolverParams(noise, variant=variant, max_iters=60)
            trace = solve(p, params, 2)
            taus = [t for _, t in trace.tau_history]
            assert all(b <= a + 1e-15 for a, b in zip(taus, taus[1:]))

    def test_never_panics_on_awkward_problems(self):
        # algorithmic outcomes surface as statuses, never exceptions, even
        # for infeasible or rank-deficient random quadratics
        import json

        from noisy_sqp.problems import parse_problem_json

        valid = {BUDGET_ITERS, BUDGET_EVALS, EARLY_STATIONARY, EARLY_INFEASIBLE,
                 DEGENERATE, LINE_SEARCH_FAILURE, "test_unsatisfiable"}
        rng = np.random.default_rng(99)
        for trial in range(6):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n))
            Q = rng.standard_normal((n, n))
            Q = Q @ Q.T / n + 0.2 * np.eye(n)
            A = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            if trial % 2 == 0 and m >= 2:
                A[m - 1] = A[m - 2]
                b[m - 1] = b[m - 2] + 1.0  # infeasible
            p = parse_problem_json(json.dumps({
                "name": f"fuzz{trial}", "Q": Q.tolist(),
                "q": rng.standard_normal(n).tolist(), "A": A.tolist(),
                "b": b.tolist(), "x0": rng.standard_normal(n).tolist()}))
            for variant in ("adaptive", "line_search"):
                params = SolverParams(
                    noise_for(1e-2, 1e-2), variant=variant, max_iters=40,
                    max_weighted_evals=600)
                trace = solve(p, params, trial)
                assert trace.status in valid

    def test_tau_unchanged_on_tt1_and_case2(self):
        p = get_problem("circle-shifted")
        noise = noise_for(1e-2, 1e-2)
        params = SolverParams(noise, variant="adaptive", max_iters=60)
        trace = solve(p, params, 4)
        for rec in trace.records:
            if rec.bundle is None:
                continue
            test = rec.bundle.fallback_case or rec.bundle.test
            if test in ("TT1", "TT2_case2"):
                assert rec.tau == rec.tau_prev

    def test_feasible_branch_model_reduction_lower_bound(self):
        # iterations on the feasible branch without early termination obey
        # delta_l >= tau sigma_u lambda_u / 2 * ||d||^2
        p = kkt_start_problem()
        noise = noise_for(1e-4, 1e-2)  # loose eps_o, tight objective noise
        params = SolverParams(
            noise, variant="adaptive", optimism="optimistic", max_iters=50)
        trace = solve(p, params, 13)
        for rec in trace.records:
            if rec.branch != "feasible_branch" or rec.alpha == 0.0:
                continue
            dd = float(rec.bundle.d @ rec.bundle.d)
            assert rec.delta_l >= rec.tau * SIGMA_U * LAMBDA_U / 2 * dd - 1e-10


def circle_problem(name, f=None, g=None, J=None):
    """unit-circle with optional replacements of f, its gradient and the Jacobian."""
    def ev(x):
        return ExactEvaluation(
            f=x[0] + x[1] if f is None else f(x),
            g=np.array([1.0, 1.0]) if g is None else g(x),
            c=np.array([x[0] ** 2 + x[1] ** 2 - 1.0]),
            J=np.array([[2.0 * x[0], 2.0 * x[1]]]) if J is None else J(x))
    return ProblemSpec(name, 2, 1, np.array([0.9, -0.3]), ev)


def inf_jacobian_problem():
    # every sample's constraint and Jacobian hold an Inf
    def ev(x):
        return ExactEvaluation(float(x @ x), 2 * x, np.array([np.inf]),
                               np.array([[np.inf, 0.0]]))
    return ProblemSpec("inf-J", 2, 1, np.array([1.0, 1.0]), ev)


class TestNonFiniteEvaluation:
    """A NaN or Inf from the problem ends the run with a status, never an
    exception, and the trace stays auditable."""

    def nan_gradient_problem(self):
        # the gradient turns NaN once the iterates move past x[0] = 0.5
        return circle_problem(
            "nan-gradient",
            g=lambda x: np.array([1.0, 1.0]) if x[0] >= 0.5 else np.array([np.nan, 1.0]))

    def run(self, problem, variant):
        params = SolverParams(noise_for(1e-3, 1e-2), variant=variant)
        trace = solve(problem, params, 0)
        assert trace.status == NONFINITE
        assert assert_trace_invariants(trace, params) == []
        last = trace.records[-1]
        assert last.alpha == 0.0
        for rec in trace.records[:-1]:
            assert rec.alpha > 0.0
            assert np.isfinite(rec.noisy.g_bar).all() and np.isfinite(rec.noisy.f_bar)
        best_iterate(trace, 1e-2, 1e-3)  # the terminal record does not break selection
        return trace, last

    @pytest.mark.parametrize("variant", ["adaptive", "line_search"])
    def test_nan_gradient_sample_ends_the_run(self, variant):
        trace, last = self.run(self.nan_gradient_problem(), variant)
        assert last.bundle is None
        assert np.isnan(last.noisy.g_bar[0])
        assert last.x[0] < 0.5

    def test_inf_jacobian_sample_ends_the_run(self):
        problem = circle_problem(
            "inf-jacobian",
            J=lambda x: np.array([[2.0 * x[0], 2.0 * x[1] if x[0] >= 0.5 else np.inf]]))
        trace, last = self.run(problem, "adaptive")
        assert np.isinf(last.noisy.J_bar[0, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("part", ["f", "g", "c", "J"])
    def test_nonfinite_sample_ends_the_run(self, part, bad):
        # one entry of f, g, c or J turns bad once x[0] < 0.5; after its start-up
        # the adaptive controller samples nothing but its iterates, so the sample
        # rule (finite f, ||g||, ||c|| and J) is what stops the run
        def ev(x):
            e = {"f": x[0] + x[1], "g": np.array([1.0, 1.0]), "c": np.array([x @ x - 1.0]),
                 "J": np.array([[2.0 * x[0], 2.0 * x[1]]])}
            if x[0] < 0.5 and part == "f":
                e["f"] = bad
            elif x[0] < 0.5:
                e[part].flat[-1] = bad
            return ExactEvaluation(**e)

        problem = ProblemSpec(f"{part}-turns-{bad}", 2, 1, np.array([0.9, -0.3]), ev)
        trace, last = self.run(problem, "adaptive")
        assert last.bundle is None and last.x[0] < 0.5
        assert all(r.x[0] >= 0.5 for r in trace.records[:-1])
        sample = {"f": last.noisy.f_bar, "g": last.noisy.g_bar[-1],
                  "c": last.noisy.c_bar[-1], "J": last.noisy.J_bar[0, -1]}[part]
        assert np.isnan(sample) if np.isnan(bad) else sample == bad

    @pytest.mark.parametrize("eps", [0.0, 1e-2])
    @pytest.mark.parametrize("problem, variant, records", [
        (inf_jacobian_problem(), "adaptive", 0),
        (inf_jacobian_problem(), "line_search", 1),
        # finite gradient samples ~1e305 apart: their difference quotient overflows
        (circle_problem("huge-gradient", g=lambda x: 1e307 * x), "adaptive", 0),
    ], ids=["inf-J-adaptive", "inf-J-line_search", "huge-gradient-adaptive"])
    def test_nonfinite_start_up(self, problem, variant, records, eps):
        # the adaptive start-up differences derivative samples before any record
        params = SolverParams(noise_for(eps, eps), variant=variant)
        trace = solve(problem, params, 0)
        assert (trace.status, len(trace.records)) == (NONFINITE, records)
        assert assert_trace_invariants(trace, params) == []
        if records:
            _, feas, stat, _, y_inf = best_iterate(trace, eps, eps)
            assert np.isinf(feas) and np.isnan(stat) and np.isnan(y_inf)

    def test_nan_trial_merit_ends_the_line_search(self):
        # the objective is NaN left of x[0] = 0; the first trial point gets there
        problem = circle_problem("nan-objective",
                                 f=lambda x: x[0] + x[1] if x[0] >= 0.0 else np.nan)
        trace, last = self.run(problem, "line_search")
        assert last.bundle is not None
        assert last.phi_accept is None
        assert last.backtracks == 0
        assert np.isfinite(last.phi0)

    def test_nan_objective_sample_stops_adaptive(self):
        # the adaptive controller never reads f; the sample check still does
        problem = circle_problem("nan-objective",
                                 f=lambda x: x[0] + x[1] if x[0] >= 0.0 else np.nan)
        trace, last = self.run(problem, "adaptive")
        assert np.isnan(last.noisy.f_bar)

    # the overflowing norms are formed without a numpy warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eps", [0.0, 1e-2])
    @pytest.mark.parametrize("variant", ["adaptive", "line_search"])
    @pytest.mark.parametrize("f_scale, c_scale", [(1e200, 1.0), (1.0, 1e200)], ids=["f", "c"])
    def test_overflowing_norm_ends_the_run(self, f_scale, c_scale, variant, eps):
        # min x3 s.t. x1 + x2 = 1 with f or c scaled by 1e200: every entry is
        # finite, but ||g|| or ||c|| overflows, so there is no round-off scale
        A = np.array([[1.0, 1.0, 0.0]])

        def ev(x):
            return ExactEvaluation(f=f_scale * x[2], g=np.array([0.0, 0.0, f_scale]),
                                   c=c_scale * (A @ x - 1.0), J=c_scale * A)

        problem = ProblemSpec("scaled-line-3", 3, 1, np.zeros(3), ev)
        params = SolverParams(noise_for(eps, eps), variant=variant)
        trace = solve(problem, params, 0)
        assert trace.status == NONFINITE
        [last] = trace.records
        assert last.alpha == 0.0 and last.bundle is None
        assert np.isfinite(last.noisy.g_bar).all() and np.isfinite(last.noisy.c_bar).all()
        assert assert_trace_invariants(trace, params) == []


def same_evaluation(a, b):
    return (a.f == b.f and a.g.tobytes() == b.g.tobytes()
            and a.c.tobytes() == b.c.tobytes() and a.J.tobytes() == b.J.tobytes())


class TestExactSnapshots:
    """Where each record's ground-truth snapshot comes from."""

    def _count_driver_evaluate(self, monkeypatch):
        from noisy_sqp import driver
        calls = []
        evaluate = driver.evaluate

        def counted(problem, x):
            calls.append(x)
            return evaluate(problem, x)

        monkeypatch.setattr(driver, "evaluate", counted)
        return calls

    @pytest.mark.parametrize("variant", ["adaptive", "line_search"])
    def test_default_oracle_snapshot_equals_fresh_evaluation(self, variant, monkeypatch):
        from noisy_sqp.problems import duplicate_last_constraint, evaluate
        calls = self._count_driver_evaluate(monkeypatch)
        p = duplicate_last_constraint(get_problem("quad-ellipse"))
        params = SolverParams(
            noise_for(1e-2, 1e-2), variant=variant, optimism="pessimistic", max_iters=80)
        trace = solve(p, params, 4)
        assert len(trace.records) == 80
        for rec in trace.records:
            assert same_evaluation(rec.exact, evaluate(p, rec.x))
        assert calls == []  # taken from the oracle's own evaluation

    def test_caller_oracle_snapshot_is_evaluated_by_the_driver(self, monkeypatch):
        from noisy_sqp.problems import evaluate
        calls = self._count_driver_evaluate(monkeypatch)
        p = get_problem("unit-circle")
        noise = noise_for(1e-2, 1e-2)
        params = SolverParams(noise, variant="line_search",
                              optimism="pessimistic", max_iters=40)
        oracle = CountingOracle(p, noise, np.random.default_rng(2))
        trace = solve(p, params, 2, oracle=oracle)
        assert len(calls) == len(trace.records) == 40
        for rec, x in zip(trace.records, calls):
            assert x.tobytes() == rec.x.tobytes()  # the record keeps a copy of x
            assert same_evaluation(rec.exact, evaluate(p, rec.x))

    @pytest.mark.parametrize("variant", ["adaptive", "line_search"])
    def test_nan_snapshots_never_feed_the_solver(self, variant, monkeypatch):
        from noisy_sqp import driver
        p = get_problem("unit-circle")
        noise = noise_for(1e-2, 1e-2)
        params = SolverParams(noise, variant=variant,
                              optimism="pessimistic", max_iters=25)

        def run():
            oracle = NoisyOracle(p, noise, np.random.default_rng(9))
            return solve(p, params, 9, oracle=oracle)

        reference = run()

        def nan_snapshot(problem, x):
            n, m = problem.n, problem.m
            return ExactEvaluation(f=np.nan, g=np.full(n, np.nan), c=np.full(m, np.nan),
                                   J=np.full((m, n), np.nan))

        monkeypatch.setattr(driver, "evaluate", nan_snapshot)
        patched = run()
        assert all(np.isnan(rec.exact.f) for rec in patched.records)
        assert patched.status == reference.status
        assert len(patched.records) == len(reference.records) == 25
        for a, b in zip(reference.records, patched.records):
            assert a.x.tobytes() == b.x.tobytes()
            assert a.alpha.hex() == b.alpha.hex()

    # (problem, optimism, eps, seed) -> (status, records, function and gradient
    # evaluations), recorded before the oracle reused exact evaluations
    LINE_SEARCH_RUNS = {
        ("quad-ellipse+dup", "pessimistic", 1e-2, 4): (BUDGET_ITERS, 80, (261, 80)),
        ("unit-circle", "optimistic", 1e-4, 1): (EARLY_STATIONARY, 12, (23, 12)),
        ("rosenbrock-sphere-4", "pessimistic", 1e-2, 2): (BUDGET_ITERS, 80, (160, 80)),
    }

    @pytest.mark.parametrize("run", sorted(LINE_SEARCH_RUNS))
    def test_line_search_reuses_the_accepted_trial_evaluation(self, run, monkeypatch):
        from noisy_sqp import noise
        from noisy_sqp.problems import duplicate_last_constraint
        name, optimism, eps, seed = run
        p = get_problem(name.removesuffix("+dup"))
        if name.endswith("+dup"):
            p = duplicate_last_constraint(p)
        evaluated = []
        evaluate = noise.evaluate

        def counted(problem, x):
            evaluated.append(x.tobytes())
            return evaluate(problem, x)

        monkeypatch.setattr(noise, "evaluate", counted)
        params = SolverParams(
            noise_for(eps, eps), variant="line_search", optimism=optimism, max_iters=80)
        trace = solve(p, params, seed)
        monkeypatch.undo()
        status, n_records, counts = self.LINE_SEARCH_RUNS[run]
        assert (trace.status, len(trace.records), trace.counters.snapshot()) == (
            status, n_records, counts)
        for rec in trace.records:
            assert same_evaluation(rec.exact, evaluate(p, rec.x))
        # each iterate after an accepted trial is that trial's point, which is
        # not evaluated again; no point is evaluated twice in a row
        accepted = [rec for rec in trace.records if rec.alpha > 0.0]
        samples = counts[0]  # every line-search sample requests the value
        assert samples == len(evaluated) + len(accepted) - (trace.records[-1].alpha > 0.0)
        assert all(a != b for a, b in zip(evaluated, evaluated[1:]))

    def test_delta_l_is_the_model_reduction_at_the_final_tau(self):
        p = get_problem("quad-linear-10")
        for variant in ("adaptive", "line_search"):
            params = SolverParams(
                noise_for(1e-2, 1e-2), variant=variant, optimism="pessimistic",
                max_iters=120)
            trace = solve(p, params, 5)
            for rec in trace.records:
                g, c, J, d = rec.noisy.g_bar, rec.noisy.c_bar, rec.noisy.J_bar, rec.bundle.d
                fresh = -rec.tau * float(g.dot(d)) + norm2(c) - norm2(c + J.dot(d))
                assert rec.delta_l.hex() == fresh.hex()


class TestEpsO:
    def test_optimistic_runs_gate_at_eps_c_and_pessimistic_runs_at_zero(self):
        # eps_f != eps_c, so a gate read from eps_f shows
        p = get_problem("unit-circle")
        noise = NoiseSpec(eps_f=1e-4, eps_c=1e-2)
        for optimism, expected in (("optimistic", 1e-2), ("pessimistic", 0.0)):
            params = SolverParams(noise, optimism=optimism, max_iters=3)
            assert solve(p, params, 0).eps_o == expected


class TestParamsValidation:
    def test_misspelled_setting_raises(self):
        with pytest.raises(TypeError, match="max_iter"):
            SolverParams(NoiseSpec(), max_iter=5)

    @pytest.mark.parametrize("name", ["max_iters", "max_weighted_evals"])
    def test_nan_setting_is_rejected(self, name):
        with pytest.raises(ValueError, match="must be"):
            SolverParams(NoiseSpec(), **{name: float("nan")})

    @pytest.mark.parametrize("setting", [dict(kappa=float("nan")), dict(kappa=-1.0),
                                         dict(kappa=float("inf")), dict(kappa=0.0),
                                         dict(kappa="abc"), dict(kappa=None), dict(noise=None)])
    def test_bad_tolerance_or_kappa_is_rejected(self, setting):
        with pytest.raises(ValueError, match=f"{next(iter(setting))} must be"):
            SolverParams(**setting)

    @pytest.mark.parametrize("name", ["kappa_u", "kappa_v", "H", "tol_d", "tol_feas", "tests",
                                      "adaptive", "ls", "tau0", "sigma_tau"])
    @pytest.mark.parametrize("make", [SolverParams])
    def test_removed_setting_raises(self, make, name):
        with pytest.raises(TypeError, match=f"'{name}'"):
            make(noise=NoiseSpec(), **{name: 1e-2})

    @pytest.mark.parametrize("budget", [20.5, "20", None])
    def test_non_integer_budget_is_rejected(self, budget):
        with pytest.raises(ValueError, match="max_iters must be"):
            SolverParams(max_iters=budget)


# one out-of-range value per numeric setting, written here rather than read from
# the declared ranges; NaN, +-inf and True are tried on every such field as well
OUT_OF_RANGE = {
    NoiseSpec: dict(eps_f=-1e-3, eps_g=-1.0, eps_c=-1e-3, eps_J=-1.0),
    SolverParams: dict(kappa=0.0, max_iters=0, max_weighted_evals=0),
    VariantSpec: dict(kappa=-1.0),
}


@pytest.mark.parametrize("cls", list(OUT_OF_RANGE), ids=lambda cls: cls.__name__)
def test_every_numeric_setting_is_checked_at_construction(cls):
    numeric = [f.name for f in dataclasses.fields(cls) if f.type in ("int", "float", int, float)]
    assert numeric
    assert not set(numeric) - set(OUT_OF_RANGE[cls]), "a numeric field has no test value"
    for name in numeric:
        for bad in (math.nan, math.inf, -math.inf, True, OUT_OF_RANGE[cls][name]):
            with pytest.raises(ValueError, match=f"^{name} must be "):
                cls(**{name: bad})


@pytest.mark.parametrize("cls", list(OUT_OF_RANGE), ids=lambda cls: cls.__name__)
def test_built_settings_are_read_only(cls):
    built = cls()
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, f.name, getattr(built, f.name))


class TestCurvatureMatrix:
    """H must be a finite symmetric n x n matrix; one singular on null(J)
    ends the run when the dense fallback cannot solve with it."""

    @staticmethod
    def line_problem(H):
        # min x3 s.t. x1 + x2 = 1: null(J) holds e3, so H must curve along it
        A = np.array([[1.0, 1.0, 0.0]])

        def ev(x):
            return ExactEvaluation(f=float(x[2]), g=np.array([0.0, 0.0, 1.0]),
                                   c=A @ x - 1.0, J=A.copy())

        return ProblemSpec("line-3", 3, 1, np.zeros(3), ev, H=H)

    def check_one_bundle_less_record(self, variant, H):
        # J has full rank and K = [[H, J'], [J, 0]] is singular, so the dense solve raises
        params = SolverParams(NoiseSpec(), variant=variant, max_iters=50)
        trace = solve(self.line_problem(H), params, 0)
        assert trace.status == TEST_UNSATISFIABLE and len(trace.records) == 1
        last = trace.records[-1]
        assert last.alpha == 0.0 and last.bundle is None
        assert assert_trace_invariants(trace, params) == []

    @pytest.mark.parametrize("variant", ["adaptive", "line_search"])
    @pytest.mark.parametrize("H", [np.zeros((3, 3)), np.diag([1.0, 1.0, 0.0])],
                             ids=["zero", "singular-on-null-J"])
    def test_singular_dense_fallback_is_test_unsatisfiable(self, variant, H):
        self.check_one_bundle_less_record(variant, H)

    @pytest.mark.parametrize("variant", ["adaptive", "line_search"])
    def test_indefinite_dense_fallback_is_unsatisfiable(self, variant):
        # a ridge on K's (2,2) block would make K solvable, with |y| ~ 1e12
        H = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        self.check_one_bundle_less_record(variant, H)

    @pytest.mark.parametrize("variant", ["adaptive", "line_search"])
    @pytest.mark.parametrize("H", [np.full((3, 3), np.nan), np.diag([1.0, np.inf, 1.0]),
                                   np.triu(np.ones((3, 3))), np.eye(2)],
                             ids=["nan", "inf", "asymmetric", "wrong-shape"])
    def test_invalid_H_is_rejected_at_entry(self, variant, H):
        params = SolverParams(NoiseSpec(), variant=variant, max_iters=50)
        with pytest.raises(ValueError, match="H must be a finite symmetric 3 x 3"):
            solve(self.line_problem(H), params, 0)

    @pytest.mark.parametrize("variant", ["adaptive", "line_search"])
    def test_overflowing_step_is_nonfinite_evaluation(self, variant):
        # finite and symmetric, so accepted at entry, but the step overflows
        params = SolverParams(noise_for(1e-2, 1e-2), variant=variant)
        trace = solve(self.line_problem(1e300 * np.eye(3)), params, 0)
        assert trace.status == NONFINITE
        last = trace.records[-1]
        assert last.alpha == 0.0 and last.bundle is not None
        assert not np.isfinite(last.bundle.d).all()
        assert all(np.isfinite(r.x).all() for r in trace.records)
        assert assert_trace_invariants(trace, params) == []

    def test_adaptive_step_size_is_capped_at_one(self):
        # tau collapses at k = 0, which lifts the safeguard interval above 1
        params = SolverParams(NoiseSpec(), variant="adaptive")
        trace = solve(self.line_problem(1e300 * np.eye(3)), params, 0)
        assert trace.status == EARLY_STATIONARY
        first = trace.records[0]
        assert first.alpha == 1.0 < first.alpha_min
        assert all(r.alpha <= 1.0 for r in trace.records)
        assert assert_trace_invariants(trace, params) == []


STATUSES = {BUDGET_ITERS, BUDGET_EVALS, EARLY_STATIONARY, EARLY_INFEASIBLE, DEGENERATE,
            TEST_UNSATISFIABLE, LINE_SEARCH_FAILURE, NONFINITE}

ENTRIES = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)

# a valid problem file whose Gram matrices J J' overflow: 1e400 > the largest double
BIG_ROWS = {"name": "big-rows", "Q": np.eye(4).tolist(), "q": [0, 0, 0, 0],
            "A": [[1e200, 2e200, 0, 0], [0, 1e200, 1e200, 0], [0, 0, 1e200, 3e200]],
            "b": [1e200, 0, 0], "x0": [0.5, 0.5, 0.5, 0.5]}

# the rows of an explicit hostile example whose H = A'A / 10 is singular on null(A)
A_2x3 = np.array([[-1.9, -1.3, 1.0], [-1.7, -0.7, -1.0]])


def exponents(low, high):
    # half the draws near unit scale, where runs take many steps
    return st.one_of(st.integers(-3, 3), st.integers(low, high))


def scaled_problem(A, b, q, x0, H, sphere=False, f_scale=1.0, c_scale=1.0):
    """min f_scale (x'x / 2 + q'x) s.t. c_scale (Ax - b) = 0, with the first row
    c_scale (x'x - 1) instead when ``sphere``; the curvature matrix is (H + H') / 2."""
    A, b, q, x0, H = (np.array(v, dtype=float) for v in (A, b, q, x0, H))
    H = 0.5 * (H + H.T)  # symmetric bit for bit

    def ev(x):
        c, J = c_scale * (A @ x - b), c_scale * A
        if sphere:
            c[0], J[0] = c_scale * (x @ x - 1.0), c_scale * 2.0 * x
        return ExactEvaluation(f_scale * (0.5 * float(x @ x) + float(q @ x)),
                               f_scale * (x + q), c, J)

    return ProblemSpec("scaled", x0.size, b.size, x0, ev, H=H)


@st.composite
def hostile_problems(draw):
    """`scaled_problem` with f_scale and c_scale from 1e-200 to 1e300 and an H
    that is SPD, indefinite or singular on null(A), scaled from 1e-300 to 1e300."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, n - 1))
    A = draw(arrays(float, (m, n), elements=ENTRIES))
    b = draw(arrays(float, m, elements=ENTRIES))
    q = draw(arrays(float, n, elements=ENTRIES))
    x0 = draw(arrays(float, n, elements=ENTRIES))
    B = draw(arrays(float, (n, n), elements=ENTRIES))
    kind = draw(st.sampled_from(["spd", "indefinite", "singular-on-null-J"]))
    H = {"spd": B.T @ B + np.eye(n), "indefinite": B + B.T, "singular-on-null-J": A.T @ A}[kind]
    H = 10.0 ** draw(exponents(-300, 300)) * H
    f_scale, c_scale = (10.0 ** draw(exponents(-200, 300)) for _ in range(2))
    return scaled_problem(A, b, q, x0, H, draw(st.booleans()), f_scale, c_scale)


def hostile_runs(problem):
    """Both controllers and both exactness modes at eps 0 and 1e-2, 40 iterations each."""
    for variant in ("adaptive", "line_search"):
        for exactness in ("exact", "inexact"):
            for eps in (0.0, 1e-2):
                params = SolverParams(
                    noise_for(eps, eps), variant=variant, exactness=exactness, max_iters=40)
                yield params, eps, solve(problem, params, 0)


FALLBACK_RESIDUAL = "fallback residual not at round-off level"


def beyond_fallback_round_off(trace, params):
    """The audit's failing conditions (``params`` as `assert_trace_invariants`
    takes it), less FALLBACK_RESIDUAL where that residual of the saddle system
    K z = rhs lies above the audit's LU bound 1e-9 + 1e-13 (n + m) max|K| max|z|
    but within the looser 1e-9 (1 + (n + m) max|K| max|z|)."""
    left = []
    for condition in audit(trace):
        if condition.held:
            continue
        if condition.name == FALLBACK_RESIDUAL:
            record = trace.records[condition.k]
            b = record.bundle
            K = kkt_matrix(trace.H, record.noisy.J_bar)
            scale = K.shape[0] * norm_inf(K) * norm_inf(np.concatenate((b.u, b.y)))
            if max(norm_inf(b.rho), norm_inf(b.r)) <= 1e-9 * (1.0 + scale):
                continue
        left.append(condition)
    return left


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(problem=hostile_problems())
@example(problem=inf_jacobian_problem())
@example(problem=parse_problem_json(json.dumps(BIG_ROWS)))
@example(problem=scaled_problem(  # H = A'A / 10 is singular on null(A)
    A_2x3, [1.0, -0.6], [-1.7, -0.5, -0.7], [0.9, -0.7, 0.8], 0.1 * A_2x3.T @ A_2x3,
    f_scale=1e7, c_scale=10.0))
def test_hostile_problem_ends_in_a_status_without_a_warning(problem):
    # pyproject.toml turns any RuntimeWarning into a failure
    for params, eps, trace in hostile_runs(problem):
        assert trace.status in STATUSES
        if trace.records:
            best_iterate(trace, eps, eps)
        assert beyond_fallback_round_off(trace, params) == []


# J ~ 1e7 against H ~ 1 (cond(K) ~ 1e8): dense residuals of 0.5, far above
# 1e-9 max|g + Hv|, are LU round-off of max|K| max|z| ~ 5e15
ILL_CONDITIONED_KKT = scaled_problem(
    [[-0.8, 1.3, -1.6]], [0.4], [0.9, -1.2, -1.8], [-0.9, 0.6, 0.2],
    [[0.354, -0.001, -0.246], [-0.001, 0.15, 0.126], [-0.246, 0.126, 0.679]],
    f_scale=1e8, c_scale=1e7)


def test_fallback_audit_allows_round_off_of_an_ill_conditioned_saddle_system():
    assert [assert_trace_invariants(trace, params)
            for params, _, trace in hostile_runs(ILL_CONDITIONED_KKT)] == [[]] * 8


def test_fallback_audit_flags_a_solution_off_by_a_thousandth():
    # u and y scaled by 1 + 1e-3, with the residuals they leave (~1e5): within
    # 1e-9 (n + m) max|K| max|z| ~ 2e7, but not within the audit's 1e-13 one
    flagged = 0
    for _, _, trace in hostile_runs(ILL_CONDITIONED_KKT):
        for record in trace.records:
            b = record.bundle
            if b is None or b.test != EXACT_FALLBACK:
                continue
            J = record.noisy.J_bar
            b.z[...] *= 1 + 1e-3  # u and y
            b.rho[...] = trace.H @ b.d + J.T @ b.y + record.noisy.g_bar
            b.r[...] = J @ b.u
            assert any(c.k == record.k and c.name == FALLBACK_RESIDUAL and not c.held
                       for c in audit(trace))
            flagged += 1
            break
    assert flagged == 8  # every run takes a dense fallback


# ||g|| ~ 1e9 and ||c|| ~ 0.1
LARGE_GRADIENT = scaled_problem(
    [[1.8, -1.1, -1.2], [1.4, -0.7, 0.7]], [0.4, -0.4], [0.8, 0.7, 1.9], [1.6, 0.8, -0.6],
    [[2.82, 0.7, 3.77], [0.7, 6.93, 0.34], [3.77, 0.34, 9.33]], f_scale=1e8, c_scale=0.1)


@pytest.mark.xfail(strict=True, reason="TT2's round-off slack grows with ||g||; the audit's does not")
@pytest.mark.parametrize("exactness", ["exact", "inexact"])
def test_tt2_slack_at_a_large_gradient_passes_the_audit(exactness):
    # the slack 1e-13 ||g|| admits a TT2 step whose residual decrease the audit,
    # with slack 1e-9, rejects
    params = SolverParams(
        noise_for(0.0, 0.0), variant="adaptive", exactness=exactness, max_iters=40)
    assert assert_trace_invariants(solve(LARGE_GRADIENT, params, 0), params) == []


@pytest.mark.parametrize("exactness", ["exact", "inexact"])
def test_large_gradient_run_misses_the_residual_decrease_by_3e_9(exactness):
    # what the xfail above sees first, pinned as measured: at k = 3 a dense fallback
    # behind TT2_cond1 decreases ||c|| by dec_v along v, and ||c|| - ||c + Jv + r||
    # falls short of SIGMA_R dec_v by a few times the audit's slack 1e-9.  The
    # figures depend on the BLAS kernel: dec_v 5.07e-9 and a miss of 2.97e-9 under
    # OpenBLAS SkylakeX, 1.05e-8 and 5.9e-9 (Haswell) or 9.3e-9 (Prescott); only
    # under SkylakeX does a TT2 case-2 record fail later, at k = 9
    params = SolverParams(
        noise_for(0.0, 0.0), variant="adaptive", exactness=exactness, max_iters=40)
    trace = solve(LARGE_GRADIENT, params, 0)
    broken = [c for c in audit(trace) if not c.held]
    assert (broken[0].k, broken[0].name) == (3, "TT2 residual-decrease condition fails on recheck")
    b = trace.records[3].bundle
    assert (b.test, b.fallback_case) == (EXACT_FALLBACK, TT2_COND1)
    decrease = broken[0]  # kept negated: lhs = -(||c|| - ||c + Jv + r||), rhs = -SIGMA_R dec_v
    assert 5e-9 < -decrease.rhs / SIGMA_R < 1.1e-8
    assert decrease.slack == 1e-9
    assert decrease.slack < decrease.lhs - decrease.rhs < 10 * decrease.slack


# two hostile draws with f and c scaled decades apart; their eps-1e-2 runs end
# after one record, each accepted by a test the audit rejects on recheck
R1 = scaled_problem([[7.667067453837444e-260, 1.079231692206859, -0.766507672109128],
                     [5.960464477539063e-08, -0.7579422640143105, -1.2675608498370616]],
                    [2.2250738585072014e-308, -1.0817204922764831],
                    [1.175494351e-38, -0.4395958468245138, -1.5507788955920097],
                    [7.902974612759817e-237] * 3,
                    [[0.057165912386411374, -0.013875254357775344, -0.01183843663729603],
                     [-0.013875254357775344, 0.02925265340043911, 0.016426460481655886],
                     [-0.01183843663729603, 0.016426460481655886, 0.05317321539313774]],
                    f_scale=100.0, c_scale=1e70)
R2 = scaled_problem([[1.9341077737928165, -0.6022687477275512, 1.7272840886896583,
                      0.06210571594761349]],
                    [3.885604276298116e-180],
                    [0.6624801161413774, -1.9999999999999998, 0.7075815058917043,
                     0.6204285036263282],
                    [1.2567302920836871, 1e-15, 0.99, 1.7021327245206583],
                    [[0.0037407728806458044, -0.0011648526668923216, 0.003340753583483309,
                      0.00012011914801124777],
                     [-0.0011648526668923216, 0.0003627276444893128, -0.001040289225064845,
                      -3.740433177049219e-05],
                     [0.003340753583483309, -0.001040289225064845, 0.0029835103230404637,
                      0.00010727421497299235],
                     [0.00012011914801124777, -3.740433177049219e-05, 0.00010727421497299235,
                      3.857119953365653e-06]],
                    sphere=True, f_scale=1e-177, c_scale=1e38)


@pytest.mark.xfail(strict=True, reason="the solver's slack 1e-13 max(1, ||g||, ||c||) "
                                       "dwarfs the round-off of the terms it compares")
@pytest.mark.parametrize("problem", [R1, R2], ids=["R1", "R2"])
def test_slack_with_f_and_c_scaled_apart_passes_the_audit(problem):
    # R1 (c ~ 1e70, f ~ 1e2): all four eps-1e-2 runs flag "TT2 case-2 model
    # reduction fails on recheck"; R2 (f ~ 1e-177, c ~ 1e38): both adaptive
    # eps-1e-2 runs flag "TT2 dominance/curvature condition fails on recheck"
    assert [assert_trace_invariants(trace, params)
            for params, _, trace in hostile_runs(problem)] == [[]] * 8


def test_r2_fails_only_dominance_curvature_at_its_first_record():
    # what the xfail above sees of R2, pinned as measured: each adaptive eps-1e-2 run
    # breaks one condition, the curvature half of TT2 dominance/curvature at k = 0,
    # where u'Hu, a sum of cancelling terms whose value (|u'Hu| up to ~1e15) the
    # BLAS kernel sets, falls short of LAMBDA_U u'u by 3.5e25 (OpenBLAS SkylakeX)
    # or 4.0e25 (Haswell, Prescott); the dense fallback's residual condition holds
    # there, and the other six runs are clean
    for params, eps, trace in hostile_runs(R2):
        conditions = audit(trace)
        broken = [c for c in conditions if not c.held]
        if params.variant == "line_search" or eps == 0.0:
            assert broken == []
            continue
        assert [(c.k, c.name) for c in broken] == [
            (0, "TT2 dominance/curvature condition fails on recheck")]
        assert 3e25 < broken[0].lhs - broken[0].rhs < 5e25
        assert [c.held for c in conditions if c.name == FALLBACK_RESIDUAL] == [True]
