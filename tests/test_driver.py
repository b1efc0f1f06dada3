import dataclasses
import math

import numpy as np
import pytest

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
from noisy_sqp.linalg import norm2, norm_inf
from noisy_sqp.noise import NoiseSpec, NoisyOracle, derive_gradient_noise
from noisy_sqp.problems import ExactEvaluation, ProblemSpec, registry_by_name
from noisy_sqp.steps import TestParams
from noisy_sqp.stepsize import AdaptiveSeeds, LineSearchParams
from noisy_sqp.verify import assert_trace_invariants


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
        p = registry_by_name()["quad-linear"]
        params = SolverParams.benchmark_defaults(
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
        params = SolverParams.benchmark_defaults(
            noise, variant="adaptive", optimism="optimistic", exactness="exact")
        trace = solve(p, params, 7)
        assert trace.status == EARLY_STATIONARY
        assert trace.records[-1].k == 0
        # exact feasibility within twice the constraint noise
        assert norm2(trace.records[-1].exact.c) <= 2 * eps_c

    def test_status_invariant(self):
        p = kkt_start_problem()
        noise = noise_for(1e-2, 1e-2)
        params = SolverParams.benchmark_defaults(
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

        params = SolverParams.benchmark_defaults(
            noise, variant="adaptive", optimism="optimistic", exactness="exact")
        oracle = ZeroJacobianOracle(p, noise, np.random.default_rng(1))
        trace = solve(p, params, 1, oracle=oracle)
        assert trace.status == EARLY_INFEASIBLE
        ex = trace.records[-1].exact
        kappa_c = norm2(ex.c)
        kappa_J = float(np.linalg.norm(ex.J, 2))
        bound = kappa_c * eps_J + (kappa_J + eps_J) * eps_c
        assert norm2(ex.J.T @ ex.c) <= bound


class TestDegenerateDirection:
    def test_near_range_gradient_stops(self):
        # g barely outside Range(J') makes the exact tangential step tiny
        J = np.array([[1.0, 0.0]])

        def ev(x):
            return ExactEvaluation(f=x[0] + 1e-15 * x[1],
                                   g=np.array([1.0, 1e-15]),
                                   c=np.array([x[0]]), J=J)

        p = ProblemSpec("near-degenerate", 2, 1, np.zeros(2), ev)
        params = SolverParams.benchmark_defaults(
            NoiseSpec(), variant="adaptive", optimism="pessimistic",
            exactness="exact", max_iters=10)
        trace = solve(p, params, 0)
        assert trace.status == DEGENERATE

    @pytest.mark.parametrize("variant", ["adaptive", "line_search"])
    def test_underflowing_step_is_degenerate(self, variant):
        # H = 1e170 I shrinks the tangential step to ||d||_inf = 1e-170, so
        # d'd underflows to 0 (adaptive used to divide by it); TOL_D stops it
        # before any controller sees it
        A = np.array([[1.0, 0.0]])

        def ev(x):
            return ExactEvaluation(f=float(x[1]), g=np.array([0.0, 1.0]), c=A @ x, J=A)

        p = ProblemSpec("tiny-step", 2, 1, np.zeros(2), ev, H=1e170 * np.eye(2))
        params = SolverParams.benchmark_defaults(
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
        p = registry_by_name()["unit-circle"]
        noise = noise_for(1e-2, 1e-2)
        params = SolverParams.benchmark_defaults(noise, variant="line_search",
                                             max_iters=40)
        trace = solve(p, params, 5)
        recs = trace.records
        for prev, cur in zip(recs, recs[1:]):
            # bitwise: the recorded next iterate is exactly x + alpha d
            assert np.array_equal(cur.x, prev.x + prev.alpha * prev.bundle.d)

    def test_budget_iters(self):
        p = registry_by_name()["unit-circle"]
        noise = noise_for(1e-2, 1e-2)
        params = SolverParams.benchmark_defaults(noise, variant="adaptive",
                                             optimism="pessimistic", max_iters=15)
        trace = solve(p, params, 0)
        assert trace.status == BUDGET_ITERS
        assert len(trace.records) == 15

    def test_budget_evals_with_slack_of_one_iteration(self):
        p = registry_by_name()["unit-circle"]
        noise = noise_for(1e-2, 1e-2)
        params = SolverParams.benchmark_defaults(
            noise, variant="line_search", optimism="pessimistic",
            max_iters=10000, max_weighted_evals=200)
        trace = solve(p, params, 0)
        assert trace.status == BUDGET_EVALS
        per_iter = 3 + params.ls.max_backtracks + 1
        assert trace.counters.weighted_total <= 200 + per_iter

    def test_counters_match_instrumented_wrapper(self):
        p = registry_by_name()["quad-ellipse"]
        noise = noise_for(1e-2, 1e-2)
        params = SolverParams.benchmark_defaults(noise, variant="line_search",
                                             max_iters=30)
        oracle = CountingOracle(p, noise, np.random.default_rng(11))
        trace = solve(p, params, 11, oracle=oracle)
        assert trace.counters.function_evals == oracle.tally["value"]
        assert trace.counters.gradient_evals == oracle.tally["derivative"]
        assert trace.counters.weighted_total == (
            oracle.tally["value"] + 2 * oracle.tally["derivative"])

    def test_line_search_failure_status(self):
        # adversarial oracle: the merit increases at every trial point
        p = registry_by_name()["unit-circle"]
        noise = NoiseSpec(eps_f=1e-3, eps_g=1e-2, eps_c=1e-3, eps_J=1e-2)

        class HostileOracle(NoisyOracle):
            def sample(self, x, want="both"):
                out = super().sample(x, want)
                if want == "value":  # line search trials only
                    out = type(out)(out.f_bar + 1e6, out.g_bar, out.c_bar, out.J_bar)
                return out

        params = SolverParams.benchmark_defaults(noise, variant="line_search",
                                             optimism="pessimistic", max_iters=5)
        oracle = HostileOracle(p, noise, np.random.default_rng(0))
        trace = solve(p, params, 0, oracle=oracle)
        assert trace.status == LINE_SEARCH_FAILURE

    def test_tau_history_non_increasing(self):
        p = registry_by_name()["circle-shifted"]
        noise = noise_for(1e-2, 1e-2)
        for variant in ("adaptive", "line_search"):
            params = SolverParams.benchmark_defaults(noise, variant=variant, max_iters=60)
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
                params = SolverParams.benchmark_defaults(
                    noise_for(1e-2, 1e-2), variant=variant, max_iters=40,
                    max_weighted_evals=600)
                trace = solve(p, params, trial)
                assert trace.status in valid

    def test_tau_unchanged_on_tt1_and_case2(self):
        p = registry_by_name()["circle-shifted"]
        noise = noise_for(1e-2, 1e-2)
        params = SolverParams.benchmark_defaults(noise, variant="adaptive", max_iters=60)
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
        params = SolverParams.benchmark_defaults(
            noise, variant="adaptive", optimism="optimistic", max_iters=50)
        trace = solve(p, params, 13)
        tp = params.tests
        for rec in trace.records:
            if rec.branch != "feasible_branch" or rec.alpha == 0.0:
                continue
            dd = float(rec.bundle.d @ rec.bundle.d)
            assert rec.delta_l >= rec.tau * tp.sigma_u * tp.lambda_u / 2 * dd - 1e-10


def circle_problem(name, f=None, g=None, J=None):
    """unit-circle with optional replacements of f, its gradient and the Jacobian."""
    def ev(x):
        return ExactEvaluation(
            f=x[0] + x[1] if f is None else f(x),
            g=np.array([1.0, 1.0]) if g is None else g(x),
            c=np.array([x[0] ** 2 + x[1] ** 2 - 1.0]),
            J=np.array([[2.0 * x[0], 2.0 * x[1]]]) if J is None else J(x))
    return ProblemSpec(name, 2, 1, np.array([0.9, -0.3]), ev)


class TestNonFiniteEvaluation:
    """A NaN or Inf from the problem ends the run with a status, never an
    exception, and the trace stays auditable."""

    def nan_gradient_problem(self):
        # the gradient turns NaN once the iterates move past x[0] = 0.5
        return circle_problem(
            "nan-gradient",
            g=lambda x: np.array([1.0, 1.0]) if x[0] >= 0.5 else np.array([np.nan, 1.0]))

    def run(self, problem, variant):
        params = SolverParams.benchmark_defaults(noise_for(1e-3, 1e-2), variant=variant)
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
        p = duplicate_last_constraint(registry_by_name()["quad-ellipse"])
        params = SolverParams.benchmark_defaults(
            noise_for(1e-2, 1e-2), variant=variant, optimism="pessimistic", max_iters=80)
        trace = solve(p, params, 4)
        assert len(trace.records) == 80
        for rec in trace.records:
            assert same_evaluation(rec.exact, evaluate(p, rec.x))
        assert calls == []  # taken from the oracle's own evaluation

    def test_caller_oracle_snapshot_is_evaluated_by_the_driver(self, monkeypatch):
        from noisy_sqp.problems import evaluate
        calls = self._count_driver_evaluate(monkeypatch)
        p = registry_by_name()["unit-circle"]
        noise = noise_for(1e-2, 1e-2)
        params = SolverParams.benchmark_defaults(noise, variant="line_search",
                                                 optimism="pessimistic", max_iters=40)
        oracle = CountingOracle(p, noise, np.random.default_rng(2))
        trace = solve(p, params, 2, oracle=oracle)
        assert len(calls) == len(trace.records) == 40
        for rec, x in zip(trace.records, calls):
            assert x is rec.x
            assert same_evaluation(rec.exact, evaluate(p, rec.x))

    @pytest.mark.parametrize("variant", ["adaptive", "line_search"])
    def test_nan_snapshots_never_feed_the_solver(self, variant, monkeypatch):
        from noisy_sqp import driver
        p = registry_by_name()["unit-circle"]
        noise = noise_for(1e-2, 1e-2)
        params = SolverParams.benchmark_defaults(noise, variant=variant,
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
        p = registry_by_name()[name.removesuffix("+dup")]
        if name.endswith("+dup"):
            p = duplicate_last_constraint(p)
        evaluated = []
        evaluate = noise.evaluate

        def counted(problem, x):
            evaluated.append(x.tobytes())
            return evaluate(problem, x)

        monkeypatch.setattr(noise, "evaluate", counted)
        params = SolverParams.benchmark_defaults(
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
        p = registry_by_name()["quad-linear-10"]
        for variant in ("adaptive", "line_search"):
            params = SolverParams.benchmark_defaults(
                noise_for(1e-2, 1e-2), variant=variant, optimism="pessimistic",
                max_iters=120)
            trace = solve(p, params, 5)
            for rec in trace.records:
                g, c, J, d = rec.noisy.g_bar, rec.noisy.c_bar, rec.noisy.J_bar, rec.bundle.d
                fresh = -rec.tau * float(g.dot(d)) + norm2(c) - norm2(c + J.dot(d))
                assert rec.delta_l.hex() == fresh.hex()


class TestEpsO:
    def test_optimistic_runs_use_noise_eps_o(self):
        p = registry_by_name()["unit-circle"]
        for eps_o, expected in ((1e-3, 1e-3), (0.0, 1e-2)):
            noise = NoiseSpec(eps_f=1e-2, eps_c=1e-2, eps_o=eps_o)
            params = SolverParams.benchmark_defaults(noise, max_iters=3)
            assert solve(p, params, 0).eps_o == expected
        params = SolverParams.benchmark_defaults(
            NoiseSpec(eps_f=1e-2, eps_c=1e-2, eps_o=1e-3), optimism="pessimistic", max_iters=3)
        assert solve(p, params, 0).eps_o == 0.0


class TestParamsValidation:
    def test_misspelled_setting_raises(self):
        with pytest.raises(TypeError, match="max_iter"):
            SolverParams.benchmark_defaults(NoiseSpec(), max_iter=5)

    @pytest.mark.parametrize("name", ["tau0", "max_iters", "max_weighted_evals"])
    def test_nan_setting_is_rejected(self, name):
        with pytest.raises(ValueError, match="must be"):
            SolverParams.benchmark_defaults(NoiseSpec(), **{name: float("nan")})

    @pytest.mark.parametrize("setting", [dict(kappa=float("nan")), dict(kappa=-1.0),
                                         dict(kappa=float("inf")), dict(kappa=0.0),
                                         dict(kappa="abc"), dict(kappa=None),
                                         # an infinite tau0 used to fail inside solve, on x
                                         dict(tau0=float("inf")), dict(noise=None)])
    def test_bad_tolerance_or_kappa_is_rejected(self, setting):
        with pytest.raises(ValueError, match=f"{next(iter(setting))} must be"):
            SolverParams(**setting).validate()

    @pytest.mark.parametrize("name", ["kappa_u", "kappa_v", "H", "tol_d", "tol_feas"])
    @pytest.mark.parametrize("make", [SolverParams, SolverParams.benchmark_defaults])
    def test_removed_setting_raises(self, make, name):
        with pytest.raises(TypeError, match=name):
            make(noise=NoiseSpec(), **{name: 1e-2})

    @pytest.mark.parametrize("budget", [20.5, "20", None])
    def test_non_integer_budget_is_rejected(self, budget):
        with pytest.raises(ValueError, match="max_iters must be"):
            SolverParams(max_iters=budget).validate()


# one out-of-range value per numeric setting, written here rather than read from
# the declared ranges; NaN, +-inf and True are tried on every such field as well
OUT_OF_RANGE = {
    NoiseSpec: dict(eps_f=-1e-3, eps_g=-1.0, eps_c=-1e-3, eps_J=-1.0, eps_o=-1e-3),
    TestParams: dict(lambda_rho_r=1.0, kappa_rho_r=0.0, lambda_u=-5e-9, lambda_uv=0.0,
                     lambda_v=-1.0, sigma_u=1.0, sigma_c=0.0, sigma_r=1.0, gamma_c=1.5,
                     sigma_Jc=0.0),
    LineSearchParams: dict(alpha_u=1.5, nu=1.0, eta=0.0, max_backtracks=-1),
    AdaptiveSeeds: dict(beta=1.5, eta=1.0, theta=0.0, chi0=0.0, zeta0=-1.0, xi0=0.0,
                        sigma_chi=0.0, sigma_zeta=1.0, sigma_xi=0.0, lipschitz_dirs=-1,
                        lipschitz_delta=0.0, lipschitz_floor=-1e-4),
    SolverParams: dict(kappa=0.0, tau0=-1.0, sigma_tau=1.0, max_iters=0,
                       max_weighted_evals=0),
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

    @pytest.mark.parametrize("variant", ["adaptive", "line_search"])
    @pytest.mark.parametrize("H", [np.zeros((3, 3)), np.diag([1.0, 1.0, 0.0])],
                             ids=["zero", "singular-on-null-J"])
    def test_singular_dense_fallback_is_test_unsatisfiable(self, variant, H):
        params = SolverParams.benchmark_defaults(NoiseSpec(), variant=variant, max_iters=50)
        trace = solve(self.line_problem(H), params, 0)
        assert trace.status == TEST_UNSATISFIABLE
        last = trace.records[-1]
        assert last.alpha == 0.0 and last.bundle is None
        assert assert_trace_invariants(trace, params) == []

    @pytest.mark.parametrize("variant", ["adaptive", "line_search"])
    @pytest.mark.parametrize("H", [np.full((3, 3), np.nan), np.diag([1.0, np.inf, 1.0]),
                                   np.triu(np.ones((3, 3))), np.eye(2)],
                             ids=["nan", "inf", "asymmetric", "wrong-shape"])
    def test_invalid_H_is_rejected_at_entry(self, variant, H):
        params = SolverParams.benchmark_defaults(NoiseSpec(), variant=variant, max_iters=50)
        with pytest.raises(ValueError, match="H must be a finite symmetric 3 x 3"):
            solve(self.line_problem(H), params, 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # MINRES overflows
    @pytest.mark.parametrize("variant", ["adaptive", "line_search"])
    def test_overflowing_step_is_nonfinite_evaluation(self, variant):
        # finite and symmetric, so accepted at entry, but the step overflows
        params = SolverParams.benchmark_defaults(noise_for(1e-2, 1e-2), variant=variant)
        trace = solve(self.line_problem(1e300 * np.eye(3)), params, 0)
        assert trace.status == NONFINITE
        last = trace.records[-1]
        assert last.alpha == 0.0 and last.bundle is not None
        assert not np.isfinite(last.bundle.d).all()
        assert all(np.isfinite(r.x).all() for r in trace.records)
        assert assert_trace_invariants(trace, params) == []
