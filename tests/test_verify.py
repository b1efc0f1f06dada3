import json

import numpy as np
import pytest

from noisy_sqp.driver import SolverParams, solve
from noisy_sqp.noise import NoiseSpec, derive_gradient_noise
from noisy_sqp.problems import (
    ExactEvaluation,
    ProblemSpec,
    duplicate_last_constraint,
    registry_by_name,
)
from noisy_sqp.verify import (
    assert_trace_invariants,
    cauchy_perturbation_scan,
    fd_check,
    tangential_gap_scan,
)


class TestFdCheck:
    def test_quadratic_exactness(self):
        p = registry_by_name()["quad-linear"]
        grad_err, jac_err = fd_check(p, p.x0 + 0.3)
        # central differences are exact on quadratics up to round-off
        assert grad_err <= 1e-9
        assert jac_err <= 1e-9

    def test_unit_circle(self):
        p = registry_by_name()["unit-circle"]
        grad_err, jac_err = fd_check(p, np.array([1.0, 0.0]))
        assert jac_err <= 1e-5


class TestCauchyPerturbationScan:
    def test_quad_linear_fixture_passes(self):
        p = registry_by_name()["quad-linear"]
        report = cauchy_perturbation_scan(p, p.x0, n_seeds=20)
        assert report.passed
        parsed = json.loads(report.to_json())
        assert parsed["check"] == "cauchy_perturbation_scan"
        assert len(parsed["observations"]) == 7

    def test_zero_noise_collapses_exactly(self):
        from noisy_sqp.noise import sample_noisy
        from noisy_sqp.problems import evaluate
        from noisy_sqp.verify import _cauchy_step
        p = registry_by_name()["quad-linear"]
        ex = evaluate(p, p.x0)
        noisy = sample_noisy(p, NoiseSpec(), p.x0, np.random.default_rng(0))
        exact_step = _cauchy_step(ex.c, ex.J, 1e2)
        noisy_step = _cauchy_step(noisy.c_bar, noisy.J_bar, 1e2)
        assert np.array_equal(exact_step, noisy_step)

    def test_rank_deficient_fixture_rejected(self):
        p = duplicate_last_constraint(registry_by_name()["unit-circle"])
        with pytest.raises(ValueError, match="Jacobian not full rank at the scan point"):
            cauchy_perturbation_scan(p, p.x0)


class TestTangentialGapScan:
    def test_quad_linear_feasible_point_passes(self):
        p = registry_by_name()["quad-linear"]
        report = tangential_gap_scan(p, np.zeros(p.n), n_seeds=20)
        assert report.passed

    def test_zero_noise_identical(self):
        from noisy_sqp.problems import evaluate
        from noisy_sqp.verify import _null_space_solution
        p = registry_by_name()["quad-linear"]
        ex = evaluate(p, np.zeros(p.n))
        u1 = _null_space_solution(np.eye(p.n), ex.J, ex.g)
        u2 = _null_space_solution(np.eye(p.n), ex.J.copy(), ex.g.copy())
        assert np.array_equal(u1, u2)

    def test_gradient_noise_only_gap_at_curvature_scale(self):
        # fixed J (eps_J = 0), eps_g = 1e-4: the tangential gap is bounded
        # by the inverse null-space curvature times the gradient noise;
        # dense saddle solves on both systems
        from noisy_sqp.linalg import dense_kkt_solve
        from noisy_sqp.noise import NoiseSpec, sample_noisy
        from noisy_sqp.problems import evaluate
        p = registry_by_name()["quad-linear"]
        x = np.zeros(p.n)
        ex = evaluate(p, x)
        H = np.eye(p.n)  # zeta_H = 1
        u_exact, _ = dense_kkt_solve(H, ex.J, ex.g)
        worst = 0.0
        for seed in range(20):
            noisy = sample_noisy(p, NoiseSpec(eps_g=1e-4), x,
                                 np.random.default_rng(seed), want="derivative")
            u_noisy, _ = dense_kkt_solve(H, noisy.J_bar, noisy.g_bar)
            worst = max(worst, float(np.linalg.norm(u_noisy - u_exact)))
        assert worst <= 1e-4 * (1 + 1e-9)

    def test_trivial_null_space_rejected(self):
        from noisy_sqp.problems import ExactEvaluation, ProblemSpec
        J = np.eye(2)

        def ev(x):
            return ExactEvaluation(f=0.0, g=np.zeros(2), c=J @ x, J=J)

        square = ProblemSpec("square", 2, 2, np.zeros(2), ev)
        with pytest.raises(ValueError, match=r"null space of J must be nontrivial \(need m < n\)"):
            tangential_gap_scan(square, square.x0)


class TestTraceInvariants:
    def _trace_and_params(self, variant="adaptive", seed=0):
        eps_g, eps_J = derive_gradient_noise(1e-2, 1e-2)
        noise = NoiseSpec(eps_f=1e-2, eps_g=eps_g, eps_c=1e-2, eps_J=eps_J)
        params = SolverParams.benchmark_defaults(noise, variant=variant, max_iters=40)
        p = registry_by_name()["unit-circle"]
        return solve(p, params, seed), params

    def test_clean_trace_has_no_violations(self):
        for variant in ("adaptive", "line_search"):
            trace, params = self._trace_and_params(variant)
            assert assert_trace_invariants(trace, params) == []

    def test_recheck_uses_the_problems_curvature_matrix(self):
        # the solver takes H from the problem; the re-check must use that H,
        # not the identity
        Q = np.diag([1.0, 2.0, 3.0])
        A = np.array([[1.0, 1.0, 0.0]])
        q = np.array([0.0, 0.0, 1.0])

        def ev(x):
            return ExactEvaluation(f=0.5 * float(x @ Q @ x) + float(q @ x),
                                   g=Q @ x + q, c=A @ x, J=A)

        p = ProblemSpec("shaped-H", 3, 1, np.array([1.0, -1.0, 2.0]), ev, H=0.01 * Q)
        eps_g, eps_J = derive_gradient_noise(1e-4, 1e-4)
        noise = NoiseSpec(eps_f=1e-4, eps_g=eps_g, eps_c=1e-4, eps_J=eps_J)
        for variant in ("adaptive", "line_search"):
            for optimism in ("optimistic", "pessimistic"):
                params = SolverParams.benchmark_defaults(
                    noise, variant=variant, optimism=optimism, max_iters=40)
                trace = solve(p, params, 0)
                assert assert_trace_invariants(trace, params) == []
                assert np.array_equal(trace.H, p.H)

    def test_corrupted_tau_flagged(self):
        trace, params = self._trace_and_params()
        trace.records[3].tau = trace.records[2].tau * 2.0 + 1.0
        bad = assert_trace_invariants(trace, params)
        assert any("tau increased" in msg for msg in bad)
        assert any("k=3" in msg or "k=4" in msg for msg in bad)

    def test_corrupted_step_identity_flagged(self):
        trace, params = self._trace_and_params()
        trace.records[2].x = trace.records[2].x + 0.5
        bad = assert_trace_invariants(trace, params)
        assert any("identity" in msg for msg in bad)
