import copy
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
from noisy_sqp.steps import EXACT_FALLBACK, TT1, TT2_CASE2, TT2_COND1
from noisy_sqp.verify import (
    TAU_INCREASED,
    assert_trace_invariants,
    audit,
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

    def test_vanishing_Jtc_rejected(self):
        # quad-linear's constraints vanish at the origin, so J'c = 0 there
        with pytest.raises(ValueError, match="not bounded away from zero"):
            cauchy_perturbation_scan(registry_by_name()["quad-linear"], np.zeros(4))


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
        before, rec = trace.records[2:4]
        rec.tau = before.tau * 2.0 + 1.0
        assert (3, TAU_INCREASED) in failing(trace)
        # the one complaint that names its values
        assert f"k=3: tau increased {before.tau} -> {rec.tau}" \
            in assert_trace_invariants(trace, params)

    def test_corrupted_step_identity_flagged(self):
        trace, _ = self._trace_and_params()
        trace.records[2].x[...] += 0.5
        name = "iterate update identity broken"
        assert {(1, name), (2, name)} <= failing(trace)

    def test_every_condition_is_a_claim_with_its_margin(self):
        trace, _ = self._trace_and_params()
        conditions = audit(trace)
        assert conditions and all(c.held for c in conditions)
        for c in conditions:
            assert all(type(value) is float for value in (c.lhs, c.rhs, c.slack))
            assert c.lhs <= c.rhs + c.slack


def failing(trace):
    """(k, name) of each condition of the trace's audit that did not hold."""
    return {(c.k, c.name) for c in audit(trace) if not c.held}


# runs whose traces the corruptions below start from, as (problem, eps, variant,
# optimism): unit-circle steps on TT1 and TT2_case2 records under both controllers,
# and zero-noise quad-ellipse takes every step through the dense fallback
AUDITED_RUNS = {
    "adaptive": ("unit-circle", 1e-2, "adaptive", "optimistic"),
    "line_search": ("unit-circle", 1e-2, "line_search", "optimistic"),
    "fallback": ("quad-ellipse", 0.0, "adaptive", "pessimistic"),
}


@pytest.fixture(scope="module")
def audited_runs():
    runs = {}
    for key, (name, eps, variant, optimism) in AUDITED_RUNS.items():
        eps_g, eps_J = derive_gradient_noise(eps, eps)
        noise = NoiseSpec(eps_f=eps, eps_g=eps_g, eps_c=eps, eps_J=eps_J)
        params = SolverParams.benchmark_defaults(noise, variant=variant, optimism=optimism)
        runs[key] = solve(registry_by_name()[name], params, 0), params
    return runs


def stepped(trace, test, fallback_case=None):
    """The first record that stepped (alpha > 0) on a bundle of ``test``."""
    return next(r for r in trace.records if r.alpha > 0 and r.bundle is not None
                and (r.bundle.test, r.bundle.fallback_case) == (test, fallback_case))


def controlled(trace):
    """The records that carry the adaptive controller's snapshot."""
    return [r for r in trace.records if r.alpha_suff is not None]


def record(test, fallback_case=None):
    return lambda trace: stepped(trace, test, fallback_case)


def bundle(test, fallback_case=None):
    return lambda trace: stepped(trace, test, fallback_case).bundle


def last_controlled(trace):
    return controlled(trace)[-1]


def first_accepted(trace):
    return next(r for r in trace.records if r.phi_accept is not None)


def setting(where, **changes):
    """Corrupt ``where(trace)``: set each field, in order, to its function of that object
    (so a later change sees the earlier ones); an array field is written in place."""
    def corrupt(trace):
        obj = where(trace)
        for name, change in changes.items():
            value = change(obj)
            if isinstance(value, np.ndarray):
                getattr(obj, name)[...] = value
            else:
                setattr(obj, name, value)
    return corrupt


def against_previous(name, change):
    """Set one controlled record's ``name`` to ``change`` of the record before it."""
    def corrupt(trace):
        prev, rec = controlled(trace)[4:6]
        setattr(rec, name, change(getattr(prev, name)))
    return corrupt


def normal_step_off_range(trace):
    # v moves far along null(J): c + Jv, and so every decrease, stays as it was
    rec = stepped(trace, TT2_CASE2)
    z = np.array([rec.noisy.J_bar[0, 1], -rec.noisy.J_bar[0, 0]])
    z *= -np.sign(rec.noisy.g_bar @ z) * 1e3 / np.linalg.norm(z)
    b = rec.bundle
    b.v[...] += z
    b.d[...] = b.v + b.u


CORRUPTIONS = [
    ("adaptive", against_previous("chi", lambda prev: prev / 2), "chi decreased"),
    ("adaptive", against_previous("zeta", lambda prev: 2 * prev + 1), "zeta increased"),
    ("adaptive", against_previous("xi", lambda prev: 2 * prev + 1), "xi increased"),
    ("adaptive", setting(last_controlled, alpha_suff=lambda r: 1.5),
     "alpha ordering alpha <= alpha_suff <= 1 broken"),
    ("adaptive", setting(last_controlled, alpha_min=lambda r: r.alpha_max + 1),
     "alpha_min > alpha_max"),
    ("adaptive", setting(last_controlled, xi=lambda r: 0.0), "controller sequence not positive"),
    ("adaptive", setting(last_controlled, alpha_suff=lambda r: r.alpha_suff * (1 + 1e-6)),
     "alpha_suff does not match recomputation"),
    ("line_search", setting(first_accepted, phi_accept=lambda r: r.phi0 + 10),
     "accepted step violates relaxed Armijo"),
    ("adaptive", setting(bundle(TT1), d=lambda b: b.d + 1.0), "d != v + u"),
    ("fallback", setting(bundle(EXACT_FALLBACK, TT1), rho=lambda b: b.rho + 1.0),
     "fallback residual not at round-off level"),
    ("adaptive", setting(bundle(TT1), v=lambda b: b.v + 1e-3, d=lambda b: b.v + b.u),
     "TT1 with nonzero normal component"),
    ("adaptive", setting(bundle(TT1), r=lambda b: b.r + 10.0),
     "TT1 residual gate fails on recheck"),
    ("adaptive", setting(lambda trace: trace, H=lambda trace: -trace.H),
     "TT1 curvature condition fails on recheck"),
    ("adaptive", setting(bundle(TT1), u=lambda b: -b.u, d=lambda b: b.v + b.u),
     "TT1 objective-model condition fails on recheck"),
    ("fallback", setting(lambda trace: trace, H=lambda trace: 2 * trace.H),
     "TT1 model-reduction condition fails on recheck"),
    ("adaptive", setting(record(TT1), delta_l=lambda r: -1.0),
     "feasible-branch model reduction lower bound fails"),
    ("adaptive", setting(bundle(TT2_CASE2), r=lambda b: b.r + 10.0),
     "TT2 residual gate fails on recheck"),
    ("adaptive", setting(bundle(TT2_CASE2), u=lambda b: -b.u, v=lambda b: 0 * b.v,
                         d=lambda b: b.u),
     "TT2 dominance/curvature condition fails on recheck"),
    ("adaptive", setting(record(TT2_CASE2), tau_prev=lambda r: 1e6 * r.tau_prev),
     "TT2 case-2 model reduction fails on recheck"),
    ("fallback", setting(bundle(EXACT_FALLBACK, TT2_COND1), v=lambda b: -b.v,
                         d=lambda b: b.v + b.u),
     "TT2 residual-decrease condition fails on recheck"),
    ("adaptive", normal_step_off_range, "normal trust region bound fails on recheck"),
    ("adaptive", setting(bundle(TT2_CASE2), v=lambda b: 0 * b.v, d=lambda b: b.u),
     "Cauchy decrease condition fails on recheck"),
]


class TestTraceCorruption:
    """Every check of the audit rejects: a corrupted copy of a clean trace raises it."""

    @pytest.mark.parametrize("run", list(AUDITED_RUNS))
    def test_audited_run_is_clean(self, audited_runs, run):
        trace, params = audited_runs[run]
        assert assert_trace_invariants(trace, params) == []

    @pytest.mark.parametrize("run, corrupt, name", CORRUPTIONS,
                             ids=[name for _, _, name in CORRUPTIONS])
    def test_corruption_is_flagged(self, audited_runs, run, corrupt, name):
        trace, _ = audited_runs[run]
        trace = copy.deepcopy(trace)
        corrupt(trace)
        assert name in {name for _, name in failing(trace)}, failing(trace)

    def test_a_record_breaking_two_conditions_lists_both(self, audited_runs):
        trace = copy.deepcopy(audited_runs["adaptive"][0])
        rec = stepped(trace, TT2_CASE2)
        rec.bundle.r[...] += 10.0
        rec.tau_prev *= 1e6
        assert failing(trace) == {(rec.k, "TT2 residual gate fails on recheck"),
                                  (rec.k, "TT2 case-2 model reduction fails on recheck")}
