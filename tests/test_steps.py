import numpy as np
import pytest

from noisy_sqp import steps
from noisy_sqp.linalg import dense_kkt_solve, norm2, norm_inf
from noisy_sqp.merit import (GAMMA_C, LAMBDA_U, LAMBDA_UV, SIGMA_C, SIGMA_JC, SIGMA_R,
                             Linearization, model_reduction)
from noisy_sqp.problems import evaluate, get_problem
from noisy_sqp.steps import (
    EXACT_FALLBACK,
    TT1,
    TT2_CASE2,
    TT2_COND1,
    NormalStep,
    StepBundle,
    check_tt1,
    check_tt2,
    normal_step,
    tangential_step,
)
from noisy_sqp.verify import _cauchy_step


# the residual-gate coefficient of exact mode; inexact mode uses kappa * min(eps_c, eps_f)
EXACT = 1e-10


def lin(c, J, g=None):
    """Linearization with a zero gradient unless one is given."""
    return Linearization(np.zeros(J.shape[1]) if g is None else g, c, J)


def zero_normal(c, n):
    """The feasible branch's normal step v = 0, so c + Jv = c."""
    return NormalStep(np.zeros(n), c, norm2(c))


class TestNormalStep:
    def test_exact_mode_identity(self):
        v = normal_step(lin(np.array([1.0, 1.0]), np.eye(2)), EXACT).v
        assert np.allclose(v, [-1.0, -1.0], atol=1e-9)

    def test_cauchy_decrease_reasserted(self):
        # direct inequality recomputation on the accepted step
        J = np.array([[1.0, 2.0]])
        c = np.array([1.0])
        v = normal_step(lin(c, J), 1e-2 * 1e-2).v
        lhs = norm2(c) - norm2(c + J @ v)
        rhs = GAMMA_C * (norm2(c) - norm2(c + J @ _cauchy_step(c, J, SIGMA_JC)))
        assert lhs >= rhs - 1e-12

    def test_rank_deficient_stays_in_row_span(self):
        J = np.array([[1.0, 0.0], [1.0, 0.0]])
        c = np.array([1.0, 1.0])
        v = normal_step(lin(c, J), 1e-2 * 1e-2).v
        # projection check oracle: v must lie in span{(1, 0)}
        assert abs(v[1]) <= 1e-12
        lhs = norm2(c) - norm2(c + J @ v)
        rhs = GAMMA_C * (norm2(c) - norm2(c + J @ _cauchy_step(c, J, SIGMA_JC)))
        assert lhs >= rhs - 1e-12

    def test_trust_region_bound_random(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 7))
            J = rng.standard_normal((m, n))
            c = rng.standard_normal(m)
            if norm_inf(J.T @ c) <= lin(c, J).round_off:
                continue
            v = normal_step(lin(c, J), 1e-2 * 1e-3).v
            assert norm2(v) <= SIGMA_JC * norm2(J.T @ c) * (1 + 1e-12)


    def test_returns_c_plus_Jv_of_its_step(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 7))
            J = rng.standard_normal((m, n))
            c = rng.standard_normal(m)
            if norm_inf(J.T @ c) <= lin(c, J).round_off:
                continue
            normal = normal_step(lin(c, J), 1e-2 * 1e-3)
            assert np.array_equal(normal.c_v, c + J @ normal.v)
            assert normal.c_v_norm == norm2(c + J @ normal.v)
            assert normal.cg_iters >= 1


class TestTangentialStep:
    def test_feasible_branch_small_violation(self):
        # exact-solution limit: all four feasible-branch conditions hold
        H = np.eye(2)
        J = np.array([[1.0, 0.0]])
        g = np.array([1.0, 1.0])
        c = np.array([0.05])
        bundle, _ = tangential_step(H, lin(c, J, g), zero_normal(c, 2), 1.0,
                                    eps_o=0.1, coef=1e-2 * 1e-2, feasible=True)
        assert bundle.test in (TT1, EXACT_FALLBACK)
        assert np.allclose(bundle.d, bundle.v + bundle.u)

    def test_dense_oracle_null_space_step(self):
        H = np.eye(2)
        J = np.array([[1.0, 0.0]])
        g = np.array([0.0, 1.0])
        c = np.array([0.0])
        bundle, _ = tangential_step(H, lin(c, J, g), zero_normal(c, 2), 1.0,
                                    eps_o=0.0, coef=EXACT, feasible=True)
        u_oracle, _ = dense_kkt_solve(H, J, g)
        assert np.allclose(bundle.u, u_oracle, atol=1e-9)
        assert np.allclose(bundle.u, [0.0, -1.0], atol=1e-9)
        assert norm2(bundle.rho) <= 1e-9 and norm2(bundle.r) <= 1e-9

    def test_unit_circle_tt2_with_residual_condition(self):
        p = get_problem("unit-circle")
        ev = evaluate(p, p.x0)
        H = np.eye(2)
        L = lin(ev.c, ev.J, ev.g)
        normal = normal_step(L, EXACT)
        bundle, _ = tangential_step(H, L, normal, 1.0,
                                    eps_o=0.0, coef=EXACT, feasible=False)
        assert bundle.test in (TT2_CASE2, TT2_COND1, EXACT_FALLBACK)
        # direct recomputation of the residual-decrease condition
        dec_v = norm2(ev.c) - norm2(ev.c + ev.J @ bundle.v)
        dec_vr = norm2(ev.c) - norm2(ev.c + ev.J @ bundle.v + bundle.r)
        assert dec_v > 0
        assert dec_vr >= SIGMA_R * dec_v - 1e-12

    def test_fallback_residual_at_round_off(self):
        # inexact thresholds degenerate to zero at zero noise, forcing the
        # dense fallback; its residual must sit at round-off level
        H = np.eye(3)
        J = np.array([[1.0, 1.0, 0.0]])
        g = np.array([0.3, -0.2, 1.0])
        c = np.array([0.4])
        L = lin(c, J, g)
        normal = normal_step(L, EXACT)
        v = normal.v
        bundle, _ = tangential_step(H, L, normal, 1.0, eps_o=0.0,
                                    coef=0.0, feasible=False)
        assert bundle.test == EXACT_FALLBACK
        scale = 1 + norm_inf(g + H @ v)
        assert norm_inf(np.concatenate([bundle.rho, bundle.r])) <= 1e-9 * scale


    def test_unsolvable_dense_fallback_returns_none(self):
        # H = 0 is singular on null(J): the dense solve cannot form the exact
        # tangential step, so no termination test can pass
        H = np.zeros((3, 3))
        J = np.array([[1.0, 1.0, 0.0]])
        c = np.array([0.0])
        bundle, taken = tangential_step(H, lin(c, J, np.array([0.3, -0.2, 1.0])),
                                        zero_normal(c, 3), 1.0, eps_o=0.0, coef=0.0,
                                        feasible=True)
        assert bundle is None and taken > 0  # MINRES ran to its breakdown first

    def test_accepted_candidate_meets_the_gate_at_its_lower_clip(self):
        # u = 0 at MINRES's start and ||J'c||_inf = 1e-3, so the residual gate there is
        # coef * 1e-2: the start's residual g + Hv = (0, 2e-4), under which TT2's case 2
        # holds, passes it at coef = 4e-2 and fails it at 4e-3, where the first MINRES
        # step is accepted instead
        J, c = np.array([[1.0, 0.0]]), np.array([1e-3])
        v = np.array([-1e-3, 0.0])
        normal = NormalStep(v, c + J @ v, 0.0)
        L = lin(c, J, np.array([1e-3, 2e-4]))
        for coef, iters in ((4e-2, 0), (4e-3, 1)):
            bundle, taken = tangential_step(np.eye(2), L, normal, 1.0, eps_o=0.0, coef=coef,
                                            feasible=False)
            assert (bundle.test, bundle.minres_iters, taken) == (TT2_CASE2, iters, iters)
            assert norm_inf(np.concatenate([bundle.rho, bundle.r])) <= coef * 1e-2


class TestCheckTT1:
    def test_zero_step_passes(self):
        ok = check_tt1(np.eye(2), lin(np.zeros(1), np.zeros((1, 2))),
                       zero_normal(np.zeros(1), 2), np.zeros(2), np.zeros(2), np.zeros(1),
                       1.0, 0.1)
        assert ok

    def test_huge_residual_gate(self):
        ok = check_tt1(np.eye(2), lin(np.zeros(1), np.zeros((1, 2))),
                       zero_normal(np.zeros(1), 2), np.array([1.0, 0.0]),
                       np.array([10.0, 0.0]), np.zeros(1),
                       1.0, 0.1)
        assert not ok

    def test_unrelaxed_forms_at_zero_eps_o(self):
        # with eps_o = 0 the relaxation terms vanish: a clear violation of
        # the objective-model condition is rejected, a clear satisfaction
        # of all conditions is accepted
        H = np.eye(2)
        J = np.array([[1.0, 0.0]])
        c = np.array([0.0])
        u = np.array([0.0, -1.0])
        rho = np.zeros(2)
        r = np.zeros(1)
        g_bad = np.array([0.0, 0.5 + 1e-6])   # g'u + u'Hu/2 = +1e-6 > 0
        assert not check_tt1(H, lin(c, J, g_bad), zero_normal(c, 2), u, rho, r, 1.0, 0.0)
        g_ok = np.array([0.0, 1.0])           # g'u + u'Hu/2 = -1/2
        assert check_tt1(H, lin(c, J, g_ok), zero_normal(c, 2), u, rho, r, 1.0, 0.0)

    def test_negative_curvature_rejected(self):
        # with H = -I, u'Hu = -1: the objective-model (g'u + u'Hu/2 = -3/2) and
        # model-reduction (1 >= 0.99 max(-1, LAMBDA_U)) conditions hold, so only the
        # curvature condition rejects, which u'Hu misses by 1 + LAMBDA_U: relaxing it
        # by eps_o lets the step through when that miss is 0.67 eps_o, not 1.5 eps_o
        J, c = np.array([[1.0, 0.0]]), np.array([0.0])
        args = (-np.eye(2), lin(c, J, np.array([0.0, 1.0])), zero_normal(c, 2),
                np.array([0.0, -1.0]), np.zeros(2), np.zeros(1), 1.0)
        assert check_tt1(*args, 0.0) is None
        assert check_tt1(*args, (1.0 + LAMBDA_U) / 1.5) is None
        assert check_tt1(*args, 1.5) is not None

    def test_objective_model_excess_beyond_eps_o_is_rejected(self):
        # g'u + u'Hu/2 = 1.5 with u'Hu = 1 >= LAMBDA_U u'u, and tau_prev = 0.1 keeps the
        # model reduction -0.1 above 0.099 - eps_o: an excess of 1.5 eps_o rejects,
        # one of 0.5 eps_o passes
        J, c = np.array([[1.0, 0.0]]), np.array([0.0])
        args = (np.eye(2), lin(c, J, np.array([0.0, 1.0])), zero_normal(c, 2),
                np.array([0.0, 1.0]), np.zeros(2), np.zeros(1), 0.1)
        assert check_tt1(*args, 1.0) is None
        assert check_tt1(*args, 3.0) is not None

    def test_exact_fixture_with_strictness_margin(self, monkeypatch):
        H = np.eye(2)
        J = np.array([[1.0, 0.0]])
        g = np.array([0.0, 1.0])
        u, y = dense_kkt_solve(H, J, g)
        rho = H @ u + J.T @ y + g
        r = J @ u
        normal = zero_normal(np.array([0.0]), 2)
        assert check_tt1(H, lin(np.array([0.0]), J, g), normal, u, rho, r, 1.0, 0.0)
        monkeypatch.setattr(steps, "SIGMA_U", 1.0 - 1e-12)  # tight
        assert check_tt1(H, lin(np.array([0.0]), J, g), normal, u, rho, r, 1.0, 0.0)


class TestCheckTT2:
    def _fixture(self):
        p = get_problem("unit-circle")
        ev = evaluate(p, p.x0)
        L = lin(ev.c, ev.J, ev.g)
        return ev, L, normal_step(L, EXACT)

    def test_zero_tangential_reduces_to_reduction_conditions(self):
        ev, L, normal = self._fixture()
        case, *_ = check_tt2(np.eye(2), L, normal, np.zeros(2),
                             np.zeros(2), np.zeros(1), 1.0)
        assert case in (TT2_CASE2, TT2_COND1)

    def test_exact_normal_solve_satisfies_residual_branch(self):
        ev, L, normal = self._fixture()
        v = normal.v
        u, y = dense_kkt_solve(np.eye(2), ev.J, ev.g + v)
        rho = np.eye(2) @ u + ev.J.T @ y + ev.g + v
        r = ev.J @ u
        case, *_ = check_tt2(np.eye(2), L, normal, u, rho, r, 1.0)
        assert case is not None
        dec_v = norm2(ev.c) - norm2(ev.c + ev.J @ v)
        dec_vr = norm2(ev.c) - norm2(ev.c + ev.J @ v + r)
        assert dec_v > 0 and dec_vr >= SIGMA_R * dec_v - 1e-12

    def test_returns_d_and_its_model_reduction(self):
        ev, L, normal = self._fixture()
        u = np.zeros(2)
        case, gd, cd_norm, _ = check_tt2(np.eye(2), L, normal, u, np.zeros(2), np.zeros(1), 1.0)
        assert case in (TT2_CASE2, TT2_COND1)
        d = normal.v + u
        assert gd == float(ev.g.dot(d)) and cd_norm == norm2(ev.c + ev.J.dot(d))
        assert model_reduction(1.0, L.c_norm, gd, cd_norm) == \
            -1.0 * float(ev.g.dot(d)) + norm2(ev.c) - norm2(ev.c + ev.J.dot(d))

    def test_cond1_carries_the_trial_merit_parameter(self):
        ev, L, normal = self._fixture()
        H = np.eye(2)
        v = normal.v
        u, y = dense_kkt_solve(H, ev.J, ev.g + v)
        rho = H @ u + ev.J.T @ y + ev.g + v
        r = ev.J @ u
        # a large tau_prev fails case 2, so the residual condition accepts
        case, _, _, trial = check_tt2(H, L, normal, u, rho, r, 10.0)
        assert case == TT2_COND1
        # the trial written out from the vectors
        denom = float(ev.g @ (v + u)) + max(float(u @ (H @ u)), LAMBDA_U * float(u @ u))
        decrease = norm2(ev.c) - norm2(ev.c + ev.J @ v + r)
        expected = (1.0 - SIGMA_C / SIGMA_R) * decrease / denom
        assert denom > 0.0 and trial.hex() == expected.hex()
        case, *_, trial = check_tt2(H, L, normal, u, rho, r, 1.0)
        assert (case, trial) == (TT2_CASE2, None)
        J = np.array([[1.0, 0.0]])
        g = np.array([0.0, 1.0])
        u, y = dense_kkt_solve(H, J, g)
        c = np.array([0.0])
        case, *_, trial = check_tt1(H, lin(c, J, g), zero_normal(c, 2), u,
                                    H @ u + J.T @ y + g, J @ u, 1.0, 0.0)
        assert (case, trial) == (TT1, None)

    @pytest.mark.parametrize("H, g", [(-np.eye(2), [0.0, 1.0]), (np.eye(2), [0.0, -1.0])],
                             ids=["negative-curvature", "ascent"])
    def test_dominant_tangential_step_needs_curvature_and_descent(self, monkeypatch, H, g):
        # ||u|| = 1 = 2 LAMBDA_UV ||v||, so the dominance condition applies: with
        # H = -I its curvature part fails, with g'u = 1 its slope part does
        c, J = np.array([1.0]), np.array([[1.0, 0.0]])
        v, u = np.array([-0.5 / LAMBDA_UV, 0.0]), np.array([0.0, -1.0])
        c_v = c + J @ v
        args = (H, lin(c, J, np.array(g)), NormalStep(v, c_v, norm2(c_v)), u, np.zeros(2),
                np.zeros(1), 1.0)
        assert check_tt2(*args) is None
        monkeypatch.setattr(steps, "LAMBDA_UV", 1e30)  # u never dominates: a reduction passes
        assert check_tt2(*args) is not None

    def test_dominant_slope_weighs_curvature_by_one_minus_jtc_norm(self):
        # ||u|| = 1 > LAMBDA_UV ||v|| = 1e-2 and ||J'c|| = 0.1, so the slope condition is
        # (g + Hv)'u + 0.9 u'Hu <= LAMBDA_V ||v|| = 1e-2: a slope of -0.7 fails it (0.2),
        # though a weight of 0.5 would pass (-0.2); a slope of -0.95 passes, and
        # tau_prev = 1e-6 lets case 2 accept
        c, J = np.array([0.1]), np.array([[1.0, 0.0]])
        v, u = np.array([-1e-6, 0.0]), np.array([0.0, -1.0])
        c_v = c + J @ v
        normal = NormalStep(v, c_v, norm2(c_v))
        for slope, accepted in ((-0.7, None), (-0.95, TT2_CASE2)):
            L = lin(c, J, np.array([0.0, -slope]))  # (g + Hv)'u = -g_2
            passed = check_tt2(np.eye(2), L, normal, u, np.zeros(2), np.zeros(1), 1e-6)
            assert (passed[0] if passed else None) == accepted

    def test_cond1_needs_a_positive_trial(self):
        # the round-off slack lets ||c + Jv + r|| exceed ||c||, so the trial
        # merit parameter would be negative: the check must not pass
        g, c, J = np.array([1e3, 0.0]), np.array([1e-11]), np.array([[1.0, 0.0]])
        v, u = np.array([-9e-12, 0.0]), np.array([5e-11, 1e-8])
        c_v = c + J @ v
        normal = NormalStep(v, c_v, norm2(c_v))
        assert norm2(c_v + J @ u) > norm2(c)
        assert check_tt2(np.eye(2), lin(c, J, g), normal, u, np.zeros(2), J @ u,
                         1.0) is None

    def test_residual_gate_is_conjunctive(self):
        ev, L, normal = self._fixture()
        assert check_tt2(np.eye(2), L, normal, np.zeros(2), np.array([50.0, 0.0]),
                         np.zeros(1), 1.0) is None


class TestBundleRepassesDeclaredTest:
    def test_random_instances(self):
        # independent re-check of whatever test the bundle declares
        rng = np.random.default_rng(31)
        for _ in range(30):
            m = int(rng.integers(1, 3))
            n = int(rng.integers(m + 1, 6))
            J = rng.standard_normal((m, n))
            g = rng.standard_normal(n)
            c = rng.standard_normal(m)
            H = np.eye(n)
            if norm_inf(J.T @ c) <= lin(c, J, g).round_off:
                continue
            L = lin(c, J, g)
            bundle, _ = tangential_step(H, L, normal_step(L, 1e-2 * 1e-2),
                                        1.0, eps_o=0.0, coef=1e-2 * 1e-2,
                                        feasible=False)
            test = bundle.fallback_case or bundle.test
            c_v = c + J @ bundle.v
            normal = NormalStep(bundle.v, c_v, norm2(c_v))
            case, *_ = check_tt2(H, Linearization(g, c, J), normal, bundle.u,
                                 bundle.rho, bundle.r, 1.0)
            assert case is not None
            assert test == case
            # d = v + u, and the bundle keeps the accepting check's g'd and ||c + Jd||
            assert np.array_equal(bundle.d, bundle.v + bundle.u)
            assert (bundle.gd, bundle.cd_norm) == L.along(bundle.d)


def test_a_bundle_over_stacked_rows_gives_each_rows_views_bit_for_bit():
    # the trace audit reads u, y, rho, r and d of every record from one bundle over the
    # stacked v, z and resid columns of the trace's table
    rng = np.random.default_rng(7)
    n, m = 4, 2
    v, z, resid = (rng.standard_normal((5, size)) for size in (n, n + m, n + m))
    stacked = StepBundle(v, z, resid, TT1)
    for i in range(5):
        row = StepBundle(v[i], z[i], resid[i], TT1)
        for name in ("u", "y", "rho", "r", "d"):
            assert getattr(stacked, name)[i].tobytes() == getattr(row, name).tobytes(), name
