import numpy as np
import pytest

from noisy_sqp.stepsize import (
    AdaptiveState,
    BacktrackExhausted,
    LineSearchParams,
    adaptive_alpha,
    clamp_beta_admissible,
    epsilon_Ak,
    line_search_alpha,
    update_chi_zeta,
    xi_update,
)


def make_state(**kw):
    defaults = dict(chi=1e-3, zeta=1e3, xi=1.0, beta=1.0, eta=0.5, theta=1e4,
                    L_est=1.0, Gamma_est=1.0, sigma_chi=0.5, sigma_zeta=0.5,
                    sigma_xi=0.1)
    defaults.update(kw)
    return AdaptiveState(**defaults)


class TestUpdateChiZeta:
    def test_zero_tangential_no_update(self):
        s = make_state()
        # u = 0, v = d = (1, 0), H = I
        update_chi_zeta(s, uu=0.0, vv=1.0, dHd=1.0)
        assert s.chi == 1e-3 and s.zeta == 1e3

    def test_tangential_dominated_updates(self):
        s = make_state()
        # u = d = (1, 0), v = 0, H = I
        update_chi_zeta(s, uu=1.0, vv=0.0, dHd=1.0)
        assert s.chi == pytest.approx(1.5e-3)
        assert s.zeta == pytest.approx(500.0)

    def test_composition(self):
        s = make_state()
        for _ in range(3):
            update_chi_zeta(s, uu=1.0, vv=0.0, dHd=1.0)
        assert s.chi == pytest.approx(1e-3 * 1.5 ** 3)


class TestTangentialDominance:
    def test_reads_the_current_chi(self):
        s = make_state(chi=2.0)
        assert s.tangential(uu=2.0, vv=1.0)
        assert not s.tangential(uu=1.9, vv=1.0)
        s.chi = 1.0
        assert s.tangential(uu=1.9, vv=1.0)


class TestXiUpdate:
    def test_keep_branch(self):
        s = make_state(xi=1.0)
        # trial = 2 on the normally-dominated branch
        xi_update(s, delta_l=2.0, tau=1.0, uu=0.0, vv=1.0, dd=1.0)
        assert s.xi == 1.0

    def test_cut_branch(self):
        s = make_state(xi=1.0, sigma_xi=0.1)
        xi_update(s, delta_l=0.3, tau=1.0, uu=0.0, vv=1.0, dd=1.0)
        assert s.xi == pytest.approx(0.3)

    def test_tangential_dominated_trial(self):
        s = make_state(xi=1.0, sigma_xi=0.1)
        # u = d = (2, 0), v = 0
        xi_update(s, delta_l=1.0, tau=0.5, uu=4.0, vv=0.0, dd=4.0)
        assert s.xi == pytest.approx(0.5)


class TestAdaptiveAlpha:
    def test_suff_direct_evaluation(self):
        s = make_state(xi=1e-6)
        # u = d = (1, 0), v = 0
        alpha, suff, amin, amax = adaptive_alpha(s, delta_l=1.0, tau=1.0, uu=1.0,
                                                 vv=0.0, dd=1.0)
        assert suff == pytest.approx(0.5)
        assert alpha == pytest.approx(0.5)

    def test_projection_identity_at_matching_bounds(self):
        s = make_state(xi=1.0)
        # u = d = (1, 0), v = 0
        alpha, suff, amin, amax = adaptive_alpha(s, delta_l=1.0, tau=1.0, uu=1.0,
                                                 vv=0.0, dd=1.0)
        assert amin == pytest.approx(0.5)
        assert suff == pytest.approx(0.5)
        assert alpha == pytest.approx(0.5)

    def test_wide_cap_never_binds(self):
        s = make_state(xi=1e-8, theta=1e4)
        alpha, suff, amin, amax = adaptive_alpha(s, delta_l=0.6, tau=1.0, uu=1.0,
                                                 vv=0.0, dd=1.0)
        assert amax >= 1.0
        assert alpha == pytest.approx(suff)

    def test_ordering_property_random(self):
        # alpha <= alpha_suff <= 1 relies on the xi update running first,
        # as in the main loop; the property holds along any such sequence
        rng = np.random.default_rng(37)
        s = make_state(xi=1.0, L_est=2.0, Gamma_est=3.0)
        for _ in range(200):
            n = 3
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            d = u + v
            if np.linalg.norm(d) == 0:
                continue
            delta_l = float(rng.uniform(0.0, 2.0))
            tau = float(rng.uniform(0.01, 1.0))
            uu, vv, dd = float(u @ u), float(v @ v), float(d @ d)
            update_chi_zeta(s, uu, vv, dd)  # H = I
            xi_update(s, delta_l, tau, uu, vv, dd)
            alpha, suff, amin, amax = adaptive_alpha(s, delta_l, tau, uu, vv, dd)
            assert suff <= 1.0 + 1e-12
            assert alpha <= suff + 1e-12
            assert amin <= amax + 1e-12
            assert amin - 1e-12 <= alpha <= amax + 1e-12


class TestBetaAdmissibility:
    def test_clamp_preserves_beta_one(self):
        L, Gamma = clamp_beta_admissible(1e-4, 1e-4, beta=1.0, eta=0.5,
                                         xi0=1.0, tau0=1.0)
        assert 1.0 * L + Gamma >= 2 * 0.5 * 1.0 * 1.0 - 1e-12

    def test_no_clamp_when_admissible(self):
        L, Gamma = clamp_beta_admissible(10.0, 10.0, beta=1.0, eta=0.5,
                                         xi0=1.0, tau0=1.0)
        assert (L, Gamma) == (10.0, 10.0)


class TestEpsilonAk:
    def test_zero_noise(self):
        assert epsilon_Ak(1.0, 0, 0, 0, 0, 1.0, 1.0) == 0.0

    def test_direct_evaluation(self):
        val = epsilon_Ak(1.0, 1e-2, 1e-2, 0.1, 0.1, 1.0, 1.0)
        assert val == pytest.approx(0.26)

    def test_vanishing_tau_limit(self):
        val = epsilon_Ak(0.0, 1e-2, 1e-2, 0.1, 0.1, 1.0, 2.0)
        assert val == pytest.approx(4 * 1e-2 + 0.1 * 2.0)


class TestLineSearch:
    def test_first_trial_accepted_on_descent(self):
        params = LineSearchParams(alpha_u=1.0, nu=0.5, eta=1e-3)
        phi0 = 1.0
        alpha, backtracks = line_search_alpha(
            lambda a: phi0 - a * 1.0, phi0, delta_l=1.0, relax=0.0, params=params)
        assert alpha == 1.0
        assert backtracks == 0

    def test_flat_merit_exhausts(self):
        params = LineSearchParams(max_backtracks=10)
        with pytest.raises(BacktrackExhausted):
            line_search_alpha(lambda a: 1.0, 1.0, delta_l=1.0, relax=0.0,
                              params=params)

    def test_relaxation_alone_accepts(self):
        params = LineSearchParams(alpha_u=1.0, eta=1e-3)
        alpha, backtracks = line_search_alpha(
            lambda a: 1.0, 1.0, delta_l=1.0, relax=0.26, params=params)
        assert alpha == 1.0
        assert backtracks == 0

    def test_accepted_alpha_satisfies_condition(self):
        rng = np.random.default_rng(41)
        params = LineSearchParams()
        for _ in range(50):
            slope = float(rng.uniform(0.1, 2.0))
            curv = float(rng.uniform(0.1, 50.0))
            phi0 = float(rng.uniform(-1, 1))
            merit = lambda a: phi0 - slope * a + 0.5 * curv * a * a
            delta_l = slope
            alpha, _ = line_search_alpha(merit, phi0, delta_l, 0.0, params)
            assert merit(alpha) <= phi0 - params.eta * alpha * delta_l + 1e-12
