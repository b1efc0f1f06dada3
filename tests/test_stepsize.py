import math
from types import SimpleNamespace

import numpy as np
import pytest

from noisy_sqp import stepsize
from noisy_sqp.noise import NoiseSpec, NoisyOracle
from noisy_sqp.problems import registry_by_name
from noisy_sqp.stepsize import (
    CHI0,
    LINE_SEARCH_FAILURE,
    LIPSCHITZ_DIRS,
    LS_ETA,
    MAX_BACKTRACKS,
    NONFINITE,
    SIGMA_CHI,
    SIGMA_ZETA,
    XI0,
    ZETA0,
    AdaptiveState,
    adaptive_alpha,
    clamp_beta_admissible,
    epsilon_Ak,
    estimate_lipschitz,
    line_search_alpha,
    update_chi_zeta,
    xi_update,
)


def make_state(L_est=1.0, Gamma_est=1.0, chi=CHI0, xi=XI0):
    # the Lipschitz estimates and the start values of chi and xi are set after start-up
    p = registry_by_name()["quad-linear"]
    oracle = NoisyOracle(p, NoiseSpec(), np.random.default_rng(0))
    s = AdaptiveState(oracle, p.x0, np.eye(p.n))
    s.L_est, s.Gamma_est = L_est, Gamma_est
    s.chi, s.xi = chi, xi
    return s


class TestUpdateChiZeta:
    def test_zero_tangential_no_update(self):
        s = make_state()
        # u = 0, v = d = (1, 0), H = I
        update_chi_zeta(s, uu=0.0, vv=1.0, dHd=1.0)
        assert s.chi == CHI0 and s.zeta == ZETA0

    def test_tangential_dominated_updates(self):
        s = make_state()
        # u = d = (1, 0), v = 0, H = I
        update_chi_zeta(s, uu=1.0, vv=0.0, dHd=1.0)
        assert s.chi == (1.0 + SIGMA_CHI) * CHI0
        assert s.zeta == (1.0 - SIGMA_ZETA) * ZETA0

    def test_composition(self):
        s = make_state()
        for _ in range(3):
            update_chi_zeta(s, uu=1.0, vv=0.0, dHd=1.0)
        assert s.chi == pytest.approx(CHI0 * (1.0 + SIGMA_CHI) ** 3)


class TestAdaptiveStart:
    def test_holds_the_seeds_and_the_clamped_estimates(self):
        p = registry_by_name()["unit-circle"]
        oracle = NoisyOracle(p, NoiseSpec(), np.random.default_rng(4))
        s = AdaptiveState(oracle, p.x0, np.eye(p.n))
        assert (s.chi, s.zeta, s.xi) == (CHI0, ZETA0, XI0)
        L, Gamma = estimate_lipschitz(NoisyOracle(p, NoiseSpec(), np.random.default_rng(4)),
                                      p.x0)
        assert (s.L_est, s.Gamma_est) == clamp_beta_admissible(L, Gamma)
        assert oracle.counters.snapshot() == (0, LIPSCHITZ_DIRS + 1)

    def test_step_records_the_controller_fields(self):
        s = make_state()
        u, v = np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.0, 0.0])
        bundle = SimpleNamespace(u=u, v=v, d=u + v)
        x = np.ones(4)
        alpha, x_next, fields, status = s.step(x, None, bundle, 1.0, 0.6, 1.25)
        assert status is None and 0.0 < alpha <= 1.0
        assert np.array_equal(x_next, x + alpha * bundle.d)
        assert (fields["chi"], fields["zeta"], fields["xi"]) == (s.chi, s.zeta, s.xi)
        assert alpha == min(max(fields["alpha_suff"], fields["alpha_min"]), fields["alpha_max"])


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
        s = make_state(xi=1.0)
        xi_update(s, delta_l=0.3, tau=1.0, uu=0.0, vv=1.0, dd=1.0)
        assert s.xi == pytest.approx(0.3)

    def test_tangential_dominated_trial(self):
        s = make_state(xi=1.0)
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
        s = make_state(xi=1e-8)
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
        # at the preset beta = 1, eta = 0.5, xi0 = 1 and tau0 = 1
        L, Gamma = clamp_beta_admissible(1e-4, 1e-4)
        assert 1.0 * L + Gamma >= 2 * 0.5 * 1.0 * 1.0 - 1e-12

    def test_no_clamp_when_admissible(self):
        L, Gamma = clamp_beta_admissible(10.0, 10.0)
        assert (L, Gamma) == (10.0, 10.0)


class TestEpsilonAk:
    def test_zero_noise(self):
        assert epsilon_Ak(1.0, 0, 0, 0, 0, 1.0) == 0.0

    def test_direct_evaluation(self):
        val = epsilon_Ak(1.0, 1e-2, 1e-2, 0.1, 0.1, 1.0)
        assert val == pytest.approx(0.26)

    def test_vanishing_tau_limit(self):
        val = epsilon_Ak(0.0, 1e-2, 1e-2, 0.1, 0.1, 2.0)
        assert val == pytest.approx(4 * 1e-2 + 0.1 * 2.0)


class MeritOracle:
    """Value samples of f at the first coordinate, with no constraints, so
    the merit value at tau = 1 is f; counts the samples."""

    def __init__(self, f):
        self.f, self.samples = f, 0

    def sample(self, x, want):
        assert want == "value"
        self.samples += 1
        return SimpleNamespace(f_bar=self.f(float(x[0])), c_bar=np.zeros(0))


def search(f, phi0, delta_l, relax):
    """Line search from x = 0 along d = 1: the trial at alpha is the point alpha."""
    oracle = MeritOracle(f)
    out = line_search_alpha(oracle, np.zeros(1), np.ones(1), 1.0, phi0, delta_l, relax)
    return out, oracle.samples


class TestLineSearch:
    def test_first_trial_accepted_on_descent(self):
        phi0 = 1.0
        (alpha, point, phi, backtracks, status), samples = search(
            lambda a: phi0 - a * 1.0, phi0, delta_l=1.0, relax=0.0)
        assert (alpha, backtracks, status, samples) == (1.0, 0, None, 1)
        assert point.tolist() == [1.0] and phi == 0.0

    def test_flat_merit_exhausts(self, monkeypatch):
        # ten backtracks, before 1 - LS_ETA * alpha rounds to 1
        monkeypatch.setattr(stepsize, "MAX_BACKTRACKS", 10)
        (alpha, point, phi, backtracks, status), samples = search(
            lambda a: 1.0, 1.0, delta_l=1.0, relax=0.0)
        assert status == LINE_SEARCH_FAILURE
        assert alpha == 0.0 and phi is None
        assert backtracks == 10
        assert samples == 10 + 1

    @pytest.mark.parametrize("relax", [0.0, 0.26])
    def test_search_ends_once_the_armijo_decrease_rounds_away(self, relax):
        # at the preset's MAX_BACKTRACKS: with relax = 0 a flat merit would pass the
        # bound once it rounds to phi0, and with relax > 0 this merit passes no bound
        merit = 1.0 if relax == 0.0 else 2.0
        (alpha, point, phi, backtracks, status), samples = search(
            lambda a: merit, 1.0, delta_l=1.0, relax=relax)
        assert (status, alpha, phi) == (LINE_SEARCH_FAILURE, 0.0, None)
        assert samples == backtracks < MAX_BACKTRACKS
        assert 1.0 - LS_ETA * 0.5 ** backtracks == 1.0 > 1.0 - LS_ETA * 0.5 ** (backtracks - 1)

    def test_nan_trial_stops_after_one_sample(self):
        (alpha, point, phi, backtracks, status), samples = search(
            lambda a: math.nan, 1.0, delta_l=1.0, relax=0.0)
        assert status == NONFINITE
        assert (alpha, phi, backtracks, samples) == (0.0, None, 0, 1)

    def test_relaxation_alone_accepts(self):
        (alpha, _, _, backtracks, status), _ = search(
            lambda a: 1.0, 1.0, delta_l=1.0, relax=0.26)
        assert (alpha, backtracks, status) == (1.0, 0, None)

    def test_accepted_alpha_satisfies_condition(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            slope = float(rng.uniform(0.1, 2.0))
            curv = float(rng.uniform(0.1, 50.0))
            phi0 = float(rng.uniform(-1, 1))
            merit = lambda a: phi0 - slope * a + 0.5 * curv * a * a
            delta_l = slope
            (alpha, point, phi, _, status), _ = search(merit, phi0, delta_l, 0.0)
            assert status is None and point.tolist() == [alpha]
            assert phi == merit(alpha) <= phi0 - LS_ETA * alpha * delta_l + 1e-12
