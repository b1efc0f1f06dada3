import math

import numpy as np
import pytest

from noisy_sqp.linalg import norm2, norm_inf
from noisy_sqp.merit import (
    Linearization,
    merit_value,
    model_reduction,
    tau_trial,
    tau_update,
)


class TestMeritValue:
    def test_direct_evaluation(self):
        assert merit_value(1.0, 2.0, np.array([3.0, 4.0])) == pytest.approx(7.0)

    def test_feasible_point(self):
        assert merit_value(0.7, 2.0, np.zeros(3)) == pytest.approx(1.4)

    def test_zero_objective(self):
        assert merit_value(0.5, 0.0, np.array([1.0])) == pytest.approx(1.0)


class TestLinearization:
    def test_products_equal_their_formulas_bitwise(self):
        rng = np.random.default_rng(3)
        for m, n in ((1, 2), (2, 5), (4, 7)):
            g, c, J = rng.standard_normal(n), rng.standard_normal(m), rng.standard_normal((m, n))
            lin = Linearization(g, c, J)
            assert lin.g is g and lin.c is c and lin.J is J
            assert np.array_equal(lin.Jtc, J.T @ c)
            assert lin.Jtc_norm == norm2(J.T @ c)
            assert lin.Jtc_inf == norm_inf(J.T @ c)
            assert lin.c_norm == norm2(c) and lin.g_norm == norm2(g)


class TestModelReduction:
    def test_zero_displacement(self):
        lin = Linearization(np.ones(2), np.ones(1), np.ones((1, 2)))
        assert model_reduction(1.0, lin.c_norm, *lin.along(np.zeros(2))) == 0.0

    def test_direct_evaluation(self):
        lin = Linearization(np.array([1.0, 0.0]), np.array([1.0]), np.array([[1.0, 0.0]]))
        val = model_reduction(1.0, lin.c_norm, *lin.along(np.array([-1.0, 0.0])))
        assert val == pytest.approx(2.0)

    def test_full_linearized_feasibility_step(self):
        c = np.array([3.0, 4.0])
        J = np.eye(2)
        d = -c
        lin = Linearization(np.zeros(2), c, J)
        val = model_reduction(1.0, lin.c_norm, *lin.along(d))
        assert val == pytest.approx(np.linalg.norm(c))


class TestTauTrial:
    def test_sign_branch_infinite(self):
        # g'd = -1, u'Hu = u'u = 0.707^2
        trial = tau_trial(-1.0, 0.707 ** 2, 0.707 ** 2, 1.0, 0.0)
        assert math.isinf(trial)

    def test_benchmark_default_constants(self):
        # direct evaluation with sigma_c = 0.1, sigma_r = 0.9999
        # g'd = 1, u'Hu = 1 > lambda_u ||u||^2
        trial = tau_trial(1.0, 1.0, 1.0, 1.0, 0.0)
        expected = (1.0 - 0.1 / 0.9999) * 1.0 / (1.0 + 1.0)
        assert trial == pytest.approx(expected, rel=1e-14)

    def test_zero_decrease(self):
        trial = tau_trial(1.0, 1.0, 1.0, 1.0, 1.0)
        assert trial == pytest.approx(0.0)


class TestTauUpdate:
    def test_keep_on_infinite_trial(self):
        assert tau_update(1.0, math.inf) == 1.0

    def test_cut_to_trial(self):
        assert tau_update(1.0, 0.45) == pytest.approx(0.4455)

    def test_keep_branch(self):
        assert tau_update(0.2, 0.45) == pytest.approx(0.2)

    def test_history_non_increasing_under_random_stream(self):
        rng = np.random.default_rng(21)
        taus = [1.0]
        for _ in range(200):
            trial = float(rng.uniform(0.0, 2.0)) if rng.random() < 0.8 else math.inf
            taus.append(tau_update(taus[-1], trial))
        assert all(b <= a + 1e-15 for a, b in zip(taus, taus[1:]))
        assert taus[-1] > 0.0
