import numpy as np
import pytest

from noisy_sqp.noise import (
    EvalCounters,
    NoiseSpec,
    NoisyOracle,
    derive_gradient_noise,
)
from noisy_sqp.problems import duplicate_last_constraint, evaluate, registry_by_name


def make_oracle(problem, spec, seed=0):
    return NoisyOracle(problem, spec, np.random.default_rng(seed))


class TestNoiseSpec:
    def test_eps_o_must_not_exceed_eps_c(self):
        with pytest.raises(ValueError):
            NoiseSpec(eps_c=0.01, eps_o=0.02)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(eps_f=-1.0)


class TestDeriveGradientNoise:
    def test_benchmark_grid_value(self):
        assert derive_gradient_noise(1e-4, 1e-4) == (pytest.approx(1e-2), pytest.approx(1e-2))

    def test_zero(self):
        assert derive_gradient_noise(0.0, 0.0) == (0.0, 0.0)

    def test_benchmark_grid_combination(self):
        eg, eJ = derive_gradient_noise(1e-8, 1e-2)
        assert eg == pytest.approx(1e-4)
        assert eJ == pytest.approx(1e-1)


class TestSampling:
    def test_zero_noise_is_exact(self):
        p = registry_by_name()["unit-circle"]
        oracle = make_oracle(p, NoiseSpec())
        noisy = oracle.sample(p.x0)
        exact = evaluate(p, p.x0)
        assert noisy.f_bar == exact.f
        assert np.array_equal(noisy.g_bar, exact.g)
        assert np.array_equal(noisy.c_bar, exact.c)
        assert np.array_equal(noisy.J_bar, exact.J)

    def test_monte_carlo_objective_bound(self):
        p = registry_by_name()["unit-circle"]
        oracle = make_oracle(p, NoiseSpec(eps_f=0.1), seed=42)
        exact = evaluate(p, p.x0)
        errs = np.array([abs(oracle.sample(p.x0, "value").f_bar - exact.f)
                         for _ in range(10000)])
        assert errs.max() <= 0.1
        assert errs.max() >= 0.09

    def test_deterministic_streams(self):
        p = registry_by_name()["quad-linear"]
        spec = NoiseSpec(eps_f=0.1, eps_g=0.1, eps_c=0.1, eps_J=0.1)
        a = make_oracle(p, spec, seed=42)
        b = make_oracle(p, spec, seed=42)
        for _ in range(5):
            na = a.sample(p.x0)
            nb = b.sample(p.x0)
            assert na.f_bar == nb.f_bar
            assert np.array_equal(na.J_bar, nb.J_bar)

    def test_fresh_draws_per_call(self):
        p = registry_by_name()["quad-linear"]
        oracle = make_oracle(p, NoiseSpec(eps_f=0.1), seed=1)
        f1 = oracle.sample(p.x0, "value").f_bar
        f2 = oracle.sample(p.x0, "value").f_bar
        assert f1 != f2

    def test_norm_bounds_hold_exactly(self):
        p = registry_by_name()["quad-ellipse"]
        spec = NoiseSpec(eps_f=0.3, eps_g=0.2, eps_c=0.1, eps_J=0.05)
        oracle = make_oracle(p, spec, seed=2)
        exact = evaluate(p, p.x0)
        for _ in range(200):
            noisy = oracle.sample(p.x0)
            assert abs(noisy.f_bar - exact.f) <= spec.eps_f
            assert np.linalg.norm(noisy.g_bar - exact.g) <= spec.eps_g
            assert np.linalg.norm(noisy.c_bar - exact.c) <= spec.eps_c
            # Frobenius dominates the spectral norm required by the noise model
            assert np.linalg.norm(noisy.J_bar - exact.J) <= spec.eps_J

    def test_counters_semantics(self):
        p = registry_by_name()["unit-circle"]
        oracle = make_oracle(p, NoiseSpec())
        oracle.sample(p.x0, "value")
        oracle.sample(p.x0, "derivative")
        oracle.sample(p.x0, "both")
        assert oracle.counters.function_evals == 2
        assert oracle.counters.gradient_evals == 2
        assert oracle.counters.weighted_total == 2 + 2 * 2

    def test_value_request_leaves_derivatives_none(self):
        p = registry_by_name()["unit-circle"]
        oracle = make_oracle(p, NoiseSpec())
        noisy = oracle.sample(p.x0, "value")
        assert noisy.g_bar is None and noisy.J_bar is None
        noisy = oracle.sample(p.x0, "derivative")
        assert noisy.f_bar is None and noisy.c_bar is None

    def test_weighted_total_identity(self):
        c = EvalCounters(function_evals=7, gradient_evals=3)
        assert c.weighted_total == 13


class TestDuplicatedNoiseSharing:
    def test_duplicated_rows_share_noise(self):
        p = duplicate_last_constraint(registry_by_name()["unit-circle"])
        spec = NoiseSpec(eps_f=0.1, eps_g=0.1, eps_c=0.1, eps_J=0.1)
        oracle = make_oracle(p, spec, seed=3)
        for _ in range(20):
            noisy = oracle.sample(p.x0)
            assert noisy.c_bar[0] == noisy.c_bar[1]
            assert np.array_equal(noisy.J_bar[0], noisy.J_bar[1])

    def test_shared_noise_still_within_bounds(self):
        p = duplicate_last_constraint(registry_by_name()["unit-circle"])
        spec = NoiseSpec(eps_c=0.1, eps_J=0.1)
        oracle = make_oracle(p, spec, seed=4)
        exact = evaluate(p, p.x0)
        for _ in range(200):
            noisy = oracle.sample(p.x0)
            assert np.linalg.norm(noisy.c_bar - exact.c) <= spec.eps_c
            assert np.linalg.norm(noisy.J_bar - exact.J) <= spec.eps_J
