import sys

import numpy as np
import pytest

from noisy_sqp.noise import (
    EPS_MAX,
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


def four_uniform_draws(problem, spec, rng, want):
    """One ``Generator.uniform`` call per drawn error, in the order e_f, e_c, e_g, e_J."""
    m, n = problem.m, problem.n
    e_f = e_g = e_c = e_J = 0.0
    if want in ("value", "both"):
        e_f = float(rng.uniform(-spec.eps_f, spec.eps_f)) if spec.eps_f > 0 else 0.0
        if spec.eps_c > 0:
            a = spec.eps_c / np.sqrt(m)
            e_c = rng.uniform(-a, a, size=m)
        else:
            e_c = np.zeros(m)
        for src, dst in problem.shared_noise_rows:
            e_c[dst] = e_c[src]
    if want in ("derivative", "both"):
        if spec.eps_g > 0:
            a = spec.eps_g / np.sqrt(n)
            e_g = rng.uniform(-a, a, size=n)
        else:
            e_g = np.zeros(n)
        if spec.eps_J > 0:
            a = spec.eps_J / np.sqrt(m * n)
            e_J = rng.uniform(-a, a, size=(m, n))
        else:
            e_J = np.zeros((m, n))
        for src, dst in problem.shared_noise_rows:
            e_J[dst, :] = e_J[src, :]
    return e_f, e_g, e_c, e_J


class TestOneDrawStream:
    """One ``rng.random`` call per sample reproduces four ``uniform`` calls."""

    SPECS = [
        NoiseSpec(eps_f=1e-2, eps_g=1e-1, eps_c=1e-2, eps_J=1e-1),
        NoiseSpec(eps_f=0.3, eps_g=0.0, eps_c=0.2, eps_J=0.05),
        NoiseSpec(eps_f=0.0, eps_g=0.2, eps_c=0.1, eps_J=0.0),
        NoiseSpec(eps_f=1e-4, eps_g=1e-2, eps_c=0.0, eps_J=1e-2),
        NoiseSpec(),
    ]

    @pytest.mark.parametrize("name", ["quad-linear", "quad-linear-10", "sphere-dup",
                                      "unit-circle+dup"])
    @pytest.mark.parametrize("spec_index", range(len(SPECS)))
    def test_bitwise_equal_to_four_uniform_calls(self, name, spec_index):
        if name.endswith("+dup"):
            problem = duplicate_last_constraint(registry_by_name()[name[:-4]])
        else:
            problem = registry_by_name()[name]
        spec = self.SPECS[spec_index]
        exact = evaluate(problem, problem.x0)
        for seed in range(5):
            oracle = make_oracle(problem, spec, seed)
            rng = np.random.default_rng(seed)
            for want in ("both", "value", "derivative", "both", "value"):
                got = oracle._perturbations(exact, want)
                ref = four_uniform_draws(problem, spec, rng, want)
                for g, r in zip(got, ref):
                    assert type(g) is type(r)
                    assert np.asarray(g).shape == np.asarray(r).shape
                    assert np.asarray(g).tobytes() == np.asarray(r).tobytes()
                assert (oracle.rng.bit_generator.state == rng.bit_generator.state)

    def test_shared_rows_are_copies(self):
        problem = duplicate_last_constraint(registry_by_name()["quad-linear"])
        oracle = make_oracle(problem, self.SPECS[0], seed=7)
        _, _, e_c, e_J = oracle._perturbations(evaluate(problem, problem.x0), "both")
        (src, dst), = problem.shared_noise_rows
        assert e_c[dst] == e_c[src]
        assert np.array_equal(e_J[dst], e_J[src])
        assert e_c[0] != e_c[src]

    def test_zero_noise_takes_no_draw(self):
        p = registry_by_name()["quad-linear"]
        oracle = make_oracle(p, NoiseSpec(), seed=3)
        before = oracle.rng.bit_generator.state
        oracle.sample(p.x0)
        assert oracle.rng.bit_generator.state == before

    def test_unbounded_range_raises_like_uniform(self):
        # a bound whose range 2 eps overflows is refused when the spec is built;
        # at the largest admitted bound, EPS_MAX, every sample is finite
        with pytest.raises(OverflowError):
            np.random.default_rng(0).uniform(-1e308, 1e308)
        for name in ("eps_f", "eps_g", "eps_c", "eps_J"):
            with pytest.raises(ValueError, match=f"{name} must be a number in \\[0, "):
                NoiseSpec(**{name: 1e308})
        assert EPS_MAX == sys.float_info.max / 2
        p = registry_by_name()["unit-circle"]
        widest = NoiseSpec(eps_f=EPS_MAX, eps_g=EPS_MAX, eps_c=EPS_MAX, eps_J=EPS_MAX)
        oracle = make_oracle(p, widest)
        for _ in range(20):
            noisy = oracle.sample(p.x0, "both")
            parts = (noisy.f_bar, noisy.g_bar, noisy.c_bar, noisy.J_bar)
            assert all(np.isfinite(part).all() for part in parts)
        np.random.default_rng(0).uniform(-EPS_MAX, EPS_MAX)

    def test_sample_keeps_its_exact_evaluation(self):
        p = registry_by_name()["quad-ellipse"]
        oracle = make_oracle(p, self.SPECS[0], seed=1)
        x = p.x0 + 0.5
        oracle.sample(x)
        ex = evaluate(p, x)
        assert oracle.exact.f == ex.f
        for got, ref in ((oracle.exact.g, ex.g), (oracle.exact.c, ex.c),
                         (oracle.exact.J, ex.J)):
            assert got.tobytes() == ref.tobytes()


class TestExactReuse:
    """Only the exact evaluation at a byte-equal point is reused; noise draws
    and counters are those of a fresh sample."""

    def _counting(self, monkeypatch):
        from noisy_sqp import noise
        calls = []
        evaluate_ = noise.evaluate

        def counted(problem, x):
            calls.append(np.array(x))
            return evaluate_(problem, x)

        monkeypatch.setattr(noise, "evaluate", counted)
        return calls

    def test_byte_equal_point_reuses_the_evaluation(self, monkeypatch):
        calls = self._counting(monkeypatch)
        p = registry_by_name()["quad-ellipse"]
        oracle = make_oracle(p, TestOneDrawStream.SPECS[0], seed=2)
        x = p.x0 + 0.25
        first = oracle.sample(x, "value")
        exact = oracle.exact
        second = oracle.sample(x.copy(), "both")
        assert len(calls) == 1 and oracle.exact is exact
        assert first.f_bar != second.f_bar  # fresh noise at the same point
        assert oracle.counters.snapshot() == (2, 1)
        oracle.sample(list(x), "value")
        assert len(calls) == 1

    def test_point_mutated_in_place_is_evaluated_again(self, monkeypatch):
        calls = self._counting(monkeypatch)
        p = registry_by_name()["quad-ellipse"]
        oracle = make_oracle(p, TestOneDrawStream.SPECS[0], seed=2)
        x = p.x0.copy()
        oracle.sample(x)
        x[0] += 0.5
        oracle.sample(x)
        assert len(calls) == 2
        ex = evaluate(p, x)
        assert oracle.exact.f == ex.f
        assert oracle.exact.g.tobytes() == ex.g.tobytes()

    def test_other_shape_is_evaluated_again(self):
        p = registry_by_name()["quad-ellipse"]
        oracle = make_oracle(p, NoiseSpec(), seed=2)
        oracle.sample(p.x0)
        with pytest.raises(ValueError, match="1-D"):
            oracle.sample(p.x0.reshape(1, -1))
