"""A run trace's records: what each keeps, how its views read and write, its size.

A record keeps its scalars in slots and its vectors in one float64 row;
``x``, ``noisy``, ``exact`` and ``bundle`` are views into that row, built on
access.  These tests hold that contract: each field keeps the type that the
hot-path digests hash, the views hold the bytes the loop made, a write into
a view's array reaches what the trace audit reads while setting a view's
attribute changes only that view, a deep copy is independent, records and
traces compare by identity, and a record of a 1000-iteration run stays
under 2 KB.

    PYTHONPATH=src python tests/test_trace_records.py

prints the bytes per record of that run.
"""

import copy
import gc
import tracemalloc

import numpy as np
import pytest

from noisy_sqp import driver
from noisy_sqp.driver import SolverParams, solve
from noisy_sqp.noise import NoiseSpec, NoisyEvaluation, NoisyOracle, derive_gradient_noise
from noisy_sqp.problems import ExactEvaluation, get_problem
from noisy_sqp.steps import StepBundle
from noisy_sqp.verify import assert_trace_invariants
from test_verify import failing


def noise_at(eps):
    eps_g, eps_J = derive_gradient_noise(eps, eps)
    return NoiseSpec(eps_f=eps, eps_g=eps_g, eps_c=eps, eps_J=eps_J)


def bytes_per_record() -> float:
    """What a warmed-up 1000-iteration quad-linear-10 run (line search, pessimistic,
    eps 1e-2, seed 0) keeps per record, as tracemalloc counts it."""
    problem = get_problem("quad-linear-10")
    params = SolverParams.benchmark_defaults(noise_at(1e-2), variant="line_search",
                                             optimism="pessimistic", max_iters=1000)
    solve(problem, params, 0)  # warm-up: caches and first-call allocations
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = solve(problem, params, 0)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.records) == 1000
    return kept / len(trace.records)


def test_a_record_of_a_long_run_keeps_at_most_2_kb():
    # 3.6 KB while each vector was its own array and each view a dataclass
    assert bytes_per_record() <= 2.0 * 1024


# (problem, eps, variant, optimism): TT1 and TT2 steps under both controllers,
# and zero-noise quad-ellipse, whose every step is a dense exact_fallback
RUNS = [("unit-circle", 1e-2, "adaptive", "optimistic"),
        ("unit-circle", 1e-2, "line_search", "optimistic"),
        ("quad-ellipse", 0.0, "adaptive", "pessimistic")]


def run(name, eps, variant, optimism):
    params = SolverParams.benchmark_defaults(noise_at(eps), variant=variant, optimism=optimism,
                                             max_iters=40)
    return solve(get_problem(name), params, 0), params


@pytest.fixture(scope="module")
def runs():
    return [run(*spec) for spec in RUNS]


def is_float_or_none(value):
    return value is None or type(value) is float


def is_vector(value, shape):
    return type(value) is np.ndarray and value.dtype == float and value.shape == shape


def test_each_record_field_keeps_its_type(runs):
    for trace, _ in runs:
        n, m = trace.n, trace.m
        for rec in trace.records:
            assert type(rec.k) is int and type(rec.branch) is str
            for value in (rec.alpha, rec.tau_prev, rec.tau):
                assert type(value) is float
            for value in (rec.delta_l, rec.chi, rec.zeta, rec.xi, rec.alpha_suff,
                          rec.alpha_min, rec.alpha_max, rec.phi0, rec.phi_accept, rec.relax):
                assert is_float_or_none(value)
            assert rec.backtracks is None or type(rec.backtracks) is int
            assert type(rec.counters_delta) is tuple
            assert all(type(count) is int for count in rec.counters_delta)
            assert is_vector(rec.x, (n,))
            noisy, exact = rec.noisy, rec.exact
            assert type(noisy) is NoisyEvaluation and type(exact) is ExactEvaluation
            assert type(noisy.f_bar) is float and type(exact.f) is float
            for g, c, J in ((noisy.g_bar, noisy.c_bar, noisy.J_bar), (exact.g, exact.c, exact.J)):
                assert is_vector(g, (n,)) and is_vector(c, (m,)) and is_vector(J, (m, n))
            b = rec.bundle
            if b is None:
                continue
            assert type(b) is StepBundle and type(b.test) is str
            assert b.fallback_case is None or type(b.fallback_case) is str
            assert type(b.minres_iters) is int and type(b.cg_iters) is int
            assert type(b.gd) is float and type(b.cd_norm) is float
            assert is_float_or_none(b.tau_trial)
            for vector, size in ((b.v, n), (b.u, n), (b.d, n), (b.y, m), (b.rho, n), (b.r, m)):
                assert is_vector(vector, (size,))


def test_views_hold_the_bytes_the_loop_made(monkeypatch):
    # the samples, snapshots and bundles the loop made, in the order it made them
    made = []
    sample, tangential_step = NoisyOracle.sample, driver.steps.tangential_step

    def keep_sample(oracle, x, want="both"):
        noisy = sample(oracle, x, want)
        if want == "both":  # the iterate's sample, not a start-up or line-search one
            made.append((x, noisy, oracle.exact))
        return noisy

    def keep_bundle(*args, **kwargs):
        bundle = tangential_step(*args, **kwargs)
        made[-1] += (bundle,)
        return bundle

    monkeypatch.setattr(NoisyOracle, "sample", keep_sample)
    monkeypatch.setattr(driver.steps, "tangential_step", keep_bundle)
    for spec in RUNS:
        made.clear()
        trace, _ = run(*spec)
        assert len(made) == len(trace.records)
        for rec, (x, noisy, exact, *bundle) in zip(trace.records, made):
            pairs = [(rec.x, x), (rec.noisy.f_bar, noisy.f_bar), (rec.exact.f, exact.f)]
            pairs += [(getattr(rec.noisy, name), getattr(noisy, name))
                      for name in ("g_bar", "c_bar", "J_bar")]
            pairs += [(getattr(rec.exact, name), getattr(exact, name)) for name in "gcJ"]
            if bundle and bundle[0] is not None:
                pairs += [(getattr(rec.bundle, name), getattr(bundle[0], name))
                          for name in ("v", "u", "d", "y", "rho", "r")]
            else:
                assert rec.bundle is None
            for kept, original in pairs:
                assert np.asarray(kept).tobytes() == np.asarray(original).tobytes()


def test_writing_into_x_or_a_bundle_vector_reaches_the_audit(runs):
    trace, _ = copy.deepcopy(runs[0])
    trace.records[2].x[...] += 0.5
    assert (1, "iterate update identity broken") in failing(trace)

    trace, _ = copy.deepcopy(runs[0])
    rec = next(r for r in trace.records if r.bundle is not None)
    rec.bundle.v[...] += 1.0
    assert (rec.k, "d != v + u") in failing(trace)


@pytest.mark.parametrize("name", ["v", "u", "d", "y", "rho", "r"])
def test_each_bundle_vector_writes_into_the_record(runs, name):
    trace, _ = copy.deepcopy(runs[2])
    rec = trace.records[0]
    bundle = rec.bundle
    before = {other: getattr(bundle, other).copy() for other in ("v", "u", "d", "y", "rho", "r")}
    getattr(bundle, name)[...] += 1.0
    for other, old in before.items():
        assert np.array_equal(getattr(rec.bundle, other), old + 1.0 if other == name else old)


def test_setting_a_views_attribute_changes_only_that_view(runs):
    trace, params = copy.deepcopy(runs[0])
    rec = next(r for r in trace.records if r.bundle is not None)
    bundle, noisy, exact = rec.bundle, rec.noisy, rec.exact
    bundle.v, bundle.d = bundle.v + 1.0, -bundle.d
    noisy.g_bar, exact.c = noisy.g_bar + 1.0, exact.c + 1.0
    assert not np.array_equal(rec.bundle.v, bundle.v)
    assert not np.array_equal(rec.noisy.g_bar, noisy.g_bar)
    assert not np.array_equal(rec.exact.c, exact.c)
    assert assert_trace_invariants(trace, params) == []
    for name in ("u", "rho"):  # a view into z or resid has no setter
        with pytest.raises(AttributeError):
            setattr(bundle, name, getattr(bundle, name))
    with pytest.raises(AttributeError):
        rec.x = rec.x + 1.0


def test_an_in_place_write_into_a_view_changes_the_record(runs):
    trace, _ = copy.deepcopy(runs[1])
    rec = trace.records[0]
    J_bar, g = rec.noisy.J_bar.copy(), rec.exact.g.copy()
    rec.noisy.J_bar[0, 0] += 1.0
    rec.exact.g[-1] = -g[-1] - 1.0
    assert rec.noisy.J_bar[0, 0] == J_bar[0, 0] + 1.0
    assert rec.exact.g[-1] == -g[-1] - 1.0


def test_a_deep_copy_is_independent(runs):
    trace, params = runs[0]
    clone = copy.deepcopy(trace)
    for rec in clone.records:
        assert not np.shares_memory(rec.x, trace.records[rec.k].x)
        rec.x[...] += 1.0
        if rec.bundle is not None:
            rec.bundle.d[...] *= -1.0
    assert assert_trace_invariants(trace, params) == []
    assert assert_trace_invariants(clone, params) != []


def test_traces_and_records_compare_by_identity(runs):
    trace, _ = runs[2]
    clone = copy.deepcopy(trace)
    assert trace == trace and trace.records[0] == trace.records[0]
    assert not clone == trace and clone != trace
    assert not clone.records[0] == trace.records[0]
    rec = trace.records[0]  # each access builds a new view
    assert rec.noisy != rec.noisy and rec.exact != rec.exact and rec.bundle != rec.bundle


def test_iteration_totals_read_the_stored_scalars(runs):
    for trace, _ in runs:
        bundles = [r.bundle for r in trace.records if r.bundle is not None]
        assert trace.minres_iters == sum(b.minres_iters for b in bundles)
        assert trace.cg_iters == sum(b.cg_iters for b in bundles)
    assert runs[2][0].minres_iters > 0


if __name__ == "__main__":  # the figure CI's summary reports
    print(f"{bytes_per_record():.0f}")
