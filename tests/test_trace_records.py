"""A run trace's table and its records: what each keeps, how views read and write, its size.

A trace is one table: record k is row k of a list of blocks of
``BEST_ITERATE_CHUNK`` rows of one aligned numpy structured dtype, whose
named float64, int64 and object scalar fields (a text field holds its
name) come ahead of its float64 vector fields and its last field, ``has``,
marks the scalars a row holds.
``trace.chunks()`` views each block's written rows, and
``trace.records`` is a list of views of the rows, built on first read: a
scalar field reads the table and setting it writes there, and ``x``,
``noisy``, ``exact`` and ``bundle`` are views into the row, built on access.
These tests hold that contract: each field keeps the type that the hot-path
digests hash and a NaN keeps its bits, the views hold the bytes the loop
made on both sides of each block boundary, a write into a view's array or a
record's scalar reaches what the trace audit and ``best_iterate`` read while
setting a view's attribute changes only that view, a deep copy is
independent, every row's size is a multiple of 8 bytes, records and traces
compare by identity, a record of a
1000-iteration run stays under 1.4 KB, and the allocations a trace holds
grow with its blocks, not its records.

    PYTHONPATH=src python tests/test_trace_records.py

prints the bytes per record of that run.
"""

import copy
import gc
import math
import struct
import tracemalloc

import numpy as np
import pytest

from noisy_sqp import driver
from noisy_sqp.driver import BEST_ITERATE_CHUNK, SolverParams, solve
from noisy_sqp.harness import best_iterate
from noisy_sqp.noise import NoiseSpec, NoisyEvaluation, NoisyOracle, derive_gradient_noise
from noisy_sqp.problems import (ExactEvaluation, builtin_registry, duplicate_last_constraint,
                                 get_problem)
from noisy_sqp.steps import EXACT_FALLBACK, TT1, StepBundle
from noisy_sqp.verify import assert_trace_invariants
from test_verify import failing


def noise_at(eps):
    eps_g, eps_J = derive_gradient_noise(eps, eps)
    return NoiseSpec(eps_f=eps, eps_g=eps_g, eps_c=eps, eps_J=eps_J)


def kept_by_a_run(iters: int) -> tuple:
    """(bytes, allocations) that tracemalloc counts as held by a warmed-up quad-linear-10
    run of ``iters`` iterations (line search, pessimistic, eps 1e-2, seed 0), before its
    records are read; tracemalloc's own snapshots are left out."""
    problem = get_problem("quad-linear-10")
    params = SolverParams(noise_at(1e-2), variant="line_search",
                          optimism="pessimistic", max_iters=iters)
    solve(problem, params, 0)  # warm-up: caches and first-call allocations
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        trace = solve(problem, params, 0)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert trace.size == iters and "records" not in vars(trace)
    own = [tracemalloc.Filter(False, tracemalloc.__file__)]
    diff = after.filter_traces(own).compare_to(before.filter_traces(own), "filename")
    return sum(s.size_diff for s in diff), sum(s.count_diff for s in diff)


def bytes_per_record() -> float:
    """What the 1000-iteration run of `kept_by_a_run` keeps per record."""
    return kept_by_a_run(1000)[0] / 1000


def test_a_record_of_a_long_run_keeps_at_most_1_4_kb():
    # 3.6 KB while each vector was its own array and each view a dataclass, 1.76 KB
    # while each record was an object with its own packed row; the row is 1296 B
    assert bytes_per_record() <= 1.4 * 1024


def test_a_trace_holds_no_allocation_per_record():
    # 4,283 and 14,778 while each record was its own object; a block of 256 rows
    # brings one array, an object and its data
    fewer, more = kept_by_a_run(300)[1], kept_by_a_run(1000)[1]
    assert more - fewer <= (1000 - 300) // 32, (fewer, more)


# (problem, eps, variant, optimism): TT1 and TT2 steps under both controllers,
# and zero-noise quad-ellipse, whose every step is a dense exact_fallback
RUNS = [("unit-circle", 1e-2, "adaptive", "optimistic"),
        ("unit-circle", 1e-2, "line_search", "optimistic"),
        ("quad-ellipse", 0.0, "adaptive", "pessimistic")]


# more than two blocks of rows, the last one partial
LONG_RUN = ("quad-linear-10", 1e-2, "line_search", "pessimistic", 600)


def run(name, eps, variant, optimism, max_iters=40):
    params = SolverParams(noise_at(eps), variant=variant, optimism=optimism,
                          max_iters=max_iters)
    return solve(get_problem(name), params, 0), params


@pytest.fixture(scope="module")
def runs():
    return [run(*spec) for spec in RUNS]


@pytest.fixture(scope="module")
def long_run():
    trace, params = run(*LONG_RUN)
    assert trace.size == 600 and len(trace.blocks) == 3
    return trace, params


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


def test_a_rows_text_fields_hold_the_names_the_records_report(runs):
    # the names themselves, which the audit compares with steps.TT1 and the others
    seen = set()
    for trace, _ in runs:
        for rec, row in zip(trace.records, np.concatenate(trace.chunks())):
            texts = {"branch": rec.branch}
            if rec.bundle is not None:
                texts.update(test=rec.bundle.test, fallback_case=rec.bundle.fallback_case)
            for name in ("branch", "test", "fallback_case"):
                assert row["has"][name] == (texts.get(name) is not None)
                if texts.get(name) is not None:
                    assert type(row[name]) is str and row[name] == texts[name]
                    seen.add(row[name])
    assert {driver.FEASIBLE_BRANCH, driver.INFEASIBLE_BRANCH, TT1, EXACT_FALLBACK} <= seen


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
        bundle, taken = tangential_step(*args, **kwargs)
        made[-1] += (bundle,)
        return bundle, taken

    monkeypatch.setattr(NoisyOracle, "sample", keep_sample)
    monkeypatch.setattr(driver.steps, "tangential_step", keep_bundle)
    for spec in RUNS + [LONG_RUN]:
        made.clear()
        trace, _ = run(*spec)
        assert len(made) == len(trace.records)
        # every record is compared: those of the long run lie on both sides of two block
        # boundaries and in a last, partial block
        assert trace.size < 2 * BEST_ITERATE_CHUNK or trace.size % BEST_ITERATE_CHUNK
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
    rec = next(r for r in trace.records[:-1] if r.alpha > 0.0)
    rec.bundle.v[...] += 1.0  # moves d = v + u off the step the loop took
    assert (rec.k, "iterate update identity broken") in failing(trace)


@pytest.mark.parametrize("name", ["v", "u", "d", "y", "rho", "r"])
def test_each_bundle_vector_writes_into_the_record(runs, name):
    trace, _ = copy.deepcopy(runs[2])
    rec = trace.records[0]
    bundle = rec.bundle
    want = {other: getattr(bundle, other).copy() for other in ("v", "u", "d", "y", "rho", "r")}
    getattr(bundle, name)[...] += 1.0
    want[name] += 1.0
    # d = v + u is formed on read: a write into v or u moves it, one into d reaches nothing
    want["d"] = want["v"] + want["u"]
    for other, value in want.items():
        assert np.array_equal(getattr(rec.bundle, other), value)


def test_setting_a_views_attribute_changes_only_that_view(runs):
    trace, params = copy.deepcopy(runs[0])
    rec = next(r for r in trace.records if r.bundle is not None)
    bundle, noisy, exact = rec.bundle, rec.noisy, rec.exact
    bundle.v = bundle.v + 1.0
    noisy.g_bar, exact.c = noisy.g_bar + 1.0, exact.c + 1.0
    assert not np.array_equal(rec.bundle.v, bundle.v)
    assert not np.array_equal(rec.noisy.g_bar, noisy.g_bar)
    assert not np.array_equal(rec.exact.c, exact.c)
    assert assert_trace_invariants(trace, params) == []
    for name in ("u", "d", "rho"):  # a view into z or resid, or v + u, has no setter
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


def bits(value):
    return struct.pack("<d", value)


def test_setting_a_scalar_writes_the_table_and_a_nan_keeps_its_bits(runs):
    trace, _ = copy.deepcopy(runs[0])
    rec = trace.records[1]
    # the quiet NaN, its negative (what inf - inf gives) and one with a payload
    nans = [struct.unpack("<d", struct.pack("<Q", word))[0]
            for word in (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123)]
    for name, value in [("tau", nans[0]), ("delta_l", nans[1]), ("chi", nans[2]),
                        ("alpha", -0.0), ("relax", math.inf)]:
        setattr(rec, name, value)
        fresh = driver.IterRecord(trace, rec.k)  # a new view of the same row reads the table
        assert bits(getattr(rec, name)) == bits(getattr(fresh, name)) == bits(value)
    rec.delta_l, rec.backtracks, rec.branch = None, 3, driver.INFEASIBLE_BRANCH
    fresh = driver.IterRecord(trace, rec.k)
    assert (fresh.delta_l, fresh.backtracks, fresh.branch) == (None, 3, driver.INFEASIBLE_BRANCH)
    assert type(fresh.backtracks) is int and type(fresh.branch) is str


def test_a_write_into_an_exact_view_reaches_best_iterate(long_run):
    trace, _ = copy.deepcopy(long_run)
    k = 2 * BEST_ITERATE_CHUNK + 5  # in the last, partial block
    assert best_iterate(trace, 1e-2, 1e-2)[0] != k
    exact = trace.records[k].exact
    exact.g[...], exact.c[...] = 0.0, 0.0  # stationary and feasible: the best iterate
    assert best_iterate(trace, 1e-2, 1e-2)[:3] == (k, 0.0, 0.0)


def test_a_deep_copy_is_independent(long_run):
    long_run[0].records  # the long run is copied with its views built, the short one without
    for trace, params in (run(*RUNS[0]), long_run):
        clone = copy.deepcopy(trace)
        for rec in clone.records:
            assert not np.shares_memory(rec.x, trace.records[rec.k].x)
            rec.x[...] += 1.0
            if rec.bundle is not None:
                rec.bundle.u[...] *= -1.0
        assert assert_trace_invariants(trace, params) == []
        assert assert_trace_invariants(clone, params) != []
    # in the long run's clone, the records on both sides of each block boundary and the
    # last one, in a partial block, moved
    edges = [BEST_ITERATE_CHUNK - 1, BEST_ITERATE_CHUNK, 2 * BEST_ITERATE_CHUNK - 1,
             2 * BEST_ITERATE_CHUNK, trace.size - 1]
    for k in edges:
        assert np.array_equal(clone.records[k].x, trace.records[k].x + 1.0)


def test_a_copied_records_scalar_set_to_none_reaches_its_table(runs):
    trace, _ = runs[0]
    trace.records  # copied with its views built
    clone = copy.deepcopy(trace)
    rec = next(r for r in clone.records if r.chi is not None)
    rec.chi = None
    assert driver.IterRecord(clone, rec.k).chi is None
    assert not np.concatenate(clone.chunks())["has"]["chi"][rec.k]
    assert trace.records[rec.k].chi is not None


@pytest.mark.parametrize("problem", builtin_registry(), ids=lambda p: p.name)
def test_every_row_and_its_float_fields_start_at_a_multiple_of_8_bytes(problem):
    # a packed row (1290 B for quad-linear-10) leaves three rows in four unaligned and
    # moves best_iterate's errors in their last bits: the pinned csv digest changes
    for p in (problem, duplicate_last_constraint(problem)):
        row = driver._row(p.n, p.m)
        assert row.itemsize % 8 == 0, (p.name, row.itemsize)
        for name, (kind, offset) in row.fields.items():
            if kind.base.kind in "fi":
                assert offset % 8 == 0, (p.name, name, offset)
        assert list(row.names)[-1] == "has"


def test_traces_and_records_compare_by_identity(runs):
    trace, _ = runs[2]
    clone = copy.deepcopy(trace)
    assert trace == trace and trace.records[0] == trace.records[0]
    assert not clone == trace and clone != trace
    assert not clone.records[0] == trace.records[0]
    rec = trace.records[0]  # each access builds a new view
    assert rec.noisy != rec.noisy and rec.exact != rec.exact and rec.bundle != rec.bundle


def test_iteration_totals_read_the_stored_scalars(runs):
    # each of these runs forms a bundle at every iteration that takes Krylov steps
    for trace, _ in runs:
        bundles = [r.bundle for r in trace.records if r.bundle is not None]
        assert trace.minres_iters == sum(b.minres_iters for b in bundles)
        assert trace.cg_iters == sum(b.cg_iters for b in bundles)
    assert runs[2][0].minres_iters > 0


if __name__ == "__main__":  # the figure CI's summary reports
    print(f"{bytes_per_record():.0f}")
